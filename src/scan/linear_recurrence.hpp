// First-order linear recurrence solvers — the classic case IR generalizes.
//
//     x[i] = a[i] * x[i-1] + b[i],   i = 1..n,  x[0] given.
//
// The standard parallel solution (Kogge & Stone 1973, the paper's reference
// [4]) scans over the affine coefficient pairs (algebra::AffineMap):
// composing (a2,b2)∘(a1,b1) = (a2·a1, a2·b1 + b2) is associative, so a
// parallel prefix over pairs yields every x[i] in O(log n) rounds.  The IR
// library reproduces the same answers through the Möbius route (LinearIr
// with f(i) = i-1, g(i) = i), and the tridiagonal-style benches compare the
// two.
//
// The scan composes with Lemma 2's short-circuit (algebra::AffineCompose):
// a zero slope makes the composed map the constant b[i] outright.  On finite
// data that is the loop's 0·x + b, up to the sign of a zero b; after a
// prefix that overflowed to inf or NaN the loop computes NaN from there on,
// while the scan restarts at b[i].
#pragma once

#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace ir::scan {

/// Sequential reference: returns x[1..n] (vector index k holds x[k+1]).
std::vector<double> linear_recurrence_sequential(std::span<const double> a,
                                                 std::span<const double> b, double x0);

/// Kogge-Stone pair-scan solution; identical output contract.
/// Pass a pool to run rounds in parallel.
std::vector<double> linear_recurrence_scan(std::span<const double> a,
                                           std::span<const double> b, double x0,
                                           parallel::ThreadPool* pool = nullptr);

}  // namespace ir::scan
