// Linear indexed recurrences via Möbius transformation (paper Section 3).
//
// Three loop shapes, in increasing generality (all with injective g):
//
//   LinearIrLoop:     X[g(i)] := mul[i]·X[f(i)] + add[i]
//   SelfLinearIrLoop: X[g(i)] := X[g(i)]·(c[i]·X[f(i)] + d[i])
//                               + a[i]·X[f(i)] + b[i]
//   MoebiusIrLoop:    X[g(i)] := (a[i]·X[f(i)] + b[i]) / (c[i]·X[f(i)] + d[i])
//
// None of these is an ordinary IR directly — the update is not a single
// associative ⊙ over array elements.  Lemma 2 repairs that: each iteration
// becomes a 2x2 coefficient matrix, composition is the singular-aware matrix
// product ⊗, and the loop becomes an ordinary IR over matrices, solvable in
// O(log n) rounds — or as one O(n) fold when the loop is a set of chains.
// The first two shapes only ever build affine matrices (bottom row [0, 1]),
// so they run over 16-byte (a, b) pairs under AffineCompose, the same ⊗ in
// three flops; the fractional shape keeps its 2x2 maps.  Both build each
// iteration's map on the fly from its coefficients.
// The self-referential form first substitutes X[g(i)]'s
// *initial* value into the coefficients — legal exactly because g is
// injective ("each reference to X[g(i)] is a reference to its initial
// value"), giving the paper's matrices
//   M_g(i) = [[ S[g(i)]·c + a,  S[g(i)]·d + b ], [ c, d ]]  (here with the
// affine bottom row [0, 1] folded in before composition).
//
// Chain roots contribute constant maps u -> S[cell], so every fully-composed
// trace map is itself constant and the final values read off directly.
#pragma once

#include <vector>

#include "algebra/moebius.hpp"
#include "core/ordinary_ir.hpp"

namespace ir::core {

/// X[g(i)] := mul[i]·X[f(i)] + add[i]
struct LinearIrLoop {
  OrdinaryIrSystem system;
  std::vector<double> mul;  ///< per-iteration multiplier A[i]
  std::vector<double> add;  ///< per-iteration addend B[i]

  void validate() const;
};

/// X[g(i)] := X[g(i)]·(c[i]·X[f(i)] + d[i]) + a[i]·X[f(i)] + b[i]
/// (the paper's generalized form; Livermore loop 23 is the instance
///  c = 0, d = 1, a = 0.175·Z, b = 0.175·Y.)
struct SelfLinearIrLoop {
  OrdinaryIrSystem system;
  std::vector<double> a, b, c, d;

  void validate() const;
};

/// X[g(i)] := (a[i]·X[f(i)] + b[i]) / (c[i]·X[f(i)] + d[i])
struct MoebiusIrLoop {
  OrdinaryIrSystem system;
  std::vector<algebra::MoebiusMap> maps;  ///< per-iteration linear-fractional map

  void validate() const;
};

/// Sequential references (ground truth): execute the loops as written.
std::vector<double> linear_ir_sequential(const LinearIrLoop& loop, std::vector<double> x);
std::vector<double> self_linear_ir_sequential(const SelfLinearIrLoop& loop,
                                              std::vector<double> x);
std::vector<double> moebius_ir_sequential(const MoebiusIrLoop& loop, std::vector<double> x);

/// Parallel solvers: Lemma-2 maps (affine pairs for the first two, 2x2 maps
/// for the third) + the kAuto ordinary plan, compiled through the shared
/// Solver as moebius_ir_run describes.  Output matches the sequential
/// reference up to floating-point reassociation; on chain plans (kScan) the
/// fold keeps the loop's order.
std::vector<double> linear_ir_parallel(const LinearIrLoop& loop, std::vector<double> x,
                                       const OrdinaryIrOptions& options = {});
std::vector<double> self_linear_ir_parallel(const SelfLinearIrLoop& loop,
                                            std::vector<double> x,
                                            const OrdinaryIrOptions& options = {});
std::vector<double> moebius_ir_parallel(const MoebiusIrLoop& loop, std::vector<double> x,
                                        const OrdinaryIrOptions& options = {});

/// The generic engine behind the three wrappers: run Ordinary IR over the
/// per-iteration maps and read the (constant) composed maps off.  Exposed so
/// the Livermore module can feed custom coefficient maps.
///
/// Compiles (or, via the shared Solver's plan cache, reuses) the kAuto plan
/// for `sys`, with options.pool as the sizing hint: chains take the O(n)
/// kScan fold, other systems blocked or jumping, and a recurrence-free loop
/// applies each map to its initial value directly.  options.stats is filled
/// whichever route runs.  Repeated calls on one system pay the schedule cost
/// once.
std::vector<double> moebius_ir_run(const OrdinaryIrSystem& sys,
                                   const std::vector<algebra::MoebiusMap>& iteration_maps,
                                   std::vector<double> x,
                                   const OrdinaryIrOptions& options = {});

/// Plan-based variant: run a precompiled ordinary plan (jumping, blocked or
/// scan) over the coefficient maps (detail::run_ordinary in plan.hpp: a
/// scan plan folds its segments straight into x, the others seed, replay
/// and scatter a trace array), so this touches no index maps beyond the
/// plan's own tables — callers timing repeated solves should compile once
/// and call this in the loop.
std::vector<double> moebius_ir_run(const Plan& plan,
                                   const std::vector<algebra::MoebiusMap>& iteration_maps,
                                   std::vector<double> x, const ExecOptions& exec = {});

}  // namespace ir::core
