// Ordinary indexed recurrences (paper Section 2).
//
//     for i = 0 .. n-1:  A[g(i)] := op(A[f(i)], A[g(i)])     (g injective)
//
// Lemma 1 shows the final value of A[g(i)] is the ordered product of a
// *chain* of initial values: start at iteration i and repeatedly hop to
// pred(i) = the last iteration j < i with g(j) = f(i).  Because g is
// injective the self-operand A[g(i)] is always cell g(i)'s initial value, so
//
//     W(i) = W(pred(i)) ⊙ S[g(i)],     W(root) = S[f(root)] ⊙ S[g(root)]
//
// and the pred links form a forest of chains.  The paper's greedy algorithm
// concatenates adjacent sub-traces in every round — pointer jumping:
//
//     val[i] ← val[ptr[i]] ⊙ val[i];   ptr[i] ← ptr[ptr[i]]
//
// reaching all complete traces in ⌈log₂ n⌉ rounds with one processor per
// equation.  Operand order is preserved, so ⊙ may be non-commutative.
//
// compile_plan (plan.hpp) records the pred forest as a schedule — jumping
// rounds, a blocked partition, or the kScan fold for pure f(i) = i-1
// chains — and execute_plan replays it over a trace array
// seeded with W(root) and S[g(i)].  This header keeps the loop itself, the
// oracle every one of those routes is checked against.
#pragma once

#include <vector>

#include "algebra/concepts.hpp"
#include "core/engine_types.hpp"
#include "core/ir_problem.hpp"
#include "core/plan.hpp"
#include "support/contract.hpp"

namespace ir::core {

/// Sequential reference: executes the loop as written.  Ground truth for
/// every parallel variant.
template <algebra::BinaryOperation Op>
std::vector<typename Op::Value> ordinary_ir_sequential(
    const Op& op, const OrdinaryIrSystem& sys, std::vector<typename Op::Value> values) {
  sys.validate();
  IR_REQUIRE(values.size() == sys.cells, "initial array must have `cells` entries");
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    values[sys.g[i]] = op.combine(values[sys.f[i]], values[sys.g[i]]);
  }
  return values;
}

}  // namespace ir::core
