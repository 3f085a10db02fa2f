// General indexed recurrences — GIR (paper Section 4).
//
//     for i = 0 .. n-1:  A[g(i)] := op(A[f(i)], A[h(i)])
//
// with f, g, h unrestricted.  Two facts change everything relative to the
// ordinary case (paper Figure 4):
//   * the trace of an equation is a binary TREE, so a parallel evaluation
//     reassociates across both operands — op must be COMMUTATIVE (enforced
//     here at compile time via the PowerOperation concept);
//   * traces can be exponentially long (A[i] := A[i-1]·A[i-2] has
//     Fibonacci-sized traces, Figure 5), so the power a^k must be an atomic
//     operation.
//
// The algorithm (paper Definition 2 + Figures 6-9):
//   1. Build the dependence graph: one node per iteration, one leaf per
//      initial value read; iteration i points at the last writer of f(i) and
//      of h(i), or at the corresponding initial-value leaf.
//   2. CAP — count all paths from every node to every leaf.  The number of
//      paths from iteration i to leaf x is exactly the exponent of initial
//      value A₀[x] in the trace of equation i.
//   3. Evaluate every written cell as the ⊙-product of leaf powers, in
//      O(log k) tree-fold steps per trace.
// compile_plan (plan.hpp, EngineChoice::kGeneralCap) runs steps 1-2 once and
// records the powered leaves per cell; execute_plan runs step 3.
//
// Non-distinct g (the extension the paper defers to its full version) needs
// no special casing: "last writer" edges already encode write-after-write
// ordering, and the final array takes each cell from its last writer.
#pragma once

#include <string>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/ir_problem.hpp"
#include "core/plan.hpp"
#include "graph/cap.hpp"
#include "parallel/parallel_for.hpp"

namespace ir::core {

/// The Definition-2 dependence graph of a GIR system.
/// Nodes [0, iterations) are equations; nodes [iterations, iterations +
/// leaf_cell.size()) are initial-value leaves (one per cell that is read
/// before it is first written).
struct DependenceGraph {
  graph::LabeledDag dag{0};
  std::size_t iterations = 0;
  std::vector<std::size_t> leaf_cell;  ///< leaf-local index -> cell it carries
  std::vector<std::size_t> cell_leaf;  ///< cell -> global leaf node id, or kNone

  /// Node id of cell x's initial-value leaf, or kNone if never read initially.
  [[nodiscard]] std::size_t leaf_of_cell(std::size_t cell) const;

  /// Pretty names ("i3:A[6]" for iteration nodes — writing A[g(3)] — and
  /// "A0[x]" for leaves) for rendering (paper Figure 6).
  [[nodiscard]] std::vector<std::string> node_names(
      const GeneralIrSystem& sys) const;
};

/// Build the dependence graph of `sys` (paper Definition 2 / Figure 6).
[[nodiscard]] DependenceGraph build_dependence_graph(const GeneralIrSystem& sys);

/// Exponent of every initial value in every equation's trace:
/// result[i] = pairs (cell, exponent) with exponent >= 1, sorted by cell.
/// This is CAP(G) restated in array terms, and the Figure-5 oracle
/// (for A[i] := A[i-1]·A[i-2] the exponents are Fibonacci numbers).
[[nodiscard]] std::vector<std::vector<std::pair<std::size_t, support::BigUint>>>
general_ir_exponents(const GeneralIrSystem& sys, const graph::CapOptions& cap_options = {});

/// Sequential reference (ground truth): execute the loop as written.
/// Associativity/commutativity are irrelevant here — this is the defining
/// semantics every parallel variant must match.
template <algebra::BinaryOperation Op>
std::vector<typename Op::Value> general_ir_sequential(
    const Op& op, const GeneralIrSystem& sys, std::vector<typename Op::Value> values) {
  sys.validate();
  IR_REQUIRE(values.size() == sys.cells, "initial array must have `cells` entries");
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    values[sys.g[i]] = op.combine(values[sys.f[i]], values[sys.h[i]]);
  }
  return values;
}

}  // namespace ir::core
