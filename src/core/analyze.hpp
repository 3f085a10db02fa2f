// Static analysis of IR systems: the report a parallelizing compiler wants
// before choosing a solver.
//
// Everything here is derived from the index maps alone (the paper's whole
// point: no array dataflow analysis needed):
//   * the recurrence class (core/classify.hpp),
//   * dependence-depth statistics (the critical path = minimum parallel
//     rounds any solver of this family can achieve),
//   * chain/leaf structure, cross-block dependence fractions (predicting
//     the blocked solver's behaviour),
//   * a solver recommendation with the predicted round count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/ir_problem.hpp"

namespace ir::core {

/// Which solver the analyzer recommends.
enum class SolverRoute {
  kElementwiseParallel,  ///< no recurrence: plain parallel for
  kScanOrMoebius,        ///< linear chains: pair scan or the Möbius route
  kOrdinaryJumping,      ///< ordinary IR: pointer jumping (or blocked variant)
  kGeneralCap,           ///< general IR: dependence graph + CAP (needs
                         ///< commutative op with atomic power)
};

[[nodiscard]] std::string to_string(SolverRoute route);

/// The analysis report.
struct SystemReport {
  LoopClass loop_class = LoopClass::kNoRecurrence;
  SolverRoute route = SolverRoute::kElementwiseParallel;

  std::size_t iterations = 0;
  std::size_t cells = 0;

  /// Flow-dependence structure.
  std::size_t dependences = 0;       ///< reads of earlier writes (f and h)
  std::size_t roots = 0;             ///< equations with no dependence
  std::size_t depth = 0;             ///< longest dependence chain (critical path)
  double mean_depth = 0.0;           ///< average over equations
  std::size_t initial_reads = 0;     ///< distinct cells read before any write
  std::size_t repeated_writes = 0;   ///< iterations overwriting a written cell

  /// Predicted pointer-jumping rounds (⌈log₂ depth⌉, 0 when depth <= 1).
  std::size_t predicted_rounds = 0;

  /// Fraction of equations whose dependence crosses a block boundary when
  /// iterations are split into `blocks` equal blocks — the blocked solver's
  /// phase-2 load.  One entry per probed block count (2, 4, 8, ..., 256).
  std::vector<std::pair<std::size_t, double>> cross_block_fraction;

  [[nodiscard]] std::string to_string() const;
};

/// Analyze a general IR system.
[[nodiscard]] SystemReport analyze(const GeneralIrSystem& sys);

/// Analyze an ordinary IR system (h := g embedding).
[[nodiscard]] SystemReport analyze(const OrdinaryIrSystem& sys);

/// Exact fraction of equations whose dependence (through f or h) crosses a
/// block boundary under parallel::partition_blocks(n, blocks) — the *same*
/// partition the blocked engine executes, including its uneven tail blocks
/// when n is not divisible by the block count.  The profile entries in
/// SystemReport::cross_block_fraction are computed with this function.
/// compile_plan's kAuto routing counts the same crossings on its own pred
/// forest, at the exact routing block count.
[[nodiscard]] double measure_cross_block_fraction(const GeneralIrSystem& sys,
                                                  std::size_t blocks);

}  // namespace ir::core
