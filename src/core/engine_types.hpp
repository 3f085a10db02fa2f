// Statistics and option structs shared between the linear/Möbius solvers
// (linear_ir.hpp) and the Plan/execute API (plan.hpp).  They live in their
// own header so plan.hpp can name them without pulling in either side.
#pragma once

#include <cstddef>

#include "parallel/thread_pool.hpp"

namespace ir::core {

/// Execution statistics of an ordinary-engine run (observability for tests
/// and the ablation benches).
struct OrdinaryIrStats {
  std::size_t rounds = 0;           ///< pointer-jumping rounds executed
  std::size_t op_applications = 0;  ///< total ⊙ applications, root seeds included
  std::size_t peak_active = 0;      ///< widest round (active traces)
};

/// Options for the linear/Möbius solvers (linear_ir.hpp).
struct OrdinaryIrOptions {
  /// Thread pool for the rounds, and the sizing hint of the plan's
  /// blocked-vs-jumping choice; nullptr runs them on the calling thread
  /// (still the same schedule, useful for determinism).
  parallel::ThreadPool* pool = nullptr;

  /// The paper's "fork only up to P processes" cap on logical parallelism
  /// of the jumping rounds.  0 means "one block per pool thread".
  std::size_t processor_cap = 0;

  /// If non-null, filled with run statistics.
  OrdinaryIrStats* stats = nullptr;
};

/// Statistics of a blocked run.
struct BlockedIrStats {
  std::size_t blocks = 0;           ///< blocks used in phase 1
  std::size_t partials = 0;         ///< equations with cross-block predecessors
  std::size_t resolve_rounds = 0;   ///< blocks with a non-empty fix-up step
  std::size_t op_applications = 0;  ///< total ⊙ applications (work)
};

}  // namespace ir::core
