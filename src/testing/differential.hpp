// Differential oracle harness: one system, every engine, one verdict.
//
// The repository's ground truth is the sequential loop (general_ir_sequential
// / ordinary_ir_sequential).  run_differential() evaluates a system through
// every production route — forced-engine plans (pooled and not), the kAuto
// router, execute_many batching, the wide executor, the binary plan format,
// the content-cached Solver paths and the batch service — and reports every
// route whose answer (or escape behaviour) disagrees with the oracle.  Values are derived deterministically from the
// cell index, so a verdict is a pure function of the system: exactly what the
// shrinker (shrink.hpp) needs for its failure predicate.
//
// `corrupt_oracle` perturbs the sequential answer before comparison.  That is
// the harness's own fault injection: a corrupted oracle must make every
// value-producing route report a mismatch, which is how irfuzz --selftest
// proves the detector and the shrinker actually fire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ir_problem.hpp"
#include "parallel/thread_pool.hpp"

namespace ir::testing {

struct DifferentialOptions {
  /// Modulus of the primary ModMulMonoid sweep (must be ≥ 3 so values are
  /// informative; a Mersenne-ish prime keeps products well mixed).
  std::uint64_t modulus = 1'000'000'007ull;

  /// When set, pooled engine variants run too (and execute_many batches
  /// through the pool).
  parallel::ThreadPool* pool = nullptr;

  /// Forced block count of the blocked legs (a non-power-of-two on purpose —
  /// the partition profile bug lived exactly off the power-of-two buckets).
  std::size_t blocks = 3;

  /// Ordinary systems up to this size also run the non-commutative
  /// ConcatMonoid sweep (order-preservation witness; quadratic in string
  /// length, hence the cap).
  std::size_t concat_max_iterations = 48;

  /// Systems up to this size also run the coalesce_each_round=false GIR
  /// ablation.  Without per-round merging, parallel CAP edges multiply —
  /// exponentially on dense systems — so this leg must stay small.
  std::size_t late_coalesce_max_iterations = 24;

  /// Additionally push the case through the process-wide shared_solver()
  /// (exercises the global PlanCache under whatever state earlier cases
  /// left in it).
  bool use_shared_solver = false;

  /// Statically verify every compiled plan (bounds, preconditions, hazard
  /// analysis, symbolic replay — see verify/verify.hpp) alongside the value
  /// comparison.  A violation is reported as "verify-<route>:<code>".  The
  /// static pass catches schedule bugs the commutative ModMul sweep would
  /// forgive (operand reordering) and localises them to a round/move instead
  /// of a final value.
  bool verify_plans = false;

  /// Fault injection: perturb the oracle so every route must disagree.
  bool corrupt_oracle = false;
};

struct DifferentialReport {
  std::size_t engines_run = 0;
  std::vector<std::string> mismatches;  ///< labels of disagreeing routes

  [[nodiscard]] bool ok() const noexcept { return mismatches.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Run every applicable engine on `sys` and compare against the sequential
/// oracle.  Throws ContractViolation if `sys` itself is invalid; engine
/// exceptions are caught and reported as mismatches ("<label>:threw:...").
[[nodiscard]] DifferentialReport run_differential(const core::GeneralIrSystem& sys,
                                                  const DifferentialOptions& options = {});

}  // namespace ir::testing
