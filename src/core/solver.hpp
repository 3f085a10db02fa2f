// The unified solver facade: compile once (content-cached), execute many.
//
//   Solver solver;
//   auto plan = solver.compile(sys);                  // PlanCache hit after #1
//   auto out  = solver.execute(*plan, op, values);    // pure value work
//   auto outs = solver.execute_many(*plan, op, batch);
//
// compile() keys the cache by the system's content hash plus the
// structure-affecting options, so repeated traffic with the same loop shape
// (the ROADMAP's production pattern) pays the analysis/pred-forest/schedule
// cost exactly once.  solve() is the one-shot convenience wrapper: compile
// (cached) then execute.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <unordered_map>

#include "core/execute_wide.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "core/serialize.hpp"
#include "support/thread_annotations.hpp"

namespace ir::core {

class PlanStore;

struct SolverConfig {
  std::size_t plan_cache_capacity = 64;  ///< 0 disables plan caching

  /// Optional on-disk plan store (core/plan_io.hpp), borrowed — must outlive
  /// the solver.  compile() falls back to the store on a cache miss before
  /// compiling (every store load re-validates and re-verifies the file), and
  /// write-through persists freshly compiled gir-cap plans for future
  /// processes.  Ordinary plans are never stored: their keys miss the store
  /// and they compile (plan_io.hpp's plan_store_refusal).
  PlanStore* plan_store = nullptr;
  bool store_writes = true;  ///< persist fresh gir-cap compiles when a store is attached
};

/// Plan-cache capacity from the IR_PLAN_CACHE_CAP environment variable, or
/// `fallback` when the variable is unset or not a valid size.  "0" is valid
/// and means caching is disabled: find/peek always miss, insert is a no-op,
/// and every compile() call pays a fresh compile_plan — but single-flight
/// still coalesces concurrent compiles of one key, so racers share the
/// leader's plan even with the cache off.  shared_solver() and the service
/// layer size their caches through this, so deployments (irserve in
/// particular) tune cache footprint without a rebuild.
[[nodiscard]] std::size_t plan_cache_capacity_from_env(std::size_t fallback = 64);

class Solver {
 public:
  explicit Solver(const SolverConfig& config = {})
      : config_(config), cache_(config.plan_cache_capacity) {}

  /// Compile (or fetch from cache) a plan for `sys`.  Concurrent compiles of
  /// the same key are single-flighted: the first caller builds the plan,
  /// racers block on its result instead of compiling a duplicate — under a
  /// batch-solve server, N concurrent submits of one system cost exactly one
  /// compile (plan_compiles() counts the builds that actually ran; misses()
  /// counts cache lookups that missed, which can exceed it under races).
  /// With a plan store attached, the single-flight leader tries the store
  /// before compiling, so a warm store satisfies gir-cap misses without a
  /// compile.
  [[nodiscard]] std::shared_ptr<const Plan> compile(const GeneralIrSystem& sys,
                                                    const PlanOptions& options = {});
  [[nodiscard]] std::shared_ptr<const Plan> compile(const OrdinaryIrSystem& sys,
                                                    const PlanOptions& options = {});

  /// Number of compile_plan runs this solver actually performed (cache hits
  /// and single-flight followers excluded).
  [[nodiscard]] std::uint64_t plan_compiles() const noexcept {
    return compiles_.load(std::memory_order_relaxed);
  }

  /// Execute a plan against one initial-value array (see execute_plan).
  template <algebra::BinaryOperation Op>
  [[nodiscard]] std::vector<typename Op::Value> execute(
      const Plan& plan, const Op& op, std::vector<typename Op::Value> initial,
      const ExecOptions& exec = {}) const {
    return execute_plan(plan, op, std::move(initial), exec);
  }

  /// Execute a plan against K initial-value arrays (see execute_many).
  template <algebra::BinaryOperation Op>
  [[nodiscard]] std::vector<std::vector<typename Op::Value>> execute_many(
      const Plan& plan, const Op& op, std::vector<std::vector<typename Op::Value>> initials,
      const ExecOptions& exec = {}) const {
    return core::execute_many(plan, op, std::move(initials), exec);
  }

  /// Batch-first execute: one plan over an SoA batch (see execute_many's
  /// BatchView overload in execute_wide.hpp).
  template <algebra::BinaryOperation Op>
  [[nodiscard]] BatchView<typename Op::Value> execute_many(
      const Plan& plan, const Op& op, BatchView<typename Op::Value> batch,
      const ExecOptions& exec = {}) const {
    return core::execute_many(plan, op, std::move(batch), exec);
  }

  /// Force the wide SoA executor regardless of exec.variant (see
  /// execute_wide in execute_wide.hpp).
  template <algebra::BinaryOperation Op>
  [[nodiscard]] BatchView<typename Op::Value> execute_wide(
      const Plan& plan, const Op& op, BatchView<typename Op::Value> batch,
      const ExecOptions& exec = {}) const {
    return core::execute_wide(plan, op, std::move(batch), exec);
  }

  /// One-shot convenience: compile (cached) + execute.
  template <algebra::BinaryOperation Op, typename System>
  [[nodiscard]] std::vector<typename Op::Value> solve(const Op& op, const System& sys,
                                                      std::vector<typename Op::Value> initial,
                                                      const PlanOptions& options = {},
                                                      const ExecOptions& exec = {}) {
    const auto plan = compile(sys, options);
    return execute_plan(*plan, op, std::move(initial), exec);
  }

  [[nodiscard]] PlanCache& plan_cache() noexcept { return cache_; }
  [[nodiscard]] const PlanCache& plan_cache() const noexcept { return cache_; }

 private:
  /// Cache lookup + single-flight build keyed on (key, check); `build` runs
  /// at most once per concurrent group of callers.
  std::shared_ptr<const Plan> compile_keyed(
      std::uint64_t key, const PlanKeyCheck& check,
      const std::function<std::shared_ptr<const Plan>()>& build);

  /// Shared body of the two compile() overloads: key/check computation,
  /// store read-through, compile + verify, store write-through.
  template <typename System>
  std::shared_ptr<const Plan> compile_impl(const System& sys, const PlanOptions& options);

  SolverConfig config_;
  PlanCache cache_;  // internally locked
  std::atomic<std::uint64_t> compiles_{0};
  support::Mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, std::shared_future<std::shared_ptr<const Plan>>>
      inflight_ IR_GUARDED_BY(inflight_mutex_);
};

/// Process-wide solver: the Möbius route (linear_ir.hpp) compiles through
/// this instance, so repeated solves of one loop reuse its plan.
[[nodiscard]] Solver& shared_solver();

}  // namespace ir::core
