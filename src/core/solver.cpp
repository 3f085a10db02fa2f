#include "core/solver.hpp"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "core/plan_io.hpp"
#include "obs/telemetry.hpp"

#if defined(IR_VERIFY_PLANS_ENABLED)
#include "verify/verify.hpp"
#endif

namespace ir::core {

namespace {

#if defined(IR_VERIFY_PLANS_ENABLED)
/// Debug-build gate (-DIR_VERIFY_PLANS=ON): no plan enters the cache without
/// passing the static verifier.  A violation here is a schedule-builder bug,
/// so it throws InternalError with the verifier's diagnostic.  The symbolic
/// budget is kept small — this runs on every cache miss.
template <typename System>
void verify_before_insert(const Plan& plan, const System& sys) {
  verify::VerifyOptions options;
  options.max_symbolic_terms = std::size_t{1} << 18;
  const verify::VerifyReport report = verify::verify_plan(plan, sys, options);
  IR_INVARIANT(report.ok(), "IR_VERIFY_PLANS rejected a compiled plan: " +
                                report.summary());
}
#endif

/// The write-through path serializes the source system into the plan file,
/// so ordinary systems go through their GIR embedding exactly as to_text
/// does.
const GeneralIrSystem& as_general(const GeneralIrSystem& sys) { return sys; }
GeneralIrSystem as_general(const OrdinaryIrSystem& sys) {
  return GeneralIrSystem::from_ordinary(sys);
}

}  // namespace

std::shared_ptr<const Plan> Solver::compile_keyed(
    std::uint64_t key, const PlanKeyCheck& check,
    const std::function<std::shared_ptr<const Plan>()>& build) {
  if (auto cached = cache_.find(key, check)) return cached;

  // Single-flight: exactly one caller per key becomes the leader and builds;
  // concurrent racers park on the leader's future.  The leader publishes to
  // the cache before retiring the in-flight entry, so a caller arriving in
  // between is served by one of the two.
  std::promise<std::shared_ptr<const Plan>> promise;
  std::shared_future<std::shared_ptr<const Plan>> flight;
  bool leader = false;
  {
    support::LockGuard lock(inflight_mutex_);
    // peek, not find: the fast path above already recorded this call's miss.
    if (auto cached = cache_.peek(key, check)) return cached;
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      leader = true;
      flight = promise.get_future().share();
      inflight_.emplace(key, flight);
    }
  }
  if (!leader) return flight.get();  // rethrows the leader's exception, if any

  try {
    auto plan = build();
    cache_.insert(key, check, plan);
    promise.set_value(plan);
    {
      support::LockGuard lock(inflight_mutex_);
      inflight_.erase(key);
    }
    return plan;
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      support::LockGuard lock(inflight_mutex_);
      inflight_.erase(key);
    }
    throw;
  }
}

template <typename System>
std::shared_ptr<const Plan> Solver::compile_impl(const System& sys,
                                                 const PlanOptions& options) {
  // One pass over the index words yields the key, the collision double-check,
  // and the option words the store write-through records.
  const PlanKey identity = plan_key(sys, options);
  return compile_keyed(identity.key, identity.check,
                       [&]() -> std::shared_ptr<const Plan> {
    // Store read-through, leader-only: a warm store turns a cache miss into
    // a load + verify instead of a compile (get() re-validates the file and
    // applies the same collision double-check as the cache).
    if (config_.plan_store != nullptr) {
      if (auto stored = config_.plan_store->get(identity.key, identity.check)) {
        return stored;
      }
    }
    auto plan = std::make_shared<const Plan>(compile_plan(sys, options));
    compiles_.fetch_add(1, std::memory_order_relaxed);
#if defined(IR_VERIFY_PLANS_ENABLED)
    verify_before_insert(*plan, sys);
#endif
    // Only gir-cap plans are stored (plan_store_refusal): an ordinary plan
    // compiles faster than a stored one verifies, so it is recompiled after
    // a restart instead.
    if (config_.plan_store != nullptr && config_.store_writes && !plan_store_refusal(*plan)) {
      // Best-effort: a full disk or unwritable store must not fail the
      // solve that just compiled a perfectly good plan.
      try {
        config_.plan_store->put(identity.words, *plan, as_general(sys));
      } catch (const std::exception&) {
        IR_COUNTER_ADD("plan_store.put_failures", 1);
      }
    }
    return plan;
  });
}

std::shared_ptr<const Plan> Solver::compile(const GeneralIrSystem& sys,
                                            const PlanOptions& options) {
  return compile_impl(sys, options);
}

std::shared_ptr<const Plan> Solver::compile(const OrdinaryIrSystem& sys,
                                            const PlanOptions& options) {
  return compile_impl(sys, options);
}

std::size_t plan_cache_capacity_from_env(std::size_t fallback) {
  const char* raw = std::getenv("IR_PLAN_CACHE_CAP");
  if (raw == nullptr || *raw == '\0') return fallback;
  // Strict parse: the whole string must be a base-10 size.  Anything else
  // (negative, trailing junk, overflow) keeps the fallback — a typo in a
  // deployment environment must not silently disable caching.
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || raw[0] == '-') return fallback;
  return static_cast<std::size_t>(value);
}

Solver& shared_solver() {
  static Solver solver(SolverConfig{plan_cache_capacity_from_env()});
  return solver;
}

}  // namespace ir::core
