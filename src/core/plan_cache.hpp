// Content-addressed LRU cache of compiled plans.
//
// Keys are plan_cache_key(system, options) — pure functions of the system's
// index words (content_fingerprint), the requested engine and the option
// knobs that engine's compile reads, so two identical systems share one plan, any
// content mutation (or knob the engine reads) misses, and knobs a forced
// engine never reads (e.g. GIR flags under forced jumping) cannot cause
// spurious misses.  Entries are shared_ptr<const
// Plan>: a hit can be executed long after the entry was evicted.
//
// The key is a bare 64-bit hash, so every entry also stores its
// PlanKeyCheck (an independent second hash of the same identity); a
// lookup whose check disagrees with the stored one is a detected collision
// — counted (collisions(), plan_cache.collisions) and treated as a miss,
// never served.  An insert under a colliding key replaces the entry: the
// newest identity wins, both identities keep compiling.
//
// A capacity of 0 disables caching outright: find/peek always miss, insert
// is a no-op — the documented IR_PLAN_CACHE_CAP=0 semantics (solver.hpp).
//
// Thread safe (one mutex — compile is orders of magnitude more expensive
// than the lookup).  Hit/miss/eviction/collision counts are exposed both as
// instance accessors and as plan_cache.* metrics in the observability
// registry (docs/observability.md).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/plan.hpp"
#include "support/thread_annotations.hpp"

namespace ir::core {

class PlanCache {
 public:
  /// `capacity` = max cached plans; 0 disables caching entirely.
  explicit PlanCache(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Look up a plan; bumps it to most-recently-used on a hit.  A present
  /// key whose stored check differs from `check` counts one collision and
  /// one miss and returns null.
  [[nodiscard]] std::shared_ptr<const Plan> find(std::uint64_t key,
                                                 const PlanKeyCheck& check)
      IR_EXCLUDES(mutex_);

  /// find() without counters or an LRU bump — the Solver's single-flight
  /// double-check uses this so one compile() call never records more than
  /// one hit or miss.  A check mismatch returns null without counting.
  [[nodiscard]] std::shared_ptr<const Plan> peek(std::uint64_t key,
                                                 const PlanKeyCheck& check) const
      IR_EXCLUDES(mutex_);

  /// Insert (or refresh) a plan, evicting the least-recently-used entry
  /// beyond capacity.  Inserting under a key held by a different identity
  /// counts a collision and replaces the entry.
  void insert(std::uint64_t key, const PlanKeyCheck& check,
              std::shared_ptr<const Plan> plan) IR_EXCLUDES(mutex_);

  void clear() IR_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t misses() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t evictions() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t collisions() const IR_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::uint64_t key;
    PlanKeyCheck check;
    std::shared_ptr<const Plan> plan;
  };

  mutable support::Mutex mutex_;
  std::size_t capacity_;  ///< immutable after construction
  /// front = most recently used
  std::list<Entry> lru_ IR_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
      IR_GUARDED_BY(mutex_);
  std::uint64_t hits_ IR_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ IR_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ IR_GUARDED_BY(mutex_) = 0;
  std::uint64_t collisions_ IR_GUARDED_BY(mutex_) = 0;
};

}  // namespace ir::core
