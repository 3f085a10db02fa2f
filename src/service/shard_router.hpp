// Shard router: N independent Server instances behind one submit surface
// (docs/http.md).
//
// Each shard is a full Server<Op> — its own Solver (own PlanCache, own
// single-flight compile table), its own dispatcher pool, its own admission
// queue — and requests route by consistent-hashing their `plan_cache_key`
// (core/hash_ring.hpp).  Two properties fall out:
//
//   * The plan cache's single mutex stops being a global chokepoint: a hot
//     plan's lookups serialize only against its own shard's traffic.
//   * Coalescing still works at full strength, because a plan key maps to
//     exactly one shard — all requests for a plan land in the same queue,
//     exactly where the coalescer looks for them.
//
// shards=1 *is* the unsharded server (one Server, ring of one), which is
// how irserve keeps its legacy semantics — the serve_soak pins (warm-start
// compile counts, drain ledger balance) hold verbatim.
//
// A shared PlanStore (ServiceConfig::plan_store) is safe across shards: the
// store is content-addressed and internally synchronized, and warm-start
// preloads every store entry into every shard's cache (a superset of what
// the shard will be asked; stats count per-shard preloads accordingly).
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "core/hash_ring.hpp"
#include "core/plan.hpp"
#include "service/request.hpp"
#include "service/server.hpp"

namespace ir::service {

template <algebra::BinaryOperation Op>
class ShardRouter {
 public:
  using Shard = Server<Op>;
  using Request = typename Shard::Request;
  using Response = typename Shard::Response;
  using Value = typename Op::Value;

  /// `shards` Server instances, each constructed from `config` (shared
  /// plan_store and slow_log pointers are fine; both are thread-safe).
  ShardRouter(const Op& op, const ServiceConfig& config, std::size_t shards,
              std::size_t vnodes = 64)
      : ring_(shards, vnodes) {
    shards_.reserve(ring_.shard_count());
    for (std::size_t s = 0; s < ring_.shard_count(); ++s) {
      shards_.push_back(std::make_unique<Shard>(op, config));
    }
  }

  /// The shard `request` routes to (pure function of system + options).  A
  /// ring of one always answers 0, so the key is not hashed at all.
  [[nodiscard]] std::size_t shard_for(const Request& request) const {
    if (shards_.size() == 1) return 0;
    core::PlanOptions options = request.plan;
    options.pool = nullptr;  // the server nulls it too; keep the key canonical
    return ring_.shard_for(core::plan_cache_key(request.sys, options));
  }

  void submit_callback(Request request, std::function<void(Response&&)> done) {
    const std::size_t shard = shard_for(request);
    shards_[shard]->submit_callback(std::move(request), std::move(done));
  }

  [[nodiscard]] std::future<Response> submit_async(Request request) {
    const std::size_t shard = shard_for(request);
    return shards_[shard]->submit_async(std::move(request));
  }

  [[nodiscard]] Response submit(Request request) {
    return submit_async(std::move(request)).get();
  }

  /// Drain every shard (stop admitting, finish in-flight).
  void drain() {
    for (auto& shard : shards_) shard->drain();
  }

  void shutdown() {
    for (auto& shard : shards_) shard->shutdown();
  }

  /// Whole-fleet rollup: the field-wise sum of every shard's ledger (peaks
  /// and depths sum too — "total queued work", not "max of any shard").
  [[nodiscard]] ServiceStats stats() const {
    ServiceStats total;
    for (const auto& shard : shards_) {
      accumulate(total, shard->stats());
    }
    // plan_store_* counters live on the (shared) store, so every shard
    // reports the same global numbers: take one copy, not the sum.
    const ServiceStats first = shards_.front()->stats();
    total.plan_store_hits = first.plan_store_hits;
    total.plan_store_misses = first.plan_store_misses;
    total.plan_store_rejects = first.plan_store_rejects;
    total.plan_store_puts = first.plan_store_puts;
    total.plan_store_preloaded = first.plan_store_preloaded;
    return total;
  }

  [[nodiscard]] ServiceStats shard_stats(std::size_t shard) const {
    return shards_[shard]->stats();
  }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] Shard& shard(std::size_t index) noexcept { return *shards_[index]; }
  [[nodiscard]] const core::HashRing& ring() const noexcept { return ring_; }

 private:
  static void accumulate(ServiceStats& total, const ServiceStats& s) {
    total.accepted += s.accepted;
    total.rejected_queue_full += s.rejected_queue_full;
    total.rejected_backpressure += s.rejected_backpressure;
    total.rejected_shutdown += s.rejected_shutdown;
    total.rejected_invalid += s.rejected_invalid;
    total.executed_ok += s.executed_ok;
    total.executed_failed += s.executed_failed;
    total.deadline_misses += s.deadline_misses;
    total.cancelled += s.cancelled;
    total.dispatched += s.dispatched;
    total.replied += s.replied;
    total.ticker_samples += s.ticker_samples;
    total.batches += s.batches;
    total.coalesced_requests += s.coalesced_requests;
    total.peak_batch += s.peak_batch;
    total.peak_queue_depth += s.peak_queue_depth;
    total.queue_depth += s.queue_depth;
    total.in_flight += s.in_flight;
    total.plan_cache_hits += s.plan_cache_hits;
    total.plan_cache_misses += s.plan_cache_misses;
    total.plan_cache_collisions += s.plan_cache_collisions;
    total.plan_compiles += s.plan_compiles;
  }

  core::HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ir::service
