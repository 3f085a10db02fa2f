// Request/response vocabulary of the batch-solve service (docs/service.md).
//
// The service accepts solve requests — a system, its initial values, and
// per-request policy (engine choice, deadline, cancellation token) — and
// answers each with a BasicResponse: either the solved value array or a
// typed non-OK status explaining exactly why no values were produced
// (admission reject, expired deadline, cooperative cancel, engine failure).
// Statuses are deliberately a closed enum, not free-form strings: admission
// control is part of the API contract, and callers route on it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace ir::core {
class PlanStore;
}  // namespace ir::core

namespace ir::service {

class SlowLog;

/// Steady clock used for enqueue timestamps and deadlines — wall-clock jumps
/// must never expire a request.
using Clock = std::chrono::steady_clock;

/// Terminal state of one request.
enum class Status {
  kOk,                    ///< executed; `values` holds the solved array
  kRejectedQueueFull,     ///< admission: queue at hard capacity
  kRejectedBackpressure,  ///< admission: above the high watermark (hysteresis)
  kRejectedShutdown,      ///< admission: server draining or shut down
  kRejectedInvalid,       ///< admission: request malformed (sizes, validation)
  kDeadlineExpired,       ///< accepted, but its deadline passed before execute
  kCancelled,             ///< accepted, but its cancel token fired before execute
  kFailed,                ///< accepted, but compile/execute threw
};

[[nodiscard]] std::string to_string(Status status);

/// True for the three admission-control rejects (the request was never
/// queued); deadline/cancel/failure happen to *accepted* requests.
[[nodiscard]] constexpr bool is_rejected(Status status) noexcept {
  return status == Status::kRejectedQueueFull ||
         status == Status::kRejectedBackpressure ||
         status == Status::kRejectedShutdown || status == Status::kRejectedInvalid;
}

/// Timestamped lifecycle edges of one request, in process-monotonic
/// nanoseconds (obs::now_ns — available regardless of IR_TELEMETRY, because
/// ids and phase timings are part of request identity, not optional
/// metrics).  A zero timestamp means the request never reached that edge:
/// an admission reject has only request_id set; a deadline miss has
/// accepted/coalesced but no dispatched.
struct RequestTrace {
  std::uint64_t request_id = 0;    ///< process-unique, assigned at submit
  std::uint64_t accepted_ns = 0;   ///< admission accepted, enqueued
  std::uint64_t coalesced_ns = 0;  ///< claimed into a plan-keyed group
  std::uint64_t dispatched_ns = 0; ///< survived triage, handed to the executor
  std::uint64_t finished_ns = 0;   ///< terminal edge stamped (reply imminent)
  std::uint64_t batch_id = 0;      ///< coalesced group id (0 = never claimed)
  std::size_t batch_size = 0;      ///< live size of the executed batch
  std::int64_t deadline_slack_ns = 0;  ///< deadline - finish; <0 = missed

  /// Queue phase: accept -> dispatch (or -> finish for triaged-out requests).
  [[nodiscard]] std::uint64_t queue_ns() const noexcept {
    const std::uint64_t end = dispatched_ns != 0 ? dispatched_ns : finished_ns;
    return end > accepted_ns ? end - accepted_ns : 0;
  }
  /// Execute phase: dispatch -> finish (0 when never dispatched).
  [[nodiscard]] std::uint64_t execute_ns() const noexcept {
    return dispatched_ns != 0 && finished_ns > dispatched_ns
               ? finished_ns - dispatched_ns
               : 0;
  }
  /// Whole lifetime: accept -> finish (0 for admission rejects).
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return accepted_ns != 0 && finished_ns > accepted_ns
               ? finished_ns - accepted_ns
               : 0;
  }
};

/// Per-request execution facts, filled for kOk responses (and partially for
/// the terminal-without-execute statuses, where wait is still meaningful).
struct ResponseInfo {
  std::size_t batch_size = 0;         ///< live requests in the coalesced batch
  bool coalesced = false;             ///< rode a batch with other requests
  std::uint64_t plan_fingerprint = 0; ///< content fingerprint of the plan used
  std::string engine;                 ///< plan engine name ("jumping", ...)
  std::string variant;                ///< execute variant ("wide" or "scalar")
  Clock::duration wait{};             ///< enqueue -> dispatch
  Clock::duration execute{};          ///< the batch's execute_many wall time
  RequestTrace trace;                 ///< lifecycle edges (docs/observability.md)
};

/// One completed request.  `values` is populated iff `status == kOk`.
template <typename ValueT>
struct BasicResponse {
  Status status = Status::kFailed;
  std::string error;  ///< human-readable detail for non-OK statuses
  std::vector<ValueT> values;
  ResponseInfo info;

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

/// Counter snapshot of a running (or drained) server.  Monotone except the
/// two depth fields; `accepted == executed_ok + executed_failed +
/// deadline_misses + cancelled` once the server has drained.
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t executed_ok = 0;
  std::uint64_t executed_failed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t dispatched = 0;      ///< survived triage, handed to executor
  std::uint64_t replied = 0;         ///< accepted requests whose promise was fulfilled
  std::uint64_t ticker_samples = 0;  ///< background gauge samples taken
  std::uint64_t batches = 0;             ///< execute_many dispatches
  std::uint64_t coalesced_requests = 0;  ///< requests that shared a batch
  std::uint64_t peak_batch = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t queue_depth = 0;  ///< at snapshot time
  std::uint64_t in_flight = 0;    ///< dispatched but not yet completed
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t plan_cache_collisions = 0;  ///< 64-bit key double-check rejections
  std::uint64_t plan_compiles = 0;  ///< compile_plan runs (single-flighted)
  std::uint64_t plan_store_hits = 0;       ///< cache misses served from disk
  std::uint64_t plan_store_misses = 0;     ///< store lookups with no entry
  std::uint64_t plan_store_rejects = 0;    ///< corrupt/mismatched entries refused
  std::uint64_t plan_store_puts = 0;       ///< fresh compiles written through
  std::uint64_t plan_store_preloaded = 0;  ///< plans warm-started at boot

  [[nodiscard]] std::uint64_t completed() const noexcept {
    return executed_ok + executed_failed + deadline_misses + cancelled;
  }
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_queue_full + rejected_backpressure + rejected_shutdown +
           rejected_invalid;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Service sizing and policy.  Everything is fixed at construction; the
/// irserve frontend maps its flags straight onto these fields.
struct ServiceConfig {
  /// Hard queue capacity: admission rejects kRejectedQueueFull beyond it.
  std::size_t queue_capacity = 1024;

  /// Backpressure hysteresis: once depth reaches `high_watermark` the server
  /// rejects kRejectedBackpressure until depth falls to `low_watermark`.
  /// 0 disables the soft gate (only the hard capacity rejects).
  std::size_t high_watermark = 0;
  std::size_t low_watermark = 0;

  /// Dispatcher threads: each repeatedly claims one plan-keyed group from
  /// the queue and runs it as a single execute_many.
  std::size_t dispatchers = 2;

  /// Max requests coalesced into one batch.
  std::size_t max_batch = 64;

  /// Per-dispatcher ThreadPool size for the inner execute_many / compile;
  /// 0 = no pool (serial inner execute, parallelism across dispatchers only).
  std::size_t exec_threads = 0;

  /// Route coalesced batches (2+ requests) through the wide SoA executor
  /// (core/execute_wide.hpp): the batch is transposed once and all lanes run
  /// the schedule in lockstep, which vectorizes the jump-round gathers.
  /// Off = per-request execute_plan, the pre-wide behaviour.
  bool wide_batches = true;

  /// Plan-cache capacity of the server's Solver; 0 = the IR_PLAN_CACHE_CAP
  /// environment override (default 64) — see core/solver.hpp.
  std::size_t plan_cache_capacity = 0;

  /// Background ticker interval sampling queue-depth / in-flight gauges and
  /// histograms; 0 disables the ticker thread (tests and embedders that
  /// snapshot deterministically don't want a sampler racing them).
  std::size_t ticker_interval_ms = 0;

  /// Slow-request threshold: an accepted request whose accept→finish time
  /// reaches this many nanoseconds is written to `slow_log` as one JSON
  /// line.  0 disables the slow log even when `slow_log` is set.
  std::uint64_t slow_request_ns = 0;

  /// Sink for slow-request records (borrowed, must outlive the server).
  SlowLog* slow_log = nullptr;

  /// Optional on-disk plan store (core/plan_io.hpp; borrowed, must outlive
  /// the server).  The server's Solver falls back to it on cache misses
  /// before compiling, and writes fresh gir-cap compiles through unless
  /// `store_writes` is off.
  core::PlanStore* plan_store = nullptr;
  bool store_writes = true;

  /// Preload every store entry into the plan cache at construction: a
  /// restarted server serves its gir-cap systems with zero compiles and
  /// compiles each ordinary system once, since the store holds gir-cap
  /// plans only (irserve --warm-start).  Requires `plan_store`.
  bool warm_start = false;
};

namespace detail {

class ServerCore;

/// Queue entry seen by the type-erased core: everything admission, the
/// coalescer, and the deadline/cancel triage need, plus a virtual completion
/// hook the typed layer implements by fulfilling its promise.
class PendingBase {
 public:
  virtual ~PendingBase() = default;

  /// Terminal edge: stamps the trace, routes ledger/latency/slow-log
  /// bookkeeping through the owning core (when the request was accepted —
  /// admission rejects have no core and skip the ledger), then hands the
  /// final ResponseInfo to fulfill().  Idempotent: the first caller wins,
  /// later calls are no-ops — "every accepted request ends in exactly one
  /// terminal edge" is enforced here, not by caller discipline.
  void finish(Status status, const std::string& error, const ResponseInfo& info);

  std::uint64_t coalesce_key = 0;  ///< plan_cache_key of (system, options)
  Clock::time_point enqueued_at{};
  Clock::time_point deadline = Clock::time_point::max();
  std::shared_ptr<std::atomic<bool>> cancel;  ///< null = not cancellable
  RequestTrace trace;              ///< lifecycle edges, stamped by the core
  ServerCore* core = nullptr;      ///< set on admission; null = rejected

 protected:
  /// Deliver the terminal response (fulfill the promise).  Called exactly
  /// once, never concurrently, after all bookkeeping.
  virtual void fulfill(Status status, const std::string& error,
                       const ResponseInfo& info) = 0;

 private:
  std::atomic<bool> finished_{false};
};

}  // namespace detail

}  // namespace ir::service
