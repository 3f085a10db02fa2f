// The embeddable batch-solve server (docs/service.md).
//
//   ir::service::Server server(algebra::ModMulMonoid(p), config);
//   auto future = server.submit_async({sys, initial});
//   auto response = future.get();            // or server.submit(...) to block
//   if (response.ok()) use(response.values);
//   server.drain();                          // stop admitting, finish the rest
//
// Requests are keyed by plan_cache_key(system, options); queued requests
// sharing a key are coalesced into ONE compile (served by the server's
// content-addressed PlanCache) and ONE execute_many — the compile-once /
// replay-many economics of the plan API (docs/solver_api.md) turned into
// per-request throughput.  Admission control (hard capacity + watermark
// hysteresis), per-request deadlines, and cooperative cancellation live in
// the type-erased ServerCore; this template adds the operation: compiling
// through a Solver, batching the initial arrays, and fulfilling each
// request's promise.  Batching never reorders operands — each initial array
// replays the schedule independently inside execute_many, which the
// ConcatMonoid differential leg (src/testing/) pins.
#pragma once

#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "core/solver.hpp"
#include "obs/request_id.hpp"
#include "obs/telemetry.hpp"
#include "service/request.hpp"
#include "service/server_core.hpp"

namespace ir::service {

template <algebra::BinaryOperation Op>
class Server {
 public:
  using Value = typename Op::Value;
  using Response = BasicResponse<Value>;

  /// One solve request.  `deadline` is relative to submit time (zero = no
  /// deadline); `cancel` is an optional cooperative token — set it to true
  /// any time before dispatch and the request completes kCancelled without
  /// touching the operation.  `plan.pool` is ignored: execution placement
  /// belongs to the server (ServiceConfig::exec_threads).
  struct Request {
    core::GeneralIrSystem sys;
    std::vector<Value> initial;
    core::PlanOptions plan;
    Clock::duration deadline{0};
    std::shared_ptr<std::atomic<bool>> cancel;
  };

  explicit Server(Op op, const ServiceConfig& config = {})
      : op_(std::move(op)),
        config_(config),
        solver_(make_solver_config(config)),
        core_(config, [this](std::vector<std::shared_ptr<detail::PendingBase>> batch,
                             parallel::ThreadPool* pool) {
          execute_batch(std::move(batch), pool);
        }) {
    // Warm start before the dispatchers see any traffic: every store entry
    // enters the plan cache under its recorded identity, so a restarted
    // server replays its working set with plan_compiles() == 0.
    if (config_.plan_store != nullptr && config_.warm_start) {
      (void)config_.plan_store->preload(solver_.plan_cache());
    }
  }

  ~Server() { core_.shutdown(); }

  /// Submit without blocking.  The returned future always becomes ready:
  /// immediately (with a reject status) when admission refuses the request,
  /// otherwise when the request reaches a terminal state.  Never throws on
  /// overload — admission outcomes are data, not exceptions.
  [[nodiscard]] std::future<Response> submit_async(Request request) {
    auto promise = std::make_shared<std::promise<Response>>();
    std::future<Response> future = promise->get_future();
    submit_callback(std::move(request), [promise](Response&& response) {
      promise->set_value(std::move(response));
    });
    return future;
  }

  /// Submit with a completion callback instead of a future — the shape the
  /// HTTP tier and QoS scheduler need, where the completing thread (a
  /// dispatcher, or the submitting thread itself for admission rejects)
  /// hands the response onward instead of anyone blocking on a get().  The
  /// callback runs exactly once; it must not block for long (it runs on a
  /// dispatcher thread for executed requests).
  void submit_callback(Request request, std::function<void(Response&&)> done) {
    auto pending = std::make_shared<Pending>();
    pending->trace.request_id = obs::next_request_id();
    pending->deliver = std::move(done);

    if (request.initial.size() != request.sys.cells) {
      core_.note_rejected_invalid();
      finish_now(*pending, Status::kRejectedInvalid,
                 "initial array has " + std::to_string(request.initial.size()) +
                     " entries, system has " + std::to_string(request.sys.cells) +
                     " cells");
      return;
    }
    request.plan.pool = nullptr;  // placement is the server's, not the caller's
    pending->coalesce_key = core::plan_cache_key(request.sys, request.plan);
    if (request.deadline.count() > 0) {
      pending->deadline = Clock::now() + request.deadline;
    }
    pending->cancel = std::move(request.cancel);
    pending->sys = std::move(request.sys);
    pending->options = request.plan;
    pending->initial = std::move(request.initial);

    switch (core_.try_submit(pending)) {
      case detail::Admission::kAccepted:
        break;
      case detail::Admission::kQueueFull:
        finish_now(*pending, Status::kRejectedQueueFull, "queue at capacity");
        break;
      case detail::Admission::kBackpressure:
        finish_now(*pending, Status::kRejectedBackpressure,
                   "queue above the high watermark");
        break;
      case detail::Admission::kShuttingDown:
        finish_now(*pending, Status::kRejectedShutdown, "server is draining");
        break;
    }
  }

  /// Blocking submit: submit_async + get.
  [[nodiscard]] Response submit(Request request) {
    return submit_async(std::move(request)).get();
  }

  /// Stop admitting and wait for every accepted request to complete.
  void drain() { core_.drain(); }

  /// drain() + join the dispatchers.  The destructor calls this too.
  void shutdown() { core_.shutdown(); }

  [[nodiscard]] ServiceStats stats() const {
    ServiceStats out = core_.stats();
    out.plan_cache_hits = solver_.plan_cache().hits();
    out.plan_cache_misses = solver_.plan_cache().misses();
    out.plan_cache_collisions = solver_.plan_cache().collisions();
    out.plan_compiles = solver_.plan_compiles();
    if (config_.plan_store != nullptr) {
      out.plan_store_hits = config_.plan_store->hits();
      out.plan_store_misses = config_.plan_store->misses();
      out.plan_store_rejects = config_.plan_store->rejects();
      out.plan_store_puts = config_.plan_store->puts();
      out.plan_store_preloaded = config_.plan_store->preloaded();
    }
    return out;
  }

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

 private:
  static core::SolverConfig make_solver_config(const ServiceConfig& config) {
    core::SolverConfig solver;
    solver.plan_cache_capacity = config.plan_cache_capacity != 0
                                     ? config.plan_cache_capacity
                                     : core::plan_cache_capacity_from_env();
    solver.plan_store = config.plan_store;
    solver.store_writes = config.store_writes;
    return solver;
  }

  struct Pending : detail::PendingBase {
    core::GeneralIrSystem sys;
    core::PlanOptions options;
    std::vector<Value> initial;
    std::vector<Value> values;  ///< solved array, set by execute_batch for kOk
    std::function<void(Response&&)> deliver;

    void fulfill(Status status, const std::string& error,
                 const ResponseInfo& info) override {
      Response response;
      response.status = status;
      response.error = error;
      response.info = info;
      response.values = std::move(values);
      deliver(std::move(response));
    }
  };

  static void finish_now(Pending& pending, Status status, const std::string& error) {
    pending.finish(status, error, ResponseInfo{});
  }

  /// The BatchFn: one compile (plan-cache served), one execute_many, one
  /// promise fulfillment per request.  Never throws — a compile/execute
  /// escape fails the whole batch request-by-request instead.
  void execute_batch(std::vector<std::shared_ptr<detail::PendingBase>> batch,
                     parallel::ThreadPool* pool) {
    const Clock::time_point dispatched = Clock::now();
    auto fail_all = [&](const std::string& error) {
      for (auto& base : batch) {
        auto& pending = static_cast<Pending&>(*base);
        ResponseInfo info;
        info.wait = dispatched - pending.enqueued_at;
        pending.finish(Status::kFailed, error, info);
      }
    };

    std::shared_ptr<const core::Plan> plan;
    try {
      // All batch members share a coalesce key, and the key is a pure
      // function of (content fingerprint, options), so the first member's
      // system stands in for the whole group.
      auto& first = static_cast<Pending&>(*batch.front());
      plan = solver_.compile(first.sys, first.options);
    } catch (const std::exception& e) {
      fail_all(std::string("compile failed: ") + e.what());
      return;
    } catch (...) {
      fail_all("compile failed: unknown exception");
      return;
    }

    std::vector<std::vector<Value>> initials;
    initials.reserve(batch.size());
    for (auto& base : batch) {
      initials.push_back(std::move(static_cast<Pending&>(*base).initial));
    }

    // Coalesced batches ride the wide SoA executor when enabled — one
    // transpose, all lanes in lockstep; singletons keep the scalar path,
    // where the transpose would be pure overhead.
    const bool wide = config_.wide_batches && batch.size() > 1;
    IR_COUNTER_ADD(wide ? "service.wide_batches" : "service.scalar_batches", 1);

    std::vector<std::vector<Value>> outputs;
    try {
      core::ExecOptions exec;
      exec.pool = pool;
      exec.variant = wide ? core::ExecVariant::kWide : core::ExecVariant::kScalar;
      outputs = core::execute_many(*plan, op_, std::move(initials), exec);
    } catch (const std::exception& e) {
      fail_all(std::string("execute failed: ") + e.what());
      return;
    } catch (...) {
      fail_all("execute failed: unknown exception");
      return;
    }

    const Clock::duration execute_time = Clock::now() - dispatched;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      auto& pending = static_cast<Pending&>(*batch[k]);
      ResponseInfo info;
      info.batch_size = batch.size();
      info.coalesced = batch.size() > 1;
      info.plan_fingerprint = plan->fingerprint;
      info.engine = core::to_string(plan->engine);
      info.variant = wide ? "wide" : "scalar";
      info.wait = dispatched - pending.enqueued_at;
      info.execute = execute_time;
      pending.values = std::move(outputs[k]);
      pending.finish(Status::kOk, "", info);
    }
  }

  Op op_;
  ServiceConfig config_;
  core::Solver solver_;
  detail::ServerCore core_;
};

}  // namespace ir::service
