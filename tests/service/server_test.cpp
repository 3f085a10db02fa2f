// Batch-solve service acceptance tests (deterministic, TSan-clean):
//   (a) N concurrent submits of one system compile exactly one plan and
//       produce outputs byte-identical to the sequential oracle,
//   (b) a full queue rejects with a reason instead of blocking forever,
//   (c) an expired deadline (and a fired cancel token) completes before
//       execute and is counted,
//   (d) drain/shutdown loses no accepted request,
// plus the ConcatMonoid witness that coalesced batching preserves operand
// order, and the admission watermark hysteresis.
//
// Determinism tool: GatedOp blocks inside combine() until released and
// reports when a dispatcher entered it, so tests can pin requests in the
// queue (dispatcher busy) and control exactly when batches form.
#include "service/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan_io.hpp"
#include "service/line_protocol.hpp"
#include "support/rng.hpp"
#include "testing/random_systems.hpp"

namespace ir::service {
namespace {

using namespace std::chrono_literals;

/// Rendezvous point for GatedOp: combine() blocks until release(); the test
/// can wait until a dispatcher actually arrived inside the op.
struct Gate {
  std::mutex mutex;
  std::condition_variable opened;
  std::condition_variable arrived_cv;
  bool open = false;
  std::size_t arrived = 0;

  void release() {
    {
      std::lock_guard lock(mutex);
      open = true;
    }
    opened.notify_all();
  }
  void wait_arrival() {
    std::unique_lock lock(mutex);
    arrived_cv.wait(lock, [this] { return arrived > 0; });
  }
  void enter() {
    std::unique_lock lock(mutex);
    ++arrived;
    arrived_cv.notify_all();
    opened.wait(lock, [this] { return open; });
  }
};

/// Addition over uint64 whose combine blocks on `gate` (when set) and counts
/// every application — the lever for pinning dispatchers and proving that
/// deadline-missed/cancelled requests never touch the operation.
struct GatedAdd {
  using Value = std::uint64_t;
  static constexpr bool is_commutative = true;
  std::shared_ptr<Gate> gate;
  std::shared_ptr<std::atomic<std::uint64_t>> combines =
      std::make_shared<std::atomic<std::uint64_t>>(0);

  Value combine(const Value& a, const Value& b) const {
    if (gate) gate->enter();
    combines->fetch_add(1, std::memory_order_relaxed);
    return a + b;
  }
};

core::OrdinaryIrSystem chain_system(std::size_t n) {
  core::OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  sys.validate();
  return sys;
}

core::GeneralIrSystem embed(const core::OrdinaryIrSystem& ord) {
  core::GeneralIrSystem sys;
  sys.cells = ord.cells;
  sys.f = ord.f;
  sys.g = ord.g;
  sys.h = ord.g;
  return sys;
}

template <typename Op>
typename Server<Op>::Request make_request(const core::GeneralIrSystem& sys,
                                          std::vector<typename Op::Value> initial) {
  typename Server<Op>::Request request;
  request.sys = sys;
  request.initial = std::move(initial);
  return request;
}

std::vector<std::uint64_t> iota_initial(std::size_t cells) {
  std::vector<std::uint64_t> init(cells);
  for (std::size_t c = 0; c < cells; ++c) init[c] = 1 + c % 97;
  return init;
}

// ---- (a) coalescing: one plan, oracle-identical outputs --------------------

TEST(LineProtocolTest, EngineAttributeUsesTheCoreNameTable) {
  line_protocol::SolveArgs args;
  std::string error;
  EXPECT_TRUE(line_protocol::apply_solve_attr("engine", "scan", &args, &error));
  EXPECT_EQ(args.plan.engine, core::EngineChoice::kScan);

  // The retired engine is an unknown name like any other, with a typed reason.
  EXPECT_FALSE(line_protocol::apply_solve_attr("engine", "spmd", &args, &error));
  EXPECT_EQ(error, "unknown engine 'spmd'");
  EXPECT_EQ(args.plan.engine, core::EngineChoice::kScan);
}

TEST(ServiceServerTest, ConcurrentSubmitsCompileOnePlanAndMatchOracle) {
  support::SplitMix64 rng(41);
  const auto ord = testing::random_ordinary_system(300, 400, rng, 0.8);
  const auto sys = embed(ord);
  const auto init = iota_initial(sys.cells);
  const algebra::ModMulMonoid op(1'000'000'007ull);
  const auto oracle = core::general_ir_sequential(op, sys, init);

  ServiceConfig config;
  config.dispatchers = 3;
  config.exec_threads = 2;
  Server<algebra::ModMulMonoid> server(op, config);

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerThread = 8;
  std::vector<std::future<Server<algebra::ModMulMonoid>::Response>> futures(
      kSubmitters * kPerThread);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < kPerThread; ++k) {
          futures[t * kPerThread + k] = server.submit_async(
              make_request<algebra::ModMulMonoid>(sys, init));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  server.drain();

  for (auto& future : futures) {
    const auto response = future.get();
    ASSERT_EQ(response.status, Status::kOk) << response.error;
    EXPECT_EQ(response.values, oracle);  // byte-identical to the oracle
    EXPECT_FALSE(response.info.engine.empty());
    EXPECT_NE(response.info.plan_fingerprint, 0u);
  }
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kSubmitters * kPerThread);
  EXPECT_EQ(stats.executed_ok, kSubmitters * kPerThread);
  // Exactly one compile for N submits: racing dispatchers may each *miss*
  // the cache, but the single-flight leader builds the plan once.
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ServiceServerTest, GatedBatchCoalescesQueuedSameKeyRequests) {
  const auto sys = embed(chain_system(32));
  const auto init = iota_initial(sys.cells);
  auto gate = std::make_shared<Gate>();
  GatedAdd op;
  op.gate = gate;

  ServiceConfig config;
  config.dispatchers = 1;  // one dispatcher: the gate pins the whole service
  Server<GatedAdd> server(op, config);

  auto blocker = server.submit_async(make_request<GatedAdd>(sys, init));
  gate->wait_arrival();  // dispatcher is inside combine(); queue is empty

  constexpr std::size_t kQueued = 5;
  std::vector<std::future<Server<GatedAdd>::Response>> queued;
  for (std::size_t k = 0; k < kQueued; ++k) {
    queued.push_back(server.submit_async(make_request<GatedAdd>(sys, init)));
  }
  gate->release();
  server.drain();

  EXPECT_EQ(blocker.get().info.batch_size, 1u);
  for (auto& future : queued) {
    const auto response = future.get();
    ASSERT_EQ(response.status, Status::kOk) << response.error;
    EXPECT_EQ(response.info.batch_size, kQueued);  // all five rode one batch
    EXPECT_TRUE(response.info.coalesced);
  }
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.coalesced_requests, kQueued);
  EXPECT_EQ(stats.peak_batch, kQueued);
  EXPECT_EQ(stats.plan_compiles, 1u);
}

TEST(ServiceServerTest, MaxBatchBoundsCoalescing) {
  const auto sys = embed(chain_system(16));
  const auto init = iota_initial(sys.cells);
  auto gate = std::make_shared<Gate>();
  GatedAdd op;
  op.gate = gate;

  ServiceConfig config;
  config.dispatchers = 1;
  config.max_batch = 2;
  Server<GatedAdd> server(op, config);

  auto blocker = server.submit_async(make_request<GatedAdd>(sys, init));
  gate->wait_arrival();
  std::vector<std::future<Server<GatedAdd>::Response>> queued;
  for (std::size_t k = 0; k < 4; ++k) {
    queued.push_back(server.submit_async(make_request<GatedAdd>(sys, init)));
  }
  gate->release();
  server.drain();

  (void)blocker.get();
  for (auto& future : queued) {
    const auto response = future.get();
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_LE(response.info.batch_size, 2u);
  }
  EXPECT_EQ(server.stats().peak_batch, 2u);
}

// ---- order preservation under batching (ConcatMonoid witness) --------------

TEST(ServiceServerTest, CoalescedBatchPreservesOperandOrder) {
  const auto ord = chain_system(24);
  const auto sys = embed(ord);
  std::vector<std::string> init(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) {
    init[c] = std::string(1, static_cast<char>('a' + c % 26));
  }
  const algebra::ConcatMonoid cat;
  const auto oracle = core::ordinary_ir_sequential(cat, ord, init);

  ServiceConfig config;
  config.dispatchers = 2;
  config.exec_threads = 2;
  Server<algebra::ConcatMonoid> server(cat, config);

  std::vector<std::future<Server<algebra::ConcatMonoid>::Response>> futures;
  for (std::size_t k = 0; k < 12; ++k) {
    auto request = make_request<algebra::ConcatMonoid>(sys, init);
    request.plan.engine = core::EngineChoice::kJumping;
    futures.push_back(server.submit_async(std::move(request)));
  }
  server.drain();
  for (auto& future : futures) {
    const auto response = future.get();
    ASSERT_EQ(response.status, Status::kOk) << response.error;
    EXPECT_EQ(response.values, oracle);  // any reorder scrambles the strings
  }
}

// ---- (b) admission control -------------------------------------------------

TEST(ServiceServerTest, FullQueueRejectsWithReasonInsteadOfBlocking) {
  const auto sys = embed(chain_system(8));
  const auto init = iota_initial(sys.cells);
  auto gate = std::make_shared<Gate>();
  GatedAdd op;
  op.gate = gate;

  ServiceConfig config;
  config.dispatchers = 1;
  config.queue_capacity = 2;
  Server<GatedAdd> server(op, config);

  auto blocker = server.submit_async(make_request<GatedAdd>(sys, init));
  gate->wait_arrival();  // dispatcher busy; nothing drains the queue now
  auto queued1 = server.submit_async(make_request<GatedAdd>(sys, init));
  auto queued2 = server.submit_async(make_request<GatedAdd>(sys, init));

  auto rejected = server.submit_async(make_request<GatedAdd>(sys, init));
  // The reject is immediate — the future is already ready, nothing blocked.
  ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
  const auto response = rejected.get();
  EXPECT_EQ(response.status, Status::kRejectedQueueFull);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(to_string(response.status), "queue-full");

  gate->release();
  server.drain();
  EXPECT_EQ(blocker.get().status, Status::kOk);
  EXPECT_EQ(queued1.get().status, Status::kOk);
  EXPECT_EQ(queued2.get().status, Status::kOk);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.peak_queue_depth, 2u);
}

TEST(ServiceServerTest, WatermarkBackpressureTripsAndRecovers) {
  const auto sys = embed(chain_system(8));
  const auto init = iota_initial(sys.cells);
  auto gate = std::make_shared<Gate>();
  GatedAdd op;
  op.gate = gate;

  ServiceConfig config;
  config.dispatchers = 1;
  config.queue_capacity = 8;
  config.high_watermark = 2;
  config.low_watermark = 0;
  Server<GatedAdd> server(op, config);

  auto blocker = server.submit_async(make_request<GatedAdd>(sys, init));
  gate->wait_arrival();
  auto a = server.submit_async(make_request<GatedAdd>(sys, init));  // depth 1
  auto b = server.submit_async(make_request<GatedAdd>(sys, init));  // depth 2
  // Depth hit the high watermark: soft-rejected long before capacity (8).
  auto rejected = server.submit_async(make_request<GatedAdd>(sys, init));
  EXPECT_EQ(rejected.get().status, Status::kRejectedBackpressure);
  // Still overloaded even though depth never reached capacity.
  auto rejected2 = server.submit_async(make_request<GatedAdd>(sys, init));
  EXPECT_EQ(rejected2.get().status, Status::kRejectedBackpressure);

  gate->release();
  EXPECT_EQ(a.get().status, Status::kOk);
  EXPECT_EQ(b.get().status, Status::kOk);
  EXPECT_EQ(blocker.get().status, Status::kOk);
  // Queue fully drained (futures completed) => depth 0 <= low watermark:
  // the next submit flips the hysteresis back to accepting.
  auto recovered = server.submit_async(make_request<GatedAdd>(sys, init));
  EXPECT_EQ(recovered.get().status, Status::kOk);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.rejected_backpressure, 2u);
  EXPECT_EQ(stats.accepted, 4u);
}

TEST(ServiceServerTest, MismatchedInitialSizeIsRejectedInvalid) {
  const auto sys = embed(chain_system(8));
  algebra::ModMulMonoid op(97);
  Server<algebra::ModMulMonoid> server(op);
  auto request = make_request<algebra::ModMulMonoid>(sys, {1, 2, 3});  // 3 != cells
  const auto response = server.submit(std::move(request));
  EXPECT_EQ(response.status, Status::kRejectedInvalid);
  EXPECT_NE(response.error.find("cells"), std::string::npos);
}

// ---- (c) deadlines and cancellation ----------------------------------------

TEST(ServiceServerTest, ExpiredDeadlineCancelsBeforeExecuteAndIsCounted) {
  const auto sys = embed(chain_system(16));
  const auto init = iota_initial(sys.cells);

  // How many combine() calls ONE solve of this system costs (the jumping
  // schedule applies more ops than sys.iterations()): probe with an ungated
  // op against the same default-options plan the server will compile.
  std::uint64_t per_solve = 0;
  {
    GatedAdd probe;
    const core::Plan plan = core::compile_plan(sys);
    (void)core::execute_plan(plan, probe, init);
    per_solve = probe.combines->load();
  }

  auto gate = std::make_shared<Gate>();
  GatedAdd op;
  op.gate = gate;

  ServiceConfig config;
  config.dispatchers = 1;
  Server<GatedAdd> server(op, config);

  auto blocker = server.submit_async(make_request<GatedAdd>(sys, init));
  gate->wait_arrival();
  const std::uint64_t combines_before = op.combines->load();

  auto doomed_request = make_request<GatedAdd>(sys, init);
  doomed_request.deadline = 1ns;  // expires while the dispatcher is pinned
  auto doomed = server.submit_async(std::move(doomed_request));

  gate->release();
  server.drain();

  EXPECT_EQ(blocker.get().status, Status::kOk);
  const auto response = doomed.get();
  EXPECT_EQ(response.status, Status::kDeadlineExpired);
  EXPECT_TRUE(response.values.empty());
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.executed_ok, 1u);  // only the blocker executed
  // The doomed request never reached the operation: the only combines after
  // the snapshot belong to the blocker's own (single-request) batch.
  EXPECT_EQ(op.combines->load() - combines_before, per_solve);
}

TEST(ServiceServerTest, CancelTokenCompletesWithoutExecuting) {
  const auto sys = embed(chain_system(16));
  const auto init = iota_initial(sys.cells);
  auto gate = std::make_shared<Gate>();
  GatedAdd op;
  op.gate = gate;

  ServiceConfig config;
  config.dispatchers = 1;
  Server<GatedAdd> server(op, config);

  auto blocker = server.submit_async(make_request<GatedAdd>(sys, init));
  gate->wait_arrival();

  auto cancel = std::make_shared<std::atomic<bool>>(false);
  auto request = make_request<GatedAdd>(sys, init);
  request.cancel = cancel;
  auto cancelled = server.submit_async(std::move(request));
  cancel->store(true);

  gate->release();
  server.drain();
  EXPECT_EQ(blocker.get().status, Status::kOk);
  EXPECT_EQ(cancelled.get().status, Status::kCancelled);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.executed_ok, 1u);
}

// ---- (d) drain/shutdown ----------------------------------------------------

TEST(ServiceServerTest, ShutdownLosesNoAcceptedRequest) {
  support::SplitMix64 rng(43);
  const auto sys = embed(testing::random_ordinary_system(120, 160, rng, 0.8));
  const auto init = iota_initial(sys.cells);
  const algebra::ModMulMonoid op(1'000'000'007ull);
  const auto oracle = core::general_ir_sequential(op, sys, init);

  ServiceConfig config;
  config.dispatchers = 2;
  config.queue_capacity = 16;  // small: shutdown races against a live queue
  Server<algebra::ModMulMonoid> server(op, config);

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerThread = 32;
  std::vector<std::future<Server<algebra::ModMulMonoid>::Response>> futures(
      kSubmitters * kPerThread);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        futures[t * kPerThread + k] =
            server.submit_async(make_request<algebra::ModMulMonoid>(sys, init));
      }
    });
  }
  // Shut down while submitters are still racing admission: late submits get
  // kRejectedShutdown, accepted ones must all still complete with values.
  server.shutdown();
  for (auto& thread : threads) thread.join();

  std::size_t ok = 0, rejected = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
    const auto response = future.get();
    if (response.status == Status::kOk) {
      ++ok;
      EXPECT_EQ(response.values, oracle);
    } else {
      ASSERT_TRUE(is_rejected(response.status)) << to_string(response.status);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kSubmitters * kPerThread);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.accepted, ok);  // every accepted request completed kOk
  EXPECT_EQ(stats.executed_ok, ok);
  EXPECT_EQ(stats.rejected(), rejected);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);

  // Post-shutdown submits reject cleanly instead of deadlocking.
  const auto late = server.submit(make_request<algebra::ModMulMonoid>(sys, init));
  EXPECT_EQ(late.status, Status::kRejectedShutdown);
}

TEST(ServiceServerTest, DrainIsIdempotentAndStatsBalance) {
  const auto sys = embed(chain_system(10));
  const auto init = iota_initial(sys.cells);
  algebra::ModMulMonoid op(97);
  Server<algebra::ModMulMonoid> server(op);
  std::vector<std::future<Server<algebra::ModMulMonoid>::Response>> futures;
  for (std::size_t k = 0; k < 6; ++k) {
    futures.push_back(server.submit_async(make_request<algebra::ModMulMonoid>(sys, init)));
  }
  server.drain();
  server.drain();  // second drain is a no-op, not a deadlock
  for (auto& future : futures) EXPECT_EQ(future.get().status, Status::kOk);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed());
  server.shutdown();
  server.shutdown();
}

TEST(ServiceServerTest, ShutdownDoesNotWaitOutTheTickerInterval) {
  // Pins the ticker loop's stop handshake: the loop samples gauges with the
  // core mutex released, so a shutdown signalled inside that window must be
  // observed on relock — not after sleeping another full interval.  A hung
  // handshake turns this sub-second test into a minute-long one.
  const auto sys = embed(chain_system(10));
  const auto init = iota_initial(sys.cells);
  algebra::ModMulMonoid op(97);
  ServiceConfig config;
  config.ticker_interval_ms = 60'000;
  Server<algebra::ModMulMonoid> server(op, config);
  EXPECT_EQ(server.submit(make_request<algebra::ModMulMonoid>(sys, init)).status,
            Status::kOk);
  const auto begin = std::chrono::steady_clock::now();
  server.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 30s);
}

// ---- plan-store warm start -------------------------------------------------

TEST(ServiceServerTest, WarmStartServesRestartWithZeroCompiles) {
  // The restart scenario end to end, by route: server #1 compiles a gir-cap
  // system and an ordinary one and writes only the gir-cap plan through to
  // the store; server #2 warm-starts from it, serves the gir-cap system
  // with zero compiles and compiles the ordinary one once.  Values stay
  // byte-identical to the cold run on both.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("irserve-warmstart-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  core::PlanStore store(dir.string());

  support::SplitMix64 rng(47);
  const auto sys_cap = testing::random_general_system(120, 160, rng, 0.7);
  const auto sys_ord = embed(chain_system(64));
  const auto init_cap = iota_initial(sys_cap.cells);
  const auto init_ord = iota_initial(sys_ord.cells);
  const algebra::ModMulMonoid op(1'000'000'007ull);

  ServiceConfig config;
  config.plan_store = &store;

  std::vector<std::uint64_t> cold_cap, cold_ord;
  {
    Server<algebra::ModMulMonoid> cold(op, config);
    const auto ra = cold.submit(make_request<algebra::ModMulMonoid>(sys_cap, init_cap));
    const auto rb = cold.submit(make_request<algebra::ModMulMonoid>(sys_ord, init_ord));
    ASSERT_EQ(ra.status, Status::kOk);
    ASSERT_EQ(rb.status, Status::kOk);
    cold_cap = ra.values;
    cold_ord = rb.values;
    const ServiceStats stats = cold.stats();
    EXPECT_EQ(stats.plan_compiles, 2u);
    EXPECT_EQ(stats.plan_store_puts, 1u);  // the gir-cap plan only
    cold.shutdown();
  }
  {
    config.warm_start = true;
    Server<algebra::ModMulMonoid> warm(op, config);
    EXPECT_EQ(warm.stats().plan_store_preloaded, 1u);
    const auto ra = warm.submit(make_request<algebra::ModMulMonoid>(sys_cap, init_cap));
    ASSERT_EQ(ra.status, Status::kOk) << ra.error;
    EXPECT_EQ(ra.values, cold_cap);  // byte-identical to the cold run
    EXPECT_EQ(warm.stats().plan_compiles, 0u);  // the gir-cap bar: zero compiles

    const auto rb = warm.submit(make_request<algebra::ModMulMonoid>(sys_ord, init_ord));
    ASSERT_EQ(rb.status, Status::kOk) << rb.error;
    EXPECT_EQ(rb.values, cold_ord);
    const ServiceStats stats = warm.stats();
    EXPECT_EQ(stats.plan_compiles, 1u);  // the ordinary system compiles once
    EXPECT_EQ(stats.plan_cache_hits, 1u);
    // The store's counters span both servers: the two cold misses, then
    // the ordinary system's key, which never has an entry.
    EXPECT_EQ(stats.plan_store_misses, 3u);
    warm.shutdown();
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceServerTest, ColdStoreFallbackServesMissesFromDisk) {
  // No warm start: the cache starts empty, but each gir-cap miss is
  // satisfied from the store (a load + verify, not a compile).
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("irserve-storefallback-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  core::PlanStore store(dir.string());

  support::SplitMix64 rng(48);
  const auto sys = testing::random_general_system(48, 60, rng, 0.7);
  const auto init = iota_initial(sys.cells);
  const algebra::ModMulMonoid op(97);

  ServiceConfig config;
  config.plan_store = &store;
  {
    Server<algebra::ModMulMonoid> first(op, config);
    ASSERT_EQ(first.submit(make_request<algebra::ModMulMonoid>(sys, init)).status,
              Status::kOk);
    first.shutdown();
  }
  {
    Server<algebra::ModMulMonoid> second(op, config);
    ASSERT_EQ(second.submit(make_request<algebra::ModMulMonoid>(sys, init)).status,
              Status::kOk);
    const ServiceStats stats = second.stats();
    EXPECT_EQ(stats.plan_compiles, 0u);
    EXPECT_EQ(stats.plan_store_hits, 1u);
    EXPECT_EQ(stats.plan_cache_misses, 1u);
    second.shutdown();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ir::service
