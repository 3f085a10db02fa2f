// Shard router (src/service/shard_router.hpp): routing determinism, value
// correctness vs the single server, coalescing preserved per shard, and the
// shards=1 ≡ unsharded-server equivalence irserve's legacy semantics rely on.
#include "service/shard_router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <set>
#include <vector>

#include "algebra/monoids.hpp"
#include "service/serve_op.hpp"

namespace ir::service {
namespace {

using Router = ShardRouter<ServeOp>;

core::GeneralIrSystem chain_system(std::size_t n) {
  core::GeneralIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
    sys.h.push_back(i + 1);
  }
  return sys;
}

std::vector<std::uint64_t> initial_for(std::size_t cells) {
  std::vector<std::uint64_t> initial(cells);
  for (std::size_t c = 0; c < cells; ++c) initial[c] = 1 + c % 97;
  return initial;
}

Router::Request make_request(std::size_t n) {
  Router::Request request;
  request.sys = chain_system(n);
  request.initial = initial_for(request.sys.cells);
  return request;
}

ServeOp op() { return ServeOp{algebra::ModMulMonoid(1'000'000'007ull), 0}; }

TEST(ShardRouter, RoutingIsDeterministicAndWithinRange) {
  const Router router(op(), ServiceConfig{}, 4);
  const auto request = make_request(32);
  const std::size_t shard = router.shard_for(request);
  EXPECT_LT(shard, 4u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(router.shard_for(request), shard);
  }
}

TEST(ShardRouter, DistinctPlansSpreadAcrossShards) {
  const Router router(op(), ServiceConfig{}, 4);
  std::set<std::size_t> shards;
  for (std::size_t n = 8; n < 72; ++n) {
    shards.insert(router.shard_for(make_request(n)));
  }
  EXPECT_GE(shards.size(), 3u) << "64 distinct plans landed on too few shards";
}

TEST(ShardRouter, RoutingKeyRidesToTheShard) {
  // Past a ring of one the router hashes each request once and hands its
  // key to the shard, which compiles and finds the plan under it: one
  // system submitted twice is one compile and one cache hit on its shard.
  Router sharded(op(), ServiceConfig{}, 4);
  Router single(op(), ServiceConfig{}, 1);
  const std::size_t home = sharded.shard_for(make_request(48));
  for (int k = 0; k < 2; ++k) {
    const auto routed = sharded.submit(make_request(48));
    const auto direct = single.submit(make_request(48));
    ASSERT_EQ(routed.status, Status::kOk) << routed.error;
    EXPECT_EQ(routed.values, direct.values);
  }
  const ServiceStats stats = sharded.shard_stats(home);
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(sharded.stats().plan_compiles, 1u);
}

TEST(ShardRouter, ShardedValuesMatchUnsharded) {
  ServiceConfig config;
  config.dispatchers = 1;
  Router sharded(op(), config, 4);
  Router single(op(), config, 1);
  for (std::size_t n : {8u, 21u, 47u}) {
    auto a = sharded.submit(make_request(n));
    auto b = single.submit(make_request(n));
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.values, b.values) << "n=" << n;
  }
  sharded.shutdown();
  single.shutdown();
}

TEST(ShardRouter, StatsRollupSumsShards) {
  ServiceConfig config;
  config.dispatchers = 1;
  Router router(op(), config, 3);
  constexpr int kRequests = 24;
  std::vector<std::future<Router::Response>> pending;
  for (int i = 0; i < kRequests; ++i) {
    pending.push_back(router.submit_async(make_request(8 + i % 6)));
  }
  for (auto& f : pending) ASSERT_TRUE(f.get().ok());
  router.drain();

  const ServiceStats total = router.stats();
  EXPECT_EQ(total.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(total.executed_ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(total.replied, static_cast<std::uint64_t>(kRequests));

  std::uint64_t per_shard_sum = 0;
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    per_shard_sum += router.shard_stats(s).accepted;
  }
  EXPECT_EQ(per_shard_sum, total.accepted);
  router.shutdown();
}

TEST(ShardRouter, SameKeyRequestsCoalesceWithinTheirShard) {
  // All requests share one plan key → one shard → the coalescer sees them
  // all.  A tiny dispatcher pool plus a burst makes batching overwhelmingly
  // likely; the invariant checked is that coalesced requests never span
  // shards (their shard's ledger owns every one of them).
  ServiceConfig config;
  config.dispatchers = 1;
  Router router(op(), config, 4);
  const std::size_t home = router.shard_for(make_request(16));
  std::vector<std::future<Router::Response>> pending;
  for (int i = 0; i < 16; ++i) {
    pending.push_back(router.submit_async(make_request(16)));
  }
  for (auto& f : pending) ASSERT_TRUE(f.get().ok());
  router.drain();
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const ServiceStats stats = router.shard_stats(s);
    if (s == home) {
      EXPECT_EQ(stats.accepted, 16u);
    } else {
      EXPECT_EQ(stats.accepted, 0u) << "request leaked to shard " << s;
    }
  }
  router.shutdown();
}

TEST(ShardRouter, SubmitCallbackDeliversExactlyOnce) {
  ServiceConfig config;
  config.dispatchers = 1;
  Router router(op(), config, 2);
  std::promise<Router::Response> delivered;
  router.submit_callback(make_request(12), [&delivered](Router::Response&& r) {
    delivered.set_value(std::move(r));  // a second call would throw
  });
  const auto response = delivered.get_future().get();
  EXPECT_TRUE(response.ok()) << response.error;
  router.shutdown();
}

TEST(ShardRouter, DrainRejectsLateSubmissions) {
  Router router(op(), ServiceConfig{}, 2);
  router.drain();
  const auto response = router.submit(make_request(8));
  EXPECT_EQ(response.status, Status::kRejectedShutdown);
  router.shutdown();
}

}  // namespace
}  // namespace ir::service
