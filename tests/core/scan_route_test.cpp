// The chain fast route: compile-time detection of f(i) = previous-iteration
// structure, auto-routing to the O(n) scan engine, its cache-key identity,
// and the bit-exactness of the sequential segmented fold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/linear_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "parallel/thread_pool.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;
using algebra::ConcatMonoid;

/// One chain: A[i+1] := A[i] . A[i+1] for n iterations.
OrdinaryIrSystem single_chain(std::size_t n) {
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  return sys;
}

/// Two independent chains back to back — the second one's first iteration
/// reads a never-written cell, starting a fresh segment.
OrdinaryIrSystem two_segments() {
  OrdinaryIrSystem sys;
  sys.cells = 8;
  sys.f = {0, 1, 2, 4, 5};
  sys.g = {1, 2, 3, 5, 6};
  return sys;
}

TEST(ScanRouteTest, AutoRoutesChainsToTheScanEngine) {
  const Plan plan = compile_plan(single_chain(100));
  EXPECT_EQ(plan.engine, PlanEngine::kScan);
  EXPECT_TRUE(plan.chain);
  EXPECT_EQ(plan.scan.head.size(), 100u);
  EXPECT_EQ(plan.scan.segments, 1u);
  EXPECT_EQ(plan.scan.longest, 100u);
  EXPECT_NE(plan.describe().find("scan:"), std::string::npos);
}

TEST(ScanRouteTest, SegmentedChainsKeepSegmentBoundaries) {
  const Plan plan = compile_plan(two_segments());
  ASSERT_EQ(plan.engine, PlanEngine::kScan);
  EXPECT_EQ(plan.scan.segments, 2u);
  EXPECT_EQ(plan.scan.longest, 3u);
  const std::vector<std::uint8_t> heads = plan.scan.head.to_vector();
  EXPECT_EQ(heads, (std::vector<std::uint8_t>{1, 0, 0, 1, 0}));
}

TEST(ScanRouteTest, NonChainSystemsNeverAutoRouteToScan) {
  support::SplitMix64 rng(404);
  // Random ordinary systems essentially never have pure left-neighbour
  // structure; assert the router agrees with a direct structure check.
  const auto ord = testing::random_ordinary_system(200, 300, rng, 0.85);
  const auto pred = last_writer_before(ord.g, ord.f, ord.cells);
  bool chain = true;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] != kNone && pred[i] != i - 1) chain = false;
  }
  const Plan plan = compile_plan(ord);
  EXPECT_EQ(plan.engine == PlanEngine::kScan, chain);
  EXPECT_EQ(plan.chain, chain);
}

TEST(ScanRouteTest, ForcedScanRejectsNonChainSystems) {
  // Iteration 2 reads cell 1, last written by iteration 0 — a dependence on
  // a non-adjacent iteration, which the left-to-right sweep cannot honour.
  OrdinaryIrSystem skip;
  skip.cells = 5;
  skip.f = {0, 1, 1};
  skip.g = {1, 2, 3};
  PlanOptions options;
  options.engine = EngineChoice::kScan;
  EXPECT_THROW((void)compile_plan(skip, options), std::exception);
}

TEST(ScanRouteTest, ForcedJumpingOnChainsStillReportsChainStructure) {
  PlanOptions options;
  options.engine = EngineChoice::kJumping;
  const Plan plan = compile_plan(single_chain(32), options);
  EXPECT_EQ(plan.engine, PlanEngine::kJumping);
  EXPECT_TRUE(plan.chain);
  EXPECT_NE(plan.describe().find("chain-structured"), std::string::npos);
}

TEST(ScanRouteTest, ScanExecutionMatchesSequentialForAnyOperation) {
  const auto sys = two_segments();
  const Plan plan = compile_plan(sys);
  ASSERT_EQ(plan.engine, PlanEngine::kScan);

  std::vector<std::string> labels;
  for (std::size_t c = 0; c < sys.cells; ++c) {
    labels.emplace_back(1, static_cast<char>('a' + c));
  }
  const ConcatMonoid cat;
  // Never reassociates: even a non-commutative op is exact on the scan route.
  EXPECT_EQ(execute_plan(plan, cat, labels),
            ordinary_ir_sequential(cat, sys, labels));

  const auto chain = single_chain(1000);
  const Plan chain_plan = compile_plan(chain);
  std::vector<std::uint64_t> init(chain.cells, 1);
  EXPECT_EQ(execute_plan(chain_plan, AddMonoid<std::uint64_t>{}, init),
            ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, chain, init));
}

/// `segments` chains of `length` iterations, back to back in loop order.
/// Segment s writes cells s·(length+1) + 1 .. s·(length+1) + length; its root
/// reads cell `root_of(s)`.
template <typename RootOf>
OrdinaryIrSystem column_chains(std::size_t segments, std::size_t length, const RootOf& root_of) {
  OrdinaryIrSystem sys;
  sys.cells = segments * (length + 1);
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t base = s * (length + 1);
    for (std::size_t k = 0; k < length; ++k) {
      sys.f.push_back(k == 0 ? root_of(s) : base + k);
      sys.g.push_back(base + k + 1);
    }
  }
  return sys;
}

TEST(ScanRouteTest, RootsAreReadBeforeALaterSegmentWritesThem) {
  // The root-race witness: segment s's root reads the cell that segment
  // s+1's first iteration writes.  The fold runs in place, so it must read
  // each root before the later segment stores it, with or without a pool
  // of one worker per segment.
  const std::size_t segments = 4;
  const std::size_t length = 2000;
  const auto sys = column_chains(segments, length, [&](std::size_t s) {
    return s + 1 < segments ? (s + 1) * (length + 1) + 1 : s * (length + 1);
  });
  const Plan plan = compile_plan(sys);
  ASSERT_EQ(plan.engine, PlanEngine::kScan);
  ASSERT_EQ(plan.scan.segments, segments);
  parallel::ThreadPool pool(segments);

  std::vector<std::uint64_t> init(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) init[c] = 1000 * c + 7;
  const AddMonoid<std::uint64_t> add;
  const auto expect = ordinary_ir_sequential(add, sys, init);

  LinearIrLoop loop{sys, {}, {}};
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    loop.mul.push_back(i % 5 == 0 ? -0.5 : 0.75);
    loop.add.push_back(static_cast<double>(i % 13) - 6.0);
  }
  std::vector<double> x(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) x[c] = static_cast<double>(c % 17) + 0.25;
  const auto linear_expect = linear_ir_sequential(loop, x);
  for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
    EXPECT_EQ(execute_plan(plan, add, init, {.pool = p}), expect);
    // The linear route folds affine pairs straight into x: on chains it is
    // the loop, bit for bit.
    EXPECT_EQ(linear_ir_parallel(loop, x, {.pool = p}), linear_expect);
  }
}

TEST(ScanRouteTest, PooledExecuteKeepsOperandOrder) {
  // The ConcatMonoid witness through execute_plan's kScan fold, called with
  // pools of one worker per segment and of fewer workers than segments.
  const auto sys = column_chains(6, 5, [](std::size_t s) { return s * 6; });
  const Plan plan = compile_plan(sys);
  ASSERT_EQ(plan.engine, PlanEngine::kScan);
  std::vector<std::string> labels;
  for (std::size_t c = 0; c < sys.cells; ++c) {
    labels.emplace_back(1, static_cast<char>('A' + c % 26));
  }
  const ConcatMonoid cat;
  const auto expect = ordinary_ir_sequential(cat, sys, labels);
  for (const std::size_t threads : {2, 3, 6}) {
    parallel::ThreadPool pool(threads);
    EXPECT_EQ(execute_plan(plan, cat, labels, {.pool = &pool}), expect) << threads;
    EXPECT_EQ(execute_plan(plan, cat, labels, {.pool = &pool, .processor_cap = 4}), expect);
  }
}

TEST(ScanRouteTest, ScanReportsSingleRoundStats) {
  const auto sys = single_chain(64);
  const Plan plan = compile_plan(sys);
  OrdinaryIrStats stats;
  ExecOptions exec;
  exec.ordinary_stats = &stats;
  std::vector<std::uint64_t> init(sys.cells, 2);
  (void)execute_plan(plan, AddMonoid<std::uint64_t>{}, init, exec);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.op_applications, 64u);  // O(n) work, not n log n
  EXPECT_EQ(stats.peak_active, 64u);      // the longest segment
}

TEST(ScanRouteTest, CacheKeySeparatesScanFromOtherRoutes) {
  const auto chain = single_chain(50);
  PlanOptions scan_forced;
  scan_forced.engine = EngineChoice::kScan;
  PlanOptions jumping_forced;
  jumping_forced.engine = EngineChoice::kJumping;

  // Keys carry the requested engine, not the resolved route: auto on a
  // chain resolves to the scan route yet keeps its own entry (memory, not
  // correctness — both compile the same schedule), and neither may ever
  // collide with a forced jumping plan for the same system.
  ASSERT_EQ(compile_plan(chain).engine, PlanEngine::kScan);
  const auto auto_key = plan_cache_key(chain, PlanOptions{});
  const auto scan_key = plan_cache_key(chain, scan_forced);
  EXPECT_NE(auto_key, scan_key);
  EXPECT_NE(auto_key, plan_cache_key(chain, jumping_forced));
  EXPECT_NE(scan_key, plan_cache_key(chain, jumping_forced));

  // Forced scan reads no tuning knob, so every knob shares its entry.
  PlanOptions scan_hints = scan_forced;
  scan_hints.blocks = 8;
  scan_hints.blocked_threshold = 0.5;
  scan_hints.prune_dead = false;
  EXPECT_EQ(scan_key, plan_cache_key(chain, scan_hints));

  // Non-chain ordinary systems keep the pre-scan auto key behaviour.
  support::SplitMix64 rng(11);
  const auto ord = testing::random_ordinary_system(60, 90, rng, 0.9);
  const Plan plan = compile_plan(ord);
  if (plan.engine != PlanEngine::kScan) {
    EXPECT_NE(plan_cache_key(ord, PlanOptions{}), plan_cache_key(ord, scan_forced));
  }
}

}  // namespace
}  // namespace ir::core
