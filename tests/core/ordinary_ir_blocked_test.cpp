// The work-efficient blocked route: a forced kBlocked plan, compiled and
// replayed once per call, against the sequential loop.
//
//   Phase 1 (parallel over P contiguous iteration blocks): sweep each block
//     sequentially; an equation whose predecessor lies in an earlier block
//     becomes PARTIAL.
//   Phase 2: resolve the partials block by block, ascending — one ⊙ each,
//     since every earlier block is already complete.
// O(n) work against pointer jumping's Θ(n log n), at P-deep phase 2.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;
using algebra::ConcatMonoid;
using testing::random_initial_u64;
using testing::random_ordinary_system;

/// One solve through a freshly compiled blocked plan (blocks = 0: one block
/// per pool thread, or 1 without a pool).
template <typename Op>
std::vector<typename Op::Value> blocked(const Op& op, const OrdinaryIrSystem& sys,
                                        std::vector<typename Op::Value> init,
                                        std::size_t blocks = 0,
                                        parallel::ThreadPool* pool = nullptr,
                                        BlockedIrStats* stats = nullptr) {
  const Plan plan =
      compile_plan(sys, {.engine = EngineChoice::kBlocked, .pool = pool, .blocks = blocks});
  return execute_plan(plan, op, std::move(init), {.pool = pool, .blocked_stats = stats});
}

/// Kernel-5-style local chain: f(i) = i-1, g(i) = i.
OrdinaryIrSystem local_chain(std::size_t n) {
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  return sys;
}

TEST(BlockedIrTest, EmptyAndSingle) {
  OrdinaryIrSystem empty{3, {}, {}};
  EXPECT_EQ(blocked(AddMonoid<std::uint64_t>{}, empty, {1, 2, 3}),
            (std::vector<std::uint64_t>{1, 2, 3}));
  OrdinaryIrSystem one{3, {0}, {1}};
  EXPECT_EQ(blocked(AddMonoid<std::uint64_t>{}, one, {1, 2, 3}),
            (std::vector<std::uint64_t>{1, 3, 3}));
}

TEST(BlockedIrTest, LocalChainIsWorkEfficient) {
  const std::size_t n = 4096;
  const auto sys = local_chain(n);
  std::vector<std::uint64_t> init(n + 1, 1);
  const auto op = AddMonoid<std::uint64_t>{};
  const auto expect = ordinary_ir_sequential(op, sys, init);

  BlockedIrStats stats;
  EXPECT_EQ(blocked(op, sys, init, 8, nullptr, &stats), expect);
  EXPECT_EQ(stats.blocks, 8u);
  // Blocks 1..7 are entirely downstream of the cross-block head, so every
  // equation there is partial: 7/8 of n.
  EXPECT_EQ(stats.partials, n - n / 8);
  // Work stays O(n): one ⊙ per equation (minus the 7 op-free heads) plus
  // one per partial — far below pointer jumping's ~n·log2(n) = ~49k.
  EXPECT_EQ(stats.op_applications, (n - 7) + (n - n / 8));
  EXPECT_EQ(stats.resolve_rounds, 7u);
}

TEST(BlockedIrTest, ScatteredSystemDegradesGracefully) {
  support::SplitMix64 rng(91);
  const auto sys = random_ordinary_system(2000, 3000, rng, 0.9);
  const auto init = random_initial_u64(3000, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  BlockedIrStats stats;
  EXPECT_EQ(blocked(op, sys, init, 16, nullptr, &stats),
            ordinary_ir_sequential(op, sys, init));
  EXPECT_GT(stats.partials, 100u);  // scattered preds cross blocks often
}

TEST(BlockedIrTest, NonCommutativeOrderPreserved) {
  support::SplitMix64 rng(92);
  for (int trial = 0; trial < 6; ++trial) {
    const auto sys = random_ordinary_system(120, 200, rng, 0.8);
    std::vector<std::string> init(200);
    for (std::size_t c = 0; c < 200; ++c) init[c] = std::string(1, char('a' + c % 26));
    EXPECT_EQ(blocked(ConcatMonoid{}, sys, init, 1 + static_cast<std::size_t>(trial)),
              ordinary_ir_sequential(ConcatMonoid{}, sys, init))
        << "trial " << trial;
  }
}

TEST(BlockedIrTest, PooledMatches) {
  support::SplitMix64 rng(93);
  const auto sys = random_ordinary_system(3000, 4000, rng, 0.85);
  const auto init = random_initial_u64(4000, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  parallel::ThreadPool pool(4);
  EXPECT_EQ(blocked(op, sys, init, 0, &pool),
            ordinary_ir_sequential(op, sys, init));
}

TEST(BlockedIrTest, SingleBlockEqualsSequentialWork) {
  const std::size_t n = 1000;
  const auto sys = local_chain(n);
  std::vector<std::uint64_t> init(n + 1, 2);
  BlockedIrStats stats;
  const auto op = AddMonoid<std::uint64_t>{};
  EXPECT_EQ(blocked(op, sys, init, 1, nullptr, &stats),
            ordinary_ir_sequential(op, sys, init));
  EXPECT_EQ(stats.partials, 0u);
  EXPECT_EQ(stats.op_applications, n);  // exactly one ⊙ per equation
  EXPECT_EQ(stats.resolve_rounds, 0u);
}

// Sweep across sizes, aliasing and block counts.
struct BlockedSweepParam {
  std::size_t iterations;
  std::size_t cells;
  double rewire;
  std::size_t blocks;
  std::uint64_t seed;
};

class BlockedIrSweepTest : public ::testing::TestWithParam<BlockedSweepParam> {};

TEST_P(BlockedIrSweepTest, MatchesSequential) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed);
  const auto sys = random_ordinary_system(p.iterations, p.cells, rng, p.rewire);
  const auto init = random_initial_u64(p.cells, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  EXPECT_EQ(blocked(op, sys, init, p.blocks),
            ordinary_ir_sequential(op, sys, init));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedIrSweepTest,
    ::testing::Values(BlockedSweepParam{1, 2, 0.0, 1, 1}, BlockedSweepParam{2, 3, 1.0, 2, 2},
                      BlockedSweepParam{50, 60, 0.5, 3, 3},
                      BlockedSweepParam{500, 700, 0.9, 7, 4},
                      BlockedSweepParam{1000, 1200, 0.2, 16, 5},
                      BlockedSweepParam{2048, 2048, 0.8, 64, 6},
                      BlockedSweepParam{333, 999, 1.0, 333, 7},
                      BlockedSweepParam{100, 150, 0.7, 1000, 8}));

}  // namespace
}  // namespace ir::core
