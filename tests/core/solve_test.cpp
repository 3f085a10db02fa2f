// kAuto routing: compile_plan picks elementwise / scan / blocked / jumping /
// CAP by shape, and every pick must agree with the sequential loop.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::ModMulMonoid;

TEST(SolveRouterTest, StreamingGoesElementwise) {
  GeneralIrSystem sys{8, {6, 7}, {0, 1}, {6, 6}};
  ModMulMonoid op(97);
  const Plan plan = compile_plan(sys);
  const std::vector<std::uint64_t> init{2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(execute_plan(plan, op, init), general_ir_sequential(op, sys, init));
  EXPECT_EQ(plan.report.route, SolverRoute::kElementwiseParallel);
}

TEST(SolveRouterTest, OrdinaryShapedAvoidsCap) {
  support::SplitMix64 rng(141);
  const auto ord = testing::random_ordinary_system(300, 400, rng, 0.9);
  const auto sys = GeneralIrSystem::from_ordinary(ord);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(400);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  const Plan plan = compile_plan(sys);
  EXPECT_NE(plan.engine, PlanEngine::kGeneralCap);
  EXPECT_EQ(execute_plan(plan, op, init), general_ir_sequential(op, sys, init));
}

TEST(SolveRouterTest, GeneralShapedUsesCap) {
  support::SplitMix64 rng(142);
  const auto sys = testing::random_general_system(200, 100, rng, 0.8);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(100);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  EXPECT_EQ(execute_plan(compile_plan(sys), op, init), general_ir_sequential(op, sys, init));
}

TEST(SolveRouterTest, OrdinaryOverloadAcceptsNonCommutativeOps) {
  support::SplitMix64 rng(143);
  const auto sys = testing::random_ordinary_system(150, 250, rng, 0.8);
  std::vector<std::string> init(250);
  for (std::size_t c = 0; c < 250; ++c) init[c] = std::string(1, char('a' + c % 26));
  EXPECT_EQ(execute_plan(compile_plan(sys), algebra::ConcatMonoid{}, init),
            ordinary_ir_sequential(algebra::ConcatMonoid{}, sys, init));
}

TEST(SolveRouterTest, LocalChainPrefersBlockedSolver) {
  const std::size_t n = 2048;
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  std::vector<std::uint64_t> init(n + 1, 1);
  const PlanOptions options;
  const Plan plan = compile_plan(sys, options);
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  EXPECT_EQ(execute_plan(plan, op, init), ordinary_ir_sequential(op, sys, init));
  ASSERT_FALSE(plan.report.cross_block_fraction.empty());
  EXPECT_TRUE(detail::prefer_blocked(GeneralIrSystem::from_ordinary(sys), 4,
                                     options.blocked_threshold));
}

TEST(SolveRouterTest, ScatteredSystemPrefersJumping) {
  support::SplitMix64 rng(144);
  const auto sys = testing::random_ordinary_system(2048, 4096, rng, 0.95);
  EXPECT_FALSE(detail::prefer_blocked(GeneralIrSystem::from_ordinary(sys), 4, 0.25));
}

TEST(SolveRouterTest, PreferBlockedJudgesExactBlockCountNotNearestBucket) {
  // n = 12 with dependences crossing exactly the 3-block boundaries (4 and
  // 8) but none of the 4-block ones: the old nearest-power-of-two lookup
  // rounded a 3-block request up to the 4-block profile entry (fraction 0)
  // and wrongly preferred blocked; the exact partition sees 2/12 crossings.
  OrdinaryIrSystem sys;
  sys.cells = 24;
  for (std::size_t i = 0; i < 12; ++i) {
    sys.g.push_back(i);
    sys.f.push_back(i == 4 || i == 8 ? i - 1 : 12 + i);  // else read untouched cells
  }
  EXPECT_NEAR(measure_cross_block_fraction(GeneralIrSystem::from_ordinary(sys), 3),
              2.0 / 12.0, 1e-12);
  EXPECT_NEAR(measure_cross_block_fraction(GeneralIrSystem::from_ordinary(sys), 4),
              0.0, 1e-12);
  EXPECT_FALSE(detail::prefer_blocked(GeneralIrSystem::from_ordinary(sys), 3, 0.1));
  EXPECT_TRUE(detail::prefer_blocked(GeneralIrSystem::from_ordinary(sys), 4, 0.1));
}

TEST(SolveRouterTest, PooledRoutesMatch) {
  parallel::ThreadPool pool(4);
  support::SplitMix64 rng(145);
  ModMulMonoid op(999999937ull);
  for (int trial = 0; trial < 6; ++trial) {
    const auto sys = testing::random_general_system(300, 200, rng, 0.7);
    std::vector<std::uint64_t> init(200);
    for (auto& v : init) v = 1 + rng.below(999999936ull);
    const Plan plan = compile_plan(sys, {.pool = &pool});
    EXPECT_EQ(execute_plan(plan, op, init, {.pool = &pool}),
              general_ir_sequential(op, sys, init))
        << trial;
  }
}

TEST(SolveRouterTest, PruningOnByDefaultStillCorrect) {
  // Dead writes: every equation writes cell 1, only the last survives.
  GeneralIrSystem sys{6, {2, 3, 4}, {1, 1, 1}, {5, 5, 5}};
  ModMulMonoid op(101);
  const std::vector<std::uint64_t> init{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(execute_plan(compile_plan(sys), op, init), general_ir_sequential(op, sys, init));
}

}  // namespace
}  // namespace ir::core
