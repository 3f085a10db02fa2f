// kAuto routing: compile_plan picks elementwise / scan / blocked / jumping /
// CAP by shape, and every pick must agree with the sequential loop.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/analyze.hpp"
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
  EXPECT_EQ(plan.engine, PlanEngine::kElementwise);
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
  // Two interleaved local chains, pred(i) = i - 2: not the scan route's i - 1
  // chains, and 6 of 2048 iterations cross a boundary of 4 blocks.
  const std::size_t n = 2048;
  OrdinaryIrSystem sys;
  sys.cells = n + 2;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 2);
  }
  std::vector<std::uint64_t> init(n + 2, 1);
  parallel::ThreadPool pool(4);
  const PlanOptions options{.pool = &pool};
  const Plan plan = compile_plan(sys, options);
  EXPECT_EQ(plan.engine, PlanEngine::kBlocked);
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  EXPECT_EQ(execute_plan(plan, op, init), ordinary_ir_sequential(op, sys, init));
  ASSERT_FALSE(analyze(sys).cross_block_fraction.empty());
  EXPECT_LT(measure_cross_block_fraction(GeneralIrSystem::from_ordinary(sys), 4),
            options.blocked_threshold);
}

TEST(SolveRouterTest, ScatteredSystemPrefersJumping) {
  support::SplitMix64 rng(144);
  const auto sys = testing::random_ordinary_system(2048, 4096, rng, 0.95);
  parallel::ThreadPool pool(4);
  EXPECT_EQ(compile_plan(sys, {.pool = &pool, .blocked_threshold = 0.25}).engine,
            PlanEngine::kJumping);
  EXPECT_GE(measure_cross_block_fraction(GeneralIrSystem::from_ordinary(sys), 4), 0.25);
}

TEST(SolveRouterTest, PreferBlockedJudgesExactBlockCountNotNearestBucket) {
  // n = 12 with dependences (3 -> 5 and 6 -> 8) crossing exactly the 3-block
  // boundaries (4 and 8) but none of the 4-block ones: a nearest-power-of-two
  // lookup would round a 3-block request up to the 4-block profile entry
  // (fraction 0) and wrongly prefer blocked; the exact partition sees 2/12
  // crossings.  Neither read is of the previous iteration, so kAuto does not
  // take the scan route first.
  OrdinaryIrSystem sys;
  sys.cells = 24;
  for (std::size_t i = 0; i < 12; ++i) {
    sys.g.push_back(i);
    sys.f.push_back(i == 5 ? 3 : i == 8 ? 6 : 12 + i);  // else read untouched cells
  }
  EXPECT_NEAR(measure_cross_block_fraction(GeneralIrSystem::from_ordinary(sys), 3),
              2.0 / 12.0, 1e-12);
  EXPECT_NEAR(measure_cross_block_fraction(GeneralIrSystem::from_ordinary(sys), 4),
              0.0, 1e-12);
  parallel::ThreadPool three(3);
  parallel::ThreadPool four(4);
  EXPECT_EQ(compile_plan(sys, {.pool = &three, .blocked_threshold = 0.1}).engine,
            PlanEngine::kJumping);
  EXPECT_EQ(compile_plan(sys, {.pool = &four, .blocked_threshold = 0.1}).engine,
            PlanEngine::kBlocked);
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
