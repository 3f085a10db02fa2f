#include "core/analyze.hpp"

#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

GeneralIrSystem chain(std::size_t n) {
  GeneralIrSystem sys;
  sys.cells = 2 * n + 2;
  for (std::size_t i = 1; i <= n; ++i) {
    sys.f.push_back(i - 1);
    sys.g.push_back(i);
    sys.h.push_back(n + 1 + i);  // fresh input cells
  }
  return sys;
}

TEST(AnalyzeTest, EmptySystem) {
  GeneralIrSystem sys{4, {}, {}, {}};
  const auto report = analyze(sys);
  EXPECT_EQ(report.loop_class, LoopClass::kNoRecurrence);
  EXPECT_EQ(report.route, SolverRoute::kElementwiseParallel);
  EXPECT_EQ(report.depth, 0u);
  EXPECT_EQ(report.predicted_rounds, 0u);
}

TEST(AnalyzeTest, StreamingLoop) {
  GeneralIrSystem sys{10, {5, 6}, {0, 1}, {7, 8}};
  const auto report = analyze(sys);
  EXPECT_EQ(report.route, SolverRoute::kElementwiseParallel);
  EXPECT_EQ(report.dependences, 0u);
  EXPECT_EQ(report.roots, 2u);
  EXPECT_EQ(report.depth, 1u);
  EXPECT_EQ(report.predicted_rounds, 0u);
  EXPECT_EQ(report.initial_reads, 4u);
}

TEST(AnalyzeTest, ChainDepthAndRounds) {
  const auto report = analyze(chain(64));
  EXPECT_EQ(report.loop_class, LoopClass::kLinearRecurrence);
  EXPECT_EQ(report.route, SolverRoute::kScanOrMoebius);
  EXPECT_EQ(report.depth, 64u);
  EXPECT_EQ(report.predicted_rounds, 6u);  // ceil(log2 64)
  EXPECT_EQ(report.dependences, 63u);
  EXPECT_EQ(report.roots, 1u);
  EXPECT_EQ(report.repeated_writes, 0u);
  EXPECT_DOUBLE_EQ(report.mean_depth, 65.0 / 2.0);
}

TEST(AnalyzeTest, PredictedRoundsMatchSolver) {
  support::SplitMix64 rng(111);
  for (int trial = 0; trial < 8; ++trial) {
    const auto ord = testing::random_ordinary_system(500, 700, rng, 0.9);
    const auto report = analyze(ord);
    OrdinaryIrStats stats;
    std::vector<std::uint64_t> init(700, 1);
    (void)execute_plan(compile_plan(ord, {.engine = EngineChoice::kJumping}),
                       algebra::AddMonoid<std::uint64_t>{}, init, {.ordinary_stats = &stats});
    EXPECT_EQ(stats.rounds, report.predicted_rounds) << trial;
  }
}

TEST(AnalyzeTest, FibonacciIsGeneralWithFullDepth) {
  GeneralIrSystem sys;
  sys.cells = 40;
  for (std::size_t i = 2; i < 40; ++i) {
    sys.f.push_back(i - 1);
    sys.g.push_back(i);
    sys.h.push_back(i - 2);
  }
  const auto report = analyze(sys);
  EXPECT_EQ(report.route, SolverRoute::kGeneralCap);
  EXPECT_EQ(report.depth, 38u);
  EXPECT_EQ(report.dependences, 2u * 38u - 3u);  // both reads except at the seam
  EXPECT_EQ(report.initial_reads, 2u);
}

TEST(AnalyzeTest, RepeatedWritesCounted) {
  GeneralIrSystem sys{3, {0, 1, 2}, {1, 1, 1}, {2, 2, 2}};
  const auto report = analyze(sys);
  EXPECT_EQ(report.repeated_writes, 2u);
}

TEST(AnalyzeTest, CrossBlockFractionReflectsLocality) {
  // A local chain crosses each block boundary once; a scattered system
  // crosses constantly.
  const auto local = analyze(chain(1024));
  support::SplitMix64 rng(112);
  const auto scattered = analyze(
      GeneralIrSystem::from_ordinary(testing::random_ordinary_system(1024, 2048, rng, 0.9)));
  ASSERT_FALSE(local.cross_block_fraction.empty());
  ASSERT_FALSE(scattered.cross_block_fraction.empty());
  for (std::size_t k = 0; k < std::min(local.cross_block_fraction.size(),
                                       scattered.cross_block_fraction.size());
       ++k) {
    EXPECT_EQ(local.cross_block_fraction[k].first, scattered.cross_block_fraction[k].first);
    EXPECT_LT(local.cross_block_fraction[k].second,
              scattered.cross_block_fraction[k].second);
  }
  // Chain: exactly (blocks-1) crossings out of n.
  EXPECT_NEAR(local.cross_block_fraction[0].second, 1.0 / 1024.0, 1e-9);
}

TEST(AnalyzeTest, ReportRendersAllFields) {
  const auto report = analyze(chain(16));
  const std::string text = report.to_string();
  EXPECT_NE(text.find("class:"), std::string::npos);
  EXPECT_NE(text.find("recommended:"), std::string::npos);
  EXPECT_NE(text.find("chain depth:"), std::string::npos);
  EXPECT_NE(text.find("cross-block@2:"), std::string::npos);
}

TEST(AnalyzeTest, RouteNamesAreDistinct) {
  EXPECT_NE(to_string(SolverRoute::kElementwiseParallel),
            to_string(SolverRoute::kScanOrMoebius));
  EXPECT_NE(to_string(SolverRoute::kOrdinaryJumping), to_string(SolverRoute::kGeneralCap));
}

}  // namespace
}  // namespace ir::core
