// End-to-end scenarios: classify a loop, route it to the right solver, and
// check the result against direct execution — the workflow a parallelizing
// compiler built on this library would run.
#include <gtest/gtest.h>

#include <cmath>

#include "algebra/monoids.hpp"
#include "core/classify.hpp"
#include "core/general_ir.hpp"
#include "core/linear_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "scan/linear_recurrence.hpp"
#include "testing/random_systems.hpp"

namespace ir {
namespace {

using core::GeneralIrSystem;
using core::LinearIrLoop;
using core::LoopClass;
using core::OrdinaryIrSystem;

/// One solve through a freshly compiled plan for a forced engine (CAP runs
/// unpruned: the paper's plain algorithm).
template <typename Op, typename System>
std::vector<typename Op::Value> forced(core::EngineChoice engine, const Op& op,
                                       const System& sys, std::vector<typename Op::Value> init,
                                       core::OrdinaryIrStats* stats = nullptr) {
  const core::Plan plan = core::compile_plan(sys, {.engine = engine, .prune_dead = false});
  return core::execute_plan(plan, op, std::move(init), {.ordinary_stats = stats});
}

TEST(EndToEndTest, ClassifyThenSolveByRoute) {
  support::SplitMix64 rng(71);
  const auto op = algebra::ModMulMonoid(1'000'000'007ull);

  for (int trial = 0; trial < 12; ++trial) {
    const auto sys = testing::random_general_system(120, 90, rng, 0.7);
    std::vector<std::uint64_t> init(90);
    for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
    const auto expect = general_ir_sequential(op, sys, init);

    switch (core::classify(sys)) {
      case LoopClass::kNoRecurrence:
      case LoopClass::kLinearRecurrence:
      case LoopClass::kGeneralIndexed:
        EXPECT_EQ(forced(core::EngineChoice::kGeneralCap, op, sys, init), expect);
        break;
      case LoopClass::kOrdinaryIndexed: {
        OrdinaryIrSystem ord;
        ord.cells = sys.cells;
        ord.f = sys.f;
        ord.g = sys.g;
        EXPECT_EQ(forced(core::EngineChoice::kJumping, op, ord, init), expect);
        break;
      }
    }
  }
}

TEST(EndToEndTest, ScanAndMoebiusAgreeOnLinearRecurrence) {
  // The same first-order recurrence solved three ways: direct loop, classic
  // pair scan (Kogge/Stone), and the paper's Möbius IR route.
  support::SplitMix64 rng(72);
  const std::size_t n = 800;
  std::vector<double> a(n), b(n);
  for (auto& e : a) e = rng.uniform(-0.9, 0.9);
  for (auto& e : b) e = rng.uniform(-1.0, 1.0);
  const double x0 = 0.25;

  const auto direct = scan::linear_recurrence_sequential(a, b, x0);
  const auto scanned = scan::linear_recurrence_scan(a, b, x0);

  LinearIrLoop loop;
  loop.system.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    loop.system.f.push_back(i);
    loop.system.g.push_back(i + 1);
  }
  loop.mul = a;
  loop.add = b;
  std::vector<double> init(n + 1, 0.0);
  init[0] = x0;
  const auto moebius = core::linear_ir_parallel(loop, init);

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scanned[i], direct[i], 1e-9) << i;
    EXPECT_NEAR(moebius[i + 1], direct[i], 1e-9) << i;
  }
}

TEST(EndToEndTest, GirSubsumesEverySmallerClass) {
  // One solver to rule them all (at a price): GIR must solve streaming,
  // linear and ordinary systems too, as long as op is a power monoid.
  const auto op = algebra::ModAddMonoid(999999937ull);
  support::SplitMix64 rng(73);

  // Streaming.
  GeneralIrSystem streaming{8, {6, 7}, {0, 1}, {6, 6}};
  ASSERT_EQ(core::classify(streaming), LoopClass::kNoRecurrence);
  EXPECT_EQ(forced(core::EngineChoice::kGeneralCap, op, streaming, {1, 2, 3, 4, 5, 6, 7, 8}),
            general_ir_sequential(op, streaming, {1, 2, 3, 4, 5, 6, 7, 8}));

  // Linear chain.
  GeneralIrSystem chain;
  chain.cells = 32;
  for (std::size_t i = 1; i < 16; ++i) {
    chain.f.push_back(i - 1);
    chain.g.push_back(i);
    chain.h.push_back(16 + i);
  }
  ASSERT_EQ(core::classify(chain), LoopClass::kLinearRecurrence);
  std::vector<std::uint64_t> init(32);
  for (auto& v : init) v = rng.below(999999937ull);
  EXPECT_EQ(forced(core::EngineChoice::kGeneralCap, op, chain, init),
            general_ir_sequential(op, chain, init));

  // Ordinary indexed.
  const auto ord = testing::random_ordinary_system(50, 64, rng, 0.9);
  const auto gir = GeneralIrSystem::from_ordinary(ord);
  std::vector<std::uint64_t> init2(64);
  for (auto& v : init2) v = rng.below(999999937ull);
  EXPECT_EQ(forced(core::EngineChoice::kGeneralCap, op, gir, init2),
            general_ir_sequential(op, gir, init2));
}

TEST(EndToEndTest, DeepChainsStressRoundGuards) {
  // A pathological single chain of 20'000 equations: the worst case for the
  // round guard and the pointer-jumping depth.
  const std::size_t n = 20000;
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  std::vector<std::uint64_t> init(n + 1, 1);
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  core::OrdinaryIrStats stats;
  const auto out = forced(core::EngineChoice::kJumping, op, sys, init, &stats);
  EXPECT_EQ(out[n], n + 1);
  EXPECT_LE(stats.rounds, 15u);  // ceil(log2 20000) = 15
}

}  // namespace
}  // namespace ir
