// The SPMD route: a forced kSpmd plan replayed by a team of persistent
// workers, compiled and executed once per call, against the sequential loop.
#include <gtest/gtest.h>

#include <type_traits>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;
using algebra::ConcatMonoid;
using testing::random_initial_u64;
using testing::random_ordinary_system;

/// One solve through a freshly compiled SPMD plan on `workers` workers.
template <typename Op>
std::vector<typename Op::Value> spmd(const Op& op, const OrdinaryIrSystem& sys,
                                     std::vector<typename Op::Value> init,
                                     std::size_t workers, OrdinaryIrStats* stats = nullptr) {
  const Plan plan = compile_plan(sys, {.engine = EngineChoice::kSpmd});
  return execute_plan(plan, op, std::move(init), {.workers = workers, .ordinary_stats = stats});
}

TEST(SpmdIrTest, MatchesSequentialSingleWorker) {
  support::SplitMix64 rng(101);
  const auto sys = random_ordinary_system(300, 400, rng, 0.8);
  const auto init = random_initial_u64(400, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  EXPECT_EQ(spmd(op, sys, init, 1), ordinary_ir_sequential(op, sys, init));
}

TEST(SpmdIrTest, MatchesSequentialAcrossWorkerCounts) {
  support::SplitMix64 rng(102);
  const auto sys = random_ordinary_system(1000, 1400, rng, 0.9);
  const auto init = random_initial_u64(1400, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  const auto expect = ordinary_ir_sequential(op, sys, init);
  for (std::size_t workers : {2u, 3u, 4u, 7u}) {
    EXPECT_EQ(spmd(op, sys, init, workers), expect) << workers;
  }
}

TEST(SpmdIrTest, NonCommutativeOrderPreserved) {
  support::SplitMix64 rng(103);
  const auto sys = random_ordinary_system(200, 300, rng, 0.8);
  std::vector<std::string> init(300);
  for (std::size_t c = 0; c < 300; ++c) init[c] = std::string(1, char('a' + c % 26));
  EXPECT_EQ(spmd(ConcatMonoid{}, sys, init, 4),
            ordinary_ir_sequential(ConcatMonoid{}, sys, init));
}

TEST(SpmdIrTest, RoundsMatchOneLevelEngine) {
  support::SplitMix64 rng(104);
  const auto sys = random_ordinary_system(2000, 2600, rng, 0.9);
  const auto init = random_initial_u64(2600, rng);
  const auto op = AddMonoid<std::uint64_t>{};

  OrdinaryIrStats one_level;
  (void)execute_plan(compile_plan(sys, {.engine = EngineChoice::kJumping}), op, init,
                     {.ordinary_stats = &one_level});

  OrdinaryIrStats team;
  (void)spmd(op, sys, init, 3, &team);
  EXPECT_EQ(team.rounds, one_level.rounds);
  EXPECT_EQ(team.op_applications, one_level.op_applications);
}

TEST(SpmdIrTest, EmptySystem) {
  OrdinaryIrSystem sys{4, {}, {}};
  EXPECT_EQ(spmd(AddMonoid<std::uint64_t>{}, sys, {9, 8, 7, 6}, 4),
            (std::vector<std::uint64_t>{9, 8, 7, 6}));
}

TEST(SpmdIrTest, MoreWorkersThanEquations) {
  OrdinaryIrSystem sys{4, {0, 1}, {1, 2}};
  const std::vector<std::uint64_t> init{1, 10, 100, 1000};
  EXPECT_EQ(spmd(AddMonoid<std::uint64_t>{}, sys, init, 16),
            ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, sys, init));
}

TEST(SpmdRegionTest, SliceCoversRange) {
  parallel::run_spmd(5, [](parallel::SpmdContext& ctx) {
    const auto [begin, end] = ctx.slice(23);
    EXPECT_LE(begin, end);
    EXPECT_LE(end, 23u);
  });
}

TEST(SpmdRegionTest, BarrierSynchronizes) {
  std::vector<int> stage(4, 0);
  parallel::run_spmd(4, [&](parallel::SpmdContext& ctx) {
    stage[ctx.worker()] = 1;
    ctx.barrier();
    for (int s : stage) EXPECT_EQ(s, 1);  // all workers passed stage 1
    ctx.barrier();
    stage[ctx.worker()] = 2;
  });
  for (int s : stage) EXPECT_EQ(s, 2);
}

TEST(SpmdRegionTest, ExceptionIsRethrownWithoutDeadlock) {
  EXPECT_THROW(parallel::run_spmd(3,
                                  [](parallel::SpmdContext& ctx) {
                                    if (ctx.worker() == 1) throw std::runtime_error("w1");
                                    ctx.barrier();  // others still pass
                                  }),
               std::runtime_error);
}

TEST(SpmdRegionTest, RejectsZeroWorkers) {
  EXPECT_THROW(parallel::run_spmd(0, [](parallel::SpmdContext&) {}),
               support::ContractViolation);
}

namespace {

/// A value type without a default constructor: the round scratch of the
/// jumping and SPMD executors cannot resize, so it clones an existing trace.
struct Tagged {
  std::uint64_t v;
  explicit Tagged(std::uint64_t value) : v(value) {}
  friend bool operator==(const Tagged&, const Tagged&) = default;
};

struct TaggedAdd {
  using Value = Tagged;
  static constexpr bool is_commutative = true;
  Value combine(const Value& a, const Value& b) const { return Tagged(a.v + b.v); }
};

}  // namespace

TEST(SpmdIrTest, NonDefaultConstructibleValuesRunOnEveryOrdinaryEngine) {
  static_assert(!std::is_default_constructible_v<Tagged>);
  // Two chains from cell 0 (the second starts at iteration 4), so the
  // schedules have roots, rounds, and cross-block fix-ups.
  OrdinaryIrSystem sys;
  sys.cells = 9;
  sys.g = {1, 2, 3, 4, 5, 6, 7, 8};
  sys.f = {0, 1, 2, 3, 0, 5, 6, 7};
  std::vector<Tagged> init;
  for (std::size_t c = 0; c < sys.cells; ++c) init.emplace_back(10 + c);
  const auto expect = ordinary_ir_sequential(TaggedAdd{}, sys, init);

  for (const EngineChoice engine : {EngineChoice::kJumping, EngineChoice::kBlocked,
                                    EngineChoice::kSpmd, EngineChoice::kScan}) {
    const Plan plan = compile_plan(sys, {.engine = engine, .blocks = 3});
    EXPECT_EQ(execute_plan(plan, TaggedAdd{}, init, {.workers = 3}), expect)
        << to_string(plan.engine);
  }
}

}  // namespace
}  // namespace ir::core
