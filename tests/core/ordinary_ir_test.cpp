// The pointer-jumping route: a forced kJumping plan, compiled and replayed
// once per call, against the sequential loop — without a pool and on pools
// whose slices split every round.
#include "core/ordinary_ir.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <type_traits>

#include "algebra/monoids.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;
using algebra::ConcatMonoid;
using algebra::Mat2Monoid;
using testing::random_initial_u64;
using testing::random_ordinary_system;

/// One solve through a freshly compiled jumping plan.
template <typename Op>
std::vector<typename Op::Value> jumping(const Op& op, const OrdinaryIrSystem& sys,
                                        std::vector<typename Op::Value> init,
                                        const ExecOptions& exec = {}) {
  const Plan plan = compile_plan(sys, {.engine = EngineChoice::kJumping});
  return execute_plan(plan, op, std::move(init), exec);
}

TEST(OrdinaryIrSequentialTest, ExecutesLoopAsWritten) {
  // A[1] = A[0]+A[1]; A[2] = A[1]+A[2] with A = {1, 10, 100}.
  OrdinaryIrSystem sys{3, {0, 1}, {1, 2}};
  const auto out = ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, sys, {1, 10, 100});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 11, 111}));
}

TEST(OrdinaryIrSequentialTest, ValidatesInitialSize) {
  OrdinaryIrSystem sys{3, {0}, {1}};
  EXPECT_THROW(ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, sys, {1, 2}),
               support::ContractViolation);
}

TEST(OrdinaryIrParallelTest, EmptySystem) {
  OrdinaryIrSystem sys{3, {}, {}};
  const auto out = jumping(AddMonoid<std::uint64_t>{}, sys, {5, 6, 7});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{5, 6, 7}));
}

TEST(OrdinaryIrParallelTest, UntouchedCellsKeepInitialValues) {
  OrdinaryIrSystem sys{5, {0}, {2}};
  const auto out = jumping(AddMonoid<std::uint64_t>{}, sys, {1, 2, 3, 4, 5});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 4, 4, 5}));
}

TEST(OrdinaryIrParallelTest, SingleChainMatchesAndUsesLogRounds) {
  const std::size_t n = 1000;
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  std::vector<std::uint64_t> init(n + 1, 1);
  const auto expect = ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, sys, init);

  OrdinaryIrStats stats;
  const auto actual =
      jumping(AddMonoid<std::uint64_t>{}, sys, init, {.ordinary_stats = &stats});
  EXPECT_EQ(actual, expect);
  EXPECT_EQ(actual[n], n + 1);  // 1 + n additions of 1
  EXPECT_LE(stats.rounds, static_cast<std::size_t>(std::bit_width(n)));
  EXPECT_GE(stats.rounds, static_cast<std::size_t>(std::bit_width(n)) - 1);
}

TEST(OrdinaryIrParallelTest, NonCommutativeOrderPreserved) {
  // Lemma 1's ordering claim, witnessed by string concatenation: the
  // parallel result must equal the sequential left-to-right product.
  support::SplitMix64 rng(424242);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sys = random_ordinary_system(60, 100, rng);
    std::vector<std::string> init(100);
    for (std::size_t c = 0; c < 100; ++c) init[c] = std::string(1, char('a' + c % 26));
    const auto expect = ordinary_ir_sequential(ConcatMonoid{}, sys, init);
    const auto actual = jumping(ConcatMonoid{}, sys, init);
    EXPECT_EQ(actual, expect) << "trial " << trial;
  }
}

TEST(OrdinaryIrParallelTest, NonCommutativeMatricesMatch) {
  support::SplitMix64 rng(99);
  Mat2Monoid<long> op;
  const auto sys = random_ordinary_system(40, 64, rng);
  std::vector<Mat2Monoid<long>::Value> init(64);
  for (auto& m : init) {
    m = {static_cast<long>(rng.below(3)), static_cast<long>(rng.below(3)),
         static_cast<long>(rng.below(3)), 1};
  }
  EXPECT_EQ(jumping(op, sys, init), ordinary_ir_sequential(op, sys, init));
}

TEST(OrdinaryIrParallelTest, ThreadPoolAndCapsMatch) {
  support::SplitMix64 rng(8);
  const auto sys = random_ordinary_system(500, 800, rng);
  const auto init = random_initial_u64(800, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  const auto expect = ordinary_ir_sequential(op, sys, init);

  parallel::ThreadPool pool(4);
  for (std::size_t cap : {0u, 1u, 2u, 5u, 64u}) {
    EXPECT_EQ(jumping(op, sys, init, {.pool = &pool, .processor_cap = cap}), expect)
        << "cap " << cap;
  }
}

TEST(OrdinaryIrParallelTest, PooledMatchesSequentialAcrossPoolSizes) {
  support::SplitMix64 rng(102);
  const auto sys = random_ordinary_system(1000, 1400, rng, 0.9);
  const auto init = random_initial_u64(1400, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  const auto expect = ordinary_ir_sequential(op, sys, init);
  for (std::size_t threads : {2u, 3u, 4u, 7u}) {
    parallel::ThreadPool pool(threads);
    EXPECT_EQ(jumping(op, sys, init, {.pool = &pool}), expect) << threads << " threads";
  }
}

TEST(OrdinaryIrParallelTest, PooledNonCommutativeOrderPreservedAcrossSlices) {
  // Three slices on four threads: every round's moves are split at slice
  // edges and run on different threads, yet the string products must come
  // out in the sequential left-to-right order.
  support::SplitMix64 rng(103);
  const auto sys = random_ordinary_system(200, 300, rng, 0.8);
  std::vector<std::string> init(300);
  for (std::size_t c = 0; c < 300; ++c) init[c] = std::string(1, char('a' + c % 26));
  parallel::ThreadPool pool(4);
  EXPECT_EQ(jumping(ConcatMonoid{}, sys, init, {.pool = &pool, .processor_cap = 3}),
            ordinary_ir_sequential(ConcatMonoid{}, sys, init));
}

TEST(OrdinaryIrParallelTest, PooledEmptySystem) {
  OrdinaryIrSystem sys{4, {}, {}};
  parallel::ThreadPool pool(2);
  EXPECT_EQ(jumping(AddMonoid<std::uint64_t>{}, sys, {9, 8, 7, 6},
                    {.pool = &pool, .processor_cap = 16}),
            (std::vector<std::uint64_t>{9, 8, 7, 6}));
}

TEST(OrdinaryIrParallelTest, PooledCapAboveEquationCount) {
  // Cap 16 on a 2-equation system: the single one-move round gets one slice.
  OrdinaryIrSystem sys{4, {0, 1}, {1, 2}};
  const std::vector<std::uint64_t> init{1, 10, 100, 1000};
  parallel::ThreadPool pool(2);
  EXPECT_EQ(jumping(AddMonoid<std::uint64_t>{}, sys, init, {.pool = &pool, .processor_cap = 16}),
            ordinary_ir_sequential(AddMonoid<std::uint64_t>{}, sys, init));
}

/// A value type without a default constructor: the jumping executor's round
/// scratch cannot resize, so it clones an existing trace instead.
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

TEST(OrdinaryIrParallelTest, NonDefaultConstructibleValuesRunOnEveryOrdinaryEngine) {
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

  parallel::ThreadPool pool(3);
  for (const EngineChoice engine :
       {EngineChoice::kJumping, EngineChoice::kBlocked, EngineChoice::kScan}) {
    const Plan plan = compile_plan(sys, {.engine = engine, .blocks = 3});
    EXPECT_EQ(execute_plan(plan, TaggedAdd{}, init, {.pool = &pool}), expect)
        << to_string(plan.engine);
  }
}

TEST(OrdinaryIrParallelTest, RejectsNonInjectiveG) {
  OrdinaryIrSystem sys{3, {0, 0}, {1, 1}};
  EXPECT_THROW(jumping(AddMonoid<std::uint64_t>{}, sys, {1, 2, 3}),
               support::ContractViolation);
}

// The main property sweep: parallel == sequential across sizes, aliasing
// densities and seeds, for a commutative and a non-commutative monoid.
struct SweepParam {
  std::size_t iterations;
  std::size_t cells;
  double rewire;
  std::uint64_t seed;
};

class OrdinaryIrSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OrdinaryIrSweepTest, ParallelEqualsSequential) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed);
  const auto sys = random_ordinary_system(p.iterations, p.cells, rng, p.rewire);
  const auto init = random_initial_u64(p.cells, rng);
  const auto op = AddMonoid<std::uint64_t>{};
  EXPECT_EQ(jumping(op, sys, init), ordinary_ir_sequential(op, sys, init));
}

TEST_P(OrdinaryIrSweepTest, OrderPreservedUnderSweep) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed ^ 0xdead);
  const auto sys = random_ordinary_system(p.iterations, p.cells, rng, p.rewire);
  if (p.iterations <= 300) {
    // Strings make reordering visible character by character.
    std::vector<std::string> init(p.cells);
    for (std::size_t c = 0; c < p.cells; ++c) {
      init[c] = std::string(1, char('A' + c % 26));
    }
    EXPECT_EQ(jumping(ConcatMonoid{}, sys, init),
              ordinary_ir_sequential(ConcatMonoid{}, sys, init));
  } else {
    // Large sizes: 2x2 matrix products over Z/2^64 — still non-commutative,
    // but constant-size values.
    Mat2Monoid<std::uint64_t> op;
    std::vector<Mat2Monoid<std::uint64_t>::Value> init(p.cells);
    for (auto& m : init) {
      m = {rng.below(5), rng.below(5), rng.below(5), rng.below(5)};
    }
    EXPECT_EQ(jumping(op, sys, init), ordinary_ir_sequential(op, sys, init));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrdinaryIrSweepTest,
    ::testing::Values(SweepParam{1, 2, 0.0, 1}, SweepParam{2, 4, 1.0, 2},
                      SweepParam{10, 10, 0.5, 3}, SweepParam{100, 120, 0.9, 4},
                      SweepParam{100, 500, 0.2, 5}, SweepParam{1000, 1500, 0.7, 6},
                      SweepParam{5000, 6000, 0.95, 7}, SweepParam{64, 64, 1.0, 8},
                      SweepParam{333, 1000, 0.5, 9}, SweepParam{2048, 2048, 0.8, 10}));

}  // namespace
}  // namespace ir::core
