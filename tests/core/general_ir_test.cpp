// The general route: forced kGeneralCap plans (dependence graph + CAP +
// powered evaluation) against the sequential loop.
#include "core/general_ir.hpp"

#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::ModAddMonoid;
using algebra::ModMulMonoid;
using support::BigUint;
using testing::random_general_system;

/// One solve through a freshly compiled CAP plan.  Pruning is off by default
/// here: the paper's plain algorithm over every equation.
template <typename Op>
std::vector<typename Op::Value> gir(const Op& op, const GeneralIrSystem& sys,
                                    std::vector<typename Op::Value> init,
                                    PlanOptions options = {.prune_dead = false},
                                    parallel::ThreadPool* pool = nullptr) {
  options.engine = EngineChoice::kGeneralCap;
  options.pool = pool;
  return execute_plan(compile_plan(sys, options), op, std::move(init), {.pool = pool});
}

/// The paper's GIR motivator: A[i] := A[i-1] * A[i-2] for i = 2..n-1.
GeneralIrSystem fibonacci_system(std::size_t n) {
  GeneralIrSystem sys;
  sys.cells = n;
  for (std::size_t i = 2; i < n; ++i) {
    sys.f.push_back(i - 1);
    sys.g.push_back(i);
    sys.h.push_back(i - 2);
  }
  return sys;
}

TEST(DependenceGraphTest, PaperFigure6) {
  // A[i] = A[i-1]*A[i-2], i = 2..4: three iteration nodes, two leaves
  // (A0[0], A0[1]); each iteration points at its two operands.
  const auto sys = fibonacci_system(5);
  const auto graph = build_dependence_graph(sys);
  EXPECT_EQ(graph.iterations, 3u);
  ASSERT_EQ(graph.leaf_cell.size(), 2u);
  EXPECT_EQ(graph.leaf_cell[0], 1u);  // f(0) = cell 1 is read first
  EXPECT_EQ(graph.leaf_cell[1], 0u);
  EXPECT_EQ(graph.dag.node_count(), 5u);

  // Iteration 0 (writes A[2]): both operands are initial-value leaves.
  EXPECT_EQ(graph.dag.out_edges(0)[0].to, graph.leaf_of_cell(1));
  EXPECT_EQ(graph.dag.out_edges(0)[1].to, graph.leaf_of_cell(0));
  // Iteration 1 (writes A[3]): f = A[2] -> iteration 0, h = A[1] -> leaf.
  EXPECT_EQ(graph.dag.out_edges(1)[0].to, 0u);
  EXPECT_EQ(graph.dag.out_edges(1)[1].to, graph.leaf_of_cell(1));
  // Iteration 2 (writes A[4]): f -> iteration 1, h -> iteration 0.
  EXPECT_EQ(graph.dag.out_edges(2)[0].to, 1u);
  EXPECT_EQ(graph.dag.out_edges(2)[1].to, 0u);

  const auto names = graph.node_names(sys);
  EXPECT_EQ(names[0], "i0:A[2]");
  EXPECT_EQ(names[4], "A0[0]");
}

TEST(DependenceGraphTest, SharedLeafForRepeatedInitialReads) {
  // Two iterations read the same untouched cell: one shared leaf.
  GeneralIrSystem sys{4, {0, 0}, {1, 2}, {3, 3}};
  const auto graph = build_dependence_graph(sys);
  EXPECT_EQ(graph.leaf_cell.size(), 2u);  // cells 0 and 3 only
}

TEST(GeneralIrExponentsTest, FibonacciPowers) {
  // Paper Figure 5: the trace of X_i multiplies A[0]^fib(i-1) * A[1]^fib(i).
  const std::size_t n = 24;
  const auto exponents = general_ir_exponents(fibonacci_system(n));
  std::vector<BigUint> fib(n);
  fib[0] = 1;
  fib[1] = 1;
  for (std::size_t i = 2; i < n; ++i) fib[i] = fib[i - 1] + fib[i - 2];
  for (std::size_t t = 0; t < exponents.size(); ++t) {
    // iteration t writes cell t+2.
    ASSERT_EQ(exponents[t].size(), 2u);
    EXPECT_EQ(exponents[t][0].first, 0u);
    EXPECT_EQ(exponents[t][0].second, fib[t]);      // A[0]^fib(i-2)
    EXPECT_EQ(exponents[t][1].first, 1u);
    EXPECT_EQ(exponents[t][1].second, fib[t + 1]);  // A[1]^fib(i-1)
  }
}

TEST(GeneralIrTest, SequentialGroundTruth) {
  GeneralIrSystem sys{3, {0, 1}, {1, 2}, {1, 0}};
  // A[1] = A[0]+A[1] = 1+10 = 11; A[2] = A[1]+A[0] = 11+1 = 12.
  const auto out = general_ir_sequential(ModAddMonoid(1'000'000'007ull), sys, {1, 10, 100});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 11, 12}));
}

TEST(GeneralIrTest, FibonacciProductExactModP) {
  // A[0] = a, A[1] = b, A[i] = A[i-1]*A[i-2]: A[n-1] = a^fib * b^fib mod p.
  // Exercises BigUint exponents (fib(118) ~ 2·10^24 >> 2^64) end to end.
  const std::size_t n = 120;
  const auto sys = fibonacci_system(n);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(n, 1);
  init[0] = 12345;
  init[1] = 67890;
  const auto expect = general_ir_sequential(op, sys, init);
  const auto actual = gir(op, sys, init);
  EXPECT_EQ(actual, expect);
}

TEST(GeneralIrTest, NonDistinctGHandled) {
  // Repeated writes to one cell — the "non-distinct g" extension.
  GeneralIrSystem sys{3, {0, 0, 0}, {1, 1, 1}, {1, 1, 1}};
  ModAddMonoid op(1'000'000'007ull);
  // A[1] = A[0]+A[1] three times: 5, 5+3=8... with A={3,2,...}:
  // A[1]: 2 -> 5 -> 8 -> 11.
  const auto expect = general_ir_sequential(op, sys, {3, 2, 0});
  EXPECT_EQ(expect[1], 11u);
  EXPECT_EQ(gir(op, sys, {3, 2, 0}), expect);
}

TEST(GeneralIrTest, OrdinarySystemsSolveViaGir) {
  support::SplitMix64 rng(51);
  const auto ord = testing::random_ordinary_system(100, 150, rng, 0.8);
  const auto sys = GeneralIrSystem::from_ordinary(ord);
  ModMulMonoid op(999999937ull);
  std::vector<std::uint64_t> init(150);
  for (auto& v : init) v = 1 + rng.below(999999936ull);
  EXPECT_EQ(gir(op, sys, init), general_ir_sequential(op, sys, init));
}

TEST(GeneralIrTest, MinMonoidIdempotent) {
  support::SplitMix64 rng(52);
  const auto sys = random_general_system(150, 100, rng, 0.8);
  algebra::MinMonoid<std::uint64_t> op;
  std::vector<std::uint64_t> init(100);
  for (auto& v : init) v = rng.below(100000);
  EXPECT_EQ(gir(op, sys, init), general_ir_sequential(op, sys, init));
}

TEST(GeneralIrTest, ReferenceCountsAblationMatches) {
  support::SplitMix64 rng(53);
  const auto sys = random_general_system(120, 80, rng, 0.7);
  ModAddMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(80);
  for (auto& v : init) v = rng.below(1000);
  EXPECT_EQ(gir(op, sys, init, {.prune_dead = false, .reference_counts = true}),
            gir(op, sys, init));
}

TEST(GeneralIrTest, CapStatsExported) {
  const auto sys = fibonacci_system(64);
  const Plan plan =
      compile_plan(sys, {.engine = EngineChoice::kGeneralCap, .prune_dead = false});
  ModMulMonoid op(97);
  std::vector<std::uint64_t> init(64, 2);
  EXPECT_EQ(execute_plan(plan, op, init), general_ir_sequential(op, sys, init));
  EXPECT_GT(plan.gir.cap_rounds, 0u);
  EXPECT_LE(plan.gir.cap_rounds, 8u);  // log2(longest path ~62) + slack
  EXPECT_GT(plan.gir.cap_peak_edges, 0u);
}

TEST(GeneralIrTest, PoolMatchesSequentialExecution) {
  support::SplitMix64 rng(54);
  parallel::ThreadPool pool(4);
  const auto sys = random_general_system(400, 250, rng, 0.75);
  ModAddMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(250);
  for (auto& v : init) v = rng.below(1000000);
  EXPECT_EQ(gir(op, sys, init, {.prune_dead = false}, &pool),
            general_ir_sequential(op, sys, init));
}

TEST(GeneralIrTest, ExactFibonacciViaBigUintAddition) {
  // op = BigUint addition: the GIR evaluation is EXACT unbounded arithmetic.
  // A[i] = A[i-1] + A[i-2], A[0] = A[1] = 1  =>  A[i] = fib(i+1).
  const std::size_t n = 200;
  const auto sys = fibonacci_system(n);
  std::vector<support::BigUint> init(n, support::BigUint{1});
  const auto parallel = gir(algebra::BigAddMonoid{}, sys, init);
  const auto sequential = general_ir_sequential(algebra::BigAddMonoid{}, sys, init);
  EXPECT_EQ(parallel, sequential);
  support::BigUint a{1}, b{1};
  for (std::size_t i = 2; i < n; ++i) {
    const support::BigUint next = a + b;
    a = b;
    b = next;
  }
  EXPECT_EQ(parallel[n - 1], b);
  EXPECT_GT(parallel[n - 1].bit_length(), 64u);
}

TEST(GeneralIrTest, DeadEquationPruning) {
  // 100 equations write cell 1, only the last is ever observable; the
  // pruned run must process just the live ancestors.
  GeneralIrSystem sys;
  sys.cells = 110;
  for (std::size_t i = 0; i < 100; ++i) {
    sys.f.push_back(100 + i % 10);
    sys.g.push_back(1);
    sys.h.push_back(100 + (i + 3) % 10);
  }
  ModAddMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(110);
  for (std::size_t c = 0; c < 110; ++c) init[c] = c + 1;

  const auto expect = general_ir_sequential(op, sys, init);

  const Plan pruned =
      compile_plan(sys, {.engine = EngineChoice::kGeneralCap, .prune_dead = true});
  EXPECT_EQ(execute_plan(pruned, op, init), expect);
  EXPECT_EQ(pruned.gir.live_equations, 1u);  // only the final writer survives

  const Plan unpruned =
      compile_plan(sys, {.engine = EngineChoice::kGeneralCap, .prune_dead = false});
  EXPECT_EQ(execute_plan(unpruned, op, init), expect);
  EXPECT_EQ(unpruned.gir.live_equations, 100u);
}

TEST(GeneralIrTest, PruningMatchesOnRandomSystems) {
  support::SplitMix64 rng(55);
  for (int trial = 0; trial < 6; ++trial) {
    const auto sys = random_general_system(250, 60, rng, 0.7);  // many overwrites
    ModMulMonoid op(1'000'000'007ull);
    std::vector<std::uint64_t> init(60);
    for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
    const Plan pruned =
        compile_plan(sys, {.engine = EngineChoice::kGeneralCap, .prune_dead = true});
    EXPECT_EQ(execute_plan(pruned, op, init), general_ir_sequential(op, sys, init))
        << trial;
    EXPECT_LE(pruned.gir.live_equations, sys.iterations());
  }
}

TEST(GeneralIrTest, EmptyAndUntouched) {
  GeneralIrSystem sys{3, {}, {}, {}};
  ModAddMonoid op(97);
  EXPECT_EQ(gir(op, sys, {1, 2, 3}), (std::vector<std::uint64_t>{1, 2, 3}));
}

// Property sweep over sizes/aliasing/seeds with an exact monoid.
struct GirSweepParam {
  std::size_t iterations;
  std::size_t cells;
  double rewire;
  std::uint64_t seed;
};

class GeneralIrSweepTest : public ::testing::TestWithParam<GirSweepParam> {};

TEST_P(GeneralIrSweepTest, ParallelEqualsSequentialModMul) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed);
  const auto sys = random_general_system(p.iterations, p.cells, rng, p.rewire);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(p.cells);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  EXPECT_EQ(gir(op, sys, init), general_ir_sequential(op, sys, init));
}

TEST_P(GeneralIrSweepTest, ParallelEqualsSequentialModAdd) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed ^ 0xbeef);
  const auto sys = random_general_system(p.iterations, p.cells, rng, p.rewire);
  ModAddMonoid op(999999937ull);
  std::vector<std::uint64_t> init(p.cells);
  for (auto& v : init) v = rng.below(999999937ull);
  EXPECT_EQ(gir(op, sys, init), general_ir_sequential(op, sys, init));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneralIrSweepTest,
    ::testing::Values(GirSweepParam{1, 2, 0.0, 1}, GirSweepParam{2, 2, 1.0, 2},
                      GirSweepParam{20, 10, 0.9, 3}, GirSweepParam{50, 8, 1.0, 4},
                      GirSweepParam{100, 100, 0.3, 5}, GirSweepParam{200, 50, 0.8, 6},
                      GirSweepParam{300, 300, 0.6, 7}, GirSweepParam{500, 40, 0.9, 8}));

}  // namespace
}  // namespace ir::core
