#include "core/linear_ir.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "algebra/monoids.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AffineCompose;
using algebra::AffineMap;
using algebra::MoebiusCompose;
using algebra::MoebiusMap;

/// Random coefficients with |mul| <= 0.95 keep long products conditioned.
LinearIrLoop random_linear_loop(std::size_t iterations, std::size_t cells,
                                support::SplitMix64& rng, double rewire = 0.8) {
  LinearIrLoop loop;
  loop.system = testing::random_ordinary_system(iterations, cells, rng, rewire);
  loop.mul.resize(iterations);
  loop.add.resize(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    loop.mul[i] = rng.uniform(-0.95, 0.95);
    loop.add[i] = rng.uniform(-1.0, 1.0);
  }
  return loop;
}

std::vector<double> random_values(std::size_t cells, support::SplitMix64& rng) {
  std::vector<double> v(cells);
  for (auto& e : v) e = rng.uniform(-2.0, 2.0);
  return v;
}

void expect_near(const std::vector<double>& a, const std::vector<double>& b,
                 double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], tol) << "cell " << i;
}

/// Well-conditioned fractional maps: dominant diagonal, positive det.
std::vector<MoebiusMap> random_maps(std::size_t n, support::SplitMix64& rng) {
  std::vector<MoebiusMap> maps(n);
  for (auto& m : maps) {
    m = MoebiusMap{rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.1),
                   rng.uniform(0.9, 1.1)};
  }
  return maps;
}

std::vector<double> positive_values(std::size_t cells, support::SplitMix64& rng) {
  std::vector<double> v(cells);
  for (auto& e : v) e = rng.uniform(0.5, 1.5);
  return v;
}

/// Every plan an ordinary system can be forced to; kScan only fits chains.
constexpr EngineChoice kOrdinaryEngines[] = {EngineChoice::kJumping, EngineChoice::kBlocked};

TEST(LinearIrTest, SequentialKnownValues) {
  // X[1] = 2 X[0] + 1; X[2] = 2 X[1] + 1 with X = {1, 0, 0}.
  LinearIrLoop loop{{3, {0, 1}, {1, 2}}, {2.0, 2.0}, {1.0, 1.0}};
  const auto x = linear_ir_sequential(loop, {1.0, 0.0, 0.0});
  EXPECT_EQ(x, (std::vector<double>{1.0, 3.0, 7.0}));
}

TEST(LinearIrTest, ParallelMatchesSequentialKnown) {
  LinearIrLoop loop{{3, {0, 1}, {1, 2}}, {2.0, 2.0}, {1.0, 1.0}};
  const auto x = linear_ir_parallel(loop, {1.0, 0.0, 0.0});
  expect_near(x, {1.0, 3.0, 7.0});
}

TEST(LinearIrTest, ParallelMatchesSequentialRandom) {
  support::SplitMix64 rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const auto loop = random_linear_loop(300, 400, rng);
    const auto init = random_values(400, rng);
    expect_near(linear_ir_parallel(loop, init), linear_ir_sequential(loop, init), 1e-8);
  }
}

TEST(LinearIrTest, ZeroMultiplierResetsChains) {
  // mul = 0 makes an equation constant — the det = 0 short-circuit path.
  support::SplitMix64 rng(32);
  auto loop = random_linear_loop(200, 300, rng, 0.9);
  for (std::size_t i = 0; i < loop.mul.size(); i += 3) loop.mul[i] = 0.0;
  const auto init = random_values(300, rng);
  expect_near(linear_ir_parallel(loop, init), linear_ir_sequential(loop, init), 1e-8);
}

TEST(LinearIrTest, ChainReadsUpstreamWrittenCellAsInitialWhenUnwritten) {
  // f hits a cell that IS in g's image but is written only LATER: the value
  // read must be the initial one (the chain root's seed, not the coefficient).
  LinearIrLoop loop;
  loop.system = OrdinaryIrSystem{3, {2, 0}, {1, 2}};  // i0 reads cell 2, i1 writes it
  loop.mul = {3.0, 5.0};
  loop.add = {1.0, 2.0};
  const std::vector<double> init{10.0, 0.0, 4.0};
  // Sequential: X[1] = 3*X[2]+1 = 13; X[2] = 5*X[0]+2 = 52.
  const auto expect = linear_ir_sequential(loop, init);
  EXPECT_EQ(expect, (std::vector<double>{10.0, 13.0, 52.0}));
  expect_near(linear_ir_parallel(loop, init), expect);
}

TEST(SelfLinearIrTest, FoldsInitialValueOfG) {
  // X[g] := X[g] + a*X[f] + b — the paper's rewriting with S[g(i)].
  SelfLinearIrLoop loop;
  loop.system = OrdinaryIrSystem{3, {0, 1}, {1, 2}};
  loop.a = {2.0, 3.0};
  loop.b = {0.5, 0.25};
  loop.c = {0.0, 0.0};
  loop.d = {1.0, 1.0};
  const std::vector<double> init{1.0, 10.0, 20.0};
  // X[1] = 10 + 2*1 + 0.5 = 12.5; X[2] = 20 + 3*12.5 + 0.25 = 57.75.
  const auto expect = self_linear_ir_sequential(loop, init);
  EXPECT_EQ(expect, (std::vector<double>{1.0, 12.5, 57.75}));
  expect_near(self_linear_ir_parallel(loop, init), expect);
}

TEST(SelfLinearIrTest, FullFormRandom) {
  support::SplitMix64 rng(33);
  for (int trial = 0; trial < 8; ++trial) {
    SelfLinearIrLoop loop;
    loop.system = testing::random_ordinary_system(200, 280, rng, 0.8);
    const std::size_t n = loop.system.iterations();
    loop.a.resize(n);
    loop.b.resize(n);
    loop.c.resize(n);
    loop.d.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      loop.a[i] = rng.uniform(-0.5, 0.5);
      loop.b[i] = rng.uniform(-0.5, 0.5);
      loop.c[i] = rng.uniform(-0.2, 0.2);
      loop.d[i] = rng.uniform(0.3, 0.8);
    }
    const auto init = random_values(280, rng);
    expect_near(self_linear_ir_parallel(loop, init),
                self_linear_ir_sequential(loop, init), 1e-7);
  }
}

TEST(MoebiusIrTest, FractionalLoopMatches) {
  support::SplitMix64 rng(34);
  for (int trial = 0; trial < 5; ++trial) {
    MoebiusIrLoop loop;
    loop.system = testing::random_ordinary_system(100, 150, rng, 0.7);
    loop.maps.resize(100);
    for (auto& m : loop.maps) {
      // Well-conditioned fractional maps: dominant diagonal, positive det.
      m = MoebiusMap{rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2),
                     rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.1)};
    }
    std::vector<double> init(150);
    for (auto& v : init) v = rng.uniform(0.5, 1.5);
    const auto expect = moebius_ir_sequential(loop, init);
    const auto actual = moebius_ir_parallel(loop, init);
    ASSERT_EQ(actual.size(), expect.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_NEAR(actual[i], expect[i], 1e-6) << "cell " << i;
    }
  }
}

TEST(MoebiusIrTest, EveryOrdinaryPlanMatchesSequential) {
  support::SplitMix64 rng(36);
  MoebiusIrLoop loop;
  loop.system = testing::random_ordinary_system(300, 400, rng, 0.8);
  loop.maps = random_maps(300, rng);
  const auto init = positive_values(400, rng);
  const auto expect = moebius_ir_sequential(loop, init);
  parallel::ThreadPool pool(3);
  for (const EngineChoice engine : kOrdinaryEngines) {
    const Plan plan = compile_plan(loop.system, {.engine = engine, .pool = &pool});
    expect_near(moebius_ir_run(plan, loop.maps, init), expect, 1e-6);
    expect_near(moebius_ir_run(plan, loop.maps, init, {.pool = &pool}), expect, 1e-6);
  }
  // kAuto through the shared solver, with and without the pool as its hint.
  expect_near(moebius_ir_parallel(loop, init), expect, 1e-6);
  OrdinaryIrStats stats;
  expect_near(moebius_ir_parallel(loop, init, {.pool = &pool, .stats = &stats}), expect,
              1e-6);
  EXPECT_GT(stats.op_applications, 0u);
}

TEST(MoebiusIrTest, ChainsTakeTheScanFold) {
  // Livermore-23 shape: five column chains of f(i) = i-1 reads.  kAuto must
  // pick the O(n) scan, one pass of n ⊙s, instead of log-depth jumping.
  support::SplitMix64 rng(37);
  const std::size_t rows = 200;
  const std::size_t columns = 5;
  MoebiusIrLoop loop;
  loop.system.cells = rows * columns;
  for (std::size_t j = 0; j < columns; ++j) {
    for (std::size_t k = 1; k < rows; ++k) {
      loop.system.f.push_back(j * rows + k - 1);
      loop.system.g.push_back(j * rows + k);
    }
  }
  const std::size_t n = loop.system.iterations();
  loop.maps = random_maps(n, rng);
  const auto init = positive_values(loop.system.cells, rng);
  const auto expect = moebius_ir_sequential(loop, init);

  parallel::ThreadPool pool(3);
  EXPECT_EQ(compile_plan(loop.system, {.pool = &pool}).engine, PlanEngine::kScan);
  OrdinaryIrStats stats;
  expect_near(moebius_ir_parallel(loop, init, {.pool = &pool, .stats = &stats}), expect,
              1e-9);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.op_applications, n);

  const Plan scan = compile_plan(loop.system, {.engine = EngineChoice::kScan});
  expect_near(moebius_ir_run(scan, loop.maps, init), expect, 1e-9);
  for (const EngineChoice engine : kOrdinaryEngines) {
    const Plan plan = compile_plan(loop.system, {.engine = engine, .blocks = 3});
    expect_near(moebius_ir_run(plan, loop.maps, init, {.pool = &pool}), expect, 1e-9);
  }
}

TEST(MoebiusIrTest, RecurrenceFreeLoopSolves) {
  // No iteration reads a cell an earlier one wrote (i0 reads cell 2, which
  // i2 writes only later), so kAuto resolves to elementwise: each map
  // applies once to an initial value, exactly as the loop does.
  MoebiusIrLoop loop;
  loop.system = OrdinaryIrSystem{6, {2, 4, 5}, {0, 1, 2}};
  loop.maps = {MoebiusMap::affine(2.0, 1.0), MoebiusMap{1.0, 1.0, 1.0, 2.0},
               MoebiusMap::affine(-1.0, 0.5)};
  const std::vector<double> init{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const auto expect = moebius_ir_sequential(loop, init);
  EXPECT_EQ(compile_plan(loop.system).engine, PlanEngine::kElementwise);
  OrdinaryIrStats stats;
  EXPECT_EQ(moebius_ir_parallel(loop, init, {.stats = &stats}), expect);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.op_applications, 3u);
  EXPECT_THROW((void)moebius_ir_run(compile_plan(loop.system), loop.maps, init),
               support::ContractViolation);

  // Forced ordinary plans run it as a schedule of root seeds alone.
  for (const EngineChoice engine :
       {EngineChoice::kJumping, EngineChoice::kBlocked, EngineChoice::kScan}) {
    const Plan plan = compile_plan(loop.system, {.engine = engine});
    expect_near(moebius_ir_run(plan, loop.maps, init), expect, 1e-12);
  }
}

TEST(MoebiusIrTest, PerIterationOperandsAreHonoured) {
  // The coefficient maps are the operand table standing in for A[g(i)]: a
  // chain root folds the constant map of the cell it reads, and every other
  // operand is the iteration's own map, never the written cell's value.
  // X[1] = X[0] + 1000 = 1100; X[2] = X[1] + 1001 = 2101 (exact in doubles).
  const MoebiusIrLoop loop{{4, {0, 1}, {1, 2}},
                           {MoebiusMap::affine(1.0, 1000.0), MoebiusMap::affine(1.0, 1001.0)}};
  const std::vector<double> init{100.0, 101.0, 102.0, 103.0};
  const std::vector<double> expect{100.0, 1100.0, 2101.0, 103.0};
  EXPECT_EQ(moebius_ir_sequential(loop, init), expect);
  for (const EngineChoice engine :
       {EngineChoice::kJumping, EngineChoice::kBlocked, EngineChoice::kScan}) {
    const Plan plan = compile_plan(loop.system, {.engine = engine});
    EXPECT_EQ(moebius_ir_run(plan, loop.maps, init), expect) << to_string(plan.engine);
  }

  // The same seeding contract on replay_traces itself: the root reads
  // 100 + cell, the self operands are 1000 + i.
  const Plan plan = compile_plan(loop.system, {.engine = EngineChoice::kJumping});
  std::vector<std::uint64_t> traces{(100 + 0) + (1000 + 0), 1000 + 1};
  replay_traces(plan, algebra::AddMonoid<std::uint64_t>{}, traces);
  EXPECT_EQ(traces, (std::vector<std::uint64_t>{1100, 2101}));
}

// ---- affine pairs: the 16-byte Lemma-2 operand of the linear routes -------

MoebiusMap as_moebius(const AffineMap& m) { return MoebiusMap::affine(m.a, m.b); }

/// Small-integer slopes and offsets keep every product exact, so equality
/// below is exact; every fourth map is constant (slope 0).
std::vector<AffineMap> integer_affine_maps(std::size_t count, support::SplitMix64& rng) {
  std::vector<AffineMap> maps(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double slope = k % 4 == 3 ? 0.0 : static_cast<double>(rng.below(7)) - 3.0;
    maps[k] = AffineMap{slope, static_cast<double>(rng.below(9)) - 4.0};
  }
  return maps;
}

TEST(AffineComposeTest, AgreesWithMoebiusComposeOnAffineMaps) {
  support::SplitMix64 rng(38);
  const AffineCompose affine;
  const MoebiusCompose moebius;
  std::vector<AffineMap> maps = integer_affine_maps(40, rng);
  for (int k = 0; k < 40; ++k) {  // non-integer maps agree value for value too
    maps.push_back(AffineMap{k % 5 == 0 ? 0.0 : rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)});
  }
  for (const AffineMap& prefix : maps) {
    for (const AffineMap& next : maps) {
      const AffineMap pair = affine.combine(prefix, next);
      const MoebiusMap matrix = moebius.combine(as_moebius(prefix), as_moebius(next));
      ASSERT_EQ(pair.a, matrix.a);
      ASSERT_EQ(pair.b, matrix.b);
      ASSERT_EQ(matrix.c, 0.0);
      ASSERT_EQ(matrix.d, 1.0);
      ASSERT_EQ(pair.is_constant(), matrix.is_constant());
      ASSERT_EQ(pair.apply(1.5), matrix.apply(1.5));
    }
  }
  // The singular short-circuit: a constant next map swallows its prefix.
  const AffineMap constant = AffineMap::constant(7.0);
  EXPECT_EQ(affine.combine(AffineMap{2.0, 3.0}, constant), constant);
  EXPECT_EQ(affine.combine(constant, AffineMap{2.0, 3.0}), (AffineMap{0.0, 17.0}));
  EXPECT_TRUE(AffineMap::constant(-1.0).is_constant());
  EXPECT_EQ(AffineMap::constant(-1.0).apply(0.0), -1.0);
}

TEST(AffineComposeTest, IsAssociativeWithTheConstantShortCircuit) {
  support::SplitMix64 rng(39);
  const AffineCompose op;
  const std::vector<AffineMap> maps = integer_affine_maps(24, rng);
  for (const AffineMap& x : maps) {
    for (const AffineMap& y : maps) {
      for (const AffineMap& z : maps) {
        ASSERT_EQ(op.combine(op.combine(x, y), z), op.combine(x, op.combine(y, z)));
      }
    }
  }
}

/// Three systems that kAuto routes to the three ordinary engines: column
/// chains (scan), two interleaved chains whose links stay inside a block
/// (blocked), and chains whose every link spans a quarter of the loop
/// (jumping).
struct RoutedSystem {
  OrdinaryIrSystem system;
  PlanEngine engine;
};

std::vector<RoutedSystem> systems_for_every_engine() {
  std::vector<RoutedSystem> out;
  OrdinaryIrSystem columns;
  columns.cells = 3 * 120;
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t k = 1; k < 120; ++k) {
      columns.f.push_back(j * 120 + k - 1);
      columns.g.push_back(j * 120 + k);
    }
  }
  out.push_back({columns, PlanEngine::kScan});

  const std::size_t n = 400;
  OrdinaryIrSystem interleaved;  // pred(i) = i - 2
  interleaved.cells = n + 2;
  for (std::size_t i = 0; i < n; ++i) {
    interleaved.f.push_back(i);
    interleaved.g.push_back(i + 2);
  }
  out.push_back({interleaved, PlanEngine::kBlocked});

  OrdinaryIrSystem strided;  // pred(i) = i - n/4, roots read cells written later
  strided.cells = n;
  for (std::size_t i = 0; i < n; ++i) {
    strided.f.push_back(i < n / 4 ? n - 1 - i : i - n / 4);
    strided.g.push_back(i);
  }
  out.push_back({strided, PlanEngine::kJumping});
  return out;
}

/// The Möbius route over 2x2 maps on the plan kAuto compiles — the route
/// the linear solvers took before they ran over affine pairs.
std::vector<double> moebius_route(const OrdinaryIrSystem& sys,
                                  const std::vector<MoebiusMap>& maps,
                                  const std::vector<double>& x, parallel::ThreadPool* pool) {
  const Plan plan = compile_plan(sys, {.pool = pool});
  return moebius_ir_run(plan, maps, x, {.pool = pool});
}

TEST(LinearIrTest, PairRouteEqualsMoebiusRouteOnEveryPlan) {
  support::SplitMix64 rng(40);
  parallel::ThreadPool pool(3);
  for (const RoutedSystem& routed : systems_for_every_engine()) {
    const OrdinaryIrSystem& sys = routed.system;
    SCOPED_TRACE(to_string(routed.engine));
    ASSERT_EQ(compile_plan(sys, {.pool = &pool}).engine, routed.engine);
    ASSERT_EQ(compile_plan(sys).engine, routed.engine);
    const std::size_t n = sys.iterations();

    LinearIrLoop linear{sys, {}, {}};
    SelfLinearIrLoop self{sys, {}, {}, {}, {}};
    for (std::size_t i = 0; i < n; ++i) {
      linear.mul.push_back(i % 9 == 4 ? 0.0 : rng.uniform(-0.95, 0.95));
      linear.add.push_back(rng.uniform(-1.0, 1.0));
      self.a.push_back(rng.uniform(-0.5, 0.5));
      self.b.push_back(rng.uniform(-0.5, 0.5));
      self.c.push_back(i % 7 == 0 ? 0.0 : rng.uniform(-0.2, 0.2));
      self.d.push_back(rng.uniform(0.3, 0.8));
    }
    const std::vector<double> x = random_values(sys.cells, rng);
    std::vector<MoebiusMap> linear_maps;
    std::vector<MoebiusMap> self_maps;
    for (std::size_t i = 0; i < n; ++i) {
      linear_maps.push_back(MoebiusMap::affine(linear.mul[i], linear.add[i]));
      const double s = x[sys.g[i]];
      self_maps.push_back(MoebiusMap::affine(s * self.c[i] + self.a[i], s * self.d[i] + self.b[i]));
    }

    for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(p != nullptr ? "pooled" : "serial");
      OrdinaryIrOptions options;
      options.pool = p;
      EXPECT_EQ(linear_ir_parallel(linear, x, options), moebius_route(sys, linear_maps, x, p));
      EXPECT_EQ(self_linear_ir_parallel(self, x, options), moebius_route(sys, self_maps, x, p));
    }
    if (routed.engine == PlanEngine::kScan) {
      // The chain fold keeps the loop's order, so it IS the loop.
      EXPECT_EQ(linear_ir_parallel(linear, x, {.pool = &pool}), linear_ir_sequential(linear, x));
    }
    expect_near(self_linear_ir_parallel(self, x, {.pool = &pool}),
                self_linear_ir_sequential(self, x), 1e-12);
  }
}

TEST(LinearIrTest, ThreadPoolMatches) {
  support::SplitMix64 rng(35);
  const auto loop = random_linear_loop(1000, 1200, rng, 0.9);
  const auto init = random_values(1200, rng);
  parallel::ThreadPool pool(4);
  OrdinaryIrOptions options;
  options.pool = &pool;
  expect_near(linear_ir_parallel(loop, init, options), linear_ir_sequential(loop, init),
              1e-8);
}

TEST(LinearIrTest, ValidationErrors) {
  LinearIrLoop loop{{3, {0}, {1}}, {1.0, 2.0}, {0.0}};
  EXPECT_THROW(loop.validate(), support::ContractViolation);
  MoebiusIrLoop mloop{{3, {0}, {1}}, {}};
  EXPECT_THROW(mloop.validate(), support::ContractViolation);
}

}  // namespace
}  // namespace ir::core
