// Solver facade: content-addressed plan caching and one-call solve.
#include "core/solver.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan_io.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::ModMulMonoid;

TEST(SolverTest, RecompileIsACacheHit) {
  support::SplitMix64 rng(81);
  const auto sys = testing::random_ordinary_system(200, 300, rng, 0.8);
  Solver solver;
  const auto first = solver.compile(sys);
  const auto second = solver.compile(sys);
  EXPECT_EQ(first.get(), second.get());  // literally the same plan object
  EXPECT_EQ(solver.plan_cache().misses(), 1u);
  EXPECT_EQ(solver.plan_cache().hits(), 1u);

  // A structurally identical copy hits too: the key is content, not identity.
  const OrdinaryIrSystem copy = sys;
  EXPECT_EQ(solver.compile(copy).get(), first.get());
  EXPECT_EQ(solver.plan_cache().hits(), 2u);
}

TEST(SolverTest, DistinctSystemsNeverShareAPlan) {
  support::SplitMix64 rng(82);
  const auto sys = testing::random_ordinary_system(150, 200, rng, 0.8);
  auto mutated = sys;
  mutated.f[3] = (mutated.f[3] + 1) % mutated.cells;

  Solver solver;
  const auto a = solver.compile(sys);
  const auto b = solver.compile(mutated);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a->fingerprint, b->fingerprint);
  EXPECT_EQ(solver.plan_cache().misses(), 2u);
}

TEST(SolverTest, DistinctOptionsGetDistinctPlans) {
  support::SplitMix64 rng(83);
  const auto sys = testing::random_ordinary_system(150, 200, rng, 0.8);
  Solver solver;
  PlanOptions jumping;
  jumping.engine = EngineChoice::kJumping;
  PlanOptions blocked;
  blocked.engine = EngineChoice::kBlocked;
  const auto a = solver.compile(sys, jumping);
  const auto b = solver.compile(sys, blocked);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->engine, PlanEngine::kJumping);
  EXPECT_EQ(b->engine, PlanEngine::kBlocked);
}

TEST(SolverTest, OptionsTheRequestedEngineNeverReadsHitTheSameCacheEntry) {
  // The cache key carries the requested engine plus exactly the knobs that
  // engine's compile reads, so a forced engine under knobs it never reads
  // is a hit, not a second compile of a byte-identical plan.
  support::SplitMix64 rng(87);
  const auto sys = testing::random_ordinary_system(120, 180, rng, 0.8);
  Solver solver;

  // Forced jumping ignores block hints, the routing threshold and the GIR
  // flags.
  PlanOptions jumping;
  jumping.engine = EngineChoice::kJumping;
  (void)solver.compile(sys, jumping);
  EXPECT_EQ(solver.plan_cache().misses(), 1u);
  PlanOptions jumping_hints = jumping;
  jumping_hints.blocks = 16;
  jumping_hints.blocked_threshold = 0.75;
  jumping_hints.reference_counts = true;
  (void)solver.compile(sys, jumping_hints);
  EXPECT_EQ(solver.plan_cache().hits(), 1u);
  EXPECT_EQ(solver.plan_cache().misses(), 1u);
  EXPECT_EQ(solver.plan_cache().size(), 1u);

  // A knob the requested engine does read still misses.
  PlanOptions blocked;
  blocked.engine = EngineChoice::kBlocked;
  blocked.blocks = 4;
  (void)solver.compile(sys, blocked);
  PlanOptions blocked8 = blocked;
  blocked8.blocks = 8;
  (void)solver.compile(sys, blocked8);
  EXPECT_EQ(solver.plan_cache().misses(), 3u);

  // kAuto reads every knob, so flipping a GIR flag on an ordinary-routed
  // system is a second entry (memory, not correctness: the plans agree).
  const auto first = solver.compile(sys);
  PlanOptions gir_flags;
  gir_flags.reference_counts = true;
  const auto second = solver.compile(sys, gir_flags);
  EXPECT_EQ(solver.plan_cache().misses(), 5u);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->engine, second->engine);
}

TEST(SolverTest, CapacityBoundEvictsLeastRecentlyUsed) {
  support::SplitMix64 rng(84);
  SolverConfig config;
  config.plan_cache_capacity = 2;
  Solver solver(config);
  const auto a = testing::random_ordinary_system(50, 80, rng, 0.8);
  const auto b = testing::random_ordinary_system(60, 90, rng, 0.8);
  const auto c = testing::random_ordinary_system(70, 100, rng, 0.8);
  (void)solver.compile(a);
  (void)solver.compile(b);
  (void)solver.compile(c);  // evicts a
  EXPECT_EQ(solver.plan_cache().evictions(), 1u);
  EXPECT_EQ(solver.plan_cache().size(), 2u);
  (void)solver.compile(a);  // gone: a fresh miss, not a hit
  EXPECT_EQ(solver.plan_cache().hits(), 0u);
  EXPECT_EQ(solver.plan_cache().misses(), 4u);
}

TEST(SolverTest, SolveMatchesSequentialAcrossEnginesRandomized) {
  support::SplitMix64 rng(85);
  ModMulMonoid op(1'000'000'007ull);
  parallel::ThreadPool pool(3);
  Solver solver;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 100 + 60 * static_cast<std::size_t>(trial);
    const auto sys = testing::random_ordinary_system(n, n + n / 2, rng, 0.85);
    std::vector<std::uint64_t> init(n + n / 2);
    for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
    const auto expected = ordinary_ir_sequential(op, sys, init);
    for (const auto engine :
         {EngineChoice::kAuto, EngineChoice::kJumping, EngineChoice::kBlocked}) {
      PlanOptions options;
      options.engine = engine;
      options.pool = &pool;
      ExecOptions exec;
      exec.pool = &pool;
      EXPECT_EQ(solver.solve(op, sys, init, options, exec), expected)
          << "trial " << trial << " engine " << static_cast<int>(engine);
    }
  }
}

TEST(SolverTest, GeneralSystemsThroughTheFacade) {
  support::SplitMix64 rng(86);
  ModMulMonoid op(999999937ull);
  Solver solver;
  for (int trial = 0; trial < 4; ++trial) {
    const auto sys = testing::random_general_system(200, 120, rng, 0.7);
    std::vector<std::uint64_t> init(120);
    for (auto& v : init) v = 1 + rng.below(999999936ull);
    EXPECT_EQ(solver.solve(op, sys, init), general_ir_sequential(op, sys, init)) << trial;
  }
}

TEST(SolverTest, SharedSolverIsAProcessSingleton) {
  EXPECT_EQ(&shared_solver(), &shared_solver());
}

TEST(SolverTest, PlanCacheCapacityFromEnv) {
  // RAII guard: whatever these cases do, the variable leaves the process
  // environment exactly as it entered.
  const char* saved = std::getenv("IR_PLAN_CACHE_CAP");
  const std::string restore = saved != nullptr ? saved : "";
  const bool had = saved != nullptr;

  unsetenv("IR_PLAN_CACHE_CAP");
  EXPECT_EQ(plan_cache_capacity_from_env(), 64u);  // unset: default fallback
  EXPECT_EQ(plan_cache_capacity_from_env(7), 7u);  // caller-chosen fallback

  setenv("IR_PLAN_CACHE_CAP", "128", 1);
  EXPECT_EQ(plan_cache_capacity_from_env(), 128u);

  setenv("IR_PLAN_CACHE_CAP", "0", 1);  // "0" is valid: disables caching
  EXPECT_EQ(plan_cache_capacity_from_env(), 0u);

  // Invalid values keep the fallback rather than silently disabling the cache.
  for (const char* bad : {"", "  ", "12x", "x12", "-3", "1.5",
                          "99999999999999999999999999"}) {
    setenv("IR_PLAN_CACHE_CAP", bad, 1);
    EXPECT_EQ(plan_cache_capacity_from_env(), 64u) << "value '" << bad << "'";
  }

  // The override actually reaches a Solver built the way shared_solver()
  // builds one: capacity 1 means the second distinct system evicts the first.
  setenv("IR_PLAN_CACHE_CAP", "1", 1);
  Solver solver(SolverConfig{plan_cache_capacity_from_env()});
  support::SplitMix64 rng(91);
  const auto a = testing::random_ordinary_system(40, 60, rng, 0.8);
  const auto b = testing::random_ordinary_system(50, 70, rng, 0.8);
  (void)solver.compile(a);
  (void)solver.compile(b);
  EXPECT_EQ(solver.plan_cache().evictions(), 1u);
  EXPECT_EQ(solver.plan_cache().size(), 1u);

  if (had) {
    setenv("IR_PLAN_CACHE_CAP", restore.c_str(), 1);
  } else {
    unsetenv("IR_PLAN_CACHE_CAP");
  }
}

TEST(SolverTest, ConcurrentCompilesOfOneKeyAreSingleFlighted) {
  support::SplitMix64 rng(92);
  const auto sys = testing::random_ordinary_system(400, 500, rng, 0.8);
  Solver solver;

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const Plan>> plans(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { plans[t] = solver.compile(sys); });
    }
    for (auto& thread : threads) thread.join();
  }
  // Every caller got the same plan object and only one build actually ran —
  // racers parked on the leader's future instead of compiling duplicates.
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[t].get(), plans[0].get()) << t;
  }
  EXPECT_EQ(solver.plan_compiles(), 1u);
  EXPECT_EQ(solver.plan_cache().size(), 1u);
}

TEST(SolverTest, CapacityZeroDisablesCachingButStillCompiles) {
  // IR_PLAN_CACHE_CAP=0 semantics, end to end: every compile is a fresh
  // miss + fresh build, nothing is retained, and results stay correct.
  SolverConfig config;
  config.plan_cache_capacity = 0;
  Solver solver(config);
  support::SplitMix64 rng(93);
  const auto sys = testing::random_ordinary_system(60, 90, rng, 0.8);

  const auto first = solver.compile(sys);
  const auto second = solver.compile(sys);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first.get(), second.get());  // nothing was cached
  EXPECT_EQ(first->fingerprint, second->fingerprint);
  EXPECT_EQ(solver.plan_compiles(), 2u);
  EXPECT_EQ(solver.plan_cache().size(), 0u);
  EXPECT_EQ(solver.plan_cache().hits(), 0u);
  EXPECT_EQ(solver.plan_cache().misses(), 2u);
}

TEST(SolverTest, CapacityZeroStillSingleFlightsConcurrentCompiles) {
  // With the cache off, concurrent compiles of one key still coalesce: the
  // single-flight map, not the cache, is what dedupes racing builds.
  SolverConfig config;
  config.plan_cache_capacity = 0;
  Solver solver(config);
  support::SplitMix64 rng(94);
  const auto sys = testing::random_ordinary_system(400, 500, rng, 0.8);

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const Plan>> plans(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { plans[t] = solver.compile(sys); });
    }
    for (auto& thread : threads) thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) ASSERT_NE(plans[t], nullptr);
  // At least some coalescing must have happened; the exact count depends on
  // scheduling (each leader retires before the next group forms), but it can
  // never exceed the number of callers and is 1 when all racers overlap.
  EXPECT_LE(solver.plan_compiles(), kThreads);
  EXPECT_EQ(solver.plan_cache().size(), 0u);
}

TEST(SolverTest, PlanStoreFallbackAvoidsRecompiles) {
  // A second solver process (modeled as a second Solver) pointed at the same
  // store satisfies its gir-cap cache misses from disk: plan_compiles()
  // stays 0.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("irsolver-store-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  PlanStore store(dir.string());

  support::SplitMix64 rng(95);
  const auto sys = testing::random_general_system(80, 120, rng, 0.7);

  SolverConfig config;
  config.plan_store = &store;
  std::uint64_t fingerprint = 0;
  {
    Solver cold(config);
    const auto plan = cold.compile(sys);
    ASSERT_EQ(plan->engine, PlanEngine::kGeneralCap);
    fingerprint = plan->fingerprint;
    EXPECT_EQ(cold.plan_compiles(), 1u);
    EXPECT_EQ(store.puts(), 1u);  // write-through persisted the compile
  }
  {
    Solver warm(config);
    const auto plan = warm.compile(sys);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->fingerprint, fingerprint);
    EXPECT_EQ(warm.plan_compiles(), 0u);  // served from the store, not compiled
    EXPECT_EQ(store.hits(), 1u);
    // And the fetched plan entered the in-memory cache: the next compile is
    // a pure cache hit that never touches disk again.
    (void)warm.compile(sys);
    EXPECT_EQ(warm.plan_cache().hits(), 1u);
    EXPECT_EQ(store.hits(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SolverTest, OrdinaryCompilesAreNotStored) {
  // An ordinary plan compiles faster than a stored one verifies, so the
  // write-through skips it: the store sees a miss and no put, and a second
  // Solver on the same store compiles again.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("irsolver-store-ordinary-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  PlanStore store(dir.string());

  support::SplitMix64 rng(97);
  const auto sys = testing::random_ordinary_system(80, 120, rng, 0.8);

  SolverConfig config;
  config.plan_store = &store;
  for (int process = 0; process < 2; ++process) {
    Solver solver(config);
    const auto plan = solver.compile(sys);
    EXPECT_NE(plan->engine, PlanEngine::kGeneralCap);
    EXPECT_EQ(solver.plan_compiles(), 1u) << "process " << process;
  }
  EXPECT_EQ(store.puts(), 0u);
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.rejects(), 0u);
  EXPECT_TRUE(store.manifest().empty());

  // Forced gir on the same ordinary system is a gir-cap plan: stored.
  Solver solver(config);
  (void)solver.compile(sys, PlanOptions{.engine = EngineChoice::kGeneralCap});
  EXPECT_EQ(store.puts(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(SolverTest, StoreWritesCanBeDisabled) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("irsolver-store-ro-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  PlanStore store(dir.string());

  support::SplitMix64 rng(96);
  const auto sys = testing::random_general_system(60, 90, rng, 0.7);

  SolverConfig config;
  config.plan_store = &store;
  config.store_writes = false;  // read-only consumer of a shared store
  Solver solver(config);
  EXPECT_EQ(solver.compile(sys)->engine, PlanEngine::kGeneralCap);
  EXPECT_EQ(solver.plan_compiles(), 1u);
  EXPECT_EQ(store.puts(), 0u);
  EXPECT_TRUE(store.manifest().empty());
  std::filesystem::remove_all(dir);
}

TEST(SolveRouterReportTest, ReportOutFilledOnEveryRoute) {
  // The elementwise route historically skipped its report on one overload;
  // through the Solver, both overloads now route a recurrence-free system
  // to the elementwise plan.
  ModMulMonoid op(97);
  Solver solver;
  {
    GeneralIrSystem streaming{8, {6, 7}, {0, 1}, {6, 6}};
    const auto plan = solver.compile(streaming);
    (void)solver.execute(*plan, op, std::vector<std::uint64_t>(8, 1));
    EXPECT_EQ(plan->engine, PlanEngine::kElementwise);
  }
  {
    OrdinaryIrSystem streaming;
    streaming.cells = 8;
    streaming.f = {6, 7};
    streaming.g = {0, 1};
    const auto plan = solver.compile(streaming);
    (void)solver.execute(*plan, op, std::vector<std::uint64_t>(8, 1));
    EXPECT_EQ(plan->engine, PlanEngine::kElementwise);
  }
}

}  // namespace
}  // namespace ir::core
