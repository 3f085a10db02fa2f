// The plan/execute contract: a plan is a pure function of the index maps,
// executing it touches no index map at all, and the content fingerprint is
// pinned to the serialized byte stream.
#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/serialize.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::ModMulMonoid;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(FingerprintTest, PinnedToSerializedBytes) {
  support::SplitMix64 rng(71);
  const auto sys = testing::random_general_system(64, 40, rng, 0.6);
  EXPECT_EQ(content_fingerprint(sys), fnv1a(to_text(sys)));

  const auto ord = testing::random_ordinary_system(64, 90, rng, 0.8);
  EXPECT_EQ(content_fingerprint(ord), fnv1a(to_text(ord)));
  // The ordinary overload must hash the same bytes as its GIR embedding.
  EXPECT_EQ(content_fingerprint(ord), content_fingerprint(GeneralIrSystem::from_ordinary(ord)));
}

TEST(FingerprintTest, MutationChangesFingerprint) {
  support::SplitMix64 rng(72);
  const auto sys = testing::random_general_system(50, 30, rng, 0.5);
  auto mutated = sys;
  mutated.f[7] = (mutated.f[7] + 1) % mutated.cells;
  EXPECT_NE(content_fingerprint(sys), content_fingerprint(mutated));

  auto grown = sys;
  grown.cells += 1;
  EXPECT_NE(content_fingerprint(sys), content_fingerprint(grown));
}

TEST(PlanTest, CompileIsDeterministic) {
  support::SplitMix64 rng(73);
  const auto sys = testing::random_ordinary_system(500, 700, rng, 0.9);
  const Plan a = compile_plan(sys);
  const Plan b = compile_plan(sys);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.write_cell, b.write_cell);
  EXPECT_EQ(a.root_cell, b.root_cell);
  EXPECT_EQ(a.jump.dst, b.jump.dst);
  EXPECT_EQ(a.jump.src, b.jump.src);
  EXPECT_EQ(a.jump.round_begin, b.jump.round_begin);
  EXPECT_EQ(a.blocked.local_pred, b.blocked.local_pred);
  EXPECT_EQ(a.blocked.fix_dst, b.blocked.fix_dst);
}

TEST(PlanTest, EngineNamesParseFromOneTable) {
  EXPECT_EQ(engine_choice_from_name("auto"), EngineChoice::kAuto);
  EXPECT_EQ(engine_choice_from_name("elementwise"), EngineChoice::kElementwise);
  EXPECT_EQ(engine_choice_from_name("jumping"), EngineChoice::kJumping);
  EXPECT_EQ(engine_choice_from_name("blocked"), EngineChoice::kBlocked);
  EXPECT_EQ(engine_choice_from_name("scan"), EngineChoice::kScan);
  EXPECT_EQ(engine_choice_from_name("gir"), EngineChoice::kGeneralCap);
  EXPECT_EQ(engine_choice_from_name("spmd"), std::nullopt);
  EXPECT_EQ(engine_choice_from_name("Jumping"), std::nullopt);
  EXPECT_EQ(engine_choice_from_name(""), std::nullopt);
}

TEST(PlanTest, PlanOwnsItsReport) {
  // Every route, including elementwise, carries the analysis it routed on.
  GeneralIrSystem streaming{8, {6, 7}, {0, 1}, {6, 6}};
  const Plan plan = compile_plan(streaming);
  EXPECT_EQ(plan.engine, PlanEngine::kElementwise);
  EXPECT_EQ(plan.report.route, SolverRoute::kElementwiseParallel);
  EXPECT_EQ(plan.report.dependences, 0u);
}

// The tentpole guarantee: execute() consults no index map.  Compile, then
// poison f, g, h; execution must still match the sequential answer computed
// from the pristine system.
template <typename System>
void poison_maps(System& sys) {
  std::fill(sys.f.begin(), sys.f.end(), std::size_t{0});
  std::fill(sys.g.begin(), sys.g.end(), std::size_t{0});
}

TEST(PlanTest, ExecuteIgnoresPoisonedMapsOrdinaryEngines) {
  support::SplitMix64 rng(74);
  ModMulMonoid op(1'000'000'007ull);
  for (const auto engine : {EngineChoice::kJumping, EngineChoice::kBlocked}) {
    auto sys = testing::random_ordinary_system(400, 600, rng, 0.85);
    std::vector<std::uint64_t> init(600);
    for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
    const auto expected = ordinary_ir_sequential(op, sys, init);

    PlanOptions options;
    options.engine = engine;
    options.blocks = 4;
    const Plan plan = compile_plan(sys, options);
    poison_maps(sys);  // the plan must not notice

    EXPECT_EQ(execute_plan(plan, op, init), expected) << "engine " << to_string(plan.engine);
  }
}

TEST(PlanTest, ExecuteIgnoresPoisonedMapsGeneralAndElementwise) {
  support::SplitMix64 rng(75);
  ModMulMonoid op(999983);
  {
    auto sys = testing::random_general_system(120, 80, rng, 0.7);
    std::vector<std::uint64_t> init(80);
    for (auto& v : init) v = 1 + rng.below(999982);
    const auto expected = general_ir_sequential(op, sys, init);
    PlanOptions options;
    options.engine = EngineChoice::kGeneralCap;
    const Plan plan = compile_plan(sys, options);
    poison_maps(sys);
    std::fill(sys.h.begin(), sys.h.end(), std::size_t{0});
    EXPECT_EQ(execute_plan(plan, op, init), expected);
  }
  {
    GeneralIrSystem sys{8, {6, 7}, {0, 1}, {6, 6}};
    const std::vector<std::uint64_t> init{2, 3, 4, 5, 6, 7, 8, 9};
    const auto expected = general_ir_sequential(op, sys, init);
    const Plan plan = compile_plan(sys);
    poison_maps(sys);
    std::fill(sys.h.begin(), sys.h.end(), std::size_t{0});
    EXPECT_EQ(execute_plan(plan, op, init), expected);
  }
}

TEST(PlanTest, ExecuteManyMatchesRepeatedExecute) {
  support::SplitMix64 rng(76);
  const auto sys = testing::random_ordinary_system(300, 450, rng, 0.9);
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  const Plan plan = compile_plan(sys);

  std::vector<std::vector<std::uint64_t>> initials;
  for (int k = 0; k < 5; ++k) {
    std::vector<std::uint64_t> init(450);
    for (auto& v : init) v = rng.below(1000);
    initials.push_back(std::move(init));
  }

  parallel::ThreadPool pool(3);
  ExecOptions exec;
  exec.pool = &pool;
  const auto batched = execute_many(plan, op, initials, exec);
  ASSERT_EQ(batched.size(), initials.size());
  for (std::size_t k = 0; k < initials.size(); ++k) {
    EXPECT_EQ(batched[k], execute_plan(plan, op, initials[k])) << k;
  }
}

TEST(PlanTest, ForcedOrdinaryEngineRejectsGeneralShape) {
  GeneralIrSystem fib{5, {2, 3}, {3, 4}, {1, 2}};  // h != g
  PlanOptions options;
  options.engine = EngineChoice::kJumping;
  EXPECT_THROW(compile_plan(fib, options), support::ContractViolation);
}

TEST(PlanTest, RejectsNonInjectiveGOnOrdinaryCompile) {
  OrdinaryIrSystem sys;
  sys.cells = 4;
  sys.f = {0, 1};
  sys.g = {2, 2};  // repeated write: not an ordinary system
  EXPECT_THROW(compile_plan(sys), support::ContractViolation);
}

TEST(PlanTest, CacheKeySeparatesStructureAffectingOptions) {
  // Option sets that compile different schedules never share a key.
  support::SplitMix64 rng(77);
  const auto sys = testing::random_ordinary_system(50, 80, rng, 0.8);

  PlanOptions jumping;
  jumping.engine = EngineChoice::kJumping;
  PlanOptions blocked;
  blocked.engine = EngineChoice::kBlocked;
  EXPECT_NE(plan_cache_key(sys, jumping), plan_cache_key(sys, blocked));

  PlanOptions four_blocks = blocked;
  four_blocks.blocks = 4;
  PlanOptions eight_blocks = blocked;
  eight_blocks.blocks = 8;
  EXPECT_NE(plan_cache_key(sys, four_blocks), plan_cache_key(sys, eight_blocks));

  // kAuto's blocked-vs-jumping choice reads the threshold.
  PlanOptions low_threshold;
  low_threshold.blocked_threshold = 0.1;
  PlanOptions high_threshold;
  high_threshold.blocked_threshold = 0.9;
  EXPECT_NE(plan_cache_key(sys, low_threshold), plan_cache_key(sys, high_threshold));

  // Each GIR flag splits the key under both kAuto and forced gir.
  const auto gir = testing::random_general_system(40, 30, rng, 0.7);
  for (const EngineChoice engine : {EngineChoice::kAuto, EngineChoice::kGeneralCap}) {
    SCOPED_TRACE(static_cast<int>(engine));
    const PlanOptions base{.engine = engine};
    PlanOptions no_prune = base;
    no_prune.prune_dead = false;
    PlanOptions late = base;
    late.coalesce_each_round = false;
    PlanOptions dp = base;
    dp.reference_counts = true;
    for (const PlanOptions& flag : {no_prune, late, dp}) {
      EXPECT_NE(plan_cache_key(gir, base), plan_cache_key(gir, flag));
    }
  }

  // Distinct content never collides on the same options (smoke check).
  auto mutated = sys;
  mutated.f[3] = (mutated.f[3] + 1) % mutated.cells;
  EXPECT_NE(plan_cache_key(sys, jumping), plan_cache_key(mutated, jumping));
}

TEST(PlanTest, CacheKeyMasksOptionsTheRequestedEngineNeverReads) {
  support::SplitMix64 rng(78);
  const auto ord = testing::random_ordinary_system(60, 90, rng, 0.8);

  // A forced engine ignores every knob its compile never reads: jumping
  // reads none, blocked only its block count, gir only its three flags.
  PlanOptions jumping;
  jumping.engine = EngineChoice::kJumping;
  PlanOptions jumping_hints = jumping;
  jumping_hints.blocks = 16;
  jumping_hints.blocked_threshold = 0.9;
  jumping_hints.prune_dead = false;
  EXPECT_EQ(plan_cache_key(ord, jumping), plan_cache_key(ord, jumping_hints));

  PlanOptions blocked{.engine = EngineChoice::kBlocked, .blocks = 4};
  PlanOptions blocked_hints = blocked;
  blocked_hints.blocked_threshold = 0.5;
  blocked_hints.reference_counts = true;
  EXPECT_EQ(plan_cache_key(ord, blocked), plan_cache_key(ord, blocked_hints));

  const auto gir = testing::random_general_system(40, 30, rng, 0.7);
  PlanOptions forced_gir;
  forced_gir.engine = EngineChoice::kGeneralCap;
  PlanOptions gir_block_hints = forced_gir;
  gir_block_hints.blocks = 32;
  gir_block_hints.blocked_threshold = 0.5;
  EXPECT_EQ(plan_cache_key(gir, forced_gir), plan_cache_key(gir, gir_block_hints));

  // kAuto keys on every knob, even those the route it resolves to never
  // reads: the key is built without resolving the route.
  PlanOptions gir_flags;
  gir_flags.reference_counts = true;
  EXPECT_NE(plan_cache_key(ord, PlanOptions{}), plan_cache_key(ord, gir_flags));
  PlanOptions block_hint;
  block_hint.blocks = 8;
  EXPECT_NE(plan_cache_key(gir, PlanOptions{}), plan_cache_key(gir, block_hint));

  // The requested engine itself is part of the key: kAuto and the forced
  // engine it resolves to are two entries.
  const Plan auto_plan = compile_plan(gir);
  ASSERT_EQ(auto_plan.engine, PlanEngine::kGeneralCap);
  EXPECT_NE(plan_cache_key(gir, PlanOptions{}), plan_cache_key(gir, forced_gir));

  // The words are a function of the options alone, and the ordinary
  // overload keys exactly like the GIR embedding it serializes as.
  EXPECT_EQ(plan_key_words(PlanOptions{}).count, kMaxPlanKeyWords);
  EXPECT_EQ(plan_key_words(jumping).count, 0u);
  EXPECT_EQ(plan_key_words(blocked).count, 1u);
  EXPECT_EQ(plan_key_words(forced_gir).count, 1u);
  const PlanKey ord_key = plan_key(ord, blocked);
  EXPECT_EQ(ord_key.key, plan_cache_key(GeneralIrSystem::from_ordinary(ord), blocked));
  EXPECT_TRUE(ord_key.check == plan_key_check(GeneralIrSystem::from_ordinary(ord), blocked));
  EXPECT_TRUE(ord_key.words == plan_key_words(blocked));
}

}  // namespace
}  // namespace ir::core
