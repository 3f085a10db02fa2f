// The plan/execute contract: a plan is a pure function of the index maps,
// executing it touches no index map at all, and the content fingerprint is
// pinned to the system's index words.
#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/serialize.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::ModMulMonoid;

TEST(FingerprintTest, PinnedToIndexWords) {
  // The content hash reads cells, the equation count and each (f, g, h)
  // triple as 64-bit words.  .irplan v4 headers record it, so it is pinned:
  // one system fills the four lanes once and leaves a tail of two, the
  // other is an ordinary chain.
  const GeneralIrSystem general{7, {0, 1, 2, 6, 4, 3}, {1, 2, 3, 4, 5, 6}, {1, 0, 3, 2, 5, 5}};
  const ContentHash g_hash = content_hash(general);
  EXPECT_EQ(g_hash.fingerprint, 0x5fd8423a166c80e1ull);
  EXPECT_EQ(g_hash.identity.hash2, 0x4eadf59d2f889cb5ull);

  OrdinaryIrSystem chain;
  chain.cells = 10;
  for (std::size_t i = 0; i < 9; ++i) {
    chain.f.push_back(i);
    chain.g.push_back(i + 1);
  }
  const ContentHash c_hash = content_hash(chain);
  EXPECT_EQ(c_hash.fingerprint, 0xb39860e46a912ca1ull);
  EXPECT_EQ(c_hash.identity.hash2, 0x24e892241db929eeull);

  // The single-hash entry points are the two halves of content_hash.
  EXPECT_EQ(content_fingerprint(general), g_hash.fingerprint);
  EXPECT_EQ(content_identity(general).hash2, g_hash.identity.hash2);

  // The ordinary overloads hash (f, g, g): equal to the GIR embedding.
  support::SplitMix64 rng(71);
  const auto ord = testing::random_ordinary_system(64, 90, rng, 0.8);
  for (const OrdinaryIrSystem* sys : {static_cast<const OrdinaryIrSystem*>(&chain), &ord}) {
    const GeneralIrSystem embedded = GeneralIrSystem::from_ordinary(*sys);
    EXPECT_EQ(content_fingerprint(*sys), content_fingerprint(embedded));
    EXPECT_EQ(content_identity(*sys).hash2, content_identity(embedded).hash2);
  }
}

TEST(FingerprintTest, MutationChangesFingerprint) {
  // Each mutation is one a careless word hash could miss: a per-array sum
  // or xor misses swaps and moved values, a hash of the concatenated words
  // without positions misses swaps between arrays, and a per-lane hash
  // combined symmetrically misses equations traded between lanes.  Both
  // mixers must see every one.
  support::SplitMix64 rng(72);
  const auto sys = testing::random_general_system(50, 30, rng, 0.5);
  auto expect_changed = [&sys](const GeneralIrSystem& mutated, const char* what) {
    EXPECT_NE(content_fingerprint(sys), content_fingerprint(mutated)) << what;
    EXPECT_NE(content_identity(sys).hash2, content_identity(mutated).hash2) << what;
  };
  auto distinct = [](std::size_t a, std::size_t b) { return a != b; };

  auto mutated = sys;
  mutated.f[7] = (mutated.f[7] + 1) % mutated.cells;
  expect_changed(mutated, "f[7] changed");

  for (const std::ptrdiff_t delta : {1, -1}) {
    auto resized = sys;
    resized.cells = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(sys.cells) + delta);
    expect_changed(resized, "cells changed by one");
  }

  std::size_t i = 0;
  while (!distinct(sys.f[i], sys.g[i])) ++i;
  auto swapped_fg = sys;
  std::swap(swapped_fg.f[i], swapped_fg.g[i]);
  expect_changed(swapped_fg, "f[i] and g[i] swapped");

  std::size_t j = i + 1;
  while (!distinct(sys.f[i], sys.f[j])) ++j;
  auto swapped_ff = sys;
  std::swap(swapped_ff.f[i], swapped_ff.f[j]);
  expect_changed(swapped_ff, "f[i] and f[j] swapped");

  std::size_t k = 0;
  while (sys.f[k] == 0 || sys.g[k] + 1 >= sys.cells) ++k;
  auto moved = sys;  // one unit moves from f[k] to g[k]: every sum is kept
  moved.f[k] -= 1;
  moved.g[k] += 1;
  expect_changed(moved, "a value moved from f to g");

  std::size_t a = 0;
  std::size_t b = 1;
  while (!distinct(sys.h[a], sys.g[b])) ++b;
  auto traded = sys;  // h[a] and g[b] trade places across arrays
  std::swap(traded.h[a], traded.g[b]);
  expect_changed(traded, "h[a] and g[b] swapped");

  for (const std::size_t step : {std::size_t{1}, std::size_t{4}}) {
    auto reordered = sys;  // equations 8 and 8 + step trade places
    std::swap(reordered.f[8], reordered.f[8 + step]);
    std::swap(reordered.g[8], reordered.g[8 + step]);
    std::swap(reordered.h[8], reordered.h[8 + step]);
    expect_changed(reordered, step == 1 ? "equations of two lanes swapped"
                                        : "equations of one lane swapped");
  }
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

TEST(PlanTest, RecurrenceFreeSystemRoutesElementwise) {
  // No read of an earlier write: kAuto takes the elementwise route on
  // either overload.
  GeneralIrSystem streaming{8, {6, 7}, {0, 1}, {6, 6}};
  EXPECT_EQ(compile_plan(streaming).engine, PlanEngine::kElementwise);
  OrdinaryIrSystem ordinary;
  ordinary.cells = 8;
  ordinary.f = {6, 7};
  ordinary.g = {0, 1};
  EXPECT_EQ(compile_plan(ordinary).engine, PlanEngine::kElementwise);
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


/// FNV-1a over every table and schedule scalar of a compiled plan, each
/// table prefixed by its length: two plans with the same digest replay the
/// same schedule.
class PlanDigest {
 public:
  void word(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 1099511628211ull;
    }
  }
  template <typename Table>
  void table(const Table& values) {
    word(values.size());
    for (const auto value : values) word(value);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t plan_digest(const Plan& plan) {
  PlanDigest d;
  for (const std::uint64_t scalar :
       {static_cast<std::uint64_t>(plan.engine), plan.fingerprint,
        static_cast<std::uint64_t>(plan.cells), static_cast<std::uint64_t>(plan.iterations),
        static_cast<std::uint64_t>(plan.chain)}) {
    d.word(scalar);
  }
  d.table(plan.write_cell);
  d.table(plan.root_cell);

  const JumpSchedule& js = plan.jump;
  d.table(js.dst);
  d.table(js.src);
  d.table(js.round_begin);
  d.word(js.peak_active);
  d.word(js.seed_ops);

  const BlockedSchedule& bs = plan.blocked;
  d.word(bs.blocks.size());
  for (const parallel::Block& block : bs.blocks) {
    d.word(block.begin);
    d.word(block.end);
    d.word(block.worker);
  }
  d.table(bs.local_pred);
  d.table(bs.fix_dst);
  d.table(bs.fix_src);
  d.table(bs.fix_begin);
  d.word(bs.phase1_ops);
  d.word(bs.resolve_rounds);

  d.table(plan.scan.head);
  d.word(plan.scan.segments);
  d.word(plan.scan.longest);

  d.table(plan.elementwise.cell);
  d.table(plan.elementwise.f);
  d.table(plan.elementwise.h);

  const GirSchedule& gs = plan.gir;
  d.table(gs.cell);
  d.table(gs.term_begin);
  d.table(gs.term_cell);
  d.word(gs.term_exp.size());
  for (const support::BigUint& exp : gs.term_exp) d.table(exp.limbs());
  d.word(gs.cap_rounds);
  d.word(gs.cap_peak_edges);
  d.word(gs.live_equations);
  return d.value();
}

/// The engine requests every pinned system is compiled under, in the order
/// of PinnedSystem::digests.
struct EngineRequest {
  const char* label;
  EngineChoice engine;
  std::size_t pool_threads;  ///< 0 = no pool
  std::size_t blocks;
};

constexpr EngineRequest kEngineRequests[] = {
    {"auto", EngineChoice::kAuto, 0, 0},
    {"auto-pool4", EngineChoice::kAuto, 4, 0},
    {"jumping", EngineChoice::kJumping, 0, 0},
    {"blocked3", EngineChoice::kBlocked, 0, 3},
    {"scan", EngineChoice::kScan, 0, 0},
    {"elementwise", EngineChoice::kElementwise, 0, 0},
    {"gir", EngineChoice::kGeneralCap, 0, 0},
};

/// Digest of compile_plan(sys, request), or 0 when the request does not fit
/// the system and the compile throws ContractViolation.
template <typename System>
std::uint64_t compiled_digest(const System& sys, const EngineRequest& request,
                              parallel::ThreadPool& pool4) {
  PlanOptions options;
  options.engine = request.engine;
  options.blocks = request.blocks;
  if (request.pool_threads != 0) options.pool = &pool4;
  try {
    return plan_digest(compile_plan(sys, options));
  } catch (const support::ContractViolation&) {
    return 0;
  }
}

OrdinaryIrSystem pinned_chain() {
  OrdinaryIrSystem sys;
  sys.cells = 201;
  for (std::size_t i = 0; i < 200; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  return sys;
}

/// Twelve equations whose only dependences, 3 -> 5 and 6 -> 8, cross the
/// boundaries of three blocks (4 and 8) but none of four blocks (3, 6, 9).
OrdinaryIrSystem three_block_crossings() {
  OrdinaryIrSystem sys;
  sys.cells = 24;
  for (std::size_t i = 0; i < 12; ++i) {
    sys.g.push_back(i);
    sys.f.push_back(i == 5 ? 3 : i == 8 ? 6 : 12 + i);  // else read untouched cells
  }
  return sys;
}

/// Recurrence-free with repeated writes: every read hits a never-written
/// cell, and g wraps around seven cells.
GeneralIrSystem recurrence_free_repeated_writes() {
  GeneralIrSystem sys;
  sys.cells = 40;
  for (std::size_t i = 0; i < 30; ++i) {
    sys.g.push_back(i % 7);
    sys.f.push_back(7 + (3 * i) % 33);
    sys.h.push_back(7 + (5 * i) % 33);
  }
  return sys;
}

TEST(PlanTest, SchedulesArePinned) {
  // Every table and schedule scalar compile_plan emits, pinned per (system,
  // engine request): a refactor of the compile must reproduce the schedules
  // byte for byte.  0 pins that the request does not fit the system.
  parallel::ThreadPool pool4(4);
  support::SplitMix64 rng(79);
  const OrdinaryIrSystem chain = pinned_chain();
  const OrdinaryIrSystem sparse = testing::random_ordinary_system(300, 450, rng, 0.3);
  const OrdinaryIrSystem dense = testing::random_ordinary_system(300, 450, rng, 0.9);
  const OrdinaryIrSystem crossings = three_block_crossings();
  const GeneralIrSystem streaming = recurrence_free_repeated_writes();
  const GeneralIrSystem general = testing::random_general_system(120, 80, rng, 0.6);

  constexpr std::size_t kRequests = std::size(kEngineRequests);
  struct Pinned {
    const char* name;
    std::uint64_t digests[kRequests];
  };
  // Order: auto, auto-pool4, jumping, blocked3, scan, elementwise, gir.
  const Pinned pinned[] = {
      {"chain",
       {0x76e76a58fa39198full, 0x76e76a58fa39198full, 0x82de9ca2bd2d9892ull,
        0x2f1fdb5913c47957ull, 0x76e76a58fa39198full, 0, 0x446f773f115a53c1ull}},
      {"rewire-0.3",
       {0x01e29e7e285f7be4ull, 0x01e29e7e285f7be4ull, 0x01e29e7e285f7be4ull,
        0xfce614e678572358ull, 0, 0, 0xa31774c784b3257bull}},
      {"rewire-0.9",
       {0xe395c107da30c7e2ull, 0xe395c107da30c7e2ull, 0xe395c107da30c7e2ull,
        0x2f493056203a03d4ull, 0, 0, 0xda950189860ad5a0ull}},
      {"three-block-crossings",
       {0x8a1df251cbf44b97ull, 0xe78c6724d17f52a5ull, 0x2258141e328cd6d7ull,
        0x78b967c2a0ccd56aull, 0, 0, 0x7aef468d234fb725ull}},
      {"recurrence-free",
       {0x31b206e33944a11dull, 0x31b206e33944a11dull, 0, 0, 0, 0x31b206e33944a11dull,
        0x37672804b02fb681ull}},
      {"general",
       {0xb2b105266beb7eacull, 0xb2b105266beb7eacull, 0, 0, 0, 0,
        0xb2b105266beb7eacull}},
  };
  for (std::size_t s = 0; s < std::size(pinned); ++s) {
    for (std::size_t r = 0; r < kRequests; ++r) {
      const EngineRequest& request = kEngineRequests[r];
      std::uint64_t got = 0;
      switch (s) {
        case 0: got = compiled_digest(chain, request, pool4); break;
        case 1: got = compiled_digest(sparse, request, pool4); break;
        case 2: got = compiled_digest(dense, request, pool4); break;
        case 3: got = compiled_digest(crossings, request, pool4); break;
        case 4: got = compiled_digest(streaming, request, pool4); break;
        default: got = compiled_digest(general, request, pool4); break;
      }
      EXPECT_EQ(got, pinned[s].digests[r])
          << pinned[s].name << " / " << request.label << ": got 0x" << std::hex << got;
    }
  }
}

TEST(PlanTest, OrdinaryAndEmbeddedCompilesAgree) {
  // The ordinary overload compiles from f and g directly; its GIR embedding
  // (h := g) must compile to the same plan under every engine request, and
  // a request that does not fit must throw through both.
  parallel::ThreadPool pool4(4);
  support::SplitMix64 rng(80);
  std::vector<OrdinaryIrSystem> systems = {
      pinned_chain(), three_block_crossings(),
      testing::random_ordinary_system(300, 450, rng, 0.3),
      testing::random_ordinary_system(300, 450, rng, 0.9),
      testing::random_ordinary_system(200, 200, rng, 0.0)};
  OrdinaryIrSystem streaming;  // recurrence-free: reads never hit a write
  streaming.cells = 60;
  for (std::size_t i = 0; i < 30; ++i) {
    streaming.g.push_back(2 * i);
    streaming.f.push_back(2 * i + 1);
  }
  systems.push_back(streaming);
  systems.push_back(OrdinaryIrSystem{5, {}, {}});  // no equations

  for (std::size_t s = 0; s < systems.size(); ++s) {
    const GeneralIrSystem embedded = GeneralIrSystem::from_ordinary(systems[s]);
    for (const EngineRequest& request : kEngineRequests) {
      const std::uint64_t ordinary = compiled_digest(systems[s], request, pool4);
      EXPECT_EQ(ordinary, compiled_digest(embedded, request, pool4))
          << "system " << s << " / " << request.label;
    }
  }
}

TEST(PlanTest, ForcedEngineMisfitsThrow) {
  // Forced elementwise needs a recurrence-free system, on either overload.
  const OrdinaryIrSystem chain = pinned_chain();
  const PlanOptions elementwise{.engine = EngineChoice::kElementwise};
  EXPECT_THROW((void)compile_plan(chain, elementwise), support::ContractViolation);
  EXPECT_THROW((void)compile_plan(GeneralIrSystem::from_ordinary(chain), elementwise),
               support::ContractViolation);

  // Forced ordinary engines need injective writes: a GIR system with h = g
  // but a repeated write is refused by all three.
  const GeneralIrSystem repeated{4, {0, 1, 2}, {1, 2, 1}, {1, 2, 1}};
  for (const EngineChoice engine :
       {EngineChoice::kJumping, EngineChoice::kBlocked, EngineChoice::kScan}) {
    const PlanOptions forced{.engine = engine, .blocks = 2};
    EXPECT_THROW((void)compile_plan(repeated, forced), support::ContractViolation)
        << static_cast<int>(engine);
  }

  // Forced scan needs the chain structure.
  const PlanOptions scan{.engine = EngineChoice::kScan};
  EXPECT_THROW((void)compile_plan(three_block_crossings(), scan), support::ContractViolation);
}

}  // namespace
}  // namespace ir::core
