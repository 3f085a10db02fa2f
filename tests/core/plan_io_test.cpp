// Binary plan format + PlanStore: round-trip across every engine (loaded
// plans execute bit-identically and borrow their tables straight from the
// buffer), the adversarial import gauntlet (truncation, bit flips, bounds,
// foreign byte order, a retired engine id, tampered tables), and the store's
// put/get/manifest/preload lifecycle with the collision double-check.
#include "core/plan_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "core/serialize.hpp"
#include "core/solver.hpp"
#include "support/contract.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;

/// Header field positions (pinned by the format): the 544-byte header ends
/// with the whole-file checksum; the recorded cache identity and the key
/// words it must derive from sit behind the fingerprint.
constexpr std::size_t kTestHeaderBytes = 544;
constexpr std::size_t kTestEngineOffset = 16;
constexpr std::size_t kTestChecksumOffset = 536;
constexpr std::size_t kTestStoreKeyOffset = 40;
constexpr std::size_t kTestCheckBytesOffset = 48;
constexpr std::size_t kTestCheckHash2Offset = 56;
constexpr std::size_t kTestKeyWordsOffset = 80;

/// Re-seal a deliberately tampered buffer so it passes the structural
/// checksum and the deeper gates (fingerprint, verify) get exercised.
void reseal_checksum(std::string& bytes) {
  ASSERT_GE(bytes.size(), kTestChecksumOffset + 8);
  std::memset(bytes.data() + kTestChecksumOffset, 0, 8);
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  std::memcpy(bytes.data() + kTestChecksumOffset, &hash, 8);
}

/// One chain: A[i+1] := A[i] . A[i+1] — routes to kScan.
OrdinaryIrSystem chain_system(std::size_t n) {
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  return sys;
}

/// Every read targets a never-written cell — routes to kElementwise.
OrdinaryIrSystem independent_system(std::size_t n) {
  OrdinaryIrSystem sys;
  sys.cells = 2 * n;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(n + i);
    sys.g.push_back(i);
  }
  return sys;
}

struct Exported {
  GeneralIrSystem sys;
  Plan plan;
  std::uint64_t key = 0;
  PlanKeyCheck check;
  PlanKeyWords words;
  std::string bytes;
};

Exported export_ordinary(const OrdinaryIrSystem& ord, const PlanOptions& options = {}) {
  Exported out;
  out.sys = GeneralIrSystem::from_ordinary(ord);
  out.plan = compile_plan(ord, options);
  const PlanKey identity = plan_key(ord, options);
  out.key = identity.key;
  out.check = identity.check;
  out.words = identity.words;
  out.bytes = serialize_plan(out.plan, out.sys, out.words);
  return out;
}

Exported export_general(const GeneralIrSystem& sys, const PlanOptions& options = {}) {
  Exported out;
  out.sys = sys;
  out.plan = compile_plan(sys, options);
  const PlanKey identity = plan_key(sys, options);
  out.key = identity.key;
  out.check = identity.check;
  out.words = identity.words;
  out.bytes = serialize_plan(out.plan, out.sys, out.words);
  return out;
}

LoadedPlan load_bytes(std::string bytes) {
  return load_plan(std::make_shared<const std::string>(std::move(bytes)));
}

/// Round-trip assertion: header identity survives, and the loaded plan
/// executes bit-identically to the in-memory original.
void expect_round_trip(const Exported& e) {
  const LoadedPlan loaded = load_bytes(e.bytes);
  ASSERT_NE(loaded.plan, nullptr);
  EXPECT_EQ(loaded.store_key, e.key);
  EXPECT_TRUE(loaded.check == e.check);
  EXPECT_TRUE(loaded.key_words == e.words);
  EXPECT_EQ(loaded.plan->engine, e.plan.engine);
  EXPECT_EQ(loaded.plan->fingerprint, e.plan.fingerprint);
  EXPECT_EQ(loaded.plan->cells, e.plan.cells);
  EXPECT_EQ(loaded.plan->iterations, e.plan.iterations);
  EXPECT_EQ(content_fingerprint(loaded.system), content_fingerprint(e.sys));

  const AddMonoid<std::uint64_t> op;
  std::vector<std::uint64_t> initial(e.plan.cells);
  for (std::size_t c = 0; c < initial.size(); ++c) initial[c] = 17 * c + 3;
  const auto expect = execute_plan(e.plan, op, initial);
  const auto got = execute_plan(*loaded.plan, op, initial);
  EXPECT_EQ(expect, got);
}

TEST(PlanIoTest, RoundTripsEveryEngine) {
  support::SplitMix64 rng(401);
  const auto ord = testing::random_ordinary_system(180, 260, rng, 0.8);

  for (const EngineChoice choice : {EngineChoice::kJumping, EngineChoice::kBlocked}) {
    PlanOptions options;
    options.engine = choice;
    SCOPED_TRACE(static_cast<int>(choice));
    expect_round_trip(export_ordinary(ord, options));
  }
  expect_round_trip(export_ordinary(chain_system(120)));        // kScan
  expect_round_trip(export_ordinary(independent_system(90)));   // kElementwise
  expect_round_trip(
      export_general(testing::random_general_system(90, 120, rng, 0.6)));  // kGeneralCap
}

TEST(PlanIoTest, LoadedTablesBorrowTheBuffer) {
  const Exported e = export_ordinary(chain_system(50));
  const auto buffer = std::make_shared<const std::string>(e.bytes);
  const LoadedPlan loaded = load_plan(buffer);

  // Zero-copy: the head table points INSIDE the buffer, in borrowed state.
  EXPECT_TRUE(loaded.plan->scan.head.borrowed());
  const char* base = buffer->data();
  const char* head = reinterpret_cast<const char*>(loaded.plan->scan.head.data());
  EXPECT_GE(head, base);
  EXPECT_LT(head, base + buffer->size());
  EXPECT_TRUE(loaded.plan->write_cell.borrowed());

  // The backing keeps the buffer alive even after we drop our reference.
  EXPECT_GE(buffer.use_count(), 2);
}

TEST(PlanIoTest, ScanHeadSurvivesByteExact) {
  const Exported e = export_ordinary(chain_system(40));
  const LoadedPlan loaded = load_bytes(e.bytes);
  EXPECT_EQ(loaded.plan->scan.head.to_vector(), e.plan.scan.head.to_vector());
  EXPECT_EQ(loaded.plan->scan.segments, e.plan.scan.segments);
  EXPECT_EQ(loaded.plan->scan.longest, e.plan.scan.longest);
}

TEST(PlanIoTest, GirExponentsMaterializeExactly) {
  support::SplitMix64 rng(402);
  const Exported e = export_general(testing::random_general_system(120, 60, rng, 0.9));
  ASSERT_EQ(e.plan.engine, PlanEngine::kGeneralCap);
  const LoadedPlan loaded = load_bytes(e.bytes);
  ASSERT_EQ(loaded.plan->gir.term_exp.size(), e.plan.gir.term_exp.size());
  for (std::size_t k = 0; k < e.plan.gir.term_exp.size(); ++k) {
    EXPECT_EQ(loaded.plan->gir.term_exp[k], e.plan.gir.term_exp[k]);
  }
}

// ---------------------------------------------------------------------------
// Adversarial imports.  Every mutation must be rejected with a reason —
// never executed, never a crash.
// ---------------------------------------------------------------------------

void expect_rejected(std::string bytes, const char* why_substring) {
  try {
    (void)load_bytes(std::move(bytes));
    FAIL() << "corrupt plan file was accepted (expected: " << why_substring << ")";
  } catch (const support::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(why_substring), std::string::npos)
        << "actual reason: " << e.what();
  }
}

TEST(PlanIoAdversarialTest, TruncatedFileIsRejected) {
  const Exported e = export_ordinary(chain_system(30));
  // Cut mid-payload: the header is intact, so the whole-file checksum is
  // the gate that notices the missing tail.
  expect_rejected(e.bytes.substr(0, e.bytes.size() / 2), "rejected");
  expect_rejected(e.bytes.substr(0, 100), "truncated");  // shorter than header
  expect_rejected("", "truncated");
}

TEST(PlanIoAdversarialTest, FlippedChecksumIsRejected) {
  const Exported e = export_ordinary(chain_system(30));
  std::string bytes = e.bytes;
  bytes[kTestChecksumOffset] ^= 0x01;
  expect_rejected(std::move(bytes), "checksum mismatch");
}

TEST(PlanIoAdversarialTest, PayloadBitFlipIsRejected) {
  const Exported e = export_ordinary(chain_system(30));
  std::string bytes = e.bytes;
  bytes[bytes.size() - 1] ^= 0x80;
  expect_rejected(std::move(bytes), "checksum mismatch");
}

TEST(PlanIoAdversarialTest, WrongEndianTagIsRejected) {
  const Exported e = export_ordinary(chain_system(30));
  std::string bytes = e.bytes;
  // Byte-swap the tag in place: a big-endian writer would have produced
  // exactly this on a little-endian reader (and vice versa).
  std::swap(bytes[8], bytes[11]);
  std::swap(bytes[9], bytes[10]);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "byte order");
}

TEST(PlanIoAdversarialTest, UnknownVersionIsRejected) {
  const Exported e = export_ordinary(chain_system(30));
  std::string bytes = e.bytes;
  const std::uint32_t version = 99;
  std::memcpy(bytes.data() + 12, &version, 4);  // version follows the tag
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "version");
}

TEST(PlanIoAdversarialTest, RetiredEngineIdIsRejectedByName) {
  const Exported e = export_ordinary(chain_system(30), {.engine = EngineChoice::kJumping});
  ASSERT_EQ(e.plan.engine, PlanEngine::kJumping);
  std::string bytes = e.bytes;
  const std::uint32_t retired = 3;
  std::memcpy(bytes.data() + kTestEngineOffset, &retired, 4);
  // Not resealed: the engine gate runs before the checksum, like the
  // version gate, so the reason names the engine, not the checksum.
  expect_rejected(std::move(bytes), "retired spmd engine");
}

TEST(PlanIoAdversarialTest, OutOfBoundsSectionOffsetIsRejected) {
  const Exported e = export_ordinary(chain_system(30));
  // Section table starts after magic(8) + 4 u32 + 12 u64 + 12 scalars.
  const std::size_t section_table = 8 + 16 + 96 + 12 * 8;
  std::string bytes = e.bytes;
  const std::uint64_t way_out = bytes.size() + 1024;
  std::memcpy(bytes.data() + section_table, &way_out, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "section");
}

TEST(PlanIoAdversarialTest, TamperedScheduleTableIsCaughtByVerifier) {
  // Flip a schedule byte and RE-SEAL the checksum: structural validation
  // passes, so this is exactly the case only verify-on-import can catch.
  PlanOptions options;
  options.engine = EngineChoice::kJumping;
  support::SplitMix64 rng(403);
  const Exported e = export_ordinary(testing::random_ordinary_system(60, 90, rng, 0.8),
                                     options);
  ASSERT_GT(e.plan.jump.dst.size(), 0u);

  // The jump.dst section lives somewhere in the payload; find its offset by
  // matching the table bytes (unique enough for this fixture).
  const char* table = reinterpret_cast<const char*>(e.plan.jump.dst.data());
  const std::size_t table_bytes = e.plan.jump.dst.size() * 4;
  const std::size_t pos = e.bytes.find(std::string(table, table_bytes), kTestHeaderBytes);
  ASSERT_NE(pos, std::string::npos);

  std::string bytes = e.bytes;
  const std::uint32_t bogus = 0x7fffffff;  // trace index far out of range
  std::memcpy(bytes.data() + pos, &bogus, 4);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "rejected");
}

TEST(PlanIoAdversarialTest, TamperedSystemTextIsCaughtByFingerprint) {
  // Swap the embedded system for a different (valid) one: the header
  // fingerprint no longer matches the re-derived content fingerprint.
  const Exported a = export_ordinary(chain_system(30));
  const std::string text_a = to_text(GeneralIrSystem::from_ordinary(chain_system(30)));
  const std::string text_b = to_text(GeneralIrSystem::from_ordinary(chain_system(31)));
  ASSERT_NE(a.bytes.find(text_a), std::string::npos);

  // Only same-length substitution keeps the section table valid; pad by
  // comparing sizes first.
  if (text_a.size() == text_b.size()) {
    std::string bytes = a.bytes;
    bytes.replace(bytes.find(text_a), text_a.size(), text_b);
    reseal_checksum(bytes);
    expect_rejected(std::move(bytes), "fingerprint");
  } else {
    // Deterministic fixture: mutate one digit of the embedded text instead.
    std::string bytes = a.bytes;
    const std::size_t pos = bytes.find(text_a);
    bytes[pos + text_a.find("1")] = '2';
    reseal_checksum(bytes);
    expect_rejected(std::move(bytes), "");
  }
}

TEST(PlanIoAdversarialTest, SplicedIdentityIsRejected) {
  // The splice attack: system B's verified plan file wearing system A's
  // store key and check, checksum resealed.  Every byte-level gate passes
  // (the payload really is B's plan for B's system), so the only defense is
  // re-deriving the identity from the embedded system — a file like this
  // must never be served for A's requests.
  const Exported a = export_ordinary(chain_system(30));
  const Exported b = export_ordinary(chain_system(31));
  ASSERT_NE(a.key, b.key);

  std::string bytes = b.bytes;
  std::memcpy(bytes.data() + kTestStoreKeyOffset, &a.key, 8);
  std::memcpy(bytes.data() + kTestCheckBytesOffset, &a.check.bytes, 8);
  std::memcpy(bytes.data() + kTestCheckHash2Offset, &a.check.hash2, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "does not derive from the embedded system");

  // Splicing only the key (check left as B's) must fail the same gate.
  bytes = b.bytes;
  std::memcpy(bytes.data() + kTestStoreKeyOffset, &a.key, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "store key does not derive");
}

TEST(PlanIoAdversarialTest, TamperedKeyWordIsRejected) {
  // A blocked plan records its block-count option word; flipping it (with a
  // resealed checksum) changes what identity the header claims without
  // changing the recorded key/check, so the re-derivation gate must fire.
  PlanOptions options;
  options.engine = EngineChoice::kBlocked;
  options.blocks = 4;
  support::SplitMix64 rng(404);
  const Exported e = export_ordinary(testing::random_ordinary_system(60, 90, rng, 0.8),
                                     options);
  ASSERT_GE(e.words.count, 1u);

  std::string bytes = e.bytes;
  const std::uint64_t bogus = e.words.words[0] + 1;
  std::memcpy(bytes.data() + kTestKeyWordsOffset, &bogus, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "does not derive from the embedded system");
}

TEST(PlanIoAdversarialTest, SplicedStoreEntryIsNeverServed) {
  // End to end through the store: install the spliced file under A's key and
  // demand get(key_A, check_A) rejects instead of serving B's plan.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("irplan-splice-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  PlanStore store(dir.string());

  const Exported a = export_ordinary(chain_system(30));
  const Exported b = export_ordinary(chain_system(31));
  std::string bytes = b.bytes;
  std::memcpy(bytes.data() + kTestStoreKeyOffset, &a.key, 8);
  std::memcpy(bytes.data() + kTestCheckBytesOffset, &a.check.bytes, 8);
  std::memcpy(bytes.data() + kTestCheckHash2Offset, &a.check.hash2, 8);
  reseal_checksum(bytes);
  { std::ofstream(store.entry_path(a.key), std::ios::binary) << bytes; }

  EXPECT_EQ(store.get(a.key, a.check), nullptr);
  EXPECT_EQ(store.rejects(), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// PlanStore lifecycle.
// ---------------------------------------------------------------------------

class PlanStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("irplan-store-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PlanStoreTest, PutGetRoundTrip) {
  PlanStore store(dir_.string());
  const Exported e = export_ordinary(chain_system(25));

  const std::string path = store.put(e.words, e.plan, e.sys);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(path, store.entry_path(e.key));
  EXPECT_EQ(store.puts(), 1u);

  const auto plan = store.get(e.key, e.check);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->fingerprint, e.plan.fingerprint);
  EXPECT_EQ(store.hits(), 1u);

  // Absent key: a miss, not a reject.
  EXPECT_EQ(store.get(e.key + 1, e.check), nullptr);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.rejects(), 0u);
}

TEST_F(PlanStoreTest, GetAppliesCollisionDoubleCheck) {
  PlanStore store(dir_.string());
  const Exported e = export_ordinary(chain_system(25));
  (void)store.put(e.words, e.plan, e.sys);

  // Same key, different identity (the 64-bit-collision scenario): reject.
  PlanKeyCheck wrong = e.check;
  wrong.hash2 ^= 1;
  EXPECT_EQ(store.get(e.key, wrong), nullptr);
  EXPECT_EQ(store.rejects(), 1u);

  wrong = e.check;
  wrong.bytes += 1;
  EXPECT_EQ(store.get(e.key, wrong), nullptr);
  EXPECT_EQ(store.rejects(), 2u);

  // The true identity still loads.
  EXPECT_NE(store.get(e.key, e.check), nullptr);
}

TEST_F(PlanStoreTest, CorruptEntryIsRejectedNotServed) {
  PlanStore store(dir_.string());
  const Exported e = export_ordinary(chain_system(25));
  const std::string path = store.put(e.words, e.plan, e.sys);

  // Flip one byte in place on disk.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(600);
    char c = 0;
    f.seekg(600);
    f.get(c);
    f.seekp(600);
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_EQ(store.get(e.key, e.check), nullptr);
  EXPECT_EQ(store.rejects(), 1u);
}

TEST_F(PlanStoreTest, RetiredEngineEntryIsRejectedAndRecompiled) {
  PlanStore store(dir_.string());
  const OrdinaryIrSystem sys = chain_system(25);
  const PlanOptions options{.engine = EngineChoice::kJumping};
  const Exported e = export_ordinary(sys, options);
  const std::string path = store.put(e.words, e.plan, e.sys);

  // Patch the engine field on disk to the retired id 3.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t retired = 3;
    f.seekp(static_cast<std::streamoff>(kTestEngineOffset));
    f.write(reinterpret_cast<const char*>(&retired), sizeof retired);
  }
  EXPECT_EQ(store.get(e.key, e.check), nullptr);
  EXPECT_EQ(store.rejects(), 1u);

  // A Solver reading through the store treats the entry as a reject,
  // compiles afresh, and its write-through replaces the entry.
  Solver solver(SolverConfig{.plan_store = &store});
  const auto plan = solver.compile(sys, options);
  EXPECT_EQ(plan->engine, PlanEngine::kJumping);
  EXPECT_EQ(solver.plan_compiles(), 1u);
  EXPECT_EQ(store.rejects(), 2u);
  const auto reloaded = store.get(e.key, e.check);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->engine, PlanEngine::kJumping);
}

TEST_F(PlanStoreTest, ManifestListsHeadersAndSkipsJunk) {
  PlanStore store(dir_.string());
  const Exported a = export_ordinary(chain_system(25));
  const Exported b = export_ordinary(independent_system(30));
  (void)store.put(a.words, a.plan, a.sys);
  (void)store.put(b.words, b.plan, b.sys);

  // Junk that must not appear: a stray file and a truncated .irplan.
  { std::ofstream(dir_ / "README.txt") << "not a plan"; }
  { std::ofstream(dir_ / "plan-zzz.irplan") << "garbage"; }

  const auto entries = store.manifest();
  ASSERT_EQ(entries.size(), 2u);
  std::uint64_t seen_iterations = 0;
  for (const auto& entry : entries) {
    seen_iterations += entry.iterations;
    EXPECT_TRUE(entry.store_key == a.key || entry.store_key == b.key);
    EXPECT_GT(entry.file_bytes, kTestHeaderBytes);
  }
  EXPECT_EQ(seen_iterations, a.plan.iterations + b.plan.iterations);
  EXPECT_EQ(store.rejects(), 1u);  // the truncated .irplan
}

TEST_F(PlanStoreTest, PreloadWarmsACache) {
  PlanStore store(dir_.string());
  const Exported a = export_ordinary(chain_system(25));
  const Exported b = export_ordinary(independent_system(30));
  (void)store.put(a.words, a.plan, a.sys);
  (void)store.put(b.words, b.plan, b.sys);

  PlanCache cache(16);
  EXPECT_EQ(store.preload(cache), 2u);
  EXPECT_EQ(store.preloaded(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // The cache serves them under the exact exported identity.
  EXPECT_NE(cache.find(a.key, a.check), nullptr);
  EXPECT_NE(cache.find(b.key, b.check), nullptr);
}

TEST_F(PlanStoreTest, PlanFileInfoReportsHeaderFacts) {
  PlanStore store(dir_.string());
  const Exported e = export_ordinary(chain_system(25));
  const std::string path = store.put(e.words, e.plan, e.sys);

  const PlanFileInfo info = plan_file_info(path);
  EXPECT_EQ(info.version, kPlanFormatVersion);
  EXPECT_EQ(info.engine, PlanEngine::kScan);
  EXPECT_TRUE(info.chain);
  EXPECT_EQ(info.fingerprint, e.plan.fingerprint);
  EXPECT_EQ(info.store_key, e.key);
  EXPECT_TRUE(info.check == e.check);
  EXPECT_EQ(info.cells, e.plan.cells);
  EXPECT_EQ(info.iterations, e.plan.iterations);
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));
  EXPECT_FALSE(info.sections.empty());
  for (const auto& section : info.sections) {
    EXPECT_EQ(section.offset % 8, 0u);
    EXPECT_LE(section.offset + section.bytes, info.file_bytes);
  }
}

}  // namespace
}  // namespace ir::core
