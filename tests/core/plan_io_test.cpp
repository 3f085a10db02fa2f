// Binary plan format + PlanStore: round-trip of gir-cap plans (loaded plans
// execute bit-identically and borrow their tables straight from the buffer),
// the refusal of every other plan, the adversarial import gauntlet
// (truncation, bit flips, bounds, foreign byte order, a version-2 file, a
// non-gir-cap engine id, tampered tables — in range or not — and tampered
// exponents), and the store's put/get/manifest/preload lifecycle with the
// collision double-check.
#include "core/plan_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
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

/// Header field positions (pinned by the format): the 256-byte header
/// ends with the whole-file checksum; the recorded cache identity and the
/// key words it must derive from sit behind the fingerprint, the section
/// table behind the three CAP scalars.
constexpr std::size_t kTestHeaderBytes = 256;
constexpr std::size_t kTestVersionOffset = 12;
constexpr std::size_t kTestEngineOffset = 16;
constexpr std::size_t kTestStoreKeyOffset = 40;
constexpr std::size_t kTestCheckBytesOffset = 48;
constexpr std::size_t kTestCheckHash2Offset = 56;
constexpr std::size_t kTestKeyEngineOffset = 64;
constexpr std::size_t kTestKeyWordsOffset = 80;
constexpr std::size_t kTestCellsOffset = 112;
constexpr std::size_t kTestSectionTableOffset = 152;
constexpr std::size_t kTestChecksumOffset = 248;
constexpr std::size_t kTestExpLimbsSection = 5;

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

/// Fibonacci-shaped: A[i] := A[i-1] . A[i-2] — h != g, so kAuto routes it
/// to gir-cap.
GeneralIrSystem fib_system(std::size_t n) {
  GeneralIrSystem sys;
  sys.cells = n + 2;
  for (std::size_t i = 2; i < n + 2; ++i) {
    sys.f.push_back(i - 1);
    sys.g.push_back(i);
    sys.h.push_back(i - 2);
  }
  return sys;
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

struct Exported {
  GeneralIrSystem sys;
  Plan plan;
  std::uint64_t key = 0;
  PlanKeyCheck check;
  PlanKeyWords words;
  std::string bytes;
};

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

/// An ordinary system's forced-gir plan, keyed on the ordinary overload.
Exported export_ordinary_as_gir(const OrdinaryIrSystem& ord) {
  const PlanOptions options{.engine = EngineChoice::kGeneralCap};
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

LoadedPlan load_bytes(std::string bytes) {
  return load_plan(std::make_shared<const std::string>(std::move(bytes)));
}

/// Round-trip assertion: header identity survives, and the loaded plan
/// executes bit-identically to the in-memory original.
void expect_round_trip(const Exported& e) {
  ASSERT_EQ(e.plan.engine, PlanEngine::kGeneralCap);
  const LoadedPlan loaded = load_bytes(e.bytes);
  ASSERT_NE(loaded.plan, nullptr);
  EXPECT_EQ(loaded.store_key, e.key);
  EXPECT_TRUE(loaded.check == e.check);
  EXPECT_TRUE(loaded.key_words == e.words);
  EXPECT_EQ(loaded.plan->engine, e.plan.engine);
  EXPECT_EQ(loaded.plan->fingerprint, e.plan.fingerprint);
  EXPECT_EQ(loaded.plan->cells, e.plan.cells);
  EXPECT_EQ(loaded.plan->iterations, e.plan.iterations);
  EXPECT_EQ(loaded.plan->gir.cap_rounds, e.plan.gir.cap_rounds);
  EXPECT_EQ(loaded.plan->gir.live_equations, e.plan.gir.live_equations);
  EXPECT_EQ(content_fingerprint(loaded.system), content_fingerprint(e.sys));

  const AddMonoid<std::uint64_t> op;
  std::vector<std::uint64_t> initial(e.plan.cells);
  for (std::size_t c = 0; c < initial.size(); ++c) initial[c] = 17 * c + 3;
  const auto expect = execute_plan(e.plan, op, initial);
  const auto got = execute_plan(*loaded.plan, op, initial);
  EXPECT_EQ(expect, got);
}

TEST(PlanIoTest, RoundTripsEveryEngine) {
  // The format holds one engine, gir-cap; it is reached three ways.
  support::SplitMix64 rng(401);
  const auto general = testing::random_general_system(90, 120, rng, 0.6);
  {
    SCOPED_TRACE("auto-routed general system");
    expect_round_trip(export_general(general));
  }
  {
    SCOPED_TRACE("forced gir on an ordinary system");
    expect_round_trip(
        export_ordinary_as_gir(testing::random_ordinary_system(180, 260, rng, 0.8)));
  }
  for (const PlanOptions& flags :
       {PlanOptions{.engine = EngineChoice::kGeneralCap, .prune_dead = false},
        PlanOptions{.engine = EngineChoice::kGeneralCap, .coalesce_each_round = false},
        PlanOptions{.engine = EngineChoice::kGeneralCap, .reference_counts = true}}) {
    SCOPED_TRACE(plan_key_words(flags).words[0]);
    expect_round_trip(export_general(general, flags));
  }
}

TEST(PlanIoTest, LoadedTablesBorrowTheBuffer) {
  const Exported e = export_general(fib_system(50));
  const auto buffer = std::make_shared<const std::string>(e.bytes);
  const LoadedPlan loaded = load_plan(buffer);

  // Zero-copy: the term-cell table points INSIDE the buffer, in borrowed
  // state.
  EXPECT_TRUE(loaded.plan->gir.term_cell.borrowed());
  const char* base = buffer->data();
  const char* terms = reinterpret_cast<const char*>(loaded.plan->gir.term_cell.data());
  EXPECT_GE(terms, base);
  EXPECT_LT(terms, base + buffer->size());
  EXPECT_TRUE(loaded.plan->gir.cell.borrowed());
  EXPECT_EQ(loaded.plan->gir.term_cell.to_vector(), e.plan.gir.term_cell.to_vector());

  // The backing keeps the buffer alive even after we drop our reference.
  EXPECT_GE(buffer.use_count(), 2);
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

void expect_refused(const std::function<void()>& action, const char* why_substring) {
  try {
    action();
    FAIL() << "an unstorable plan was accepted (expected: " << why_substring << ")";
  } catch (const support::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(why_substring), std::string::npos)
        << "actual reason: " << e.what();
  }
}

TEST(PlanIoTest, SerializeAndPutRefuseOrdinaryPlans) {
  const OrdinaryIrSystem ord = chain_system(30);
  const GeneralIrSystem sys = GeneralIrSystem::from_ordinary(ord);
  const Plan plan = compile_plan(ord);
  ASSERT_EQ(plan.engine, PlanEngine::kScan);
  ASSERT_TRUE(plan_store_refusal(plan).has_value());
  const PlanKeyWords words = plan_key_words(PlanOptions{});
  expect_refused([&] { (void)serialize_plan(plan, sys, words); }, "gir-cap plans only");

  const auto dir = std::filesystem::temp_directory_path() /
                   ("irplan-refuse-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  PlanStore store(dir.string());
  expect_refused([&] { (void)store.put(words, plan, sys); }, "gir-cap plans only");
  EXPECT_EQ(store.puts(), 0u);
  EXPECT_TRUE(store.manifest().empty());
  std::filesystem::remove_all(dir);

  // A gir-cap plan whose symbolic check would exceed the loader's budget is
  // refused by name too, so the store never writes what its loader rejects.
  Plan huge;
  huge.engine = PlanEngine::kGeneralCap;
  huge.cells = std::size_t{1} << 20;
  huge.iterations = std::size_t{1} << 20;
  const auto refusal = plan_store_refusal(huge);
  ASSERT_TRUE(refusal.has_value());
  EXPECT_NE(refusal->find("too large to verify on load"), std::string::npos) << *refusal;
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
  const Exported e = export_general(fib_system(30));
  // Cut mid-payload: the header is intact, so the whole-file checksum is
  // the gate that notices the missing tail.
  expect_rejected(e.bytes.substr(0, e.bytes.size() / 2), "rejected");
  expect_rejected(e.bytes.substr(0, 100), "truncated");  // shorter than header
  expect_rejected(e.bytes.substr(0, kTestHeaderBytes - 1), "truncated");
  expect_rejected("", "truncated");
}

TEST(PlanIoAdversarialTest, FlippedChecksumIsRejected) {
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  bytes[kTestChecksumOffset] ^= 0x01;
  expect_rejected(std::move(bytes), "checksum mismatch");
}

TEST(PlanIoAdversarialTest, PayloadBitFlipIsRejected) {
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  bytes[bytes.size() - 1] ^= 0x80;
  expect_rejected(std::move(bytes), "checksum mismatch");
}

TEST(PlanIoAdversarialTest, WrongEndianTagIsRejected) {
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  // Byte-swap the tag in place: a big-endian writer would have produced
  // exactly this on a little-endian reader (and vice versa).
  std::swap(bytes[8], bytes[11]);
  std::swap(bytes[9], bytes[10]);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "byte order");
}

TEST(PlanIoAdversarialTest, UnknownVersionIsRejected) {
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  const std::uint32_t version = 99;
  std::memcpy(bytes.data() + kTestVersionOffset, &version, 4);  // follows the tag
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "version");
}

TEST(PlanIoAdversarialTest, VersionTwoHeaderIsRejectedByName) {
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  const std::uint32_t version = 2;
  std::memcpy(bytes.data() + kTestVersionOffset, &version, 4);
  // Not resealed: the version gate runs before the checksum, so the reason
  // names the stale format, not a corrupt file.
  expect_rejected(std::move(bytes), "format version 2 stored ordinary plans");
}

TEST(PlanIoAdversarialTest, VersionThreeHeaderIsRejectedByName) {
  // v3 shares v4's layout, but its header fingerprint and check hash the
  // system text, so a v3 identity never matches a v4 re-derivation.  The
  // gate names the stale format before the checksum is even read.
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  const std::uint32_t version = 3;
  std::memcpy(bytes.data() + kTestVersionOffset, &version, 4);
  expect_rejected(bytes, "v3 fingerprints hash the system text; re-export");
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "v3 fingerprints hash the system text; re-export");
}

TEST(PlanIoAdversarialTest, ReservedCheckBytesMustBeZero) {
  // The check_bytes slot is reserved since v4: an exporter writes 0, and
  // anything else fails the identity re-derivation.
  const Exported e = export_general(fib_system(30));
  EXPECT_EQ(e.check.bytes, 0u);
  std::uint64_t stored = 1;
  std::memcpy(&stored, e.bytes.data() + kTestCheckBytesOffset, 8);
  EXPECT_EQ(stored, 0u);
  std::string bytes = e.bytes;
  const std::uint64_t length = 8 * (2 + 3 * e.sys.iterations());
  std::memcpy(bytes.data() + kTestCheckBytesOffset, &length, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "does not derive from the embedded system");
}

TEST(PlanIoAdversarialTest, RetiredEngineIdIsRejectedByName) {
  // Every engine but gir-cap is retired from the format: jumping (1), the
  // spmd id (3) and the rest are rejected by name, before the checksum.
  const Exported e = export_general(fib_system(30));
  ASSERT_EQ(e.plan.engine, PlanEngine::kGeneralCap);
  for (const std::uint32_t retired : {0u, 1u, 2u, 3u, 5u}) {
    SCOPED_TRACE(retired);
    std::string bytes = e.bytes;
    std::memcpy(bytes.data() + kTestEngineOffset, &retired, 4);
    expect_rejected(std::move(bytes), "v4 holds gir-cap plans only");
  }
}

TEST(PlanIoAdversarialTest, OutOfBoundsSectionOffsetIsRejected) {
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  const std::uint64_t way_out = bytes.size() + 1024;
  std::memcpy(bytes.data() + kTestSectionTableOffset, &way_out, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "section");
}

TEST(PlanIoAdversarialTest, OversizedHeaderIsRejectedBeforeParsing) {
  // A header claiming a system past the loader's symbolic budget is
  // rejected by name before the embedded text is even parsed.
  const Exported e = export_general(fib_system(30));
  std::string bytes = e.bytes;
  const std::uint64_t huge = std::uint64_t{1} << 20;
  std::memcpy(bytes.data() + kTestCellsOffset, &huge, 8);
  std::memcpy(bytes.data() + kTestCellsOffset + 8, &huge, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "too large to verify on load");
}

/// Byte offset in `bytes` of `table`'s payload, found by content match
/// (unique enough for the fixtures below).
template <typename T>
std::size_t table_offset(const std::string& bytes, const PlanTable<T>& table) {
  const char* data = reinterpret_cast<const char*>(table.data());
  return bytes.find(std::string(data, table.size() * sizeof(T)), kTestHeaderBytes);
}

TEST(PlanIoAdversarialTest, TamperedScheduleTableIsCaughtByVerifier) {
  // Push a term cell out of range and RE-SEAL the checksum: structural
  // validation passes, so only verify-on-import can catch it.
  support::SplitMix64 rng(403);
  const Exported e = export_general(testing::random_general_system(60, 90, rng, 0.8));
  ASSERT_GT(e.plan.gir.term_cell.size(), 0u);
  const std::size_t pos = table_offset(e.bytes, e.plan.gir.term_cell);
  ASSERT_NE(pos, std::string::npos);

  std::string bytes = e.bytes;
  const std::uint32_t bogus = 0x7fffffff;  // cell index far out of range
  std::memcpy(bytes.data() + pos, &bogus, 4);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "static verification failed");
}

TEST(PlanIoAdversarialTest, InRangeTermCellTamperIsCaughtBySymbolicCheck) {
  // Move one term to ANOTHER VALID cell and reseal.  Bounds, zero-exponent
  // and distinct-write checks all pass; only the symbolic exponent check
  // sees that the plan no longer computes the loop.
  support::SplitMix64 rng(402);
  const Exported e = export_general(testing::random_general_system(120, 60, rng, 0.9));
  ASSERT_EQ(e.plan.engine, PlanEngine::kGeneralCap);
  const std::size_t pos = table_offset(e.bytes, e.plan.gir.term_cell);
  ASSERT_NE(pos, std::string::npos);

  // Entry 0's first term moves to the lowest cell entry 0 does not read.
  const auto [begin, end] = e.plan.gir.term_span(0);
  std::uint32_t moved = 0;
  auto reads = [&](std::uint32_t cell) {
    for (std::size_t t = begin; t < end; ++t) {
      if (e.plan.gir.term_cell[t] == cell) return true;
    }
    return false;
  };
  while (reads(moved)) ++moved;
  ASSERT_LT(moved, e.plan.cells);

  std::string bytes = e.bytes;
  std::memcpy(bytes.data() + pos + begin * 4, &moved, 4);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "symbolic.exponent-mismatch");
}

TEST(PlanIoAdversarialTest, InRangeExponentTamperIsCaughtBySymbolicCheck) {
  // Add 1 to one exponent limb and reseal: still a canonical, non-zero
  // exponent, so only the symbolic check can tell.
  support::SplitMix64 rng(402);
  const Exported e = export_general(testing::random_general_system(120, 60, rng, 0.9));
  ASSERT_FALSE(e.plan.gir.term_exp.empty());

  std::string bytes = e.bytes;
  std::uint64_t limbs_offset = 0;
  std::memcpy(&limbs_offset, bytes.data() + kTestSectionTableOffset + kTestExpLimbsSection * 16,
              8);
  ASSERT_GT(limbs_offset, kTestHeaderBytes);
  std::uint32_t limb = 0;
  std::memcpy(&limb, bytes.data() + limbs_offset, 4);
  ASSERT_LT(limb, 0xFFFFFFFFu);
  ++limb;
  std::memcpy(bytes.data() + limbs_offset, &limb, 4);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "symbolic.exponent-mismatch");
}

TEST(PlanIoAdversarialTest, TamperedSystemTextIsCaughtByFingerprint) {
  // Swap the embedded system for a different (valid) one: the header
  // fingerprint no longer matches the re-derived content fingerprint.
  const Exported a = export_general(fib_system(30));
  const std::string text_a = to_text(fib_system(30));
  const std::string text_b = to_text(fib_system(31));
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
  const Exported a = export_general(fib_system(30));
  const Exported b = export_general(fib_system(31));
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
  // A forced-gir plan records its GIR-flag option word; flipping it (with a
  // resealed checksum) changes what identity the header claims without
  // changing the recorded key/check, so the re-derivation gate must fire.
  support::SplitMix64 rng(404);
  const Exported e = export_general(testing::random_general_system(60, 90, rng, 0.8),
                                    {.engine = EngineChoice::kGeneralCap});
  ASSERT_EQ(e.words.count, 1u);

  std::string bytes = e.bytes;
  const std::uint64_t bogus = e.words.words[0] ^ 1;
  std::memcpy(bytes.data() + kTestKeyWordsOffset, &bogus, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "does not derive from the embedded system");

  // A requested engine that never compiles a gir-cap plan is rejected by
  // name before any identity is derived.
  bytes = e.bytes;
  const auto jumping = static_cast<std::uint64_t>(EngineChoice::kJumping);
  std::memcpy(bytes.data() + kTestKeyEngineOffset, &jumping, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "never compiles a gir-cap plan");

  // kAuto records four words; a kAuto header carrying one is malformed.
  bytes = e.bytes;
  const auto automatic = static_cast<std::uint64_t>(EngineChoice::kAuto);
  std::memcpy(bytes.data() + kTestKeyEngineOffset, &automatic, 8);
  reseal_checksum(bytes);
  expect_rejected(std::move(bytes), "key-word count");
}

TEST(PlanIoAdversarialTest, SplicedStoreEntryIsNeverServed) {
  // End to end through the store: install the spliced file under A's key and
  // demand get(key_A, check_A) rejects instead of serving B's plan.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("irplan-splice-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  PlanStore store(dir.string());

  const Exported a = export_general(fib_system(30));
  const Exported b = export_general(fib_system(31));
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

  /// Overwrite `bytes.size()` bytes of the file at `path`, from `offset`.
  static void patch(const std::string& path, std::size_t offset, const void* bytes,
                    std::size_t size) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
  }

  std::filesystem::path dir_;
};

TEST_F(PlanStoreTest, PutGetRoundTrip) {
  PlanStore store(dir_.string());
  const Exported e = export_general(fib_system(25));

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
  const Exported e = export_general(fib_system(25));
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
  const Exported e = export_general(fib_system(25));
  const std::string path = store.put(e.words, e.plan, e.sys);
  ASSERT_GT(std::filesystem::file_size(path), 600u);

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
  const GeneralIrSystem sys = fib_system(25);
  const Exported e = export_general(sys);
  const std::string path = store.put(e.words, e.plan, e.sys);

  // Patch the engine field on disk to a retired id (jumping).
  const std::uint32_t retired = 1;
  patch(path, kTestEngineOffset, &retired, sizeof retired);
  EXPECT_EQ(store.get(e.key, e.check), nullptr);
  EXPECT_EQ(store.rejects(), 1u);

  // A Solver reading through the store treats the entry as a reject,
  // compiles afresh, and its write-through replaces the entry.
  Solver solver(SolverConfig{.plan_store = &store});
  const auto plan = solver.compile(sys);
  EXPECT_EQ(plan->engine, PlanEngine::kGeneralCap);
  EXPECT_EQ(solver.plan_compiles(), 1u);
  EXPECT_EQ(store.rejects(), 2u);
  const auto reloaded = store.get(e.key, e.check);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->engine, PlanEngine::kGeneralCap);
}

TEST_F(PlanStoreTest, VersionTwoEntryIsRejectedAndRecompiled) {
  PlanStore store(dir_.string());
  const GeneralIrSystem sys = fib_system(25);
  const Exported e = export_general(sys);
  const std::string path = store.put(e.words, e.plan, e.sys);

  // A version-2 header on disk: counted as a reject, never served.
  const std::uint32_t version = 2;
  patch(path, kTestVersionOffset, &version, sizeof version);
  EXPECT_EQ(store.get(e.key, e.check), nullptr);
  EXPECT_EQ(store.rejects(), 1u);
  PlanCache cache(4);
  EXPECT_EQ(store.preload(cache), 0u);
  EXPECT_EQ(store.rejects(), 2u);

  // A Solver reading through the store recompiles it and rewrites it in the
  // current format.
  Solver solver(SolverConfig{.plan_store = &store});
  (void)solver.compile(sys);
  EXPECT_EQ(solver.plan_compiles(), 1u);
  EXPECT_EQ(store.rejects(), 3u);
  EXPECT_EQ(plan_file_info(path).version, kPlanFormatVersion);
}

TEST_F(PlanStoreTest, VersionThreeEntryIsRejectedAndRecompiled) {
  PlanStore store(dir_.string());
  const GeneralIrSystem sys = fib_system(25);
  const Exported e = export_general(sys);
  const std::string path = store.put(e.words, e.plan, e.sys);

  // A version-3 header on disk (text fingerprints): a reject, never served.
  const std::uint32_t version = 3;
  patch(path, kTestVersionOffset, &version, sizeof version);
  EXPECT_EQ(store.get(e.key, e.check), nullptr);
  EXPECT_EQ(store.rejects(), 1u);
  PlanCache cache(4);
  EXPECT_EQ(store.preload(cache), 0u);
  EXPECT_EQ(store.rejects(), 2u);

  // A Solver reading through the store recompiles it and rewrites it as v4.
  Solver solver(SolverConfig{.plan_store = &store});
  (void)solver.compile(sys);
  EXPECT_EQ(solver.plan_compiles(), 1u);
  EXPECT_EQ(store.rejects(), 3u);
  EXPECT_EQ(plan_file_info(path).version, 4u);
}

TEST_F(PlanStoreTest, ManifestListsHeadersAndSkipsJunk) {
  PlanStore store(dir_.string());
  const Exported a = export_general(fib_system(25));
  const Exported b = export_ordinary_as_gir(chain_system(30));
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
  const Exported a = export_general(fib_system(25));
  const Exported b = export_ordinary_as_gir(chain_system(30));
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
  const Exported e = export_general(fib_system(25));
  const std::string path = store.put(e.words, e.plan, e.sys);

  const PlanFileInfo info = plan_file_info(path);
  EXPECT_EQ(info.version, kPlanFormatVersion);
  EXPECT_EQ(info.engine, PlanEngine::kGeneralCap);
  EXPECT_EQ(info.requested, static_cast<std::uint64_t>(EngineChoice::kAuto));
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
