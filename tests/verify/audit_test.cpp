// The whole-store audit pinned against the three verdicts that matter: a
// clean entry passes with its identity and cost report, a corrupted entry is
// rejected with the loader's diagnostic, and a spliced entry (one plan's
// payload wearing another plan's cache identity) is rejected by the deeper
// identity re-derivation — exactly the gauntlet PlanStore::get applies, but
// with every verdict explicit and counted.
#include "verify/audit.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "support/contract.hpp"

namespace ir::verify {
namespace {

/// Header field positions (pinned by the format, same constants the plan_io
/// adversarial tests use): checksum at the header's end, the recorded cache
/// identity behind the fingerprint.
constexpr std::size_t kTestChecksumOffset = 248;
constexpr std::size_t kTestStoreKeyOffset = 40;
constexpr std::size_t kTestCheckBytesOffset = 48;
constexpr std::size_t kTestCheckHash2Offset = 56;

/// Re-seal a deliberately tampered buffer so the structural checksum passes
/// and the deeper gates (identity derivation, verifier) get exercised.
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

/// Fibonacci-shaped general system: kAuto routes it to gir-cap, the one
/// engine a store holds.
core::GeneralIrSystem fib_system(std::size_t n) {
  core::GeneralIrSystem sys;
  sys.cells = n + 2;
  for (std::size_t i = 2; i < n + 2; ++i) {
    sys.f.push_back(i - 1);
    sys.g.push_back(i);
    sys.h.push_back(i - 2);
  }
  return sys;
}

struct Exported {
  core::GeneralIrSystem sys;
  core::Plan plan;
  std::uint64_t key = 0;
  core::PlanKeyWords words;
  std::string bytes;
};

Exported export_fib(std::size_t n) {
  Exported out;
  out.sys = fib_system(n);
  const core::PlanOptions options;
  out.plan = core::compile_plan(out.sys, options);
  const core::PlanKey identity = core::plan_key(out.sys, options);
  out.key = identity.key;
  out.words = identity.words;
  out.bytes = core::serialize_plan(out.plan, out.sys, identity.words);
  return out;
}

class AuditStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ir-audit-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write_entry(const std::string& name, const std::string& bytes) const {
    std::ofstream((dir_ / name).string(), std::ios::binary) << bytes;
  }

  std::filesystem::path dir_;
};

TEST_F(AuditStoreTest, CountsOnePassAndTwoRejects) {
  // One valid entry, one bitflip-corrupted entry, one spliced entry.
  const Exported good = export_fib(12);
  write_entry("a-valid.irplan", good.bytes);

  std::string corrupt = export_fib(9).bytes;
  ASSERT_GT(corrupt.size(), 600u);
  corrupt[600] ^= 0x40;  // flip a table byte, leave the checksum stale
  write_entry("b-corrupt.irplan", corrupt);

  const Exported donor = export_fib(11);
  std::string spliced = donor.bytes;
  std::memcpy(spliced.data() + kTestStoreKeyOffset,
              good.bytes.data() + kTestStoreKeyOffset, 8);
  std::memcpy(spliced.data() + kTestCheckBytesOffset,
              good.bytes.data() + kTestCheckBytesOffset, 8);
  std::memcpy(spliced.data() + kTestCheckHash2Offset,
              good.bytes.data() + kTestCheckHash2Offset, 8);
  reseal_checksum(spliced);
  write_entry("c-spliced.irplan", spliced);

  const AuditReport report = audit_store(dir_.string());
  EXPECT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.passed, 1u);
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_FALSE(report.ok());

  // Entries are sorted by filename, so the verdicts line up by prefix.
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].file, "a-valid.irplan");
  EXPECT_TRUE(report.entries[0].ok);
  EXPECT_EQ(report.entries[0].store_key, good.key);
  EXPECT_EQ(report.entries[0].fingerprint, good.plan.fingerprint);
  EXPECT_GT(report.entries[0].cost.work, 0u);  // costed, not just verified

  EXPECT_EQ(report.entries[1].file, "b-corrupt.irplan");
  EXPECT_FALSE(report.entries[1].ok);
  EXPECT_NE(report.entries[1].reason.find("checksum"), std::string::npos)
      << report.entries[1].reason;

  EXPECT_EQ(report.entries[2].file, "c-spliced.irplan");
  EXPECT_FALSE(report.entries[2].ok);
  EXPECT_NE(report.entries[2].reason.find("derive"), std::string::npos)
      << report.entries[2].reason;

  // The manifest counts surface in both renderings.
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("audited 3 entries: 1 passed, 2 rejected"),
            std::string::npos)
      << summary;
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"passed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rejected\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"cost\": {"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":"), std::string::npos);
}

TEST_F(AuditStoreTest, CleanStoreAuditsOk) {
  core::PlanStore store(dir_.string());
  const Exported a = export_fib(16);
  const Exported b = export_fib(20);
  store.put(a.words, a.plan, a.sys);
  store.put(b.words, b.plan, b.sys);

  const AuditReport report = audit_store(dir_.string());
  EXPECT_EQ(report.passed, 2u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_TRUE(report.ok());
  for (const AuditEntry& entry : report.entries) {
    EXPECT_TRUE(entry.ok) << entry.file << ": " << entry.reason;
    EXPECT_GT(entry.cost.steps, 0u) << entry.file;
  }
}

TEST_F(AuditStoreTest, EmptyDirectoryAuditsOkAndNonPlansAreIgnored) {
  write_entry("notes.txt", "not a plan");
  const AuditReport report = audit_store(dir_.string());
  EXPECT_EQ(report.entries.size(), 0u);
  EXPECT_TRUE(report.ok());
  EXPECT_NE(report.to_json().find("\"audited\": 0"), std::string::npos);
}

TEST_F(AuditStoreTest, MissingDirectoryThrows) {
  EXPECT_THROW(audit_store((dir_ / "nope").string()),
               support::ContractViolation);
}

TEST_F(AuditStoreTest, CostOptionsReachEveryEntry) {
  const Exported good = export_fib(12);
  write_entry("plan.irplan", good.bytes);
  CostOptions options;
  options.banks = 64;
  options.mode = BankMode::kCrcw;
  const AuditReport report = audit_store(dir_.string(), options);
  ASSERT_EQ(report.passed, 1u);
  EXPECT_EQ(report.entries[0].cost.banks, 64u);
  EXPECT_EQ(report.entries[0].cost.mode, BankMode::kCrcw);
}

}  // namespace
}  // namespace ir::verify
