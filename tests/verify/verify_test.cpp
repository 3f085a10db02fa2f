// The static plan verifier tested from both sides: every plan the compiler
// actually produces (corpus witnesses, generator sweep, every forced route)
// must certify clean, and hand-corrupted schedules must be rejected with the
// right violation code and (round, move, cell) coordinates.  The operand-swap
// test is the reason the symbolic family exists: a commutative differential
// run provably cannot see the bug the free-monoid replay flags.
#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/analyze.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "core/serialize.hpp"
#include "testing/differential.hpp"
#include "testing/generators.hpp"

namespace ir::verify {
namespace {

using core::EngineChoice;
using core::GeneralIrSystem;
using core::OrdinaryIrSystem;
using core::Plan;
using core::PlanOptions;

/// The forced-engine legs that fit `sys`, mirroring irtool lint: auto and
/// GIR always apply, the ordinary engines need h = g and injective writes,
/// elementwise needs a dependence-free system.
std::vector<std::pair<EngineChoice, const char*>> applicable_routes(
    const GeneralIrSystem& sys) {
  std::vector<std::pair<EngineChoice, const char*>> routes = {
      {EngineChoice::kAuto, "auto"}, {EngineChoice::kGeneralCap, "gir"}};
  const core::SystemReport report = core::analyze(sys);
  if (sys.h == sys.g && report.repeated_writes == 0) {
    routes.emplace_back(EngineChoice::kJumping, "jumping");
    routes.emplace_back(EngineChoice::kBlocked, "blocked");
  }
  if (report.dependences == 0) {
    routes.emplace_back(EngineChoice::kElementwise, "elementwise");
  }
  return routes;
}

void expect_certified_on_every_route(const GeneralIrSystem& sys,
                                     const std::string& context) {
  for (const auto& [engine, label] : applicable_routes(sys)) {
    PlanOptions options;
    options.engine = engine;
    options.blocks = 3;
    const Plan plan = core::compile_plan(sys, options);
    const VerifyReport report = verify_plan(plan, sys);
    EXPECT_TRUE(report.ok())
        << context << " route " << label << ": " << report.summary();
    EXPECT_GE(report.checks_run, 3u) << context << " route " << label;
  }
}

/// Find a violation by code; ADD_FAILURE and return nullptr if absent.
const Violation* find_violation(const VerifyReport& report, const std::string& code) {
  for (const auto& v : report.violations) {
    if (v.code == code) return &v;
  }
  ADD_FAILURE() << "expected violation '" << code << "', got: " << report.summary();
  return nullptr;
}

TEST(VerifyCorpusTest, EveryCorpusWitnessCertifiesOnEveryRoute) {
  const std::filesystem::path dir(IR_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t witnesses = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ir") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    expect_certified_on_every_route(core::system_from_text(buffer.str()),
                                    entry.path().filename().string());
    ++witnesses;
  }
  EXPECT_GE(witnesses, 5u) << "corpus went missing";
}

TEST(VerifySweepTest, GeneratedPlansCertifyAcrossShapesAndRoutes) {
  support::SplitMix64 rng(4242);
  testing::GeneratorLimits limits;
  limits.max_iterations = 32;
  for (std::size_t k = 0; k < 24; ++k) {
    const auto shape = testing::kAllShapeClasses[k % testing::kAllShapeClasses.size()];
    const auto c = testing::generate_case(shape, rng, limits);
    expect_certified_on_every_route(
        c.sys, std::string(testing::to_string(shape)) + " case " + std::to_string(k));
  }
}

TEST(VerifySweepTest, DifferentialVerifyLegsStayCleanAndRun) {
  support::SplitMix64 rng(515);
  testing::GeneratorLimits limits;
  limits.max_iterations = 24;
  testing::DifferentialOptions options;
  options.verify_plans = true;
  for (std::size_t k = 0; k < 8; ++k) {
    const auto c = testing::generate_case(
        testing::kAllShapeClasses[k % testing::kAllShapeClasses.size()], rng, limits);
    const auto report = testing::run_differential(c.sys, options);
    EXPECT_TRUE(report.ok()) << "case " << k << ": " << report.summary();
  }
}

/// A[i+1] := A[i] ⊙ A[i+1]: one unbroken chain, the deepest jumping
/// schedule a given n can produce.
OrdinaryIrSystem chain_system(std::size_t n) {
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  sys.validate();
  return sys;
}

TEST(VerifyRejectionTest, SameRoundWriteWriteConflictRejectedWithCoordinates) {
  const OrdinaryIrSystem sys = chain_system(12);
  PlanOptions options;
  options.engine = EngineChoice::kJumping;
  Plan plan = core::compile_plan(sys, options);
  ASSERT_GE(plan.jump.rounds(), 2u);

  // Pick the first round with at least two moves and alias the second move's
  // destination onto the first — a textbook CRCW write the CREW schedule
  // must never contain.
  std::size_t round = kNoCoord;
  for (std::size_t r = 0; r < plan.jump.rounds(); ++r) {
    const auto [begin, end] = plan.jump.round_span(r);
    if (end - begin >= 2) {
      round = r;
      plan.jump.dst[begin + 1] = plan.jump.dst[begin];
      break;
    }
  }
  ASSERT_NE(round, kNoCoord) << "chain plan has no wide round";

  const VerifyReport report = verify_plan(plan, sys);
  ASSERT_FALSE(report.ok());
  const Violation* v = find_violation(report, "jump.write-write");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->family, CheckFamily::kHazard);
  EXPECT_EQ(v->round, round);
  EXPECT_NE(v->move, kNoCoord);
  const auto [begin, end] = plan.jump.round_span(round);
  EXPECT_EQ(v->cell, static_cast<std::size_t>(plan.jump.dst[begin]));
  // The human message carries the coordinates too — that is the contract the
  // acceptance criterion cares about.
  EXPECT_NE(v->message.find("round"), std::string::npos) << v->message;
}

TEST(VerifyRejectionTest, OperandOrderSwapInvisibleToCommutativeDiffButCaughtSymbolically) {
  // Dependence-free system with f != h everywhere: the elementwise schedule
  // stores both read cells per slot, so swapping them is exactly the operand
  // reordering a buggy schedule builder could commit.
  GeneralIrSystem sys;
  sys.cells = 8;
  sys.f = {4, 5, 6};
  sys.g = {0, 1, 2};
  sys.h = {5, 6, 7};
  sys.validate();

  PlanOptions options;
  options.engine = EngineChoice::kElementwise;
  Plan plan = core::compile_plan(sys, options);
  ASSERT_EQ(plan.engine, core::PlanEngine::kElementwise);
  ASSERT_FALSE(plan.elementwise.f.empty());
  ASSERT_NE(plan.elementwise.f[0], plan.elementwise.h[0]);
  std::swap(plan.elementwise.f[0], plan.elementwise.h[0]);

  // A commutative differential run cannot see the swap: the corrupted plan
  // still produces the sequential answer under ModMul.
  const algebra::ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) init[c] = 2 * c + 3;
  EXPECT_EQ(core::execute_plan(plan, op, init),
            core::general_ir_sequential(op, sys, init));

  // The free-monoid replay is not commutative, so it is a hard mismatch.
  const VerifyReport report = verify_plan(plan, sys);
  ASSERT_FALSE(report.ok());
  const Violation* v = find_violation(report, "symbolic.order-mismatch");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->family, CheckFamily::kSymbolic);
  EXPECT_EQ(v->cell, 0u);  // the swapped slot writes cell g[0] = 0
}

TEST(VerifyRejectionTest, FingerprintTamperingFlagged) {
  const OrdinaryIrSystem sys = chain_system(6);
  Plan wrong_fp = core::compile_plan(sys);
  wrong_fp.fingerprint ^= 1;
  const VerifyReport fp_report = verify_plan(wrong_fp, sys);
  EXPECT_FALSE(fp_report.ok());
  EXPECT_NE(find_violation(fp_report, "plan.fingerprint-mismatch"), nullptr);
}

TEST(VerifyRejectionTest, ElementwisePlanOnARecurrenceFlagged) {
  // An elementwise plan, verified against the same system with one read
  // redirected at an earlier write: the plan would read a stale value.
  const GeneralIrSystem streaming{8, {6, 7, 5}, {0, 1, 2}, {6, 6, 4}};
  const Plan plan = core::compile_plan(streaming);
  ASSERT_EQ(plan.engine, core::PlanEngine::kElementwise);
  ASSERT_TRUE(verify_plan(plan, streaming).ok());

  GeneralIrSystem recurrence = streaming;
  recurrence.f[2] = recurrence.g[0];  // iteration 2 now reads iteration 0's write
  const VerifyReport report = verify_plan(plan, recurrence);
  EXPECT_FALSE(report.ok());
  const Violation* v = find_violation(report, "elementwise.has-dependences");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("1 dependences"), std::string::npos) << v->message;
}

TEST(VerifyRejectionTest, OutOfBoundsScheduleIndexStopsDeeperChecks) {
  const OrdinaryIrSystem sys = chain_system(6);
  PlanOptions options;
  options.engine = EngineChoice::kJumping;
  Plan plan = core::compile_plan(sys, options);
  ASSERT_FALSE(plan.jump.src.empty());
  plan.jump.src[0] = 0x7fffffffu;  // far outside m cells

  const VerifyReport report = verify_plan(plan, sys);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(find_violation(report, "jump.src-bounds"), nullptr);
  // Unsound tables gate the deeper families: no hazard/symbolic pass may
  // index through a table that just failed its bounds check.
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.family, CheckFamily::kPrecondition) << v.code;
  }
}

TEST(VerifyRejectionTest, BlockedFixupWriteWriteRejectedWithBlockCoordinates) {
  const OrdinaryIrSystem sys = chain_system(12);
  PlanOptions options;
  options.engine = EngineChoice::kBlocked;
  options.blocks = 3;
  Plan plan = core::compile_plan(sys, options);

  // An unbroken chain makes every equation of blocks 1..2 partial, so each
  // later block has a multi-entry fix-up slice to corrupt.
  std::size_t block = kNoCoord;
  for (std::size_t b = 0; b < plan.blocked.blocks.size(); ++b) {
    const auto [begin, end] = plan.blocked.fix_span(b);
    if (end - begin >= 2) {
      block = b;
      plan.blocked.fix_dst[begin + 1] = plan.blocked.fix_dst[begin];
      break;
    }
  }
  ASSERT_NE(block, kNoCoord) << "blocked plan has no multi-entry fix-up slice";

  const VerifyReport report = verify_plan(plan, sys);
  ASSERT_FALSE(report.ok());
  const Violation* v = find_violation(report, "blocked.fixup-write-write");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->family, CheckFamily::kHazard);
  EXPECT_EQ(v->round, block);
  EXPECT_NE(v->move, kNoCoord);
}

TEST(VerifyReportTest, JsonCarriesVerdictEngineAndCodes) {
  const OrdinaryIrSystem sys = chain_system(8);
  PlanOptions options;
  options.engine = EngineChoice::kJumping;
  Plan plan = core::compile_plan(sys, options);

  const std::string clean = verify_plan(plan, sys).to_json();
  EXPECT_NE(clean.find("\"ok\": true"), std::string::npos) << clean;
  EXPECT_NE(clean.find("\"engine\": \"jumping\""), std::string::npos) << clean;
  EXPECT_NE(clean.find("\"violations\": []"), std::string::npos) << clean;

  plan.jump.dst[1] = plan.jump.dst[0];  // round 0 always has >= 2 moves here
  const std::string bad = verify_plan(plan, sys).to_json();
  EXPECT_NE(bad.find("\"ok\": false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("\"code\": \"jump.write-write\""), std::string::npos) << bad;
  EXPECT_NE(bad.find("\"family\": \"hazard\""), std::string::npos) << bad;
}

TEST(VerifyOptionsTest, SymbolicBudgetSkipsButStillCertifiesHazards) {
  const OrdinaryIrSystem sys = chain_system(32);
  Plan plan = core::compile_plan(sys);
  VerifyOptions options;
  options.max_symbolic_terms = 4;  // far below the chain's term volume
  const VerifyReport report = verify_plan(plan, sys, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.symbolic_skipped);
  EXPECT_FALSE(report.symbolic_skip_reason.empty());
}

TEST(VerifyOptionsTest, ViolationCapTruncatesReport) {
  const OrdinaryIrSystem sys = chain_system(12);
  PlanOptions plan_options;
  plan_options.engine = EngineChoice::kJumping;
  Plan plan = core::compile_plan(sys, plan_options);
  // Alias every destination in the widest round: many write-write pairs.
  const auto [begin, end] = plan.jump.round_span(0);
  for (std::size_t k = begin + 1; k < end; ++k) plan.jump.dst[k] = plan.jump.dst[begin];

  VerifyOptions options;
  options.max_violations = 2;
  const VerifyReport report = verify_plan(plan, sys, options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_LE(report.violations.size(), 2u);
}

}  // namespace
}  // namespace ir::verify
