// The differential harness tested against itself: generators produce valid
// systems on every shape class, a clean sweep across all engines is clean,
// an injected oracle bug is detected and shrinks to a tiny reproducer, the
// parser fuzzer's mutations never escape ContractViolation, and the
// checked-in corpus replays green.
#include "testing/differential.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/serialize.hpp"
#include "testing/generators.hpp"
#include "testing/shrink.hpp"

namespace ir::testing {
namespace {

GeneratorLimits small_limits() {
  GeneratorLimits limits;
  limits.max_iterations = 40;
  return limits;
}

TEST(GeneratorsTest, EveryShapeClassProducesValidSystems) {
  support::SplitMix64 rng(2024);
  for (const auto shape : kAllShapeClasses) {
    for (int trial = 0; trial < 16; ++trial) {
      const auto c = generate_case(shape, rng, small_limits());
      EXPECT_EQ(c.shape, shape);
      EXPECT_NO_THROW(c.sys.validate()) << to_string(shape) << " trial " << trial;
    }
  }
}

TEST(GeneratorsTest, ShapeClassesCoverOrdinaryAndGeneralShapes) {
  support::SplitMix64 rng(2025);
  std::size_t ordinary = 0;
  std::size_t general = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const auto c = generate_case(rng, small_limits());
    (is_ordinary_shape(c.sys) ? ordinary : general) += 1;
  }
  EXPECT_GT(ordinary, 0u);
  EXPECT_GT(general, 0u);
}

TEST(DifferentialTest, CleanSweepAcrossSeedsAndShapes) {
  support::SplitMix64 rng(77);
  parallel::ThreadPool pool(3);
  DifferentialOptions options;
  options.pool = &pool;
  for (std::size_t k = 0; k < 48; ++k) {
    const auto shape = kAllShapeClasses[k % kAllShapeClasses.size()];
    const auto c = generate_case(shape, rng, small_limits());
    const auto report = run_differential(c.sys, options);
    EXPECT_TRUE(report.ok())
        << to_string(shape) << " case " << k << ": " << report.summary();
    EXPECT_GT(report.engines_run, 8u) << "sweep ran suspiciously few engines";
  }
}

TEST(DifferentialTest, InjectedOracleBugIsDetectedByEveryValueRoute) {
  support::SplitMix64 rng(91);
  DifferentialOptions corrupt;
  corrupt.corrupt_oracle = true;
  GeneratedCase c;
  do {
    c = generate_case(rng, small_limits());
  } while (c.sys.iterations() == 0);
  const auto report = run_differential(c.sys, corrupt);
  ASSERT_FALSE(report.ok());
  // Every route that produces values must flag the corruption; only the
  // serializer round-trip leg is value-free.
  EXPECT_GE(report.mismatches.size(), report.engines_run - 1);
}

TEST(DifferentialTest, PooledConcatWitnessRunsAndHasTeeth) {
  // With a pool, the non-commutative sweep also runs jumping on three pool
  // slices per round; a corrupted oracle must be flagged by that leg too.
  support::SplitMix64 rng(93);
  parallel::ThreadPool pool(4);
  DifferentialOptions corrupt;
  corrupt.pool = &pool;
  corrupt.corrupt_oracle = true;
  GeneratedCase c;
  do {
    c = generate_case(ShapeClass::kOrdinaryScattered, rng, small_limits());
  } while (c.sys.iterations() < 3);
  const auto report = run_differential(c.sys, corrupt);
  EXPECT_NE(std::find(report.mismatches.begin(), report.mismatches.end(),
                      "concat-jumping-pooled"),
            report.mismatches.end())
      << report.summary();
}

TEST(DifferentialTest, InjectedBugShrinksToTinyValidReplayableReproducer) {
  support::SplitMix64 rng(92);
  DifferentialOptions corrupt;
  corrupt.corrupt_oracle = true;
  GeneratedCase c;
  do {
    c = generate_case(ShapeClass::kGeneralRandom, rng, small_limits());
  } while (c.sys.iterations() < 5);

  const auto still_fails = [&](const core::GeneralIrSystem& candidate) {
    return !run_differential(candidate, corrupt).ok();
  };
  const auto shrunk = shrink_system(c.sys, still_fails);
  EXPECT_LE(shrunk.sys.iterations(), 10u);
  EXPECT_NO_THROW(shrunk.sys.validate());
  // The minimized system must survive a text round trip and still fail —
  // that is what makes it a corpus-worthy reproducer.
  const auto replayed = core::system_from_text(core::to_text(shrunk.sys));
  EXPECT_TRUE(still_fails(replayed));
}

TEST(ShrinkTest, StructuralPredicateShrinksToTheMinimalWitness) {
  // Predicate: some equation reads the cell it writes (f == g).  The unique
  // minimal witness under equation removal + cell compaction + index
  // lowering is one equation over one cell.
  support::SplitMix64 rng(93);
  core::GeneralIrSystem sys;
  do {
    sys = generate_case(ShapeClass::kGeneralRandom, rng, small_limits()).sys;
  } while ([&] {
    for (std::size_t i = 0; i < sys.iterations(); ++i) {
      if (sys.f[i] == sys.g[i]) return false;
    }
    return true;
  }());

  const auto has_self_read = [](const core::GeneralIrSystem& candidate) {
    for (std::size_t i = 0; i < candidate.iterations(); ++i) {
      if (candidate.f[i] == candidate.g[i]) return true;
    }
    return false;
  };
  const auto shrunk = shrink_system(sys, has_self_read);
  EXPECT_EQ(shrunk.sys.iterations(), 1u);
  EXPECT_EQ(shrunk.sys.cells, 1u);
  EXPECT_EQ(shrunk.sys.f[0], shrunk.sys.g[0]);
  EXPECT_NO_THROW(shrunk.sys.validate());
}

TEST(ShrinkTest, RejectsPassingInput) {
  core::GeneralIrSystem sys{2, {0}, {1}, {1}};
  EXPECT_THROW(
      (void)shrink_system(sys, [](const core::GeneralIrSystem&) { return false; }),
      support::ContractViolation);
}

TEST(MutationTest, MutatedDocumentsNeverEscapeContractViolation) {
  support::SplitMix64 rng(94);
  for (int trial = 0; trial < 200; ++trial) {
    const auto c = generate_case(rng, small_limits());
    const std::string text = core::to_text(c.sys);
    const std::string mutated = mutate_document(text, rng);
    try {
      (void)core::system_from_text(mutated);
    } catch (const support::ContractViolation&) {
      // The accepted failure mode: a diagnostic, never a crash or bad_alloc.
    } catch (const std::exception& e) {
      FAIL() << "parser escape: " << e.what() << "\ndocument:\n" << mutated;
    }
  }
}

TEST(CorpusTest, CheckedInReproducersReplayGreen) {
  // IR_CORPUS_DIR is tests/corpus at configure time.  Every .ir file there is
  // a regression witness: it failed once, the bug was fixed, and the sweep
  // must stay clean on it forever.
  const std::filesystem::path dir(IR_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  parallel::ThreadPool pool(3);
  DifferentialOptions options;
  options.pool = &pool;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ir") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto sys = core::system_from_text(buffer.str());
    const auto report = run_differential(sys, options);
    EXPECT_TRUE(report.ok()) << entry.path() << ": " << report.summary();
    ++replayed;
  }
  EXPECT_GE(replayed, 5u) << "corpus seeds are missing";
}

}  // namespace
}  // namespace ir::testing
