#include "core/inspector.hpp"

#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/plan.hpp"

namespace ir::core {
namespace {

TEST(SystemRecorderTest, RecordsInOrder) {
  SystemRecorder recorder(8);
  recorder.record(0, 1, 2);
  recorder.record_self(3, 4);
  EXPECT_EQ(recorder.equations(), 2u);
  const auto sys = std::move(recorder).finish();
  EXPECT_EQ(sys.f, (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(sys.g, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(sys.h, (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(sys.cells, 8u);
}

TEST(SystemRecorderTest, RangeCheckedAtRecordSite) {
  SystemRecorder recorder(4);
  EXPECT_THROW(recorder.record(4, 0, 0), support::ContractViolation);
  EXPECT_THROW(recorder.record(0, 4, 0), support::ContractViolation);
  EXPECT_THROW(recorder.record(0, 0, 4), support::ContractViolation);
  EXPECT_EQ(recorder.equations(), 0u);
}

TEST(SystemRecorderTest, InspectorExecutorHistogram) {
  // The canonical data-dependent scatter: hist[key[k]] += w[k].  The
  // inspector records the keys; the executor (GIR) must equal the loop.
  const std::vector<std::size_t> keys{3, 1, 3, 3, 0, 1};
  const std::vector<double> weights{1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  const std::size_t bins = 4;

  // Direct loop.
  std::vector<double> expect(bins, 0.5);
  for (std::size_t k = 0; k < keys.size(); ++k) expect[keys[k]] += weights[k];

  // Inspector: weights live in per-equation virtual cells.
  SystemRecorder recorder(bins + keys.size());
  std::vector<double> init(bins + keys.size(), 0.5);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    init[bins + k] = weights[k];
    recorder.record_self(bins + k, keys[k]);
  }
  const auto sys = std::move(recorder).finish();
  const Plan plan =
      compile_plan(sys, {.engine = EngineChoice::kGeneralCap, .prune_dead = false});
  const auto out = execute_plan(plan, algebra::AddMonoid<double>{}, init);
  for (std::size_t b = 0; b < bins; ++b) EXPECT_DOUBLE_EQ(out[b], expect[b]) << b;
}

}  // namespace
}  // namespace ir::core
