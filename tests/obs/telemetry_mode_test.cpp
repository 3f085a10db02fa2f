// Build-flag gating: the IR_* macros must be live when IR_TELEMETRY is ON
// and expand to side-effect-free no-ops when it is OFF.  This file compiles
// (and its solver smoke test must pass) in BOTH configurations — the
// telemetry-OFF ctest run in tools/verify.sh is what exercises the other
// branch of each #if below.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/ordinary_ir.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace ir;

TEST(TelemetryMode, CounterMacroRespectsBuildFlag) {
  const std::uint64_t before =
      obs::registry().snapshot().counter("test.mode.counter_probe");
  IR_COUNTER_ADD("test.mode.counter_probe", 5);
  const std::uint64_t after =
      obs::registry().snapshot().counter("test.mode.counter_probe");
#if IR_TELEMETRY_ENABLED
  EXPECT_EQ(after - before, 5u);
#else
  EXPECT_EQ(after, 0u);  // macro was a no-op; metric never even registered
#endif
}

TEST(TelemetryMode, SpanMacroRespectsBuildFlag) {
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  { IR_SPAN("test.mode.span_probe"); }
  obs::tracer().set_enabled(false);
  bool found = false;
  for (const auto& track : obs::tracer().drain()) {
    for (const auto& event : track.events) {
      if (std::string(event.name) == "test.mode.span_probe") found = true;
    }
  }
#if IR_TELEMETRY_ENABLED
  EXPECT_TRUE(found);
#else
  EXPECT_FALSE(found);
#endif
}

TEST(TelemetryMode, MacroArgumentsAreNotEvaluatedWhenOff) {
  int evaluations = 0;
  const auto bump = [&evaluations] { return static_cast<std::uint64_t>(++evaluations); };
  IR_COUNTER_ADD("test.mode.eval_probe", bump());
  IR_GAUGE_MAX("test.mode.eval_probe_g", bump());
  IR_HISTOGRAM("test.mode.eval_probe_h", bump());
#if IR_TELEMETRY_ENABLED
  EXPECT_EQ(evaluations, 3);
#else
  EXPECT_EQ(evaluations, 0);
#endif
}

// The disabled build must still link the obs library and solve correctly:
// a solver run straight through the instrumented hot path.
TEST(TelemetryMode, InstrumentedSolverRunsInEitherMode) {
  core::OrdinaryIrSystem sys;
  sys.cells = 9;
  for (std::size_t i = 0; i < 8; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  std::vector<std::uint64_t> init(sys.cells, 1);
  init[0] = 3;
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  core::OrdinaryIrStats stats;
  const core::Plan plan = core::compile_plan(sys, {.engine = core::EngineChoice::kJumping});
  const auto out = core::execute_plan(plan, op, init, {.ordinary_stats = &stats});
  EXPECT_EQ(out, core::ordinary_ir_sequential(op, sys, init));
  EXPECT_GT(stats.rounds, 0u);  // OrdinaryIrStats works regardless of the flag
}

}  // namespace
