// Cross-module integration sweeps: every solver route (host sequential, host
// parallel, PRAM-simulated, thread-pooled, GIR-via-CAP, GIR-via-DP) must
// agree on the same random systems — the strongest end-to-end statement of
// the paper's correctness claims this library can execute.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/ordinary_ir_pram.hpp"
#include "core/plan.hpp"
#include "testing/random_systems.hpp"

namespace ir {
namespace {

using algebra::AddMonoid;
using algebra::ModMulMonoid;
using core::EngineChoice;
using core::GeneralIrSystem;
using core::PlanOptions;

/// One solve through a freshly compiled plan; `pool` runs both the compile
/// (CAP rounds) and the execute.
template <typename Op, typename System>
std::vector<typename Op::Value> planned(const Op& op, const System& sys,
                                        const std::vector<typename Op::Value>& init,
                                        PlanOptions options,
                                        core::ExecOptions exec = {}) {
  options.pool = exec.pool;
  return core::execute_plan(core::compile_plan(sys, options), op, init, exec);
}

struct IntegrationParam {
  std::size_t iterations;
  std::size_t cells;
  double rewire;
  std::uint64_t seed;
};

class AllRoutesAgreeTest : public ::testing::TestWithParam<IntegrationParam> {};

TEST_P(AllRoutesAgreeTest, OrdinaryRoutes) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed);
  const auto sys = testing::random_ordinary_system(p.iterations, p.cells, rng, p.rewire);
  const auto init = testing::random_initial_u64(p.cells, rng);
  const auto op = AddMonoid<std::uint64_t>{};

  const auto sequential = ordinary_ir_sequential(op, sys, init);

  // Host parallel (no pool).
  const PlanOptions jumping{.engine = EngineChoice::kJumping};
  EXPECT_EQ(planned(op, sys, init, jumping), sequential);

  // Host parallel, pooled and capped.
  parallel::ThreadPool pool(3);
  EXPECT_EQ(planned(op, sys, init, jumping, {.pool = &pool, .processor_cap = 2}),
            sequential);

  // PRAM-simulated, audited CREW.
  pram::Machine machine(5, pram::AccessMode::kCrew);
  EXPECT_EQ(ordinary_ir_pram_parallel(op, sys, init, machine), sequential);

  // PRAM original loop.
  pram::Machine baseline(1);
  EXPECT_EQ(ordinary_ir_pram_original_loop(op, sys, init, baseline), sequential);

  // GIR embedding (h := g) through CAP.
  const auto gir = GeneralIrSystem::from_ordinary(sys);
  const PlanOptions cap{.engine = EngineChoice::kGeneralCap, .prune_dead = false};
  EXPECT_EQ(planned(op, gir, init, cap), sequential);
}

TEST_P(AllRoutesAgreeTest, GeneralRoutes) {
  const auto p = GetParam();
  support::SplitMix64 rng(p.seed ^ 0xf00d);
  const auto sys = testing::random_general_system(p.iterations, p.cells, rng, p.rewire);
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(p.cells);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);

  const auto sequential = general_ir_sequential(op, sys, init);
  PlanOptions cap{.engine = EngineChoice::kGeneralCap, .prune_dead = false};
  EXPECT_EQ(planned(op, sys, init, cap), sequential);

  PlanOptions dp = cap;
  dp.reference_counts = true;
  EXPECT_EQ(planned(op, sys, init, dp), sequential);

  parallel::ThreadPool pool(3);
  cap.coalesce_each_round = false;
  EXPECT_EQ(planned(op, sys, init, cap, {.pool = &pool}), sequential);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllRoutesAgreeTest,
    ::testing::Values(IntegrationParam{1, 1, 0.0, 11}, IntegrationParam{3, 5, 0.5, 12},
                      IntegrationParam{40, 40, 1.0, 13},
                      IntegrationParam{150, 200, 0.7, 14},
                      IntegrationParam{400, 600, 0.85, 15},
                      IntegrationParam{777, 1000, 0.6, 16}));

}  // namespace
}  // namespace ir
