#include "core/linear_ir.hpp"

#include "core/solver.hpp"
#include "obs/telemetry.hpp"
#include "support/contract.hpp"

namespace ir::core {

using algebra::MoebiusCompose;
using algebra::MoebiusMap;

void LinearIrLoop::validate() const {
  system.validate();
  IR_REQUIRE(mul.size() == system.iterations() && add.size() == system.iterations(),
             "coefficient arrays must have one entry per iteration");
}

void SelfLinearIrLoop::validate() const {
  system.validate();
  const std::size_t n = system.iterations();
  IR_REQUIRE(a.size() == n && b.size() == n && c.size() == n && d.size() == n,
             "coefficient arrays must have one entry per iteration");
}

void MoebiusIrLoop::validate() const {
  system.validate();
  IR_REQUIRE(maps.size() == system.iterations(),
             "need exactly one map per iteration");
}

std::vector<double> linear_ir_sequential(const LinearIrLoop& loop, std::vector<double> x) {
  loop.validate();
  IR_REQUIRE(x.size() == loop.system.cells, "initial array must have `cells` entries");
  for (std::size_t i = 0; i < loop.system.iterations(); ++i) {
    x[loop.system.g[i]] = loop.mul[i] * x[loop.system.f[i]] + loop.add[i];
  }
  return x;
}

std::vector<double> self_linear_ir_sequential(const SelfLinearIrLoop& loop,
                                              std::vector<double> x) {
  loop.validate();
  IR_REQUIRE(x.size() == loop.system.cells, "initial array must have `cells` entries");
  for (std::size_t i = 0; i < loop.system.iterations(); ++i) {
    const double xf = x[loop.system.f[i]];
    const double xg = x[loop.system.g[i]];
    x[loop.system.g[i]] = xg * (loop.c[i] * xf + loop.d[i]) + loop.a[i] * xf + loop.b[i];
  }
  return x;
}

std::vector<double> moebius_ir_sequential(const MoebiusIrLoop& loop, std::vector<double> x) {
  loop.validate();
  IR_REQUIRE(x.size() == loop.system.cells, "initial array must have `cells` entries");
  for (std::size_t i = 0; i < loop.system.iterations(); ++i) {
    x[loop.system.g[i]] = loop.maps[i].apply(x[loop.system.f[i]]);
  }
  return x;
}

std::vector<double> moebius_ir_run(const Plan& plan,
                                   const std::vector<MoebiusMap>& iteration_maps,
                                   std::vector<double> x, const ExecOptions& exec) {
  IR_SPAN("moebius.solve");
  IR_REQUIRE(plan.engine == PlanEngine::kJumping || plan.engine == PlanEngine::kBlocked ||
                 plan.engine == PlanEngine::kScan,
             "moebius_ir_run needs an ordinary-engine plan (jumping, blocked or scan)");
  IR_REQUIRE(x.size() == plan.cells, "initial array must have `cells` entries");
  IR_REQUIRE(iteration_maps.size() == plan.iterations,
             "need exactly one map per iteration");
  IR_COUNTER_ADD("moebius.solves", 1);
  IR_COUNTER_ADD("moebius.iterations", plan.iterations);

  // Paper Section 3, steps 1-3: the coefficient maps are the operand table
  // standing in for A[g(i)] (legal because g is injective), and a chain root
  // folds the constant map of the untouched cell it reads in front of its own.
  const MoebiusCompose compose{};
  std::vector<MoebiusMap> traces;
  traces.reserve(plan.iterations);
  for (std::size_t i = 0; i < plan.iterations; ++i) {
    const std::uint32_t root = plan.root_cell[i];
    traces.push_back(root != kNoIndex32
                         ? compose.combine(MoebiusMap::constant(x[root]), iteration_maps[i])
                         : iteration_maps[i]);
  }
  replay_traces(plan, compose, traces, exec);

  for (std::size_t i = 0; i < plan.iterations; ++i) {
    // Every complete trace starts at a constant root, so the composed map is
    // constant; evaluating it anywhere yields the final value.
    IR_INVARIANT(traces[i].is_constant(), "composed Moebius trace must be constant");
    x[plan.write_cell[i]] = traces[i].apply(0.0);
  }
  return x;
}

std::vector<double> moebius_ir_run(const OrdinaryIrSystem& sys,
                                   const std::vector<MoebiusMap>& iteration_maps,
                                   std::vector<double> x, const OrdinaryIrOptions& options) {
  IR_REQUIRE(x.size() == sys.cells, "initial array must have `cells` entries");
  IR_REQUIRE(iteration_maps.size() == sys.iterations(),
             "need exactly one map per iteration");
  PlanOptions plan_options;
  plan_options.pool = options.pool;  // sizing hint for the blocked-vs-jumping choice
  // Content-cached: a Livermore kernel calling this once per timed rep pays
  // the schedule construction only on the first rep.
  const auto plan = shared_solver().compile(sys, plan_options);
  if (plan->engine == PlanEngine::kElementwise) {
    // Recurrence-free: no iteration reads a cell an earlier one wrote, so
    // running the loop as written applies each map once to an initial value.
    IR_SPAN("moebius.solve");
    IR_COUNTER_ADD("moebius.solves", 1);
    IR_COUNTER_ADD("moebius.iterations", sys.iterations());
    for (std::size_t i = 0; i < sys.iterations(); ++i) {
      x[sys.g[i]] = iteration_maps[i].apply(x[sys.f[i]]);
    }
    if (options.stats != nullptr) *options.stats = {0, sys.iterations(), 0};
    return x;
  }
  ExecOptions exec;
  exec.pool = options.pool;
  exec.processor_cap = options.processor_cap;
  exec.ordinary_stats = options.stats;
  return moebius_ir_run(*plan, iteration_maps, std::move(x), exec);
}

std::vector<double> linear_ir_parallel(const LinearIrLoop& loop, std::vector<double> x,
                                       const OrdinaryIrOptions& options) {
  loop.validate();
  std::vector<MoebiusMap> maps(loop.system.iterations());
  for (std::size_t i = 0; i < maps.size(); ++i) {
    maps[i] = MoebiusMap::affine(loop.mul[i], loop.add[i]);
  }
  return moebius_ir_run(loop.system, maps, std::move(x), options);
}

std::vector<double> self_linear_ir_parallel(const SelfLinearIrLoop& loop,
                                            std::vector<double> x,
                                            const OrdinaryIrOptions& options) {
  loop.validate();
  // g injective => X[g(i)] on the right-hand side is still the initial value
  // S[g(i)]; folding it into the coefficients yields the paper's matrices.
  std::vector<MoebiusMap> maps(loop.system.iterations());
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const double s = x[loop.system.g[i]];
    maps[i] = MoebiusMap::affine(s * loop.c[i] + loop.a[i], s * loop.d[i] + loop.b[i]);
  }
  return moebius_ir_run(loop.system, maps, std::move(x), options);
}

std::vector<double> moebius_ir_parallel(const MoebiusIrLoop& loop, std::vector<double> x,
                                        const OrdinaryIrOptions& options) {
  loop.validate();
  return moebius_ir_run(loop.system, loop.maps, std::move(x), options);
}

}  // namespace ir::core
