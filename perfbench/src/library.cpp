// Library workloads: engine_1m (ordinary plan execute on a pool) and
// loop23_1m (the paper's Section-3 Livermore-23 fragment through the Möbius
// route).  Both run in this process; the timed phase calls the public entry
// point back to back on one value set and checks every output.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "algebra/monoids.hpp"
#include "common.hpp"
#include "core/linear_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "layers.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "verify/cost.hpp"

namespace perfbench {

namespace core = ir::core;

double plan_table_bytes(const core::Plan& plan) {
  std::size_t bytes = 0;
  const auto add = [&bytes](const auto& table) {
    bytes += table.size() * sizeof(table[0]);
  };
  add(plan.write_cell);
  add(plan.root_cell);
  add(plan.jump.dst);
  add(plan.jump.src);
  add(plan.jump.round_begin);
  add(plan.blocked.blocks);
  add(plan.blocked.local_pred);
  add(plan.blocked.fix_dst);
  add(plan.blocked.fix_src);
  add(plan.blocked.fix_begin);
  add(plan.scan.head);
  add(plan.elementwise.cell);
  add(plan.elementwise.f);
  add(plan.elementwise.h);
  add(plan.gir.cell);
  add(plan.gir.term_begin);
  add(plan.gir.term_cell);
  for (const auto& exp : plan.gir.term_exp) bytes += exp.limbs().size() * 4 + sizeof(exp);
  return static_cast<double>(bytes);
}

EngineCounts engine_counts(const core::OrdinaryIrStats& ordinary,
                           const core::BlockedIrStats& blocked) {
  // Exactly one of the two is filled, by the plan's engine.
  if (blocked.op_applications != 0) {
    return {static_cast<double>(blocked.op_applications),
            static_cast<double>(blocked.resolve_rounds)};
  }
  return {static_cast<double>(ordinary.op_applications),
          static_cast<double>(ordinary.rounds)};
}

void CpuWindow::add(double wall, double process_cpu, double thread_cpu) {
  wall_s += wall;
  process_cpu_s += process_cpu;
  thread_cpu_s += thread_cpu;
}

void CpuWindow::report(RunResult& result, std::size_t threads) const {
  const double capacity = wall_s * static_cast<double>(std::max<std::size_t>(threads, 1));
  result.add("parallel.cpu_util", capacity > 0.0 ? process_cpu_s / capacity : 0.0, "ratio");
  result.add("parallel.caller_wait_ratio",
             wall_s > 0.0 ? std::max(0.0, 1.0 - thread_cpu_s / wall_s) : 0.0, "ratio");
}

void add_trace_overhead(RunResult& result, const std::vector<double>& untraced_ms,
                        const std::vector<double>& traced_ms) {
  const double traced = median(traced_ms);
  result.add("trace.latency_ms_p50", traced, "ms");
  result.add("trace.overhead_ms", traced - median(untraced_ms), "ms");
}

void add_latency_metrics(RunResult& result, const WorkloadSpec& spec,
                         const std::vector<double>& latency_ms, double setup_s,
                         double goodput_rps, double loop_ms, double peak_rss_mb) {
  const double p50 = median(latency_ms);
  result.add("latency_ms_p50", p50, "ms");
  result.add("latency_ms_tail", quantile(latency_ms, spec.tail_q), "ms");
  result.add("goodput_rps", goodput_rps, "req/s");
  result.add("speedup_vs_loop", p50 > 0.0 ? loop_ms / p50 : 0.0, "ratio");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb, "MB");
}

double goodput_within(const std::vector<double>& latency_ms, double limit_ms) {
  double busy_s = 0.0;
  std::size_t within = 0;
  for (const double ms : latency_ms) {
    busy_s += ms / 1e3;
    if (ms <= limit_ms) ++within;
  }
  return busy_s > 0.0 ? static_cast<double>(within) / busy_s : 0.0;
}

namespace {

/// Plan compiles per run: one before the timed phase and the rest spread
/// through it (SetupSchedule); setup_s is their median.
constexpr std::size_t kSetupReps = 7;

std::size_t pool_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Random ordinary system: injective g, and `rewire` of the reads redirected
/// at an earlier write (the chain-depth knob).
core::OrdinaryIrSystem random_ordinary(std::size_t n, std::size_t cells,
                                       ir::support::SplitMix64& rng, double rewire) {
  core::OrdinaryIrSystem sys;
  sys.cells = cells;
  sys.g = ir::support::random_injection(n, cells, rng);
  sys.f.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.f[i] = (i > 0 && rng.chance(rewire)) ? sys.g[rng.below(i)] : rng.below(cells);
  }
  return sys;
}

/// Split the timed phase: untraced for all of it, or (trace mode) untraced
/// for the first half and traced for the second, so the traced run also
/// measures its own overhead.
template <typename Body>
void timed_phases(const Options& options, Body&& body) {
  if (!options.trace) {
    body(options.seconds, false);
    return;
  }
  body(options.seconds / 2.0, false);
  set_tracing(true);  // stays on: the probes after the timed phase are traced too
  body(options.seconds / 2.0, true);
}

/// Repeats the setup step at even intervals through the timed phase, so the
/// setup_s median sees the same machine state as the latencies instead of
/// the few seconds before them.  The caller moves its deadline out by what
/// poll() returns, so the solves keep their full share of the phase.
class SetupSchedule {
 public:
  template <typename Step>
  SetupSchedule(double seconds, Step&& step)
      : interval_s_(seconds / static_cast<double>(kSetupReps)),
        next_s_(now_s() + interval_s_),
        step_(std::forward<Step>(step)) {}

  /// Run the step if it is due; returns the seconds it took, else 0.
  double poll() {
    if (done_ + 1 >= kSetupReps || now_s() < next_s_) return 0.0;
    const double t0 = now_s();
    step_();
    const double took = now_s() - t0;
    ++done_;
    next_s_ += interval_s_ + took;
    return took;
  }

 private:
  double interval_s_;
  double next_s_;
  std::function<void()> step_;
  std::size_t done_ = 0;
};

void add_samples_line(RunResult& result, const WorkloadSpec& spec, std::size_t solves) {
  char line[160];
  std::snprintf(line, sizeof(line), "samples %s: %zu solves, tail = p%.0f", spec.name, solves,
                spec.tail_q * 100.0);
  result.report.push_back(line);
}

}  // namespace

RunResult run_engine_1m(const Options& options, const WorkloadSpec& spec) {
  using Value = std::uint64_t;
  const std::size_t n = options.quick ? 20'000 : 1'000'000;
  const std::size_t cells = n + n / 2;
  ir::support::SplitMix64 rng(0x5eed0000ull + options.seed);
  const core::OrdinaryIrSystem sys = random_ordinary(n, cells, rng, 0.9);
  std::vector<Value> init(cells);
  for (auto& v : init) v = 1 + rng.below(999);
  const ir::algebra::AddMonoid<Value> op;

  const std::vector<Value> oracle = core::ordinary_ir_sequential(op, sys, init);
  std::vector<double> loop_ms;
  auto time_loop = [&] {
    std::vector<Value> in = init;
    const double t0 = now_s();
    (void)core::ordinary_ir_sequential(op, sys, std::move(in));
    loop_ms.push_back((now_s() - t0) * 1e3);
  };

  ir::parallel::ThreadPool pool(pool_threads());
  core::PlanOptions plan_options;
  plan_options.pool = &pool;

  // Setup: plan compile, once here and again through the timed phase; the
  // plan is rebuilt in place, so only one is ever held.
  std::unique_ptr<core::Plan> plan;
  std::vector<double> compile_s;
  auto compile = [&] {
    plan.reset();
    const double t0 = now_s();
    plan = std::make_unique<core::Plan>(core::compile_plan(sys, plan_options));
    compile_s.push_back(now_s() - t0);
  };
  compile();

  RunResult result;
  core::ExecOptions exec;
  exec.pool = &pool;
  auto solve_checked = [&](double* ms, CpuWindow* cpu) {
    std::vector<Value> in = init;
    const double c0 = process_cpu_s(), t0c = thread_cpu_s(), t0 = now_s();
    std::vector<Value> out;
    {
      Span span("core.execute_plan", "core");
      out = core::execute_plan(*plan, op, std::move(in), exec);
    }
    const double wall = now_s() - t0;
    if (cpu != nullptr) cpu->add(wall, process_cpu_s() - c0, thread_cpu_s() - t0c);
    if (ms != nullptr) *ms = wall * 1e3;
    ++result.attempted;
    if (out != oracle) {
      ++result.failed;
      result.correct = false;
    }
  };
  for (int w = 0; w < 2; ++w) solve_checked(nullptr, nullptr);  // warm-up, not timed

  // The yardstick loop runs between timed solves (after every other one), so
  // loop.seq_ms and the latencies see the same machine state.
  std::vector<double> untraced_ms, traced_ms;
  CpuWindow cpu;
  std::size_t iteration = 0;
  SetupSchedule setup(options.seconds, compile);
  timed_phases(options, [&](double seconds, bool traced) {
    double deadline = now_s() + seconds;
    std::vector<double>& sink = traced ? traced_ms : untraced_ms;
    while (now_s() < deadline) {
      double ms = 0.0;
      solve_checked(&ms, traced ? &cpu : nullptr);
      sink.push_back(ms);
      if (++iteration % 2 == 0) time_loop();
      deadline += setup.poll();
    }
  });

  add_samples_line(result, spec, untraced_ms.size() + traced_ms.size());
  if (!options.trace) {
    add_latency_metrics(result, spec, untraced_ms, median(compile_s),
                        goodput_within(untraced_ms, spec.limit_ms), median(loop_ms),
                        self_peak_rss_mb());
    return result;
  }

  // Per-layer probes (traced).
  const double execute_ms = median(span_ms("core.execute_plan"));
  core::OrdinaryIrStats ordinary;
  core::BlockedIrStats blocked;
  {
    core::ExecOptions counted = exec;
    counted.ordinary_stats = &ordinary;
    counted.blocked_stats = &blocked;
    (void)core::execute_plan(*plan, op, init, counted);
  }
  const EngineCounts counts = engine_counts(ordinary, blocked);
  ir::verify::CostReport cost;
  {
    Span span("verify.cost_plan", "verify");
    cost = ir::verify::cost_plan(*plan);
  }
  std::vector<double> one_thread_ms;
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<Value> in = init;
    const double t0 = now_s();
    Span span("core.execute_plan[1t]", "core");
    (void)core::execute_plan(*plan, op, std::move(in), core::ExecOptions{});
    one_thread_ms.push_back((now_s() - t0) * 1e3);
  }
  core::Solver solver;
  double solver_compile_us = 0.0;
  {
    const double t0 = now_s();
    Span span("core.Solver::compile[miss]", "core");
    (void)solver.compile(sys, plan_options);
    solver_compile_us = (now_s() - t0) * 1e6;
  }
  const std::vector<double> lookup_s = time_reps(3, [&] {
    Span span("core.Solver::compile[hit]", "core");
    (void)solver.compile(sys, plan_options);
  });

  const double table_bytes = plan_table_bytes(*plan);
  const double moved_bytes = table_bytes + 3.0 * static_cast<double>(cells * sizeof(Value));
  result.add("engine.execute_ms", execute_ms, "ms");
  result.add("engine.ops", counts.ops, "count");
  result.add("engine.rounds", counts.rounds, "count");
  result.add("engine.predicted_work", static_cast<double>(cost.work), "count");
  result.add("engine.predicted_steps", static_cast<double>(cost.steps), "count");
  result.add("engine.ns_per_op", counts.ops > 0 ? execute_ms * 1e6 / counts.ops : 0.0, "ns");
  result.add("engine.gbps_computed", moved_bytes / (execute_ms * 1e-3) / 1e9, "GB/s");
  result.add("engine.execute_1t_ms", median(one_thread_ms), "ms");
  cpu.report(result, pool.size());
  result.add("loop.seq_ms", median(loop_ms), "ms");
  result.add("plan.compile_ms", median(compile_s) * 1e3, "ms");
  result.add("plan.table_mb", table_bytes / 1e6, "MB");
  result.add("plan.lookup_us", median(lookup_s) * 1e6, "us");
  result.add("plan.compile_us", solver_compile_us, "us");
  result.add("engine.execute_us", execute_ms * 1e3, "us");
  result.add("fail_ratio",
             result.attempted > 0 ? static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted)
                                  : 0.0,
             "ratio");
  add_trace_overhead(result, untraced_ms, traced_ms);
  return result;
}

namespace {

struct Loop23 {
  core::SelfLinearIrLoop loop;
  std::vector<double> x;
};

/// Livermore loop 23's fragment, X[k,j] := X[k,j] + 0.175·(Y[k] + X[k-1,j]·Z[k,j]),
/// as `columns` independent column chains of `rows` cells (column-major),
/// in the sequential loop order (column outer, row inner).
Loop23 make_loop23(std::size_t rows, std::size_t columns, std::uint64_t seed) {
  ir::support::SplitMix64 rng(0x23230000ull + seed);
  const double dk = 0.175;
  Loop23 out;
  core::SelfLinearIrLoop& loop = out.loop;
  loop.system.cells = rows * columns;
  std::vector<double> y(rows);
  for (auto& v : y) v = rng.uniform01();
  const std::size_t n = (rows - 1) * columns;
  loop.system.f.reserve(n);
  loop.system.g.reserve(n);
  for (auto* coeff : {&loop.a, &loop.b, &loop.c, &loop.d}) coeff->reserve(n);
  for (std::size_t j = 0; j < columns; ++j) {
    for (std::size_t k = 1; k < rows; ++k) {
      loop.system.f.push_back(j * rows + k - 1);
      loop.system.g.push_back(j * rows + k);
      loop.a.push_back(dk * rng.uniform01());  // dk·Z[k,j]
      loop.b.push_back(dk * y[k]);             // dk·Y[k]
      loop.c.push_back(0.0);
      loop.d.push_back(1.0);
    }
  }
  out.x.resize(loop.system.cells);
  for (auto& v : out.x) v = 0.5 + rng.uniform01();
  return out;
}

/// Largest relative error of `got` against the (strictly positive) oracle.
double max_rel_err(const std::vector<double>& got, const std::vector<double>& oracle) {
  if (got.size() != oracle.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double err = std::fabs(got[i] - oracle[i]) / std::fabs(oracle[i]);
    if (!(err <= worst)) worst = err;  // NaN propagates as a failure
  }
  return worst;
}

}  // namespace

RunResult run_loop23_1m(const Options& options, const WorkloadSpec& spec) {
  const std::size_t rows = options.quick ? 4'001 : 200'001;
  const std::size_t columns = 5;
  const Loop23 input = make_loop23(rows, columns, options.seed);
  const core::SelfLinearIrLoop& loop = input.loop;

  const std::vector<double> oracle = core::self_linear_ir_sequential(loop, input.x);
  std::vector<double> loop_ms;
  auto time_loop = [&] {
    std::vector<double> in = input.x;
    const double t0 = now_s();
    (void)core::self_linear_ir_sequential(loop, std::move(in));
    loop_ms.push_back((now_s() - t0) * 1e3);
  };

  ir::parallel::ThreadPool pool(pool_threads());
  // The plan self_linear_ir_parallel compiles (through the shared solver):
  // forced jumping, no pool hint.
  core::PlanOptions plan_options;
  plan_options.engine = core::EngineChoice::kJumping;
  // Setup: what the first self_linear_ir_parallel call pays, a cache-miss
  // Solver::compile on the shared solver; once here and again through the
  // timed phase.  The cache is emptied first, so only one plan is ever held,
  // and the compile refills it, so the solves still hit.
  core::Solver& shared = core::shared_solver();
  std::vector<double> compile_s;
  double table_bytes = 0.0;
  auto compile = [&] {
    shared.plan_cache().clear();
    const double t0 = now_s();
    const std::shared_ptr<const core::Plan> plan = shared.compile(loop.system, plan_options);
    compile_s.push_back(now_s() - t0);
    table_bytes = plan_table_bytes(*plan);
  };
  compile();

  RunResult result;
  core::OrdinaryIrOptions solve_options;
  solve_options.pool = &pool;
  double worst_err = 0.0;
  auto solve_checked = [&](double* ms) {
    std::vector<double> in = input.x;
    const double t0 = now_s();
    std::vector<double> out;
    {
      Span span("core.self_linear_ir_parallel", "core/linear_ir");
      out = core::self_linear_ir_parallel(loop, std::move(in), solve_options);
    }
    if (ms != nullptr) *ms = (now_s() - t0) * 1e3;
    ++result.attempted;
    const double err = max_rel_err(out, oracle);
    worst_err = std::max(worst_err, std::isfinite(err) ? err : 1.0);
    if (!(err <= spec.rel_tol)) {
      ++result.failed;
      result.correct = false;
    }
  };
  solve_checked(nullptr);  // warm-up, not timed

  const std::uint64_t compiles0 = shared.plan_compiles();
  const std::uint64_t hits0 = shared.plan_cache().hits();
  const std::uint64_t misses0 = shared.plan_cache().misses();
  std::vector<double> untraced_ms, traced_ms;
  SetupSchedule setup(options.seconds, compile);
  timed_phases(options, [&](double seconds, bool traced) {
    double deadline = now_s() + seconds;
    std::vector<double>& sink = traced ? traced_ms : untraced_ms;
    while (now_s() < deadline) {
      double ms = 0.0;
      solve_checked(&ms);
      sink.push_back(ms);
      time_loop();  // the yardstick, between timed solves
      deadline += setup.poll();
    }
  });
  // The setup compiles inside the window are misses by construction: left out.
  const double setup_misses = static_cast<double>(compile_s.size() - 1);
  const double compiles =
      static_cast<double>(shared.plan_compiles() - compiles0) - setup_misses;
  const double hits = static_cast<double>(shared.plan_cache().hits() - hits0);
  const double lookups =
      hits + static_cast<double>(shared.plan_cache().misses() - misses0) - setup_misses;

  char line[160];
  std::snprintf(line, sizeof(line), "oracle loop23_1m: linear.max_rel_err=%.3g (tolerance %.0e)",
                worst_err, spec.rel_tol);
  result.report.push_back(line);
  add_samples_line(result, spec, untraced_ms.size() + traced_ms.size());
  if (!options.trace) {
    add_latency_metrics(result, spec, untraced_ms, median(compile_s),
                        goodput_within(untraced_ms, spec.limit_ms), median(loop_ms),
                        self_peak_rss_mb());
    return result;
  }

  // linear layer: the public entry point, counted and single-threaded.
  core::OrdinaryIrStats linear_stats;
  {
    core::OrdinaryIrOptions counted = solve_options;
    counted.stats = &linear_stats;
    (void)core::self_linear_ir_parallel(loop, input.x, counted);
  }
  std::vector<double> linear_1t_ms;
  for (std::size_t r = 0; r < 2; ++r) {
    std::vector<double> in = input.x;
    const double t0 = now_s();
    Span span("core.self_linear_ir_parallel[1t]", "core/linear_ir");
    (void)core::self_linear_ir_parallel(loop, std::move(in), core::OrdinaryIrOptions{});
    linear_1t_ms.push_back((now_s() - t0) * 1e3);
  }

  // core engine beneath it: the cached jumping plan replayed over the
  // Lemma-2 coefficient maps (built exactly as self_linear_ir_parallel does).
  const std::vector<double> lookup_s = time_reps(3, [&] {
    Span span("core.Solver::compile[hit]", "core");
    (void)shared.compile(loop.system, plan_options);
  });
  const std::shared_ptr<const core::Plan> plan = shared.compile(loop.system, plan_options);
  std::vector<ir::algebra::MoebiusMap> maps(loop.system.iterations());
  {
    Span span("algebra.MoebiusMap::affine", "algebra");
    for (std::size_t i = 0; i < maps.size(); ++i) {
      const double s = input.x[loop.system.g[i]];
      maps[i] = ir::algebra::MoebiusMap::affine(s * loop.c[i] + loop.a[i],
                                                s * loop.d[i] + loop.b[i]);
    }
  }
  core::ExecOptions exec;
  exec.pool = &pool;
  CpuWindow cpu;
  std::vector<double> engine_ms;
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<double> in = input.x;
    const double c0 = process_cpu_s(), t0c = thread_cpu_s(), t0 = now_s();
    {
      Span span("core.moebius_ir_run", "core");
      (void)core::moebius_ir_run(*plan, maps, std::move(in), exec);
    }
    const double wall = now_s() - t0;
    cpu.add(wall, process_cpu_s() - c0, thread_cpu_s() - t0c);
    engine_ms.push_back(wall * 1e3);
  }
  std::vector<double> engine_1t_ms;
  for (std::size_t r = 0; r < 2; ++r) {
    std::vector<double> in = input.x;
    const double t0 = now_s();
    Span span("core.moebius_ir_run[1t]", "core");
    (void)core::moebius_ir_run(*plan, maps, std::move(in), core::ExecOptions{});
    engine_1t_ms.push_back((now_s() - t0) * 1e3);
  }
  core::OrdinaryIrStats engine_stats;
  {
    core::ExecOptions counted = exec;
    counted.ordinary_stats = &engine_stats;
    (void)core::moebius_ir_run(*plan, maps, input.x, counted);
  }
  ir::verify::CostReport cost;
  {
    Span span("verify.cost_plan", "verify");
    cost = ir::verify::cost_plan(*plan);
  }

  const double solve_ms = median(span_ms("core.self_linear_ir_parallel"));
  const double execute_ms = median(engine_ms);
  const double ops = static_cast<double>(engine_stats.op_applications);
  const double moved_bytes =
      table_bytes + static_cast<double>(maps.size() * sizeof(ir::algebra::MoebiusMap)) +
      2.0 * static_cast<double>(input.x.size() * sizeof(double));
  result.add("engine.execute_ms", execute_ms, "ms");
  result.add("engine.ops", ops, "count");
  result.add("engine.rounds", static_cast<double>(engine_stats.rounds), "count");
  result.add("engine.predicted_work", static_cast<double>(cost.work), "count");
  result.add("engine.predicted_steps", static_cast<double>(cost.steps), "count");
  result.add("engine.ns_per_op", ops > 0 ? execute_ms * 1e6 / ops : 0.0, "ns");
  result.add("engine.gbps_computed", moved_bytes / (execute_ms * 1e-3) / 1e9, "GB/s");
  result.add("engine.execute_1t_ms", median(engine_1t_ms), "ms");
  cpu.report(result, pool.size());
  const double linear_ops = static_cast<double>(linear_stats.op_applications);
  result.add("linear.solve_ms", solve_ms, "ms");
  result.add("linear.solve_1t_ms", median(linear_1t_ms), "ms");
  result.add("linear.rounds", static_cast<double>(linear_stats.rounds), "count");
  result.add("linear.ops", linear_ops, "count");
  result.add("linear.ns_per_op", linear_ops > 0 ? solve_ms * 1e6 / linear_ops : 0.0, "ns");
  result.add("linear.max_rel_err", worst_err, "ratio");
  result.add("loop.seq_ms", median(loop_ms), "ms");
  result.add("plan.compile_ms", median(compile_s) * 1e3, "ms");
  result.add("plan.table_mb", table_bytes / 1e6, "MB");
  result.add("plan.lookup_us", median(lookup_s) * 1e6, "us");
  result.add("plan.compile_us", median(compile_s) * 1e6, "us");
  result.add("engine.execute_us", execute_ms * 1e3, "us");
  result.add("plan.compiles", compiles, "count");
  result.add("plan_cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  result.add("plan_cache.lookups", lookups, "count");
  result.add("fail_ratio",
             result.attempted > 0 ? static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted)
                                  : 0.0,
             "ratio");
  add_trace_overhead(result, untraced_ms, traced_ms);
  return result;
}

}  // namespace perfbench
