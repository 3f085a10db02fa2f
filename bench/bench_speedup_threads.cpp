// Wall-clock scaling of the threaded solvers on a real shared-memory machine
// (google-benchmark).  The paper only measures the PRAM simulation; these
// benches answer the adoption question its model implies: does the
// O(log n)-round schedule actually pay off on hardware?
//
// Series:
//   BM_OrdinarySequential / BM_OrdinaryParallel(threads) — random ordinary
//     systems across n.
//   BM_LinearSequential / BM_LinearScan / BM_LinearMoebius — kernel-5-shaped
//     chains: direct loop vs classic scan vs the Möbius route.
//
// Machine-readable output: `bench_speedup_threads --metrics=FILE` (custom
// main below) dumps the telemetry registry — rounds, op applications,
// pool.task counts — accumulated over all benchmark iterations, next to
// google-benchmark's own --benchmark_format=json wall-clock report.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "algebra/monoids.hpp"
#include "bench_report.hpp"
#include "core/linear_ir.hpp"
#include "core/plan.hpp"
#include "obs/metrics_export.hpp"
#include "scan/linear_recurrence.hpp"
#include "testing_workloads.hpp"

namespace {

using namespace ir;

struct OrdinaryFixture {
  core::OrdinaryIrSystem sys;
  std::vector<std::uint64_t> init;

  explicit OrdinaryFixture(std::size_t n) {
    support::SplitMix64 rng(n);
    sys = bench::random_ordinary_system(n, n + n / 2, rng, 0.9);
    init = bench::random_initial_u64(n + n / 2, rng);
  }
};

void BM_OrdinarySequential(benchmark::State& state) {
  const OrdinaryFixture fx(static_cast<std::size_t>(state.range(0)));
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ordinary_ir_sequential(op, fx.sys, fx.init));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OrdinarySequential)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_OrdinaryParallel(benchmark::State& state) {
  const OrdinaryFixture fx(static_cast<std::size_t>(state.range(0)));
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  // Plan once outside the timed loop (the plan is a pure function of the
  // index maps); the loop measures execution only — the steady-state cost a
  // caller reusing the schedule actually pays.
  core::PlanOptions plan_options;
  plan_options.engine = core::EngineChoice::kJumping;
  const core::Plan plan = core::compile_plan(fx.sys, plan_options);
  core::ExecOptions exec;
  exec.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::execute_plan(plan, op, fx.init, exec));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OrdinaryParallel)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({1000000, 1})
    ->Args({1000000, 2})
    ->Args({1000000, 4})
    ->Args({1000000, 8});

void BM_OrdinaryBlocked(benchmark::State& state) {
  const OrdinaryFixture fx(static_cast<std::size_t>(state.range(0)));
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  core::PlanOptions plan_options;
  plan_options.engine = core::EngineChoice::kBlocked;
  plan_options.pool = &pool;  // block partition follows the pool size
  const core::Plan plan = core::compile_plan(fx.sys, plan_options);
  core::ExecOptions exec;
  exec.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::execute_plan(plan, op, fx.init, exec));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OrdinaryBlocked)
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({1000000, 2})
    ->Args({1000000, 4});

struct ChainFixture {
  std::vector<double> a, b;

  explicit ChainFixture(std::size_t n) : a(n), b(n) {
    support::SplitMix64 rng(n + 13);
    for (auto& e : a) e = rng.uniform(-0.9, 0.9);
    for (auto& e : b) e = rng.uniform(-1.0, 1.0);
  }
};

void BM_LinearSequential(benchmark::State& state) {
  const ChainFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan::linear_recurrence_sequential(fx.a, fx.b, 0.5));
  }
}
BENCHMARK(BM_LinearSequential)->Arg(100000)->Arg(1000000);

void BM_LinearScan(benchmark::State& state) {
  const ChainFixture fx(static_cast<std::size_t>(state.range(0)));
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan::linear_recurrence_scan(fx.a, fx.b, 0.5, &pool));
  }
}
BENCHMARK(BM_LinearScan)->Args({1000000, 2})->Args({1000000, 4})->Args({1000000, 8});

void BM_LinearMoebius(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ChainFixture fx(n);
  core::LinearIrLoop loop;
  loop.system.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    loop.system.f.push_back(i);
    loop.system.g.push_back(i + 1);
  }
  loop.mul = fx.a;
  loop.add = fx.b;
  std::vector<double> init(n + 1, 0.0);
  init[0] = 0.5;
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  core::OrdinaryIrOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::linear_ir_parallel(loop, init, options));
  }
}
BENCHMARK(BM_LinearMoebius)->Args({1000000, 2})->Args({1000000, 4})->Args({1000000, 8});

// Console reporter that additionally captures (name, real time per iteration)
// for every measurement run, so --report can emit BENCH_threads.json without
// a second pass over google-benchmark's own JSON format.
class CollectReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      collected_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& collected()
      const {
    return collected_;
  }

 private:
  std::vector<std::pair<std::string, double>> collected_;
};

}  // namespace

// Custom main instead of benchmark_main: peel off --metrics=FILE and
// --report=FILE, run the benchmarks, then flush the telemetry registry and
// the BENCH_*.json report for the bench trajectory.
int main(int argc, char** argv) {
  std::string metrics_file;
  std::string report_file;
  std::vector<char*> args;
  for (int a = 0; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--metrics=", 0) == 0) {
      metrics_file = arg.substr(10);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_file = arg.substr(9);
    } else {
      args.push_back(argv[a]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  CollectReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!report_file.empty()) {
    ir::bench::BenchReport report("speedup_threads");
    // google-benchmark already aggregates iterations into one adjusted real
    // time per run; each run is one single-sample variant.
    for (const auto& [name, real_ns] : reporter.collected()) {
      report.add_variant(name, {real_ns});
    }
    report.write(report_file);
    std::fprintf(stderr, "bench report written to %s\n", report_file.c_str());
  }

  if (!metrics_file.empty()) {
    ir::obs::write_metrics_file(metrics_file,
                                {{"bench", ir::obs::json_quote("speedup_threads")}});
    std::fprintf(stderr, "metrics written to %s\n", metrics_file.c_str());
  }
  return 0;
}
