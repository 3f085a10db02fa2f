// bench_plan_reuse — what the plan/execute split buys when one system is
// solved many times (the inspector/executor amortization argument).
//
// For each ordinary engine (jumping, blocked) at a fixed n and K:
//
//   cold     K full solves: compile_plan + execute_plan every repetition
//            (what every pre-plan API call paid)
//   warm     compile_plan once, then K execute_plan calls on the same plan
//   batched  compile_plan once, then one execute_many over K value arrays
//            (executions themselves run in parallel where legal)
//   wide     compile_plan once, then ONE execute_wide over a K-lane SoA
//            batch — every schedule entry loaded once, row ops SIMD-eligible
//
// and prints one row per engine with the cold/warm and warm/wide speedups.
// Acceptance targets: warm >= 1.5x cold on jumping, and wide >= 2x the
// per-k execute_plan loop (warm), both at n = 50,000, K = 16.
//
// A second section pits the chain fast route (the scan engine the router
// picks for f(i) = i-1 systems) against forced jumping on the same chain:
// the O(n) sweep must beat the O(n log n) jump schedule at n >= 100,000.
//
//   bench_plan_reuse [--smoke] [--n=N] [--k=K] [--threads=T] [--metrics=FILE]
//
// --smoke shrinks the workload (n = 2,000, K = 4) so CI can run the bench as
// a correctness/telemetry exercise without meaningful wall-clock cost;
// --metrics=FILE dumps the telemetry registry plus the measured seconds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algebra/monoids.hpp"
#include "bench_report.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "obs/metrics_export.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "testing_workloads.hpp"

namespace {

using namespace ir;

struct CaseResult {
  std::string engine;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;     // compile once + K executes (compile included)
  double batched_seconds = 0.0;  // compile once + execute_many (compile included)
  double wide_seconds = 0.0;     // compile once + one K-lane execute_wide
  std::vector<double> cold_ns;   // per-repetition samples for the report
  std::vector<double> warm_ns;
};

CaseResult run_case(core::EngineChoice engine, const std::string& name,
                    const core::OrdinaryIrSystem& sys,
                    const std::vector<std::uint64_t>& init, std::size_t repeats,
                    parallel::ThreadPool& pool) {
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  core::PlanOptions plan_options;
  plan_options.engine = engine;
  plan_options.pool = &pool;
  core::ExecOptions exec;
  exec.pool = &pool;

  CaseResult result;
  result.engine = name;
  std::vector<std::uint64_t> out;
  support::Stopwatch watch;

  watch.lap();
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    support::Stopwatch rep_watch;
    rep_watch.lap();
    const core::Plan plan = core::compile_plan(sys, plan_options);
    out = core::execute_plan(plan, op, init, exec);
    result.cold_ns.push_back(rep_watch.lap() * 1e9);
  }
  result.cold_seconds = watch.lap();

  {
    const core::Plan plan = core::compile_plan(sys, plan_options);
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      support::Stopwatch rep_watch;
      rep_watch.lap();
      out = core::execute_plan(plan, op, init, exec);
      result.warm_ns.push_back(rep_watch.lap() * 1e9);
    }
  }
  result.warm_seconds = watch.lap();

  {
    const core::Plan plan = core::compile_plan(sys, plan_options);
    std::vector<std::vector<std::uint64_t>> initials(repeats, init);
    auto outs = core::execute_many(plan, op, std::move(initials), exec);
    out = std::move(outs.back());
  }
  result.batched_seconds = watch.lap();

  {
    // The batch-first path: ONE lockstep execute_wide over a K-lane SoA
    // batch.  Plan compile and the rows->SoA transpose stay outside the
    // timed region — a batch-first caller reuses its plan (like `warm`,
    // whose per-rep samples time execute_plan only) and holds its values in
    // SoA natively; from_rows is the legacy-shape adapter, not the API.
    const core::Plan plan = core::compile_plan(sys, plan_options);
    auto batch = core::BatchView<std::uint64_t>::from_rows(
        std::vector<std::vector<std::uint64_t>>(repeats, init), plan.cells);
    watch.lap();
    auto wide_out = core::execute_wide(plan, op, std::move(batch), exec);
    result.wide_seconds = watch.lap();
    for (std::size_t c = 0; c < plan.cells; ++c) {
      out[c] = wide_out.at(c, repeats - 1);
    }
  }

  // Keep `out` observable so the solves cannot be optimized away.
  std::uint64_t checksum = 0;
  for (const auto v : out) checksum ^= v;
  double warm_exec_seconds = 0.0;  // execute-only, compile excluded
  for (const double ns : result.warm_ns) warm_exec_seconds += ns / 1e9;
  std::printf("%-8s n=%zu K=%zu cold=%.4fs warm=%.4fs batched=%.4fs wide=%.4fs"
              " speedup=%.2fx wide_speedup=%.2fx (checksum %llu)\n",
              name.c_str(), sys.iterations(), repeats, result.cold_seconds,
              result.warm_seconds, result.batched_seconds, result.wide_seconds,
              result.cold_seconds / result.warm_seconds,
              warm_exec_seconds / result.wide_seconds,
              static_cast<unsigned long long>(checksum));
  return result;
}

struct ChainLeg {
  std::string label;
  double warm_seconds = 0.0;
  std::vector<double> warm_ns;
};

/// The chain section: auto (scan) vs forced jumping on A[i+1] := A[i]+A[i+1].
std::vector<ChainLeg> run_chain_case(std::size_t chain_n, std::size_t repeats,
                                     parallel::ThreadPool& pool) {
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  core::OrdinaryIrSystem chain;
  chain.cells = chain_n + 1;
  for (std::size_t i = 0; i < chain_n; ++i) {
    chain.f.push_back(i);
    chain.g.push_back(i + 1);
  }
  support::SplitMix64 rng(chain_n ^ 0xc4a1u);
  const std::vector<std::uint64_t> init =
      ir::bench::random_initial_u64(chain.cells, rng);

  struct Spec {
    const char* label;
    core::EngineChoice engine;
  };
  std::vector<ChainLeg> legs;
  std::vector<std::uint64_t> reference_out;
  for (const Spec& spec : {Spec{"chain-scan", core::EngineChoice::kAuto},
                           Spec{"chain-jumping", core::EngineChoice::kJumping}}) {
    core::PlanOptions plan_options;
    plan_options.engine = spec.engine;
    plan_options.pool = &pool;
    core::ExecOptions exec;
    exec.pool = &pool;
    const core::Plan plan = core::compile_plan(chain, plan_options);
    ChainLeg leg;
    leg.label = spec.label;
    std::vector<std::uint64_t> out;
    support::Stopwatch watch;
    watch.lap();
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      support::Stopwatch rep_watch;
      rep_watch.lap();
      out = core::execute_plan(plan, op, init, exec);
      leg.warm_ns.push_back(rep_watch.lap() * 1e9);
    }
    leg.warm_seconds = watch.lap();
    std::uint64_t checksum = 0;
    for (const auto v : out) checksum ^= v;
    std::printf("%-14s n=%zu K=%zu engine=%s warm=%.4fs (checksum %llu)\n",
                leg.label.c_str(), chain_n, repeats,
                core::to_string(plan.engine).c_str(), leg.warm_seconds,
                static_cast<unsigned long long>(checksum));
    if (reference_out.empty()) {
      reference_out = out;
    } else if (out != reference_out) {
      std::fprintf(stderr, "chain legs disagree: %s output differs\n",
                   leg.label.c_str());
      std::exit(1);
    }
    legs.push_back(std::move(leg));
  }
  return legs;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 50'000;
  std::size_t repeats = 16;
  std::size_t threads = parallel::ThreadPool::default_threads();
  bool smoke = false;
  std::string metrics_file;
  std::string report_file;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
      n = 2'000;
      repeats = 4;
    } else if (arg.rfind("--n=", 0) == 0) {
      n = std::strtoull(arg.c_str() + 4, nullptr, 10);
    } else if (arg.rfind("--k=", 0) == 0) {
      repeats = std::strtoull(arg.c_str() + 4, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_file = arg.substr(10);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_file = arg.substr(9);
    } else {
      std::fprintf(stderr,
                   "usage: bench_plan_reuse [--smoke] [--n=N] [--k=K]"
                   " [--threads=T] [--metrics=FILE] [--report=FILE]\n");
      return 2;
    }
  }

  support::SplitMix64 rng(n);
  const core::OrdinaryIrSystem sys = ir::bench::random_ordinary_system(n, n + n / 2, rng, 0.9);
  const std::vector<std::uint64_t> init = ir::bench::random_initial_u64(n + n / 2, rng);
  parallel::ThreadPool pool(threads);

  std::printf("# plan-once/execute-K vs K cold solves (threads=%zu)\n", pool.size());
  std::vector<CaseResult> rows;
  rows.push_back(run_case(core::EngineChoice::kJumping, "jumping", sys, init, repeats, pool));
  rows.push_back(run_case(core::EngineChoice::kBlocked, "blocked", sys, init, repeats, pool));

  // The chain fast route must beat log-depth jumping at n >= 100,000; smoke
  // keeps the same shape at a CI-friendly size.
  const std::size_t chain_n = smoke ? 4'000 : std::max<std::size_t>(2 * n, 100'000);
  std::printf("# chain fast route: scan vs forced jumping\n");
  const std::vector<ChainLeg> chain_legs = run_chain_case(chain_n, repeats, pool);

  if (!metrics_file.empty()) {
    obs::ExtraFields extra = {
        {"bench", obs::json_quote("plan_reuse")},
        {"n", std::to_string(n)},
        {"repeats", std::to_string(repeats)},
        {"threads", std::to_string(pool.size())},
    };
    for (const auto& row : rows) {
      extra.emplace_back(row.engine + "_cold_seconds", std::to_string(row.cold_seconds));
      extra.emplace_back(row.engine + "_warm_seconds", std::to_string(row.warm_seconds));
      extra.emplace_back(row.engine + "_batched_seconds",
                         std::to_string(row.batched_seconds));
      extra.emplace_back(row.engine + "_wide_seconds", std::to_string(row.wide_seconds));
    }
    for (const auto& leg : chain_legs) {
      extra.emplace_back(leg.label + "_warm_seconds", std::to_string(leg.warm_seconds));
    }
    obs::write_metrics_file(metrics_file, extra);
    std::fprintf(stderr, "metrics written to %s\n", metrics_file.c_str());
  }
  if (!report_file.empty()) {
    ir::bench::BenchReport report("plan_reuse");
    report.set_config("n", n);
    report.set_config("k", repeats);
    report.set_config("threads", pool.size());
    for (const auto& row : rows) {
      report.add_variant(row.engine + "/cold", row.cold_ns);
      report.add_variant(row.engine + "/warm", row.warm_ns);
      // execute_many is one wall measurement over K arrays — one per-op
      // sample (wall / K), not a distribution.
      report.add_variant(
          row.engine + "/batched",
          {row.batched_seconds * 1e9 / static_cast<double>(repeats)});
      // execute_wide is likewise one wall measurement over a K-lane batch.
      report.add_variant(row.engine + "/wide",
                         {row.wide_seconds * 1e9 / static_cast<double>(repeats)});
    }
    report.set_config("chain_n", chain_n);
    for (const auto& leg : chain_legs) {
      report.add_variant(leg.label + "/warm", leg.warm_ns);
    }
    report.write(report_file);
    std::fprintf(stderr, "bench report written to %s\n", report_file.c_str());
  }
  return 0;
}
