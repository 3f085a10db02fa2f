// Shared pieces of the irbench program: options, workload table, result
// record, timing and resource helpers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Fixed per-workload settings.  BENCHMARK.json quotes the tail percentile,
/// latency limit and (for loop23_1m) the tolerance in each workload's `why`;
/// `irbench --describe` prints this table so the self-check can compare.
struct WorkloadSpec {
  const char* name;
  double tail_q;       ///< the fixed percentile behind latency_ms_tail
  double limit_ms;     ///< latency limit counted by goodput_rps
  double open_rps;     ///< serving: fixed open-loop arrival rate
  double rel_tol;      ///< loop23_1m: oracle tolerance (relative)
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
[[nodiscard]] const WorkloadSpec* find_spec(const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;        ///< self-check sizes
  std::string irserve;       ///< path of the irserve binary (serving workloads)
  std::string work_dir;      ///< scratch directory inside the checkout
  std::string trace_file;    ///< where spans are written at exit (trace mode)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;  ///< extra stdout lines (ledger, notes)

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

RunResult run_engine_1m(const Options& options, const WorkloadSpec& spec);
RunResult run_loop23_1m(const Options& options, const WorkloadSpec& spec);
RunResult run_serving(const Options& options, const WorkloadSpec& spec);

// --- timing and statistics -------------------------------------------------

/// Monotonic seconds.
[[nodiscard]] double now_s();
/// CPU seconds of the whole process / of the calling thread.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
/// Peak resident set of this process in MB (getrusage).
[[nodiscard]] double self_peak_rss_mb();

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Time `reps` calls of `fn` and return the per-call seconds.
template <typename Fn>
std::vector<double> time_reps(std::size_t reps, Fn&& fn) {
  std::vector<double> out;
  out.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    out.push_back(now_s() - t0);
  }
  return out;
}

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_units();

/// Add every per-layer metric the workload did not report, as 0: a layer
/// that is not on the workload's path (README.md, "Per-layer metrics").
void fill_absent_per_layer(RunResult& result);

}  // namespace perfbench
