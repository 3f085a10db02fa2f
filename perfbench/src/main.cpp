// irbench — the benchmark program behind perfbench/run.py.
//
//   irbench --workload NAME --seed N --seconds S --trace 0|1
//           [--quick] [--irserve PATH] [--work-dir DIR] [--trace-file FILE]
//   irbench --describe
//
// Runs one workload, checks every output against the sequential oracle, and
// prints (stdout) a `fingerprint {...}` line, any report lines, then the
// result as the last line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every output matched the oracle, 1 on any mismatch, 2
// on bad usage or an invalid run (no result line is printed then).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/simd.hpp"
#include "trace.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workload_specs() {
  // name, tail percentile, goodput latency limit (ms), open-loop rate (1/s),
  // relative oracle tolerance.  The tails keep at least ten samples beyond
  // them even at half the sample count this host gives; the serving tails
  // stop at p90 because higher ones swung by over half between runs on a
  // shared host (README.md).
  static const std::vector<WorkloadSpec> specs = {
      {"engine_1m", 0.90, 250.0, 0.0, 0.0},
      {"loop23_1m", 0.70, 1000.0, 0.0, 1e-9},
      {"serve_repeat", 0.90, 250.0, 55.0, 0.0},
      {"serve_fresh", 0.90, 250.0, 90.0, 0.0},
  };
  return specs;
}

const WorkloadSpec* find_spec(const std::string& name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"engine.execute_ms", "ms"},       {"engine.ops", "count"},
      {"engine.rounds", "count"},        {"engine.predicted_work", "count"},
      {"engine.predicted_steps", "count"}, {"engine.ns_per_op", "ns"},
      {"engine.gbps_computed", "GB/s"},  {"engine.execute_1t_ms", "ms"},
      {"parallel.cpu_util", "ratio"},    {"parallel.caller_wait_ratio", "ratio"},
      {"linear.solve_ms", "ms"},         {"linear.solve_1t_ms", "ms"},
      {"linear.rounds", "count"},        {"linear.ops", "count"},
      {"linear.ns_per_op", "ns"},        {"linear.max_rel_err", "ratio"},
      {"loop.seq_ms", "ms"},             {"plan.compile_ms", "ms"},
      {"plan.table_mb", "MB"},           {"plan.preload_ms", "ms"},
      {"plan.lookup_us", "us"},          {"plan.compile_us", "us"},
      {"engine.execute_us", "us"},       {"plan.compiles", "count"},
      {"plan_cache.hit_ratio", "ratio"}, {"plan_cache.lookups", "count"},
      {"codec.decode_us", "us"},         {"codec.key_us", "us"},
      {"codec.format_us", "us"},         {"codec.share", "ratio"},
      {"service.wait_ms_p50", "ms"},     {"service.exec_ms_p50", "ms"},
      {"service.batch_mean", "count"},   {"server.cpu_util", "ratio"},
      {"net.parse_us", "us"},            {"net.outside_ms_p50", "ms"},
      {"net.req_kb", "KB"},              {"net.resp_kb", "KB"},
      {"loadgen.late_ms_p99", "ms"},     {"fail_ratio", "ratio"},
      {"trace.latency_ms_p50", "ms"},    {"trace.overhead_ms", "ms"},
  };
  return units;
}

void fill_absent_per_layer(RunResult& result) {
  for (const auto& [name, unit] : per_layer_units()) {
    const bool present =
        std::any_of(result.metrics.begin(), result.metrics.end(),
                    [&name = name](const Metric& m) { return m.name == name; });
    if (!present) result.add(name, 0.0, unit);
  }
}

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Cache size in KB from sysfs ("2048K" / "8M"), 0 when unknown.
long cache_kb(int index) {
  const std::string text = read_first_line("/sys/devices/system/cpu/cpu0/cache/index" +
                                           std::to_string(index) + "/size");
  if (text.empty()) return 0;
  long value = std::strtol(text.c_str(), nullptr, 10);
  if (text.back() == 'M') value *= 1024;
  return value;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The machine fingerprint: results whose fingerprints differ are not
/// comparable (run.py compare refuses them).
std::string fingerprint_json() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(nproc);
  out += ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  out += ", \"simd\": \"" + std::string(ir::core::simd::to_string(
                                 ir::core::simd::active_mode())) + "\"";
  out += ", \"simd_compiled\": \"" + std::string(PERFBENCH_SIMD_COMPILED) + "\"";
  out += ", \"l2_kb\": " + std::to_string(cache_kb(2));
  out += ", \"l3_kb\": " + std::to_string(cache_kb(3));
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"ir_telemetry\": \"" + std::string(PERFBENCH_TELEMETRY) + "\"";
  out += "}";
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_result(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void describe() {
  std::printf("{\"workloads\": [");
  const auto& specs = workload_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const WorkloadSpec& s = specs[i];
    std::printf("%s{\"name\": \"%s\", \"tail_q\": %s, \"limit_ms\": %s, "
                "\"open_rps\": %s, \"rel_tol\": %s}",
                i == 0 ? "" : ", ", s.name, number(s.tail_q).c_str(),
                number(s.limit_ms).c_str(), number(s.open_rps).c_str(),
                number(s.rel_tol).c_str());
  }
  std::printf("], \"per_layer\": [");
  const auto& units = per_layer_units();
  for (std::size_t i = 0; i < units.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                units[i].first.c_str(), units[i].second.c_str());
  }
  std::printf("]}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: irbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "               [--quick] [--irserve PATH] [--work-dir DIR]\n"
               "               [--trace-file FILE]\n"
               "       irbench --describe\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--describe") {
      describe();
      return 0;
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++a];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++a], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++a]) == "1";
    } else if (arg == "--irserve" && has_value) {
      options.irserve = argv[++a];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++a];
    } else if (arg == "--trace-file" && has_value) {
      options.trace_file = argv[++a];
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_spec(options.workload);
  if (spec == nullptr || !(options.seconds > 0.0)) return usage();
  if (options.work_dir.empty()) options.work_dir = ".";

  std::printf("fingerprint %s\n", fingerprint_json().c_str());
  std::fflush(stdout);

  RunResult result;
  try {
    if (options.workload == "engine_1m") {
      result = run_engine_1m(options, *spec);
    } else if (options.workload == "loop23_1m") {
      result = run_loop23_1m(options, *spec);
    } else {
      result = run_serving(options, *spec);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "irbench: %s: %s\n", options.workload.c_str(), error.what());
    return 2;
  }
  set_tracing(false);
  if (options.trace && !options.trace_file.empty()) {
    if (write_trace(options.trace_file)) {
      std::fprintf(stderr, "irbench: spans written to %s\n", options.trace_file.c_str());
    } else {
      std::fprintf(stderr, "irbench: could not write %s\n", options.trace_file.c_str());
    }
  }
  if (options.trace) fill_absent_per_layer(result);
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  print_result(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
