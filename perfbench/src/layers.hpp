// Per-layer measurement helpers shared by the library and serving workloads.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "core/engine_types.hpp"
#include "core/plan.hpp"

namespace perfbench {

/// Bytes of every schedule table a plan owns (the plan.table_mb numerator,
/// and the table share of engine.gbps_computed).
[[nodiscard]] double plan_table_bytes(const ir::core::Plan& plan);

/// ⊙ applications and rounds of one execute, from whichever stats struct the
/// plan's engine filled (ExecOptions::ordinary_stats / blocked_stats).
struct EngineCounts {
  double ops = 0.0;
  double rounds = 0.0;
};
[[nodiscard]] EngineCounts engine_counts(const ir::core::OrdinaryIrStats& ordinary,
                                         const ir::core::BlockedIrStats& blocked);

/// Wall, process-CPU and calling-thread-CPU seconds summed over a set of
/// calls: parallel.cpu_util = process CPU ÷ (wall × threads), and
/// parallel.caller_wait_ratio = 1 − calling-thread CPU ÷ wall.
struct CpuWindow {
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  double thread_cpu_s = 0.0;

  void add(double wall, double process_cpu, double thread_cpu);
  void report(RunResult& result, std::size_t threads) const;
};

/// trace.latency_ms_p50 and trace.overhead_ms (traced minus untraced p50).
void add_trace_overhead(RunResult& result, const std::vector<double>& untraced_ms,
                        const std::vector<double>& traced_ms);

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void add_latency_metrics(RunResult& result, const WorkloadSpec& spec,
                         const std::vector<double>& latency_ms, double setup_s,
                         double goodput_rps, double loop_ms, double peak_rss_mb);

/// Library goodput: solves that finished within `limit_ms`, per second of
/// solve time.
[[nodiscard]] double goodput_within(const std::vector<double>& latency_ms, double limit_ms);

}  // namespace perfbench
