// ABL-* — ablations of the design choices DESIGN.md calls out:
//
//   ABL-1  early termination: drop completed traces from pointer-jumping
//          rounds (the paper's requirement) vs visiting all n each round,
//          on the PRAM simulator.  Metric: PRAM work (instructions).
//   ABL-2  processor cap: the paper's "fork only up to P processes"
//          T(n,P) = (n/P)·log n sweep on the PRAM simulator, P up to n —
//          showing where extra processors stop helping (P > peak width).
//   ABL-3  CAP vs reverse-topological DP for GIR path counting: same
//          answers; the DP is work-efficient but sequential, CAP pays
//          edge blowup for O(log) depth.  Metric: wall time + peak edges.
//   ABL-4  CAP per-round coalescing (paper's paths-addition every round)
//          vs merging once at the end.  Metric: peak intermediate edges.
//   ABL-5  blocked two-level solver vs pointer jumping.  Metric: ⊙ count.
//
// The host-side sections compile a forced plan per measurement
// (compile_plan + execute_plan), so each timing includes its compile.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/ordinary_ir_pram.hpp"
#include "core/plan.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "testing_workloads.hpp"

using namespace ir;

namespace {

void ablation_early_termination() {
  std::printf("ABL-1: early termination of completed traces (PRAM simulator, P = 8)\n");
  support::TextTable table;
  table.set_header({"n", "steps", "work (early-term)", "work (naive)", "saving"});
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  for (std::size_t n : {1000u, 10000u, 50000u}) {
    support::SplitMix64 rng(n);
    const auto sys = bench::random_ordinary_system(n, n + n / 2, rng, 0.9);
    const auto init = bench::random_initial_u64(n + n / 2, rng);
    pram::Machine eager(8, pram::AccessMode::kCrew, pram::CostModel{}, false);
    pram::Machine naive(8, pram::AccessMode::kCrew, pram::CostModel{}, false);
    const auto a = core::ordinary_ir_pram_parallel(op, sys, init, eager, true);
    const auto b = core::ordinary_ir_pram_parallel(op, sys, init, naive, false);
    if (a != b) {
      std::printf("ERROR: solver mismatch\n");
      return;
    }
    const double saving = 1.0 - static_cast<double>(eager.stats().work) /
                                    static_cast<double>(naive.stats().work);
    table.add_row({std::to_string(n), std::to_string(eager.stats().steps),
                   std::to_string(eager.stats().work), std::to_string(naive.stats().work),
                   support::fmt_f(100.0 * saving, 1) + "%"});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_processor_cap() {
  std::printf("ABL-2: processor cap sweep (PRAM simulated time), n = 20000\n");
  const std::size_t n = 20000;
  support::SplitMix64 rng(1);
  const auto sys = bench::random_ordinary_system(n, n + n / 2, rng, 0.9);
  const auto init = bench::random_initial_u64(n + n / 2, rng);
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  support::TextTable table;
  table.set_header({"P", "simulated time", "time * P / (n log n)"});
  for (std::size_t p = 1; p <= 65536; p *= 8) {
    pram::Machine machine(p, pram::AccessMode::kCrew, pram::CostModel{}, false);
    (void)core::ordinary_ir_pram_parallel(op, sys, init, machine);
    const double norm = static_cast<double>(machine.stats().time) * static_cast<double>(p) /
                        (static_cast<double>(n) * std::log2(static_cast<double>(n)));
    table.add_row({std::to_string(p), std::to_string(machine.stats().time),
                   support::fmt_f(norm, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("the normalized column is ~flat while P << n (the paper's (n/P)log n "
              "regime) and rises once P exceeds the active width\n\n");
}

void ablation_cap_vs_dp() {
  std::printf("ABL-3: CAP closure vs reverse-topological DP (GIR path counting)\n");
  support::TextTable table;
  table.set_header({"n", "CAP ms", "DP ms", "CAP rounds", "CAP peak edges", "match"});
  algebra::ModMulMonoid op(1'000'000'007ull);
  // NOTE: CAP's intermediate graphs can hold Θ(n·L) labeled edges (L =
  // reachable leaves per node); the sizes below keep peak_edges in the
  // tens of millions of bytes — the peak-edges column IS the ablation
  // finding (the DP never materializes that volume).
  for (std::size_t n : {200u, 800u, 2000u}) {
    support::SplitMix64 rng(n);
    const auto sys = bench::random_general_system(n, n / 2, rng, 0.7);
    std::vector<std::uint64_t> init(n / 2);
    for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);

    core::PlanOptions options{.engine = core::EngineChoice::kGeneralCap,
                              .prune_dead = false};
    support::Stopwatch watch;
    const core::Plan cap = core::compile_plan(sys, options);
    const auto via_cap = core::execute_plan(cap, op, init);
    const double cap_ms = watch.lap() * 1e3;

    options.reference_counts = true;
    const auto via_dp = core::execute_plan(core::compile_plan(sys, options), op, init);
    const double dp_ms = watch.lap() * 1e3;

    table.add_row({std::to_string(n), support::fmt_f(cap_ms, 2), support::fmt_f(dp_ms, 2),
                   std::to_string(cap.gir.cap_rounds), std::to_string(cap.gir.cap_peak_edges),
                   via_cap == via_dp ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_coalescing() {
  std::printf("ABL-4: CAP per-round coalescing (paper) vs merge-at-end\n");
  std::printf("(without the per-round paths-addition the edge multiset IS the path\n");
  std::printf(" multiset — Fibonacci-exponential — so deferred merging only works on\n");
  std::printf(" toy sizes; the paper's per-iteration merge is what keeps CAP polynomial)\n");
  support::TextTable table;
  table.set_header({"graph", "peak edges (per-round)", "peak edges (deferred)"});
  for (std::size_t n : {16u, 24u, 30u}) {
    // The Fibonacci dependence chain: every node has two out-edges.
    graph::LabeledDag g(n);
    for (std::size_t i = 2; i < n; ++i) {
      g.add_edge(i, i - 1);
      g.add_edge(i, i - 2);
    }
    graph::CapOptions eager, deferred;
    deferred.coalesce_each_round = false;
    const auto a = graph::cap_closure(g, eager);
    const auto b = graph::cap_closure(g, deferred);
    table.add_row({"fib-" + std::to_string(n), std::to_string(a.peak_edges),
                   std::to_string(b.peak_edges)});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_blocked_vs_jumping() {
  std::printf("ABL-5: blocked two-level solver vs pointer jumping (work = ops)\n");
  std::printf("workloads: 'local' = kernel-5-style f(i)=i-1 chain; 'scattered' = "
              "random rewired reads\n");
  support::TextTable table;
  table.set_header({"workload", "n", "jumping ops", "blocked ops", "partial frac",
                    "blocked/jumping"});
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  const std::size_t blocks = 16;
  for (const bool local : {true, false}) {
    for (std::size_t n : {10000u, 100000u}) {
      support::SplitMix64 rng(n + (local ? 1 : 0));
      core::OrdinaryIrSystem sys;
      if (local) {
        sys.cells = n + 1;
        for (std::size_t i = 0; i < n; ++i) {
          sys.f.push_back(i);
          sys.g.push_back(i + 1);
        }
      } else {
        sys = bench::random_ordinary_system(n, n + n / 2, rng, 0.9);
      }
      const auto init = bench::random_initial_u64(sys.cells, rng);

      core::OrdinaryIrStats jump_stats;
      const auto a =
          core::execute_plan(core::compile_plan(sys, {.engine = core::EngineChoice::kJumping}),
                             op, init, {.ordinary_stats = &jump_stats});

      core::BlockedIrStats block_stats;
      const core::PlanOptions block_opt{.engine = core::EngineChoice::kBlocked,
                                        .blocks = blocks};
      const auto b = core::execute_plan(core::compile_plan(sys, block_opt), op, init,
                                        {.blocked_stats = &block_stats});
      if (a != b) {
        std::printf("ERROR: solver mismatch\n");
        return;
      }
      table.add_row(
          {local ? "local" : "scattered", std::to_string(n),
           std::to_string(jump_stats.op_applications),
           std::to_string(block_stats.op_applications),
           support::fmt_f(static_cast<double>(block_stats.partials) / static_cast<double>(n),
                          3),
           support::fmt_f(static_cast<double>(block_stats.op_applications) /
                              static_cast<double>(jump_stats.op_applications),
                          2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("the blocked solver is work-efficient (O(n)) on every input; pointer\n");
  std::printf("jumping pays the log-depth tax in work — the paper's trade-off made "
              "explicit\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argument: run a single section (1-5); default runs all.
  const int which = argc > 1 ? std::atoi(argv[1]) : 0;
  if (which == 0 || which == 1) ablation_early_termination();
  if (which == 0 || which == 2) ablation_processor_cap();
  if (which == 0 || which == 3) ablation_cap_vs_dp();
  if (which == 0 || which == 4) ablation_coalescing();
  if (which == 0 || which == 5) ablation_blocked_vs_jumping();
  return 0;
}
