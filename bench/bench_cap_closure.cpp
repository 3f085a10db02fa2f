// CAP closure scaling (google-benchmark): the Section-4 machinery.
//
//   BM_CapChain      — single dependence chain (list traces): the easy case.
//   BM_CapFibonacci  — the paper's A[i-1]*A[i-2] graph: BigUint labels grow
//                      like Fibonacci numbers; measures the real cost of the
//                      power-as-atomic assumption.
//   BM_CapReferenceDp— the sequential work-efficient DP on the same graphs.
//   BM_GirEndToEnd   — full GIR solve (graph build + CAP + powered eval):
//                      a forced CAP plan compiled and executed per call.
#include <benchmark/benchmark.h>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/plan.hpp"
#include "graph/cap.hpp"
#include "testing_workloads.hpp"

namespace {

using namespace ir;

graph::LabeledDag chain_graph(std::size_t n) {
  graph::LabeledDag g(n);
  for (std::size_t v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

graph::LabeledDag fibonacci_graph(std::size_t n) {
  graph::LabeledDag g(n);
  for (std::size_t i = 2; i < n; ++i) {
    g.add_edge(i, i - 1);
    g.add_edge(i, i - 2);
  }
  return g;
}

void BM_CapChain(benchmark::State& state) {
  const auto g = chain_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cap_closure(g));
  }
}
BENCHMARK(BM_CapChain)->Arg(1000)->Arg(10000);

void BM_CapFibonacci(benchmark::State& state) {
  const auto g = fibonacci_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cap_closure(g));
  }
}
BENCHMARK(BM_CapFibonacci)->Arg(256)->Arg(512)->Arg(1024);

void BM_CapFibonacciPooled(benchmark::State& state) {
  const auto g = fibonacci_graph(static_cast<std::size_t>(state.range(0)));
  parallel::ThreadPool pool(4);
  graph::CapOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cap_closure(g, options));
  }
}
BENCHMARK(BM_CapFibonacciPooled)->Arg(512)->Arg(1024);

void BM_CapReferenceDp(benchmark::State& state) {
  const auto g = fibonacci_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::path_counts_reference(g));
  }
}
BENCHMARK(BM_CapReferenceDp)->Arg(256)->Arg(512)->Arg(1024);

void BM_GirEndToEnd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  support::SplitMix64 rng(n);
  const auto sys = bench::random_general_system(n, n / 2, rng, 0.7);
  algebra::ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(n / 2);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  const core::PlanOptions options{.engine = core::EngineChoice::kGeneralCap,
                                  .prune_dead = false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::execute_plan(core::compile_plan(sys, options), op, init));
  }
}
BENCHMARK(BM_GirEndToEnd)->Arg(500)->Arg(1000)->Arg(2000);

void BM_GirSequentialBaseline(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  support::SplitMix64 rng(n);
  const auto sys = bench::random_general_system(n, n / 2, rng, 0.7);
  algebra::ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(n / 2);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::general_ir_sequential(op, sys, init));
  }
}
BENCHMARK(BM_GirSequentialBaseline)->Arg(500)->Arg(1000)->Arg(2000);

}  // namespace
