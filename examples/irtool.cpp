// irtool — command-line driver over the library's public API.
//
//   irtool gen {chain|fib|random} N [seed]      emit an ir-system v1 document
//   irtool analyze <file>                       print the analysis report
//   irtool classify <file>                      print the recurrence class
//   irtool solve <file> [mod] [flags]           auto-route and solve mod p
//                                               (values = 1 + cell mod 97)
//     --metrics=FILE    flat JSON metrics dump (registry snapshot + run info)
//     --trace=FILE      Chrome trace_event JSON (open in Perfetto or
//                       chrome://tracing); one track per pool worker
//     --engine=E        force the solver: auto (default), jumping, blocked,
//                       scan (these need an ordinary-shaped system: h = g,
//                       g injective; scan additionally needs the chain
//                       structure f(i) = previous iteration), elementwise
//                       (a recurrence-free system), or gir (CAP on anything)
//     --repeat=K        solve K times through the Solver plan cache; the
//                       schedule compiles once and is reused, and compile
//                       vs execute time is reported separately
//     --jobs=J          replay the K repeats through the batch-solve service
//                       (src/service/) with J dispatchers: requests sharing
//                       the plan key coalesce into execute_many batches, and
//                       the coalesced-batch counts are reported next to the
//                       plan-cache line (docs/service.md)
//     see docs/observability.md for the metric/span name catalog and
//     docs/solver_api.md for the plan/execute model
//   irtool trace <file> <iteration>             print a Lemma-1 trace or a
//                                               GIR exponent list
//   irtool lint <file> [--json] [--engine=E]    statically verify compiled
//                                               schedules (src/verify/): PRAM
//                                               hazard analysis, symbolic
//                                               order-preservation replay,
//                                               precondition lint.  Default
//                                               checks the auto route plus
//                                               every forced engine that fits
//                                               the system's shape; --json
//                                               emits the machine-readable
//                                               report (docs/static_analysis.md)
//     --cost            additionally run the static cost & conflict analyzer
//                       (verify/cost.hpp): work, depth, steps, footprint, and
//                       predicted bank stalls per certified plan
//     --banks=B         bank count for the conflict model (default 8)
//     --crcw            cost writes under combining-CRCW semantics (duplicate
//                       writes to one cell coalesce); default is CREW
//   irtool audit <store-dir> [--json] [--cost-flags]
//                                               statically verify AND cost
//                                               every .irplan in a plan store
//                                               (verify/audit.hpp): each entry
//                                               gets a PASS/REJECT verdict with
//                                               a reason, plus a counted
//                                               manifest; exit 0 only when the
//                                               whole store is clean
//   irtool dot <file>                           dependence graph as Graphviz
//   irtool lower <dsl-file>                     loop DSL -> ir-system text
//   irtool interchange <dsl-file> <a> <b>       swap nest levels a and b
//                                               (legality-checked), print DSL
//   irtool plan export <file> <store-dir> [--engine=E]
//                                               compile and persist the plan
//                                               into an on-disk plan store
//                                               (docs/plan_store.md); only
//                                               gir-cap plans are stored, so
//                                               an ordinary route exits 1
//                                               (--engine=gir exports any
//                                               system)
//   irtool plan import <plan-file> [<store-dir>]
//                                               validate + statically verify a
//                                               plan file; with a store dir,
//                                               install it under its key
//   irtool plan info <plan-file>                header facts and section map
//
// ir-system files use core/serialize.hpp's format; DSL files use
// frontend/parser.hpp's; "-" reads stdin.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>

#include "algebra/monoids.hpp"
#include "core/analyze.hpp"
#include "core/general_ir.hpp"
#include "core/plan_io.hpp"
#include "core/serialize.hpp"
#include "core/solver.hpp"
#include "core/trace.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "frontend/transform.hpp"
#include "graph/dot.hpp"
#include "obs/metrics_export.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "verify/audit.hpp"
#include "verify/cost.hpp"
#include "verify/verify.hpp"

namespace {

using namespace ir;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  irtool gen {chain|fib|random} N [seed]\n"
               "  irtool analyze <file>\n"
               "  irtool classify <file>\n"
               "  irtool solve <file> [mod] [--metrics=FILE] [--trace=FILE]\n"
               "               [--engine={auto|elementwise|jumping|blocked|scan|gir}]\n"
               "               [--repeat=K]\n"
               "               [--jobs=J]\n"
               "  irtool trace <file> <iteration>\n"
               "  irtool lint <file> [--json] [--cost] [--banks=B] [--crcw]\n"
               "              [--engine={all|auto|elementwise|jumping|blocked|scan|"
               "gir}]\n"
               "  irtool audit <store-dir> [--json] [--banks=B] [--crcw]\n"
               "  irtool dot <file>\n"
               "  irtool lower <dsl-file>\n"
               "  irtool interchange <dsl-file> <a> <b>\n"
               "  irtool plan export <file> <store-dir>\n"
               "              [--engine={auto|elementwise|jumping|blocked|scan|gir}]\n"
               "  irtool plan import <plan-file> [<store-dir>]\n"
               "  irtool plan info <plan-file>\n"
               "\n"
               "lint exit codes:  0 = every checked plan certified;\n"
               "                  1 = at least one violation (or runtime error);\n"
               "                  2 = usage error\n"
               "plan export exit codes: 0 = exported; 1 = the plan is not gir-cap\n"
               "                  (stores hold gir-cap plans only) or an I/O error;\n"
               "                  2 = usage error\n"
               "audit exit codes: 0 = every store entry verified and costed;\n"
               "                  1 = at least one entry rejected;\n"
               "                  2 = usage or I/O error (store dir missing)\n");
  return 2;
}

std::string read_all(const std::string& path) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream in(path);
  IR_REQUIRE(in.good(), "cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

core::GeneralIrSystem load(const std::string& path) {
  return core::system_from_text(read_all(path));
}

int cmd_gen(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string kind = argv[0];
  const std::size_t n = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1997;
  core::GeneralIrSystem sys;
  if (kind == "chain") {
    sys.cells = n + 1;
    for (std::size_t i = 0; i < n; ++i) {
      sys.f.push_back(i);
      sys.g.push_back(i + 1);
      sys.h.push_back(i + 1);
    }
  } else if (kind == "fib") {
    sys.cells = n + 2;
    for (std::size_t i = 2; i < n + 2; ++i) {
      sys.f.push_back(i - 1);
      sys.g.push_back(i);
      sys.h.push_back(i - 2);
    }
  } else if (kind == "random") {
    support::SplitMix64 rng(seed);
    sys.cells = n + n / 2 + 2;
    for (std::size_t i = 0; i < n; ++i) {
      sys.g.push_back(rng.below(sys.cells));
      auto pick = [&]() {
        if (i > 0 && rng.chance(0.7)) return sys.g[rng.below(i)];
        return rng.below(sys.cells);
      };
      sys.f.push_back(pick());
      sys.h.push_back(pick());
    }
  } else {
    return usage();
  }
  std::fputs(core::to_text(sys).c_str(), stdout);
  return 0;
}

int cmd_analyze(const std::string& path) {
  const auto sys = load(path);
  std::fputs(core::analyze(sys).to_string().c_str(), stdout);
  return 0;
}

int cmd_classify(const std::string& path) {
  const auto sys = load(path);
  std::printf("%s\n", core::to_string(core::classify(sys)).c_str());
  return 0;
}

struct SolveFlags {
  std::string path;
  std::uint64_t mod = 1'000'000'007ull;
  std::string metrics_file;  ///< --metrics=FILE: flat JSON registry dump
  std::string trace_file;    ///< --trace=FILE: Chrome trace_event JSON
  std::string engine = "auto";
  std::size_t repeat = 1;  ///< --repeat=K: K solves through the plan cache
  std::size_t jobs = 0;    ///< --jobs=J: J service dispatchers (0 = no service)
};

int cmd_solve(const SolveFlags& flags) {
  const auto sys = load(flags.path);
  algebra::ModMulMonoid op(flags.mod);
  std::vector<std::uint64_t> init(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) init[c] = 1 + c % 97;
  IR_REQUIRE(flags.repeat >= 1, "--repeat needs K >= 1");

  const bool tracing = !flags.trace_file.empty();
  if (tracing) {
    obs::set_thread_name("irtool-main");
    obs::tracer().set_enabled(true);
  }

  const auto parsed = core::engine_choice_from_name(flags.engine);
  if (!parsed) return usage();
  const core::EngineChoice engine = *parsed;
  if (engine == core::EngineChoice::kJumping || engine == core::EngineChoice::kBlocked ||
      engine == core::EngineChoice::kScan) {
    // Friendlier message than compile_plan's for the common shape mistake.
    IR_REQUIRE(sys.h == sys.g,
               "--engine=" + flags.engine + " needs an ordinary-shaped system (h = g)");
  }

  std::string route;
  core::OrdinaryIrStats ord_stats;
  bool have_ord_stats = false;
  std::vector<std::uint64_t> out;
  std::string plan_engine;
  double compile_seconds = 0.0, execute_seconds = 0.0;
  core::Solver solver;
  service::ServiceStats svc;
  const bool use_service = flags.jobs > 0;
  if (use_service) {
    // --jobs=J: replay the repeats through the batch-solve service instead
    // of a sequential compile/execute loop.  All K requests share one plan
    // key, so queued repeats coalesce into execute_many batches; the
    // "service:" line below shows how many batches the K solves actually
    // took.  Server scope: dispatcher threads retire before the trace flush.
    service::ServiceConfig config;
    config.dispatchers = flags.jobs;
    service::Server<algebra::ModMulMonoid> server(op, config);
    support::Stopwatch watch;
    watch.lap();
    std::vector<std::future<service::Server<algebra::ModMulMonoid>::Response>> futures;
    futures.reserve(flags.repeat);
    for (std::size_t rep = 0; rep < flags.repeat; ++rep) {
      service::Server<algebra::ModMulMonoid>::Request request;
      request.sys = sys;
      request.initial = init;
      request.plan.engine = engine;
      futures.push_back(server.submit_async(std::move(request)));
    }
    server.drain();
    execute_seconds = watch.lap();  // the service overlaps compile + execute
    for (auto& future : futures) {
      auto response = future.get();
      IR_REQUIRE(response.ok(), "service solve failed: " + response.error);
      plan_engine = response.info.engine;
      out = std::move(response.values);
    }
    svc = server.stats();
    route = engine == core::EngineChoice::kAuto ? plan_engine + " (service)"
                                                : flags.engine + " (forced)";
  } else {
    // Pool scope: destroying the pool retires the workers' span tracks, so
    // the trace/metrics flush below sees every worker's data.
    parallel::ThreadPool pool(parallel::ThreadPool::default_threads());
    core::PlanOptions plan_options;
    plan_options.engine = engine;
    plan_options.pool = &pool;
    core::ExecOptions exec;
    exec.pool = &pool;
    if (engine == core::EngineChoice::kJumping || engine == core::EngineChoice::kScan) {
      exec.ordinary_stats = &ord_stats;
      have_ord_stats = true;
    }
    // Every rep goes compile-then-execute; from rep 2 on the compile is a
    // plan-cache hit, so the split shows exactly what reuse saves.
    std::shared_ptr<const core::Plan> plan;
    support::Stopwatch watch;
    for (std::size_t rep = 0; rep < flags.repeat; ++rep) {
      watch.lap();
      plan = solver.compile(sys, plan_options);
      compile_seconds += watch.lap();
      out = core::execute_plan(*plan, op, init, exec);
      execute_seconds += watch.lap();
    }
    route = engine == core::EngineChoice::kAuto ? core::to_string(core::analyze(sys).route)
                                                : flags.engine + " (forced)";
    plan_engine = core::to_string(plan->engine);
  }
  const double solve_seconds = compile_seconds + execute_seconds;
  if (tracing) obs::tracer().set_enabled(false);

  const auto check = core::general_ir_sequential(op, sys, init);

  std::printf("route: %s\n", route.c_str());
  std::printf("plan: engine=%s compile_s=%.6f execute_s=%.6f repeats=%zu\n",
              plan_engine.c_str(), compile_seconds, execute_seconds, flags.repeat);
  if (use_service) {
    std::printf("plan cache: hits=%llu misses=%llu compiles=%llu\n",
                static_cast<unsigned long long>(svc.plan_cache_hits),
                static_cast<unsigned long long>(svc.plan_cache_misses),
                static_cast<unsigned long long>(svc.plan_compiles));
    std::printf("service: jobs=%zu batches=%llu coalesced_requests=%llu "
                "peak_batch=%llu\n",
                flags.jobs, static_cast<unsigned long long>(svc.batches),
                static_cast<unsigned long long>(svc.coalesced_requests),
                static_cast<unsigned long long>(svc.peak_batch));
  } else {
    std::printf("plan cache: hits=%zu misses=%zu\n", solver.plan_cache().hits(),
                solver.plan_cache().misses());
  }
  std::printf("first cells:");
  for (std::size_t c = 0; c < std::min<std::size_t>(8, out.size()); ++c) {
    std::printf(" %llu", static_cast<unsigned long long>(out[c]));
  }
  std::uint64_t checksum = 0;
  for (const auto v : out) checksum ^= v + 0x9e3779b9 + (checksum << 6) + (checksum >> 2);
  std::printf("\nchecksum: %llu\n", static_cast<unsigned long long>(checksum));
  if (have_ord_stats) {
    std::printf("stats: rounds=%zu op_applications=%zu peak_active=%zu\n",
                ord_stats.rounds, ord_stats.op_applications, ord_stats.peak_active);
  }
  const bool matches = out == check;
  std::printf("matches sequential execution: %s\n", matches ? "yes" : "NO");

  if (!flags.metrics_file.empty()) {
    obs::ExtraFields extra = {
        {"command", obs::json_quote("solve")},
        {"input", obs::json_quote(flags.path)},
        {"route", obs::json_quote(route)},
        {"plan_engine", obs::json_quote(plan_engine)},
        {"iterations", std::to_string(sys.iterations())},
        {"cells", std::to_string(sys.cells)},
        {"mod", std::to_string(flags.mod)},
        {"repeat", std::to_string(flags.repeat)},
        {"jobs", std::to_string(flags.jobs)},
        {"solve_seconds", std::to_string(solve_seconds)},
        {"compile_seconds", std::to_string(compile_seconds)},
        {"execute_seconds", std::to_string(execute_seconds)},
        {"plan_cache_hits", std::to_string(use_service ? svc.plan_cache_hits
                                                       : solver.plan_cache().hits())},
        {"plan_cache_misses",
         std::to_string(use_service ? svc.plan_cache_misses
                                    : solver.plan_cache().misses())},
        {"service_batches", std::to_string(svc.batches)},
        {"service_coalesced_requests", std::to_string(svc.coalesced_requests)},
        {"matches_sequential", matches ? "true" : "false"},
    };
    obs::write_metrics_file(flags.metrics_file, extra);
    std::fprintf(stderr, "metrics written to %s\n", flags.metrics_file.c_str());
  }
  if (tracing) {
    obs::write_chrome_trace_file(flags.trace_file);
    std::fprintf(stderr, "trace written to %s (open in Perfetto or chrome://tracing)\n",
                 flags.trace_file.c_str());
  }
  return matches ? 0 : 1;
}

struct LintFlags {
  std::string path;
  std::string engine = "all";  ///< all, or an engine_choice_from_name spelling
  bool json = false;
  bool cost = false;  ///< run the static cost & conflict analyzer per plan
  verify::CostOptions cost_options;
};

/// Re-indent a multi-line JSON fragment so it nests under `indent` spaces.
std::string indent_json(std::string fragment, const std::string& indent) {
  if (!fragment.empty() && fragment.back() == '\n') fragment.pop_back();
  std::string out;
  for (const char c : fragment) {
    out += c;
    if (c == '\n') out += indent;
  }
  return out;
}

/// Statically verify the compiled schedule(s) of one ir-system file.
/// "all" checks the auto route plus every forced engine whose shape
/// preconditions the system meets (the shape gate mirrors compile_plan's own
/// contract — lint reports what it skipped and why).
int cmd_lint(const LintFlags& flags) {
  const auto sys = load(flags.path);
  const auto report = core::analyze(sys);
  const bool ordinary_fits = [&] {
    if (sys.h != sys.g || report.repeated_writes != 0) return false;
    return true;
  }();
  // The scan fast route additionally needs the chain structure: every
  // iteration folds the previous one (or starts a fresh segment).
  const bool chain_fits = ordinary_fits && [&] {
    const auto pred = core::last_writer_before(sys.g, sys.f, sys.cells);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] != core::kNone && pred[i] != i - 1) return false;
    }
    return true;
  }();

  struct Leg {
    std::string label;
    core::EngineChoice choice;
  };
  std::vector<Leg> legs;
  const auto only = core::engine_choice_from_name(flags.engine);  // nullopt = all
  auto add = [&](const char* label, core::EngineChoice choice) {
    if (!only || *only == choice) legs.push_back({label, choice});
  };
  add("auto", core::EngineChoice::kAuto);
  add("gir", core::EngineChoice::kGeneralCap);
  if (ordinary_fits) {
    add("jumping", core::EngineChoice::kJumping);
    add("blocked", core::EngineChoice::kBlocked);
    if (chain_fits) add("scan", core::EngineChoice::kScan);
  }
  if (report.dependences == 0) add("elementwise", core::EngineChoice::kElementwise);
  if (legs.empty()) {
    std::fprintf(stderr,
                 "irtool lint: engine '%s' does not fit this system's shape "
                 "(ordinary engines need h = g with injective g; scan further "
                 "needs a chain-structured system; elementwise needs a "
                 "recurrence-free system)\n",
                 flags.engine.c_str());
    return 1;
  }

  std::size_t certified = 0;
  std::string json = "{\n  \"file\": " + obs::json_quote(flags.path) +
                     ",\n  \"plans\": [";
  for (std::size_t leg = 0; leg < legs.size(); ++leg) {
    core::PlanOptions plan_options;
    plan_options.engine = legs[leg].choice;
    const core::Plan plan = core::compile_plan(sys, plan_options);
    const verify::VerifyReport verdict = verify::verify_plan(plan, sys);
    if (verdict.ok()) ++certified;
    if (flags.json) {
      std::string entry = verdict.to_json();
      // Inline the per-plan report under its requested-engine label.
      std::string head = "\"requested\": " + obs::json_quote(legs[leg].label) +
                         ", \"engine\": " + obs::json_quote(core::to_string(plan.engine)) +
                         ", \"chain_structure\": " + (plan.chain ? "true" : "false") +
                         ", \"schedule\": " + obs::json_quote(plan.describe()) + ",";
      if (flags.cost) {
        const verify::CostReport cost = verify::cost_plan(plan, flags.cost_options);
        head += "\n\"cost\": " + indent_json(cost.to_json(), "") + ",";
      }
      entry.insert(entry.find('{') + 1, head);
      json += (leg == 0 ? "\n" : ",\n") + entry;
    } else {
      std::printf("%-12s %s\n             (%s)\n", legs[leg].label.c_str(),
                  verdict.summary().c_str(), plan.describe().c_str());
      if (flags.cost) {
        const verify::CostReport cost = verify::cost_plan(plan, flags.cost_options);
        std::printf("             cost: %s\n", cost.summary().c_str());
      }
      for (const auto& violation : verdict.violations) {
        std::printf("             [%s] %s: %s\n",
                    verify::to_string(violation.family).c_str(),
                    violation.code.c_str(), violation.message.c_str());
      }
    }
  }
  if (flags.json) {
    json += "  ],\n  \"certified\": " + std::to_string(certified) +
            ",\n  \"checked\": " + std::to_string(legs.size()) +
            ",\n  \"ok\": " + (certified == legs.size() ? "true" : "false") + "\n}\n";
    std::fputs(json.c_str(), stdout);
  } else {
    std::printf("lint: %zu/%zu plans certified\n", certified, legs.size());
  }
  return certified == legs.size() ? 0 : 1;
}

/// Statically verify and cost every .irplan in a plan-store directory.
/// Exit codes: 0 = every entry passed, 1 = at least one reject, 2 = the
/// store directory itself is unusable (missing / not a directory).
int cmd_audit(const std::string& store_dir, bool json,
              const verify::CostOptions& options) {
  verify::AuditReport report;
  try {
    report = verify::audit_store(store_dir, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "irtool audit: %s\n", error.what());
    return 2;
  }
  if (json) {
    std::fputs(report.to_json().c_str(), stdout);
  } else {
    std::printf("%s\n", report.summary().c_str());
  }
  return report.ok() ? 0 : 1;
}

int cmd_trace(const std::string& path, std::size_t iteration) {
  const auto sys = load(path);
  if (sys.h == sys.g) {
    core::OrdinaryIrSystem ord;
    ord.cells = sys.cells;
    ord.f = sys.f;
    ord.g = sys.g;
    ord.validate();
    std::printf("A'[%zu] = %s\n", sys.g[iteration],
                core::render_trace(core::ordinary_trace(ord, iteration)).c_str());
    return 0;
  }
  const auto exponents = core::general_ir_exponents(sys);
  IR_REQUIRE(iteration < exponents.size(), "iteration out of range");
  std::printf("A'[%zu] =", sys.g[iteration]);
  for (const auto& [cell, count] : exponents[iteration]) {
    std::printf(" A0[%zu]^%s", cell, count.to_string().c_str());
  }
  std::printf("\n");
  return 0;
}

int cmd_dot(const std::string& path) {
  const auto sys = load(path);
  const auto graph = core::build_dependence_graph(sys);
  std::fputs(graph::to_dot(graph.dag, graph.node_names(sys)).c_str(), stdout);
  return 0;
}

int cmd_lower(const std::string& path) {
  const auto program = frontend::parse_program(read_all(path));
  const auto lowered = frontend::lower(program);
  std::fputs(core::to_text(lowered.system).c_str(), stdout);
  return 0;
}

int cmd_interchange(const std::string& path, std::size_t a, std::size_t b) {
  const auto program = frontend::parse_program(read_all(path));
  const auto swapped = frontend::interchange(program, a, b);
  const auto check = frontend::check_dependence_preservation(frontend::lower(program),
                                                             frontend::lower(swapped));
  if (!check.preserved) {
    std::fprintf(stderr, "irtool: ILLEGAL interchange: %s\n", check.violation.c_str());
    return 1;
  }
  std::fprintf(stderr, "# interchange legal (%zu dependence pairs checked)\n",
               check.pairs_checked);
  std::fputs(swapped.to_string().c_str(), stdout);
  return 0;
}

void print_plan_header(const core::PlanFileInfo& info) {
  std::printf("version      %u\n", info.version);
  std::printf("engine       %s\n", core::to_string(info.engine).c_str());
  // The engine the cache key was asked for: auto or gir on any file the
  // loader accepts.
  const bool auto_key = info.requested == static_cast<std::uint64_t>(core::EngineChoice::kAuto);
  const bool gir_key =
      info.requested == static_cast<std::uint64_t>(core::EngineChoice::kGeneralCap);
  std::printf("requested    %s\n", auto_key ? "auto" : gir_key ? "gir" : "unknown");
  std::printf("fingerprint  %016llx\n",
              static_cast<unsigned long long>(info.fingerprint));
  std::printf("store-key    %016llx\n",
              static_cast<unsigned long long>(info.store_key));
  std::printf("check        hash2=%016llx\n",
              static_cast<unsigned long long>(info.check.hash2));
  std::printf("cells        %llu\n", static_cast<unsigned long long>(info.cells));
  std::printf("iterations   %llu\n",
              static_cast<unsigned long long>(info.iterations));
  std::printf("file-bytes   %llu\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("checksum     %016llx\n",
              static_cast<unsigned long long>(info.checksum));
}

int cmd_plan(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string verb = argv[0];

  if (verb == "export") {
    // export <system-file> <store-dir> [--engine=E]: compile and persist.
    std::string path, store_dir, engine_name = "auto";
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg.rfind("--engine=", 0) == 0) {
        engine_name = arg.substr(9);
      } else if (path.empty()) {
        path = arg;
      } else if (store_dir.empty()) {
        store_dir = arg;
      } else {
        return usage();
      }
    }
    if (path.empty() || store_dir.empty()) return usage();
    const auto engine = core::engine_choice_from_name(engine_name);
    if (!engine) return usage();

    const auto sys = load(path);
    core::PlanOptions options;
    options.engine = *engine;
    const core::Plan plan = core::compile_plan(sys, options);
    if (const auto refusal = core::plan_store_refusal(plan)) {
      std::fprintf(stderr, "irtool: not exported: %s (--engine=gir exports any system)\n",
                   refusal->c_str());
      return 1;
    }
    core::PlanStore store(store_dir);
    const std::string entry = store.put(core::plan_key_words(options), plan, sys);
    std::fprintf(stderr, "# exported %s plan (%zu cells, %zu iterations)\n",
                 core::to_string(plan.engine).c_str(), plan.cells,
                 plan.iterations);
    std::printf("%s\n", entry.c_str());
    return 0;
  }

  if (verb == "import") {
    // import <plan-file> [<store-dir>]: full validation + static verification
    // (the same gate PlanStore::get applies); with a store dir, install the
    // verified plan under its recorded key.
    if (argc < 2) return usage();
    const std::string path = argv[1];
    const std::string store_dir = argc > 2 ? argv[2] : "";
    core::LoadedPlan loaded;
    try {
      loaded = core::load_plan_file(path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "irtool: REJECTED %s: %s\n", path.c_str(), error.what());
      return 1;
    }
    std::printf("verified     yes (header + checksum + static verifier)\n");
    print_plan_header(core::plan_file_info(path));
    if (!store_dir.empty()) {
      core::PlanStore store(store_dir);
      const std::string entry =
          store.put(loaded.key_words, *loaded.plan, loaded.system);
      std::printf("installed    %s\n", entry.c_str());
    }
    return 0;
  }

  if (verb == "info") {
    // info <plan-file>: header facts + section map, tables untouched.
    if (argc < 2) return usage();
    const core::PlanFileInfo info = core::plan_file_info(argv[1]);
    print_plan_header(info);
    std::printf("sections     %zu\n", info.sections.size());
    for (const auto& section : info.sections) {
      std::printf("  %-18s offset=%-8llu bytes=%llu\n", section.name,
                  static_cast<unsigned long long>(section.offset),
                  static_cast<unsigned long long>(section.bytes));
    }
    return 0;
  }

  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "gen") return cmd_gen(argc - 2, argv + 2);
    if (argc < 3) return usage();
    if (command == "analyze") return cmd_analyze(argv[2]);
    if (command == "classify") return cmd_classify(argv[2]);
    if (command == "solve") {
      SolveFlags flags;
      bool have_path = false, have_mod = false;
      for (int a = 2; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg.rfind("--metrics=", 0) == 0) {
          flags.metrics_file = arg.substr(10);
        } else if (arg.rfind("--trace=", 0) == 0) {
          flags.trace_file = arg.substr(8);
        } else if (arg.rfind("--engine=", 0) == 0) {
          flags.engine = arg.substr(9);
        } else if (arg.rfind("--repeat=", 0) == 0) {
          flags.repeat = std::strtoull(arg.c_str() + 9, nullptr, 10);
        } else if (arg.rfind("--jobs=", 0) == 0) {
          flags.jobs = std::strtoull(arg.c_str() + 7, nullptr, 10);
        } else if (!have_path) {
          flags.path = arg;
          have_path = true;
        } else if (!have_mod) {
          flags.mod = std::strtoull(arg.c_str(), nullptr, 10);
          have_mod = true;
        } else {
          return usage();
        }
      }
      if (!have_path) return usage();
      return cmd_solve(flags);
    }
    if (command == "trace") {
      if (argc < 4) return usage();
      return cmd_trace(argv[2], std::strtoull(argv[3], nullptr, 10));
    }
    if (command == "lint") {
      LintFlags flags;
      bool have_path = false;
      for (int a = 2; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json") {
          flags.json = true;
        } else if (arg == "--cost") {
          flags.cost = true;
        } else if (arg == "--crcw") {
          flags.cost = true;
          flags.cost_options.mode = verify::BankMode::kCrcw;
        } else if (arg.rfind("--banks=", 0) == 0) {
          flags.cost = true;
          flags.cost_options.banks = std::strtoull(arg.c_str() + 8, nullptr, 10);
          if (flags.cost_options.banks == 0) return usage();
        } else if (arg.rfind("--engine=", 0) == 0) {
          flags.engine = arg.substr(9);
        } else if (!have_path) {
          flags.path = arg;
          have_path = true;
        } else {
          return usage();
        }
      }
      if (!have_path) return usage();
      if (flags.engine != "all" && !core::engine_choice_from_name(flags.engine)) {
        return usage();
      }
      return cmd_lint(flags);
    }
    if (command == "audit") {
      std::string store_dir;
      bool json = false;
      verify::CostOptions options;
      for (int a = 2; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json") {
          json = true;
        } else if (arg == "--crcw") {
          options.mode = verify::BankMode::kCrcw;
        } else if (arg.rfind("--banks=", 0) == 0) {
          options.banks = std::strtoull(arg.c_str() + 8, nullptr, 10);
          if (options.banks == 0) return usage();
        } else if (store_dir.empty()) {
          store_dir = arg;
        } else {
          return usage();
        }
      }
      if (store_dir.empty()) return usage();
      return cmd_audit(store_dir, json, options);
    }
    if (command == "plan") return cmd_plan(argc - 2, argv + 2);
    if (command == "dot") return cmd_dot(argv[2]);
    if (command == "lower") return cmd_lower(argv[2]);
    if (command == "interchange") {
      if (argc < 5) return usage();
      return cmd_interchange(argv[2], std::strtoull(argv[3], nullptr, 10),
                             std::strtoull(argv[4], nullptr, 10));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "irtool: %s\n", error.what());
    return 1;
  }
  return usage();
}
