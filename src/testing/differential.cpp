#include "testing/differential.hpp"

#include <exception>
#include <future>
#include <utility>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "core/serialize.hpp"
#include "core/solver.hpp"
#include "service/server.hpp"
#include "testing/generators.hpp"
#include "verify/verify.hpp"

namespace ir::testing {

namespace {

using core::EngineChoice;
using core::ExecOptions;
using core::GeneralIrSystem;
using core::OrdinaryIrSystem;
using core::PlanOptions;

/// SplitMix64 finalizer: initial values are a pure function of the cell
/// index, so the differential verdict depends only on the system — the
/// shrinker's predicate stays deterministic as cells and equations change.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::uint64_t> deterministic_initial(std::size_t cells, std::uint64_t modulus) {
  std::vector<std::uint64_t> init(cells);
  for (std::size_t c = 0; c < cells; ++c) init[c] = 1 + mix64(c) % (modulus - 1);
  return init;
}

std::vector<std::string> deterministic_strings(std::size_t cells) {
  std::vector<std::string> init(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    init[c] = std::string(1, static_cast<char>('a' + c % 26));
    if (c >= 26) init[c] += static_cast<char>('0' + (c / 26) % 10);
  }
  return init;
}

/// Run one engine leg; any disagreement with `expected` (or any escape) is
/// recorded under `label`.
template <typename Expected, typename Run>
void check_leg(DifferentialReport& report, const std::string& label,
               const Expected& expected, Run&& run) {
  ++report.engines_run;
  try {
    if (run() != expected) report.mismatches.push_back(label);
  } catch (const std::exception& e) {
    report.mismatches.push_back(label + ":threw:" + e.what());
  } catch (...) {
    report.mismatches.push_back(label + ":threw:unknown");
  }
}

/// Compile a plan for `sys` under `plan_options` and run the static verifier
/// over it.  Each violation lands as its own mismatch label — the code alone
/// (e.g. "jump.write-write") is enough to triage without re-running, and the
/// shrinker can minimise against any single label.
template <typename System>
void check_verify_leg(DifferentialReport& report, const std::string& label,
                      const System& sys, const PlanOptions& plan_options) {
  ++report.engines_run;
  try {
    const core::Plan plan = core::compile_plan(sys, plan_options);
    verify::VerifyOptions verify_options;
    // Fuzz cases are small; this budget keeps the symbolic replay live on all
    // of them while bounding the pathological chain shapes.
    verify_options.max_symbolic_terms = std::size_t{1} << 18;
    const verify::VerifyReport vr = verify::verify_plan(plan, sys, verify_options);
    for (const auto& v : vr.violations) {
      report.mismatches.push_back(label + ":" + v.code);
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(label + ":threw:" + e.what());
  } catch (...) {
    report.mismatches.push_back(label + ":threw:unknown");
  }
}

/// Wide-executor leg: run distinct value-sets through execute_wide in one
/// SoA batch and demand bit-equality with the per-lane sequential oracle —
/// the wide path must be invisible in the values for ANY operation and
/// engine.  `expected` carries one oracle row per lane (corrupted rows, like
/// the scalar legs' oracle, when the harness is proving its own teeth).
template <typename Op, typename System>
void check_wide_leg(DifferentialReport& report, const std::string& label,
                    const System& sys, const Op& op, const PlanOptions& plan_options,
                    const std::vector<std::vector<typename Op::Value>>& rows,
                    const std::vector<std::vector<typename Op::Value>>& expected) {
  ++report.engines_run;
  try {
    const core::Plan plan = core::compile_plan(sys, plan_options);
    auto batch = core::BatchView<typename Op::Value>::from_rows(rows, sys.cells);
    const auto wide = core::execute_wide(plan, op, std::move(batch));
    for (std::size_t lane = 0; lane < rows.size(); ++lane) {
      for (std::size_t c = 0; c < sys.cells; ++c) {
        if (wide.at(c, lane) != expected[lane][c]) {
          report.mismatches.push_back(label);
          return;
        }
      }
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(label + ":threw:" + e.what());
  } catch (...) {
    report.mismatches.push_back(label + ":threw:unknown");
  }
}

/// Binary plan-format round trip: compile, serialize_plan, load_plan (full
/// validation + static verification of the untrusted bytes), then execute
/// the LOADED plan — whose tables borrow the serialized buffer — against the
/// oracle.  Any drift between the compiled schedule and its persisted form
/// (layout bug, alignment bug, truncated section, identity or key-word
/// mismatch) either trips the loader or shows up as a value mismatch here.
/// The format holds gir-cap plans only, so a plan that routes elsewhere
/// skips the leg (the plan-* legs report a compile that throws).
template <typename Op>
void check_plan_io_leg(DifferentialReport& report, const std::string& label,
                       const GeneralIrSystem& sys, const Op& op,
                       const PlanOptions& plan_options,
                       const std::vector<typename Op::Value>& init,
                       const std::vector<typename Op::Value>& expected) {
  core::Plan plan;
  try {
    plan = core::compile_plan(sys, plan_options);
  } catch (const std::exception&) {
    return;
  }
  if (plan.engine != core::PlanEngine::kGeneralCap) return;
  ++report.engines_run;
  try {
    const core::PlanKey identity = core::plan_key(sys, plan_options);
    auto bytes = std::make_shared<const std::string>(
        core::serialize_plan(plan, sys, identity.words));
    const core::LoadedPlan loaded = core::load_plan(bytes);
    if (loaded.store_key != identity.key || !(loaded.check == identity.check) ||
        !(loaded.key_words == identity.words)) {
      report.mismatches.push_back(label + ":identity-drift");
      return;
    }
    if (core::execute_plan(*loaded.plan, op, init) != expected) {
      report.mismatches.push_back(label);
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(label + ":threw:" + e.what());
  } catch (...) {
    report.mismatches.push_back(label + ":threw:unknown");
  }
}

/// Names of the schedule tables (and scalar groups) on which two compiled
/// plans differ; empty when they would replay the same schedule.
std::vector<std::string> plan_differences(const core::Plan& a, const core::Plan& b) {
  const core::JumpSchedule& aj = a.jump;
  const core::JumpSchedule& bj = b.jump;
  const core::BlockedSchedule& ab = a.blocked;
  const core::BlockedSchedule& bb = b.blocked;
  const std::pair<const char*, bool> tables[] = {
      {"engine", a.engine == b.engine},
      {"fingerprint", a.fingerprint == b.fingerprint},
      {"shape", a.cells == b.cells && a.iterations == b.iterations && a.chain == b.chain},
      {"write_cell", a.write_cell == b.write_cell},
      {"root_cell", a.root_cell == b.root_cell},
      {"jump.dst", aj.dst == bj.dst},
      {"jump.src", aj.src == bj.src},
      {"jump.round_begin", aj.round_begin == bj.round_begin},
      {"jump.scalars", aj.peak_active == bj.peak_active && aj.seed_ops == bj.seed_ops},
      {"blocked.blocks", ab.blocks == bb.blocks},
      {"blocked.local_pred", ab.local_pred == bb.local_pred},
      {"blocked.fix_dst", ab.fix_dst == bb.fix_dst},
      {"blocked.fix_src", ab.fix_src == bb.fix_src},
      {"blocked.fix_begin", ab.fix_begin == bb.fix_begin},
      {"blocked.scalars",
       ab.phase1_ops == bb.phase1_ops && ab.resolve_rounds == bb.resolve_rounds},
      {"scan.head", a.scan.head == b.scan.head},
      {"scan.scalars", a.scan.segments == b.scan.segments && a.scan.longest == b.scan.longest},
      {"elementwise.cell", a.elementwise.cell == b.elementwise.cell},
      {"elementwise.f", a.elementwise.f == b.elementwise.f},
      {"elementwise.h", a.elementwise.h == b.elementwise.h},
  };
  std::vector<std::string> out;
  for (const auto& [name, same] : tables) {
    if (!same) out.emplace_back(name);
  }
  return out;
}

}  // namespace

std::string DifferentialReport::summary() const {
  if (ok()) return "ok (" + std::to_string(engines_run) + " engines)";
  std::string out = "MISMATCH:";
  for (const auto& label : mismatches) {
    out += ' ';
    out += label;
  }
  return out;
}

DifferentialReport run_differential(const GeneralIrSystem& sys,
                                    const DifferentialOptions& options) {
  IR_REQUIRE(options.modulus >= 3, "differential modulus must be at least 3");
  sys.validate();

  DifferentialReport report;
  const algebra::ModMulMonoid op(options.modulus);
  const std::vector<std::uint64_t> init = deterministic_initial(sys.cells, options.modulus);

  auto oracle = core::general_ir_sequential(op, sys, init);
  if (options.corrupt_oracle && sys.iterations() > 0) {
    // Perturb a written cell: every correctly computing route must now
    // disagree.  (A never-written cell would be copied through unchanged by
    // every engine and also "disagree", but corrupting a written one is the
    // honest simulation of a wrong engine result.)
    std::uint64_t& cell = oracle[sys.g[0]];
    cell = cell % options.modulus + 1;  // stays in [1, modulus], always differs
  }

  // Serializer round trip rides along on every case: the text format is the
  // exchange format for reproducers, so it must reproduce the system exactly.
  ++report.engines_run;
  try {
    const GeneralIrSystem again = core::system_from_text(core::to_text(sys));
    if (again.cells != sys.cells || again.f != sys.f || again.g != sys.g ||
        again.h != sys.h) {
      report.mismatches.push_back("serialize-roundtrip");
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(std::string("serialize-roundtrip:threw:") + e.what());
  }

  // --- General route: every system qualifies. -----------------------------
  // Forced CAP plans over the GIR knobs: no pruning (the paper's plain
  // algorithm), the reference-count DP, and merge-at-end coalescing.
  auto gir_leg = [&](PlanOptions plan_options, const ExecOptions& exec = {}) {
    plan_options.engine = EngineChoice::kGeneralCap;
    return core::execute_plan(core::compile_plan(sys, plan_options), op, init, exec);
  };
  check_leg(report, "gir-cap", oracle, [&] { return gir_leg({.prune_dead = false}); });
  check_leg(report, "gir-dp", oracle, [&] {
    return gir_leg({.prune_dead = false, .reference_counts = true});
  });
  if (sys.iterations() <= options.late_coalesce_max_iterations) {
    check_leg(report, "gir-cap-late-coalesce", oracle, [&] {
      return gir_leg({.prune_dead = false, .coalesce_each_round = false});
    });
  }

  check_leg(report, "plan-auto", oracle, [&] {
    return core::execute_plan(core::compile_plan(sys), op, init);
  });
  if (options.pool != nullptr) {
    check_leg(report, "plan-auto-pooled", oracle, [&] {
      PlanOptions plan_options;
      plan_options.pool = options.pool;
      ExecOptions exec;
      exec.pool = options.pool;
      return core::execute_plan(core::compile_plan(sys, plan_options), op, init, exec);
    });
  }
  check_leg(report, "plan-gir-forced", oracle, [&] { return gir_leg({}); });
  if (options.pool != nullptr) {
    check_leg(report, "plan-gir-pooled", oracle, [&] {
      return gir_leg({.pool = options.pool}, {.pool = options.pool});
    });
  }

  // Export -> import -> execute through the binary plan format, which holds
  // gir-cap plans only.  The forced GIR schedule (arbitrary-precision
  // exponents included) runs on every system, ordinary-shaped ones too;
  // the auto plan runs when it routes to CAP, and then pins that the loader
  // hands back the four kAuto key words it re-derived the identity from.
  check_plan_io_leg(report, "planio-auto", sys, op, PlanOptions{}, init, oracle);
  check_plan_io_leg(report, "planio-gir", sys, op,
                    PlanOptions{.engine = EngineChoice::kGeneralCap}, init, oracle);

  if (options.verify_plans) {
    check_verify_leg(report, "verify-auto", sys, PlanOptions{});
    PlanOptions gir_options;
    gir_options.engine = EngineChoice::kGeneralCap;
    check_verify_leg(report, "verify-gir", sys, gir_options);
  }

  // execute_many must agree entry-wise, with and without a pool.
  ++report.engines_run;
  try {
    const core::Plan plan = core::compile_plan(sys);
    ExecOptions exec;
    exec.pool = options.pool;
    const auto outs = core::execute_many(plan, op, {init, init, init}, exec);
    for (const auto& out : outs) {
      if (out != oracle) {
        report.mismatches.push_back("plan-execute-many");
        break;
      }
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(std::string("plan-execute-many:threw:") + e.what());
  }

  // Wide SoA executor on the auto plan: three DISTINCT lanes (a shared lane
  // value would mask cross-lane index mix-ups) against per-lane oracles.
  std::vector<std::vector<std::uint64_t>> lane_rows;
  std::vector<std::vector<std::uint64_t>> lane_oracle;
  for (std::size_t lane = 0; lane < 3; ++lane) {
    lane_rows.push_back(init);
    for (auto& v : lane_rows.back()) v = 1 + (v + lane * 7919) % (options.modulus - 1);
    lane_oracle.push_back(core::general_ir_sequential(op, sys, lane_rows.back()));
    if (options.corrupt_oracle && sys.iterations() > 0) {
      std::uint64_t& cell = lane_oracle.back()[sys.g[0]];
      cell = cell % options.modulus + 1;
    }
  }
  check_wide_leg(report, "wide-auto", sys, op, PlanOptions{}, lane_rows, lane_oracle);

  // The rows-of-values API must route to the same lockstep executor when the
  // caller picks the wide variant explicitly.
  check_leg(report, "execute-many-wide-variant", oracle, [&] {
    const core::Plan plan = core::compile_plan(sys);
    ExecOptions exec;
    exec.variant = core::ExecVariant::kWide;
    const auto outs = core::execute_many(plan, op, {init, init, init}, exec);
    for (const auto& out : outs) {
      if (out != oracle) return std::vector<std::uint64_t>{};
    }
    return oracle;
  });

  // Solver facade: a cache miss then a guaranteed hit through a fresh cache,
  // so the key masking can never hand back a plan for a different schedule.
  check_leg(report, "solver-cache-hit", oracle, [&] {
    core::Solver solver;
    (void)solver.compile(sys);
    const auto plan = solver.compile(sys);  // second lookup: served by the cache
    return solver.execute(*plan, op, init);
  });
  if (options.use_shared_solver) {
    check_leg(report, "solver-shared", oracle, [&] {
      return core::shared_solver().solve(op, sys, init);
    });
  }

  // Batch-solve service: three identical submits must coalesce (same plan
  // key) and each come back byte-identical to the oracle — the service's
  // batching/queueing must be invisible in the values.
  ++report.engines_run;
  try {
    service::ServiceConfig config;
    config.dispatchers = 2;
    service::Server<algebra::ModMulMonoid> server(op, config);
    std::vector<std::future<service::Server<algebra::ModMulMonoid>::Response>> futures;
    for (int k = 0; k < 3; ++k) {
      service::Server<algebra::ModMulMonoid>::Request request;
      request.sys = sys;
      request.initial = init;
      futures.push_back(server.submit_async(std::move(request)));
    }
    server.drain();
    for (auto& future : futures) {
      auto response = future.get();
      if (!response.ok()) {
        report.mismatches.push_back("service-submit:status:" +
                                    service::to_string(response.status));
        break;
      }
      if (response.values != oracle) {
        report.mismatches.push_back("service-submit");
        break;
      }
    }
  } catch (const std::exception& e) {
    report.mismatches.push_back(std::string("service-submit:threw:") + e.what());
  } catch (...) {
    report.mismatches.push_back("service-submit:threw:unknown");
  }

  // --- Ordinary route: h = g with injective g. ----------------------------
  if (is_ordinary_shape(sys)) {
    const OrdinaryIrSystem ord = to_ordinary(sys);

    check_leg(report, "ord-sequential", oracle, [&] {
      return core::ordinary_ir_sequential(op, ord, init);
    });

    // The forced ordinary engines run without a pool here; the pooled legs
    // below cover the fork/join paths.
    for (const auto& [engine, label] :
         {std::pair{EngineChoice::kJumping, "plan-jumping"},
          std::pair{EngineChoice::kBlocked, "plan-blocked"}}) {
      check_leg(report, label, oracle, [&, engine = engine] {
        PlanOptions plan_options;
        plan_options.engine = engine;
        plan_options.blocks = options.blocks;
        return core::execute_plan(core::compile_plan(ord, plan_options), op, init);
      });
    }
    if (options.pool != nullptr) {
      check_leg(report, "plan-jumping-pooled-capped", oracle, [&] {
        const ExecOptions exec{.pool = options.pool, .processor_cap = 2};
        return core::execute_plan(
            core::compile_plan(ord, {.engine = EngineChoice::kJumping}), op, init, exec);
      });
      check_leg(report, "plan-blocked-pooled", oracle, [&] {
        // blocks = 0: one block per pool thread.
        const PlanOptions plan_options{.engine = EngineChoice::kBlocked,
                                       .pool = options.pool};
        return core::execute_plan(core::compile_plan(ord, plan_options), op, init,
                                  {.pool = options.pool});
      });
    }

    // Every forced ordinary engine again, through the wide executor.
    for (const auto& [engine, label] :
         {std::pair{EngineChoice::kJumping, "wide-jumping"},
          std::pair{EngineChoice::kBlocked, "wide-blocked"}}) {
      PlanOptions plan_options;
      plan_options.engine = engine;
      plan_options.blocks = options.blocks;
      check_wide_leg(report, label, ord, op, plan_options, lane_rows, lane_oracle);
    }

    // Chain-structured systems additionally pin the O(n) scan fast route,
    // forced, wide, and under the static verifier.
    const auto pred = core::last_writer_before(ord.g, ord.f, ord.cells);
    bool chain = true;
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] != core::kNone && pred[i] != i - 1) {
        chain = false;
        break;
      }
    }
    PlanOptions scan_options;
    scan_options.engine = EngineChoice::kScan;
    if (chain) {
      check_leg(report, "plan-scan", oracle, [&] {
        return core::execute_plan(core::compile_plan(ord, scan_options), op, init);
      });
      check_wide_leg(report, "wide-scan", ord, op, scan_options, lane_rows, lane_oracle);
      if (options.verify_plans) {
        check_verify_leg(report, "verify-scan", ord, scan_options);
      }
    }

    if (options.verify_plans) {
      for (const auto& [engine, label] :
           {std::pair{EngineChoice::kJumping, "verify-jumping"},
            std::pair{EngineChoice::kBlocked, "verify-blocked"}}) {
        PlanOptions plan_options;
        plan_options.engine = engine;
        plan_options.blocks = options.blocks;
        check_verify_leg(report, label, ord, plan_options);
      }
    }

    // The ordinary overload compiles from f and g directly, the GIR overload
    // from the embedded system: under kAuto and every forced ordinary engine
    // the two must emit the same plan, table for table.  These legs compare
    // schedules, not values, so engines_run does not count them.
    std::vector<std::pair<PlanOptions, std::string>> compile_pairs = {
        {PlanOptions{}, "compile-agree-auto"},
        {PlanOptions{.engine = EngineChoice::kJumping}, "compile-agree-jumping"},
        {PlanOptions{.engine = EngineChoice::kBlocked, .blocks = options.blocks},
         "compile-agree-blocked"}};
    if (chain) {
      compile_pairs.emplace_back(PlanOptions{.engine = EngineChoice::kScan},
                                 "compile-agree-scan");
    }
    if (options.pool != nullptr) {
      compile_pairs.emplace_back(PlanOptions{.pool = options.pool},
                                 "compile-agree-auto-pooled");
    }
    for (const auto& [plan_options, label] : compile_pairs) {
      try {
        const auto differences = plan_differences(core::compile_plan(ord, plan_options),
                                                  core::compile_plan(sys, plan_options));
        for (const std::string& table : differences) {
          report.mismatches.push_back(label + ":" + table);
        }
      } catch (const std::exception& e) {
        report.mismatches.push_back(label + ":threw:" + e.what());
      }
    }

    // Non-commutative witness: string concatenation catches any engine that
    // reorders operands, which the modular product would silently forgive.
    if (sys.iterations() <= options.concat_max_iterations) {
      const algebra::ConcatMonoid cat;
      const std::vector<std::string> cinit = deterministic_strings(sys.cells);
      auto coracle = core::ordinary_ir_sequential(cat, ord, cinit);
      if (options.corrupt_oracle && sys.iterations() > 0) coracle[sys.g[0]] += '!';
      std::vector<std::pair<EngineChoice, const char*>> concat_engines = {
          {EngineChoice::kJumping, "concat-jumping"},
          {EngineChoice::kBlocked, "concat-blocked"}};
      if (chain) concat_engines.emplace_back(EngineChoice::kScan, "concat-scan");
      for (const auto& [engine, label] : concat_engines) {
        check_leg(report, label, coracle, [&, engine = engine] {
          const PlanOptions plan_options{.engine = engine, .blocks = options.blocks};
          return core::execute_plan(core::compile_plan(ord, plan_options), cat, cinit);
        });
      }
      if (options.pool != nullptr) {
        // The threaded order witness: three slices per round on the pool, so
        // slice edges split every round's moves across threads.
        check_leg(report, "concat-jumping-pooled", coracle, [&] {
          const ExecOptions exec{.pool = options.pool, .processor_cap = 3};
          return core::execute_plan(
              core::compile_plan(ord, {.engine = EngineChoice::kJumping}), cat, cinit, exec);
        });
      }

      // Wide executor with a non-commutative op: WideOps has no string
      // kernels, so this pins the generic per-lane fold path AND operand
      // order at once.  Lanes get distinct suffixes so a lane swap shows.
      std::vector<std::vector<std::string>> concat_rows;
      std::vector<std::vector<std::string>> concat_oracle;
      for (std::size_t lane = 0; lane < 3; ++lane) {
        concat_rows.push_back(cinit);
        for (auto& s : concat_rows.back()) s += static_cast<char>('x' + lane);
        concat_oracle.push_back(
            core::ordinary_ir_sequential(cat, ord, concat_rows.back()));
        if (options.corrupt_oracle && sys.iterations() > 0) {
          concat_oracle.back()[sys.g[0]] += '!';
        }
      }
      PlanOptions concat_jump;
      concat_jump.engine = EngineChoice::kJumping;
      check_wide_leg(report, "wide-concat-jumping", ord, cat, concat_jump, concat_rows,
                     concat_oracle);
      if (chain) {
        check_wide_leg(report, "wide-concat-scan", ord, cat, scan_options, concat_rows,
                       concat_oracle);
      }

      // The same witness through the service: coalesced execute_many batches
      // must not perturb operand order either.  Engine forced to jumping —
      // ConcatMonoid has no pow, so the GIR route is out of bounds.
      ++report.engines_run;
      try {
        service::ServiceConfig config;
        config.dispatchers = 2;
        service::Server<algebra::ConcatMonoid> server(cat, config);
        std::vector<std::future<service::Server<algebra::ConcatMonoid>::Response>>
            futures;
        for (int k = 0; k < 3; ++k) {
          service::Server<algebra::ConcatMonoid>::Request request;
          request.sys = sys;
          request.initial = cinit;
          request.plan.engine = EngineChoice::kJumping;
          futures.push_back(server.submit_async(std::move(request)));
        }
        server.drain();
        for (auto& future : futures) {
          auto response = future.get();
          if (!response.ok()) {
            report.mismatches.push_back("service-concat:status:" +
                                        service::to_string(response.status));
            break;
          }
          if (response.values != coracle) {
            report.mismatches.push_back("service-concat");
            break;
          }
        }
      } catch (const std::exception& e) {
        report.mismatches.push_back(std::string("service-concat:threw:") + e.what());
      } catch (...) {
        report.mismatches.push_back("service-concat:threw:unknown");
      }
    }
  }

  return report;
}

}  // namespace ir::testing
