// irfuzz — differential fuzzer over every IR solver route.
//
// Generates randomized systems across all shape classes (src/testing/
// generators.hpp), runs each through every engine — forced plans, the
// kAuto router, execute_many, and the cached Solver paths — against the
// sequential oracle (src/testing/differential.hpp), and on any
// disagreement shrinks the system to a minimal reproducer (src/testing/
// shrink.hpp) written in ir-system v1 format under --corpus, replayable with
// `irfuzz <file>` or `irtool solve <file>`.  Each generated case additionally
// fuzzes the text parsers with mutated documents: every mutation must either
// parse or throw ContractViolation — any other escape is a bug.
//
//   irfuzz [options] [FILE...]
//     --seed=S             base RNG seed (default 1)
//     --cases=N            generated cases (default 400)
//     --max-n=N            max equations per system (default 64)
//     --threads=K          pool size for pooled legs; 0 disables (default 3)
//     --smoke              bounded CI run (equivalent to --cases=96 --max-n=40)
//     --corpus=DIR         where shrunk reproducers are written (default ".")
//     --no-verify          skip the static plan verifier legs (on by default:
//                          every compiled plan is hazard-checked and
//                          symbolically replayed — see src/verify/)
//     --inject-oracle-bug  corrupt the oracle — every case must be flagged
//                          (a detector check, so nothing is written to corpus)
//     --selftest           prove detection + shrinking fire on an injected
//                          oracle bug (asserts the reproducer has <= 10
//                          equations); exit 0 iff the harness works
//     --http[=N]           HTTP differential leg: spin up an in-process
//                          multi-tenant HTTP tier (sharded router, real
//                          sockets) and round-trip N random systems through
//                          POST /v1/solve — each response's values line must
//                          byte-match the sequential oracle's
//                          (docs/http.md); exit 0 iff all match
//     FILE...              replay mode: differential-check ir-system files
//                          (the checked-in corpus must stay green)
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/serialize.hpp"
#include "net/http_client.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "service/http_tier.hpp"
#include "service/line_protocol.hpp"
#include "service/serve_op.hpp"
#include "service/shard_router.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"
#include "testing/differential.hpp"
#include "testing/generators.hpp"
#include "testing/shrink.hpp"

namespace {

using namespace ir;

struct Config {
  std::uint64_t seed = 1;
  std::size_t cases = 400;
  std::size_t max_n = 64;
  std::size_t threads = 3;
  std::string corpus = ".";
  bool inject_oracle_bug = false;
  bool selftest = false;
  bool no_verify = false;
  std::size_t http_cases = 0;  ///< --http differential leg; 0 = off
  std::vector<std::string> replay_files;
};

int usage() {
  std::fprintf(stderr,
               "usage: irfuzz [--seed=S] [--cases=N] [--max-n=N] [--threads=K]\n"
               "              [--smoke] [--corpus=DIR] [--inject-oracle-bug]\n"
               "              [--no-verify] [--selftest] [--http[=N]] [FILE...]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Config& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::strtoull(value_of("--seed=").c_str(), nullptr, 10);
    } else if (arg.rfind("--cases=", 0) == 0) {
      config.cases = std::strtoull(value_of("--cases=").c_str(), nullptr, 10);
    } else if (arg.rfind("--max-n=", 0) == 0) {
      config.max_n = std::strtoull(value_of("--max-n=").c_str(), nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads = std::strtoull(value_of("--threads=").c_str(), nullptr, 10);
    } else if (arg.rfind("--corpus=", 0) == 0) {
      config.corpus = value_of("--corpus=");
    } else if (arg == "--smoke") {
      config.cases = 96;
      config.max_n = 40;
    } else if (arg == "--inject-oracle-bug") {
      config.inject_oracle_bug = true;
    } else if (arg == "--selftest") {
      config.selftest = true;
    } else if (arg == "--no-verify") {
      config.no_verify = true;
    } else if (arg == "--http") {
      config.http_cases = 64;
    } else if (arg.rfind("--http=", 0) == 0) {
      config.http_cases = std::strtoull(value_of("--http=").c_str(), nullptr, 10);
    } else if (arg == "--replay") {
      // Optional marker; the files themselves are positional.
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "irfuzz: unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      config.replay_files.push_back(arg);
    }
  }
  return true;
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

testing::DifferentialOptions make_options(const Config& config,
                                          parallel::ThreadPool* pool) {
  testing::DifferentialOptions options;
  options.pool = pool;
  options.use_shared_solver = true;
  options.corrupt_oracle = config.inject_oracle_bug;
  options.verify_plans = !config.no_verify;
  return options;
}

/// Shrink a failing system and write the minimized reproducer to the corpus
/// directory.  Returns the path written.
std::string shrink_and_save(const core::GeneralIrSystem& sys,
                            const testing::DifferentialOptions& options,
                            const testing::DifferentialReport& report,
                            const Config& config, const std::string& stem) {
  const auto still_fails = [&](const core::GeneralIrSystem& candidate) {
    return !testing::run_differential(candidate, options).ok();
  };
  const auto shrunk = testing::shrink_system(sys, still_fails);
  std::fprintf(stderr,
               "irfuzz: shrank %zu -> %zu equations, %zu -> %zu cells "
               "(%zu probes)\n",
               sys.iterations(), shrunk.sys.iterations(), sys.cells,
               shrunk.sys.cells, shrunk.probes);

  std::filesystem::create_directories(config.corpus);
  const std::string path = config.corpus + "/" + stem + ".ir";
  std::ofstream out(path);
  out << "# irfuzz reproducer (" << report.summary() << ")\n"
      << "# replay: irfuzz " << path << "\n"
      << core::to_text(shrunk.sys);
  std::fprintf(stderr, "irfuzz: reproducer written to %s\n", path.c_str());
  return path;
}

/// Parser fuzzing: mutated documents must parse or throw ContractViolation.
/// Returns the number of parser escapes (bugs).
std::size_t fuzz_parsers(const core::GeneralIrSystem& sys, support::SplitMix64& rng,
                         std::size_t rounds) {
  std::size_t escapes = 0;
  const std::string system_text = core::to_text(sys);
  std::vector<double> doubles(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) {
    doubles[c] = 0.5 * static_cast<double>(c) - 3.0;
  }
  const std::string values_text = core::to_text(doubles);
  for (std::size_t m = 0; m < rounds; ++m) {
    for (const bool values_doc : {false, true}) {
      const std::string mutated =
          testing::mutate_document(values_doc ? values_text : system_text, rng);
      try {
        if (values_doc) {
          (void)core::values_from_text(mutated);
        } else {
          (void)core::system_from_text(mutated);
        }
      } catch (const support::ContractViolation&) {
        // The contract: malformed input dies with a diagnostic, never a crash.
      } catch (const std::exception& e) {
        ++escapes;
        std::fprintf(stderr,
                     "irfuzz: parser escape (%s) on mutated %s document:\n%s\n",
                     e.what(), values_doc ? "ir-values" : "ir-system",
                     mutated.c_str());
      }
    }
  }
  return escapes;
}

int run_replay(const Config& config) {
  parallel::ThreadPool pool(config.threads == 0 ? 1 : config.threads);
  const auto options =
      make_options(config, config.threads == 0 ? nullptr : &pool);
  std::size_t failures = 0;
  for (const auto& path : config.replay_files) {
    try {
      const auto sys = core::system_from_text(read_all(path));
      const auto report = testing::run_differential(sys, options);
      std::printf("%s: %s\n", path.c_str(), report.summary().c_str());
      if (!report.ok()) ++failures;
    } catch (const std::exception& e) {
      std::printf("%s: ERROR %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int run_selftest(const Config& config) {
  parallel::ThreadPool pool(config.threads == 0 ? 1 : config.threads);
  parallel::ThreadPool* pool_ptr = config.threads == 0 ? nullptr : &pool;
  support::SplitMix64 rng(config.seed);
  testing::GeneratorLimits limits;
  limits.max_iterations = config.max_n;

  // 1. A clean sweep must be clean (the detector has no false positives).
  auto clean = make_options(config, pool_ptr);
  clean.corrupt_oracle = false;
  for (std::size_t k = 0; k < 8; ++k) {
    const auto c = testing::generate_case(testing::kAllShapeClasses[k], rng, limits);
    const auto report = testing::run_differential(c.sys, clean);
    if (!report.ok()) {
      std::fprintf(stderr, "irfuzz selftest: clean case flagged: %s\n",
                   report.summary().c_str());
      return 1;
    }
  }

  // 2. A corrupted oracle must be detected on every case with equations.
  auto corrupt = clean;
  corrupt.corrupt_oracle = true;
  testing::GeneratedCase bad;
  do {
    bad = testing::generate_case(rng, limits);
  } while (bad.sys.iterations() == 0);
  const auto report = testing::run_differential(bad.sys, corrupt);
  if (report.ok()) {
    std::fprintf(stderr, "irfuzz selftest: injected oracle bug went undetected\n");
    return 1;
  }

  // 3. The shrinker must reduce it to a tiny, still-failing, still-valid,
  //    round-trippable reproducer.
  const auto still_fails = [&](const core::GeneralIrSystem& candidate) {
    return !testing::run_differential(candidate, corrupt).ok();
  };
  const auto shrunk = testing::shrink_system(bad.sys, still_fails);
  shrunk.sys.validate();
  if (shrunk.sys.iterations() > 10) {
    std::fprintf(stderr,
                 "irfuzz selftest: shrink left %zu equations (want <= 10)\n",
                 shrunk.sys.iterations());
    return 1;
  }
  const auto replayed = core::system_from_text(core::to_text(shrunk.sys));
  if (!still_fails(replayed)) {
    std::fprintf(stderr, "irfuzz selftest: serialized reproducer no longer fails\n");
    return 1;
  }
  std::printf(
      "irfuzz selftest: ok (injected bug detected on %zu-equation %s case, "
      "shrunk to %zu equations / %zu cells in %zu probes)\n",
      bad.sys.iterations(), std::string(testing::to_string(bad.shape)).c_str(),
      shrunk.sys.iterations(), shrunk.sys.cells, shrunk.probes);
  return 0;
}

/// The --http differential leg (docs/http.md): every random system solved
/// through the real HTTP stack — socket, epoll frontend, QoS queue, shard
/// router — must yield a values line byte-identical to the sequential
/// oracle's.  This is the transport-level twin of run_differential: the
/// engines are already cross-checked; what this leg pins is the serving
/// tier's decode → route → execute → format loop.
int run_http_differential(const Config& config) {
  using Router = service::ShardRouter<service::ServeOp>;
  namespace lp = service::line_protocol;

  const service::ServeOp op{algebra::ModMulMonoid(1'000'000'007ull), 0};
  service::ServiceConfig svc;
  svc.dispatchers = 2;
  Router router(op, svc, 2);  // 2 shards: the routing seam is part of the leg
  obs::ScrapeWindow window;
  service::HttpTier<Router> tier(router, service::HttpTierConfig{}, window,
                                 [] { return obs::registry().snapshot(); });
  if (!tier.start()) {
    std::fprintf(stderr, "irfuzz: http tier failed to start: %s\n",
                 tier.error().c_str());
    return 1;
  }
  net::HttpClient client("127.0.0.1", tier.port());

  support::SplitMix64 rng(config.seed * 0x9e3779b97f4a7c15ull + 0x48545450);
  testing::GeneratorLimits limits;
  limits.max_iterations = config.max_n;

  std::size_t failures = 0;
  for (std::size_t k = 0; k < config.http_cases; ++k) {
    const auto shape =
        testing::kAllShapeClasses[k % testing::kAllShapeClasses.size()];
    const auto c = testing::generate_case(shape, rng, limits);
    const auto expected = core::general_ir_sequential(
        op, c.sys, lp::default_initial(c.sys.cells));
    const std::string want = lp::values_line(expected);

    net::HttpClientResponse response;
    const std::string body = core::to_text(c.sys) + ".\n";
    if (!client.post("/v1/solve?id=" + std::to_string(k), body, &response)) {
      ++failures;
      std::fprintf(stderr, "irfuzz: http case %zu transport error: %s\n", k,
                   client.error().c_str());
      continue;
    }
    if (response.status != 200) {
      ++failures;
      std::fprintf(stderr, "irfuzz: http case %zu status %d: %s\n", k,
                   response.status, response.body.c_str());
      continue;
    }
    // Body is "ok ...\nvalues ...\n"; the values line is the oracle-pinned
    // payload.
    const std::size_t nl = response.body.find('\n');
    std::string got = nl == std::string::npos ? std::string()
                                              : response.body.substr(nl + 1);
    if (!got.empty() && got.back() == '\n') got.pop_back();
    if (got != want) {
      ++failures;
      std::fprintf(stderr,
                   "irfuzz: http case %zu (%s, n=%zu) values mismatch\n"
                   "  want: %s\n  got:  %s\n",
                   k, std::string(testing::to_string(shape)).c_str(),
                   c.sys.iterations(), want.c_str(), got.c_str());
    }
  }
  const std::uint64_t reconnects = client.reconnects();
  tier.stop();
  router.shutdown();
  std::printf("irfuzz: http leg %zu cases, %zu failures, %llu reconnects "
              "(seed %llu)\n",
              config.http_cases, failures,
              static_cast<unsigned long long>(reconnects),
              static_cast<unsigned long long>(config.seed));
  return failures == 0 ? 0 : 1;
}

int run_fuzz(const Config& config) {
  parallel::ThreadPool pool(config.threads == 0 ? 1 : config.threads);
  parallel::ThreadPool* pool_ptr = config.threads == 0 ? nullptr : &pool;
  const auto options = make_options(config, pool_ptr);
  support::SplitMix64 rng(config.seed);
  testing::GeneratorLimits limits;
  limits.max_iterations = config.max_n;

  std::size_t failures = 0;
  std::size_t engines_run = 0;
  std::size_t parser_probes = 0;
  for (std::size_t k = 0; k < config.cases; ++k) {
    // Round-robin over shape classes so every route is exercised even in
    // short --smoke runs; sizes and maps stay fully random.
    const auto shape = testing::kAllShapeClasses[k % testing::kAllShapeClasses.size()];
    const auto c = testing::generate_case(shape, rng, limits);
    const auto report = testing::run_differential(c.sys, options);
    engines_run += report.engines_run;
    if (!report.ok()) {
      ++failures;
      std::fprintf(stderr, "irfuzz: seed %llu case %zu (%s, n=%zu, m=%zu): %s\n",
                   static_cast<unsigned long long>(config.seed), k,
                   std::string(testing::to_string(shape)).c_str(),
                   c.sys.iterations(), c.sys.cells, report.summary().c_str());
      if (!config.inject_oracle_bug) {
        shrink_and_save(c.sys, options, report, config,
                        "irfuzz-" + std::string(testing::to_string(shape)) +
                            "-seed" + std::to_string(config.seed) + "-case" +
                            std::to_string(k));
      }
    }
    const std::size_t mutation_rounds = 2;
    failures += fuzz_parsers(c.sys, rng, mutation_rounds);
    parser_probes += 2 * mutation_rounds;
  }

  if (config.inject_oracle_bug) {
    // Detector check: every case with at least one equation must be flagged.
    // (Shape classes guarantee non-empty systems except some boundary draws,
    // so a mostly-clean run means the detector is broken.)
    if (failures == 0) {
      std::fprintf(stderr,
                   "irfuzz: --inject-oracle-bug produced no detections — the "
                   "differential harness is not comparing anything\n");
      return 1;
    }
    std::printf("irfuzz: injected oracle bug detected in %zu/%zu cases\n", failures,
                config.cases);
    return 0;
  }

  std::printf("irfuzz: %zu cases, %zu engine runs, %zu parser probes, %zu failures "
              "(seed %llu)\n",
              config.cases, engines_run, parser_probes, failures,
              static_cast<unsigned long long>(config.seed));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (!parse_args(argc, argv, config)) return usage();
  try {
    if (!config.replay_files.empty()) return run_replay(config);
    if (config.selftest) return run_selftest(config);
    if (config.http_cases > 0) return run_http_differential(config);
    return run_fuzz(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "irfuzz: fatal: %s\n", e.what());
    return 1;
  }
}
