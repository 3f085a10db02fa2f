#!/usr/bin/env bash
# Full verification flow: tier-1 build + tests in the default (telemetry-ON)
# configuration, then a second configure/build/test pass with -DIR_TELEMETRY=OFF
# to prove the macros compile to no-ops and the solvers still pass.  Every
# configuration also runs the bounded differential fuzzer (irfuzz --smoke +
# --selftest), so the engine sweep and the shrinker are exercised on each pass.
#
# Usage: tools/verify.sh [--asan] [--lint] [--tidy] [--annotations] [--serve]
#                        [--store] [--http] [--bench-report] [build-dir-prefix]
#   (default prefix: build)
#   --asan   add a third pass built with -DIR_SANITIZE=address;undefined
#   --lint   statically certify every corpus witness and generated schedule
#            with `irtool lint` (exit 0 = certified, 1 = violation, 2 = usage),
#            the cost analyzer included (--cost), and whole-store-audit the
#            exported corpus plans (`irtool audit`: 0 = clean, 1 = rejects,
#            2 = usage/IO), plus a full test pass built with
#            -DIR_VERIFY_PLANS=ON so every plan the suite compiles goes
#            through the verifier on cache insert
#   --tidy   run clang-tidy (.clang-tidy profile) over src/ tools/ examples/
#            bench/ tests/ — skipped with a loud warning when run-clang-tidy
#            or clang-tidy is not installed
#   --annotations  build with clang and -DIR_THREAD_SAFETY=ON so the
#            capability annotations (src/support/thread_annotations.hpp) are
#            compiler-proved with -Wthread-safety promoted to errors —
#            skipped with a loud warning when clang++ is not installed
#   --serve  soak-smoke the irserve batch-solve frontend under injected-slow
#            load and deadline pressure (tools/serve_soak.sh) in every
#            configuration this invocation builds; the soak includes the
#            plan-store warm-start restart leg (docs/plan_store.md)
#   --http   exercise the multi-tenant HTTP tier in every configuration this
#            invocation builds: irfuzz's --http differential leg (random
#            systems round-tripped through POST /v1/solve, byte-compared
#            against the sequential oracle) plus the two-tenant irload soak
#            (tools/http_soak.sh — keep-alive, fair share, confined 429s,
#            balanced ledger)
#   --store  round-trip every corpus witness through the binary plan store:
#            irtool plan export --engine=gir into a store directory (stores
#            hold gir-cap plans only), re-import (full validation + static
#            verification) + info on every entry, prove an auto export of an
#            ordinary witness exits 1 and a corrupted entry is rejected, then
#            run the warm-start serve soak (skipped if --serve already ran it
#            for this configuration)
#   --bench-report  run all four benches quick-mode with --report=BENCH_*.json
#            in both telemetry configurations, schema-validate the reports
#            (tools/check_bench_json.py), and diff them against the committed
#            baseline in bench/baseline/ (tools/bench_compare.py --warn-only;
#            warn-only because verify machines differ from the baseline host)
set -euo pipefail

cd "$(dirname "$0")/.."

ASAN=0
LINT=0
TIDY=0
ANNOTATIONS=0
SERVE=0
STORE=0
HTTP=0
BENCH_REPORT=0
PREFIX="build"
for arg in "$@"; do
  case "${arg}" in
    --asan) ASAN=1 ;;
    --lint) LINT=1 ;;
    --tidy) TIDY=1 ;;
    --annotations) ANNOTATIONS=1 ;;
    --serve) SERVE=1 ;;
    --store) STORE=1 ;;
    --http) HTTP=1 ;;
    --bench-report) BENCH_REPORT=1 ;;
    *) PREFIX="${arg}" ;;
  esac
done

# Plan-store round trip over the corpus: every witness exports as a gir-cap
# plan (--engine=gir fits any system), every export re-imports under full
# validation + static verification, an auto export of an ordinary witness is
# refused with exit 1, and a flipped byte anywhere in an entry must be
# rejected before execution.
run_store_leg() {
  local dir="$1"
  local store="${dir}/plan-store-leg"
  rm -rf "${store}"
  for f in tests/corpus/*.ir; do
    "${dir}/examples/irtool" plan export "${f}" "${store}" --engine=gir >/dev/null
  done
  local rc=0
  "${dir}/examples/irtool" plan export tests/corpus/chain-blocked-fixups.ir "${store}" \
      --engine=auto >/dev/null 2>&1 || rc=$?
  if [[ "${rc}" != 1 ]]; then
    echo "store leg: auto export of an ordinary witness must exit 1, got ${rc}" >&2
    exit 1
  fi
  local count=0
  for p in "${store}"/*.irplan; do
    "${dir}/examples/irtool" plan import "${p}" >/dev/null
    "${dir}/examples/irtool" plan info "${p}" >/dev/null
    count=$((count + 1))
  done
  local victim bad
  victim="$(find "${store}" -name '*.irplan' | head -1)"
  bad="${dir}/plan-store-corrupt.irplan"
  cp "${victim}" "${bad}"
  printf '\xff' | dd of="${bad}" bs=1 seek=200 count=1 conv=notrunc 2>/dev/null
  if "${dir}/examples/irtool" plan import "${bad}" >/dev/null 2>&1; then
    echo "store leg: corrupted plan import unexpectedly succeeded" >&2
    exit 1
  fi
  # A version-3 header (text fingerprints) is refused by name: plan info
  # exits 1 and says why.
  local stale="${dir}/plan-store-v3.irplan" why
  cp "${victim}" "${stale}"
  printf '\x03' | dd of="${stale}" bs=1 seek=12 count=1 conv=notrunc 2>/dev/null
  rc=0
  why="$("${dir}/examples/irtool" plan info "${stale}" 2>&1 >/dev/null)" || rc=$?
  if [[ "${rc}" != 1 || "${why}" != *"v3 fingerprints hash the system text"* ]]; then
    echo "store leg: a v3 plan file must exit 1 naming v3, got ${rc}: ${why}" >&2
    exit 1
  fi
  echo "store leg: ${count} corpus plans exported + re-imported; ordinary auto export," \
       "corruption and a v3 header rejected"
  if [[ "${SERVE}" != "1" ]]; then
    tools/serve_soak.sh "${dir}"
  fi
}

# Quick-mode bench sweep writing BENCH_*.json into DIR/bench-reports, then
# schema validation + baseline comparison.
run_bench_reports() {
  local dir="$1"
  local out="${dir}/bench-reports"
  mkdir -p "${out}"
  "${dir}/bench/bench_plan_reuse" --smoke --report="${out}/BENCH_plan_reuse.json"
  "${dir}/bench/bench_service_throughput" --smoke \
      --report="${out}/BENCH_service_throughput.json"
  "${dir}/bench/bench_fig3_pram" --smoke --report="${out}/BENCH_fig3_pram.json"
  "${dir}/bench/bench_speedup_threads" --benchmark_min_time=0.01 \
      --benchmark_filter=/100000 --report="${out}/BENCH_speedup_threads.json" \
      >/dev/null
  python3 tools/check_bench_json.py "${out}"/BENCH_*.json
  python3 tools/bench_compare.py --warn-only bench/baseline "${out}"
}

run_suite() {
  local dir="$1"
  ctest --test-dir "${dir}" --output-on-failure -j"$(nproc)"
  "${dir}/tools/irfuzz" --smoke --corpus="${dir}/fuzz-corpus"
  "${dir}/tools/irfuzz" --selftest
  "${dir}/tools/irfuzz" tests/corpus/*.ir
  if [[ "${SERVE}" == "1" ]]; then
    tools/serve_soak.sh "${dir}"
  fi
  if [[ "${STORE}" == "1" ]]; then
    run_store_leg "${dir}"
  fi
  if [[ "${HTTP}" == "1" ]]; then
    "${dir}/tools/irfuzz" --http=24
    tools/http_soak.sh "${dir}"
  fi
}

echo "== telemetry ON: configure + build + ctest + irfuzz =="
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j"$(nproc)"
run_suite "${PREFIX}"

echo "== telemetry ON: bench_plan_reuse + bench_service_throughput smoke =="
"${PREFIX}/bench/bench_plan_reuse" --smoke --metrics="${PREFIX}/plan_reuse_smoke.json"
"${PREFIX}/bench/bench_service_throughput" --smoke --metrics="${PREFIX}/service_smoke.json"

if [[ "${BENCH_REPORT}" == "1" ]]; then
  echo "== telemetry ON: BENCH_*.json reports + schema check + baseline diff =="
  run_bench_reports "${PREFIX}"
fi

echo "== telemetry OFF: configure + build + ctest + irfuzz =="
cmake -B "${PREFIX}-notelemetry" -S . -DIR_TELEMETRY=OFF >/dev/null
cmake --build "${PREFIX}-notelemetry" -j"$(nproc)"
run_suite "${PREFIX}-notelemetry"

echo "== telemetry OFF: bench_plan_reuse + bench_service_throughput smoke =="
"${PREFIX}-notelemetry/bench/bench_plan_reuse" --smoke
"${PREFIX}-notelemetry/bench/bench_service_throughput" --smoke

if [[ "${BENCH_REPORT}" == "1" ]]; then
  echo "== telemetry OFF: BENCH_*.json reports + schema check + baseline diff =="
  run_bench_reports "${PREFIX}-notelemetry"
fi

if [[ "${LINT}" == "1" ]]; then
  echo "== lint: irtool lint --cost over corpus witnesses and generated systems =="
  for f in tests/corpus/*.ir; do
    "${PREFIX}/examples/irtool" lint "${f}" --cost
  done
  for spec in "chain 64" "fib 48" "random 40 7" "random 40 8"; do
    # shellcheck disable=SC2086  # word-splitting the spec is the point
    "${PREFIX}/examples/irtool" gen ${spec} | "${PREFIX}/examples/irtool" lint - --cost
  done

  echo "== lint: irtool audit over the exported corpus store =="
  audit_store="${PREFIX}/verify-audit-store"
  rm -rf "${audit_store}"
  for f in tests/corpus/*.ir; do
    "${PREFIX}/examples/irtool" plan export "${f}" "${audit_store}" --engine=gir >/dev/null
  done
  "${PREFIX}/examples/irtool" audit "${audit_store}"

  echo "== lint: IR_VERIFY_PLANS=ON build + ctest (verifier on every cache insert) =="
  cmake -B "${PREFIX}-verifyplans" -S . -DIR_VERIFY_PLANS=ON >/dev/null
  cmake --build "${PREFIX}-verifyplans" -j"$(nproc)"
  ctest --test-dir "${PREFIX}-verifyplans" --output-on-failure -j"$(nproc)"
fi

if [[ "${TIDY}" == "1" ]]; then
  if command -v run-clang-tidy >/dev/null 2>&1 && command -v clang-tidy >/dev/null 2>&1; then
    echo "== tidy: clang-tidy over src/ tools/ examples/ bench/ tests/ =="
    cmake -B "${PREFIX}-tidy" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    run-clang-tidy -p "${PREFIX}-tidy" -quiet \
      "$(pwd)/(src|tools|examples|bench|tests)/.*\.cpp$"
  else
    echo "WARNING: --tidy requested but run-clang-tidy/clang-tidy is not installed;" >&2
    echo "WARNING: the clang-tidy leg was SKIPPED (CI runs it on every push)." >&2
  fi
fi

if [[ "${ANNOTATIONS}" == "1" ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    echo "== annotations: clang -Wthread-safety build (violations are errors) =="
    cmake -B "${PREFIX}-threadsafety" -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DIR_THREAD_SAFETY=ON >/dev/null
    cmake --build "${PREFIX}-threadsafety" -j"$(nproc)"
    ctest --test-dir "${PREFIX}-threadsafety" --output-on-failure -j"$(nproc)"
  else
    echo "WARNING: --annotations requested but clang++ is not installed;" >&2
    echo "WARNING: the -Wthread-safety leg was SKIPPED (CI runs it on every push)." >&2
  fi
fi

if [[ "${ASAN}" == "1" ]]; then
  echo "== ASan/UBSan: configure + build + ctest + irfuzz =="
  cmake -B "${PREFIX}-asan" -S . -DIR_SANITIZE="address;undefined" >/dev/null
  cmake --build "${PREFIX}-asan" -j"$(nproc)"
  run_suite "${PREFIX}-asan"
fi

echo "== verify: all green =="
