#!/usr/bin/env bash
# Soak-smoke the irserve frontend (docs/service.md): pipeline many solve
# requests at a deliberately tiny queue with a slow injected operation
# (--inject-slow-ns) and per-request deadline pressure, then check the
# protocol and observability invariants that must survive overload:
#
#   * every solve is answered exactly once (ok or a typed error) in order,
#   * every ok reply carries a request id (rid=),
#   * control commands still answer under load (pong / stats v=2 / metrics /
#     drained / bye),
#   * the drained ledger balances: accepted == completed == replied,
#   * the slow-request log captured JSON lines (threshold 1 us, slow op
#     injected, so every executed request is "slow"),
#   * the Prometheus metrics file exists; when the build has telemetry the
#     service.latency summary is present with a non-zero quantile.
#
# A second pass exercises the persistent plan store (docs/plan_store.md) by
# route: one run populates a --plan-store directory, which keeps gir-cap
# plans only, then a RESTARTED irserve with --warm-start must answer the
# same request set with the gir-cap system preloaded (no compile), the
# ordinary chain compiled once, and byte-identical values.
#
# Run against a sanitizer build (CI runs it under TSan) this doubles as a
# race/leak check on the queue, coalescer, ticker, and reply-writer paths.
#
# Usage: tools/serve_soak.sh BUILD_DIR
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: tools/serve_soak.sh BUILD_DIR" >&2
  exit 2
fi
DIR="$1"
REQUESTS=150
SYS="${DIR}/serve-soak-system.ir"
OUT="${DIR}/serve-soak-out.txt"
SLOW_LOG="${DIR}/serve-soak-slow.jsonl"
PROM="${DIR}/serve-soak-metrics.prom"

rm -f "${SLOW_LOG}" "${PROM}"
"${DIR}/examples/irtool" gen chain 128 > "${SYS}"

{
  echo "ping"
  for ((i = 1; i <= REQUESTS; ++i)); do
    # Every 5th request carries a 1 ms deadline — with the injected slow op
    # and a backed-up queue these expire before dispatch on purpose.
    if ((i % 5 == 0)); then
      echo "solve id=${i} deadline_ms=1"
    else
      echo "solve id=${i}"
    fi
    cat "${SYS}"
    echo "."
  done
  echo "stats"
  echo "metrics"
  echo "drain"
  echo "quit"
} | "${DIR}/tools/irserve" \
      --inject-slow-ns=40000 --queue-cap=16 --high-watermark=12 \
      --low-watermark=4 --dispatchers=2 --max-batch=8 --ticker-ms=5 \
      --slow-log="${SLOW_LOG}" --slow-threshold-us=1 \
      --metrics-file="${PROM}" --metrics-interval-ms=50 \
      --metrics="${DIR}/serve-soak-metrics.json" > "${OUT}"

answered="$(grep -c -E '^(ok|error) ' "${OUT}" || true)"
if [[ "${answered}" != "${REQUESTS}" ]]; then
  echo "serve soak: expected ${REQUESTS} solve responses, got ${answered}" >&2
  exit 1
fi
for marker in '^pong$' '^stats v=2 ' '^drained ' '^bye$'; do
  if ! grep -q "${marker}" "${OUT}"; then
    echo "serve soak: missing '${marker}' in ${OUT}" >&2
    exit 1
  fi
done

# Every ok reply must carry the process-unique request id.
ok_count="$(grep -c -E '^ok ' "${OUT}" || true)"
rid_count="$(grep -c -E '^ok id=[0-9]+ rid=[0-9]+ ' "${OUT}" || true)"
if [[ "${ok_count}" != "${rid_count}" ]]; then
  echo "serve soak: ${ok_count} ok replies but only ${rid_count} carry rid=" >&2
  exit 1
fi

# The inline `metrics` scrape answers in Prometheus text ended by ".".
if ! grep -q '^# TYPE ir_' "${OUT}"; then
  echo "serve soak: 'metrics' reply carried no Prometheus text" >&2
  exit 1
fi

# The drained ledger must balance: every accepted request reached exactly one
# terminal edge and was replied to.
drained="$(grep -E '^drained ' "${OUT}" | tail -1)"
if ! grep -qE '^drained .*balanced=1' <<< "${drained}"; then
  echo "serve soak: drained ledger does not balance: ${drained}" >&2
  exit 1
fi

# Slow log: 1 us threshold + 40 us injected slow op => every executed request
# logged one JSON record.
if [[ ! -s "${SLOW_LOG}" ]] || ! grep -q '"request_id":' "${SLOW_LOG}"; then
  echo "serve soak: slow log ${SLOW_LOG} is empty or malformed" >&2
  exit 1
fi

# Prometheus file dump (periodic + final): must exist; with telemetry on, the
# latency summary must carry a non-zero p50 (telemetry-off builds expose only
# the service.stats ledger, so the check is conditional on the summary).
if [[ ! -s "${PROM}" ]]; then
  echo "serve soak: metrics file ${PROM} was not written" >&2
  exit 1
fi
if grep -q '^ir_service_latency_total_us_count' "${PROM}"; then
  p50="$(grep -E '^ir_service_latency_total_us\{quantile="0.5"\} ' "${PROM}" \
         | awk '{print $2}')"
  if [[ -z "${p50}" || "${p50}" == "0" ]]; then
    echo "serve soak: service.latency p50 missing or zero in ${PROM}" >&2
    exit 1
  fi
fi

echo "serve soak: ${REQUESTS} requests answered;" \
     "${ok_count} ok," \
     "$(grep -c -E '^error ' "${OUT}" || true) rejected/expired;" \
     "$(wc -l < "${SLOW_LOG}") slow-log records; ledger balanced"

# --- Warm start from a persistent plan store ---------------------------------
# Run 1 (cold) compiles two distinct systems and writes the gir-cap one (the
# fib system) through to the store — the chain routes to the ordinary scan
# engine, whose plan compiles faster than a stored copy verifies, so it is
# never stored.  Run 2 restarts against the same directory with --warm-start
# and must preload the fib plan and compile only the chain, with the values
# payloads byte-identical to the cold run's.
STORE="${DIR}/serve-soak-plan-store"
SYS2="${DIR}/serve-soak-system2.ir"
WARM_COLD="${DIR}/serve-soak-store-cold.txt"
WARM_HOT="${DIR}/serve-soak-store-warm.txt"
rm -rf "${STORE}"
"${DIR}/examples/irtool" gen fib 64 > "${SYS2}"

store_requests() {
  for ((i = 1; i <= 6; ++i)); do
    echo "solve id=${i}"
    if ((i % 2 == 0)); then cat "${SYS2}"; else cat "${SYS}"; fi
    echo "."
  done
  # drain first so the stats line reflects the final ledger, not a snapshot
  # taken while solves are still in flight.
  echo "drain"
  echo "stats"
  echo "quit"
}

store_requests | "${DIR}/tools/irserve" --plan-store="${STORE}" \
      --dispatchers=2 > "${WARM_COLD}"
store_requests | "${DIR}/tools/irserve" --plan-store="${STORE}" --warm-start \
      --dispatchers=2 > "${WARM_HOT}"

cold_stats="$(grep -E '^stats v=2 ' "${WARM_COLD}")"
warm_stats="$(grep -E '^stats v=2 ' "${WARM_HOT}")"
if ! grep -qE ' plan_store_puts=1( |$)' <<< "${cold_stats}"; then
  echo "serve soak: cold run did not persist exactly the fib plan: ${cold_stats}" >&2
  exit 1
fi
if ! grep -qE ' plan_compiles=1( |$)' <<< "${warm_stats}"; then
  echo "serve soak: warm-started server did not compile exactly the chain: ${warm_stats}" >&2
  exit 1
fi
if ! grep -qE ' plan_store_preloaded=1( |$)' <<< "${warm_stats}"; then
  echo "serve soak: warm start did not preload the fib plan: ${warm_stats}" >&2
  exit 1
fi
if ! diff <(grep '^values ' "${WARM_COLD}") <(grep '^values ' "${WARM_HOT}") \
     > /dev/null; then
  echo "serve soak: warm-started values differ from the cold run" >&2
  exit 1
fi

echo "serve soak: warm start served 6 requests from ${STORE}: the fib plan" \
     "preloaded, the chain compiled once; values byte-identical to the cold run"
