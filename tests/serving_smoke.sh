#!/usr/bin/env bash
# serve_cli end-to-end smoke (ctest tier1).
#
# Two legs over a ~2-second Poisson load:
#   frozen    — one published snapshot; --check-serving additionally
#               requires every served score to equal a per-request offline
#               forward on the source model, bit-for-bit;
#   republish — serve-while-training: snapshots republished and handed
#               over at micro-batch boundaries while the load runs.
# Both legs must answer every request, report nonzero throughput, and emit
# a parseable BENCH_JSON row.
set -euo pipefail

SERVE_CLI="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/dlrm_serve_smoke.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

run_leg() {
  local leg="$1"; shift
  "${SERVE_CLI}" --config=small --scale-rows=256 --scale-batch=16 \
      --qps=1000 --requests=2000 --fanout=4 --max-batch=32 \
      --max-wait-us=1000 --check-serving "$@" > "${WORK}/${leg}.log" || {
    echo "FAIL(${leg}): serve_cli exited nonzero" >&2
    cat "${WORK}/${leg}.log" >&2
    exit 1
  }
  grep -q '^CHECK OK' "${WORK}/${leg}.log" || {
    echo "FAIL(${leg}): serving check did not pass" >&2
    cat "${WORK}/${leg}.log" >&2
    exit 1
  }
  local json
  json="$(grep '^BENCH_JSON' "${WORK}/${leg}.log")"
  [[ -n "${json}" ]] || {
    echo "FAIL(${leg}): no BENCH_JSON row" >&2
    exit 1
  }
  # Parseable row with nonzero throughput and all requests answered.
  echo "${json#BENCH_JSON }" | python3 -c '
import json, sys
row = json.loads(sys.stdin.read())
assert row["requests"] == 2000, row
assert row["throughput_rps"] > 0, row
assert row["p50_ms"] > 0 and row["p50_ms"] <= row["p99_ms"], row
assert row["mean_batch"] >= 1, row
' || {
    echo "FAIL(${leg}): BENCH_JSON row unparseable or inconsistent" >&2
    echo "${json}" >&2
    exit 1
  }
  echo "leg ${leg}: $(grep '^served' "${WORK}/${leg}.log")"
}

run_leg frozen
run_leg republish --publish-every=250

echo "serving smoke OK"
