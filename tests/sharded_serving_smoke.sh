#!/usr/bin/env bash
# Sharded serving + admission control end-to-end smoke (ctest tier1).
#
# Three legs, each over a Poisson load:
#   sharded   — 2 serving ranks, round_robin plan; --check-serving requires
#               every served score to equal a per-request offline forward on
#               the source model, bit-for-bit (sharded parity);
#   row_split — 2 ranks with row-range shards (threshold forces splits) and
#               pow2 batch bucketing (a 24-sample budget, so full batches
#               always pad), the merge path under the same bit-exact check;
#   admission — 1-rank overload with a 60/40 interactive/batch mix
#               and an unreachable p99 target: batch traffic must shed,
#               interactive traffic must keep being served, and the
#               accounting must close (served + rejected + shed == offered).
#               Arrivals span 5 s, so the controller (which moves only on
#               served latencies) reaches `shed` while traffic is still
#               offered even where a micro-batch takes ~0.2 s (Debug+ASan).
set -euo pipefail

SERVE_CLI="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/dlrm_sharded_serve_smoke.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

run_leg() {
  local leg="$1"; shift
  local requests="$1"; shift
  "${SERVE_CLI}" --config=small --scale-rows=256 --scale-batch=16 \
      --qps=1000 --requests="${requests}" --fanout=4 --max-batch=32 \
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
  echo "${json#BENCH_JSON }" > "${WORK}/${leg}.json"
  echo "leg ${leg}: $(grep '^served' "${WORK}/${leg}.log")"
}

# Bit-exact sharded parity at 2 ranks, both plan geometries.
run_leg sharded 1500 --serve-ranks=2 --serve-sharding=round_robin
python3 -c '
import json
row = json.load(open("'"${WORK}"'/sharded.json"))
assert row["serve_ranks"] == 2, row
assert row["requests"] == 1500, row
assert row["throughput_rps"] > 0, row
assert row["shed"] == 0 and row["rejected"] == 0, row
'

run_leg row_split 1500 --serve-ranks=2 --serve-sharding=row_split \
    --row-split-threshold=64 --bucket-batches --max-batch=24 --profile
grep -q '^serve_padded' "${WORK}/row_split.log" || {
  echo "FAIL(row_split): --bucket-batches padded no batch" >&2
  exit 1
}
python3 -c '
import json
row = json.load(open("'"${WORK}"'/row_split.json"))
assert row["sharding"] == "row_split", row
assert row["requests"] == 1500, row
assert row["p50_ms"] > 0 and row["p50_ms"] <= row["p99_ms"], row
'

# Admission control under a 2-class overload: offered 8x the sustainable
# rate with an unreachable target; batch must shed, interactive must not,
# and served + rejected + shed == offered (checked again by serve_cli).
"${SERVE_CLI}" --config=small --scale-rows=256 --scale-batch=16 \
    --qps=8000 --requests=40000 --fanout=4 --max-batch=32 --max-wait-us=1000 \
    --queue-cap=64 --slo-class-mix=0.6 --p99-target-us=1000 \
    --drop-when-full --check-serving > "${WORK}/admission.log" || {
  echo "FAIL(admission): serve_cli exited nonzero" >&2
  cat "${WORK}/admission.log" >&2
  exit 1
}
grep -q '^CHECK OK' "${WORK}/admission.log" || {
  echo "FAIL(admission): accounting check did not pass" >&2
  cat "${WORK}/admission.log" >&2
  exit 1
}
grep '^BENCH_JSON' "${WORK}/admission.log" | sed 's/^BENCH_JSON //' \
    | python3 -c '
import json, sys
row = json.loads(sys.stdin.read())
assert row["shed"] > 0, ("no batch traffic was shed", row)
assert row["interactive_frac"] == 0.6, row
assert row["admission_state"] in ("defer", "shed"), row
# Interactive requests kept flowing while batch was shed.
assert row["interactive_p99_ms"] > 0, row
'
echo "leg admission: $(grep '^served' "${WORK}/admission.log")"

echo "sharded serving smoke OK"
