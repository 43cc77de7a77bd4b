#!/usr/bin/env bash
# Runs the named benchmark binaries and aggregates every BENCH_JSON row they
# emit into one machine-readable file: a JSON array, one element per row,
# each annotated with the binary it came from.
#
#   $ bench/collect_bench.sh <build-dir> <out.json> <bench> [bench ...]
#
# Any bench binary that emits BENCH_JSON rows can be named. There is no
# default output file and no default bench set: the caller names both.
# Raw logs land next to the output file.
set -euo pipefail

USAGE="usage: collect_bench.sh <build-dir> <out.json> <bench> [bench ...]"
if [ "$#" -lt 3 ]; then
  echo "${USAGE}" >&2
  exit 2
fi
BUILD_DIR="$1"
OUT="$2"
shift 2
BENCHES=("$@")

LOG_DIR="$(dirname "${OUT}")"
TMP_ROWS="$(mktemp "${TMPDIR:-/tmp}/bench_rows.XXXXXX")"
trap 'rm -f "${TMP_ROWS}"' EXIT

for b in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/${b}"
  if [ ! -x "${bin}" ]; then
    echo "collect_bench: skipping ${b} (not built at ${bin})" >&2
    continue
  fi
  log="${LOG_DIR}/${b}.log"
  echo "collect_bench: running ${b} ..." >&2
  "${bin}" > "${log}"
  # Re-tag each row with its source binary:  {"source":"<b>",<original row>}
  sed -n "s/^BENCH_JSON {/{\"source\":\"${b}\",/p" "${log}" >> "${TMP_ROWS}"
done

if [ ! -s "${TMP_ROWS}" ]; then
  echo "collect_bench: no BENCH_JSON rows produced" >&2
  exit 1
fi

{
  echo "["
  sed '$!s/$/,/' "${TMP_ROWS}"
  echo "]"
} > "${OUT}"
echo "collect_bench: $(wc -l < "${TMP_ROWS}") rows -> ${OUT}"
