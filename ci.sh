#!/usr/bin/env bash
# CI entry point: tier-1 verify in Release, then an ASan/UBSan Debug pass
# over the tier1-labelled tests — the unit suites plus the checkpoint and
# serving smokes (benches off, portable codegen; the "slow" label — the
# train_cli smoke runs and long multi-rank convergence suites — is
# excluded to keep the sanitizer pass bounded on the 1-CPU container), then
# a ThreadSanitizer pass over the concurrency-heavy suites (prefetch
# pipeline, in-process collectives, DDP, embedding exchange, and the
# sharded-geometry training suites).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==== Release build + full ctest (tier-1 verify) ===="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "==== Debug + ASan/UBSan unit-test pass ===="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDLRM_SANITIZE=ON \
  -DDLRM_BUILD_BENCH=OFF \
  -DDLRM_NATIVE_ARCH=OFF
cmake --build build-asan -j "${JOBS}"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan -L tier1 --output-on-failure \
        -j "${JOBS}" --timeout 900

echo "==== Debug + TSan concurrency pass (prefetch/comm/ddp/exchange/sharding) ===="
# test_prefetch includes the randomized stall/early-shutdown soak over the
# multi-worker pipeline; test_prefetch_workers drives it through full
# training loops (worker-count loss parity + the dedicated eval stream).
# test_emb_cache races the hot-row tier against the concurrent update
# strategies; test_rebalance migrates shards (alltoallv) mid-training.
# test_serving races the load-generator, batcher, and snapshot-publisher
# threads through the bounded queue, the double-buffered snapshot handover,
# and the shared Profiler. test_async_ckpt races the training thread
# against the per-rank background checkpoint writers (staging handoff,
# back-pressure, cross-rank commit group); test_grad_accum runs the
# accumulation window across the multi-rank trainers. test_sharded_serving
# races the R serving-rank threads (broadcast/gather per micro-batch), the
# load generator, the admission-controlled queue, and the sharded snapshot
# handover. test_autotune drives the elastic-pipeline controller's rebuild +
# seek + prefill resize cycles through live training loops and the
# slow-loader/consumer-jitter soak.
TSAN_SUITES='test_prefetch|test_prefetch_workers|test_comm|test_ddp|test_exchange|test_sharding|test_emb_cache|test_rebalance|test_serving|test_sharded_serving|test_async_ckpt|test_grad_accum|test_autotune'
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDLRM_SANITIZE=thread \
  -DDLRM_BUILD_BENCH=OFF \
  -DDLRM_BUILD_EXAMPLES=OFF \
  -DDLRM_NATIVE_ARCH=OFF
cmake --build build-tsan -j "${JOBS}" \
  --target test_prefetch test_prefetch_workers test_comm test_ddp \
           test_exchange test_sharding test_emb_cache test_rebalance \
           test_serving test_sharded_serving test_async_ckpt \
           test_grad_accum test_autotune
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan -R "${TSAN_SUITES}" --output-on-failure \
        -j "${JOBS}" --timeout 1800

echo "CI OK"
