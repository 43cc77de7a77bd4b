// Sharded serving tier + admission control.
//
//   * Bit-exact parity: ShardedInferenceEngine::run_trace vs offline
//     per-request DlrmModel forwards on the source model over the full
//     R∈{1,2,4} × {round_robin, row_split} × {fp32, bf16} matrix, plus the
//     pow2-bucketed and checkpoint-publication paths.
//   * AdmissionController unit behaviour: hysteresis state walk under
//     synthetic p99 pressure, batch-class records never move the window.
//   * RequestQueue: strict-priority draining, shed/defer counters, batch
//     re-admission after recovery.
//   * Engine-level integration: a 2-class mix against a throttled target
//     sheds batch traffic while interactive requests keep being served,
//     with closed accounting.
//   * Live sharded serving under load + snapshot handover (the TSan leg).
//   * Rank-owned compute pools: live R=1 serving next to a concurrent
//     Trainer::train, and R∈{2,4} start/submit/stop plus R=2 run_trace
//     loops, with a host pool larger than the rank count.
#include "serve/sharded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "core/trainer.hpp"
#include "counting_dataset.hpp"
#include "serve/loadgen.hpp"

namespace dlrm {
namespace {

// Size the host pool to 8 threads before anything creates it, so every
// serving rank at R <= 4 owns a pool of at least two threads and the pool
// tests below exercise real worker dispatch on any core count.
const bool kHostPoolSized = setenv("DLRM_NUM_THREADS", "8", 1) == 0;

namespace fs = std::filesystem;
using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::AdmissionState;
using serve::LoadGenOptions;
using serve::offline_scores;
using serve::PoissonLoadGen;
using serve::PopStatus;
using serve::Request;
using serve::RequestQueue;
using serve::Response;
using serve::ShardedEngineOptions;
using serve::ShardedInferenceEngine;
using serve::ShardedSnapshot;
using serve::SloClass;
using serve::SubmitResult;

DlrmConfig serve_config(Precision mlp = Precision::kFp32) {
  DlrmConfig c;
  c.name = "serve-tiny";
  c.minibatch = 32;
  c.global_batch_strong = 32;
  c.local_batch_weak = 16;
  c.pooling = 2;
  c.dim = 16;
  c.table_rows = {120, 90, 140, 60};
  c.bottom_mlp = {8, 16, 16};
  c.top_mlp = {16, 8, 1};
  c.mlp_precision = mlp;
  c.validate();
  return c;
}

RandomDataset serve_data(const DlrmConfig& c) {
  return RandomDataset(c.bottom_mlp.front(), c.table_rows, c.pooling, 11);
}

ModelOptions model_options(Precision mlp) {
  ModelOptions mopts;
  mopts.embed_precision = mlp == Precision::kBf16 ? EmbedPrecision::kBf16Split
                                                  : EmbedPrecision::kFp32;
  return mopts;
}

ShardingPlan make_plan(const DlrmConfig& c, int ranks, bool row_split) {
  if (!row_split) return ShardingPlan::round_robin(c.table_rows, ranks);
  // Uniform costs; threshold 64 splits three of the four tables.
  const std::vector<double> costs(c.table_rows.size(), 1.0);
  return ShardingPlan::row_split(c.table_rows, ranks, costs,
                                 /*row_threshold=*/64);
}

std::vector<Request> fixed_trace() {
  LoadGenOptions lopts;
  lopts.qps = 1e6;  // stamps only; run_trace ignores pacing
  lopts.requests = 60;
  lopts.fanout = 3;
  lopts.key_space = 4096;
  lopts.zipf_s = 0.9;
  lopts.seed = 5;
  return serve::make_trace(lopts);
}

/// Per-request micro-batch sample count under run_trace's greedy rule:
/// whole requests in order until the next would exceed `max_batch`.
std::vector<std::int64_t> greedy_batches(const std::vector<Request>& trace,
                                         std::int64_t max_batch) {
  std::vector<std::int64_t> out(trace.size());
  std::size_t first = 0;
  std::int64_t samples = 0;
  for (std::size_t i = 0; i <= trace.size(); ++i) {
    if (i == trace.size() ||
        (i > first && samples + trace[i].fanout > max_batch)) {
      for (std::size_t j = first; j < i; ++j) out[j] = samples;
      first = i;
      samples = 0;
    }
    if (i < trace.size()) samples += trace[i].fanout;
  }
  return out;
}

std::int64_t next_pow2(std::int64_t n) {
  std::int64_t p = 1;
  while (p < n) p *= 2;
  return p;
}

void expect_matches_offline(const std::vector<Response>& got,
                            const std::vector<Request>& trace,
                            const std::vector<float>& want,
                            std::int64_t max_batch) {
  const std::vector<std::int64_t> batch = greedy_batches(trace, max_batch);
  ASSERT_EQ(got.size(), trace.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, trace[i].id) << "request " << i;
    EXPECT_EQ(got[i].batch, batch[i]) << "request " << i;
    // Bitwise: EXPECT_EQ on float, not NEAR.
    EXPECT_EQ(got[i].score0, want[i]) << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Bit-exact parity matrix

using ParityParam = std::tuple<int, bool, Precision>;  // ranks, row_split, mlp

class ShardedParityTest : public ::testing::TestWithParam<ParityParam> {};

TEST_P(ShardedParityTest, MatchesSingleProcessBitExact) {
  const auto [ranks, row_split, mlp] = GetParam();
  const DlrmConfig c = serve_config(mlp);
  const ModelOptions mopts = model_options(mlp);
  const RandomDataset data = serve_data(c);
  const ShardingPlan plan = make_plan(c, ranks, row_split);
  // A table splits into at most `ranks` shards, so R=1 degenerates to
  // full-table placement (still a distinct code path worth the cell).
  if (row_split && ranks > 1) {
    ASSERT_TRUE(plan.has_split_tables());
  }

  DlrmModel model(c, mopts, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(4);

  ShardedSnapshot sharded_snap(c, mopts, plan);
  sharded_snap.publish_from(model, trainer.iterations_done());

  const std::vector<Request> trace = fixed_trace();
  ShardedEngineOptions sopts;
  sopts.policy = {.max_batch = 8, .max_wait_us = 0};
  ShardedInferenceEngine engine(sharded_snap, data, sopts);
  ASSERT_EQ(engine.ranks(), ranks);
  const std::vector<Response> got = engine.run_trace(trace);

  expect_matches_offline(got, trace, offline_scores(model, data, trace),
                         sopts.policy.max_batch);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShardedParityTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool(),
                       ::testing::Values(Precision::kFp32, Precision::kBf16)),
    [](const ::testing::TestParamInfo<ParityParam>& tpi) {
      return "R" + std::to_string(std::get<0>(tpi.param)) +
             (std::get<1>(tpi.param) ? "_row_split_" : "_round_robin_") +
             std::string(to_string(std::get<2>(tpi.param)));
    });

// Each serving rank builds its share of a micro-batch (its shards' tables,
// and on rank 0 the split tables' bags and the dense slab) in ONE generator
// pass per request. With one request per micro-batch that is exactly one
// call per served batch per rank; two requests per batch make two.
TEST(ShardedServing, OneGeneratorPassPerRequestPerRank) {
  const DlrmConfig c = serve_config();
  const RandomDataset inner = serve_data(c);
  CountingDataset data(inner);
  const std::vector<Request> trace = fixed_trace();  // fanout 3
  for (const int ranks : {1, 2, 4}) {
    for (const bool row_split : {false, true}) {
      for (const std::int64_t per_batch : {1, 2}) {
        SCOPED_TRACE("R" + std::to_string(ranks) +
                     (row_split ? " row_split" : " round_robin") + " x" +
                     std::to_string(per_batch));
        ShardedSnapshot snap(c, model_options(Precision::kFp32),
                             make_plan(c, ranks, row_split));
        ShardedEngineOptions sopts;
        sopts.policy = {.max_batch = 3 * per_batch, .max_wait_us = 0};
        ShardedInferenceEngine engine(snap, data, sopts);
        data.reset();
        ASSERT_EQ(engine.run_trace(trace).size(), trace.size());
        const std::int64_t batches = engine.stats().batches;
        EXPECT_EQ(batches * per_batch,
                  static_cast<std::int64_t>(trace.size()));
        EXPECT_EQ(data.calls(), ranks * batches * per_batch);
      }
    }
  }
}

// Pow2 bucketing: with bucket_batches set, each micro-batch is padded to the
// next power of two before the broadcast (every rank sees the padded
// request list), the padding is exactly next_pow2(batch) - batch rows per
// micro-batch, and the real scores stay bitwise identical to the offline
// forwards. Regression for the bug where ShardedEngineOptions silently
// ignored bucketing altogether.
TEST(ShardedServing, Pow2BucketingMatchesSingleProcessBitExact) {
  for (const Precision mlp : {Precision::kFp32, Precision::kBf16}) {
    for (const int ranks : {1, 2, 4}) {
      for (const bool row_split : {false, true}) {
        SCOPED_TRACE("R" + std::to_string(ranks) +
                     (row_split ? " row_split " : " round_robin ") +
                     to_string(mlp));
        const DlrmConfig c = serve_config(mlp);
        const ModelOptions mopts = model_options(mlp);
        const RandomDataset data = serve_data(c);
        const ShardingPlan plan = make_plan(c, ranks, row_split);

        DlrmModel model(c, mopts, /*seed=*/21);
        Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
        trainer.train(4);

        ShardedSnapshot sharded_snap(c, mopts, plan);
        sharded_snap.publish_from(model, trainer.iterations_done());

        // 60 requests x fanout 3 at max_batch 8: micro-batches of up to 24
        // samples, never a power of two unless padded.
        const std::vector<Request> trace = fixed_trace();
        ShardedEngineOptions sopts;
        sopts.policy = {.max_batch = 8, .max_wait_us = 0};
        sopts.bucket_batches = true;
        Profiler prof;
        ShardedInferenceEngine engine(sharded_snap, data, sopts, &prof);
        const std::vector<Response> got = engine.run_trace(trace);

        // Padding, summed once per micro-batch of the greedy packing.
        const std::vector<std::int64_t> batch =
            greedy_batches(trace, sopts.policy.max_batch);
        std::int64_t want_padded = 0;
        for (std::size_t i = 0; i < trace.size();) {
          const std::int64_t b = batch[i];
          want_padded += next_pow2(b) - b;
          for (std::int64_t seen = 0; seen < b; ++i) seen += trace[i].fanout;
        }
        EXPECT_GT(want_padded, 0);
        EXPECT_EQ(prof.total_sec("serve_padded"),
                  static_cast<double>(want_padded));

        expect_matches_offline(got, trace, offline_scores(model, data, trace),
                               sopts.policy.max_batch);
      }
    }
  }
}

// Checkpoint publication: a sharded snapshot restored from a checkpoint
// directory (cross-geometry resharding included) serves bit-identically to
// offline forwards on the model that wrote the checkpoint.
TEST(ShardedServing, CheckpointPublicationServesIdentically) {
  const DlrmConfig c = serve_config(Precision::kBf16);
  const ModelOptions mopts = model_options(Precision::kBf16);
  const RandomDataset data = serve_data(c);
  const fs::path dir = fs::temp_directory_path() / "dlrm_sharded_serve_ckpt";
  fs::remove_all(dir);

  DlrmModel model(c, mopts, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(4);
  trainer.save_checkpoint(dir.string());

  const ShardingPlan plan = make_plan(c, /*ranks=*/2, /*row_split=*/true);
  ShardedSnapshot sharded_snap(c, mopts, plan);
  sharded_snap.publish_from_checkpoint(dir.string());
  EXPECT_EQ(sharded_snap.version(), trainer.iterations_done());

  const std::vector<Request> trace = fixed_trace();
  ShardedEngineOptions sopts;
  sopts.policy = {.max_batch = 8, .max_wait_us = 0};
  ShardedInferenceEngine engine(sharded_snap, data, sopts);
  expect_matches_offline(engine.run_trace(trace), trace,
                         offline_scores(model, data, trace),
                         sopts.policy.max_batch);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// AdmissionController unit behaviour

AdmissionOptions tight_admission() {
  AdmissionOptions a;
  a.p99_target_ms = 10.0;  // defer at 7, shed at 9, exit at 6
  a.window = 8;
  a.min_samples = 4;
  return a;
}

TEST(Admission, HysteresisStateWalk) {
  AdmissionController ctrl(tight_admission());
  EXPECT_EQ(ctrl.state(), AdmissionState::kOpen);

  // Below min_samples: no transitions no matter how bad the latency.
  ctrl.record(SloClass::kInteractive, 100.0);
  ctrl.record(SloClass::kInteractive, 100.0);
  ctrl.record(SloClass::kInteractive, 100.0);
  EXPECT_EQ(ctrl.state(), AdmissionState::kOpen);

  // Fourth sample reaches min_samples; p99 (window max) = 100 >= 9 -> shed.
  ctrl.record(SloClass::kInteractive, 100.0);
  EXPECT_EQ(ctrl.state(), AdmissionState::kShed);
  EXPECT_TRUE(ctrl.shed_batch());
  EXPECT_TRUE(ctrl.hold_batch());

  // Recovery below the shed threshold but above exit: still shedding
  // (hysteresis) until the window's p99 drops to <= 6.
  for (int i = 0; i < 7; ++i) ctrl.record(SloClass::kInteractive, 8.0);
  EXPECT_EQ(ctrl.state(), AdmissionState::kShed);
  ctrl.record(SloClass::kInteractive, 8.0);  // 100 ages out, p99 = 8 > 6
  EXPECT_EQ(ctrl.state(), AdmissionState::kShed);
  for (int i = 0; i < 8; ++i) ctrl.record(SloClass::kInteractive, 1.0);
  EXPECT_EQ(ctrl.state(), AdmissionState::kOpen);
  EXPECT_FALSE(ctrl.hold_batch());

  // Mid-band entry: p99 in [defer, shed) defers without shedding.
  for (int i = 0; i < 8; ++i) ctrl.record(SloClass::kInteractive, 8.0);
  EXPECT_EQ(ctrl.state(), AdmissionState::kDefer);
  EXPECT_FALSE(ctrl.shed_batch());
  EXPECT_TRUE(ctrl.hold_batch());
  // Defer escalates to shed when p99 crosses the shed threshold.
  ctrl.record(SloClass::kInteractive, 50.0);
  EXPECT_EQ(ctrl.state(), AdmissionState::kShed);
}

TEST(Admission, BatchRecordsNeverMoveTheWindow) {
  AdmissionController ctrl(tight_admission());
  for (int i = 0; i < 32; ++i) ctrl.record(SloClass::kBatch, 1000.0);
  EXPECT_EQ(ctrl.state(), AdmissionState::kOpen);
  EXPECT_EQ(ctrl.samples(), 0);
  EXPECT_EQ(ctrl.rolling_p99_ms(), 0.0);
}

TEST(Admission, DisabledControllerNeverTransitions) {
  AdmissionController ctrl(AdmissionOptions{});  // p99_target_ms = 0
  for (int i = 0; i < 64; ++i) ctrl.record(SloClass::kInteractive, 1e6);
  EXPECT_EQ(ctrl.state(), AdmissionState::kOpen);
  EXPECT_FALSE(ctrl.shed_batch());
  EXPECT_FALSE(ctrl.hold_batch());
}

// ---------------------------------------------------------------------------
// RequestQueue: strict priority, shed, defer, re-admission

Request make_req(std::int64_t id, SloClass slo) {
  Request r;
  r.id = id;
  r.key = id;
  r.fanout = 1;
  r.submit_sec = now_sec();
  r.slo = slo;
  return r;
}

TEST(RequestQueueTest, StrictPriorityDraining) {
  RequestQueue q(/*capacity_per_class=*/8, AdmissionOptions{});
  q.open();
  ASSERT_EQ(q.submit(make_req(1, SloClass::kBatch), false), SubmitResult::kOk);
  ASSERT_EQ(q.submit(make_req(2, SloClass::kBatch), false), SubmitResult::kOk);
  ASSERT_EQ(q.submit(make_req(3, SloClass::kInteractive), false),
            SubmitResult::kOk);

  Request r;
  ASSERT_TRUE(q.pop_first(r));
  EXPECT_EQ(r.id, 3);  // interactive jumps the earlier batch arrivals
  ASSERT_TRUE(q.pop_first(r));
  EXPECT_EQ(r.id, 1);
  ASSERT_TRUE(q.pop_first(r));
  EXPECT_EQ(r.id, 2);
  q.close();
  EXPECT_FALSE(q.pop_first(r));
}

TEST(RequestQueueTest, ShedsBatchUnderSyntheticP99Pressure) {
  AdmissionOptions a = tight_admission();
  a.min_samples = 1;
  RequestQueue q(/*capacity_per_class=*/8, a);
  q.open();
  // One terrible interactive latency flips the controller to kShed.
  q.record_latency(SloClass::kInteractive, 1000.0);
  EXPECT_EQ(q.admission_state(), AdmissionState::kShed);

  EXPECT_EQ(q.submit(make_req(1, SloClass::kBatch), false),
            SubmitResult::kShed);
  EXPECT_EQ(q.submit(make_req(2, SloClass::kBatch), true), SubmitResult::kShed);
  // Interactive traffic is never shed.
  EXPECT_EQ(q.submit(make_req(3, SloClass::kInteractive), false),
            SubmitResult::kOk);

  const auto counters = q.counters();
  EXPECT_EQ(counters.shed[1], 2);
  EXPECT_EQ(counters.shed[0], 0);
  EXPECT_EQ(counters.admitted[0], 1);
  q.close();
}

TEST(RequestQueueTest, DefersThenReadmitsBatchWithHysteresis) {
  AdmissionOptions a = tight_admission();
  a.min_samples = 1;
  a.window = 4;
  RequestQueue q(/*capacity_per_class=*/8, a);
  q.open();
  ASSERT_EQ(q.submit(make_req(1, SloClass::kBatch), false), SubmitResult::kOk);

  // p99 = 8ms: defer band. The queued batch request is held, not dropped.
  q.record_latency(SloClass::kInteractive, 8.0);
  EXPECT_EQ(q.admission_state(), AdmissionState::kDefer);
  Request r;
  EXPECT_EQ(q.pop_fitting(/*budget=*/4, /*deadline_sec=*/now_sec() + 0.01, r),
            PopStatus::kTimeout);
  EXPECT_EQ(q.counters().deferred[1], 1);

  // Recovery: window floods with good latencies, batch drains again.
  for (int i = 0; i < 4; ++i) q.record_latency(SloClass::kInteractive, 1.0);
  EXPECT_EQ(q.admission_state(), AdmissionState::kOpen);
  ASSERT_EQ(q.pop_fitting(/*budget=*/4, now_sec() + 0.01, r),
            PopStatus::kPopped);
  EXPECT_EQ(r.id, 1);
  q.close();
}

TEST(RequestQueueTest, CloseDrainsHeldBatchWork) {
  AdmissionOptions a = tight_admission();
  a.min_samples = 1;
  RequestQueue q(/*capacity_per_class=*/8, a);
  q.open();
  ASSERT_EQ(q.submit(make_req(7, SloClass::kBatch), false), SubmitResult::kOk);
  q.record_latency(SloClass::kInteractive, 1000.0);  // hold the batch class
  q.close();
  // Shutdown drain ignores the hold: admitted work is always served.
  Request r;
  ASSERT_TRUE(q.pop_first(r));
  EXPECT_EQ(r.id, 7);
  EXPECT_FALSE(q.pop_first(r));
}

// ---------------------------------------------------------------------------
// Engine-level integration: 2-class mix against a throttled p99 target

TEST(ShardedServing, AdmissionShedsBatchKeepsInteractive) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(4);
  ShardedSnapshot snap(c, {}, make_plan(c, /*ranks=*/1, /*row_split=*/false));
  snap.publish_from(model, trainer.iterations_done());

  ShardedEngineOptions opts;
  opts.policy = {.max_batch = 8, .max_wait_us = 100};
  // Impossible target: the first interactive completions trip the shed
  // state, so batch arrivals after warm-up are refused.
  opts.admission.p99_target_ms = 1e-3;
  opts.admission.window = 32;
  opts.admission.min_samples = 1;
  ShardedInferenceEngine engine(snap, data, opts);
  engine.start();

  LoadGenOptions lopts;
  lopts.qps = 8000;
  lopts.requests = 400;
  lopts.fanout = 2;
  lopts.key_space = 4096;
  lopts.interactive_frac = 0.5;
  lopts.drop_when_full = true;
  PoissonLoadGen gen(engine, lopts);
  gen.run();
  engine.stop();

  const auto s = engine.stats();
  const auto& inter = s.by_class[0];
  const auto& batch = s.by_class[1];
  EXPECT_GT(batch.shed, 0) << "overload never shed batch traffic";
  EXPECT_EQ(inter.shed, 0) << "interactive traffic must never be shed";
  EXPECT_GT(inter.served, 0);
  EXPECT_EQ(s.admission_state, AdmissionState::kShed);
  // Accounting closes: every generated request was served, rejected
  // (full-queue drop), or shed.
  EXPECT_EQ(gen.sent() + gen.dropped(), lopts.requests);
  EXPECT_EQ(s.requests + s.rejected + s.shed, lopts.requests);
  EXPECT_EQ(s.requests, gen.sent());
  EXPECT_EQ(inter.served + batch.served, s.requests);
  // Per-class percentiles are over served requests only, and ordered.
  EXPECT_LE(inter.p50_ms, inter.p99_ms);
  EXPECT_GT(s.admission_p99_ms, 0.0);
}

// Without a controller the same overload never sheds anything.
TEST(ShardedServing, NoControllerNeverSheds) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(4);
  ShardedSnapshot snap(c, {}, make_plan(c, /*ranks=*/1, /*row_split=*/false));
  snap.publish_from(model, trainer.iterations_done());

  ShardedEngineOptions opts;
  opts.policy = {.max_batch = 8, .max_wait_us = 100};
  ShardedInferenceEngine engine(snap, data, opts);
  engine.start();
  LoadGenOptions lopts;
  lopts.qps = 8000;
  lopts.requests = 200;
  lopts.fanout = 2;
  lopts.interactive_frac = 0.5;
  lopts.drop_when_full = true;
  PoissonLoadGen gen(engine, lopts);
  gen.run();
  engine.stop();

  const auto s = engine.stats();
  EXPECT_EQ(s.shed, 0);
  EXPECT_EQ(s.admission_state, AdmissionState::kOpen);
  EXPECT_EQ(s.requests + s.rejected, lopts.requests);
}

// Class-mix traces: single-class traces are byte-identical to the
// pre-class-mix generator (no RNG draw when interactive_frac == 1), and a
// mixed trace stamps both classes while keeping the same keys.
TEST(ShardedServing, ClassMixTraceStampsClasses) {
  LoadGenOptions lopts;
  lopts.qps = 1e6;
  lopts.requests = 200;
  lopts.fanout = 2;
  lopts.key_space = 1024;
  lopts.seed = 9;
  const std::vector<Request> pure = serve::make_trace(lopts);
  for (const Request& r : pure) EXPECT_EQ(r.slo, SloClass::kInteractive);

  lopts.interactive_frac = 0.5;
  const std::vector<Request> mixed = serve::make_trace(lopts);
  ASSERT_EQ(mixed.size(), pure.size());
  std::int64_t batch_count = 0;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed[i].id, pure[i].id);
    EXPECT_EQ(mixed[i].fanout, pure[i].fanout);
    if (mixed[i].slo == SloClass::kBatch) ++batch_count;
  }
  EXPECT_GT(batch_count, 40);
  EXPECT_LT(batch_count, 160);
}

// Regression: the all-batch extreme (interactive_frac == 0) must skip the
// class draw exactly like the all-interactive one does, so BOTH
// single-class traces are byte-identical to each other (and therefore to a
// pre-class-mix trace) — same keys, fanouts and arrival stamps, only the
// stamped class differs. Previously only frac >= 1 skipped the draw, so an
// all-batch trace silently consumed extra RNG and shifted every key.
TEST(ShardedServing, AllBatchTraceByteIdenticalToAllInteractive) {
  LoadGenOptions lopts;
  lopts.qps = 1e6;
  lopts.requests = 200;
  lopts.fanout = 2;
  lopts.key_space = 1024;
  lopts.seed = 9;
  lopts.interactive_frac = 1.0;
  const std::vector<Request> interactive = serve::make_trace(lopts);
  lopts.interactive_frac = 0.0;
  const std::vector<Request> batch = serve::make_trace(lopts);

  ASSERT_EQ(batch.size(), interactive.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].slo, SloClass::kBatch) << "request " << i;
    EXPECT_EQ(batch[i].id, interactive[i].id) << "request " << i;
    EXPECT_EQ(batch[i].key, interactive[i].key) << "request " << i;
    EXPECT_EQ(batch[i].fanout, interactive[i].fanout) << "request " << i;
    EXPECT_EQ(batch[i].submit_sec, interactive[i].submit_sec)
        << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Live sharded serving under Poisson load with snapshot handover (TSan leg:
// R serving ranks + loadgen thread + publisher thread share the engine).

TEST(ShardedServing, LiveServingWithSnapshotHandover) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  const ShardingPlan plan = make_plan(c, /*ranks=*/2, /*row_split=*/true);

  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(1);

  ShardedSnapshot snapA(c, {}, plan), snapB(c, {}, plan);
  snapA.publish_from(model, trainer.iterations_done());

  ShardedEngineOptions opts;
  opts.policy = {.max_batch = 16, .max_wait_us = 200};
  opts.queue_capacity = 256;
  ShardedInferenceEngine engine(snapA, data, opts);
  engine.start();

  LoadGenOptions lopts;
  lopts.qps = 3000;
  lopts.requests = 300;
  lopts.fanout = 2;
  lopts.key_space = 4096;
  lopts.zipf_s = 0.9;
  lopts.interactive_frac = 0.7;
  PoissonLoadGen gen(engine, lopts);
  std::thread load([&] { gen.run(); });

  ShardedSnapshot* snaps[2] = {&snapA, &snapB};
  for (int pub = 0; pub < 4; ++pub) {
    trainer.train(1);
    ShardedSnapshot* idle = snaps[(pub + 1) % 2];
    idle->publish_from(model, trainer.iterations_done());
    engine.set_snapshot(idle);
    if (!engine.wait_snapshot_swapped(0.5)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  load.join();
  engine.stop();

  EXPECT_EQ(gen.sent(), lopts.requests);
  const std::vector<Response> rs = engine.responses();
  ASSERT_EQ(static_cast<std::int64_t>(rs.size()), lopts.requests);
  std::set<std::int64_t> versions;
  std::int64_t batch_served = 0;
  for (const Response& r : rs) {
    versions.insert(r.version);
    if (r.slo == SloClass::kBatch) ++batch_served;
  }
  EXPECT_GE(versions.size(), 2u) << "no snapshot handover was observed";
  EXPECT_GT(batch_served, 0);
  const auto s = engine.stats();
  EXPECT_EQ(s.requests, lopts.requests);
  EXPECT_EQ(s.samples, lopts.requests * lopts.fanout);
  EXPECT_LE(s.p50_ms, s.p99_ms);
}

// ---------------------------------------------------------------------------
// Rank-owned compute pools. Every serving rank dispatches its kernels to a
// pool it owns, never to the process-wide default pool that a concurrent
// trainer or a peer rank is using: ThreadPool::run refuses a second
// concurrent caller, so a shared pool made these loops terminate or hang.

/// Wider than serve_config, so the serving MLPs and the trainer's kernels
/// both split into worker tasks.
DlrmConfig pool_config() {
  DlrmConfig c = serve_config();
  c.dim = 32;
  c.bottom_mlp = {16, 128, 32};
  c.top_mlp = {128, 64, 1};
  c.validate();
  return c;
}

/// Fanout 8 at max_batch 64: 64-sample micro-batches, large enough that
/// every rank's whole-table embedding forward dispatches to its pool.
std::vector<Request> pool_trace() {
  LoadGenOptions lopts;
  lopts.qps = 1e6;
  lopts.requests = 96;
  lopts.fanout = 8;
  lopts.key_space = 4096;
  lopts.seed = 7;
  return serve::make_trace(lopts);
}

ShardedEngineOptions pool_engine_options() {
  ShardedEngineOptions o;
  o.policy = {.max_batch = 64, .max_wait_us = 1000};
  return o;
}

// Serve-while-training in one process: the trainer runs on the default pool
// for as long as the load lasts while the R=1 serving rank forwards on its
// own pool.
TEST(ShardedServing, ConcurrentTrainingAndR1ServingOwnPools) {
  ASSERT_GT(default_pool_threads(), 1);
  const DlrmConfig c = pool_config();
  const RandomDataset data = serve_data(c);
  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 128});
  trainer.train(1);
  ShardedSnapshot snap(c, {}, make_plan(c, /*ranks=*/1, /*row_split=*/false));
  snap.publish_from(model, trainer.iterations_done());

  ShardedEngineOptions opts = pool_engine_options();
  opts.policy.max_wait_us = 100;
  ShardedInferenceEngine engine(snap, data, opts);
  engine.start();
  LoadGenOptions lopts;
  lopts.qps = 4000;
  lopts.requests = 400;
  lopts.fanout = 4;
  lopts.key_space = 4096;
  PoissonLoadGen gen(engine, lopts);
  std::atomic<bool> done{false};
  std::thread load([&] {
    gen.run();
    done.store(true);
  });
  // The paced load lasts ~0.1 s, so at least the first step overlaps it.
  do {
    trainer.train(1);
  } while (!done.load());
  load.join();
  engine.stop();

  EXPECT_EQ(gen.sent(), lopts.requests);
  EXPECT_EQ(engine.stats().requests, lopts.requests);
}

// Repeated live start/submit/stop at R=2 and R=4, both plan geometries:
// every rank forwards on its own pool, every request is answered with the
// offline score, and every stop() joins cleanly.
TEST(ShardedServing, StartSubmitStopLoopAtTwoAndFourRanks) {
  const DlrmConfig c = pool_config();
  const RandomDataset data = serve_data(c);
  DlrmModel model(c, {}, /*seed=*/21);
  const std::vector<Request> trace = pool_trace();
  const std::vector<float> offline = offline_scores(model, data, trace);
  std::map<std::int64_t, float> want;
  for (std::size_t i = 0; i < trace.size(); ++i) want[trace[i].id] = offline[i];

  for (const int ranks : {2, 4}) {
    ASSERT_GT(default_pool_threads(), ranks);
    for (const bool row_split : {false, true}) {
      SCOPED_TRACE("R" + std::to_string(ranks) +
                   (row_split ? " row_split" : " round_robin"));
      ShardedSnapshot snap(c, {}, make_plan(c, ranks, row_split));
      snap.publish_from(model, 0);
      ShardedInferenceEngine engine(snap, data, pool_engine_options());
      for (int round = 0; round < 4; ++round) {
        engine.reset_stats();
        engine.start();
        for (const Request& r : trace) EXPECT_TRUE(engine.submit(r));
        engine.stop();
        const std::vector<Response> rs = engine.responses();
        ASSERT_EQ(rs.size(), trace.size()) << "round " << round;
        for (const Response& r : rs) {
          EXPECT_EQ(r.score0, want.at(r.id)) << "request id " << r.id;
        }
      }
    }
  }
}

// Repeated offline replay at R=2: run_trace's transient ranks own their
// pools too.
TEST(ShardedServing, RunTraceLoopAtTwoRanks) {
  ASSERT_GT(default_pool_threads(), 2);
  const DlrmConfig c = pool_config();
  const RandomDataset data = serve_data(c);
  DlrmModel model(c, {}, /*seed=*/21);
  const std::vector<Request> trace = pool_trace();
  const std::vector<float> want = offline_scores(model, data, trace);
  ShardedSnapshot snap(c, {}, make_plan(c, /*ranks=*/2, /*row_split=*/false));
  snap.publish_from(model, 0);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ShardedInferenceEngine engine(snap, data, pool_engine_options());
    expect_matches_offline(engine.run_trace(trace), trace, want,
                           pool_engine_options().policy.max_batch);
  }
}

}  // namespace
}  // namespace dlrm
