// Online serving path: batcher determinism, snapshot-publication parity
// (served scores bit-identical to offline per-request DlrmModel forwards
// on the source weights, fp32 and bf16, in-process and from checkpoint
// directories), queue backpressure and clean shutdown, serve-while-training
// snapshot handover, and SLO accounting sanity — at one serving rank and,
// where cheap, at two. Runs under the TSan pass in ci.sh — the serving
// ranks, load-generator, and publisher threads all share the engine and the
// Profiler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/sharding.hpp"
#include "core/trainer.hpp"
#include "serve/loadgen.hpp"
#include "serve/sharded.hpp"

namespace dlrm {
namespace {

namespace fs = std::filesystem;
using serve::LoadGenOptions;
using serve::offline_scores;
using serve::PoissonLoadGen;
using serve::Request;
using serve::Response;
using serve::ShardedEngineOptions;
using serve::ShardedInferenceEngine;
using serve::ShardedSnapshot;

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

/// R=1 holds every table whole; R=2 row-splits three of the four tables, so
/// the split-table merge path is covered too.
ShardingPlan serve_plan(const DlrmConfig& c, int ranks) {
  if (ranks == 1) return ShardingPlan::round_robin(c.table_rows, 1);
  const std::vector<double> costs(c.table_rows.size(), 1.0);
  return ShardingPlan::row_split(c.table_rows, ranks, costs,
                                 /*row_threshold=*/64);
}

ShardedEngineOptions policy(std::int64_t max_batch,
                            std::int64_t max_wait_us = 0) {
  ShardedEngineOptions o;
  o.policy = {.max_batch = max_batch, .max_wait_us = max_wait_us};
  return o;
}

/// A snapshot published from a freshly trained model (few steps so the
/// weights are non-trivial).
void train_and_publish(const DlrmConfig& c, const Dataset& data,
                       ShardedSnapshot& snap, int iters = 4) {
  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(iters);
  snap.publish_from(model, trainer.iterations_done());
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

std::map<std::int64_t, float> scores_by_id(const std::vector<Response>& rs) {
  std::map<std::int64_t, float> out;
  for (const Response& r : rs) out[r.id] = r.score0;
  return out;
}

// Two fresh engines over identically published snapshots must produce the
// same batching and bit-identical scores for the same trace.
TEST(Serving, TraceReplayIsDeterministic) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  const std::vector<Request> trace = fixed_trace();

  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("R" + std::to_string(ranks));
    std::vector<std::vector<Response>> runs;
    for (int run = 0; run < 2; ++run) {
      ShardedSnapshot snap(c, {}, serve_plan(c, ranks));
      train_and_publish(c, data, snap);
      ShardedInferenceEngine engine(snap, data, policy(8));
      runs.push_back(engine.run_trace(trace));
    }
    ASSERT_EQ(runs[0].size(), trace.size());
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i].id, runs[1][i].id);
      EXPECT_EQ(runs[0][i].batch, runs[1][i].batch) << "request " << i;
      EXPECT_EQ(runs[0][i].score0, runs[1][i].score0) << "request " << i;
    }
  }
}

// Per-sample forwards are independent of batch composition, so dynamic
// micro-batches must score every request bit-identically to batch=1.
TEST(Serving, DynamicBatchingMatchesBatchOneBitExact) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  const std::vector<Request> trace = fixed_trace();

  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("R" + std::to_string(ranks));
    ShardedSnapshot snap(c, {}, serve_plan(c, ranks));
    train_and_publish(c, data, snap);

    ShardedInferenceEngine batched(snap, data, policy(16));
    const auto dyn = scores_by_id(batched.run_trace(trace));
    ShardedInferenceEngine single(snap, data, policy(1));
    const auto one = scores_by_id(single.run_trace(trace));

    ASSERT_EQ(dyn.size(), one.size());
    for (const auto& [id, score] : dyn) {
      ASSERT_TRUE(one.count(id));
      EXPECT_EQ(score, one.at(id)) << "request id " << id;
    }
    // Batching actually happened.
    EXPECT_GT(batched.stats().mean_batch, 1.0);
  }
}

// Publication parity: scores served from a snapshot restored out of a
// checkpoint directory, and from one published in-process from the live
// model that wrote the checkpoint, must both be bit-identical to offline
// per-request forwards on that model (a different batch geometry AND a
// different code path). Covers the fp32 and bf16 embedding/MLP codecs at
// one and two serving ranks.
class ServingCkptParityTest : public ::testing::TestWithParam<Precision> {};

TEST_P(ServingCkptParityTest, CheckpointAndInProcessPublishServeIdentically) {
  const Precision precision = GetParam();
  const DlrmConfig c = serve_config(precision);
  ModelOptions mopts;
  mopts.embed_precision = precision == Precision::kBf16
                              ? EmbedPrecision::kBf16Split
                              : EmbedPrecision::kFp32;
  const RandomDataset data = serve_data(c);
  const fs::path dir =
      fs::temp_directory_path() /
      ("dlrm_serve_ckpt_" + std::string(to_string(precision)));
  fs::remove_all(dir);

  DlrmModel model(c, mopts, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(4);
  trainer.save_checkpoint(dir.string());

  const std::vector<Request> trace = fixed_trace();
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("R" + std::to_string(ranks));
    ShardedSnapshot live(c, mopts, serve_plan(c, ranks));
    live.publish_from(model, trainer.iterations_done());
    ShardedSnapshot restored(c, mopts, serve_plan(c, ranks));
    restored.publish_from_checkpoint(dir.string());
    EXPECT_EQ(restored.version(), trainer.iterations_done());

    for (ShardedSnapshot* snap : {&restored, &live}) {
      ShardedInferenceEngine engine(*snap, data, policy(8));
      const std::vector<Response> served = engine.run_trace(trace);
      ASSERT_EQ(served.size(), trace.size());
      const std::vector<float> want = offline_scores(model, data, trace);
      std::map<std::int64_t, float> offline;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        offline[trace[i].id] = want[i];
      }
      for (const Response& r : served) {
        ASSERT_TRUE(offline.count(r.id));
        EXPECT_EQ(r.score0, offline.at(r.id)) << "request id " << r.id;
      }
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Precisions, ServingCkptParityTest,
                         ::testing::Values(Precision::kFp32, Precision::kBf16),
                         [](const ::testing::TestParamInfo<Precision>& tpi) {
                           return std::string(to_string(tpi.param));
                         });

// Bounded queue: try_submit sheds load once the queue is full (accounted as
// rejected), stop() drains everything accepted, and submits after shutdown
// are refused.
TEST(Serving, BackpressureRejectionAndCleanShutdown) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("R" + std::to_string(ranks));
    ShardedSnapshot snap(c, {}, serve_plan(c, ranks));
    train_and_publish(c, data, snap);

    ShardedEngineOptions opts = policy(4, 100);
    opts.queue_capacity = 4;
    ShardedInferenceEngine engine(snap, data, opts);

    // Closed queue (not started): both submit flavours refuse.
    EXPECT_FALSE(engine.try_submit({.id = 0, .key = 0, .fanout = 1}));
    EXPECT_FALSE(engine.submit({.id = 0, .key = 0, .fanout = 1}));

    engine.start();
    std::int64_t accepted = 0, rejected = 0;
    for (std::int64_t i = 0; i < 64; ++i) {
      Request r;
      r.id = i;
      r.key = i;
      r.fanout = 2;
      r.submit_sec = now_sec();
      if (engine.try_submit(r)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    // Blocking submits always land (backpressure, not shedding).
    for (std::int64_t i = 64; i < 96; ++i) {
      Request r;
      r.id = i;
      r.key = i;
      r.fanout = 2;
      r.submit_sec = now_sec();
      EXPECT_TRUE(engine.submit(r));
      ++accepted;
    }
    engine.stop();

    const auto s = engine.stats();
    EXPECT_EQ(static_cast<std::int64_t>(engine.responses().size()), accepted);
    EXPECT_EQ(s.requests, accepted);
    EXPECT_EQ(s.rejected, rejected);
    EXPECT_FALSE(engine.submit({.id = 999, .key = 0, .fanout = 1}));
    EXPECT_FALSE(engine.try_submit({.id = 999, .key = 0, .fanout = 1}));
  }
}

// Serve-while-training: a publisher thread repeatedly publishes fresh
// weights into the idle buffer of a snapshot pair and hands it over while
// the Poisson load generator drives the engine. The load keeps running
// until the last handover was adopted, so every handover must be adopted
// and the newest served version must be the trainer's last step. Every
// request must be answered. (TSan validates the handover and the shared
// Profiler.)
TEST(Serving, ServeWhileTrainingObservesNewSnapshots) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  const ShardingPlan plan = serve_plan(c, 1);

  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = 32});
  trainer.train(1);

  ShardedSnapshot snapA(c, {}, plan), snapB(c, {}, plan);
  snapA.publish_from(model, trainer.iterations_done());

  Profiler prof;
  ShardedEngineOptions opts = policy(16, 200);
  opts.queue_capacity = 256;
  ShardedInferenceEngine engine(snapA, data, opts, &prof);
  engine.start();

  // Back-to-back Poisson rounds until the publisher is done: one round is
  // ~0.1 s of load, which a slow (sanitized) build can finish before the
  // publisher's rounds are over.
  LoadGenOptions lopts;
  lopts.qps = 4000;
  lopts.requests = 400;
  lopts.fanout = 2;
  lopts.key_space = 4096;
  lopts.zipf_s = 0.9;
  std::atomic<bool> published{false};
  std::int64_t sent = 0, rounds = 0;
  std::thread load([&] {
    do {
      lopts.seed = 7 + static_cast<std::uint64_t>(rounds++);
      PoissonLoadGen gen(engine, lopts);
      gen.run();
      sent += gen.sent();
    } while (!published.load());
  });

  // Alternate publishing into whichever snapshot the engine is NOT using;
  // wait for each handover to be adopted before reclaiming the retired
  // buffer (the republish-while-forwarding race TSan would catch).
  ShardedSnapshot* snaps[2] = {&snapA, &snapB};
  int adopted = 0;
  for (; adopted < 4; ++adopted) {
    trainer.train(1);
    ShardedSnapshot* idle = snaps[(adopted + 1) % 2];
    idle->publish_from(model, trainer.iterations_done());
    engine.set_snapshot(idle);
    if (!engine.wait_snapshot_swapped(30.0)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  published.store(true);

  load.join();
  engine.stop();

  ASSERT_EQ(adopted, 4) << "a handover was not adopted under load";

  EXPECT_EQ(sent, rounds * lopts.requests);
  const std::vector<Response> rs = engine.responses();
  ASSERT_EQ(static_cast<std::int64_t>(rs.size()), sent);
  std::set<std::int64_t> versions;
  for (const Response& r : rs) versions.insert(r.version);
  EXPECT_GE(versions.size(), 2u) << "no snapshot handover was observed";
  EXPECT_EQ(*versions.rbegin(), trainer.iterations_done());
  // The serving scopes landed in the shared profiler.
  EXPECT_EQ(prof.count("serve_latency"), sent);
  EXPECT_GT(prof.count("serve_forward"), 0);
}

// Percentile/throughput bookkeeping: ordered percentiles, request/batch
// accounting consistent, SLO violations within [0, requests].
TEST(Serving, SloAccountingIsSane) {
  const DlrmConfig c = serve_config();
  const RandomDataset data = serve_data(c);
  ShardedSnapshot snap(c, {}, serve_plan(c, 1));
  train_and_publish(c, data, snap);

  ShardedEngineOptions opts = policy(8, 100);
  opts.slo_ms = 2.0;
  ShardedInferenceEngine engine(snap, data, opts);
  engine.start();
  LoadGenOptions lopts;
  lopts.qps = 3000;
  lopts.requests = 200;
  lopts.fanout = 2;
  PoissonLoadGen gen(engine, lopts);
  gen.run();
  engine.stop();

  const auto s = engine.stats();
  EXPECT_EQ(s.requests, lopts.requests);
  EXPECT_GE(s.batches, 1);
  EXPECT_EQ(s.samples, lopts.requests * lopts.fanout);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.max_ms);
  EXPECT_GT(s.p50_ms, 0.0);
  EXPECT_GE(s.mean_batch, 1.0);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_GE(s.slo_violations, 0);
  EXPECT_LE(s.slo_violations, s.requests);
}

}  // namespace
}  // namespace dlrm
