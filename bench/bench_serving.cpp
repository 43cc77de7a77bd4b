// Serving bench: QPS × batch-policy sweep over the online inference path,
// plus the admission-control and sharded-tier sections.
//
// For each (offered QPS, batching policy) cell, a Poisson load generator
// drives a 1-rank ShardedInferenceEngine for a fixed request count and one
// BENCH_JSON row reports the per-request latency percentiles, achieved
// throughput, and batch-shape statistics. The point of the sweep is the serving
// trade-off: batch=1 minimizes queueing at low load but saturates first;
// dynamic micro-batching amortizes the forward pass and sustains higher
// offered load at an equal-or-better p99.
//
// The "serving_admission" section overloads the engine with a 2-class mix
// (60% interactive / 40% batch) with and without the p99-driven admission
// controller: the controller-on row must show batch traffic shed while
// the interactive p99 improves vs the controller-off baseline. The
// "serving_sharded" section replays one trace through the model-parallel
// tier at R ∈ {1, 2} for the per-rank overhead of the broadcast/gather
// protocol (results are bit-identical by construction; what is measured
// is cost).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/config.hpp"
#include "core/sharding.hpp"
#include "core/trainer.hpp"
#include "serve/loadgen.hpp"
#include "serve/sharded.hpp"

namespace dlrm {
namespace {

DlrmConfig bench_config() {
  // Table I "small" scaled down so a cell finishes in well under a second
  // of compute; the batching trade-off shape is what matters, not scale.
  return small_config().scaled_down(/*row_divisor=*/256, /*batch_divisor=*/64);
}

struct Policy {
  const char* name;
  serve::BatchPolicy policy;
  bool bucket = false;  // pow2 batch-size bucketing (padded execution)
};

void run_cell(serve::ShardedSnapshot& snap, const Dataset& data, double qps,
              const Policy& pol) {
  serve::ShardedEngineOptions eopts;
  eopts.policy = pol.policy;
  eopts.queue_capacity = 4096;
  eopts.slo_ms = 5.0;
  eopts.bucket_batches = pol.bucket;
  serve::ShardedInferenceEngine engine(snap, data, eopts);
  engine.start();

  serve::LoadGenOptions lopts;
  lopts.qps = qps;
  lopts.requests = static_cast<std::int64_t>(qps / 2);  // ~0.5 s of load
  if (lopts.requests < 500) lopts.requests = 500;
  lopts.fanout = 4;
  lopts.key_space = 1 << 16;
  lopts.zipf_s = 0.9;
  serve::PoissonLoadGen gen(engine, lopts);
  gen.run();
  engine.stop();

  const serve::ServeStats s = engine.stats();
  bench::JsonRow("serving")
      .add("qps_offered", qps)
      .add("policy", pol.name)
      .add("max_batch", pol.policy.max_batch)
      .add("max_wait_us", pol.policy.max_wait_us)
      .add("bucketed", pol.bucket ? 1 : 0)
      .add("requests", s.requests)
      .add("fanout", lopts.fanout)
      .add("p50_ms", s.p50_ms)
      .add("p95_ms", s.p95_ms)
      .add("p99_ms", s.p99_ms)
      .add("max_ms", s.max_ms)
      .add("throughput_rps", s.throughput_rps)
      .add("mean_batch", s.mean_batch)
      .add("batches", s.batches)
      .add("slo_violations", s.slo_violations)
      .emit();
  bench::row({bench::fmt(qps, 0), pol.name, bench::fmt(s.p50_ms),
              bench::fmt(s.p99_ms), bench::fmt(s.throughput_rps, 0),
              bench::fmt(s.mean_batch, 1)});
}

// One overload run with a 60/40 interactive/batch mix; `target_us` == 0
// disables the controller (the coordinated-omission-free baseline).
void run_admission_cell(serve::ShardedSnapshot& snap, const Dataset& data,
                        double target_us) {
  serve::ShardedEngineOptions eopts;
  eopts.policy = {.max_batch = 32, .max_wait_us = 1000};
  eopts.queue_capacity = 256;
  eopts.slo_ms = 5.0;
  eopts.admission.p99_target_ms = target_us * 1e-3;
  serve::ShardedInferenceEngine engine(snap, data, eopts);
  engine.start();

  serve::LoadGenOptions lopts;
  lopts.qps = 20000.0;  // far past saturation on one core
  lopts.requests = 4000;
  lopts.fanout = 4;
  lopts.key_space = 1 << 16;
  lopts.zipf_s = 0.9;
  lopts.interactive_frac = 0.6;
  lopts.drop_when_full = true;
  serve::PoissonLoadGen gen(engine, lopts);
  gen.run();
  engine.stop();

  const serve::ServeStats s = engine.stats();
  const auto& inter = s.by_class[0];
  const auto& batch = s.by_class[1];
  bench::JsonRow("serving_admission")
      .add("qps_offered", lopts.qps)
      .add("interactive_frac", lopts.interactive_frac)
      .add("p99_target_us", target_us)
      .add("requests", lopts.requests)
      .add("served", s.requests)
      .add("rejected", s.rejected)
      .add("shed", s.shed)
      .add("deferred", batch.deferred)
      .add("interactive_served", inter.served)
      .add("interactive_p50_ms", inter.p50_ms)
      .add("interactive_p99_ms", inter.p99_ms)
      .add("batch_served", batch.served)
      .add("batch_p99_ms", batch.p99_ms)
      .add("admission_state", serve::to_string(s.admission_state))
      .emit();
  bench::row({target_us > 0 ? "controller" : "baseline",
              bench::fmt(inter.p99_ms), bench::fmt(batch.p99_ms),
              bench::fmt(static_cast<double>(s.shed), 0),
              bench::fmt(static_cast<double>(s.rejected), 0)});
}

// Offline trace replay through the sharded tier at R ranks: wall-clock per
// request of the broadcast/lookup/gather/merge/dense pipeline.
void run_sharded_cell(const DlrmConfig& c, DlrmModel& model,
                      std::int64_t version, const Dataset& data, int ranks,
                      bool bucket = false) {
  const ShardingPlan plan = ShardingPlan::round_robin(c.table_rows, ranks);
  serve::ShardedSnapshot snap(c, {}, plan);
  snap.publish_from(model, version);

  serve::LoadGenOptions lopts;
  lopts.qps = 1e6;
  lopts.requests = 2000;
  lopts.fanout = 4;
  lopts.key_space = 1 << 16;
  lopts.zipf_s = 0.9;
  const std::vector<serve::Request> trace = serve::make_trace(lopts);

  serve::ShardedEngineOptions eopts;
  eopts.policy = {.max_batch = 32, .max_wait_us = 0};
  eopts.bucket_batches = bucket;
  Profiler prof;
  serve::ShardedInferenceEngine engine(snap, data, eopts, &prof);
  const double t0 = now_sec();
  const std::vector<serve::Response> rs = engine.run_trace(trace);
  const double wall = now_sec() - t0;

  bench::JsonRow("serving_sharded")
      .add("serve_ranks", ranks)
      .add("shards", plan.num_shards())
      .add("bucketed", bucket ? 1 : 0)
      .add("padded_rows", prof.total_sec("serve_padded"))
      .add("requests", static_cast<std::int64_t>(rs.size()))
      .add("fanout", lopts.fanout)
      .add("wall_sec", wall)
      .add("throughput_rps", static_cast<double>(rs.size()) / wall)
      .emit();
  bench::row({std::string("R") + std::to_string(ranks) +
                  (bucket ? "_pow2" : ""),
              bench::fmt(static_cast<double>(rs.size()) / wall, 0)});
}

}  // namespace
}  // namespace dlrm

int main() {
  using namespace dlrm;
  bench::banner("online serving: QPS x batch-policy sweep");

  const DlrmConfig c = bench_config();
  RandomDataset data(c.bottom_mlp.front(), c.table_rows, c.pooling, 11);

  // Serve real (briefly trained) weights, published through the snapshot
  // path the serving engine uses in production; the policy and admission
  // cells serve them from one rank.
  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = c.minibatch});
  trainer.train(8);
  serve::ShardedSnapshot snap(c, {},
                              ShardingPlan::round_robin(c.table_rows, 1));
  snap.publish_from(model, trainer.iterations_done());

  const std::vector<Policy> policies = {
      {"batch1", {.max_batch = 1, .max_wait_us = 0}},
      {"dyn32_1ms", {.max_batch = 32, .max_wait_us = 1000}},
      // Same dynamic policy with pow2 bucketing: pays a few padded rows per
      // batch to keep the engine on ~log2(max_batch) stable shapes.
      {"dyn32_1ms_pow2", {.max_batch = 32, .max_wait_us = 1000}, true},
  };
  const std::vector<double> qps_sweep = {1000.0, 4000.0, 12000.0};

  bench::row({"qps", "policy", "p50ms", "p99ms", "rps", "meanB"});
  for (const double qps : qps_sweep) {
    for (const Policy& pol : policies) {
      run_cell(snap, data, qps, pol);
    }
  }

  bench::banner("admission control: 2-class overload, controller off/on");
  bench::row({"mode", "int_p99", "bat_p99", "shed", "rej"});
  run_admission_cell(snap, data, /*target_us=*/0.0);
  run_admission_cell(snap, data, /*target_us=*/20000.0);

  bench::banner("sharded serving tier: trace replay per rank count");
  bench::row({"ranks", "rps"});
  for (const int ranks : {1, 2}) {
    run_sharded_cell(c, model, trainer.iterations_done(), data, ranks);
  }
  // Pow2 bucketing on the sharded path (pads before the broadcast so every
  // rank runs the padded shape); results stay bit-identical, cost differs.
  run_sharded_cell(c, model, trainer.iterations_done(), data, /*ranks=*/2,
                   /*bucket=*/true);
  return 0;
}
