// dlrm-serve: online inference driver over the serving subsystem.
//
//   $ ./serve_cli --config=small --scale-rows=256 --scale-batch=16
//                 --qps=2000 --requests=2000 --fanout=4 --zipf=0.9
//                 --max-batch=32 --max-wait-us=1000 [--queue-cap=N]
//                 [--slo-ms=X] [--drop-when-full] [--bucket-batches]
//                 [--train-iters=N]
//                 [--publish-every=N] [--checkpoint-dir=DIR]
//                 [--serve-ranks=R] [--serve-sharding=round_robin|row_split]
//                 [--row-split-threshold=N] [--slo-class-mix=F]
//                 [--p99-target-us=X] [--check-serving] [--profile]
//
// Trains the model briefly (--train-iters) to get non-trivial weights,
// publishes them into a snapshot, then drives the engine with an open-loop
// Poisson load generator (Zipf-skewed keys) and prints the latency
// percentiles plus one BENCH_JSON row. With --checkpoint-dir the snapshot
// is restored from an existing checkpoint instead (any saved geometry).
// --publish-every=N republishes fresh weights every N served requests
// while training continues — the serve-while-training loop, with snapshots
// handed over at micro-batch boundaries.
//
// Serving runs on R = --serve-ranks serving ranks (default 1) over a
// ThreadComm, each holding only its plan shards (--serve-sharding picks the
// geometry), with embedding lookups fanned out and gathered per
// micro-batch; every rank owns a compute pool of 1/R of the host threads.
// Results are bit-identical to a single-process forward for every R.
// --bucket-batches pads each micro-batch to a power-of-two sample count.
// --slo-class-mix=F marks a (1-F) fraction of the generated load as batch
// class; --p99-target-us arms the admission controller, which defers and
// then sheds batch traffic whenever the measured rolling interactive p99
// approaches the target (hysteresis re-admission on recovery).
//
// --check-serving exits nonzero unless the request accounting closes
// (served + rejected + shed == generated) and the served scores match
// per-request offline DlrmModel forwards on the source weights bit-for-bit
// (CI smoke).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/timer.hpp"
#include "core/config.hpp"
#include "core/sharding.hpp"
#include "core/trainer.hpp"
#include "serve/loadgen.hpp"
#include "serve/sharded.hpp"
#include "stats/profiler.hpp"

namespace dlrm {
namespace {

struct Args {
  std::string config = "small";
  std::int64_t scale_rows = 64;
  std::int64_t scale_batch = 8;
  double qps = 2000.0;
  std::int64_t requests = 2000;
  std::int64_t fanout = 4;
  double zipf = 0.9;
  std::int64_t key_space = 1 << 16;
  std::int64_t max_batch = 32;
  std::int64_t max_wait_us = 1000;
  std::int64_t queue_cap = 1024;
  double slo_ms = 5.0;
  bool bucket_batches = false;
  bool drop_when_full = false;
  int train_iters = 8;
  std::int64_t publish_every = 0;  // 0 = serve one frozen snapshot
  std::string checkpoint_dir;
  int serve_ranks = 1;
  std::string serve_sharding = "round_robin";
  std::int64_t row_split_threshold = 0;  // <= 0: ceil(total_rows / ranks)
  double slo_class_mix = 1.0;            // interactive fraction
  double p99_target_us = 0.0;            // 0 disables admission control
  bool check_serving = false;
  bool profile = false;
};

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--config", &v)) a.config = v;
    else if (parse_flag(argv[i], "--scale-rows", &v)) a.scale_rows = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--scale-batch", &v)) a.scale_batch = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--qps", &v)) a.qps = std::atof(v.c_str());
    else if (parse_flag(argv[i], "--requests", &v)) a.requests = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--fanout", &v)) a.fanout = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--zipf", &v)) a.zipf = std::atof(v.c_str());
    else if (parse_flag(argv[i], "--key-space", &v)) a.key_space = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--max-batch", &v)) a.max_batch = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--max-wait-us", &v)) a.max_wait_us = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--queue-cap", &v)) a.queue_cap = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--slo-ms", &v)) a.slo_ms = std::atof(v.c_str());
    else if (parse_flag(argv[i], "--train-iters", &v)) a.train_iters = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--publish-every", &v)) a.publish_every = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--checkpoint-dir", &v)) a.checkpoint_dir = v;
    else if (parse_flag(argv[i], "--serve-ranks", &v)) a.serve_ranks = std::atoi(v.c_str());
    else if (parse_flag(argv[i], "--serve-sharding", &v)) a.serve_sharding = v;
    else if (parse_flag(argv[i], "--row-split-threshold", &v)) a.row_split_threshold = std::atoll(v.c_str());
    else if (parse_flag(argv[i], "--slo-class-mix", &v)) a.slo_class_mix = std::atof(v.c_str());
    else if (parse_flag(argv[i], "--p99-target-us", &v)) a.p99_target_us = std::atof(v.c_str());
    else if (std::strcmp(argv[i], "--bucket-batches") == 0) a.bucket_batches = true;
    else if (std::strcmp(argv[i], "--drop-when-full") == 0) a.drop_when_full = true;
    else if (std::strcmp(argv[i], "--check-serving") == 0) a.check_serving = true;
    else if (std::strcmp(argv[i], "--profile") == 0) a.profile = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

DlrmConfig pick_config(const Args& a) {
  DlrmConfig c;
  if (a.config == "small") c = small_config();
  else if (a.config == "large") c = large_config();
  else if (a.config == "mlperf") c = mlperf_config();
  else {
    std::fprintf(stderr, "unknown config: %s\n", a.config.c_str());
    std::exit(2);
  }
  return c.scaled_down(a.scale_rows, a.scale_batch);
}

ShardingPlan pick_plan(const Args& a, const DlrmConfig& c) {
  if (a.serve_sharding == "round_robin") {
    return ShardingPlan::round_robin(c.table_rows, a.serve_ranks);
  }
  if (a.serve_sharding == "row_split") {
    const std::vector<double> costs(c.table_rows.size(), 1.0);
    return ShardingPlan::row_split(c.table_rows, a.serve_ranks, costs,
                                   a.row_split_threshold);
  }
  std::fprintf(stderr, "unknown serve sharding: %s\n",
               a.serve_sharding.c_str());
  std::exit(2);
}

/// Loads `dir` into `model` through the checkpoint reader, one full-table
/// shard per table (any saved geometry): the offline reference for
/// --check-serving in --checkpoint-dir mode.
void load_reference(const std::string& dir, DlrmModel& model) {
  ckpt::CheckpointReader reader(dir);
  reader.check_model(ckpt::ModelConfigKey::from(
      model.config(), model.options().embed_precision,
      reader.saved_key().global_batch));
  reader.load_dense(model.bottom_mlp(), model.top_mlp());
  for (std::int64_t t = 0; t < model.tables(); ++t) {
    const Shard full{t, 0, model.table(t).rows(), /*rank=*/0, /*cost=*/0.0};
    reader.load_shard_rows(full, model.table(t));
  }
}

/// Drives the engine through the Poisson load, optionally republishing
/// fresh weights from `trainer` into the idle snapshot buffer.
void drive(const Args& args, serve::ShardedInferenceEngine& engine,
           serve::ShardedSnapshot& snapA, serve::ShardedSnapshot& snapB,
           DlrmModel& model, Trainer& trainer, serve::PoissonLoadGen& gen) {
  engine.start();
  if (args.publish_every > 0 && args.checkpoint_dir.empty()) {
    // Serve-while-training: load on this thread, training + publication on
    // another, double-buffered snapshots handed over at batch boundaries.
    std::atomic<bool> done{false};
    std::thread publisher([&] {
      serve::ShardedSnapshot* snaps[2] = {&snapA, &snapB};
      int pub = 0;
      while (!done.load()) {
        trainer.train(1);
        serve::ShardedSnapshot* idle = snaps[(++pub) % 2];
        idle->publish_from(model, trainer.iterations_done());
        engine.set_snapshot(idle);
        // The retired buffer is only reusable once the handover is
        // adopted; bounded wait so shutdown (done) stays reachable.
        while (!engine.wait_snapshot_swapped(0.05) && !done.load()) {
        }
        if (done.load()) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            static_cast<double>(args.publish_every) / args.qps));
      }
    });
    gen.run();
    done.store(true);
    publisher.join();
  } else {
    gen.run();
  }
  engine.stop();
}

void print_summary(const Args& args, const serve::ServeStats& s) {
  std::printf(
      "served %lld requests (%lld samples) in %.3f s: %.0f req/s, "
      "batch mean %.1f\n",
      static_cast<long long>(s.requests), static_cast<long long>(s.samples),
      s.wall_sec, s.throughput_rps, s.mean_batch);
  std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  "
              "(SLO %.1f ms violated %lld, rejected %lld, shed %lld)\n",
              s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms, args.slo_ms,
              static_cast<long long>(s.slo_violations),
              static_cast<long long>(s.rejected),
              static_cast<long long>(s.shed));
  if (args.slo_class_mix < 1.0 || args.p99_target_us > 0.0) {
    for (int c = 0; c < serve::kNumSloClasses; ++c) {
      const auto& cs = s.by_class[static_cast<std::size_t>(c)];
      std::printf(
          "  class %-11s admitted %lld served %lld shed %lld deferred %lld"
          "  p50 %.3f  p95 %.3f  p99 %.3f ms\n",
          serve::to_string(static_cast<serve::SloClass>(c)),
          static_cast<long long>(cs.admitted),
          static_cast<long long>(cs.served), static_cast<long long>(cs.shed),
          static_cast<long long>(cs.deferred), cs.p50_ms, cs.p95_ms,
          cs.p99_ms);
    }
    if (args.p99_target_us > 0.0) {
      std::printf("  admission: state %s, rolling interactive p99 %.3f ms "
                  "(target %.3f ms)\n",
                  serve::to_string(s.admission_state), s.admission_p99_ms,
                  args.p99_target_us * 1e-3);
    }
  }
  std::printf(
      "BENCH_JSON {\"bench\":\"serve_cli\",\"qps_offered\":%g,"
      "\"max_batch\":%lld,\"max_wait_us\":%lld,\"requests\":%lld,"
      "\"serve_ranks\":%d,\"sharding\":\"%s\",\"interactive_frac\":%g,"
      "\"p99_target_us\":%g,"
      "\"p50_ms\":%.6g,\"p95_ms\":%.6g,\"p99_ms\":%.6g,"
      "\"interactive_p99_ms\":%.6g,\"batch_p99_ms\":%.6g,"
      "\"throughput_rps\":%.6g,\"mean_batch\":%.6g,\"slo_violations\":%lld,"
      "\"rejected\":%lld,\"shed\":%lld,\"deferred\":%lld,"
      "\"admission_state\":\"%s\"}\n",
      args.qps, static_cast<long long>(args.max_batch),
      static_cast<long long>(args.max_wait_us),
      static_cast<long long>(s.requests), args.serve_ranks,
      args.serve_sharding.c_str(), args.slo_class_mix, args.p99_target_us,
      s.p50_ms, s.p95_ms, s.p99_ms, s.by_class[0].p99_ms, s.by_class[1].p99_ms,
      s.throughput_rps, s.mean_batch, static_cast<long long>(s.slo_violations),
      static_cast<long long>(s.rejected), static_cast<long long>(s.shed),
      static_cast<long long>(s.by_class[1].deferred),
      serve::to_string(s.admission_state));
}

int check_serving(const Args& args, const serve::ServeStats& s,
                  const std::vector<serve::Response>& responses,
                  const serve::LoadGenOptions& lopts, DlrmModel& reference,
                  const Dataset& data) {
  if (s.requests + s.rejected + s.shed != args.requests || s.requests < 1) {
    std::fprintf(stderr,
                 "CHECK FAILED: %lld answered + %lld rejected + %lld shed "
                 "!= %lld submitted\n",
                 static_cast<long long>(s.requests),
                 static_cast<long long>(s.rejected),
                 static_cast<long long>(s.shed),
                 static_cast<long long>(args.requests));
    return 1;
  }
  // Bit-exactness: every served score must equal an offline per-request
  // forward on the source weights. Only valid for a frozen snapshot. The
  // reference is a single-process DlrmModel, so this doubles as the
  // sharded-parity check for every --serve-ranks.
  if (args.publish_every == 0) {
    // Only served requests carry a score, so only they are forwarded (an
    // overloaded run rejects or sheds most of its trace). Request ids are
    // trace positions.
    const std::vector<serve::Request> trace = serve::make_trace(lopts);
    std::vector<serve::Request> served;
    served.reserve(responses.size());
    for (const serve::Response& r : responses) {
      served.push_back(trace.at(static_cast<std::size_t>(r.id)));
    }
    const std::vector<float> want =
        serve::offline_scores(reference, data, served);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (want[i] != responses[i].score0) {
        std::fprintf(
            stderr,
            "CHECK FAILED: request %lld served %.9g != offline %.9g\n",
            static_cast<long long>(responses[i].id),
            static_cast<double>(responses[i].score0),
            static_cast<double>(want[i]));
        return 1;
      }
    }
  }
  std::printf("CHECK OK: all requests accounted%s\n",
              args.publish_every == 0 ? ", scores match offline forwards"
                                      : "");
  return 0;
}

int run(const Args& args) {
  const DlrmConfig c = pick_config(args);
  RandomDataset data(c.bottom_mlp.front(), c.table_rows, c.pooling, 11);

  DlrmModel model(c, {}, /*seed=*/21);
  Trainer trainer(model, data, {.lr = 0.05f, .batch = c.minibatch});
  const ShardingPlan plan = pick_plan(args, c);
  std::printf("serving: %d ranks, %lld shards (%s)\n", args.serve_ranks,
              static_cast<long long>(plan.num_shards()),
              args.serve_sharding.c_str());
  serve::ShardedSnapshot snapA(c, {}, plan), snapB(c, {}, plan);
  if (!args.checkpoint_dir.empty()) {
    snapA.publish_from_checkpoint(args.checkpoint_dir);
    std::printf("restored snapshot version %lld from %s\n",
                static_cast<long long>(snapA.version()),
                args.checkpoint_dir.c_str());
    // Nothing trains `model` in this mode: it becomes the reference.
    if (args.check_serving) load_reference(args.checkpoint_dir, model);
  } else {
    trainer.train(args.train_iters);
    snapA.publish_from(model, trainer.iterations_done());
  }

  Profiler prof;
  Profiler* profp = args.profile ? &prof : nullptr;

  serve::LoadGenOptions lopts;
  lopts.qps = args.qps;
  lopts.requests = args.requests;
  lopts.fanout = args.fanout;
  lopts.key_space = args.key_space;
  lopts.zipf_s = args.zipf;
  lopts.drop_when_full = args.drop_when_full;
  lopts.interactive_frac = args.slo_class_mix;

  serve::ShardedEngineOptions eopts;
  eopts.policy = {.max_batch = args.max_batch, .max_wait_us = args.max_wait_us};
  eopts.queue_capacity = args.queue_cap;
  eopts.slo_ms = args.slo_ms;
  eopts.admission.p99_target_ms = args.p99_target_us * 1e-3;
  eopts.bucket_batches = args.bucket_batches;
  serve::ShardedInferenceEngine engine(snapA, data, eopts, profp);
  serve::PoissonLoadGen gen(engine, lopts);
  drive(args, engine, snapA, snapB, model, trainer, gen);
  const serve::ServeStats s = engine.stats();

  print_summary(args, s);
  if (args.profile) std::printf("%s", prof.report().c_str());
  if (args.check_serving) {
    return check_serving(args, s, engine.responses(), lopts, model, data);
  }
  return 0;
}

}  // namespace
}  // namespace dlrm

int main(int argc, char** argv) { return dlrm::run(dlrm::parse_args(argc, argv)); }
