// Online serving: batched, model-parallel inference over published model
// snapshots (the inference-side counterpart of the training-time hybrid
// parallelism). One engine serves every rank count, R=1 included.
//
// ShardedInferenceEngine runs R serving ranks over a ThreadComm, each
// holding only the embedding shards its rank owns under any ShardingPlan
// geometry (row-split included). Weights are published into a
// ShardedSnapshot through the checkpoint subsystem's bit-exact codecs.
// Requests carry a fan-out (candidate items scored per request); rank 0
// packs whole requests into dynamic micro-batches under a (max_batch,
// max_wait_us) policy. Per-request latencies feed p50/p95/p99 and SLO
// accounting; the same counters also land in the shared Profiler
// ("serve_*" scopes) next to the training breakdown.
//
// Request flow (one SPMD "op" per micro-batch):
//   rank 0  — owns the RequestQueue and the batcher (admission control,
//             SLO classes and strict-priority draining included),
//             broadcasts the batch header + (key, fanout) payload;
//   all     — materialize the batch's bag stream for their owned shards
//             (bags rewritten to shard-local rows for split tables), run
//             the embedding lookups, and gatherv the per-shard outputs to
//             rank 0;
//   rank 0  — assembles per-table features (split-table shards are merged
//             per lookup in original index order, so fp32 accumulation
//             order — and therefore every bit of the result — matches the
//             single-process forward), runs the dense stack (bottom MLP +
//             interaction + top MLP) on the assembled batch, and records
//             responses/latencies.
//
// Every rank thread owns its compute pool of max(1, default_pool_threads()
// / R) threads, in start() and in run_trace alike, so serving never shares
// a pool with a concurrent trainer or with its peer ranks.
//
// Snapshot handover is double-buffered: a trainer publishes into an idle
// ShardedSnapshot and calls set_snapshot; rank 0 swaps it in at the next
// micro-batch boundary, so serve-while-training never reads weights
// mid-mutation.
//
// Determinism contract: every served score is bit-identical to an offline
// per-request DlrmModel::forward on the source weights, for every plan
// geometry and embedding precision (tests/test_sharded_serving.cpp holds
// the R∈{1,2,4} × {round_robin,row_split} × {fp32,bf16} matrix).
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/thread_comm.hpp"
#include "core/model.hpp"
#include "core/sharding.hpp"
#include "data/dataset.hpp"
#include "serve/admission.hpp"
#include "stats/profiler.hpp"

namespace dlrm::serve {

// Request and the SLO-class machinery live in serve/admission.hpp.

struct Response {
  std::int64_t id = 0;
  double latency_ms = 0.0;
  std::int64_t batch = 0;        // samples in the micro-batch that served it
  std::int64_t version = -1;     // snapshot version that scored it
  float score0 = 0.0f;           // logit of the request's first candidate
  SloClass slo = SloClass::kInteractive;
};

struct BatchPolicy {
  /// Sample budget per micro-batch; 1 disables batching. A single request
  /// whose fanout exceeds the budget still runs (alone).
  std::int64_t max_batch = 32;
  /// Linger time: how long the batcher waits for more requests before
  /// executing a partial batch.
  std::int64_t max_wait_us = 1000;
};

/// Aggregate serving statistics; percentiles by nearest rank. The global
/// percentiles cover every request with a timing record — served ones AND
/// shed/rejected ones (scored against their intended-arrival stamp), so
/// overload tails are not hidden by coordinated omission. Per-class
/// percentiles cover served requests of that class only.
struct ServeStats {
  struct ClassStats {
    std::int64_t admitted = 0;  // accepted into the queue
    std::int64_t served = 0;    // scored (responses)
    std::int64_t shed = 0;      // refused by the admission controller
    std::int64_t deferred = 0;  // held in queue while the controller deferred
    double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  };

  std::int64_t requests = 0;  // served requests (== responses)
  std::int64_t batches = 0;
  std::int64_t samples = 0;
  std::int64_t slo_violations = 0;
  std::int64_t rejected = 0;  // try_submit refusals (queue full)
  std::int64_t shed = 0;      // admission-controller refusals (all classes)
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  double mean_batch = 0.0;
  double throughput_rps = 0.0;  // requests / wall between start() and stop()
  double wall_sec = 0.0;
  AdmissionState admission_state = AdmissionState::kOpen;
  double admission_p99_ms = 0.0;  // controller's rolling interactive p99
  std::array<ClassStats, kNumSloClasses> by_class{};
};

/// Published, forward-only model replica: one EmbeddingTable per plan shard
/// (canonical order) plus one dense stack (bottom/top MLP + interaction)
/// that rank 0 runs on the assembled batch. Weights are published through
/// the checkpoint subsystem's canonical encodings — embedding rows via the
/// per-precision row codec (export_rows/import_rows), MLP layers via the
/// canonical flat-fp32 dense form — both bit-exact round trips, so serving
/// results equal an offline forward on the source weights at publication
/// time. The bf16 VNNI mirrors inside FullyConnected are repacked from the
/// canonical fp32 weights on every forward, so publication never leaves a
/// stale mirror behind.
class ShardedSnapshot {
 public:
  /// Builds the shard replicas; weights are meaningless until the first
  /// publish_from / publish_from_checkpoint. The hot-row cache tier is
  /// never configured on shard replicas (forward-only serving reads).
  ShardedSnapshot(const DlrmConfig& config, ModelOptions options,
                  const ShardingPlan& plan, std::uint64_t seed = 1);

  /// Copies `src`'s weights (bit-exact) and stamps `version` (typically the
  /// trainer's step): every shard imports its row range through
  /// export_rows/import_rows, the dense stack through the canonical
  /// flat-fp32 form. The caller must quiesce training for the duration, and
  /// never publish into a snapshot an engine is forwarding on: publish into
  /// an idle one and hand it over with set_snapshot.
  void publish_from(DlrmModel& src, std::int64_t version);

  /// Loads from a checkpoint of any training geometry (cross-geometry
  /// resharding via load_shard_rows). Version becomes the saved step.
  void publish_from_checkpoint(const std::string& dir);

  /// Monotone publication stamp; -1 until the first publish.
  std::int64_t version() const { return version_; }
  const DlrmConfig& config() const { return config_; }
  const ShardingPlan& plan() const { return plan_; }

  /// Shard replica by canonical shard index.
  EmbeddingTable& shard_table(std::int64_t s) {
    return *tables_[static_cast<std::size_t>(s)];
  }

  /// Dense stack on the assembled batch: `table_feats[t]` points to table
  /// t's [n][dim] pooled embedding output. Bit-identical to
  /// DlrmModel::forward given identical inputs. Single caller (rank 0).
  const Tensor<float>& forward_dense(
      const Tensor<float>& dense, const std::vector<const float*>& table_feats,
      std::int64_t n);

 private:
  DlrmConfig config_;
  ShardingPlan plan_;
  std::vector<std::unique_ptr<EmbeddingTable>> tables_;  // canonical order
  Mlp bottom_, top_;
  DotInteraction interaction_;
  std::int64_t n_ = 0;  // current dense-stack batch
  Tensor<float> interact_out_;
  Tensor<float> logits_;
  std::vector<const float*> feats_;     // [1 + tables] forward scratch
  std::vector<unsigned char> row_buf_;  // export_rows/import_rows staging
  std::vector<float> flat_buf_;         // canonical dense staging
  std::int64_t version_ = -1;
};

struct ShardedEngineOptions {
  BatchPolicy policy;
  /// Bound per SLO class (rank 0's queue).
  std::int64_t queue_capacity = 1024;
  double slo_ms = 5.0;
  /// p99-driven batch-class shedding; disabled unless p99_target_ms > 0.
  AdmissionOptions admission;
  /// Pad every micro-batch to the next power-of-two sample count with
  /// synthetic single-sample requests replicating sample 0, appended on
  /// rank 0 BEFORE the payload broadcast — so every rank builds identically
  /// padded bags and the gather/merge/dense pipeline runs at pow2 shapes
  /// (cache-friendly GEMM tiles; the dense stack's workspaces only ever see
  /// ~log2(max_batch) shapes, so steady-state serving stops reallocating).
  /// Pad rows are scored and discarded; real scores are bitwise identical
  /// to unpadded serving. Counted via "serve_padded".
  bool bucket_batches = false;
};

/// R-rank model-parallel inference engine (R = the snapshot plan's rank
/// count, 1 included).
class ShardedInferenceEngine {
 public:
  /// `snapshot` (and any snapshot later handed over) must outlive the
  /// engine; its plan fixes the rank count.
  ShardedInferenceEngine(ShardedSnapshot& snapshot, const Dataset& data,
                         ShardedEngineOptions options,
                         Profiler* prof = nullptr);
  ~ShardedInferenceEngine();

  ShardedInferenceEngine(const ShardedInferenceEngine&) = delete;
  ShardedInferenceEngine& operator=(const ShardedInferenceEngine&) = delete;

  int ranks() const { return ranks_; }

  /// Spawns the R serving-rank threads (rank 0 batches, the rest follow)
  /// and opens the queue.
  void start();
  /// Closes the queue, drains it, joins all ranks. Rethrows the first
  /// rank exception, if any. Idempotent.
  void stop();
  bool running() const { return running_; }

  /// Blocking enqueue (waits while the class queue is full). Returns false
  /// once the queue is closed, or when the admission controller sheds the
  /// request (shed requests keep a timing record against their
  /// intended-arrival stamp).
  bool submit(Request r);
  /// Non-blocking enqueue; false (and `rejected`/`shed` accounting plus a
  /// timing record) when full or shed; false without accounting when
  /// closed.
  bool try_submit(Request r);

  /// Double-buffered snapshot handover; adopted by rank 0 at the next
  /// micro-batch boundary. The new snapshot's plan must have the same rank
  /// count.
  void set_snapshot(ShardedSnapshot* snap);
  /// Blocks until the last set_snapshot handover has been adopted (at a
  /// micro-batch boundary, or at stop()); returns whether it was. Only then
  /// is the replaced snapshot guaranteed unreferenced — a double-buffering
  /// publisher MUST observe true here before republishing into the retired
  /// buffer. A non-negative `timeout_sec` bounds the wait (adoption needs
  /// traffic: an idle engine only adopts at stop()).
  bool wait_snapshot_swapped(double timeout_sec = -1.0);

  /// Offline replay (engine must not be running): spins up R transient
  /// ranks, packs `trace` in order under the greedy max_batch rule the live
  /// batcher follows with a saturated queue, and returns responses in
  /// request order. Deterministic: the same trace and snapshot always
  /// produce identical batching and scores.
  std::vector<Response> run_trace(const std::vector<Request>& trace);

  ServeStats stats() const;
  std::vector<Response> responses() const;
  void reset_stats();

 private:
  /// Compact request form broadcast to followers.
  struct ReqKey {
    std::int64_t key = 0;
    std::int64_t fanout = 0;
  };

  /// Per-rank scratch; element r is touched only by rank thread r.
  struct RankScratch {
    std::vector<ReqKey> reqs;          // decoded broadcast payload
    std::vector<std::int64_t> header;  // broadcast staging
    std::vector<std::int64_t> payload;
    std::vector<std::int64_t> tables;  // tables this rank generates
    std::vector<std::int64_t> slot;    // [S] table -> batch.bags slot, or -1
    MiniBatch req;    // one request's generate() output
    MiniBatch batch;  // whole-table bags (+ dense on rank 0) of the batch

    const BagBatch& bags_of(std::int64_t t) const {
      return batch.bags[static_cast<std::size_t>(
          slot[static_cast<std::size_t>(t)])];
    }
    BagBatch local_bags;  // shard-local rewrite of a split table's bags
    std::vector<float> send;  // concatenated per-shard lookup outputs
  };

  void batcher_body(ThreadComm& comm);
  void follower_body(ThreadComm& comm);
  /// Rank 0: adopt pending snapshot, broadcast the batch, run its own
  /// shard lookups, gather, merge, dense forward, record responses.
  void process_batch(ThreadComm& comm, const std::vector<Request>& reqs);
  /// Builds rs.batch from one generate() pass per request: the whole-table
  /// bags of this rank's shards' tables and, on rank 0, of every split
  /// table (the merge and the gatherv layout need them) plus the dense slab.
  void generate_batch(int rank, RankScratch& rs);
  /// Fills rs.send with this rank's concatenated shard outputs.
  void fill_send(int rank, RankScratch& rs);
  void note_refused(const Request& r);

  ShardedSnapshot* active_;  // written by rank 0 at batch boundaries only
  const Dataset& data_;
  ShardedEngineOptions options_;
  Profiler* prof_;
  const int ranks_;
  const int rank_threads_;  // compute-pool size each rank thread owns

  RequestQueue queue_;

  // Pending snapshot handover (swapped at batch boundaries; snap_cv_
  // signals adoption so publishers can reclaim the retired buffer).
  std::mutex snap_mu_;
  std::condition_variable snap_cv_;
  ShardedSnapshot* pending_ = nullptr;

  // Results + accounting (rank 0 writes, any thread reads via stats()).
  mutable std::mutex stats_mu_;
  std::vector<Response> responses_;
  std::vector<double> latencies_ms_;
  std::array<std::vector<double>, kNumSloClasses> class_lat_;
  std::array<std::int64_t, kNumSloClasses> served_class_{};
  std::int64_t batches_ = 0, samples_ = 0, slo_violations_ = 0, rejected_ = 0;
  double wall_start_ = 0.0, wall_end_ = 0.0;

  std::vector<RankScratch> scratch_;  // [ranks]

  // Rank-0 merge/assembly scratch.
  std::vector<std::int64_t> shard_floats_;   // per canonical shard
  std::vector<std::int64_t> shard_offset_;   // recv offset per shard
  std::vector<std::int64_t> shard_cursor_;   // merge read cursors
  std::vector<std::int64_t> counts_, displs_;  // gatherv layout [ranks]
  std::vector<float> recv_;                    // gathered shard outputs
  std::vector<Tensor<float>> merged_;          // per split table [N][E]
  std::vector<const float*> feat_ptrs_;  // per-table feature pointers

  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> errors_;
  std::shared_ptr<CommWorld> world_;
  bool running_ = false;
};

}  // namespace dlrm::serve
