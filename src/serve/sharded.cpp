#include "serve/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "ckpt/checkpoint.hpp"
#include "common/log.hpp"
#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "data/loader.hpp"

namespace dlrm::serve {

namespace {

bool is_full_shard(const Shard& sh, const DlrmConfig& config) {
  return sh.row_begin == 0 &&
         sh.row_end == config.table_rows[static_cast<std::size_t>(sh.table)];
}

/// Copies one MLP through the canonical flat-fp32 encoding (the form the
/// checkpoint manifest stores) — a bit-exact publication. `flat` is staging,
/// grown on demand. pack_from refreshes nothing else: the bf16 VNNI mirrors
/// are rebuilt from these canonical weights on every forward.
void copy_mlp_canonical(Mlp& src, Mlp& dst, std::vector<float>& flat) {
  DLRM_CHECK(src.layer_count() == dst.layer_count(),
             "snapshot MLP topology mismatch");
  for (std::size_t l = 0; l < src.layer_count(); ++l) {
    FullyConnected& s = src.layer(l);
    FullyConnected& d = dst.layer(l);
    DLRM_CHECK(s.in_features() == d.in_features() &&
                   s.out_features() == d.out_features(),
               "snapshot MLP layer shape mismatch");
    const std::size_t n =
        static_cast<std::size_t>(s.out_features() * s.in_features());
    if (flat.size() < n) flat.resize(n);
    s.weights().unpack_to(flat.data());
    d.weights().pack_from(flat.data());
    std::copy(s.bias().data(), s.bias().data() + s.bias().size(),
              d.bias().data());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedSnapshot

ShardedSnapshot::ShardedSnapshot(const DlrmConfig& config, ModelOptions options,
                                 const ShardingPlan& plan, std::uint64_t seed)
    : config_(config),
      plan_(plan),
      bottom_(config.bottom_mlp, Activation::kRelu, Activation::kRelu,
              options.blocks, config.mlp_precision),
      top_(config.top_mlp_full(), Activation::kRelu, Activation::kNone,
           options.blocks, config.mlp_precision),
      interaction_(config.tables() + 1, config.dim,
                   config.interaction_pad <= 1 ? 1 : config.interaction_pad) {
  config_.validate();
  DLRM_CHECK(!plan_.empty(), "sharded snapshot needs a non-empty plan");
  DLRM_CHECK(plan_.tables() == config_.tables(),
             "plan/table-count mismatch");
  // Same init discipline as DlrmModel so an unpublished snapshot is at
  // least well-formed; publication overwrites every value anyway.
  Rng mlp_rng(seed);
  bottom_.init(mlp_rng);
  top_.init(mlp_rng);
  tables_.reserve(plan_.shards().size());
  for (const Shard& sh : plan_.shards()) {
    const auto t = static_cast<std::size_t>(sh.table);
    tables_.push_back(std::make_unique<EmbeddingTable>(
        sh.rows(), config_.dim, options.embed_precision, sh.row_begin,
        config_.table_rows[t]));
    Rng trng(seed + 1000003ull * static_cast<std::uint64_t>(sh.table + 1));
    tables_.back()->init(trng,
                         1.0f / std::sqrt(static_cast<float>(config_.dim)));
  }
  DLRM_CHECK(interaction_.out_dim() == config_.interaction_out(),
             "interaction width mismatch");
}

void ShardedSnapshot::publish_from(DlrmModel& src, std::int64_t version) {
  DLRM_CHECK(src.tables() == config_.tables(),
             "sharded snapshot table count mismatch");
  for (std::int64_t s = 0; s < plan_.num_shards(); ++s) {
    const Shard& sh = plan_.shard(s);
    EmbeddingTable& from = src.table(sh.table);
    EmbeddingTable& to = shard_table(s);
    DLRM_CHECK(from.rows() == config_.table_rows[static_cast<std::size_t>(
                                  sh.table)] &&
                   from.dim() == to.dim() &&
                   from.precision() == to.precision(),
               "sharded snapshot shard geometry mismatch");
    const std::size_t bytes =
        static_cast<std::size_t>(sh.rows() * from.checkpoint_row_bytes());
    if (row_buf_.size() < bytes) row_buf_.resize(bytes);
    from.export_rows(sh.row_begin, sh.rows(), row_buf_.data());
    to.import_rows(0, sh.rows(), row_buf_.data());
  }
  copy_mlp_canonical(src.bottom_mlp(), bottom_, flat_buf_);
  copy_mlp_canonical(src.top_mlp(), top_, flat_buf_);
  version_ = version;
}

void ShardedSnapshot::publish_from_checkpoint(const std::string& dir) {
  ckpt::CheckpointReader reader(dir);
  // Serving doesn't care which global batch trained the snapshot; borrow
  // the saved one so check_model validates only the model identity.
  reader.check_model(ckpt::ModelConfigKey::from(
      config_, tables_.empty() ? EmbedPrecision::kFp32 : tables_[0]->precision(),
      reader.saved_key().global_batch));
  reader.load_dense(bottom_, top_);
  for (std::int64_t s = 0; s < plan_.num_shards(); ++s) {
    reader.load_shard_rows(plan_.shard(s), shard_table(s));
  }
  version_ = reader.step();
}

const Tensor<float>& ShardedSnapshot::forward_dense(
    const Tensor<float>& dense, const std::vector<const float*>& table_feats,
    std::int64_t n) {
  DLRM_CHECK(static_cast<std::int64_t>(table_feats.size()) == config_.tables(),
             "forward_dense needs one feature block per table");
  if (n != n_) {
    n_ = n;
    bottom_.set_batch(n);
    top_.set_batch(n);
    interact_out_.reshape({n, interaction_.out_dim()});
    logits_.reshape({n});
  }
  // Mirrors DlrmModel::forward's dense sequence exactly (bit-exactness).
  const Tensor<float>& z0 = bottom_.forward(dense);
  feats_.clear();
  feats_.push_back(z0.data());
  for (const float* f : table_feats) feats_.push_back(f);
  interaction_.forward(feats_, n_, interact_out_.data());
  const Tensor<float>& out = top_.forward(interact_out_);
  for (std::int64_t i = 0; i < n_; ++i) logits_[i] = out[i];
  return logits_;
}

// ---------------------------------------------------------------------------
// ShardedInferenceEngine

ShardedInferenceEngine::ShardedInferenceEngine(ShardedSnapshot& snapshot,
                                               const Dataset& data,
                                               ShardedEngineOptions options,
                                               Profiler* prof)
    : active_(&snapshot),
      data_(data),
      options_(options),
      prof_(prof),
      ranks_(snapshot.plan().ranks()),
      rank_threads_(std::max(1, default_pool_threads() / ranks_)),
      queue_(options.queue_capacity, options.admission),
      scratch_(static_cast<std::size_t>(snapshot.plan().ranks())),
      errors_(static_cast<std::size_t>(snapshot.plan().ranks())) {
  DLRM_CHECK(options_.policy.max_batch >= 1, "max_batch must be >= 1");
  DLRM_CHECK(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  DLRM_CHECK(snapshot.plan().tables() == data_.tables(),
             "plan/dataset table count mismatch");
}

ShardedInferenceEngine::~ShardedInferenceEngine() { stop(); }

void ShardedInferenceEngine::start() {
  DLRM_CHECK(!running_, "engine already running");
  queue_.open();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    wall_start_ = now_sec();
    wall_end_ = 0.0;
  }
  world_ = CommWorld::create(ranks_);
  errors_.assign(static_cast<std::size_t>(ranks_), nullptr);
  threads_.clear();
  for (int r = 0; r < ranks_; ++r) {
    threads_.emplace_back([this, r] {
      try {
        ThreadComm comm(world_, r);
        ThreadPool pool(rank_threads_);
        PoolScope scope(pool);
        if (r == 0) {
          batcher_body(comm);
        } else {
          follower_body(comm);
        }
      } catch (...) {
        errors_[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  running_ = true;
}

void ShardedInferenceEngine::stop() {
  if (!running_) return;
  queue_.close();
  for (auto& t : threads_) t.join();
  threads_.clear();
  world_.reset();
  running_ = false;
  {
    // All ranks are gone; adopt any still-pending snapshot so a waiting
    // publisher is released.
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (pending_ != nullptr) {
      active_ = pending_;
      pending_ = nullptr;
    }
  }
  snap_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    wall_end_ = now_sec();
  }
  for (auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

bool ShardedInferenceEngine::submit(Request r) {
  switch (queue_.submit(r, /*blocking=*/true)) {
    case SubmitResult::kOk:
      return true;
    case SubmitResult::kShed:
      note_refused(r);
      return false;
    default:
      return false;
  }
}

bool ShardedInferenceEngine::try_submit(Request r) {
  switch (queue_.submit(r, /*blocking=*/false)) {
    case SubmitResult::kOk:
      return true;
    case SubmitResult::kShed:
      note_refused(r);
      return false;
    case SubmitResult::kFull: {
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++rejected_;
      }
      note_refused(r);
      return false;
    }
    default:
      return false;
  }
}

void ShardedInferenceEngine::note_refused(const Request& r) {
  const double lat_ms = (now_sec() - r.submit_sec) * 1e3;
  std::lock_guard<std::mutex> lock(stats_mu_);
  latencies_ms_.push_back(lat_ms);
  if (lat_ms > options_.slo_ms) ++slo_violations_;
}

void ShardedInferenceEngine::set_snapshot(ShardedSnapshot* snap) {
  DLRM_CHECK(snap != nullptr, "set_snapshot needs a snapshot");
  DLRM_CHECK(snap->plan().ranks() == ranks_,
             "replacement snapshot must keep the rank count");
  std::lock_guard<std::mutex> lock(snap_mu_);
  pending_ = snap;
}

bool ShardedInferenceEngine::wait_snapshot_swapped(double timeout_sec) {
  std::unique_lock<std::mutex> lock(snap_mu_);
  const auto adopted = [&] { return pending_ == nullptr; };
  if (timeout_sec < 0.0) {
    snap_cv_.wait(lock, adopted);
    return true;
  }
  return snap_cv_.wait_for(lock, std::chrono::duration<double>(timeout_sec),
                           adopted);
}

void ShardedInferenceEngine::batcher_body(ThreadComm& comm) {
  std::vector<Request> batch;
  while (collect_batch(queue_, options_.policy, batch)) {
    process_batch(comm, batch);
  }
  // Release the followers (op 0 = stop).
  std::int64_t header[2] = {0, 0};
  comm.broadcast_i64(header, 2, /*root=*/0);
}

void ShardedInferenceEngine::follower_body(ThreadComm& comm) {
  RankScratch& rs = scratch_[static_cast<std::size_t>(comm.rank())];
  for (;;) {
    rs.header.assign(2, 0);
    comm.broadcast_i64(rs.header.data(), 2, /*root=*/0);
    if (rs.header[0] == 0) return;  // stop
    const std::int64_t nreq = rs.header[1];
    rs.payload.assign(static_cast<std::size_t>(2 * nreq), 0);
    comm.broadcast_i64(rs.payload.data(), 2 * nreq, /*root=*/0);
    // The broadcast barriers order rank 0's active_ write (at the batch
    // boundary, before the header went out) before this read.
    rs.reqs.resize(static_cast<std::size_t>(nreq));
    for (std::int64_t i = 0; i < nreq; ++i) {
      rs.reqs[static_cast<std::size_t>(i)] = {
          rs.payload[static_cast<std::size_t>(2 * i)],
          rs.payload[static_cast<std::size_t>(2 * i + 1)]};
    }
    generate_batch(comm.rank(), rs);
    fill_send(comm.rank(), rs);
    comm.gatherv(rs.send.data(), static_cast<std::int64_t>(rs.send.size()),
                 nullptr, nullptr, nullptr, /*root=*/0);
  }
}

void ShardedInferenceEngine::generate_batch(int rank, RankScratch& rs) {
  const ShardingPlan& plan = active_->plan();
  const DlrmConfig& config = active_->config();
  rs.tables.clear();
  rs.slot.assign(static_cast<std::size_t>(plan.tables()), -1);
  for (std::int64_t s = 0; s < plan.num_shards(); ++s) {
    const Shard& sh = plan.shard(s);
    const bool wanted =
        sh.rank == rank || (rank == 0 && !is_full_shard(sh, config));
    auto& slot = rs.slot[static_cast<std::size_t>(sh.table)];
    if (wanted && slot < 0) {
      slot = static_cast<std::int64_t>(rs.tables.size());
      rs.tables.push_back(sh.table);
    }
  }
  std::int64_t n = 0;
  for (const ReqKey& rk : rs.reqs) n += rk.fanout;
  const bool with_dense = rank == 0;
  shape_minibatch(data_, n, rs.tables, with_dense ? n : 0, rs.batch);
  // Pooling is fixed per table, so each request's bags are whole rows of
  // the batch's regular bags.
  const std::int64_t d = data_.dense_dim();
  std::int64_t row = 0;
  for (const ReqKey& rk : rs.reqs) {
    data_.generate(rk.key, rk.fanout, rs.tables, 0,
                   with_dense ? rk.fanout : 0, rs.req);
    for (std::size_t k = 0; k < rs.tables.size(); ++k) {
      const std::int64_t p = data_.pooling(rs.tables[k]);
      std::copy_n(rs.req.bags[k].indices.data(), rk.fanout * p,
                  rs.batch.bags[k].indices.data() + row * p);
    }
    if (with_dense) {
      std::copy_n(rs.req.dense.data(), rk.fanout * d,
                  rs.batch.dense.data() + row * d);
    }
    row += rk.fanout;
  }
}

void ShardedInferenceEngine::fill_send(int rank, RankScratch& rs) {
  const ShardingPlan& plan = active_->plan();
  const DlrmConfig& config = active_->config();
  const std::int64_t e = config.dim;
  std::int64_t pos = 0;
  rs.send.clear();
  for (std::int64_t s : plan.shards_of_rank(rank)) {
    const Shard& sh = plan.shard(s);
    const BagBatch& bags = rs.bags_of(sh.table);
    EmbeddingTable& tbl = active_->shard_table(s);
    if (is_full_shard(sh, config)) {
      // Whole-table shard: pooled [N][E] output, exactly the single-process
      // embedding forward on identical storage.
      const std::int64_t n = bags.batch();
      rs.send.resize(static_cast<std::size_t>(pos + n * e));
      tbl.forward(bags, rs.send.data() + pos);
      pos += n * e;
    } else {
      // Row-split shard: ship the decoded row of every in-range lookup in
      // original index order. Partial per-bag sums would NOT be bit-exact
      // (fp addition is non-associative across shard boundaries); rank 0
      // merges the rows in the full table's index order instead.
      rewrite_bags_to_shard(bags, sh.row_begin, sh.row_end, rs.local_bags);
      const std::int64_t nl = rs.local_bags.lookups();
      rs.send.resize(static_cast<std::size_t>(pos + nl * e));
      float* out = rs.send.data() + pos;
      for (std::int64_t i = 0; i < nl; ++i) {
        tbl.read_row(rs.local_bags.indices[i], out + i * e);
      }
      pos += nl * e;
    }
  }
}

void ShardedInferenceEngine::process_batch(ThreadComm& comm,
                                           const std::vector<Request>& reqs) {
  {
    // Adopt a pending snapshot at the batch boundary, BEFORE the header
    // broadcast: the broadcast's barriers then order this write before
    // every follower's active_ reads for this batch.
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (pending_ != nullptr) {
      active_ = pending_;
      pending_ = nullptr;
      snap_cv_.notify_all();
    }
  }

  RankScratch& rs = scratch_[0];
  const auto nreq = static_cast<std::int64_t>(reqs.size());
  std::int64_t total = 0;
  rs.reqs.resize(static_cast<std::size_t>(nreq));
  rs.payload.assign(static_cast<std::size_t>(2 * nreq), 0);
  for (std::int64_t i = 0; i < nreq; ++i) {
    const Request& r = reqs[static_cast<std::size_t>(i)];
    DLRM_CHECK(r.fanout >= 1, "request fanout must be >= 1");
    total += r.fanout;
    rs.reqs[static_cast<std::size_t>(i)] = {r.key, r.fanout};
    rs.payload[static_cast<std::size_t>(2 * i)] = r.key;
    rs.payload[static_cast<std::size_t>(2 * i + 1)] = r.fanout;
  }
  // pow2 bucketing: pad the batch to the next power-of-two sample count
  // with synthetic single-sample requests replicating sample 0, appended
  // BEFORE the broadcast so every rank materializes identically padded
  // bags without any protocol change. Pad rows ride the whole
  // lookup/gather/merge/dense pipeline and are discarded: the response loop
  // below only reads the real rows, which sit at unchanged offsets ahead of
  // the pads.
  std::int64_t exec = total;
  if (options_.bucket_batches) {
    exec = 1;
    while (exec < total) exec *= 2;
  }
  for (std::int64_t m = total; m < exec; ++m) {
    rs.reqs.push_back({reqs[0].key, 1});
    rs.payload.push_back(reqs[0].key);
    rs.payload.push_back(1);
  }
  const auto nsend = static_cast<std::int64_t>(rs.reqs.size());
  rs.header.assign({std::int64_t{1}, nsend});
  comm.broadcast_i64(rs.header.data(), 2, /*root=*/0);
  comm.broadcast_i64(rs.payload.data(), 2 * nsend, /*root=*/0);

  const ShardingPlan& plan = active_->plan();
  const DlrmConfig& config = active_->config();
  const std::int64_t e = config.dim;
  const auto num_tables = static_cast<std::size_t>(plan.tables());

  const double t0 = now_sec();

  // One generate() pass per request: rank 0's own tables, every split
  // table's whole bags, and the dense slab (pad rows replicate sample 0,
  // exactly as the synthetic pad requests broadcast above).
  generate_batch(0, rs);
  shard_floats_.assign(static_cast<std::size_t>(plan.num_shards()), 0);
  for (std::int64_t s = 0; s < plan.num_shards(); ++s) {
    const Shard& sh = plan.shard(s);
    if (is_full_shard(sh, config)) {
      shard_floats_[static_cast<std::size_t>(s)] = exec * e;
      continue;
    }
    std::int64_t in_range = 0;
    const BagBatch& bags = rs.bags_of(sh.table);
    for (std::int64_t i = 0; i < bags.lookups(); ++i) {
      const std::int64_t idx = bags.indices[i];
      if (idx >= sh.row_begin && idx < sh.row_end) ++in_range;
    }
    shard_floats_[static_cast<std::size_t>(s)] = in_range * e;
  }

  // gatherv layout: rank p's block is its shards in shards_of_rank order.
  counts_.assign(static_cast<std::size_t>(ranks_), 0);
  displs_.assign(static_cast<std::size_t>(ranks_), 0);
  shard_offset_.assign(static_cast<std::size_t>(plan.num_shards()), 0);
  std::int64_t cursor = 0;
  for (int p = 0; p < ranks_; ++p) {
    displs_[static_cast<std::size_t>(p)] = cursor;
    for (std::int64_t s : plan.shards_of_rank(p)) {
      shard_offset_[static_cast<std::size_t>(s)] = cursor;
      cursor += shard_floats_[static_cast<std::size_t>(s)];
      counts_[static_cast<std::size_t>(p)] +=
          shard_floats_[static_cast<std::size_t>(s)];
    }
  }
  recv_.resize(static_cast<std::size_t>(cursor));

  // Rank 0's own shard lookups, then collect everyone's.
  fill_send(0, rs);
  comm.gatherv(rs.send.data(), static_cast<std::int64_t>(rs.send.size()),
               recv_.data(), counts_.data(), displs_.data(), /*root=*/0);

  // Per-table features: whole-table shards point straight into recv_;
  // split tables merge per lookup in the full table's index order, which
  // reproduces the single-process forward's fp32 accumulation bit-for-bit.
  merged_.resize(num_tables);
  feat_ptrs_.assign(num_tables, nullptr);
  shard_cursor_ = shard_offset_;
  for (std::size_t t = 0; t < num_tables; ++t) {
    const auto& sids = plan.shards_of_table(static_cast<std::int64_t>(t));
    if (sids.size() == 1 &&
        is_full_shard(plan.shard(sids[0]), config)) {
      feat_ptrs_[t] =
          recv_.data() + shard_offset_[static_cast<std::size_t>(sids[0])];
      continue;
    }
    Tensor<float>& m = merged_[t];
    m.reshape({exec, e});
    const BagBatch& bags = rs.bags_of(static_cast<std::int64_t>(t));
    for (std::int64_t n = 0; n < exec; ++n) {
      float* dst = m.data() + n * e;
      std::fill(dst, dst + e, 0.0f);
      for (std::int64_t j = bags.offsets[n]; j < bags.offsets[n + 1]; ++j) {
        const std::int64_t idx = bags.indices[j];
        std::int64_t owner = -1;
        for (std::int64_t cand : sids) {
          const Shard& sh = plan.shard(cand);
          if (idx >= sh.row_begin && idx < sh.row_end) {
            owner = cand;
            break;
          }
        }
        DLRM_DCHECK(owner >= 0, "lookup index outside every shard");
        const float* src =
            recv_.data() + shard_cursor_[static_cast<std::size_t>(owner)];
        for (std::int64_t k = 0; k < e; ++k) dst[k] += src[k];
        shard_cursor_[static_cast<std::size_t>(owner)] += e;
      }
    }
    feat_ptrs_[t] = m.data();
  }
  if (prof_ != nullptr) {
    prof_->add("serve_assemble", now_sec() - t0);
    if (exec > total) {
      prof_->add("serve_padded", static_cast<double>(exec - total));
    }
  }

  const double fwd0 = now_sec();
  const Tensor<float>& logits =
      active_->forward_dense(rs.batch.dense, feat_ptrs_, exec);
  if (prof_ != nullptr) prof_->add("serve_forward", now_sec() - fwd0);

  const double done = now_sec();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++batches_;
    samples_ += total;
    std::int64_t rrow = 0;
    for (const Request& r : reqs) {
      Response resp;
      resp.id = r.id;
      resp.latency_ms = (done - r.submit_sec) * 1e3;
      resp.batch = total;
      resp.version = active_->version();
      resp.score0 = logits[rrow];
      resp.slo = r.slo;
      const auto c = static_cast<std::size_t>(r.slo);
      latencies_ms_.push_back(resp.latency_ms);
      class_lat_[c].push_back(resp.latency_ms);
      ++served_class_[c];
      if (resp.latency_ms > options_.slo_ms) ++slo_violations_;
      if (prof_ != nullptr) prof_->add("serve_latency", done - r.submit_sec);
      responses_.push_back(resp);
      rrow += r.fanout;
    }
  }
  for (const Request& r : reqs) {
    queue_.record_latency(r.slo, (done - r.submit_sec) * 1e3);
  }
}

std::vector<Response> ShardedInferenceEngine::run_trace(
    const std::vector<Request>& trace) {
  DLRM_CHECK(!running_, "run_trace needs a stopped engine");
  std::size_t first_resp;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    wall_start_ = now_sec();
    wall_end_ = 0.0;
    first_resp = responses_.size();
  }
  run_ranks(ranks_, rank_threads_, [&](ThreadComm& comm) {
    if (comm.rank() != 0) {
      follower_body(comm);
      return;
    }
    // Greedy max_batch packing: what the live batcher does when the queue
    // is saturated.
    std::vector<Request> batch;
    std::int64_t samples = 0;
    for (const Request& r : trace) {
      if (!batch.empty() && samples + r.fanout > options_.policy.max_batch) {
        process_batch(comm, batch);
        batch.clear();
        samples = 0;
      }
      batch.push_back(r);
      samples += r.fanout;
    }
    if (!batch.empty()) process_batch(comm, batch);
    std::int64_t header[2] = {0, 0};
    comm.broadcast_i64(header, 2, /*root=*/0);
  });
  std::lock_guard<std::mutex> lock(stats_mu_);
  wall_end_ = now_sec();
  return {responses_.begin() + static_cast<std::ptrdiff_t>(first_resp),
          responses_.end()};
}

ServeStats ShardedInferenceEngine::stats() const {
  const QueueCounters qc = queue_.counters();
  const AdmissionState astate = queue_.admission_state();
  const double ap99 = queue_.admission_p99_ms();

  std::lock_guard<std::mutex> lock(stats_mu_);
  ServeStats s;
  s.requests = static_cast<std::int64_t>(responses_.size());
  s.batches = batches_;
  s.samples = samples_;
  s.slo_violations = slo_violations_;
  s.rejected = rejected_;
  std::vector<double> sorted = latencies_ms_;
  std::sort(sorted.begin(), sorted.end());
  s.p50_ms = percentile_nearest_rank(sorted, 0.50);
  s.p95_ms = percentile_nearest_rank(sorted, 0.95);
  s.p99_ms = percentile_nearest_rank(sorted, 0.99);
  s.max_ms = sorted.empty() ? 0.0 : sorted.back();
  s.mean_batch = batches_ > 0 ? static_cast<double>(samples_) /
                                    static_cast<double>(batches_)
                              : 0.0;
  const double end = wall_end_ > 0.0 ? wall_end_ : now_sec();
  s.wall_sec = std::max(1e-9, end - wall_start_);
  s.throughput_rps = static_cast<double>(s.requests) / s.wall_sec;
  s.admission_state = astate;
  s.admission_p99_ms = ap99;
  for (int c = 0; c < kNumSloClasses; ++c) {
    auto& cs = s.by_class[static_cast<std::size_t>(c)];
    cs.admitted = qc.admitted[static_cast<std::size_t>(c)];
    cs.served = served_class_[static_cast<std::size_t>(c)];
    cs.shed = qc.shed[static_cast<std::size_t>(c)];
    cs.deferred = qc.deferred[static_cast<std::size_t>(c)];
    std::vector<double> csorted = class_lat_[static_cast<std::size_t>(c)];
    std::sort(csorted.begin(), csorted.end());
    cs.p50_ms = percentile_nearest_rank(csorted, 0.50);
    cs.p95_ms = percentile_nearest_rank(csorted, 0.95);
    cs.p99_ms = percentile_nearest_rank(csorted, 0.99);
    cs.max_ms = csorted.empty() ? 0.0 : csorted.back();
    s.shed += cs.shed;
  }
  return s;
}

std::vector<Response> ShardedInferenceEngine::responses() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return responses_;
}

void ShardedInferenceEngine::reset_stats() {
  queue_.reset_counters();
  std::lock_guard<std::mutex> lock(stats_mu_);
  responses_.clear();
  latencies_ms_.clear();
  for (auto& v : class_lat_) v.clear();
  served_class_.fill(0);
  batches_ = samples_ = slo_violations_ = rejected_ = 0;
  wall_start_ = now_sec();
  wall_end_ = 0.0;
}

}  // namespace dlrm::serve
