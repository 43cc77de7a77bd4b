// EmbeddingBag lookup, backward and sparse-update kernels
// (paper Sect. III.A, Algorithms 1–4).
//
// The update pass is the kernel that dominated the unoptimized DLRM (99% of
// runtime) and the one with interesting parallelization trade-offs:
//
//   * kReference  — the naive "functionality-first" framework kernel: serial,
//                   materializes a dense gradient the size of the full table
//                   and sweeps the whole table to apply it. This is the 110x
//                   denominator of the paper.
//   * kAtomicXchg — parallel over lookups; float atomic-add via CAS loop.
//   * kRtm        — parallel over lookups; row-granular transactional section
//                   (striped-lock software emulation of Intel RTM: same
//                   cache-line-ownership behaviour, SIMD body allowed).
//   * kRaceFree   — Algorithm 4: rows statically partitioned across threads,
//                   every thread scans all indices and updates only its own
//                   rows. Race-free, deterministic, locality friendly; the
//                   winner under heavy index reuse (MLPerf/Criteo).
//
// backward() materializes per-lookup gradients dL[NS][E] (Algorithm 2) and
// apply_update() consumes them (Algorithm 3/4). fused_backward_update() is
// the fusion the paper measured at up to 1.6x for embedding updates.
//
// Precision modes (paper Sect. VII): fp32; BF16 Split-SGD (hi/lo 16-bit
// halves, implicit fp32 master weights); Split-SGD with only 8 low bits
// (shown insufficient in the paper); fp16 with stochastic rounding (ref
// [13]; fails to reach SOTA in the paper).
//
// Row kernels. The lookup loops are memory-bound (Sect. III.A): their speed
// is the number of DRAM misses kept in flight. forward(),
// fused_backward_update() and apply_update() therefore pick one row kernel
// per call — precision, cache tier and dim (compile-time D in {16, 32, 64,
// 128}, a runtime-dim fallback with the same body otherwise) — and run all
// their lookups through its two row ops: accumulate a row into a bag sum,
// update a row with its stochastic-rounding salt. Each lookup loop software-
// prefetches the row a fixed number of lookups ahead (read intent in the
// forward, write intent in the updates; kRaceFree prefetches only rows in the
// thread's own range). None of this changes a bit: every bag sums in lookup
// order, every element sees the same operations, and the per-lookup salt
// streams and kAtomicXchg's CAS are unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "tensor/tensor.hpp"

namespace dlrm {

/// Multi-hot lookup batch for one table: bag n reads rows
/// indices[offsets[n] .. offsets[n+1]).
struct BagBatch {
  Tensor<std::int64_t> indices;  // [NS] row ids
  Tensor<std::int64_t> offsets;  // [N+1], offsets[0] == 0

  std::int64_t batch() const { return offsets.size() - 1; }
  std::int64_t lookups() const { return indices.size(); }

  /// Validates internal consistency against a table with `rows` rows.
  void validate(std::int64_t rows) const;
};

enum class UpdateStrategy { kReference, kAtomicXchg, kRtm, kRaceFree };

enum class EmbedPrecision {
  kFp32,
  kBf16Split,      // Split-SGD-BF16: hi is the bf16 model weight, lo hidden LSBs
  kBf16Split8,     // only 8 extra LSBs retained (paper: not enough)
  kFp16Stochastic, // fp16 weights, stochastic-rounded updates (ref [13])
  kFp24            // FP24 (1-8-15) weights, RNE-rounded updates (Fig. 16)
};

const char* to_string(UpdateStrategy s);
const char* to_string(EmbedPrecision p);

/// How rows are admitted into the hot-row cache tier.
enum class EmbCachePolicy {
  kOff,      // no cache
  kHist,     // one-shot admission from LookupStats row histograms
  kCounter   // runtime per-row counters with periodic decay + re-admission
};

const char* to_string(EmbCachePolicy p);

/// Hot-row working-tier configuration. Embedding lookups are heavily
/// Zipf-skewed; the cache keeps the top-K rows as fp32 *master* state in one
/// contiguous arena so hot traffic stays in a few MB instead of streaming the
/// whole table.
struct EmbCacheOptions {
  std::int64_t capacity = 0;  // max resident rows per table; 0 disables
  EmbCachePolicy policy = EmbCachePolicy::kOff;
  std::int64_t refresh_every = 64;  // kCounter: forwards between refreshes
  int decay_shift = 1;              // kCounter: counters >>= shift per refresh

  bool enabled() const {
    return policy != EmbCachePolicy::kOff && capacity > 0;
  }
};

struct EmbCacheStats {
  std::int64_t hits = 0;        // forward lookups served from the arena
  std::int64_t misses = 0;      // forward lookups served from cold storage
  std::int64_t evictions = 0;   // rows written back and dropped
  std::int64_t admissions = 0;  // rows loaded into the arena
  std::int64_t refreshes = 0;   // kCounter re-admission passes
  std::int64_t capacity = 0;    // arena rows
  std::int64_t resident = 0;    // currently cached rows

  double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// One embedding table W[M][E] with pluggable update strategy and storage
/// precision. A table can also be a row-range *shard view* of a larger
/// logical table (model-parallel row splitting): it stores only rows
/// [row_begin, row_begin + rows) of a [global_rows][E] table, is addressed
/// with shard-local row ids, and init() draws exactly the values the
/// corresponding rows of the full table would receive.
class EmbeddingTable {
 public:
  EmbeddingTable(std::int64_t rows, std::int64_t dim,
                 EmbedPrecision precision = EmbedPrecision::kFp32);

  /// Row-range shard view: rows [row_begin, row_begin + rows) of a logical
  /// [global_rows][dim] table.
  EmbeddingTable(std::int64_t rows, std::int64_t dim, EmbedPrecision precision,
                 std::int64_t row_begin, std::int64_t global_rows);

  std::int64_t rows() const { return rows_; }
  std::int64_t dim() const { return dim_; }
  EmbedPrecision precision() const { return precision_; }
  /// First global row of this shard (0 for a full table).
  std::int64_t row_begin() const { return row_begin_; }
  /// Rows of the logical table this shard belongs to (== rows() when full).
  std::int64_t global_rows() const { return global_rows_; }

  /// Initializes rows U(-scale, scale). For a shard view, `rng` is the full
  /// table's generator: the leading global rows are drawn and discarded so
  /// the stored rows match the full table bit-for-bit.
  void init(Rng& rng, float scale);

  /// Algorithm 1: out[n][:] = sum over bag n of W[idx][:]. out is [N][E].
  void forward(const BagBatch& bags, float* out) const;

  /// Algorithm 2: expands dY[N][E] into per-lookup gradients dL[NS][E].
  void backward(const float* dy, const BagBatch& bags,
                Tensor<float>& dlookup) const;

  /// Algorithm 3/4: W[I[s]] -= lr * dL[s] under the chosen strategy.
  void apply_update(const Tensor<float>& dlookup, const BagBatch& bags,
                    float lr, UpdateStrategy strategy);

  /// Fused Algorithm 2+3: W[I[s]] -= lr * dY[bag(s)] without materializing
  /// dL. Up to 1.6x faster than backward()+apply_update().
  void fused_backward_update(const float* dy, const BagBatch& bags, float lr,
                             UpdateStrategy strategy);

  /// Bytes of the canonical checkpoint encoding of one row: the *complete*
  /// storage state (model weight + hidden Split-SGD low halves), so an
  /// export/import round trip is bit-exact for every precision. The
  /// encoding depends only on (precision, dim) — never on how the logical
  /// table is sharded — so a checkpoint row written by one shard geometry
  /// can be imported by any other.
  std::int64_t checkpoint_row_bytes() const {
    return checkpoint_row_bytes(precision_, dim_);
  }
  /// Same, without a table instance (migration planning on ranks that own
  /// no shard of a table still needs the wire size).
  static std::int64_t checkpoint_row_bytes(EmbedPrecision precision,
                                           std::int64_t dim);

  /// Serializes rows [first, first + n) (shard-local ids) into `out`
  /// (n * checkpoint_row_bytes() bytes, rows consecutive).
  void export_rows(std::int64_t first, std::int64_t n,
                   unsigned char* out) const;

  /// Restores rows [first, first + n) from an export_rows payload produced
  /// by a table of the same precision and dim (any shard geometry).
  void import_rows(std::int64_t first, std::int64_t n,
                   const unsigned char* in);

  /// Reads one row into an fp32 buffer (decoding low-precision storage).
  void read_row(std::int64_t row, float* out) const;

  /// Writes one row from fp32 (encoding into the storage precision).
  void write_row(std::int64_t row, const float* values);

  /// Bytes of persistent storage (model + optimizer state). Split-SGD is the
  /// point of comparison: bf16 model + 16-bit optimizer state == fp32 bytes,
  /// while fp16-with-master-weights would be 3x the fp16 model size.
  std::int64_t storage_bytes() const;

  /// Bytes of *model* storage touched by forward/backward (the 2x bandwidth
  /// saving of Split-SGD shows up here).
  std::int64_t model_bytes() const;

  // ---- Hot-row cache tier -------------------------------------------------
  //
  // A software-managed working tier: resident rows live as fp32 *master*
  // state (the exact decoded storage state, low halves included) in one
  // contiguous arena. The row kernels test residency per lookup and run the
  // same per-precision element ops on an arena master or a cold row;
  // eviction re-encodes through the same bit-exact codec as export_rows, so
  // results are bit-identical with the cache on or off.
  // The cache is derived state: checkpoints (export_rows) read through it
  // and never record it.

  /// (Re)configures the cache. Any resident rows are written back first.
  /// `capacity` is clamped to rows(). kHist expects a follow-up call to
  /// admit_top_rows_from_histogram(); kCounter self-manages admission.
  void configure_cache(const EmbCacheOptions& opts);

  bool cache_enabled() const { return !cache_slot_.empty(); }
  const EmbCacheOptions& cache_options() const { return cache_opts_; }

  /// Replaces the resident set with `rows` (shard-local ids, unique,
  /// truncated to capacity). Rows already resident stay in place; the rest
  /// are written back / loaded as needed.
  void admit_rows(const std::int64_t* rows, std::int64_t n);

  /// Picks the top-capacity rows of this shard by histogram density and
  /// admits them. `histogram` is a LookupStats row histogram over the
  /// *logical global* table (any bucket count); bucket mass is apportioned
  /// pro rata to this shard's row range.
  void admit_top_rows_from_histogram(const std::vector<double>& histogram);

  /// Writes every resident row back to cold storage (rows stay resident).
  void flush_cache();

  EmbCacheStats cache_stats() const;
  void reset_cache_stats();

  /// Arena + index bytes currently allocated for the cache tier.
  std::int64_t cache_bytes() const;

 private:
  /// Calls fn(kernel) with the row kernel of this table's precision, dim
  /// and cache tier (embedding.cpp): the one dispatch of a lookup call.
  template <typename Fn>
  void with_row_kernel(Fn&& fn) const;

  /// Arena pointer for `row`, or nullptr when not resident (or cache off).
  float* cached_row(std::int64_t row) {
    if (cache_slot_.empty()) return nullptr;
    const std::int32_t s = cache_slot_[static_cast<std::size_t>(row)];
    return s < 0 ? nullptr : cache_.data() + static_cast<std::int64_t>(s) * dim_;
  }
  const float* cached_row(std::int64_t row) const {
    return const_cast<EmbeddingTable*>(this)->cached_row(row);
  }

  void load_master_row(std::int64_t row, float* out) const;
  void store_master_row(std::int64_t row, const float* master);
  void encode_row_bytes(const float* master, unsigned char* out) const;
  void evict_slot(std::int64_t slot);
  /// kCounter bookkeeping: serial per-forward row counting + periodic
  /// decay/re-admission. Logically const (derived state only).
  void note_forward_counters(const BagBatch& bags) const;

  std::int64_t rows_, dim_;
  EmbedPrecision precision_;
  std::int64_t row_begin_ = 0, global_rows_ = 0;

  Tensor<float> w_;                // kFp32
  Tensor<std::uint16_t> hi_;       // bf16 bits / fp16 bits
  Tensor<std::uint16_t> lo_;       // Split-SGD low halves

  // Cache tier (all derived state; mutable so const forward() can maintain
  // hit counters and kCounter admission without changing its signature).
  EmbCacheOptions cache_opts_;
  mutable std::vector<float> cache_;            // [capacity][dim] fp32 masters
  mutable std::vector<std::int32_t> cache_slot_;  // [rows] row -> slot or -1
  mutable std::vector<std::int64_t> slot_row_;    // [capacity] slot -> row or -1
  mutable std::vector<std::uint32_t> freq_;       // kCounter per-row counters
  mutable std::int64_t forwards_since_refresh_ = 0;
  mutable std::int64_t cache_resident_ = 0;
  mutable std::atomic<std::int64_t> cache_hits_{0};
  mutable std::atomic<std::int64_t> cache_misses_{0};
  mutable std::int64_t cache_evictions_ = 0;
  mutable std::int64_t cache_admissions_ = 0;
  mutable std::int64_t cache_refreshes_ = 0;
};

/// Float atomic add via 32-bit CAS loop (strategy kAtomicXchg).
inline void atomic_add_float(float* addr, float value) {
  auto* word = reinterpret_cast<std::uint32_t*>(addr);
  std::uint32_t expected = __atomic_load_n(word, __ATOMIC_RELAXED);
  for (;;) {
    const float updated = std::bit_cast<float>(expected) + value;
    const std::uint32_t desired = std::bit_cast<std::uint32_t>(updated);
    if (__atomic_compare_exchange_n(word, &expected, desired, /*weak=*/true,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
      return;
    }
  }
}

}  // namespace dlrm
