#include "kernels/embedding.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/threadpool.hpp"

namespace dlrm {

void BagBatch::validate(std::int64_t rows) const {
  DLRM_CHECK(offsets.size() >= 1, "offsets must have N+1 entries");
  DLRM_CHECK(offsets[0] == 0, "offsets[0] must be 0");
  for (std::int64_t n = 0; n + 1 < offsets.size(); ++n) {
    DLRM_CHECK(offsets[n] <= offsets[n + 1], "offsets must be non-decreasing");
  }
  DLRM_CHECK(offsets[offsets.size() - 1] == indices.size(),
             "offsets must cover all indices");
  for (std::int64_t s = 0; s < indices.size(); ++s) {
    DLRM_CHECK(indices[s] >= 0 && indices[s] < rows, "index out of range");
  }
}

const char* to_string(UpdateStrategy s) {
  switch (s) {
    case UpdateStrategy::kReference:
      return "Reference";
    case UpdateStrategy::kAtomicXchg:
      return "AtomicXchg";
    case UpdateStrategy::kRtm:
      return "RTM";
    case UpdateStrategy::kRaceFree:
      return "RaceFree";
  }
  return "?";
}

const char* to_string(EmbCachePolicy p) {
  switch (p) {
    case EmbCachePolicy::kOff:
      return "off";
    case EmbCachePolicy::kHist:
      return "hist";
    case EmbCachePolicy::kCounter:
      return "counter";
  }
  return "?";
}

const char* to_string(EmbedPrecision p) {
  switch (p) {
    case EmbedPrecision::kFp32:
      return "FP32";
    case EmbedPrecision::kBf16Split:
      return "BF16-Split";
    case EmbedPrecision::kBf16Split8:
      return "BF16-Split8";
    case EmbedPrecision::kFp16Stochastic:
      return "FP16-Stochastic";
    case EmbedPrecision::kFp24:
      return "FP24";
  }
  return "?";
}

namespace {

// Striped row locks emulating RTM transactions: acquiring the stripe stands
// in for the transactional cache-line ownership; the body may use SIMD just
// like an RTM region (the paper's motivation for RTM over per-element CAS).
constexpr std::size_t kLockStripes = 4096;

std::atomic_flag& row_lock(std::int64_t row) {
  static std::atomic_flag stripes[kLockStripes] = {};
  return stripes[static_cast<std::size_t>(row) & (kLockStripes - 1)];
}

class StripeGuard {
 public:
  explicit StripeGuard(std::int64_t row) : flag_(row_lock(row)) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      // spin; transactions are short
    }
  }
  ~StripeGuard() { flag_.clear(std::memory_order_release); }
  StripeGuard(const StripeGuard&) = delete;
  StripeGuard& operator=(const StripeGuard&) = delete;

 private:
  std::atomic_flag& flag_;
};

}  // namespace

EmbeddingTable::EmbeddingTable(std::int64_t rows, std::int64_t dim,
                               EmbedPrecision precision)
    : EmbeddingTable(rows, dim, precision, /*row_begin=*/0,
                     /*global_rows=*/rows) {}

EmbeddingTable::EmbeddingTable(std::int64_t rows, std::int64_t dim,
                               EmbedPrecision precision,
                               std::int64_t row_begin, std::int64_t global_rows)
    : rows_(rows), dim_(dim), precision_(precision), row_begin_(row_begin),
      global_rows_(global_rows) {
  DLRM_CHECK(rows > 0 && dim > 0, "table shape must be positive");
  DLRM_CHECK(row_begin_ >= 0 && row_begin_ + rows_ <= global_rows_,
             "shard row range must lie inside the logical table");
  switch (precision_) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      w_.reshape({rows, dim});
      w_.zero();
      break;
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8:
      hi_.reshape({rows, dim});
      lo_.reshape({rows, dim});
      hi_.fill(0);
      lo_.fill(0);
      break;
    case EmbedPrecision::kFp16Stochastic:
      hi_.reshape({rows, dim});
      hi_.fill(0);
      break;
  }
}

void EmbeddingTable::init(Rng& rng, float scale) {
  // Shard views consume the logical table's draw stream up to row_begin so
  // stored rows are bit-identical to the same rows of an unsharded table.
  for (std::int64_t skip = 0; skip < row_begin_ * dim_; ++skip) {
    (void)rng.uniform(-scale, scale);
  }
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = 0; e < dim_; ++e) {
      const float v = rng.uniform(-scale, scale);
      const std::int64_t i = r * dim_ + e;
      switch (precision_) {
        case EmbedPrecision::kFp32:
          w_[i] = v;
          break;
        case EmbedPrecision::kFp24:
          w_[i] = f32_to_f24_rne(v);
          break;
        case EmbedPrecision::kBf16Split:
        case EmbedPrecision::kBf16Split8: {
          const SplitF32 s = split_f32(v);
          hi_[i] = s.hi;
          lo_[i] = precision_ == EmbedPrecision::kBf16Split
                       ? s.lo
                       : static_cast<std::uint16_t>(s.lo & 0xFF00u);
          break;
        }
        case EmbedPrecision::kFp16Stochastic:
          hi_[i] = f32_to_f16_rne(v);
          break;
      }
    }
  }
}

std::int64_t EmbeddingTable::checkpoint_row_bytes(EmbedPrecision precision,
                                                  std::int64_t dim) {
  switch (precision) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      return dim * 4;  // fp24 is stored widened in fp32; copy it verbatim
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8:
      return dim * 4;  // bf16 hi half + hidden lo half per element
    case EmbedPrecision::kFp16Stochastic:
      return dim * 2;
  }
  return 0;
}

void EmbeddingTable::export_rows(std::int64_t first, std::int64_t n,
                                 unsigned char* out) const {
  DLRM_CHECK(first >= 0 && n >= 0 && first + n <= rows_,
             "export_rows range outside the shard");
  const std::int64_t elems = n * dim_;
  switch (precision_) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      std::memcpy(out, w_.data() + first * dim_,
                  static_cast<std::size_t>(elems) * 4);
      break;
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8:
      // Per row: hi[dim] then lo[dim] — both halves, so the implicit fp32
      // master weight survives the round trip bit-for-bit.
      for (std::int64_t r = 0; r < n; ++r) {
        unsigned char* dst = out + r * checkpoint_row_bytes();
        const std::int64_t base = (first + r) * dim_;
        std::memcpy(dst, hi_.data() + base, static_cast<std::size_t>(dim_) * 2);
        std::memcpy(dst + dim_ * 2, lo_.data() + base,
                    static_cast<std::size_t>(dim_) * 2);
      }
      break;
    case EmbedPrecision::kFp16Stochastic:
      std::memcpy(out, hi_.data() + first * dim_,
                  static_cast<std::size_t>(elems) * 2);
      break;
  }
  // Read through the cache tier: resident rows carry the authoritative
  // master state, so re-encode them over the cold-storage bytes. Keeps the
  // checkpoint encoding independent of cache configuration.
  if (!cache_slot_.empty()) {
    const std::int64_t rb = checkpoint_row_bytes();
    for (std::int64_t r = first; r < first + n; ++r) {
      if (const float* m = cached_row(r)) {
        encode_row_bytes(m, out + (r - first) * rb);
      }
    }
  }
}

void EmbeddingTable::import_rows(std::int64_t first, std::int64_t n,
                                 const unsigned char* in) {
  DLRM_CHECK(first >= 0 && n >= 0 && first + n <= rows_,
             "import_rows range outside the shard");
  const std::int64_t elems = n * dim_;
  switch (precision_) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      std::memcpy(w_.data() + first * dim_, in,
                  static_cast<std::size_t>(elems) * 4);
      break;
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8:
      for (std::int64_t r = 0; r < n; ++r) {
        const unsigned char* src = in + r * checkpoint_row_bytes();
        const std::int64_t base = (first + r) * dim_;
        std::memcpy(hi_.data() + base, src, static_cast<std::size_t>(dim_) * 2);
        std::memcpy(lo_.data() + base, src + dim_ * 2,
                    static_cast<std::size_t>(dim_) * 2);
      }
      break;
    case EmbedPrecision::kFp16Stochastic:
      std::memcpy(hi_.data() + first * dim_, in,
                  static_cast<std::size_t>(elems) * 2);
      break;
  }
  // Write through: refresh the cached masters of any resident row in range.
  if (!cache_slot_.empty()) {
    for (std::int64_t r = first; r < first + n; ++r) {
      if (float* m = cached_row(r)) load_master_row(r, m);
    }
  }
}

void EmbeddingTable::read_row(std::int64_t row, float* out) const {
  if (const float* m = cached_row(row)) {
    // Model-weight view of the cached master: bf16 variants expose only the
    // hi half (top 16 bits of the master), everything else is the master
    // itself. An integer keep-mask, not `mask ? masked : m[e]`: g++ 12 folds
    // that select to plain m[e].
    const bool mask = precision_ == EmbedPrecision::kBf16Split ||
                      precision_ == EmbedPrecision::kBf16Split8;
    const std::uint32_t keep = mask ? 0xFFFF0000u : ~0u;
    for (std::int64_t e = 0; e < dim_; ++e) {
      out[e] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(m[e]) & keep);
    }
    return;
  }
  const std::int64_t base = row * dim_;
  switch (precision_) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      for (std::int64_t e = 0; e < dim_; ++e) out[e] = w_[base + e];
      return;
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8:
      // Model weights are the bf16 hi halves only.
      for (std::int64_t e = 0; e < dim_; ++e) out[e] = bf16_to_f32(hi_[base + e]);
      return;
    case EmbedPrecision::kFp16Stochastic:
      for (std::int64_t e = 0; e < dim_; ++e) out[e] = f16_to_f32(hi_[base + e]);
      return;
  }
}

void EmbeddingTable::write_row(std::int64_t row, const float* values) {
  const std::int64_t base = row * dim_;
  switch (precision_) {
    case EmbedPrecision::kFp32:
      for (std::int64_t e = 0; e < dim_; ++e) w_[base + e] = values[e];
      break;
    case EmbedPrecision::kFp24:
      for (std::int64_t e = 0; e < dim_; ++e) w_[base + e] = f32_to_f24_rne(values[e]);
      break;
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8:
      for (std::int64_t e = 0; e < dim_; ++e) {
        const SplitF32 s = split_f32(values[e]);
        hi_[base + e] = s.hi;
        lo_[base + e] = precision_ == EmbedPrecision::kBf16Split
                            ? s.lo
                            : static_cast<std::uint16_t>(s.lo & 0xFF00u);
      }
      break;
    case EmbedPrecision::kFp16Stochastic:
      for (std::int64_t e = 0; e < dim_; ++e) hi_[base + e] = f32_to_f16_rne(values[e]);
      break;
  }
  if (float* m = cached_row(row)) load_master_row(row, m);
}

// ---- Hot-row cache tier ----------------------------------------------------

void EmbeddingTable::load_master_row(std::int64_t row, float* out) const {
  const std::int64_t base = row * dim_;
  switch (precision_) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      for (std::int64_t e = 0; e < dim_; ++e) out[e] = w_[base + e];
      return;
    case EmbedPrecision::kBf16Split:
      for (std::int64_t e = 0; e < dim_; ++e) {
        out[e] = combine_f32(hi_[base + e], lo_[base + e]);
      }
      return;
    case EmbedPrecision::kBf16Split8:
      for (std::int64_t e = 0; e < dim_; ++e) {
        out[e] = combine_f32_partial(hi_[base + e], lo_[base + e], 8);
      }
      return;
    case EmbedPrecision::kFp16Stochastic:
      for (std::int64_t e = 0; e < dim_; ++e) out[e] = f16_to_f32(hi_[base + e]);
      return;
  }
}

void EmbeddingTable::encode_row_bytes(const float* master,
                                      unsigned char* out) const {
  switch (precision_) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      std::memcpy(out, master, static_cast<std::size_t>(dim_) * 4);
      return;
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8: {
      auto* hi = reinterpret_cast<std::uint16_t*>(out);
      auto* lo = reinterpret_cast<std::uint16_t*>(out + dim_ * 2);
      for (std::int64_t e = 0; e < dim_; ++e) {
        const SplitF32 s = split_f32(master[e]);
        hi[e] = s.hi;
        lo[e] = precision_ == EmbedPrecision::kBf16Split
                    ? s.lo
                    : static_cast<std::uint16_t>(s.lo & 0xFF00u);
      }
      return;
    }
    case EmbedPrecision::kFp16Stochastic: {
      auto* hi = reinterpret_cast<std::uint16_t*>(out);
      // Masters hold exact fp16-representable values, so RNE is an identity
      // re-encode.
      for (std::int64_t e = 0; e < dim_; ++e) hi[e] = f32_to_f16_rne(master[e]);
      return;
    }
  }
}

void EmbeddingTable::store_master_row(std::int64_t row, const float* master) {
  const std::int64_t base = row * dim_;
  switch (precision_) {
    case EmbedPrecision::kFp32:
    case EmbedPrecision::kFp24:
      for (std::int64_t e = 0; e < dim_; ++e) w_[base + e] = master[e];
      return;
    case EmbedPrecision::kBf16Split:
    case EmbedPrecision::kBf16Split8:
      for (std::int64_t e = 0; e < dim_; ++e) {
        const SplitF32 s = split_f32(master[e]);
        hi_[base + e] = s.hi;
        lo_[base + e] = precision_ == EmbedPrecision::kBf16Split
                            ? s.lo
                            : static_cast<std::uint16_t>(s.lo & 0xFF00u);
      }
      return;
    case EmbedPrecision::kFp16Stochastic:
      for (std::int64_t e = 0; e < dim_; ++e) {
        hi_[base + e] = f32_to_f16_rne(master[e]);
      }
      return;
  }
}

void EmbeddingTable::evict_slot(std::int64_t slot) {
  const std::int64_t row = slot_row_[static_cast<std::size_t>(slot)];
  if (row < 0) return;
  store_master_row(row, cache_.data() + slot * dim_);
  slot_row_[static_cast<std::size_t>(slot)] = -1;
  cache_slot_[static_cast<std::size_t>(row)] = -1;
  --cache_resident_;
  ++cache_evictions_;
}

void EmbeddingTable::configure_cache(const EmbCacheOptions& opts) {
  flush_cache();
  cache_opts_ = opts;
  cache_.clear();
  cache_slot_.clear();
  slot_row_.clear();
  freq_.clear();
  cache_resident_ = 0;
  forwards_since_refresh_ = 0;
  reset_cache_stats();
  if (!opts.enabled()) {
    cache_opts_.policy = EmbCachePolicy::kOff;
    cache_opts_.capacity = 0;
    return;
  }
  cache_opts_.capacity = std::min<std::int64_t>(opts.capacity, rows_);
  DLRM_CHECK(cache_opts_.capacity <= (std::int64_t{1} << 31) - 1,
             "cache capacity exceeds slot index range");
  cache_.assign(static_cast<std::size_t>(cache_opts_.capacity * dim_), 0.0f);
  cache_slot_.assign(static_cast<std::size_t>(rows_), -1);
  slot_row_.assign(static_cast<std::size_t>(cache_opts_.capacity), -1);
  if (cache_opts_.policy == EmbCachePolicy::kCounter) {
    freq_.assign(static_cast<std::size_t>(rows_), 0);
    if (cache_opts_.refresh_every < 1) cache_opts_.refresh_every = 1;
  }
}

void EmbeddingTable::admit_rows(const std::int64_t* rows, std::int64_t n) {
  if (cache_slot_.empty()) return;
  n = std::min<std::int64_t>(n, cache_opts_.capacity);
  // Evict residents that fall out of the new set.
  std::vector<char> keep(static_cast<std::size_t>(cache_opts_.capacity), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t s = cache_slot_[static_cast<std::size_t>(rows[i])];
    if (s >= 0) keep[static_cast<std::size_t>(s)] = 1;
  }
  for (std::int64_t s = 0; s < cache_opts_.capacity; ++s) {
    if (slot_row_[static_cast<std::size_t>(s)] >= 0 &&
        !keep[static_cast<std::size_t>(s)]) {
      evict_slot(s);
    }
  }
  // Load newcomers into free slots in order.
  std::int64_t scan = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t row = rows[i];
    DLRM_CHECK(row >= 0 && row < rows_, "admit_rows id outside the shard");
    if (cache_slot_[static_cast<std::size_t>(row)] >= 0) continue;
    while (slot_row_[static_cast<std::size_t>(scan)] >= 0) ++scan;
    load_master_row(row, cache_.data() + scan * dim_);
    slot_row_[static_cast<std::size_t>(scan)] = row;
    cache_slot_[static_cast<std::size_t>(row)] = static_cast<std::int32_t>(scan);
    ++cache_resident_;
    ++cache_admissions_;
  }
}

void EmbeddingTable::admit_top_rows_from_histogram(
    const std::vector<double>& histogram) {
  if (cache_slot_.empty() || histogram.empty()) return;
  const std::int64_t buckets = static_cast<std::int64_t>(histogram.size());
  // Rank buckets by lookup density; within equal density prefer lower row
  // ids (the Zipf head lives there under rank-ordered id assignment).
  std::vector<std::int64_t> order(static_cast<std::size_t>(buckets));
  for (std::int64_t b = 0; b < buckets; ++b) order[static_cast<std::size_t>(b)] = b;
  std::vector<double> density(static_cast<std::size_t>(buckets), 0.0);
  for (std::int64_t b = 0; b < buckets; ++b) {
    const std::int64_t begin = global_rows_ * b / buckets;
    const std::int64_t end = global_rows_ * (b + 1) / buckets;
    if (end > begin) {
      density[static_cast<std::size_t>(b)] =
          histogram[static_cast<std::size_t>(b)] /
          static_cast<double>(end - begin);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return density[static_cast<std::size_t>(a)] >
                            density[static_cast<std::size_t>(b)];
                   });
  std::vector<std::int64_t> picked;
  picked.reserve(static_cast<std::size_t>(cache_opts_.capacity));
  const std::int64_t shard_begin = row_begin_;
  const std::int64_t shard_end = row_begin_ + rows_;
  for (const std::int64_t b : order) {
    if (static_cast<std::int64_t>(picked.size()) >= cache_opts_.capacity) break;
    const std::int64_t begin =
        std::max(global_rows_ * b / buckets, shard_begin);
    const std::int64_t end =
        std::min(global_rows_ * (b + 1) / buckets, shard_end);
    for (std::int64_t g = begin; g < end; ++g) {
      if (static_cast<std::int64_t>(picked.size()) >= cache_opts_.capacity) break;
      picked.push_back(g - shard_begin);
    }
  }
  admit_rows(picked.data(), static_cast<std::int64_t>(picked.size()));
}

void EmbeddingTable::flush_cache() {
  if (cache_slot_.empty()) return;
  for (std::int64_t s = 0; s < cache_opts_.capacity; ++s) {
    const std::int64_t row = slot_row_[static_cast<std::size_t>(s)];
    if (row >= 0) store_master_row(row, cache_.data() + s * dim_);
  }
}

EmbCacheStats EmbeddingTable::cache_stats() const {
  EmbCacheStats st;
  st.hits = cache_hits_.load(std::memory_order_relaxed);
  st.misses = cache_misses_.load(std::memory_order_relaxed);
  st.evictions = cache_evictions_;
  st.admissions = cache_admissions_;
  st.refreshes = cache_refreshes_;
  st.capacity = cache_opts_.capacity;
  st.resident = cache_resident_;
  return st;
}

void EmbeddingTable::reset_cache_stats() {
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
  cache_evictions_ = 0;
  cache_admissions_ = 0;
  cache_refreshes_ = 0;
}

std::int64_t EmbeddingTable::cache_bytes() const {
  return static_cast<std::int64_t>(cache_.size()) * 4 +
         static_cast<std::int64_t>(cache_slot_.size()) * 4 +
         static_cast<std::int64_t>(slot_row_.size()) * 8 +
         static_cast<std::int64_t>(freq_.size()) * 4;
}

void EmbeddingTable::note_forward_counters(const BagBatch& bags) const {
  // Serial (called before the parallel bag loops), so plain counters are
  // race-free; only derived cache state changes, never logical values.
  auto* self = const_cast<EmbeddingTable*>(this);
  const std::int64_t ns = bags.lookups();
  const std::int64_t* idx = bags.indices.data();
  for (std::int64_t s = 0; s < ns; ++s) {
    ++self->freq_[static_cast<std::size_t>(idx[s])];
  }
  ++self->forwards_since_refresh_;
  const bool cold_start = cache_resident_ == 0;
  if (!cold_start && forwards_since_refresh_ < cache_opts_.refresh_every) {
    return;
  }
  self->forwards_since_refresh_ = 0;
  ++self->cache_refreshes_;
  // Re-admit the top-capacity rows by current counter value (deterministic
  // tie-break on row id), then decay so stale popularity ages out.
  std::vector<std::int64_t> hot;
  hot.reserve(static_cast<std::size_t>(rows_));
  for (std::int64_t r = 0; r < rows_; ++r) {
    if (freq_[static_cast<std::size_t>(r)] > 0) hot.push_back(r);
  }
  const std::size_t k = static_cast<std::size_t>(
      std::min<std::int64_t>(cache_opts_.capacity,
                             static_cast<std::int64_t>(hot.size())));
  std::partial_sort(hot.begin(), hot.begin() + static_cast<std::ptrdiff_t>(k),
                    hot.end(), [&](std::int64_t a, std::int64_t b) {
                      const std::uint32_t fa = freq_[static_cast<std::size_t>(a)];
                      const std::uint32_t fb = freq_[static_cast<std::size_t>(b)];
                      return fa != fb ? fa > fb : a < b;
                    });
  self->admit_rows(hot.data(), static_cast<std::int64_t>(k));
  for (std::int64_t r = 0; r < rows_; ++r) {
    self->freq_[static_cast<std::size_t>(r)] >>=
        static_cast<unsigned>(cache_opts_.decay_shift);
  }
}

// ---- Row kernels -------------------------------------------------------------
//
// forward, fused_backward_update and apply_update run one RowKernel, chosen
// once per call for (precision, cache tier, dim). Its two row ops —
// accumulate a row into a bag sum, update a row with its salt — do exactly
// the per-element arithmetic of the storage precision on either tier, so the
// results depend on neither the dim specialization, the tier nor the prefetch.

namespace {

// Lookups between a row's software prefetch and its use: enough misses in
// flight to cover DRAM latency at the per-lookup cost of a 64-wide fp32 row.
constexpr std::int64_t kPrefetchLookups = 16;

// w - lr * g rounded once, as the contracted form the compiler emits for
// FMA targets. Spelled out so that every row op rounds the same way: left to
// the compiler, contraction varies with how a loop was hoisted.
inline float sgd_step(float w, float lr, float g) {
#ifdef __FMA__
  return std::fma(-lr, g, w);
#else
  return w - lr * g;
#endif
}

template <bool kWrite>
inline void prefetch_span(const void* p, std::int64_t bytes) {
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t a = begin & ~std::uintptr_t{63};
       a < begin + static_cast<std::uintptr_t>(bytes); a += 64) {
    __builtin_prefetch(reinterpret_cast<const void*>(a), kWrite ? 1 : 0, 3);
  }
}

// Table storage as the row kernels see it.
struct RowStore {
  float* w;                  // kFp32 / kFp24 rows
  std::uint16_t* hi;         // bf16 / fp16 bits
  std::uint16_t* lo;         // Split-SGD low halves
  float* arena;              // cache-tier fp32 masters
  const std::int32_t* slot;  // row -> arena slot or -1; null when uncached
};

// Per-precision element ops. weight(): model value of a cold element;
// view(): model value of a cached fp32 master; step(): one SGD element
// update, of a master (returned) or of cold storage (in place). `rs` is the
// kFp16Stochastic rounding stream; the other precisions ignore it.
struct Fp32Ops {
  static float weight(const RowStore& t, std::int64_t i) { return t.w[i]; }
  static float view(float m) { return m; }
  static float step(float m, float lr, float g, std::uint64_t&) {
    return sgd_step(m, lr, g);
  }
  static void step(const RowStore& t, std::int64_t i, float lr, float g,
                   std::uint64_t& rs) {
    t.w[i] = step(t.w[i], lr, g, rs);
  }
  template <bool kWrite>
  static void prefetch(const RowStore& t, std::int64_t i, std::int64_t dim) {
    prefetch_span<kWrite>(t.w + i, dim * 4);
  }
};

struct Fp24Ops : Fp32Ops {
  static float step(float m, float lr, float g, std::uint64_t&) {
    return f32_to_f24_rne(sgd_step(m, lr, g));
  }
  static void step(const RowStore& t, std::int64_t i, float lr, float g,
                   std::uint64_t& rs) {
    t.w[i] = step(t.w[i], lr, g, rs);
  }
};

// Split-SGD: the model weight is the bf16 hi half, hi:lo the fp32 master.
// Resident masters carry the lo halves in their mantissa tails, so view()
// masks them off to match the bf16 decode of cold rows.
struct Bf16SplitOps {
  static float weight(const RowStore& t, std::int64_t i) {
    return bf16_to_f32(t.hi[i]);
  }
  static float view(float m) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(m) & 0xFFFF0000u);
  }
  // split/combine is lossless, so a resident master takes a plain fp32
  // subtract; a cold row reconstructs the master, updates it and re-splits.
  static float step(float m, float lr, float g, std::uint64_t&) {
    return sgd_step(m, lr, g);
  }
  static void step(const RowStore& t, std::int64_t i, float lr, float g,
                   std::uint64_t&) {
    const SplitF32 s = split_f32(sgd_step(combine_f32(t.hi[i], t.lo[i]), lr, g));
    t.hi[i] = s.hi;
    t.lo[i] = s.lo;
  }
  template <bool kWrite>
  static void prefetch(const RowStore& t, std::int64_t i, std::int64_t dim) {
    prefetch_span<kWrite>(t.hi + i, dim * 2);
    if (kWrite) prefetch_span<kWrite>(t.lo + i, dim * 2);
  }
};

struct Bf16Split8Ops : Bf16SplitOps {
  static float step(float m, float lr, float g, std::uint64_t&) {
    const SplitF32 s = split_f32(sgd_step(m, lr, g));
    return combine_f32_partial(s.hi, s.lo, 8);
  }
  static void step(const RowStore& t, std::int64_t i, float lr, float g,
                   std::uint64_t&) {
    const SplitF32 s =
        split_f32(sgd_step(combine_f32_partial(t.hi[i], t.lo[i], 8), lr, g));
    t.hi[i] = s.hi;
    t.lo[i] = static_cast<std::uint16_t>(s.lo & 0xFF00u);
  }
};

// Masters hold exact fp16-representable values.
struct Fp16StochasticOps {
  static float weight(const RowStore& t, std::int64_t i) {
    return f16_to_f32(t.hi[i]);
  }
  static float view(float m) { return m; }
  static std::uint16_t round(float x, std::uint64_t& rs) {
    return f32_to_f16_stochastic(
        x, static_cast<std::uint16_t>(detail::splitmix64(rs) >> 48));
  }
  static float step(float m, float lr, float g, std::uint64_t& rs) {
    return f16_to_f32(round(sgd_step(m, lr, g), rs));
  }
  static void step(const RowStore& t, std::int64_t i, float lr, float g,
                   std::uint64_t& rs) {
    t.hi[i] = round(sgd_step(f16_to_f32(t.hi[i]), lr, g), rs);
  }
  template <bool kWrite>
  static void prefetch(const RowStore& t, std::int64_t i, std::int64_t dim) {
    prefetch_span<kWrite>(t.hi + i, dim * 2);
  }
};

// The row ops of one (precision, dim, cache tier). D > 0 fixes dim at
// compile time; D == 0 is the runtime-dim fallback sharing the same body.
template <class Ops, int D, bool kCached>
struct RowKernel {
  static constexpr bool kTiered = kCached;
  static constexpr int kDim = D;
  RowStore t;
  std::int64_t runtime_dim;

  std::int64_t dim() const { return D > 0 ? D : runtime_dim; }

  // Arena master of `row`, or nullptr when the row lives in cold storage.
  float* master(std::int64_t row) const {
    if constexpr (kCached) {
      const std::int32_t sl = t.slot[row];
      if (sl >= 0) return t.arena + static_cast<std::int64_t>(sl) * dim();
    }
    return nullptr;
  }

  template <bool kWrite>
  void prefetch(std::int64_t row) const {
    if (const float* m = master(row)) {
      prefetch_span<kWrite>(m, dim() * 4);
    } else {
      Ops::template prefetch<kWrite>(t, row * dim(), dim());
    }
  }

  // acc += the model weight of `row`; true when it came from the arena.
  bool accumulate(float* __restrict__ acc, std::int64_t row) const {
    if (const float* m = master(row)) {
      for (std::int64_t e = 0; e < dim(); ++e) acc[e] += Ops::view(m[e]);
      return true;
    }
    const std::int64_t base = row * dim();
    for (std::int64_t e = 0; e < dim(); ++e) acc[e] += Ops::weight(t, base + e);
    return false;
  }

  // row -= lr * g; `salt` seeds the row's stochastic-rounding stream.
  void update(std::int64_t row, const float* __restrict__ g, float lr,
              std::uint64_t salt) const {
    std::uint64_t rs = salt ^ (static_cast<std::uint64_t>(row) << 20);
    if (float* m = master(row)) {
      for (std::int64_t e = 0; e < dim(); ++e) m[e] = Ops::step(m[e], lr, g[e], rs);
      return;
    }
    const std::int64_t base = row * dim();
    for (std::int64_t e = 0; e < dim(); ++e) Ops::step(t, base + e, lr, g[e], rs);
  }

  // kAtomicXchg: per-element CAS add (fp32 storage only).
  void add_atomic(std::int64_t row, const float* g, float lr) const {
    float* r = master(row);
    if (r == nullptr) r = t.w + row * dim();
    for (std::int64_t e = 0; e < dim(); ++e) atomic_add_float(&r[e], -lr * g[e]);
  }
};

template <class Ops, bool kCached, class Fn>
void dispatch_dim(const RowStore& t, std::int64_t dim, Fn&& fn) {
  switch (dim) {
    case 16: return fn(RowKernel<Ops, 16, kCached>{t, dim});
    case 32: return fn(RowKernel<Ops, 32, kCached>{t, dim});
    case 64: return fn(RowKernel<Ops, 64, kCached>{t, dim});
    case 128: return fn(RowKernel<Ops, 128, kCached>{t, dim});
    default: return fn(RowKernel<Ops, 0, kCached>{t, dim});
  }
}

template <class Ops, class Fn>
void dispatch_tier(const RowStore& t, std::int64_t dim, Fn&& fn) {
  if (t.slot != nullptr) return dispatch_dim<Ops, true>(t, dim, fn);
  dispatch_dim<Ops, false>(t, dim, fn);
}

constexpr auto kEveryRow = [](std::int64_t) { return true; };
constexpr auto kNoBagEnd = [](std::int64_t) {};

// Visits the lookups of bags [b0, b1) in order as fn(b, s), then
// bag_end(b), prefetching each row kPrefetchLookups lookups ahead when
// touches(row) says the visit will use it.
template <bool kWrite, class K, class Touches, class Fn,
          class BagEnd = decltype(kNoBagEnd)>
void visit_lookups(const K& k, const BagBatch& bags, std::int64_t b0,
                   std::int64_t b1, const Touches& touches, const Fn& fn,
                   const BagEnd& bag_end = kNoBagEnd) {
  const std::int64_t* idx = bags.indices.data();
  const std::int64_t* off = bags.offsets.data();
  const std::int64_t end = off[b1];
  for (std::int64_t s = off[b0]; s < std::min(off[b0] + kPrefetchLookups, end); ++s) {
    if (touches(idx[s])) k.template prefetch<kWrite>(idx[s]);
  }
  for (std::int64_t b = b0; b < b1; ++b) {
    for (std::int64_t s = off[b]; s < off[b + 1]; ++s) {
      const std::int64_t ahead = s + kPrefetchLookups;
      if (ahead < end && touches(idx[ahead])) k.template prefetch<kWrite>(idx[ahead]);
      fn(b, s);
    }
    bag_end(b);
  }
}

// W[I[s]] -= lr * grad(b, s) for every lookup s of bag b under `strategy`
// (all but the dense kReference sweep of apply_update). Lookup s rounds
// with salt + s.
template <class K, class Grad>
void update_lookups(const K& k, const BagBatch& bags, float lr,
                    UpdateStrategy strategy, std::uint64_t salt,
                    std::int64_t rows, const Grad& grad) {
  const std::int64_t n = bags.batch();
  const std::int64_t* idx = bags.indices.data();
  const auto update = [&](std::int64_t b, std::int64_t s) {
    k.update(idx[s], grad(b, s), lr, salt + static_cast<std::uint64_t>(s));
  };
  switch (strategy) {
    case UpdateStrategy::kReference:
      // Serial, and already free of the dense scratch: the "optimized
      // serial" lower bound, not the naive framework path.
      visit_lookups<true>(k, bags, 0, n, kEveryRow, update);
      return;
    case UpdateStrategy::kAtomicXchg:
      parallel_for_dynamic(0, n, /*grain=*/16, [&](std::int64_t lo, std::int64_t hi) {
        visit_lookups<true>(k, bags, lo, hi, kEveryRow,
                            [&](std::int64_t b, std::int64_t s) {
                              k.add_atomic(idx[s], grad(b, s), lr);
                            });
      });
      return;
    case UpdateStrategy::kRtm:
      parallel_for_dynamic(0, n, /*grain=*/16, [&](std::int64_t lo, std::int64_t hi) {
        visit_lookups<true>(k, bags, lo, hi, kEveryRow,
                            [&](std::int64_t b, std::int64_t s) {
                              StripeGuard guard(idx[s]);
                              update(b, s);
                            });
      });
      return;
    case UpdateStrategy::kRaceFree: {
      // Algorithm 4: each thread scans every lookup but updates (and
      // prefetches) only the rows of its own static range.
      const int nthreads = current_pool().size();
      parallel_run([&](int tid) {
        const std::int64_t begin = rows * tid / nthreads;
        const std::int64_t end = rows * (tid + 1) / nthreads;
        const auto owned = [&](std::int64_t row) { return row >= begin && row < end; };
        visit_lookups<true>(k, bags, 0, n, owned, [&](std::int64_t b, std::int64_t s) {
          if (owned(idx[s])) update(b, s);
        });
      });
      return;
    }
  }
}

}  // namespace

template <typename Fn>
void EmbeddingTable::with_row_kernel(Fn&& fn) const {
  const RowStore t{const_cast<float*>(w_.data()),
                   const_cast<std::uint16_t*>(hi_.data()),
                   const_cast<std::uint16_t*>(lo_.data()), cache_.data(),
                   cache_slot_.empty() ? nullptr : cache_slot_.data()};
  switch (precision_) {
    case EmbedPrecision::kFp32:
      return dispatch_tier<Fp32Ops>(t, dim_, fn);
    case EmbedPrecision::kFp24:
      return dispatch_tier<Fp24Ops>(t, dim_, fn);
    case EmbedPrecision::kBf16Split:
      return dispatch_tier<Bf16SplitOps>(t, dim_, fn);
    case EmbedPrecision::kBf16Split8:
      return dispatch_tier<Bf16Split8Ops>(t, dim_, fn);
    case EmbedPrecision::kFp16Stochastic:
      return dispatch_tier<Fp16StochasticOps>(t, dim_, fn);
  }
}

void EmbeddingTable::forward(const BagBatch& bags, float* out) const {
  if (cache_enabled() && cache_opts_.policy == EmbCachePolicy::kCounter) {
    note_forward_counters(bags);
  }
  const std::int64_t* idx = bags.indices.data();
  const std::int64_t* off = bags.offsets.data();
  with_row_kernel([&](const auto& k) {
    using K = std::decay_t<decltype(k)>;
    const std::int64_t dim = k.dim();
    parallel_for_dynamic(0, bags.batch(), /*grain=*/16, [&](std::int64_t lo, std::int64_t hi) {
      // Each bag sums in lookup order from +0.0f, in registers for a
      // compile-time dim. Arena hits and misses are tallied per block and
      // folded in with one relaxed add each.
      std::array<float, K::kDim> fixed{};
      std::vector<float> spill(K::kDim > 0 ? 0 : dim, 0.0f);
      float* acc = K::kDim > 0 ? fixed.data() : spill.data();
      std::int64_t hits = 0;
      visit_lookups<false>(
          k, bags, lo, hi, kEveryRow,
          [&](std::int64_t, std::int64_t s) { hits += k.accumulate(acc, idx[s]); },
          [&](std::int64_t b) {
            std::copy_n(acc, dim, out + b * dim);
            std::fill_n(acc, dim, 0.0f);
          });
      if constexpr (K::kTiered) {
        cache_hits_.fetch_add(hits, std::memory_order_relaxed);
        cache_misses_.fetch_add(off[hi] - off[lo] - hits, std::memory_order_relaxed);
      }
    });
  });
}

void EmbeddingTable::backward(const float* dy, const BagBatch& bags,
                              Tensor<float>& dlookup) const {
  const std::int64_t n = bags.batch();
  const std::int64_t* off = bags.offsets.data();
  const std::int64_t dim = dim_;
  if (dlookup.size() != bags.lookups() * dim) {
    dlookup.reshape({bags.lookups(), dim});
  }
  float* dl = dlookup.data();
  parallel_for_dynamic(0, n, /*grain=*/16, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t b = lo; b < hi; ++b) {
      const float* __restrict__ src = dy + b * dim;
      for (std::int64_t s = off[b]; s < off[b + 1]; ++s) {
        float* __restrict__ dst = dl + s * dim;
        for (std::int64_t e = 0; e < dim; ++e) dst[e] = src[e];
      }
    }
  });
}

void EmbeddingTable::apply_update(const Tensor<float>& dlookup,
                                  const BagBatch& bags, float lr,
                                  UpdateStrategy strategy) {
  const std::int64_t ns = bags.lookups();
  DLRM_CHECK(dlookup.size() == ns * dim_, "per-lookup grad shape mismatch");
  DLRM_CHECK(strategy != UpdateStrategy::kAtomicXchg ||
                 precision_ == EmbedPrecision::kFp32,
             "AtomicXchg requires fp32 storage (32-bit CAS granularity)");
  const std::int64_t* idx = bags.indices.data();
  const float* dl = dlookup.data();
  with_row_kernel([&](const auto& k) {
    const std::int64_t dim = k.dim();
    if (strategy == UpdateStrategy::kReference) {
      // Naive framework kernel: serial, dense full-table gradient that is
      // allocated, zeroed and applied with a whole-table sweep. O(M*E) work
      // independent of NS — authentically terrible, kept as the baseline.
      Tensor<float> dense({rows_, dim});
      dense.zero();
      for (std::int64_t s = 0; s < ns; ++s) {
        float* __restrict__ dst = dense.data() + idx[s] * dim;
        const float* __restrict__ src = dl + s * dim;
        for (std::int64_t e = 0; e < dim; ++e) dst[e] += src[e];
      }
      for (std::int64_t r = 0; r < rows_; ++r) {
        k.update(r, dense.data() + r * dim, lr, 0x9E3779B9ull);
      }
      return;
    }
    constexpr std::uint64_t kSalt[] = {0, 0, 0xA5A5A5A5ull, 0xC3C3C3C3ull};
    update_lookups(k, bags, lr, strategy, kSalt[static_cast<int>(strategy)],
                   rows_, [&](std::int64_t, std::int64_t s) { return dl + s * dim; });
  });
}

void EmbeddingTable::fused_backward_update(const float* dy,
                                           const BagBatch& bags, float lr,
                                           UpdateStrategy strategy) {
  DLRM_CHECK(strategy != UpdateStrategy::kAtomicXchg ||
                 precision_ == EmbedPrecision::kFp32,
             "AtomicXchg requires fp32 storage (32-bit CAS granularity)");
  with_row_kernel([&](const auto& k) {
    constexpr std::uint64_t kSalt[] = {0x11111111ull, 0, 0x22222222ull,
                                       0x33333333ull};
    update_lookups(k, bags, lr, strategy, kSalt[static_cast<int>(strategy)],
                   rows_, [&](std::int64_t b, std::int64_t) { return dy + b * k.dim(); });
  });
}

std::int64_t EmbeddingTable::storage_bytes() const {
  const std::int64_t elems = rows_ * dim_;
  switch (precision_) {
    case EmbedPrecision::kFp32:
      return elems * 4;
    case EmbedPrecision::kBf16Split:
      return elems * 2 + elems * 2;  // == fp32, master weights implicit
    case EmbedPrecision::kBf16Split8:
      return elems * 2 + elems * 1;
    case EmbedPrecision::kFp16Stochastic:
      return elems * 2;
    case EmbedPrecision::kFp24:
      return elems * 3;  // logically 24-bit; stored widened in fp32 here
  }
  return 0;
}

std::int64_t EmbeddingTable::model_bytes() const {
  const std::int64_t elems = rows_ * dim_;
  return precision_ == EmbedPrecision::kFp32 ? elems * 4 : elems * 2;
}

}  // namespace dlrm
