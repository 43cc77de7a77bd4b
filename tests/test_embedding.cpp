// Tests for EmbeddingBag forward/backward and the four update strategies
// (Algorithms 1–4) across storage precisions, and bitwise parity of the row
// kernels with a scalar reference.
#include "kernels/embedding.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"

namespace dlrm {
namespace {

// Builds a random bag batch: n bags with `pooling` lookups each, indices
// drawn Zipf(s) (s=0 → uniform) over `rows`.
BagBatch make_bags(std::int64_t n, std::int64_t pooling, std::int64_t rows,
                   double skew, std::uint64_t seed) {
  BagBatch bags;
  bags.indices.reshape({n * pooling});
  bags.offsets.reshape({n + 1});
  Rng rng(seed);
  ZipfSampler zipf(rows, skew);
  for (std::int64_t i = 0; i < n * pooling; ++i) bags.indices[i] = zipf(rng);
  for (std::int64_t i = 0; i <= n; ++i) bags.offsets[i] = i * pooling;
  return bags;
}

// Serial ground-truth update: W[I[s]] -= lr * dL[s].
void serial_update(Tensor<float>& w, const Tensor<float>& dlookup,
                   const BagBatch& bags, float lr, std::int64_t dim) {
  for (std::int64_t s = 0; s < bags.lookups(); ++s) {
    const std::int64_t row = bags.indices[s];
    for (std::int64_t e = 0; e < dim; ++e) {
      w[row * dim + e] -= lr * dlookup[s * dim + e];
    }
  }
}

TEST(EmbeddingForward, MatchesNaive) {
  const std::int64_t rows = 100, dim = 16, n = 12, pooling = 4;
  Rng rng(1);
  EmbeddingTable table(rows, dim);
  table.init(rng, 0.5f);
  BagBatch bags = make_bags(n, pooling, rows, 0.0, 2);
  bags.validate(rows);

  Tensor<float> out({n, dim});
  table.forward(bags, out.data());

  for (std::int64_t b = 0; b < n; ++b) {
    std::vector<float> expect(static_cast<std::size_t>(dim), 0.0f);
    std::vector<float> row(static_cast<std::size_t>(dim));
    for (std::int64_t s = bags.offsets[b]; s < bags.offsets[b + 1]; ++s) {
      table.read_row(bags.indices[s], row.data());
      for (std::int64_t e = 0; e < dim; ++e) expect[static_cast<std::size_t>(e)] += row[static_cast<std::size_t>(e)];
    }
    for (std::int64_t e = 0; e < dim; ++e) {
      ASSERT_NEAR(out[b * dim + e], expect[static_cast<std::size_t>(e)], 1e-5f);
    }
  }
}

TEST(EmbeddingForward, EmptyBagYieldsZero) {
  EmbeddingTable table(10, 8);
  Rng rng(3);
  table.init(rng, 1.0f);
  BagBatch bags;
  bags.indices.reshape({2});
  bags.indices[0] = 1;
  bags.indices[1] = 2;
  bags.offsets.reshape({4});
  bags.offsets[0] = 0;
  bags.offsets[1] = 2;
  bags.offsets[2] = 2;  // bag 1 empty
  bags.offsets[3] = 2;  // bag 2 empty
  Tensor<float> out({3, 8});
  out.fill(9.0f);
  table.forward(bags, out.data());
  for (std::int64_t e = 0; e < 8; ++e) {
    EXPECT_EQ(out[1 * 8 + e], 0.0f);
    EXPECT_EQ(out[2 * 8 + e], 0.0f);
  }
}

TEST(EmbeddingBackward, ExpandsGradientsPerLookup) {
  const std::int64_t rows = 50, dim = 8, n = 6, pooling = 3;
  EmbeddingTable table(rows, dim);
  BagBatch bags = make_bags(n, pooling, rows, 0.0, 5);
  Tensor<float> dy({n, dim});
  Rng rng(6);
  fill_uniform(dy, rng, 1.0f);

  Tensor<float> dlookup;
  table.backward(dy.data(), bags, dlookup);
  ASSERT_EQ(dlookup.size(), n * pooling * dim);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t s = bags.offsets[b]; s < bags.offsets[b + 1]; ++s) {
      for (std::int64_t e = 0; e < dim; ++e) {
        ASSERT_EQ(dlookup[s * dim + e], dy[b * dim + e]);
      }
    }
  }
}

// Parameterized over (strategy, skew): every parallel strategy must agree
// with the serial ground truth. High skew (hot rows) exercises contention.
using StratCase = std::tuple<UpdateStrategy, double>;

class UpdateStrategyTest : public ::testing::TestWithParam<StratCase> {};

TEST_P(UpdateStrategyTest, MatchesSerialGroundTruth) {
  const auto [strategy, skew] = GetParam();
  const std::int64_t rows = 200, dim = 32, n = 64, pooling = 8;
  const float lr = 0.05f;

  Rng rng(11);
  EmbeddingTable table(rows, dim);
  table.init(rng, 1.0f);

  // Snapshot initial weights for the ground truth.
  Tensor<float> w0({rows, dim});
  for (std::int64_t r = 0; r < rows; ++r) table.read_row(r, w0.data() + r * dim);

  BagBatch bags = make_bags(n, pooling, rows, skew, 12);
  Tensor<float> dy({n, dim});
  fill_uniform(dy, rng, 1.0f);
  Tensor<float> dlookup;
  table.backward(dy.data(), bags, dlookup);

  table.apply_update(dlookup, bags, lr, strategy);

  Tensor<float> expect = w0.clone();
  serial_update(expect, dlookup, bags, lr, dim);

  Tensor<float> got({rows, dim});
  for (std::int64_t r = 0; r < rows; ++r) table.read_row(r, got.data() + r * dim);
  // Atomic/RTM reorder float additions → tolerance; RaceFree/Reference are
  // deterministic but share the tolerance for simplicity.
  EXPECT_LE(max_abs_diff(got, expect), 1e-4f);
}

TEST_P(UpdateStrategyTest, FusedMatchesUnfused) {
  const auto [strategy, skew] = GetParam();
  const std::int64_t rows = 150, dim = 16, n = 48, pooling = 5;
  const float lr = 0.1f;

  Rng rng(21);
  EmbeddingTable a(rows, dim), b(rows, dim);
  a.init(rng, 1.0f);
  // Copy a into b.
  std::vector<float> row(static_cast<std::size_t>(dim));
  for (std::int64_t r = 0; r < rows; ++r) {
    a.read_row(r, row.data());
    b.write_row(r, row.data());
  }

  BagBatch bags = make_bags(n, pooling, rows, skew, 22);
  Tensor<float> dy({n, dim});
  fill_uniform(dy, rng, 1.0f);

  Tensor<float> dlookup;
  a.backward(dy.data(), bags, dlookup);
  a.apply_update(dlookup, bags, lr, strategy);
  b.fused_backward_update(dy.data(), bags, lr, strategy);

  Tensor<float> wa({rows, dim}), wb({rows, dim});
  for (std::int64_t r = 0; r < rows; ++r) {
    a.read_row(r, wa.data() + r * dim);
    b.read_row(r, wb.data() + r * dim);
  }
  EXPECT_LE(max_abs_diff(wa, wb), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSkews, UpdateStrategyTest,
    ::testing::Combine(
        ::testing::Values(UpdateStrategy::kReference,
                          UpdateStrategy::kAtomicXchg, UpdateStrategy::kRtm,
                          UpdateStrategy::kRaceFree),
        ::testing::Values(0.0, 1.2)),
    [](const ::testing::TestParamInfo<StratCase>& tpi) {
      return std::string(to_string(std::get<0>(tpi.param))) +
             (std::get<1>(tpi.param) > 0 ? "_zipf" : "_uniform");
    });

TEST(RaceFreeDeterminism, SameResultAcrossRuns) {
  // The race-free strategy must be bitwise deterministic run to run.
  const std::int64_t rows = 300, dim = 8, n = 128, pooling = 10;
  BagBatch bags = make_bags(n, pooling, rows, 1.0, 31);
  Tensor<float> dy({n, dim});
  Rng rng(32);
  fill_uniform(dy, rng, 1.0f);

  auto run_once = [&]() {
    Rng init(33);
    EmbeddingTable t(rows, dim);
    t.init(init, 1.0f);
    t.fused_backward_update(dy.data(), bags, 0.01f, UpdateStrategy::kRaceFree);
    Tensor<float> w({rows, dim});
    for (std::int64_t r = 0; r < rows; ++r) t.read_row(r, w.data() + r * dim);
    return w;
  };
  Tensor<float> w1 = run_once();
  Tensor<float> w2 = run_once();
  EXPECT_EQ(max_abs_diff(w1, w2), 0.0f);
}

TEST(SplitPrecision, MasterSequenceBitExactVsFp32) {
  // Split-SGD with race-free updates must track fp32 SGD bit-for-bit: the
  // (hi,lo) pair *is* the fp32 master weight.
  const std::int64_t rows = 64, dim = 8, n = 32, pooling = 4;
  const float lr = 0.02f;

  Rng rng(41);
  EmbeddingTable fp32(rows, dim, EmbedPrecision::kFp32);
  EmbeddingTable split(rows, dim, EmbedPrecision::kBf16Split);
  Rng i1(42), i2(42);
  fp32.init(i1, 1.0f);
  split.init(i2, 1.0f);

  for (int iter = 0; iter < 10; ++iter) {
    BagBatch bags = make_bags(n, pooling, rows, 0.8, 100 + static_cast<std::uint64_t>(iter));
    Tensor<float> dy({n, dim});
    fill_uniform(dy, rng, 1.0f);
    fp32.fused_backward_update(dy.data(), bags, lr, UpdateStrategy::kRaceFree);
    split.fused_backward_update(dy.data(), bags, lr, UpdateStrategy::kRaceFree);
  }

  // Compare: split's bf16 view must equal the bf16 truncation of fp32's
  // weights — i.e. the hidden master matches exactly.
  std::vector<float> rf(static_cast<std::size_t>(dim)), rs(static_cast<std::size_t>(dim));
  for (std::int64_t r = 0; r < rows; ++r) {
    fp32.read_row(r, rf.data());
    split.read_row(r, rs.data());
    for (std::int64_t e = 0; e < dim; ++e) {
      EXPECT_EQ(bf16_to_f32(f32_to_bf16_trunc(rf[static_cast<std::size_t>(e)])),
                rs[static_cast<std::size_t>(e)])
          << "row " << r << " e " << e;
    }
  }
}

TEST(SplitPrecision, Split8LosesAccuracy) {
  // With only 8 low bits the hidden master cannot track fp32 exactly.
  const std::int64_t rows = 32, dim = 4, n = 16, pooling = 4;
  const float lr = 0.003f;
  Rng rng(51);
  EmbeddingTable fp32(rows, dim, EmbedPrecision::kFp32);
  EmbeddingTable s8(rows, dim, EmbedPrecision::kBf16Split8);
  Rng i1(52), i2(52);
  fp32.init(i1, 1.0f);
  s8.init(i2, 1.0f);

  double drift = 0.0;
  for (int iter = 0; iter < 50; ++iter) {
    BagBatch bags = make_bags(n, pooling, rows, 0.0, 200 + static_cast<std::uint64_t>(iter));
    Tensor<float> dy({n, dim});
    fill_uniform(dy, rng, 0.1f);
    fp32.fused_backward_update(dy.data(), bags, lr, UpdateStrategy::kRaceFree);
    s8.fused_backward_update(dy.data(), bags, lr, UpdateStrategy::kRaceFree);
  }
  std::vector<float> rf(static_cast<std::size_t>(dim)), rs(static_cast<std::size_t>(dim));
  for (std::int64_t r = 0; r < rows; ++r) {
    fp32.read_row(r, rf.data());
    s8.read_row(r, rs.data());
    for (std::int64_t e = 0; e < dim; ++e) {
      drift += std::fabs(rf[static_cast<std::size_t>(e)] - rs[static_cast<std::size_t>(e)]);
    }
  }
  EXPECT_GT(drift, 0.0);  // some drift must appear with truncated state
}

TEST(Fp16Stochastic, UpdatesStayOnF16GridAndTrackTrend) {
  const std::int64_t rows = 16, dim = 4;
  EmbeddingTable t(rows, dim, EmbedPrecision::kFp16Stochastic);
  Rng rng(61);
  t.init(rng, 1.0f);

  BagBatch bags;
  bags.indices.reshape({1});
  bags.indices[0] = 3;
  bags.offsets.reshape({2});
  bags.offsets[0] = 0;
  bags.offsets[1] = 1;

  std::vector<float> before(static_cast<std::size_t>(dim)), after(static_cast<std::size_t>(dim));
  t.read_row(3, before.data());
  Tensor<float> dy({1, dim});
  dy.fill(1.0f);
  for (int i = 0; i < 100; ++i) {
    t.fused_backward_update(dy.data(), bags, 0.01f, UpdateStrategy::kRaceFree);
  }
  t.read_row(3, after.data());
  for (std::int64_t e = 0; e < dim; ++e) {
    // Moved in the right direction by roughly 100 * 0.01 = 1.0.
    EXPECT_NEAR(before[static_cast<std::size_t>(e)] - after[static_cast<std::size_t>(e)], 1.0f, 0.2f);
    // Still on the fp16 grid.
    const float v = after[static_cast<std::size_t>(e)];
    EXPECT_EQ(v, f16_to_f32(f32_to_f16_rne(v)));
  }
}

TEST(Storage, ByteAccounting) {
  const std::int64_t rows = 1000, dim = 64;
  EmbeddingTable fp32(rows, dim, EmbedPrecision::kFp32);
  EmbeddingTable split(rows, dim, EmbedPrecision::kBf16Split);
  EmbeddingTable split8(rows, dim, EmbedPrecision::kBf16Split8);
  EmbeddingTable f16(rows, dim, EmbedPrecision::kFp16Stochastic);
  const std::int64_t elems = rows * dim;
  EXPECT_EQ(fp32.storage_bytes(), elems * 4);
  EXPECT_EQ(split.storage_bytes(), elems * 4);  // no overhead vs fp32!
  EXPECT_EQ(split8.storage_bytes(), elems * 3);
  EXPECT_EQ(f16.storage_bytes(), elems * 2);
  // Model (fwd/bwd) traffic: 2x reduction for 16-bit weights.
  EXPECT_EQ(fp32.model_bytes(), elems * 4);
  EXPECT_EQ(split.model_bytes(), elems * 2);
}

TEST(BagBatch, ValidateCatchesCorruption) {
  BagBatch bags = make_bags(4, 2, 10, 0.0, 71);
  EXPECT_NO_THROW(bags.validate(10));
  bags.indices[0] = 99;
  EXPECT_THROW(bags.validate(10), CheckError);
  bags = make_bags(4, 2, 10, 0.0, 72);
  bags.offsets[2] = 100;
  EXPECT_THROW(bags.validate(10), CheckError);
}

// ---- Row-kernel parity ------------------------------------------------------
//
// The dim-specialized, prefetched row kernels against a scalar reference kept
// here: the table state as fp32 masters (the exact decoded storage state,
// Split-SGD low halves included), summed and updated element by element in
// lookup order. Dims 16/64/128 take specialized kernels, 13 the runtime-dim
// fallback; kCounter runs both tiers with rows moving between them.

// w - lr * g with the kernels' rounding: one fused multiply-add on FMA
// targets.
float ref_sgd(float w, float lr, float g) {
#ifdef __FMA__
  return std::fma(-lr, g, w);
#else
  return w - lr * g;
#endif
}

class RefTable {
 public:
  explicit RefTable(const EmbeddingTable& t)
      : prec_(t.precision()), dim_(t.dim()),
        m_(static_cast<std::size_t>(t.rows() * t.dim())) {
    const std::vector<unsigned char> bytes = export_bytes(t);
    const std::size_t rb = static_cast<std::size_t>(t.checkpoint_row_bytes());
    for (std::int64_t r = 0; r < t.rows(); ++r) {
      const unsigned char* row = bytes.data() + static_cast<std::size_t>(r) * rb;
      for (std::int64_t e = 0; e < dim_; ++e) at(r, e) = decode(row, e);
    }
  }

  static std::vector<unsigned char> export_bytes(const EmbeddingTable& t) {
    std::vector<unsigned char> bytes(
        static_cast<std::size_t>(t.rows() * t.checkpoint_row_bytes()));
    t.export_rows(0, t.rows(), bytes.data());
    return bytes;
  }

  // The export_rows encoding of the reference state.
  std::vector<unsigned char> encode() const {
    const std::int64_t rows = static_cast<std::int64_t>(m_.size()) / dim_;
    const std::int64_t rb = EmbeddingTable::checkpoint_row_bytes(prec_, dim_);
    std::vector<unsigned char> out(static_cast<std::size_t>(rows * rb));
    for (std::int64_t r = 0; r < rows; ++r) {
      unsigned char* row = out.data() + r * rb;
      for (std::int64_t e = 0; e < dim_; ++e) {
        const float v = at(r, e);
        switch (prec_) {
          case EmbedPrecision::kFp32:
          case EmbedPrecision::kFp24:
            std::memcpy(row + e * 4, &v, 4);
            break;
          case EmbedPrecision::kBf16Split:
          case EmbedPrecision::kBf16Split8: {
            const SplitF32 sp = split_f32(v);
            std::memcpy(row + e * 2, &sp.hi, 2);
            std::memcpy(row + (dim_ + e) * 2, &sp.lo, 2);
            break;
          }
          case EmbedPrecision::kFp16Stochastic: {
            const std::uint16_t h = f32_to_f16_rne(v);
            std::memcpy(row + e * 2, &h, 2);
            break;
          }
        }
      }
    }
    return out;
  }

  void forward(const BagBatch& bags, float* out) const {
    for (std::int64_t b = 0; b < bags.batch(); ++b) {
      for (std::int64_t e = 0; e < dim_; ++e) {
        float acc = 0.0f;
        for (std::int64_t s = bags.offsets[b]; s < bags.offsets[b + 1]; ++s) {
          acc += weight(at(bags.indices[s], e));
        }
        out[b * dim_ + e] = acc;
      }
    }
  }

  // W[row] -= lr * g, rounding with the stream seeded by (salt, row).
  void update(std::int64_t row, const float* g, float lr, std::uint64_t salt) {
    std::uint64_t rs = salt ^ (static_cast<std::uint64_t>(row) << 20);
    for (std::int64_t e = 0; e < dim_; ++e) {
      const float x = ref_sgd(at(row, e), lr, g[e]);
      float& m = at(row, e);
      switch (prec_) {
        case EmbedPrecision::kFp32:
        case EmbedPrecision::kBf16Split:
          m = x;
          break;
        case EmbedPrecision::kFp24:
          m = f32_to_f24_rne(x);
          break;
        case EmbedPrecision::kBf16Split8: {
          const SplitF32 sp = split_f32(x);
          m = combine_f32_partial(sp.hi, sp.lo, 8);
          break;
        }
        case EmbedPrecision::kFp16Stochastic:
          m = f16_to_f32(f32_to_f16_stochastic(
              x, static_cast<std::uint16_t>(detail::splitmix64(rs) >> 48)));
          break;
      }
    }
  }

  // apply_update(kReference): a dense gradient summed in lookup order, then
  // a sweep over every row.
  void dense_update(const Tensor<float>& dl, const BagBatch& bags, float lr) {
    const std::int64_t rows = static_cast<std::int64_t>(m_.size()) / dim_;
    std::vector<float> dense(m_.size(), 0.0f);
    for (std::int64_t s = 0; s < bags.lookups(); ++s) {
      for (std::int64_t e = 0; e < dim_; ++e) {
        dense[static_cast<std::size_t>(bags.indices[s] * dim_ + e)] += dl[s * dim_ + e];
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      update(r, dense.data() + r * dim_, lr, 0x9E3779B9ull);
    }
  }

 private:
  float& at(std::int64_t r, std::int64_t e) {
    return m_[static_cast<std::size_t>(r * dim_ + e)];
  }
  float at(std::int64_t r, std::int64_t e) const {
    return m_[static_cast<std::size_t>(r * dim_ + e)];
  }
  // Model weight of a master: its top 16 bits for the bf16 variants. An
  // integer mask, because g++ 12.2 folds `c ? <m with low bits cleared> : m`
  // to plain `m` from -O1 up.
  float weight(float m) const {
    const bool bf16 = prec_ == EmbedPrecision::kBf16Split ||
                      prec_ == EmbedPrecision::kBf16Split8;
    const std::uint32_t keep = bf16 ? 0xFFFF0000u : 0xFFFFFFFFu;
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(m) & keep);
  }
  float decode(const unsigned char* row, std::int64_t e) const {
    std::uint16_t hi = 0, lo = 0;
    float v = 0.0f;
    switch (prec_) {
      case EmbedPrecision::kFp32:
      case EmbedPrecision::kFp24:
        std::memcpy(&v, row + e * 4, 4);
        return v;
      case EmbedPrecision::kBf16Split:
      case EmbedPrecision::kBf16Split8:
        std::memcpy(&hi, row + e * 2, 2);
        std::memcpy(&lo, row + (dim_ + e) * 2, 2);
        return combine_f32(hi, lo);
      case EmbedPrecision::kFp16Stochastic:
        std::memcpy(&hi, row + e * 2, 2);
        return f16_to_f32(hi);
    }
    return v;
  }

  EmbedPrecision prec_;
  std::int64_t dim_;
  std::vector<float> m_;
};

// Bags of 0..5 lookups (every fifth bag empty), Zipf over `rows`.
BagBatch ragged_bags(std::int64_t n, std::int64_t rows, std::uint64_t seed) {
  BagBatch bags;
  bags.offsets.reshape({n + 1});
  bags.offsets[0] = 0;
  for (std::int64_t b = 0; b < n; ++b) {
    bags.offsets[b + 1] = bags.offsets[b] + (b % 5 == 2 ? 0 : (b * 7 + 3) % 6);
  }
  bags.indices.reshape({bags.offsets[n]});
  Rng rng(seed);
  ZipfSampler zipf(rows, 1.05);
  for (std::int64_t s = 0; s < bags.lookups(); ++s) bags.indices[s] = zipf(rng);
  return bags;
}

using RowKernelCase = std::tuple<EmbedPrecision, std::int64_t, EmbCachePolicy>;

class RowKernelParityTest : public ::testing::TestWithParam<RowKernelCase> {};

TEST_P(RowKernelParityTest, ForwardAndUpdatesMatchScalarReference) {
  const auto [prec, dim, policy] = GetParam();
  const std::int64_t rows = 97;
  const float lr = 0.05f;
  struct Mode {
    UpdateStrategy strategy;
    bool fused;
  };
  for (const Mode mode : {Mode{UpdateStrategy::kReference, true},
                          Mode{UpdateStrategy::kRaceFree, true},
                          Mode{UpdateStrategy::kReference, false},
                          Mode{UpdateStrategy::kRaceFree, false}}) {
    // 40 bags with empty ones among them, then 5 bags holding fewer lookups
    // than the prefetch distance.
    for (const std::int64_t n : {40, 5}) {
      SCOPED_TRACE(testing::Message()
                   << to_string(mode.strategy) << (mode.fused ? " fused" : " unfused")
                   << " bags=" << n);
      EmbeddingTable table(rows, dim, prec);
      Rng init(91);
      table.init(init, 0.5f);
      EmbCacheOptions co;
      co.capacity = 24;
      co.policy = policy;
      co.refresh_every = 2;
      table.configure_cache(co);
      RefTable ref(table);

      for (int iter = 0; iter < 4; ++iter) {
        const BagBatch bags =
            ragged_bags(n, rows, 300 + static_cast<std::uint64_t>(iter));
        Tensor<float> out({n, dim}), expect({n, dim});
        table.forward(bags, out.data());
        ref.forward(bags, expect.data());
        ASSERT_EQ(std::memcmp(out.data(), expect.data(),
                              static_cast<std::size_t>(n * dim) * sizeof(float)),
                  0)
            << "forward, iteration " << iter;

        Tensor<float> dy({n, dim});
        Rng grad(400 + static_cast<std::uint64_t>(iter));
        fill_uniform(dy, grad, 1.0f);
        Tensor<float> dl;
        table.backward(dy.data(), bags, dl);
        if (mode.fused) {
          table.fused_backward_update(dy.data(), bags, lr, mode.strategy);
        } else {
          table.apply_update(dl, bags, lr, mode.strategy);
        }
        if (!mode.fused && mode.strategy == UpdateStrategy::kReference) {
          ref.dense_update(dl, bags, lr);
        } else {
          // Race-free threads each update their own rows in lookup order,
          // so the per-row sequence equals the serial one.
          const std::uint64_t salt =
              mode.fused ? (mode.strategy == UpdateStrategy::kReference
                                ? 0x11111111ull
                                : 0x33333333ull)
                         : 0xC3C3C3C3ull;
          for (std::int64_t s = 0; s < bags.lookups(); ++s) {
            ref.update(bags.indices[s], dl.data() + s * dim, lr,
                       salt + static_cast<std::uint64_t>(s));
          }
        }
        EXPECT_EQ(RefTable::export_bytes(table), ref.encode())
            << "stored bytes, iteration " << iter;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionsDimsTiers, RowKernelParityTest,
    ::testing::Combine(
        ::testing::Values(EmbedPrecision::kFp32, EmbedPrecision::kBf16Split,
                          EmbedPrecision::kBf16Split8,
                          EmbedPrecision::kFp16Stochastic, EmbedPrecision::kFp24),
        ::testing::Values(std::int64_t{13}, std::int64_t{16}, std::int64_t{64},
                          std::int64_t{128}),
        ::testing::Values(EmbCachePolicy::kOff, EmbCachePolicy::kCounter)),
    [](const ::testing::TestParamInfo<RowKernelCase>& tpi) {
      std::string name = std::string(to_string(std::get<0>(tpi.param))) + "_d" +
                         std::to_string(std::get<1>(tpi.param)) + "_cache_" +
                         to_string(std::get<2>(tpi.param));
      std::erase(name, '-');
      return name;
    });

TEST(AtomicAddFloat, ConcurrentSumsExactCount) {
  float value = 0.0f;
  ThreadPool pool(8);
  pool.parallel_for(0, 100000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) atomic_add_float(&value, 1.0f);
  });
  EXPECT_EQ(value, 100000.0f);  // integers up to 2^24 are exact in fp32
}

}  // namespace
}  // namespace dlrm
