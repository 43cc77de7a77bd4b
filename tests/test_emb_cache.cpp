// Hot-row cache tier unit tests: the working tier must be bit-invisible —
// forward outputs and the canonical checkpoint encoding are identical with
// the cache on or off, for every storage precision, across admissions,
// evictions and counter-driven re-admission.
#include "kernels/embedding.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "common/rng.hpp"

namespace dlrm {
namespace {

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

Tensor<float> random_grad(std::int64_t n, std::int64_t dim,
                          std::uint64_t seed) {
  Tensor<float> dy({n, dim});
  Rng rng(seed);
  for (std::int64_t i = 0; i < n * dim; ++i) dy[i] = rng.uniform(-1.0f, 1.0f);
  return dy;
}

std::vector<unsigned char> export_all(const EmbeddingTable& t) {
  std::vector<unsigned char> bytes(
      static_cast<std::size_t>(t.rows() * t.checkpoint_row_bytes()));
  t.export_rows(0, t.rows(), bytes.data());
  return bytes;
}

constexpr EmbedPrecision kAllPrecisions[] = {
    EmbedPrecision::kFp32, EmbedPrecision::kBf16Split,
    EmbedPrecision::kBf16Split8, EmbedPrecision::kFp16Stochastic,
    EmbedPrecision::kFp24};

class EmbCacheParityTest : public ::testing::TestWithParam<
                               std::tuple<EmbedPrecision, EmbCachePolicy>> {};

// Twin tables, identical init and identical Zipf training traffic; only one
// has the cache tier. Every forward output and the final storage bytes must
// be bit-identical — the tier is a pure performance feature.
TEST_P(EmbCacheParityTest, ForwardAndStorageBitIdentical) {
  const auto [prec, policy] = GetParam();
  const std::int64_t rows = 400, dim = 16, n = 32, pooling = 4;
  Rng r1(7), r2(7);
  EmbeddingTable plain(rows, dim, prec);
  EmbeddingTable cached(rows, dim, prec);
  plain.init(r1, 0.25f);
  cached.init(r2, 0.25f);

  EmbCacheOptions co;
  co.capacity = 48;
  co.policy = policy;
  co.refresh_every = 3;  // exercise counter decay/re-admission mid-run
  cached.configure_cache(co);
  if (policy == EmbCachePolicy::kHist) {
    // Zipf head: rows 0..capacity-1 are the hot set.
    std::vector<std::int64_t> hot(48);
    std::iota(hot.begin(), hot.end(), 0);
    cached.admit_rows(hot.data(), static_cast<std::int64_t>(hot.size()));
  }

  Tensor<float> out_plain({n, dim}), out_cached({n, dim});
  for (int iter = 0; iter < 10; ++iter) {
    const BagBatch bags =
        make_bags(n, pooling, rows, 1.05, 100 + static_cast<std::uint64_t>(iter));
    plain.forward(bags, out_plain.data());
    cached.forward(bags, out_cached.data());
    ASSERT_EQ(std::memcmp(out_plain.data(), out_cached.data(),
                          static_cast<std::size_t>(n * dim) * sizeof(float)),
              0)
        << "forward diverged at iteration " << iter;
    const Tensor<float> dy =
        random_grad(n, dim, 500 + static_cast<std::uint64_t>(iter));
    plain.fused_backward_update(dy.data(), bags, 0.05f,
                                UpdateStrategy::kRaceFree);
    cached.fused_backward_update(dy.data(), bags, 0.05f,
                                 UpdateStrategy::kRaceFree);
  }
  EXPECT_EQ(export_all(plain), export_all(cached));
  // The model-weight view of a cached row (bf16 variants: the masked hi
  // half of the master) reads back exactly as the uncached row does.
  std::vector<float> want(static_cast<std::size_t>(dim));
  std::vector<float> got(static_cast<std::size_t>(dim));
  for (std::int64_t row = 0; row < rows; ++row) {
    plain.read_row(row, want.data());
    cached.read_row(row, got.data());
    ASSERT_EQ(std::memcmp(want.data(), got.data(),
                          static_cast<std::size_t>(dim) * sizeof(float)),
              0)
        << "read_row diverged at row " << row;
  }
  if (policy == EmbCachePolicy::kHist) {
    EXPECT_GT(cached.cache_stats().hits, 0);
  } else {
    // kCounter must have run at least one re-admission pass by now.
    EXPECT_GT(cached.cache_stats().refreshes, 0);
    EXPECT_GT(cached.cache_stats().hits, 0);
  }
}

// to_string(EmbedPrecision) contains '-' which gtest param names reject.
std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      out.push_back(c);
    }
  }
  return out;
}

std::string parity_name(
    const ::testing::TestParamInfo<std::tuple<EmbedPrecision, EmbCachePolicy>>&
        info) {
  return sanitize(std::string(to_string(std::get<0>(info.param))) + "_" +
                  to_string(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(
    AllPrecisions, EmbCacheParityTest,
    ::testing::Combine(::testing::ValuesIn(kAllPrecisions),
                       ::testing::Values(EmbCachePolicy::kHist,
                                         EmbCachePolicy::kCounter)),
    parity_name);

class EmbCacheEvictionTest
    : public ::testing::TestWithParam<EmbedPrecision> {};

// Admission churn: rows trained while resident must re-encode through the
// exact codec on eviction — storage stays bit-identical to the uncached
// twin after the resident set is replaced wholesale.
TEST_P(EmbCacheEvictionTest, EvictionRoundTripIsBitExact) {
  const EmbedPrecision prec = GetParam();
  const std::int64_t rows = 200, dim = 16, n = 24, pooling = 4;
  Rng r1(11), r2(11);
  EmbeddingTable plain(rows, dim, prec);
  EmbeddingTable cached(rows, dim, prec);
  plain.init(r1, 0.5f);
  cached.init(r2, 0.5f);

  EmbCacheOptions co;
  co.capacity = 32;
  co.policy = EmbCachePolicy::kHist;
  cached.configure_cache(co);
  std::vector<std::int64_t> set_a(32), set_b(32);
  std::iota(set_a.begin(), set_a.end(), 0);    // rows 0..31
  std::iota(set_b.begin(), set_b.end(), 100);  // rows 100..131, disjoint
  cached.admit_rows(set_a.data(), 32);

  const BagBatch bags = make_bags(n, pooling, rows, 1.2, 21);
  const Tensor<float> dy = random_grad(n, dim, 22);
  plain.fused_backward_update(dy.data(), bags, 0.1f,
                              UpdateStrategy::kRaceFree);
  cached.fused_backward_update(dy.data(), bags, 0.1f,
                               UpdateStrategy::kRaceFree);

  // Replace the resident set: every row of set A that was updated in the
  // arena must be written back losslessly.
  cached.admit_rows(set_b.data(), 32);
  EXPECT_GT(cached.cache_stats().evictions, 0);
  EXPECT_EQ(export_all(plain), export_all(cached));
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, EmbCacheEvictionTest,
                         ::testing::ValuesIn(kAllPrecisions),
                         [](const ::testing::TestParamInfo<EmbedPrecision>& i) {
                           return sanitize(to_string(i.param));
                         });

// The update strategies that tolerate non-deterministic float ordering
// (atomic CAS, lock-guarded stripes) must still converge to the same values
// as the serial reference within rounding, cache on or off.
TEST(EmbCache, ConcurrentStrategiesMatchReferenceWithinRounding) {
  const std::int64_t rows = 300, dim = 16, n = 32, pooling = 4;
  const BagBatch bags = make_bags(n, pooling, rows, 1.0, 31);
  const Tensor<float> dy = random_grad(n, dim, 32);

  Rng rr(5);
  EmbeddingTable ref(rows, dim, EmbedPrecision::kFp32);
  ref.init(rr, 0.5f);
  ref.fused_backward_update(dy.data(), bags, 0.1f, UpdateStrategy::kReference);
  std::vector<float> ref_row(static_cast<std::size_t>(dim));
  std::vector<float> got_row(static_cast<std::size_t>(dim));

  for (UpdateStrategy s :
       {UpdateStrategy::kAtomicXchg, UpdateStrategy::kRtm}) {
    Rng rc(5);
    EmbeddingTable cached(rows, dim, EmbedPrecision::kFp32);
    cached.init(rc, 0.5f);
    EmbCacheOptions co;
    co.capacity = 64;
    co.policy = EmbCachePolicy::kHist;
    cached.configure_cache(co);
    std::vector<std::int64_t> hot(64);
    std::iota(hot.begin(), hot.end(), 0);
    cached.admit_rows(hot.data(), 64);
    cached.fused_backward_update(dy.data(), bags, 0.1f, s);
    for (std::int64_t row = 0; row < rows; ++row) {
      ref.read_row(row, ref_row.data());
      cached.read_row(row, got_row.data());
      for (std::int64_t e = 0; e < dim; ++e) {
        ASSERT_NEAR(ref_row[static_cast<std::size_t>(e)],
                    got_row[static_cast<std::size_t>(e)], 1e-4f)
            << "strategy " << to_string(s) << " row " << row;
      }
    }
  }
}

// kCounter admission must discover a Zipf head it was never told about.
TEST(EmbCache, CounterPolicyAdaptsToSkew) {
  const std::int64_t rows = 2000, dim = 16, n = 64, pooling = 8;
  Rng rng(3);
  EmbeddingTable table(rows, dim);
  table.init(rng, 0.25f);
  EmbCacheOptions co;
  co.capacity = 100;  // 5% of rows
  co.policy = EmbCachePolicy::kCounter;
  co.refresh_every = 4;
  table.configure_cache(co);

  Tensor<float> out({n, dim});
  for (int iter = 0; iter < 40; ++iter) {
    const BagBatch bags =
        make_bags(n, pooling, rows, 1.2, 900 + static_cast<std::uint64_t>(iter));
    table.forward(bags, out.data());
  }
  const EmbCacheStats cs = table.cache_stats();
  EXPECT_GT(cs.refreshes, 0);
  EXPECT_EQ(cs.capacity, 100);
  EXPECT_GT(cs.resident, 0);
  // Zipf(1.2) concentrates well over half the traffic in the top 5% of
  // rows; the counter tier must capture a solid share of it.
  EXPECT_GT(cs.hit_rate(), 0.4) << "hits " << cs.hits << " misses "
                                << cs.misses;
}

// kHist admission on a row-range shard view: the histogram is over the
// LOGICAL table; the shard must admit only rows in its own range and stay
// bit-identical to an uncached twin of the same shard.
TEST(EmbCache, HistAdmissionOnShardView) {
  const std::int64_t global_rows = 300, dim = 16, n = 24, pooling = 2;
  const std::int64_t row_begin = 100, shard_rows = 120;
  Rng r1(13), r2(13);
  EmbeddingTable plain(shard_rows, dim, EmbedPrecision::kBf16Split, row_begin,
                       global_rows);
  EmbeddingTable cached(shard_rows, dim, EmbedPrecision::kBf16Split, row_begin,
                        global_rows);
  plain.init(r1, 0.25f);
  cached.init(r2, 0.25f);

  EmbCacheOptions co;
  co.capacity = 20;
  co.policy = EmbCachePolicy::kHist;
  cached.configure_cache(co);
  // Global histogram with all mass in buckets overlapping the shard.
  std::vector<double> hist(30, 0.0);  // 10 rows per bucket
  for (std::size_t b = 10; b < 16; ++b) hist[b] = 100.0 - static_cast<double>(b);
  cached.admit_top_rows_from_histogram(hist);
  EXPECT_GT(cached.cache_stats().resident, 0);
  EXPECT_LE(cached.cache_stats().resident, 20);

  Tensor<float> out_plain({n, dim}), out_cached({n, dim});
  for (int iter = 0; iter < 4; ++iter) {
    const BagBatch bags = make_bags(n, pooling, shard_rows, 0.9,
                                    700 + static_cast<std::uint64_t>(iter));
    plain.forward(bags, out_plain.data());
    cached.forward(bags, out_cached.data());
    ASSERT_EQ(std::memcmp(out_plain.data(), out_cached.data(),
                          static_cast<std::size_t>(n * dim) * sizeof(float)),
              0);
    const Tensor<float> dy =
        random_grad(n, dim, 800 + static_cast<std::uint64_t>(iter));
    plain.fused_backward_update(dy.data(), bags, 0.05f,
                                UpdateStrategy::kRaceFree);
    cached.fused_backward_update(dy.data(), bags, 0.05f,
                                 UpdateStrategy::kRaceFree);
  }
  EXPECT_EQ(export_all(plain), export_all(cached));
}

// The cache is DERIVED state: the checkpoint codec reads through it, so an
// export needs no flush, records nothing cache-specific, and the manifest
// format is unchanged.
TEST(EmbCache, CheckpointStateIsDerivedOnly) {
  EXPECT_EQ(ckpt::kFormatVersion, 2u)
      << "the cache tier must not grow the checkpoint format";
  const std::int64_t rows = 150, dim = 16, n = 16, pooling = 4;
  Rng rng(17);
  EmbeddingTable table(rows, dim, EmbedPrecision::kBf16Split);
  table.init(rng, 0.5f);
  EmbCacheOptions co;
  co.capacity = 24;
  co.policy = EmbCachePolicy::kHist;
  table.configure_cache(co);
  std::vector<std::int64_t> hot(24);
  std::iota(hot.begin(), hot.end(), 0);
  table.admit_rows(hot.data(), 24);

  const BagBatch bags = make_bags(n, pooling, rows, 1.1, 41);
  const Tensor<float> dy = random_grad(n, dim, 42);
  table.fused_backward_update(dy.data(), bags, 0.1f,
                              UpdateStrategy::kRaceFree);

  // Dirty resident rows: export must already see their latest state...
  const std::vector<unsigned char> before_flush = export_all(table);
  table.flush_cache();
  const std::vector<unsigned char> after_flush = export_all(table);
  EXPECT_EQ(before_flush, after_flush);

  // ...and importing that payload into a cache-less table reproduces the
  // storage exactly (nothing about the tier leaks into the encoding).
  EmbeddingTable restored(rows, dim, EmbedPrecision::kBf16Split);
  restored.import_rows(0, rows, before_flush.data());
  EXPECT_EQ(export_all(restored), before_flush);
}

// Reconfiguring with capacity 0 / kOff drains the tier and returns the
// table to the plain path.
TEST(EmbCache, DisableWritesBackAndRestoresPlainPath) {
  const std::int64_t rows = 100, dim = 8;
  Rng r1(19), r2(19);
  EmbeddingTable plain(rows, dim, EmbedPrecision::kFp24);
  EmbeddingTable cached(rows, dim, EmbedPrecision::kFp24);
  plain.init(r1, 0.5f);
  cached.init(r2, 0.5f);
  EmbCacheOptions co;
  co.capacity = 16;
  co.policy = EmbCachePolicy::kHist;
  cached.configure_cache(co);
  std::vector<std::int64_t> hot(16);
  std::iota(hot.begin(), hot.end(), 0);
  cached.admit_rows(hot.data(), 16);

  const BagBatch bags = make_bags(12, 4, rows, 1.0, 51);
  const Tensor<float> dy = random_grad(12, dim, 52);
  plain.fused_backward_update(dy.data(), bags, 0.1f,
                              UpdateStrategy::kRaceFree);
  cached.fused_backward_update(dy.data(), bags, 0.1f,
                               UpdateStrategy::kRaceFree);

  cached.configure_cache(EmbCacheOptions{});  // off
  EXPECT_FALSE(cached.cache_enabled());
  EXPECT_EQ(cached.cache_bytes(), 0);
  EXPECT_EQ(export_all(plain), export_all(cached));
}

}  // namespace
}  // namespace dlrm
