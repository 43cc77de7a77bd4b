// Micro-benchmark (google-benchmark): EmbeddingBag kernels — update
// strategies under uniform vs Zipf index streams, the fused
// backward+update ablation (paper Sect. III.A: up to 1.6x), a DRAM-resident
// forward/update case at the train_zipf_r2 shape, and the hot-row cache
// tier. Before the google-benchmark run, a BENCH_JSON row
// is emitted per (precision, Zipf alpha, cache capacity) sweep point so
// future PRs can track the cache's hit-rate/throughput trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "kernels/embedding.hpp"

namespace {

using namespace dlrm;

BagBatch make_bags(std::int64_t n, std::int64_t pooling, std::int64_t rows,
                   double skew) {
  BagBatch bags;
  bags.indices.reshape({n * pooling});
  bags.offsets.reshape({n + 1});
  Rng rng(7);
  ZipfSampler zipf(rows, skew);
  for (std::int64_t i = 0; i < n * pooling; ++i) bags.indices[i] = zipf(rng);
  for (std::int64_t i = 0; i <= n; ++i) bags.offsets[i] = i * pooling;
  return bags;
}

constexpr std::int64_t kRows = 200000, kDim = 64, kBatch = 2048, kPool = 20;

void BM_EmbeddingForward(benchmark::State& state) {
  EmbeddingTable table(kRows, kDim);
  Rng rng(1);
  table.init(rng, 1.0f);
  BagBatch bags = make_bags(kBatch, kPool, kRows, 0.0);
  Tensor<float> out({kBatch, kDim});
  for (auto _ : state) {
    table.forward(bags, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(kBatch * kPool * kDim * 4),
      benchmark::Counter::kIsIterationInvariantRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_EmbeddingForward);

// strategy x skew sweep for the fused update.
void BM_EmbeddingUpdate(benchmark::State& state) {
  const auto strategy = static_cast<UpdateStrategy>(state.range(0));
  const double skew = state.range(1) == 0 ? 0.0 : 1.05;
  EmbeddingTable table(kRows, kDim);
  Rng rng(2);
  table.init(rng, 1.0f);
  BagBatch bags = make_bags(kBatch, kPool, kRows, skew);
  Tensor<float> dy({kBatch, kDim});
  fill_uniform(dy, rng, 0.1f);
  for (auto _ : state) {
    table.fused_backward_update(dy.data(), bags, 0.01f, strategy);
  }
  state.SetLabel(std::string(to_string(strategy)) +
                 (skew > 0 ? "/zipf" : "/uniform"));
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(kBatch * kPool),
      benchmark::Counter::kIsIterationInvariantRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_EmbeddingUpdate)
    ->ArgsProduct({{static_cast<long>(UpdateStrategy::kAtomicXchg),
                    static_cast<long>(UpdateStrategy::kRtm),
                    static_cast<long>(UpdateStrategy::kRaceFree)},
                   {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Fused vs unfused update (the 1.6x claim).
void BM_EmbeddingUpdateUnfused(benchmark::State& state) {
  EmbeddingTable table(kRows, kDim);
  Rng rng(3);
  table.init(rng, 1.0f);
  BagBatch bags = make_bags(kBatch, kPool, kRows, 0.0);
  Tensor<float> dy({kBatch, kDim});
  fill_uniform(dy, rng, 0.1f);
  Tensor<float> dlookup;
  for (auto _ : state) {
    table.backward(dy.data(), bags, dlookup);
    table.apply_update(dlookup, bags, 0.01f, UpdateStrategy::kRaceFree);
  }
  state.SetLabel("unfused/RaceFree");
}
BENCHMARK(BM_EmbeddingUpdateUnfused)->Unit(benchmark::kMillisecond);

void BM_EmbeddingUpdateFused(benchmark::State& state) {
  EmbeddingTable table(kRows, kDim);
  Rng rng(3);
  table.init(rng, 1.0f);
  BagBatch bags = make_bags(kBatch, kPool, kRows, 0.0);
  Tensor<float> dy({kBatch, kDim});
  fill_uniform(dy, rng, 0.1f);
  for (auto _ : state) {
    table.fused_backward_update(dy.data(), bags, 0.01f, UpdateStrategy::kRaceFree);
  }
  state.SetLabel("fused/RaceFree");
}
BENCHMARK(BM_EmbeddingUpdateFused)->Unit(benchmark::kMillisecond);

// The naive reference kernel on a small table (it is O(M*E), keep it tiny).
void BM_EmbeddingUpdateReference(benchmark::State& state) {
  EmbeddingTable table(20000, kDim);
  Rng rng(4);
  table.init(rng, 1.0f);
  BagBatch bags = make_bags(256, 4, 20000, 0.0);
  Tensor<float> dy({256, kDim});
  fill_uniform(dy, rng, 0.1f);
  Tensor<float> dlookup;
  for (auto _ : state) {
    table.backward(dy.data(), bags, dlookup);
    table.apply_update(dlookup, bags, 0.01f, UpdateStrategy::kReference);
  }
  state.SetLabel("reference/dense-sweep");
}
BENCHMARK(BM_EmbeddingUpdateReference)->Unit(benchmark::kMillisecond);

// Split-SGD embedding update (16-bit hi/lo) vs fp32.
void BM_EmbeddingUpdateSplit(benchmark::State& state) {
  EmbeddingTable table(kRows, kDim, EmbedPrecision::kBf16Split);
  Rng rng(5);
  table.init(rng, 1.0f);
  BagBatch bags = make_bags(kBatch, kPool, kRows, 0.0);
  Tensor<float> dy({kBatch, kDim});
  fill_uniform(dy, rng, 0.1f);
  for (auto _ : state) {
    table.fused_backward_update(dy.data(), bags, 0.01f, UpdateStrategy::kRaceFree);
  }
  state.SetLabel("fused/RaceFree/bf16-split");
}
BENCHMARK(BM_EmbeddingUpdateSplit)->Unit(benchmark::kMillisecond);

// ---- DRAM-resident shape ---------------------------------------------------
//
// The 200k-row table above (51 MB) fits in a large L3, where software
// prefetch has no miss to hide. This case is the train_zipf_r2 table shape
// at a size no L3 holds: 2M x 64 fp32 rows (512 MB), P=50, Zipf 1.05, one
// thread, kRaceFree. GB/s counts the bytes each kernel moves, as perfbench's
// kernels.emb_gbps does: the forward reads P rows per bag and writes the
// pooled row; the fused update reads the pooled gradient and reads + writes
// every looked-up row.
constexpr std::int64_t kDramRows = std::int64_t{1} << 21, kDramBatch = 1024,
                       kDramPool = 50;

struct DramCase {
  EmbeddingTable table{kDramRows, kDim};
  BagBatch bags = make_bags(kDramBatch, kDramPool, kDramRows, 1.05);
  Tensor<float> out{{kDramBatch, kDim}};
  Tensor<float> dy{{kDramBatch, kDim}};
  DramCase() {
    Rng rng(8);
    table.init(rng, 1.0f);
    fill_uniform(dy, rng, 0.1f);
  }
};

DramCase& dram_case() {
  static DramCase c;  // built on first use: only when a DRAM case runs
  return c;
}

void BM_EmbeddingForwardDram(benchmark::State& state) {
  DramCase& c = dram_case();
  ThreadPool pool(1);
  PoolScope scope(pool);
  for (auto _ : state) {
    c.table.forward(c.bags, c.out.data());
    benchmark::DoNotOptimize(c.out.data());
  }
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>((kDramBatch * kDramPool + kDramBatch) * kDim * 4),
      benchmark::Counter::kIsIterationInvariantRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_EmbeddingForwardDram)->Unit(benchmark::kMillisecond);

void BM_EmbeddingUpdateDram(benchmark::State& state) {
  DramCase& c = dram_case();
  ThreadPool pool(1);
  PoolScope scope(pool);
  for (auto _ : state) {
    c.table.fused_backward_update(c.dy.data(), c.bags, 0.01f,
                                  UpdateStrategy::kRaceFree);
  }
  state.SetLabel("fused/RaceFree");
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>((kDramBatch + 2 * kDramBatch * kDramPool) * kDim * 4),
      benchmark::Counter::kIsIterationInvariantRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_EmbeddingUpdateDram)->Unit(benchmark::kMillisecond);

// ---- Hot-row cache sweep ---------------------------------------------------
//
// Measures the combined forward + fused-update path (the two kernels the
// tier dispatches) per (precision, Zipf alpha, cache capacity). Capacity 0
// is the uncached baseline each speedup is computed against. Admission is
// the exact top-K of the measured index stream, so the sweep reports the
// tier's ceiling rather than a policy's approximation of it.
void emit_cache_sweep_rows() {
  const std::int64_t lookups = kBatch * kPool;
  for (EmbedPrecision precision :
       {EmbedPrecision::kFp32, EmbedPrecision::kBf16Split}) {
    for (double alpha : {0.8, 1.05}) {
      BagBatch bags = make_bags(kBatch, kPool, kRows, alpha);
      // Exact per-row frequency of this stream → top-K admission set.
      std::vector<std::int64_t> freq(static_cast<std::size_t>(kRows), 0);
      for (std::int64_t i = 0; i < lookups; ++i) {
        ++freq[static_cast<std::size_t>(bags.indices[i])];
      }
      std::vector<std::int64_t> order(static_cast<std::size_t>(kRows));
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
        return freq[static_cast<std::size_t>(a)] >
               freq[static_cast<std::size_t>(b)];
      });

      double base_sec = 0.0;
      for (double frac : {0.0, 0.05, 0.10}) {
        EmbeddingTable table(kRows, kDim, precision);
        Rng rng(6);
        table.init(rng, 1.0f);
        Tensor<float> out({kBatch, kDim});
        Tensor<float> dy({kBatch, kDim});
        fill_uniform(dy, rng, 0.1f);

        const std::int64_t cap =
            static_cast<std::int64_t>(frac * static_cast<double>(kRows));
        if (cap > 0) {
          EmbCacheOptions copts;
          copts.capacity = cap;
          copts.policy = EmbCachePolicy::kHist;
          table.configure_cache(copts);
          table.admit_rows(order.data(), cap);
        }
        table.reset_cache_stats();

        const double sec = dlrm::bench::time_median_sec([&] {
          table.forward(bags, out.data());
          table.fused_backward_update(dy.data(), bags, 0.01f,
                                      UpdateStrategy::kRaceFree);
        });
        if (frac == 0.0) base_sec = sec;
        const EmbCacheStats st = table.cache_stats();
        dlrm::bench::JsonRow("emb_cache_sweep")
            .add("precision", to_string(precision))
            .add("zipf_alpha", alpha)
            .add("rows", kRows)
            .add("capacity_rows", cap)
            .add("capacity_frac", frac)
            .add("lookups", lookups)
            .add("hit_rate", st.hit_rate())
            .add("ns_per_row", sec / static_cast<double>(lookups) * 1e9)
            .add("speedup_vs_uncached", sec > 0 ? base_sec / sec : 1.0)
            .emit();
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  emit_cache_sweep_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
