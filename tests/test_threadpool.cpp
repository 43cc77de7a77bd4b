// Tests for the thread pool and parallel_for primitives.
#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dlrm {
namespace {

TEST(ThreadPool, RunExecutesEveryTidOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.run([&](int tid) {
    EXPECT_EQ(tid, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(6);
  for (std::int64_t n : {0, 1, 5, 6, 7, 100, 1000, 12345}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(0, n, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, ParallelForDynamicCoversRangeExactlyOnce) {
  ThreadPool pool(6);
  for (std::int64_t grain : {1, 3, 16, 1000}) {
    const std::int64_t n = 5000;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for_dynamic(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "grain=" << grain;
    }
  }
}

TEST(ThreadPool, NonZeroBeginHandled) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100, 200, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum += local;
  });
  std::int64_t expect = 0;
  for (std::int64_t i = 100; i < 200; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, RepeatedJobsStress) {
  ThreadPool pool(8);
  std::atomic<std::int64_t> total{0};
  for (int iter = 0; iter < 500; ++iter) {
    pool.parallel_for(0, 64, [&](std::int64_t lo, std::int64_t hi) {
      total += hi - lo;
    });
  }
  EXPECT_EQ(total.load(), 500 * 64);
}

// After a job threw, the pool must run the next job on every tid.
void expect_pool_usable(ThreadPool& pool) {
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, 1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 499500);
  std::atomic<int> tids{0};
  pool.run([&](int) { tids++; });
  EXPECT_EQ(tids.load(), pool.size());
}

TEST(ThreadPoolErrors, RunRethrowsFromTidZero) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.run([&](int tid) {
                 if (tid == 0) throw std::runtime_error("tid 0");
                 finished++;
               }),
               std::runtime_error);
  // run() returned only after every worker was done with the job.
  EXPECT_EQ(finished.load(), 3);
  expect_pool_usable(pool);
}

TEST(ThreadPoolErrors, RunRethrowsFromWorker) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run([](int tid) {
                 if (tid == 2) throw std::runtime_error("worker");
               }),
               std::runtime_error);
  expect_pool_usable(pool);
  // Every participant throwing still yields one exception, not terminate.
  EXPECT_THROW(pool.run([](int) { throw std::runtime_error("all"); }),
               std::runtime_error);
  expect_pool_usable(pool);
}

TEST(ThreadPoolErrors, ParallelForDynamicRethrowsFromCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_THROW(
      pool.parallel_for_dynamic(0, 64, 1, [&](std::int64_t, std::int64_t) {
        if (std::this_thread::get_id() == caller) throw std::runtime_error("caller");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }),
      std::runtime_error);
  expect_pool_usable(pool);
}

TEST(ThreadPoolErrors, ParallelForDynamicRethrowsFromWorker) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_THROW(
      pool.parallel_for_dynamic(0, 64, 1, [&](std::int64_t, std::int64_t) {
        if (std::this_thread::get_id() != caller) throw std::runtime_error("worker");
        // The caller works slowly so that workers get chunks of their own.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }),
      std::runtime_error);
  expect_pool_usable(pool);
}

TEST(PoolScope, InstallsAndRestoresCurrentPool) {
  ThreadPool inner(2);
  ThreadPool* before = &current_pool();
  {
    PoolScope scope(inner);
    EXPECT_EQ(&current_pool(), &inner);
    // Free function dispatches to the scoped pool.
    std::atomic<int> chunks{0};
    parallel_run([&](int) { chunks++; });
    EXPECT_EQ(chunks.load(), 2);
  }
  EXPECT_EQ(&current_pool(), before);
}

TEST(PoolScope, NestedScopes) {
  ThreadPool a(2), b(3);
  PoolScope sa(a);
  EXPECT_EQ(current_pool().size(), 2);
  {
    PoolScope sb(b);
    EXPECT_EQ(current_pool().size(), 3);
  }
  EXPECT_EQ(current_pool().size(), 2);
}

TEST(PoolScope, RankThreadsGetIndependentPools) {
  // Emulates the distributed runtime: each rank thread installs its own pool
  // and kernels parallelize within it without interference.
  constexpr int kRanks = 4;
  std::vector<std::thread> ranks;
  std::vector<std::int64_t> sums(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([r, &sums] {
      ThreadPool pool(2);
      PoolScope scope(pool);
      std::atomic<std::int64_t> sum{0};
      parallel_for(0, 1000, [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t local = 0;
        for (std::int64_t i = lo; i < hi; ++i) local += i;
        sum += local;
      });
      sums[static_cast<std::size_t>(r)] = sum.load();
    });
  }
  for (auto& t : ranks) t.join();
  for (auto s : sums) EXPECT_EQ(s, 499500);
}

}  // namespace
}  // namespace dlrm
