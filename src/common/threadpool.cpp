#include "common/threadpool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace dlrm {

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int tid = 1; tid < size_; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  if (size_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    DLRM_CHECK(job_ == nullptr, "ThreadPool::run is not reentrant");
    job_ = &fn;
    outstanding_ = size_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  try {
    fn(0);  // participate as tid 0
  } catch (...) {
    record_error(std::current_exception());
  }
  std::exception_ptr error;
  {
    // Even when tid 0 threw, the workers still hold `fn`: wait them out.
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return outstanding_ == 0; });
    job_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::record_error(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) error_ = std::move(error);
}

void ThreadPool::worker_loop(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(tid);
    } catch (...) {
      record_error(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (size_ == 1 || n == 1) {
    body(begin, end);
    return;
  }
  const std::int64_t chunks = std::min<std::int64_t>(size_, n);
  run([&](int tid) {
    if (tid >= chunks) return;
    const std::int64_t lo = begin + n * tid / chunks;
    const std::int64_t hi = begin + n * (tid + 1) / chunks;
    if (lo < hi) body(lo, hi);
  });
}

void ThreadPool::parallel_for_dynamic(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  if (size_ == 1 || n <= grain) {
    body(begin, end);
    return;
  }
  std::atomic<std::int64_t> next{begin};
  run([&](int) {
    for (;;) {
      const std::int64_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      body(lo, std::min(lo + grain, end));
    }
  });
}

int default_pool_threads() {
  if (const char* env = std::getenv("DLRM_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

namespace {

thread_local ThreadPool* tls_current_pool = nullptr;

}  // namespace

ThreadPool& default_pool() {
  static ThreadPool pool(default_pool_threads());
  return pool;
}

ThreadPool& current_pool() {
  return tls_current_pool != nullptr ? *tls_current_pool : default_pool();
}

PoolScope::PoolScope(ThreadPool& pool) : saved_(tls_current_pool) {
  tls_current_pool = &pool;
}

PoolScope::~PoolScope() { tls_current_pool = saved_; }

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  current_pool().parallel_for(begin, end, body);
}

void parallel_for_dynamic(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  current_pool().parallel_for_dynamic(begin, end, grain, body);
}

void parallel_run(const std::function<void(int)>& fn) {
  current_pool().run(fn);
}

}  // namespace dlrm
