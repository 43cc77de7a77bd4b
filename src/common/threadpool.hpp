// Persistent worker-thread pool and parallel_for primitives.
//
// The library does not use OpenMP: the paper's multi-socket runs need nested
// parallelism (one thread per simulated rank, each rank owning its own set of
// compute cores, with some cores dedicated to communication — Sect. IV.A),
// which is much easier to control with an explicit pool per rank.
//
// Kernels call the free functions dlrm::parallel_for / parallel_for_dynamic,
// which dispatch to the *current* pool: either a pool installed for this
// thread via PoolScope (rank threads do this) or the process-wide default
// pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace dlrm {

/// Fixed-size pool of persistent worker threads.
///
/// run(fn) executes fn(tid) for tid in [0, size()) — tid 0 runs on the
/// calling thread, tids 1..size()-1 on the workers — and returns when all are
/// done. A pool of size 1 therefore never context-switches.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Executes fn(tid) on all participants; blocks until completion.
  /// If any participant throws, run() still waits for all of them, then
  /// rethrows the first exception raised; the pool stays usable.
  /// Not reentrant: do not call run() from inside a task on the same pool.
  void run(const std::function<void(int)>& fn);

  /// Static partition: splits [begin, end) into size() contiguous chunks.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Dynamic partition: workers grab `grain`-sized chunks from an atomic
  /// counter. Use when per-index work is irregular (e.g. embedding bags).
  void parallel_for_dynamic(
      std::int64_t begin, std::int64_t end, std::int64_t grain,
      const std::function<void(std::int64_t, std::int64_t)>& body);

 private:
  void worker_loop(int tid);
  void record_error(std::exception_ptr error);  // keeps the first only

  const int size_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::exception_ptr error_;  // first exception raised in the current job
  std::uint64_t generation_ = 0;
  int outstanding_ = 0;
  bool shutdown_ = false;
};

/// Host thread budget: the DLRM_NUM_THREADS environment variable if set,
/// else hardware_concurrency. Callers that split the host between several
/// concurrent pools size them from this.
int default_pool_threads();

/// Process-wide default pool of default_pool_threads() threads, for a single
/// caller at a time. Created on first use.
ThreadPool& default_pool();

/// Pool the calling thread currently dispatches to (never null).
ThreadPool& current_pool();

/// RAII: installs `pool` as the current pool for this thread.
/// Rank threads of the in-process communicator use this so that kernels
/// executed on behalf of a rank parallelize over that rank's cores only.
class PoolScope {
 public:
  explicit PoolScope(ThreadPool& pool);
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  ThreadPool* saved_;
};

/// parallel_for over the current pool (static partition).
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// parallel_for over the current pool (dynamic partition).
void parallel_for_dynamic(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body);

/// Runs fn(tid) on every participant of the current pool.
void parallel_run(const std::function<void(int)>& fn);

}  // namespace dlrm
