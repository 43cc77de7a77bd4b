// SLO classes and p99-driven admission control for the serving tier.
//
// Production recommender serving runs two kinds of traffic through one
// model: interactive requests with a hard tail-latency target, and batch /
// best-effort requests (precompute, backfills) that only care about
// throughput. A fixed queue cap treats both the same, so batch floods
// inflate the interactive p99 long before anything is rejected. This
// module replaces the single bounded queue with:
//
//   * per-class bounded queues with strict-priority draining (interactive
//     requests are always batched first),
//   * an AdmissionController that watches the *measured* rolling p99 of
//     the interactive class and, as it approaches the configured target,
//     first defers batch draining (kDefer) and then sheds batch arrivals
//     outright (kShed), with hysteresis so batch traffic is re-admitted
//     only once the p99 has genuinely recovered.
//
// Shed requests are still accounted against their intended-arrival stamps
// by the engine (see note_refused), so open-loop percentiles under
// shedding do not silently drop the worst requests (no coordinated
// omission in the shed path).
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace dlrm::serve {

/// Nearest-rank percentile over an ascending-sorted sample vector (the
/// repo-wide serving percentile convention).
double percentile_nearest_rank(const std::vector<double>& sorted, double q);

enum class SloClass : std::uint8_t {
  kInteractive = 0,  // user-facing; tail-latency target applies
  kBatch = 1,        // best-effort; first to defer / shed under pressure
};

inline constexpr int kNumSloClasses = 2;

inline const char* to_string(SloClass c) {
  return c == SloClass::kInteractive ? "interactive" : "batch";
}

/// One scoring request: `key` addresses the deterministic sample stream
/// (the request's user/context), `fanout` consecutive samples are scored.
struct Request {
  std::int64_t id = 0;
  std::int64_t key = 0;
  std::int64_t fanout = 1;
  double submit_sec = 0.0;  // arrival stamp (open-loop: intended arrival)
  SloClass slo = SloClass::kInteractive;
};

struct AdmissionOptions {
  /// Interactive-class p99 target in ms; <= 0 disables the controller
  /// (both classes then share only the per-class capacity bound).
  double p99_target_ms = 0.0;
  /// Enter kDefer when rolling p99 >= defer_frac * target.
  double defer_frac = 0.7;
  /// Enter kShed when rolling p99 >= shed_frac * target.
  double shed_frac = 0.9;
  /// Hysteresis: leave kDefer/kShed only once p99 <= exit_frac * target.
  double exit_frac = 0.6;
  /// Rolling window of interactive latencies the p99 is computed over.
  std::int64_t window = 256;
  /// No transitions until this many interactive samples have been seen.
  std::int64_t min_samples = 32;

  bool enabled() const { return p99_target_ms > 0.0; }
};

enum class AdmissionState : std::uint8_t {
  kOpen = 0,   // admit + drain both classes
  kDefer = 1,  // admit batch, but hold it in queue (priority drain only)
  kShed = 2,   // refuse new batch arrivals outright
};

inline const char* to_string(AdmissionState s) {
  switch (s) {
    case AdmissionState::kOpen: return "open";
    case AdmissionState::kDefer: return "defer";
    default: return "shed";
  }
}

/// Hysteresis state machine over the rolling interactive p99. Not
/// internally synchronized: RequestQueue calls it under its own mutex.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Feeds one served-request latency; only the interactive class moves
  /// the window / state.
  void record(SloClass slo, double latency_ms);

  AdmissionState state() const { return state_; }
  bool shed_batch() const { return state_ == AdmissionState::kShed; }
  bool hold_batch() const { return state_ != AdmissionState::kOpen; }
  double rolling_p99_ms() const { return p99_ms_; }
  std::int64_t samples() const { return count_; }

 private:
  const AdmissionOptions options_;
  std::vector<double> window_;   // ring buffer of interactive latencies
  std::vector<double> scratch_;  // sorted copy for the percentile
  std::int64_t next_ = 0;        // ring cursor
  std::int64_t count_ = 0;       // total interactive samples seen
  double p99_ms_ = 0.0;
  AdmissionState state_ = AdmissionState::kOpen;
};

enum class SubmitResult : std::uint8_t { kOk, kShed, kFull, kClosed };

/// What pop_fitting observed (collect_batch's linger loop drives on this).
enum class PopStatus : std::uint8_t {
  kPopped,   // a request was returned
  kTooBig,   // eligible front exceeds the remaining sample budget
  kTimeout,  // linger deadline passed with nothing eligible
  kDrained,  // queue closed and fully drained
};

struct QueueCounters {
  std::array<std::int64_t, kNumSloClasses> admitted{};
  std::array<std::int64_t, kNumSloClasses> shed{};
  std::array<std::int64_t, kNumSloClasses> deferred{};
};

/// Per-class bounded MPMC queues with strict-priority draining and the
/// admission controller wired into both ends: arrivals consult it for
/// shedding, the drain side consults it before releasing batch work.
class RequestQueue {
 public:
  RequestQueue(std::int64_t capacity_per_class, AdmissionOptions admission);

  void open();
  /// Close: new submits fail, poppers drain what is left then see
  /// kDrained/false. Wakes every waiter.
  void close();

  /// blocking=true waits while the class queue is full (backpressure);
  /// blocking=false returns kFull instead. Batch-class arrivals are
  /// refused with kShed while the controller sheds.
  SubmitResult submit(const Request& r, bool blocking);

  /// Blocking pop of the highest-priority eligible request; false once
  /// closed and drained.
  bool pop_first(Request& out);

  /// Pop the highest-priority eligible request iff its fanout fits
  /// `budget`; otherwise report why not. Waits (bounded) until
  /// `deadline_sec` when nothing is eligible.
  PopStatus pop_fitting(std::int64_t budget, double deadline_sec, Request& out);

  /// Served-latency feedback for the controller (also wakes the drain side:
  /// a recovered p99 can release held batch work).
  void record_latency(SloClass slo, double latency_ms);

  QueueCounters counters() const;
  void reset_counters();
  AdmissionState admission_state() const;
  double admission_p99_ms() const;

 private:
  /// Highest-priority class with an eligible (drainable) front, or -1.
  /// Marks the batch front "deferred" (once) when the controller holds it.
  int eligible_class_locked();

  const std::int64_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_, not_full_;
  struct Entry {
    Request r;
    bool deferred = false;  // counted once when held back by the controller
  };
  std::array<std::deque<Entry>, kNumSloClasses> queues_;
  AdmissionController ctrl_;
  QueueCounters counters_;
  bool closed_ = true;
};

struct BatchPolicy;  // sharded.hpp

/// Shared batcher core: blocking-pops the first request, then lingers up to
/// policy.max_wait_us packing whole eligible requests until the sample
/// budget is hit. Returns false once the queue is closed and drained.
/// The engine's batcher (rank 0) and nothing else calls this.
bool collect_batch(RequestQueue& queue, const BatchPolicy& policy,
                   std::vector<Request>& out);

}  // namespace dlrm::serve
