#include "serve/admission.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "serve/sharded.hpp"

namespace dlrm::serve {

namespace {

// Bounded re-check interval for drain-side waits: a held batch queue has no
// edge to wake on when the controller's state flips via record_latency on
// another thread racing the wait, so poppers re-evaluate at least this often.
constexpr double kPollSec = 1e-3;

}  // namespace

double percentile_nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank > 0) --rank;  // nearest-rank, 1-based -> 0-based
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  if (options_.enabled()) {
    DLRM_CHECK(options_.window >= 1, "admission window must be >= 1");
    DLRM_CHECK(options_.min_samples >= 1, "min_samples must be >= 1");
    DLRM_CHECK(options_.exit_frac <= options_.defer_frac &&
                   options_.defer_frac <= options_.shed_frac,
               "admission thresholds must satisfy exit <= defer <= shed");
    window_.resize(static_cast<std::size_t>(options_.window));
  }
}

void AdmissionController::record(SloClass slo, double latency_ms) {
  if (!options_.enabled() || slo != SloClass::kInteractive) return;
  window_[static_cast<std::size_t>(next_)] = latency_ms;
  next_ = (next_ + 1) % options_.window;
  ++count_;
  const auto filled =
      static_cast<std::size_t>(std::min(count_, options_.window));
  scratch_.assign(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(filled));
  std::sort(scratch_.begin(), scratch_.end());
  p99_ms_ = percentile_nearest_rank(scratch_, 0.99);
  if (count_ < options_.min_samples) return;

  const double defer_at = options_.defer_frac * options_.p99_target_ms;
  const double shed_at = options_.shed_frac * options_.p99_target_ms;
  const double exit_at = options_.exit_frac * options_.p99_target_ms;
  switch (state_) {
    case AdmissionState::kOpen:
      if (p99_ms_ >= shed_at) {
        state_ = AdmissionState::kShed;
      } else if (p99_ms_ >= defer_at) {
        state_ = AdmissionState::kDefer;
      }
      break;
    case AdmissionState::kDefer:
      if (p99_ms_ >= shed_at) {
        state_ = AdmissionState::kShed;
      } else if (p99_ms_ <= exit_at) {
        state_ = AdmissionState::kOpen;
      }
      break;
    case AdmissionState::kShed:
      // Hysteresis: only a genuine recovery (below exit, not merely below
      // the shed threshold) re-admits batch traffic.
      if (p99_ms_ <= exit_at) state_ = AdmissionState::kOpen;
      break;
  }
}

RequestQueue::RequestQueue(std::int64_t capacity_per_class,
                           AdmissionOptions admission)
    : capacity_(capacity_per_class), ctrl_(admission) {
  DLRM_CHECK(capacity_ >= 1, "queue capacity must be >= 1");
}

void RequestQueue::open() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = false;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

SubmitResult RequestQueue::submit(const Request& r, bool blocking) {
  const auto c = static_cast<std::size_t>(r.slo);
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return SubmitResult::kClosed;
  if (r.slo == SloClass::kBatch && ctrl_.shed_batch()) {
    ++counters_.shed[c];
    return SubmitResult::kShed;
  }
  if (static_cast<std::int64_t>(queues_[c].size()) >= capacity_) {
    if (!blocking) return SubmitResult::kFull;
    not_full_.wait(lock, [&] {
      return closed_ ||
             static_cast<std::int64_t>(queues_[c].size()) < capacity_;
    });
    if (closed_) return SubmitResult::kClosed;
    // State may have flipped while we were blocked.
    if (r.slo == SloClass::kBatch && ctrl_.shed_batch()) {
      ++counters_.shed[c];
      return SubmitResult::kShed;
    }
  }
  queues_[c].push_back(Entry{r, false});
  ++counters_.admitted[c];
  lock.unlock();
  not_empty_.notify_one();
  return SubmitResult::kOk;
}

int RequestQueue::eligible_class_locked() {
  if (closed_) {
    // Shutdown drain: everything admitted is served, priority still applies.
    for (int c = 0; c < kNumSloClasses; ++c) {
      if (!queues_[static_cast<std::size_t>(c)].empty()) return c;
    }
    return -1;
  }
  if (!queues_[0].empty()) return 0;
  auto& batch = queues_[1];
  if (!batch.empty()) {
    if (!ctrl_.hold_batch()) return 1;
    if (!batch.front().deferred) {
      batch.front().deferred = true;
      ++counters_.deferred[1];
    }
  }
  return -1;
}

bool RequestQueue::pop_first(Request& out) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const int c = eligible_class_locked();
    if (c >= 0) {
      out = queues_[static_cast<std::size_t>(c)].front().r;
      queues_[static_cast<std::size_t>(c)].pop_front();
      lock.unlock();
      not_full_.notify_one();
      return true;
    }
    bool drained = closed_;
    for (const auto& q : queues_) drained = drained && q.empty();
    if (drained) return false;
    not_empty_.wait_for(lock, std::chrono::duration<double>(kPollSec));
  }
}

PopStatus RequestQueue::pop_fitting(std::int64_t budget, double deadline_sec,
                                    Request& out) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Eligibility first: with work queued, the batcher packs greedily even
    // past its linger deadline (matches run_trace's saturated-queue rule).
    const int c = eligible_class_locked();
    if (c >= 0) {
      auto& q = queues_[static_cast<std::size_t>(c)];
      if (q.front().r.fanout > budget) return PopStatus::kTooBig;
      out = q.front().r;
      q.pop_front();
      lock.unlock();
      not_full_.notify_one();
      return PopStatus::kPopped;
    }
    if (closed_) return PopStatus::kDrained;
    const double rem = deadline_sec - now_sec();
    if (rem <= 0.0) return PopStatus::kTimeout;
    not_empty_.wait_for(lock,
                        std::chrono::duration<double>(std::min(rem, kPollSec)));
  }
}

void RequestQueue::record_latency(SloClass slo, double latency_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ctrl_.record(slo, latency_ms);
  }
  // A recovered p99 can make held batch work eligible again.
  not_empty_.notify_all();
}

QueueCounters RequestQueue::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void RequestQueue::reset_counters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = QueueCounters{};
}

AdmissionState RequestQueue::admission_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ctrl_.state();
}

double RequestQueue::admission_p99_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ctrl_.rolling_p99_ms();
}

bool collect_batch(RequestQueue& queue, const BatchPolicy& policy,
                   std::vector<Request>& out) {
  out.clear();
  Request first;
  if (!queue.pop_first(first)) return false;
  out.push_back(first);
  std::int64_t samples = first.fanout;
  const double deadline =
      now_sec() + static_cast<double>(policy.max_wait_us) * 1e-6;
  while (samples < policy.max_batch) {
    Request r;
    if (queue.pop_fitting(policy.max_batch - samples, deadline, r) !=
        PopStatus::kPopped) {
      break;
    }
    out.push_back(r);
    samples += r.fanout;
  }
  return true;
}

}  // namespace dlrm::serve
