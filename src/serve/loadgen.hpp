// Synthetic open-loop load generator for the serving path.
//
// Arrivals are Poisson (exponential inter-arrival gaps at a configured
// QPS) and request keys are Zipf-skewed over the sample stream, matching
// the production access skew the paper's embedding analysis leans on.
// Open loop: each request is stamped with its *intended* arrival time, so
// queueing delay under overload shows up in the latency percentiles
// instead of being hidden by coordinated omission.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/admission.hpp"

namespace dlrm {
class Dataset;
class DlrmModel;
}  // namespace dlrm

namespace dlrm::serve {

class ShardedInferenceEngine;  // sharded.hpp

struct LoadGenOptions {
  double qps = 1000.0;
  std::int64_t requests = 1000;
  std::int64_t fanout = 4;        // candidates scored per request
  std::int64_t key_space = 1 << 20;  // sample-stream keys drawn from [0, n)
  double zipf_s = 0.9;            // key skew; 0 = uniform
  std::uint64_t seed = 7;
  /// true: try_submit and count drops (load shedding); false: block on a
  /// full queue (backpressure).
  bool drop_when_full = false;
  /// Class mix: fraction of interactive traffic (the rest is batch class).
  /// Both extremes — 1.0 (all interactive) and 0.0 (all batch) — draw no
  /// extra randomness, so either single-class trace is byte-identical to a
  /// pre-class-mix one (same keys, fanouts and arrival times).
  double interactive_frac = 1.0;
};

class PoissonLoadGen {
 public:
  /// `engine` must outlive the generator.
  PoissonLoadGen(ShardedInferenceEngine& engine, LoadGenOptions options);

  /// Generates and submits options.requests requests on the caller thread,
  /// pacing to the Poisson schedule. Returns when the last request was
  /// submitted (or dropped).
  void run();

  std::int64_t sent() const { return sent_; }
  std::int64_t dropped() const { return dropped_; }

 private:
  ShardedInferenceEngine& engine_;
  LoadGenOptions options_;
  std::int64_t sent_ = 0;
  std::int64_t dropped_ = 0;
};

/// Deterministic request trace with the same key/fanout distribution the
/// live generator produces (submit stamps at the nominal schedule). Feed to
/// ShardedInferenceEngine::run_trace for reproducible offline replay.
std::vector<Request> make_trace(const LoadGenOptions& options);

/// Offline reference scores, in trace order: each request's candidates
/// forwarded alone through `model` (re-batched to the request's fanout),
/// keeping the first score. Served scores must equal these bit-for-bit at
/// every rank count, plan and batch policy.
std::vector<float> offline_scores(DlrmModel& model, const Dataset& data,
                                  const std::vector<Request>& trace);

}  // namespace dlrm::serve
