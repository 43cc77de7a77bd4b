#include "serve/loadgen.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/model.hpp"
#include "data/dataset.hpp"
#include "serve/sharded.hpp"

namespace dlrm::serve {

namespace {

/// Exponential inter-arrival gap for rate `qps` (1 - u keeps log() finite).
double exp_gap(Rng& rng, double qps) {
  return -std::log(1.0 - rng.next_double()) / qps;
}

/// Class draw AFTER the key draw, and only when the mix is actually mixed,
/// so BOTH single-class traces (all-interactive AND all-batch) consume
/// exactly the pre-class-mix RNG sequence — keys, fanouts and arrival
/// times stay byte-identical to a class-free trace at either extreme.
SloClass draw_class(Rng& rng, double interactive_frac) {
  if (interactive_frac >= 1.0) return SloClass::kInteractive;
  if (interactive_frac <= 0.0) return SloClass::kBatch;
  return rng.next_double() < interactive_frac ? SloClass::kInteractive
                                              : SloClass::kBatch;
}

void check(const LoadGenOptions& o) {
  DLRM_CHECK(o.qps > 0.0, "qps must be positive");
  DLRM_CHECK(o.fanout >= 1, "fanout must be >= 1");
  DLRM_CHECK(o.key_space >= 1, "key_space must be >= 1");
  DLRM_CHECK(o.interactive_frac >= 0.0 && o.interactive_frac <= 1.0,
             "interactive_frac must be in [0, 1]");
}

}  // namespace

PoissonLoadGen::PoissonLoadGen(ShardedInferenceEngine& engine,
                               LoadGenOptions options)
    : engine_(engine), options_(options) {
  check(options_);
}

void PoissonLoadGen::run() {
  Rng rng(options_.seed);
  const ZipfSampler keys(options_.key_space, options_.zipf_s);
  double next = now_sec();
  for (std::int64_t i = 0; i < options_.requests; ++i) {
    next += exp_gap(rng, options_.qps);
    const double wait = next - now_sec();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    Request r;
    r.id = i;
    r.key = keys(rng);
    r.fanout = options_.fanout;
    r.submit_sec = next;  // intended arrival: open-loop latency accounting
    r.slo = draw_class(rng, options_.interactive_frac);
    if (options_.drop_when_full) {
      if (engine_.try_submit(r)) {
        ++sent_;
      } else {
        ++dropped_;
      }
    } else {
      if (engine_.submit(r)) {
        ++sent_;
      } else {
        ++dropped_;  // closed queue or admission shed
      }
    }
  }
}

std::vector<Request> make_trace(const LoadGenOptions& options) {
  check(options);
  Rng rng(options.seed);
  const ZipfSampler keys(options.key_space, options.zipf_s);
  std::vector<Request> trace;
  trace.reserve(static_cast<std::size_t>(options.requests));
  double t = 0.0;
  for (std::int64_t i = 0; i < options.requests; ++i) {
    t += exp_gap(rng, options.qps);
    Request r;
    r.id = i;
    r.key = keys(rng);
    r.fanout = options.fanout;
    r.submit_sec = t;
    r.slo = draw_class(rng, options.interactive_frac);
    trace.push_back(r);
  }
  return trace;
}

std::vector<float> offline_scores(DlrmModel& model, const Dataset& data,
                                  const std::vector<Request>& trace) {
  std::vector<float> out;
  out.reserve(trace.size());
  MiniBatch mb;
  for (const Request& r : trace) {
    data.fill(r.key, r.fanout, mb);
    if (model.batch() != r.fanout) model.set_batch(r.fanout);
    out.push_back(model.forward(mb)[0]);
  }
  return out;
}

}  // namespace dlrm::serve
