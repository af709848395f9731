// Request batching: consolidating resource use in time.
//
// Section 4.2: "we expect to see workload management policies that encourage
// identifiable periods of low and high activity — perhaps batching requests
// at the cost of increased latency." The scheduler holds arriving requests
// for up to `window_s`, then runs them back-to-back. Between batches
// devices see long idle periods that a spin-down policy can exploit; the
// cost is queueing latency, which the scheduler records per request.

#ifndef ECODB_SCHED_BATCHING_H_
#define ECODB_SCHED_BATCHING_H_

#include <deque>
#include <functional>

#include "sim/event_queue.h"
#include "util/histogram.h"

namespace ecodb::sched {

struct BatchingConfig {
  /// 0 disables batching (requests run on arrival).
  double window_s = 0.0;
};

class BatchingScheduler {
 public:
  /// A request's work function runs at dispatch time and returns its
  /// completion time (simulated), letting the scheduler account latency.
  using Work = std::function<double()>;

  /// `events` must outlive the scheduler.
  BatchingScheduler(sim::EventQueue* events, BatchingConfig config);

  /// Enqueues work arriving now.
  void Submit(Work work);

  /// Latency (arrival -> completion) distribution of finished requests.
  const Histogram& latency() const { return latency_; }
  size_t batches_dispatched() const { return batches_; }

 private:
  void Dispatch();

  struct Pending {
    double arrival;
    Work work;
  };

  sim::EventQueue* events_;
  BatchingConfig config_;
  std::deque<Pending> queue_;
  uint64_t window_timer_ = 0;
  Histogram latency_;
  size_t batches_ = 0;
};

}  // namespace ecodb::sched

#endif  // ECODB_SCHED_BATCHING_H_
