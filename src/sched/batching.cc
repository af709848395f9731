#include "sched/batching.h"

namespace ecodb::sched {

BatchingScheduler::BatchingScheduler(sim::EventQueue* events,
                                     BatchingConfig config)
    : events_(events), config_(config) {}

void BatchingScheduler::Submit(Work work) {
  queue_.push_back(Pending{events_->clock()->now(), std::move(work)});
  if (config_.window_s <= 0.0) {
    Dispatch();
    return;
  }
  if (window_timer_ == 0) {
    window_timer_ = events_->ScheduleAfter(config_.window_s, [this] {
      window_timer_ = 0;
      Dispatch();
    });
  }
}

void BatchingScheduler::Dispatch() {
  if (queue_.empty()) return;
  ++batches_;
  while (!queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    const double done = p.work();
    // The batching scheduler owns the simulation clock between queries; the
    // dispatched work items settle their own charges.
    events_->clock()->AdvanceTo(done);  // NOLINT-ECODB(EC1)
    latency_.Add(done - p.arrival);
  }
}

}  // namespace ecodb::sched
