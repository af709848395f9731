// Morsel-driven worker pool: the engine's parallel execution substrate.
//
// A WorkerPool owns `parallelism - 1` long-lived threads; the thread that
// calls Run() participates as worker slot 0, so a pool of parallelism 1
// degenerates to inline serial execution with zero thread hops. Tasks are
// claimed morsel-driven (Leis et al., SIGMOD 2014): workers pull the next
// task index from a shared atomic ticket, so skew in per-morsel work
// self-balances without any static partitioning.
//
// Accounting discipline: workers never touch the ExecContext. They only
// produce batches (and count their rows) into per-task or per-slot state;
// the coordinator charges from those after Run() returns. There are no
// hot-path atomics besides the task ticket and no data races — the pool is
// the only cross-thread rendezvous, and its mutex/condition-variable
// handshake publishes all task effects to the coordinator (TSan-clean by
// construction).

#ifndef ECODB_EXEC_WORKER_POOL_H_
#define ECODB_EXEC_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace ecodb::exec {

class WorkerPool {
 public:
  /// A pool executing up to `parallelism` tasks concurrently (the caller's
  /// thread plus `parallelism - 1` pool threads). parallelism >= 1.
  explicit WorkerPool(int parallelism);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int parallelism() const { return parallelism_; }

  /// fn(task_index, worker_slot): worker_slot is in [0, parallelism) and is
  /// stable for the duration of one Run, so fn may use it to index
  /// per-worker state (row counts, partial tables) without locking.
  using Task = std::function<Status(size_t task_index, int worker_slot)>;

  /// Runs tasks 0..num_tasks-1 across the pool and the calling thread;
  /// blocks until every claimed task finished. Returns the first non-OK
  /// status (remaining unclaimed tasks are then skipped). Not reentrant:
  /// one Run at a time per pool.
  Status Run(size_t num_tasks, const Task& fn);

 private:
  void ClaimLoop(int slot);

  const int parallelism_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t job_seq_ = 0;       // bumped per Run; wakes the workers
  size_t participants_done_ = 0;
  bool shutdown_ = false;
  Status first_error_;

  // Current job; written under mu_ before the wake, read lock-free by
  // workers whose wake-up acquire orders them after the writes.
  const Task* task_ = nullptr;
  size_t num_tasks_ = 0;
  std::atomic<size_t> next_task_{0};
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_WORKER_POOL_H_
