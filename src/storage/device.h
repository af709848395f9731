// StorageDevice: the behavioural interface of simulated storage hardware.
//
// Devices serialize requests on their own timeline (`busy_until`), translate
// byte counts into simulated service time using their power/performance
// specs, and charge the EnergyMeter: a continuous background level for the
// current power state plus active-energy pulses per request. Power-state
// control (spin-down / spin-up) is exposed so the consolidation scheduler
// (Section 4.2 of the paper) can manage it.

#ifndef ECODB_STORAGE_DEVICE_H_
#define ECODB_STORAGE_DEVICE_H_

#include <cstdint>
#include <string>

#include "power/energy_meter.h"
#include "util/status.h"

namespace ecodb::storage {

/// Result of one submitted I/O. Besides the timeline fields, an IoResult
/// carries fault observability: how many transient errors were retried on
/// the way to success, the simulated time and Joules those retries cost,
/// and (for arrays in degraded mode) the XOR-reconstruction work performed.
/// Layers that forward I/O (arrays, decorators, the buffer pool) accumulate
/// these fields so ExecContext can surface them in QueryStats.
struct IoResult {
  double start_time = 0.0;       // when the device began servicing
  double completion_time = 0.0;  // when the data was fully transferred
  double service_seconds = 0.0;  // completion - start
  /// Active-energy pulses this request booked on the meter, summed across
  /// every layer and every attempt (leaf transfers, failed retries that
  /// really occupied the device). Lets the serving core bill device
  /// energy to the session that submitted the I/O; background/idle levels
  /// and spin-up pulses are intentionally excluded (they belong to
  /// the shared window, not to one request).
  double active_joules = 0.0;

  // --- Fault accounting (zero on the happy path) ---
  uint32_t transient_errors = 0;       // retried-then-succeeded attempts
  double retry_seconds = 0.0;          // simulated time spent on retries
  double retry_joules = 0.0;           // energy charged for retried attempts
  uint32_t degraded_reads = 0;         // requests served via reconstruction
  double reconstruct_instructions = 0.0;  // XOR instructions (observability)
  double reconstruct_joules = 0.0;     // energy charged for XOR work

  /// Folds another result's fault counters into this one (timeline fields
  /// are left to the caller, which knows the composition semantics).
  void AccumulateFaults(const IoResult& other) {
    active_joules += other.active_joules;
    transient_errors += other.transient_errors;
    retry_seconds += other.retry_seconds;
    retry_joules += other.retry_joules;
    degraded_reads += other.degraded_reads;
    reconstruct_instructions += other.reconstruct_instructions;
    reconstruct_joules += other.reconstruct_joules;
  }
};

/// Abstract simulated storage device.
class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  /// Submits a read of `bytes`. The device starts no earlier than
  /// `earliest_start` and no earlier than its previous request's completion.
  /// `sequential` requests skip positioning costs after the first access.
  /// Errors: kUnavailable for a transient failure that exhausted its retry
  /// budget; kDataLoss for a permanently failed device (or an array that
  /// lost more members than its redundancy covers).
  virtual StatusOr<IoResult> SubmitRead(double earliest_start, uint64_t bytes,
                                        bool sequential) = 0;

  /// Submits a write (same queueing semantics and error contract).
  virtual StatusOr<IoResult> SubmitWrite(double earliest_start, uint64_t bytes,
                                         bool sequential) = 0;

  /// Completion time of the last accepted request.
  virtual double busy_until() const = 0;

  /// Requests a transition to the low-power state at time `t` (>= busy
  /// time). No-op for devices without such a state.
  virtual void PowerDown(double t) = 0;

  /// Requests a wake-up beginning at time `t`; subsequent I/O waits for the
  /// transition if the device was sleeping.
  virtual void PowerUp(double t) = 0;

  /// True if the device is currently in its low-power state.
  virtual bool IsPoweredDown() const = 0;

  /// Idle Watts the device would save per second while powered down.
  virtual double StandbySavingsWatts() const = 0;

  /// Minimum idle period for which PowerDown saves energy.
  virtual double BreakEvenIdleSeconds() const = 0;

  virtual const std::string& name() const = 0;

  /// Meter channel carrying this device's energy.
  virtual power::ChannelId channel() const = 0;

  /// Predicted service time of a random read of `bytes`, with the device in
  /// its current power state and otherwise idle. Used by the optimizer's
  /// cost model and the energy-aware buffer replacement policy.
  virtual double EstimateReadSeconds(uint64_t bytes) const = 0;

  /// Predicted energy of that read (active power x service time, plus any
  /// wake-up energy the current state implies).
  virtual double EstimateReadJoules(uint64_t bytes) const = 0;
};

}  // namespace ecodb::storage

#endif  // ECODB_STORAGE_DEVICE_H_
