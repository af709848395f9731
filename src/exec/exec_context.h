// ExecContext: per-query resource accounting against the platform.
//
// Operators report their work here in device-neutral units (abstract CPU
// instructions, bytes of device I/O, bytes of DRAM traffic). The context
// converts work into simulated time using the platform's models, tracks the
// query's critical path (CPU and I/O overlap, as in the paper's Figure 2:
// "By overlapping disk with CPU time, the total time is 10 secs"), and on
// Finish() advances the simulated clock and settles energy charges.

#ifndef ECODB_EXEC_EXEC_CONTEXT_H_
#define ECODB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/cancel.h"
#include "exec/worker_pool.h"
#include "power/platform.h"
#include "storage/device.h"
#include "util/status.h"

namespace ecodb::storage {
class TableStorage;  // shared-scan waivers key on the table identity only
}  // namespace ecodb::storage

namespace ecodb::exec {

/// Per-query execution knobs (the optimizer sets dop and P-state on the
/// plan). optimizer::CostModel prices with the same options the engine
/// bills with, so morsel_rows and decode_scale reach price and bill alike.
struct ExecOptions {
  int dop = 1;      // degree of parallelism for CPU work
  int pstate = 0;   // CPU DVFS state to run at
  size_t batch_rows = 4096;
  /// Target rows per parallel-scan morsel; rounded up to whole zone-map
  /// blocks so morsel boundaries never split a block. A sort forms one run
  /// per morsel, so this sets its run count; it never changes results.
  size_t morsel_rows = 16384;
  /// Multiplier applied to codec decode instruction counts (calibration
  /// hook for matching measured decode rates).
  double decode_scale = 1.0;
};

/// InvalidArgument unless `options` can run on `cpu`: dop >= 1, batch_rows
/// >= 1 (a zero-row batch never advances a pull loop), a P-state in
/// [0, cpu.num_pstates()) and a finite decode_scale >= 0 (a negative one
/// would bill negative instructions). EcoDb::Open, the serving ValidateConfig,
/// tpch::RunThroughputTest and Planner::PricePlan (for a plan's dop and
/// P-state) check what their callers pass here; ExecContext only asserts.
Status ValidateExecOptions(const ExecOptions& options,
                           const power::CpuPowerModel& cpu);

/// Fault-path accounting surfaced per query: what the retries and degraded
/// reconstruction cost on top of the healthy plan. Populated from the
/// IoResult fields the device stack accumulates (coordinator-only, in
/// deterministic submission order — bit-identical at any dop).
struct FaultSummary {
  uint32_t transient_errors = 0;
  uint32_t degraded_reads = 0;
  double retry_seconds = 0.0;
  double retry_joules = 0.0;
  double reconstruct_instructions = 0.0;
  double reconstruct_joules = 0.0;

  void Accumulate(const storage::IoResult& io) {
    transient_errors += io.transient_errors;
    degraded_reads += io.degraded_reads;
    retry_seconds += io.retry_seconds;
    retry_joules += io.retry_joules;
    reconstruct_instructions += io.reconstruct_instructions;
    reconstruct_joules += io.reconstruct_joules;
  }
};

/// Identity of the serving-core session a query runs under. Every charge an
/// ExecContext books is attributable to this tag, which is what makes the
/// per-tenant energy bill possible (DESIGN.md §12). Outside the serving
/// core the tag stays invalid and nothing changes.
struct SessionTag {
  int64_t session_id = -1;
  int tenant_id = -1;
  bool valid() const { return session_id >= 0; }
};

/// Measured resource use of one query.
struct QueryStats {
  double start_time = 0.0;
  double end_time = 0.0;
  double elapsed_seconds = 0.0;
  double cpu_seconds = 0.0;       // busy core-seconds (not divided by dop)
  double cpu_elapsed_seconds = 0.0;  // CPU critical path (Amdahl: serial +
                                     // parallel / cores)
  double cpu_instructions = 0.0;  // abstract instructions charged (total)
  double cpu_serial_seconds = 0.0;  // portion of cpu_seconds confined to one
                                    // core regardless of dop
  int active_cores = 1;           // cores the query actually occupied
  double io_seconds = 0.0;        // device service time observed
  uint64_t io_bytes = 0;
  uint64_t rows_emitted = 0;
  power::EnergyBreakdown energy;  // per-channel Joules over the query window
  FaultSummary faults;            // retry/degraded-mode cost of this query

  // --- Directly attributable Joules (meter pulses this query caused) ---
  double cpu_active_joules = 0.0;  // CPU settlement pulse (0 until settled)
  double dram_joules = 0.0;        // DRAM traffic pulses
  double io_active_joules = 0.0;   // device pulses, failed attempts included

  /// Pulses the query provably placed on the meter: CPU + DRAM + device
  /// active energy + XOR reconstruction. Excludes background/idle power
  /// (apportioned by the serving core) and excludes faults.retry_joules,
  /// which is an estimate already covered by the real failed-attempt pulses
  /// inside io_active_joules.
  double DirectJoules() const {
    return cpu_active_joules + dram_joules + io_active_joules +
           faults.reconstruct_joules;
  }

  double Joules() const { return energy.it_joules; }
  /// Energy efficiency in the paper's sense: rows of useful output per
  /// Joule (callers with a better work measure can divide themselves).
  double RowsPerJoule() const {
    return Joules() > 0 ? static_cast<double>(rows_emitted) / Joules() : 0.0;
  }
};

class ExecContext {
 public:
  /// `platform` must outlive the context. Construction snapshots the meter
  /// and pins the query start time.
  ExecContext(power::HardwarePlatform* platform, ExecOptions options);

  /// Serving-core constructor: binds the charge stream to `session` and
  /// pins the query start to `start_time` (the admission instant; the
  /// simulated clock is advanced there if it lags). Only the SessionManager
  /// constructs contexts this way — ecodb-lint rule EC7 enforces that
  /// serving paths never build an anonymous context.
  ExecContext(power::HardwarePlatform* platform, ExecOptions options,
              SessionTag session, double start_time);

  const ExecOptions& options() const { return options_; }
  power::HardwarePlatform* platform() { return platform_; }

  // --- Cooperative cancellation (overload protection, DESIGN §14) -------

  /// Installs the session's deadline. The serving core sets this at
  /// admission.
  void set_cancel_token(const CancelToken& token) { cancel_ = token; }

  /// Cooperative cancellation check, called by every operator pull loop at
  /// batch/morsel boundaries (lint rule EC11). Returns kDeadlineExceeded
  /// when the query's projected critical path — start + virtual CPU seconds
  /// vs. I/O completion, both pure functions of the charged work — has
  /// reached the deadline. Charges only add to the projection, so once a
  /// poll fails every later poll fails too. The projection deliberately
  /// ignores the dop (VirtualCpuSeconds), so the kill lands at the same
  /// batch boundary at every dop and killed sessions stay bit-identical
  /// under the §7 contract. Charges already booked stay booked: partial
  /// work is billed work.
  Status PollCancel() const;

  /// The dop-invariant CPU leg of the critical path: all charged
  /// instructions priced on one core (serial + parallel, undivided). This
  /// is the serving core's scheduling/billing timeline (§14) and the
  /// deadline projection's clock.
  double VirtualCpuSeconds() const;

  /// Records `instructions` of CPU work (parallelizable across dop cores).
  void ChargeInstructions(double instructions);

  /// Records CPU work confined to one core regardless of dop (the sort
  /// merge's partition stitching; its splitter selection also runs on the
  /// coordinator but is not billed). Amdahl's law on the
  /// critical path: cpu_elapsed = serial + parallel / cores, while busy
  /// core-seconds — and so active CPU energy — cover both terms in full.
  /// Mirrors the cost model's ResourceEstimate::serial_cpu_instructions.
  void ChargeSerialInstructions(double instructions);

  /// Submits a device read on behalf of the query; service time joins the
  /// query's I/O critical path. Devices overlap with CPU and each other.
  /// Fault propagation: kUnavailable (retries exhausted) and kDataLoss
  /// (dead device) bubble up; successful retries show in stats().faults.
  Status ChargeRead(storage::StorageDevice* device, uint64_t bytes,
                    bool sequential);

  /// Ditto for writes (spills, materialization).
  Status ChargeWrite(storage::StorageDevice* device, uint64_t bytes,
                     bool sequential);

  /// Records DRAM traffic (hash tables, sort buffers).
  void ChargeDram(uint64_t bytes);

  void CountRows(uint64_t rows) { rows_emitted_ += rows; }

  /// The query's worker pool, sized to min(dop, total cores). Created
  /// lazily on first use; dop 1 never spawns a thread.
  WorkerPool* worker_pool();

  /// Serving core: reuse one fleet-owned WorkerPool across sessions instead
  /// of spawning per-query threads. Charges are unaffected (all modeled
  /// work is computed from dop-invariant totals); only thread reuse changes.
  void UseSharedWorkerPool(WorkerPool* pool) { shared_pool_ = pool; }

  // --- Shared-scan waivers (work sharing across sessions) ---------------

  /// Registers a waiver: this query's scan of `table` rides another
  /// session's device transfer that is ready at `ready_time`. The table
  /// scan consumes the waiver instead of charging the device; the paying
  /// session billed the transfer through its own context.
  void StageSharedScan(const storage::TableStorage* table, double ready_time);

  /// Consumes a staged waiver for `table` if present; `*ready_time` gets
  /// the shared transfer's availability instant. Returns false (leaving
  /// `ready_time` untouched) when the scan must pay its own way.
  bool ConsumeSharedScan(const storage::TableStorage* table,
                         double* ready_time);

  /// Joins an externally produced data-availability instant into the
  /// query's I/O critical path (used by consumed shared-scan waivers).
  void JoinIoCompletion(double completion_time);

  /// Latest I/O completion observed so far (valid any time; the serving
  /// core reports it as the shared transfer's completion).
  double io_completion() const { return io_completion_; }

  /// Elapsed CPU wall-seconds implied by the charged instructions at the
  /// configured dop/P-state: serial charges do not divide by the core
  /// count. Serving-core contexts (valid session tag) instead price every
  /// instruction on one core — the §14 determinism choice: the serving
  /// schedule, and therefore every bill, is identical at any dop.
  double CpuElapsedSeconds() const;

  /// Ends the query: advances the clock to the critical-path completion,
  /// settles CPU energy, and returns the stats (meter delta included).
  /// Equivalent to Complete() + SettleCpu() + clock advance + meter delta.
  QueryStats Finish();

  /// Serving-core split of Finish(): computes the stats (critical path, end
  /// time, direct DRAM/I-O Joules) WITHOUT touching the meter or the clock.
  /// The SessionManager completes overlapping sessions as they run, then
  /// settles their CPU pulses in end-time order so the meter's per-channel
  /// monotonicity holds.
  QueryStats Complete();

  /// Books the CPU settlement pulse for a Complete()d query and records the
  /// charged Joules in stats->cpu_active_joules.
  void SettleCpu(QueryStats* stats);

 private:
  power::HardwarePlatform* platform_;
  ExecOptions options_;
  SessionTag session_;
  CancelToken cancel_;
  double start_time_;
  power::MeterSnapshot start_snapshot_;
  double cpu_instructions_ = 0.0;
  double serial_cpu_instructions_ = 0.0;
  double io_completion_ = 0.0;
  double io_service_seconds_ = 0.0;
  uint64_t io_bytes_ = 0;
  double dram_joules_ = 0.0;
  double io_active_joules_ = 0.0;
  FaultSummary faults_;
  uint64_t rows_emitted_ = 0;
  std::map<const storage::TableStorage*, double> staged_scans_;
  std::unique_ptr<WorkerPool> pool_;
  WorkerPool* shared_pool_ = nullptr;
  bool finished_ = false;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_EXEC_CONTEXT_H_
