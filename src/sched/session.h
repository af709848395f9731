// SessionManager: the concurrent multi-session serving core.
//
// Section 4 of the paper frames the server, not the query, as the unit of
// energy accounting: consolidation only pays off when many tenants share one
// metered box. The SessionManager turns EcoDb from a run-one-query facade
// into that box. It admits a seeded arrival trace (sim::ArrivalTrace) through
// the BatchingScheduler onto a fixed worker fleet, lets in-flight sessions
// overlap on the platform's devices, optionally rides scans on each other via
// the SharedScanManager — and bills every Joule the meter integrates to the
// session that caused it (DESIGN.md §12).
//
// Determinism contract: the admission schedule — including every shed,
// eviction, deadline kill, and power-cap regime change — is a pure function
// of (seed, arrival trace, ServingConfig). Replaying the same trace yields
// bit-identical decisions, per-session bills, and totals, at any dop
// (DESIGN.md §14: serving sessions schedule and bill on the
// serial-equivalent timeline).
//
// Conservation contract: sum(per-tenant bills) == the platform meter's
// integral over the serving window, exactly. Direct pulses (CPU settlement,
// DRAM traffic, device transfers, RAID reconstruction) bill the causing
// session; the background/idle residual is apportioned by in-flight time
// with the float remainder folded into the last-settled session that did
// real work, so the books balance by construction. Sessions that were shed,
// evicted, or killed mid-run keep every Joule they consumed on their bill —
// overload protection never un-bills work the meter already integrated.

#ifndef ECODB_SCHED_SESSION_H_
#define ECODB_SCHED_SESSION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "power/platform.h"
#include "power/power_cap.h"
#include "sched/batching.h"
#include "sched/shared_scan.h"
#include "sim/arrival_trace.h"
#include "storage/table_storage.h"
#include "util/status.h"

namespace ecodb::sched {

/// How a session left the serving core.
enum class SessionTerminal {
  kCompleted = 0,  // ran to completion
  kDeadline = 1,   // killed cooperatively when its deadline passed
  kShed = 2,       // refused at release (backpressure or power cap)
  kEvicted = 3,    // pushed out of the bounded queue by a higher priority
};

/// Why a session was refused (kShed / kEvicted terminals).
enum class ShedCause {
  kNone = 0,
  kQueueFull = 1,  // bounded ready queue had no slot it could win
  kQueueSlo = 2,   // projected queue time exceeded the tenant SLO
  kTenantCap = 3,  // tenant already at its in-flight cap
  kPowerCap = 4,   // governor at the top of the degradation ladder
};

/// Overload-protection knobs. The defaults disable every mechanism, so a
/// default OverloadConfig reproduces the unprotected serving core
/// byte-identically.
struct OverloadConfig {
  /// Per-session deadline, relative to arrival (simulated seconds).
  /// Sessions still running past it are killed cooperatively at the next
  /// cancellation poll; partial work stays billed. Infinity disables.
  double relative_deadline_s = std::numeric_limits<double>::infinity();
  /// Bounded ready queue: a release finding the queue full sheds the
  /// lowest-priority loser (the arrival, or an evicted queued session when
  /// the arrival outranks it). SIZE_MAX disables.
  size_t max_queue_depth = SIZE_MAX;
  /// Per-tenant in-flight cap (queued + running). INT32_MAX disables.
  int per_tenant_inflight = INT32_MAX;
  /// Queue-time SLO: a release whose projected queue time exceeds this is
  /// shed at arrival instead of admitted late. Infinity disables.
  double queue_slo_s = std::numeric_limits<double>::infinity();
  /// Power-cap degradation ladder (see power/power_cap.h).
  power::PowerCapConfig power_cap;
};

/// Knobs of the serving core.
struct ServingConfig {
  /// Concurrent admission slots (the fixed worker fleet). Sessions beyond
  /// this queue for the earliest-free slot.
  int worker_fleet = 2;
  /// Admission gate: requests consolidate in time before release.
  BatchingConfig batching;
  /// > 0 enables shared scans: sessions admitted within this window of a
  /// compatible table transfer piggyback on it instead of re-reading.
  double share_window_s = 0.0;
  /// Execution knobs every admitted session runs with.
  exec::ExecOptions exec_options;
  /// Deadlines, backpressure, and power-cap degradation.
  OverloadConfig overload;
};

/// One session's energy bill: every component the meter integrated over the
/// serving window that this session is responsible for.
struct SessionBill {
  uint64_t session_id = 0;  // == the trace request index
  int tenant_id = 0;
  int priority = 0;
  int query_class = 0;

  double arrival_s = 0.0;  // trace arrival (absolute simulated time)
  double admit_s = 0.0;    // admission instant (slot grant; = decision
                           // instant for shed/evicted sessions)
  double end_s = 0.0;      // critical-path completion (or kill/shed instant)
  double queue_seconds = 0.0;  // admit_s - arrival_s
  /// Absolute deadline this session ran under (infinity = none).
  double deadline_s = std::numeric_limits<double>::infinity();

  /// How the session left the serving core, and why it was refused.
  SessionTerminal terminal = SessionTerminal::kCompleted;
  ShedCause shed_cause = ShedCause::kNone;

  // --- The bill (Joules). TotalJoules() terms; mutually exclusive. ---
  double cpu_joules = 0.0;         // CPU settlement pulse
  double dram_joules = 0.0;        // DRAM traffic pulses
  double io_joules = 0.0;          // device pulses, failed attempts included
  double fault_joules = 0.0;       // RAID XOR reconstruction pulses
  double background_joules = 0.0;  // fair share of idle/background power

  // --- Observability (NOT part of TotalJoules) ---
  /// Estimated retry cost, already covered by the real failed-attempt
  /// pulses inside io_joules; kept for fault-path visibility.
  double retry_joules = 0.0;
  uint32_t transient_errors = 0;
  uint32_t degraded_reads = 0;

  uint64_t rows_emitted = 0;
  /// True if any scan of this session rode another session's transfer.
  bool shared_scan = false;

  double TotalJoules() const {
    return cpu_joules + dram_joules + io_joules + fault_joules +
           background_joules;
  }
};

/// Per-tenant aggregation of session bills — the headline artifact.
struct TenantBill {
  int tenant_id = 0;
  uint64_t sessions = 0;
  uint64_t rows_emitted = 0;
  double queue_seconds = 0.0;
  double cpu_joules = 0.0;
  double dram_joules = 0.0;
  double io_joules = 0.0;
  double fault_joules = 0.0;
  double background_joules = 0.0;

  double TotalJoules() const {
    return cpu_joules + dram_joules + io_joules + fault_joules +
           background_joules;
  }
};

/// Everything one Serve() call produced.
struct ServingReport {
  /// Session bills in decision order (admissions and sheds interleave as
  /// they were decided on the simulated timeline).
  std::vector<SessionBill> sessions;
  /// Tenant bills in ascending tenant id.
  std::vector<TenantBill> tenants;

  // --- Overload-protection outcome counts. ---
  uint64_t sessions_completed = 0;
  uint64_t sessions_deadline = 0;
  uint64_t sessions_shed = 0;
  uint64_t sessions_evicted = 0;
  /// Degradation-ladder transitions, in simulated-time order (empty when
  /// the power cap is disabled).
  std::vector<power::GovernorEvent> governor_events;

  double window_start_s = 0.0;
  double window_end_s = 0.0;
  /// Per-channel meter integral over the serving window.
  power::EnergyBreakdown energy;
  /// energy.it_joules — what the wall meter saw.
  double total_joules = 0.0;
  /// Sum of session bills; == total_joules by construction.
  double billed_joules = 0.0;

  SharedScanStats shared_scans;
  size_t batches_dispatched = 0;
  /// FNV-1a over (session_id, tenant, admit bits, end bits, terminal,
  /// shed cause) in decision order; replay determinism is asserted on this.
  uint64_t admission_fingerprint = 0;

  double JoulesPerQuery() const {
    return sessions.empty() ? 0.0
                            : total_joules /
                                  static_cast<double>(sessions.size());
  }
};

/// Admits a seeded arrival trace onto a shared platform and produces the
/// per-session / per-tenant energy bills.
class SessionManager {
 public:
  /// A table scan a planned query will perform — declared up front so the
  /// serving core can route it through the SharedScanManager.
  struct ScanRequest {
    const storage::TableStorage* table = nullptr;
    std::vector<int> columns;  // empty = all
  };

  /// A query the factory planned for one trace request.
  struct PlannedQuery {
    exec::OperatorPtr root;
    std::vector<ScanRequest> scans;
  };

  /// Maps a trace request to an executable plan. Must be deterministic in
  /// the request (replay identity depends on it).
  using QueryFactory =
      std::function<StatusOr<PlannedQuery>(const sim::TraceRequest&)>;

  /// `platform` must outlive the manager.
  SessionManager(power::HardwarePlatform* platform, ServingConfig config);

  /// Runs the whole trace to completion and settles the books. Returns
  /// InvalidArgument for a malformed ServingConfig (worker_fleet < 1,
  /// negative windows, a bad power-cap ladder, ...); an empty trace is
  /// legal and yields an empty report over a zero-length window.
  StatusOr<ServingReport> Serve(const sim::ArrivalTrace& trace,
                                const QueryFactory& factory);

 private:
  power::HardwarePlatform* platform_;
  ServingConfig config_;
};

}  // namespace ecodb::sched

#endif  // ECODB_SCHED_SESSION_H_
