#include "sched/session.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "exec/scan.h"
#include "exec/worker_pool.h"
#include "sim/event_queue.h"
#include "util/fnv1a.h"

namespace ecodb::sched {

namespace {

/// Release order out of the admission gate: priority class first (0 = most
/// urgent), then trace order. Total order -> deterministic admission.
struct ReadyKey {
  int priority = 0;
  uint64_t index = 0;
  bool operator<(const ReadyKey& o) const {
    if (priority != o.priority) return priority < o.priority;
    return index < o.index;
  }
};

Status ValidateConfig(const ServingConfig& config,
                      const power::CpuPowerModel& cpu) {
  if (config.worker_fleet < 1) {
    return Status::InvalidArgument("worker_fleet must be >= 1");
  }
  if (!(config.batching.window_s >= 0.0)) {
    return Status::InvalidArgument("batching window must be >= 0 s");
  }
  if (!(config.share_window_s >= 0.0)) {
    return Status::InvalidArgument("share window must be >= 0 s");
  }
  ECODB_RETURN_IF_ERROR(exec::ValidateExecOptions(config.exec_options, cpu));
  const OverloadConfig& ol = config.overload;
  if (!(ol.relative_deadline_s > 0.0)) {
    return Status::InvalidArgument("relative deadline must be > 0 s");
  }
  if (ol.max_queue_depth < 1) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (ol.per_tenant_inflight < 1) {
    return Status::InvalidArgument("per_tenant_inflight must be >= 1");
  }
  if (!(ol.queue_slo_s > 0.0)) {
    return Status::InvalidArgument("queue SLO must be > 0 s");
  }
  return power::PowerCapGovernor::Validate(ol.power_cap,
                                           config.worker_fleet);
}

}  // namespace

SessionManager::SessionManager(power::HardwarePlatform* platform,
                               ServingConfig config)
    : platform_(platform), config_(config) {}

StatusOr<ServingReport> SessionManager::Serve(const sim::ArrivalTrace& trace,
                                              const QueryFactory& factory) {
  ECODB_RETURN_IF_ERROR(ValidateConfig(config_, platform_->cpu()));

  sim::SimClock* clock = platform_->clock();
  const double t0 = clock->now();
  const power::MeterSnapshot window_start =
      platform_->meter()->Snapshot();  // NOLINT-ECODB(EC1)

  sim::EventQueue events(clock);
  BatchingScheduler gate(&events, config_.batching);
  std::unique_ptr<SharedScanManager> sharing;
  if (config_.share_window_s > 0.0) {
    sharing =
        std::make_unique<SharedScanManager>(clock, config_.share_window_s);
  }
  std::unique_ptr<power::PowerCapGovernor> governor;
  if (config_.overload.power_cap.enabled) {
    governor = std::make_unique<power::PowerCapGovernor>(
        config_.overload.power_cap, config_.worker_fleet);
  }
  // One fleet-owned pool reused by every session; a dop-1 pool spawns no
  // threads, so the single-slot configuration stays serial and cheap.
  exec::WorkerPool fleet(
      std::min(config_.exec_options.dop, platform_->cpu().total_cores()));

  const OverloadConfig& ol = config_.overload;
  const auto DeadlineFor = [&](const sim::TraceRequest& req) {
    return std::isinf(ol.relative_deadline_s)
               ? std::numeric_limits<double>::infinity()
               : t0 + req.arrival_s + ol.relative_deadline_s;
  };

  /// Every trace request ends in exactly one Decision: executed (possibly
  /// killed mid-run) or refused at release. Appended in decision order on
  /// the simulated timeline; the report preserves this order.
  struct Decision {
    const sim::TraceRequest* req = nullptr;
    SessionTerminal terminal = SessionTerminal::kCompleted;
    ShedCause cause = ShedCause::kNone;
    double decision_s = 0.0;  // admit instant (or shed/evict instant)
    double deadline_s = std::numeric_limits<double>::infinity();
    bool executed = false;
    exec::QueryStats stats;  // all-zero for refused sessions
    bool shared_scan = false;
    std::unique_ptr<exec::ExecContext> ctx;
  };
  std::vector<Decision> decisions;
  decisions.reserve(trace.requests.size());

  // The fixed fleet: each slot runs one session at a time; a session takes
  // the earliest-free slot. Admissions therefore proceed in nondecreasing
  // admit-time order, which keeps every meter channel's event timeline
  // monotonic (devices additionally serialize on their own busy horizon).
  // Under power-cap fleet narrowing only the first `regime.fleet` slots
  // grant admissions.
  std::vector<double> slot_free(static_cast<size_t>(config_.worker_fleet), t0);
  std::set<ReadyKey> ready;

  // Completed-session service times feed the queue-time projection.
  uint64_t completed_runs = 0;
  double service_seconds_sum = 0.0;

  const auto Refuse = [&](const sim::TraceRequest& req,
                          SessionTerminal terminal, ShedCause cause,
                          double now) {
    Decision dec;
    dec.req = &req;
    dec.terminal = terminal;
    dec.cause = cause;
    dec.decision_s = now;
    dec.deadline_s = DeadlineFor(req);
    decisions.push_back(std::move(dec));
  };

  const auto ActiveFleet = [&]() {
    return governor != nullptr ? governor->regime().fleet
                               : config_.worker_fleet;
  };

  /// Projected queue time for a release at `now`: assign every queued
  /// request that would pop before it to the earliest active slot, each
  /// taking the running mean completed service time, then read off when
  /// the new request would reach a slot. Pure arithmetic over deterministic
  /// state — replay reproduces every projection bit-identically.
  const auto ProjectedQueueSeconds = [&](const ReadyKey& key, double now) {
    const int fleet_now = ActiveFleet();
    std::vector<double> frees(slot_free.begin(),
                              slot_free.begin() + fleet_now);
    for (double& f : frees) f = std::max(f, now);
    const double mean_service =
        completed_runs > 0
            ? service_seconds_sum / static_cast<double>(completed_runs)
            : 0.0;
    for (const ReadyKey& ahead : ready) {
      if (!(ahead < key)) break;  // set iterates in pop order
      *std::min_element(frees.begin(), frees.end()) += mean_service;
    }
    return *std::min_element(frees.begin(), frees.end()) - now;
  };

  const auto TenantInFlight = [&](int tenant_id, double now) {
    int count = 0;
    for (const ReadyKey& q : ready) {
      if (trace.requests[q.index].tenant_id == tenant_id) ++count;
    }
    for (const Decision& dec : decisions) {
      if (dec.executed && dec.req->tenant_id == tenant_id &&
          dec.stats.end_time > now) {
        ++count;
      }
    }
    return count;
  };

  /// Admission backpressure, applied when the gate releases a request:
  /// power-cap shed regime, then the tenant in-flight cap, then the
  /// queue-time SLO projection, then the bounded queue (where a
  /// higher-priority arrival evicts the lowest-priority queued loser).
  /// Refusals are decided here, at arrival, where they cost nothing — the
  /// whole point of backpressure over in-flight kills.
  const auto Release = [&](const sim::TraceRequest& req) {
    const double now = clock->now();
    if (governor != nullptr && governor->Observe(now).shed_new) {
      Refuse(req, SessionTerminal::kShed, ShedCause::kPowerCap, now);
      return;
    }
    if (TenantInFlight(req.tenant_id, now) >= ol.per_tenant_inflight) {
      Refuse(req, SessionTerminal::kShed, ShedCause::kTenantCap, now);
      return;
    }
    const ReadyKey key{req.priority, req.index};
    if (ProjectedQueueSeconds(key, now) > ol.queue_slo_s) {
      Refuse(req, SessionTerminal::kShed, ShedCause::kQueueSlo, now);
      return;
    }
    if (ready.size() >= ol.max_queue_depth) {
      const ReadyKey worst = *ready.rbegin();
      if (key < worst) {
        ready.erase(std::prev(ready.end()));
        Refuse(trace.requests[worst.index], SessionTerminal::kEvicted,
               ShedCause::kQueueFull, now);
      } else {
        Refuse(req, SessionTerminal::kShed, ShedCause::kQueueFull, now);
        return;
      }
    }
    ready.insert(key);
  };

  // Arrivals flow trace event -> admission gate -> backpressure -> ready
  // set. The gate may consolidate releases in time (batching); within a
  // release the ready set orders by priority class, then trace order.
  for (const sim::TraceRequest& req : trace.requests) {
    events.ScheduleAt(t0 + req.arrival_s, [&gate, &Release, &req, clock] {
      gate.Submit([&Release, &req, clock] {
        Release(req);
        // Release is instantaneous; the session bills its own work later.
        return clock->now();
      });
    });
  }

  while (decisions.size() < trace.requests.size()) {
    const int fleet_now = ActiveFleet();
    size_t slot = 0;
    for (size_t s = 1; s < static_cast<size_t>(fleet_now); ++s) {
      if (slot_free[s] < slot_free[slot]) slot = s;
    }
    events.RunUntil(std::max(slot_free[slot], clock->now()));
    if (decisions.size() >= trace.requests.size()) break;  // all refused
    if (ready.empty()) {
      // Nothing released yet: fast-forward to the next arrival/gate event.
      const double t_next = events.NextEventTime(-1.0);
      if (t_next < 0.0) {
        return Status::Internal(
            "serving stalled: requests remain but no arrival or gate event "
            "is pending");
      }
      events.RunUntil(t_next);
      continue;
    }
    const ReadyKey key = *ready.begin();
    ready.erase(ready.begin());
    const sim::TraceRequest& req = trace.requests[key.index];
    const double admit_s = std::max(slot_free[slot], clock->now());

    // Queue-SLO backstop: the release-time projection sheds most SLO
    // violators cheaply at arrival, but it is an estimate. A request whose
    // *actual* queue time has already blown the SLO when a slot finally
    // frees is shed here instead of admitted late — so every session that
    // runs was admitted within its SLO, by construction.
    if (admit_s - (t0 + req.arrival_s) > ol.queue_slo_s) {
      Refuse(req, SessionTerminal::kShed, ShedCause::kQueueSlo, admit_s);
      continue;
    }

    Decision dec;
    dec.req = &req;
    dec.executed = true;
    dec.decision_s = admit_s;
    dec.deadline_s = DeadlineFor(req);

    // The admitted session runs under the regime in force at its admission
    // instant: the governor may push it to a slower, more efficient
    // P-state before it ever sheds work.
    exec::ExecOptions session_options = config_.exec_options;
    if (governor != nullptr) {
      const power::GovernorRegime regime = governor->Observe(dec.decision_s);
      session_options.pstate =
          std::min(session_options.pstate + regime.pstate_delta,
                   platform_->cpu().num_pstates() - 1);
    }

    // Every serving-path context carries the session identity (rule EC7):
    // anonymous contexts cannot be billed.
    dec.ctx = std::make_unique<exec::ExecContext>(
        platform_, session_options,
        exec::SessionTag{static_cast<int64_t>(req.index), req.tenant_id},
        dec.decision_s);
    dec.ctx->UseSharedWorkerPool(&fleet);
    exec::CancelToken token;
    token.deadline_s = dec.deadline_s;
    dec.ctx->set_cancel_token(token);

    ECODB_ASSIGN_OR_RETURN(PlannedQuery pq, factory(req));
    std::vector<const storage::TableStorage*> owned_tables;
    if (sharing != nullptr) {
      for (const ScanRequest& scan : pq.scans) {
        if (scan.table == nullptr) continue;
        ECODB_ASSIGN_OR_RETURN(const ScanTicket ticket,
                               sharing->AdmitScan(*scan.table, scan.columns));
        if (ticket.shared) {
          dec.ctx->StageSharedScan(scan.table, ticket.ready_time);
          dec.shared_scan = true;
        } else {
          owned_tables.push_back(scan.table);
        }
      }
    }

    StatusOr<exec::QueryResultSet> rows =
        exec::CollectAll(pq.root.get(), dec.ctx.get());
    if (rows.ok()) {
      dec.terminal = SessionTerminal::kCompleted;
    } else if (rows.status().code() == StatusCode::kDeadlineExceeded) {
      // Cooperative kill: the operators stopped at a poll boundary; the
      // work already charged stays on this session's bill.
      dec.terminal = SessionTerminal::kDeadline;
    } else {
      return rows.status();
    }
    dec.stats = dec.ctx->Complete();
    for (const storage::TableStorage* table : owned_tables) {
      // This session paid for the transfer (in part, if it was killed
      // mid-flight); followers inside the share window wait for whatever
      // the device actually completed — the transfer is billed exactly
      // once either way.
      sharing->CompleteTransfer(*table, dec.ctx->io_completion());
    }
    slot_free[slot] = dec.stats.end_time;
    if (dec.terminal == SessionTerminal::kCompleted) {
      ++completed_runs;
      service_seconds_sum += dec.stats.end_time - dec.decision_s;
    }
    if (governor != nullptr) {
      // The governor watches the windowed rate of billed Joules — the same
      // quantity the bills settle — so its ladder is as deterministic and
      // dop-invariant as the bills themselves.
      governor->RecordEnergy(dec.stats.end_time, dec.stats.DirectJoules());
    }
    decisions.push_back(std::move(dec));
  }

  // Drain leftover gate timers (they dispatch empty queues and may still
  // refuse late releases against a full ladder).
  events.RunAll();

  // Settle CPU pulses in completion order: during serving the CPU channel
  // receives only these settlement pulses, so ordering by end time keeps
  // its event timeline monotonic even though sessions overlap.
  std::vector<size_t> settle_order;
  settle_order.reserve(decisions.size());
  for (size_t i = 0; i < decisions.size(); ++i) {
    if (decisions[i].executed) settle_order.push_back(i);
  }
  std::sort(settle_order.begin(), settle_order.end(), [&](size_t a, size_t b) {
    if (decisions[a].stats.end_time != decisions[b].stats.end_time) {
      return decisions[a].stats.end_time < decisions[b].stats.end_time;
    }
    return a < b;
  });
  double horizon = clock->now();
  for (size_t i : settle_order) {
    decisions[i].ctx->SettleCpu(&decisions[i].stats);
    horizon = std::max(horizon, decisions[i].stats.end_time);
  }
  // Close the window at the last completion so background power accrues
  // over the full serving interval.
  clock->AdvanceTo(horizon);  // NOLINT-ECODB(EC1)

  ServingReport report;
  report.window_start_s = t0;
  report.window_end_s = clock->now();
  report.energy = platform_->BreakdownBetween(
      window_start, platform_->meter()->Snapshot());  // NOLINT-ECODB(EC1)
  report.total_joules = report.energy.it_joules;

  // Background residual: whatever the meter integrated beyond the direct
  // pulses (idle floors, chassis, DRAM refresh). Apportioned by in-flight
  // seconds; the float remainder folds into the last-settled session that
  // did timed work, so billed == metered exactly. When nothing ran (every
  // request shed before execution) the residual splits equally across the
  // refused sessions — a shed request still carries its share of keeping
  // the box on.
  double direct_total = 0.0;
  double weight_total = 0.0;
  for (const Decision& dec : decisions) {
    direct_total += dec.stats.DirectJoules();
    weight_total += dec.stats.elapsed_seconds;
  }
  const double residual = report.total_joules - direct_total;
  std::vector<double> background(decisions.size(), 0.0);
  if (!decisions.empty()) {
    size_t fold = decisions.size() - 1;  // all-refused fallback
    if (weight_total > 0.0) {
      for (size_t i : settle_order) {
        if (decisions[i].stats.elapsed_seconds > 0.0) fold = i;
      }
    }
    double apportioned = 0.0;
    for (size_t i = 0; i < decisions.size(); ++i) {
      if (i == fold) continue;
      const double share =
          weight_total > 0.0
              ? residual * decisions[i].stats.elapsed_seconds / weight_total
              : residual / static_cast<double>(decisions.size());
      background[i] = share;
      apportioned += share;
    }
    background[fold] = residual - apportioned;
  }

  report.sessions.reserve(decisions.size());
  std::map<int, TenantBill> tenants;
  uint64_t fp = 1469598103934665603ULL;
  for (size_t i = 0; i < decisions.size(); ++i) {
    const Decision& dec = decisions[i];
    SessionBill bill;
    bill.session_id = dec.req->index;
    bill.tenant_id = dec.req->tenant_id;
    bill.priority = dec.req->priority;
    bill.query_class = dec.req->query_class;
    bill.arrival_s = t0 + dec.req->arrival_s;
    bill.admit_s = dec.decision_s;
    bill.end_s = dec.executed ? dec.stats.end_time : dec.decision_s;
    bill.queue_seconds = bill.admit_s - bill.arrival_s;
    bill.deadline_s = dec.deadline_s;
    bill.terminal = dec.terminal;
    bill.shed_cause = dec.cause;
    bill.cpu_joules = dec.stats.cpu_active_joules;
    bill.dram_joules = dec.stats.dram_joules;
    bill.io_joules = dec.stats.io_active_joules;
    bill.fault_joules = dec.stats.faults.reconstruct_joules;
    bill.background_joules = background[i];
    bill.retry_joules = dec.stats.faults.retry_joules;
    bill.transient_errors = dec.stats.faults.transient_errors;
    bill.degraded_reads = dec.stats.faults.degraded_reads;
    bill.rows_emitted = dec.stats.rows_emitted;
    bill.shared_scan = dec.shared_scan;

    fp = Fnv1a(fp, bill.session_id);
    fp = Fnv1a(fp, static_cast<uint64_t>(static_cast<int64_t>(bill.tenant_id)));
    fp = Fnv1a(fp, std::bit_cast<uint64_t>(bill.admit_s));
    fp = Fnv1a(fp, std::bit_cast<uint64_t>(bill.end_s));
    fp = Fnv1a(fp, static_cast<uint64_t>(bill.terminal));
    fp = Fnv1a(fp, static_cast<uint64_t>(bill.shed_cause));

    switch (bill.terminal) {
      case SessionTerminal::kCompleted:
        ++report.sessions_completed;
        break;
      case SessionTerminal::kDeadline:
        ++report.sessions_deadline;
        break;
      case SessionTerminal::kShed:
        ++report.sessions_shed;
        break;
      case SessionTerminal::kEvicted:
        ++report.sessions_evicted;
        break;
    }

    TenantBill& tb = tenants[bill.tenant_id];
    tb.tenant_id = bill.tenant_id;
    ++tb.sessions;
    tb.rows_emitted += bill.rows_emitted;
    tb.queue_seconds += bill.queue_seconds;
    tb.cpu_joules += bill.cpu_joules;
    tb.dram_joules += bill.dram_joules;
    tb.io_joules += bill.io_joules;
    tb.fault_joules += bill.fault_joules;
    tb.background_joules += bill.background_joules;

    report.billed_joules += bill.TotalJoules();
    report.sessions.push_back(bill);
  }
  report.admission_fingerprint = fp;
  for (const auto& [id, tb] : tenants) {
    (void)id;
    report.tenants.push_back(tb);
  }
  if (sharing != nullptr) report.shared_scans = sharing->stats();
  report.batches_dispatched = gate.batches_dispatched();
  if (governor != nullptr) report.governor_events = governor->events();
  return report;
}

}  // namespace ecodb::sched
