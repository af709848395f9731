// Overload-protection contract tests (DESIGN.md §14).
//
// Three layers under test:
//   * Cooperative cancellation: operators stop at poll boundaries when the
//     session's CancelToken fires; everything charged before the kill stays
//     charged exactly once (the EC4 watermark discipline extends to kills).
//   * The PowerCapGovernor's degradation ladder: deterministic windowed-draw
//     observations, one notch per step, hysteresis on the way down.
//   * The serving core's admission backpressure: validation, deadlines,
//     tenant caps, the queue SLO, the bounded queue with priority eviction,
//     and power-cap shedding — all pure functions of (trace, config), all
//     conserving energy, all dop-invariant.

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ecodb.h"
#include "exec/cancel.h"
#include "exec/exec_context.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "gtest/gtest.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "power/power_cap.h"
#include "sched/session.h"
#include "sim/arrival_trace.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "tpch/generator.h"
#include "tpch/workload.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

// --- Cooperative cancellation at the operator layer --------------------------------

/// A minimal metered rig: proportional platform, one SSD, one table builder.
/// Plain struct (not a fixture) so tests can stand up several identical rigs
/// and compare their deterministic charge streams.
struct ExecRig {
  ExecRig() : platform(power::MakeProportionalPlatform()) {
    ssd = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                               platform->meter());
  }

  std::unique_ptr<storage::TableStorage> MakeOrders(int n) {
    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"cust", DataType::kInt64, 8},
                   Column{"price", DataType::kDouble, 8},
                   Column{"tag", DataType::kString, 4}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd.get());
    std::vector<storage::ColumnData> cols(4);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    cols[2].type = DataType::kDouble;
    cols[3].type = DataType::kString;
    for (int i = 1; i <= n; ++i) {
      cols[0].i64.push_back(i);
      cols[1].i64.push_back(1 + (i % 5));
      cols[2].f64.push_back(i * 10.0);
      cols[3].str.push_back(i % 2 ? "odd" : "even");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::SsdDevice> ssd;
};

TEST(CancelExecTest, DeadlineKillHoldsAtEveryLaterPollAndKeepsCharges) {
  ExecRig rig;
  exec::ExecContext ctx(rig.platform.get(), exec::ExecOptions{});
  EXPECT_TRUE(ctx.PollCancel().ok());

  // A deadline where 2,000 charged instructions project to: the poll passes
  // until the charged work reaches it, then fails at every later poll
  // (charges only move the projection forward).
  const double start = rig.platform->clock()->now();
  exec::CancelToken token;
  token.deadline_s = start + rig.platform->cpu().SecondsForInstructions(
                                 2000.0, /*pstate=*/0);
  ctx.set_cancel_token(token);
  ctx.ChargeInstructions(1000.0);
  EXPECT_TRUE(ctx.PollCancel().ok());
  ctx.ChargeInstructions(1000.0);
  EXPECT_EQ(ctx.PollCancel().code(), StatusCode::kDeadlineExceeded);
  ctx.ChargeInstructions(1000.0);
  EXPECT_EQ(ctx.PollCancel().code(), StatusCode::kDeadlineExceeded);

  // Partial work is real work: the kill does not un-charge anything.
  const exec::QueryStats stats = ctx.Finish();
  EXPECT_DOUBLE_EQ(stats.cpu_instructions, 3000.0);
}

TEST(CancelExecTest, DeadlineAtStartKillsBeforeAnyCharge) {
  ExecRig rig;
  auto table = rig.MakeOrders(1000);
  exec::TableScanOp scan(table.get());
  exec::ExecContext ctx(rig.platform.get(), exec::ExecOptions{});
  exec::CancelToken token;
  token.deadline_s = rig.platform->clock()->now();  // deadline == admission
  ctx.set_cancel_token(token);

  auto result = exec::CollectAll(&scan, &ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const exec::QueryStats stats = ctx.Finish();
  EXPECT_DOUBLE_EQ(stats.cpu_instructions, 0.0);
  EXPECT_EQ(stats.io_bytes, 0u);
  EXPECT_EQ(stats.rows_emitted, 0u);
}

TEST(CancelExecTest, KillMidSpillBillsSpillBytesExactlyOnce) {
  // Identically-constructed rigs: a bare scan (to price the table read
  // alone), and per input a clean external sort and sorts killed mid-flight
  // then retried. The spill watermarks guarantee the retry never re-bills
  // bytes the device already moved, so a killed run's total I/O must exceed
  // the clean run's by exactly one extra table read — nothing more. The
  // inputs are the full sort and a sort limited to k = n rows, whose
  // candidate runs spill over the same 1 KiB budget; each is killed at
  // several points of its clean run.
  constexpr int kRows = 10000;
  uint64_t scan_only_bytes = 0;
  {
    ExecRig rig;
    auto table = rig.MakeOrders(kRows);
    exec::TableScanOp scan(table.get());
    exec::ExecContext ctx(rig.platform.get(), exec::ExecOptions{});
    ASSERT_TRUE(exec::CollectAll(&scan, &ctx).ok());
    scan_only_bytes = ctx.Finish().io_bytes;
    ASSERT_GT(scan_only_bytes, 0u);
  }

  for (const std::optional<size_t> limit :
       {std::optional<size_t>(), std::optional<size_t>(kRows)}) {
    SCOPED_TRACE(limit.has_value() ? "limited sort" : "full sort");
    exec::QueryStats clean;
    {
      ExecRig rig;
      auto table = rig.MakeOrders(kRows);
      exec::SortOp sort(std::make_unique<exec::TableScanOp>(table.get()),
                        {{"id", true}}, /*memory_budget_bytes=*/1024,
                        rig.ssd.get(), limit);
      exec::ExecContext ctx(rig.platform.get(), exec::ExecOptions{});
      auto result = exec::CollectAll(&sort, &ctx);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(sort.spilled());
      clean = ctx.Finish();
      ASSERT_GT(clean.io_bytes, 0u);
    }

    for (const double at : {0.5, 0.7, 0.9, 0.99}) {
      SCOPED_TRACE("deadline at " + std::to_string(at) + " of the clean run");
      ExecRig rig;
      auto table = rig.MakeOrders(kRows);
      exec::SortOp sort(std::make_unique<exec::TableScanOp>(table.get()),
                        {{"id", true}}, /*memory_budget_bytes=*/1024,
                        rig.ssd.get(), limit);
      exec::ExecContext ctx(rig.platform.get(), exec::ExecOptions{});
      exec::CancelToken token;
      token.deadline_s =
          clean.start_time + at * (clean.end_time - clean.start_time);
      ctx.set_cancel_token(token);

      auto killed = exec::CollectAll(&sort, &ctx);
      ASSERT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(sort.spilled());

      // Lift the deadline and retry the same operator on the same context.
      ctx.set_cancel_token(exec::CancelToken{});
      auto retried = exec::CollectAll(&sort, &ctx);
      ASSERT_TRUE(retried.ok());
      EXPECT_EQ(retried->TotalRows(), static_cast<size_t>(kRows));

      // One extra table read; every spill byte written and merged exactly
      // once.
      const exec::QueryStats stats = ctx.Finish();
      EXPECT_EQ(stats.io_bytes, clean.io_bytes + scan_only_bytes);
    }
  }
}

TEST(CancelExecTest, SharedScanFollowerKillLeavesLeaderTransferBilledOnce) {
  ExecRig rig;
  auto table = rig.MakeOrders(5000);

  exec::ExecContext leader(rig.platform.get(), exec::ExecOptions{});
  exec::TableScanOp leader_scan(table.get());
  ASSERT_TRUE(exec::CollectAll(&leader_scan, &leader).ok());
  const double ready = leader.io_completion();
  const exec::QueryStats leader_stats = leader.Finish();
  ASSERT_GT(leader_stats.io_bytes, 0u);

  // The follower rides the leader's transfer, then gets killed mid-pull:
  // its bill must not contain the transfer (it never paid), and the kill
  // must not bill it retroactively.
  exec::ExecContext follower(rig.platform.get(), exec::ExecOptions{});
  follower.StageSharedScan(table.get(), ready);
  exec::TableScanOp follower_scan(table.get());
  ASSERT_TRUE(follower_scan.Open(&follower).ok());
  exec::CancelToken token;
  token.deadline_s = rig.platform->clock()->now();  // already passed
  follower.set_cancel_token(token);

  exec::RecordBatch batch;
  bool eos = false;
  EXPECT_EQ(follower_scan.Next(&batch, &eos).code(),
            StatusCode::kDeadlineExceeded);
  const exec::QueryStats follower_stats = follower.Finish();
  EXPECT_EQ(follower_stats.io_bytes, 0u);
  EXPECT_EQ(follower_stats.rows_emitted, 0u);
}

TEST(CancelExecTest, SharedScanFollowerAtDopTwoBillsNoTransfer) {
  // The same follower, planned at dop 2: the scan the planner builds must
  // consume the staged waiver exactly like the dop-1 scan, or the follower
  // re-bills the leader's whole transfer and leaves the waiver staged.
  ExecRig rig;
  auto table = rig.MakeOrders(5000);

  exec::ExecContext leader(rig.platform.get(), exec::ExecOptions{});
  exec::TableScanOp leader_scan(table.get());
  ASSERT_TRUE(exec::CollectAll(&leader_scan, &leader).ok());
  const double ready = leader.io_completion();
  ASSERT_GT(leader.Finish().io_bytes, 0u);

  optimizer::QuerySpec spec;
  spec.left.name = "orders";
  spec.left.variants = {table.get()};
  optimizer::CostModel model(rig.platform.get(), {});
  optimizer::Planner planner(&model);
  auto canonical = optimizer::CanonicalJoinPlan(spec);
  ASSERT_TRUE(canonical.ok()) << canonical.status().message();
  optimizer::PhysicalPlan plan = *canonical;
  plan.dop = 2;
  auto follower_scan = planner.BuildOperator(spec, plan);
  ASSERT_TRUE(follower_scan.ok()) << follower_scan.status().message();

  exec::ExecOptions options;
  options.dop = plan.dop;
  exec::ExecContext follower(rig.platform.get(), options);
  follower.StageSharedScan(table.get(), ready);
  ASSERT_TRUE((*follower_scan)->Open(&follower).ok());
  double staged = 0.0;
  EXPECT_FALSE(follower.ConsumeSharedScan(table.get(), &staged));
  exec::CancelToken token;
  token.deadline_s = rig.platform->clock()->now();  // already passed
  follower.set_cancel_token(token);

  exec::RecordBatch batch;
  bool eos = false;
  EXPECT_EQ((*follower_scan)->Next(&batch, &eos).code(),
            StatusCode::kDeadlineExceeded);
  const exec::QueryStats follower_stats = follower.Finish();
  EXPECT_EQ(follower_stats.io_bytes, 0u);
  EXPECT_EQ(follower_stats.rows_emitted, 0u);
  EXPECT_GE(follower_stats.end_time, ready);  // waited on the shared data
}

// --- PowerCapGovernor --------------------------------------------------------------

TEST(PowerCapGovernorTest, ValidateRejectsBadLaddersAndSkipsDisabled) {
  power::PowerCapConfig cap;
  cap.enabled = true;
  cap.cap_watts = 10.0;

  auto expect_bad = [](power::PowerCapConfig c, int fleet) {
    EXPECT_EQ(power::PowerCapGovernor::Validate(c, fleet).code(),
              StatusCode::kInvalidArgument);
  };

  power::PowerCapConfig bad = cap;
  bad.cap_watts = -1.0;
  expect_bad(bad, 2);
  bad = cap;
  bad.cap_watts = std::numeric_limits<double>::quiet_NaN();
  expect_bad(bad, 2);
  bad = cap;
  bad.window_s = 0.0;
  expect_bad(bad, 2);
  bad = cap;
  bad.max_pstate_steps = -1;
  expect_bad(bad, 2);
  bad = cap;
  bad.min_fleet = 0;
  expect_bad(bad, 2);
  bad = cap;
  bad.min_fleet = 3;
  expect_bad(bad, 2);  // floor above the fleet
  bad = cap;
  bad.resume_fraction = 0.0;
  expect_bad(bad, 2);
  bad = cap;
  bad.resume_fraction = 1.5;
  expect_bad(bad, 2);

  // A disabled config is never validated: the governor is never built.
  bad = cap;
  bad.enabled = false;
  bad.cap_watts = -1.0;
  bad.window_s = -1.0;
  EXPECT_TRUE(power::PowerCapGovernor::Validate(bad, 2).ok());

  EXPECT_TRUE(power::PowerCapGovernor::Validate(cap, 2).ok());
}

TEST(PowerCapGovernorTest, LadderClimbsOneNotchPerObservationThenRecovers) {
  power::PowerCapConfig cap;
  cap.enabled = true;
  cap.cap_watts = 10.0;
  cap.window_s = 1.0;
  cap.max_pstate_steps = 2;
  cap.min_fleet = 1;
  cap.resume_fraction = 0.5;
  power::PowerCapGovernor gov(cap, /*base_fleet=*/3);
  // Ladder: 2 P-state notches + 2 fleet withdrawals + the shed notch.
  ASSERT_EQ(gov.max_level(), 5);

  // 20 J in a 1 s window = 20 W, over the 10 W cap at every observation.
  gov.RecordEnergy(0.5, 20.0);
  for (int step = 1; step <= 5; ++step) {
    gov.RecordEnergy(0.5 + 0.01 * step, 20.0 * 0.01);  // keep the window hot
    const power::GovernorRegime regime = gov.Observe(1.0 + 0.01 * step);
    EXPECT_EQ(gov.level(), step);
    EXPECT_EQ(regime.pstate_delta, std::min(step, 2));
    EXPECT_EQ(regime.fleet, 3 - std::max(0, std::min(step - 2, 2)));
    EXPECT_EQ(regime.shed_new, step == 5);
  }
  // Pinned at the top: one more hot observation does not overflow.
  gov.RecordEnergy(1.06, 0.2);
  EXPECT_TRUE(gov.Observe(1.06).shed_new);
  EXPECT_EQ(gov.level(), 5);

  // Hysteresis: draw between resume (5 W) and the cap (10 W) holds level.
  EXPECT_EQ(gov.WindowedDrawWatts(10.0), 0.0);  // pulses aged out
  gov.RecordEnergy(10.0, 7.0);
  gov.Observe(10.0);
  EXPECT_EQ(gov.level(), 5);

  // Draw under the resume threshold steps down one notch per observation.
  for (int step = 4; step >= 0; --step) {
    gov.Observe(25.0 - step);  // empty window: 0 W
    EXPECT_EQ(gov.level(), step);
  }
  EXPECT_FALSE(gov.regime().shed_new);
  EXPECT_EQ(gov.regime().fleet, 3);

  // Every transition was recorded, in simulated-time order.
  ASSERT_EQ(gov.events().size(), 10u);
  for (size_t i = 1; i < gov.events().size(); ++i) {
    EXPECT_GE(gov.events()[i].time_s, gov.events()[i - 1].time_s);
  }
}

TEST(PowerCapGovernorTest, WindowIsHalfOpenAndZeroCapShedsOnAnyWork) {
  power::PowerCapConfig cap;
  cap.enabled = true;
  cap.cap_watts = 0.0;
  cap.window_s = 1.0;
  power::PowerCapGovernor gov(cap, /*base_fleet=*/1);
  ASSERT_EQ(gov.max_level(), 1);

  gov.RecordEnergy(1.0, 2.0);
  // (now - window, now]: the pulse at end_s == now - window is excluded,
  // end_s == now is included.
  EXPECT_EQ(gov.WindowedDrawWatts(2.0), 0.0);
  EXPECT_EQ(gov.WindowedDrawWatts(1.0), 2.0);

  // Zero-capacity box: one completed pulse in the window sheds everything.
  EXPECT_FALSE(gov.Observe(2.0).shed_new);
  EXPECT_TRUE(gov.Observe(1.5).shed_new);
}

// --- Serving-core overload protection ----------------------------------------------

struct Rig {
  std::unique_ptr<core::EcoDb> db;
  storage::TableStorage* orders = nullptr;
  storage::TableStorage* lineitem = nullptr;
};

Rig MakeRig() {
  core::DbConfig config;
  config.preset = core::PlatformPreset::kProportional;
  config.ssd_count = 1;
  auto db_or = core::EcoDb::Open(config);
  EXPECT_TRUE(db_or.ok()) << db_or.status().message();
  Rig rig;
  rig.db = std::move(*db_or);
  tpch::TpchConfig tc;
  tc.scale_factor = 0.05;
  EXPECT_TRUE(rig.db->CreateTable("orders", tpch::OrdersSchema()).ok());
  EXPECT_TRUE(rig.db->Load("orders", tpch::GenerateOrders(tc)).ok());
  EXPECT_TRUE(rig.db->CreateTable("lineitem", tpch::LineitemSchema()).ok());
  EXPECT_TRUE(rig.db->Load("lineitem", tpch::GenerateLineitem(tc)).ok());
  rig.orders = *rig.db->table("orders");
  rig.lineitem = *rig.db->table("lineitem");
  return rig;
}

void ExpectConserved(const sched::ServingReport& report) {
  EXPECT_NEAR(report.billed_joules, report.total_joules,
              1e-9 * std::max(1.0, report.total_joules));
}

sim::ArrivalTrace ClusteredTrace(size_t n, double spacing_s,
                                 double first_arrival_s = 0.0) {
  sim::ArrivalTrace trace;
  for (size_t i = 0; i < n; ++i) {
    sim::TraceRequest req;
    req.index = i;
    req.arrival_s = first_arrival_s + spacing_s * static_cast<double>(i);
    req.query_class = 1;
    trace.requests.push_back(req);
  }
  return trace;
}

Status ServeStatus(const sched::ServingConfig& config) {
  auto platform = power::MakeProportionalPlatform();
  sched::SessionManager manager(platform.get(), config);
  sim::ArrivalTrace empty;
  auto report = manager.Serve(
      empty,
      [](const sim::TraceRequest&)
          -> StatusOr<sched::SessionManager::PlannedQuery> {
        return Status::Internal("the factory must not run during validation");
      });
  return report.status();
}

TEST(OverloadServeTest, ValidationRejectsEachMalformedKnob) {
  auto expect_bad = [](sched::ServingConfig config) {
    EXPECT_EQ(ServeStatus(config).code(), StatusCode::kInvalidArgument);
  };

  sched::ServingConfig config;
  config.worker_fleet = 0;
  expect_bad(config);

  config = {};
  config.batching.window_s = -0.1;
  expect_bad(config);

  config = {};
  config.share_window_s = -1.0;
  expect_bad(config);

  config = {};
  config.exec_options.dop = 0;
  expect_bad(config);

  config = {};
  config.exec_options.batch_rows = 0;
  expect_bad(config);

  config = {};
  config.exec_options.pstate = -1;
  expect_bad(config);
  config.exec_options.pstate =
      power::MakeProportionalPlatform()->cpu().num_pstates();
  expect_bad(config);

  config = {};
  config.exec_options.decode_scale = -1.0;
  expect_bad(config);
  config.exec_options.decode_scale = std::numeric_limits<double>::quiet_NaN();
  expect_bad(config);
  config.exec_options.decode_scale = std::numeric_limits<double>::infinity();
  expect_bad(config);

  config = {};
  config.overload.relative_deadline_s = 0.0;
  expect_bad(config);
  config.overload.relative_deadline_s = -5.0;
  expect_bad(config);
  config.overload.relative_deadline_s =
      std::numeric_limits<double>::quiet_NaN();
  expect_bad(config);

  config = {};
  config.overload.max_queue_depth = 0;
  expect_bad(config);

  config = {};
  config.overload.per_tenant_inflight = 0;
  expect_bad(config);

  config = {};
  config.overload.queue_slo_s = 0.0;
  expect_bad(config);

  config = {};
  config.overload.power_cap.enabled = true;
  config.overload.power_cap.cap_watts = -2.0;
  expect_bad(config);

  config = {};
  config.overload.power_cap.enabled = true;
  config.overload.power_cap.cap_watts = 10.0;
  config.overload.power_cap.window_s = 0.0;
  expect_bad(config);

  config = {};
  config.overload.power_cap.enabled = true;
  config.overload.power_cap.cap_watts = 10.0;
  config.overload.power_cap.min_fleet = 5;  // above worker_fleet = 2
  expect_bad(config);
}

TEST(OverloadServeTest, EmptyTraceYieldsEmptyReport) {
  sched::ServingConfig config;
  config.overload.relative_deadline_s = 1.0;
  config.overload.power_cap.enabled = true;
  config.overload.power_cap.cap_watts = 100.0;

  auto platform = power::MakeProportionalPlatform();
  sched::SessionManager manager(platform.get(), config);
  sim::ArrivalTrace empty;
  auto report = manager.Serve(
      empty,
      [](const sim::TraceRequest&)
          -> StatusOr<sched::SessionManager::PlannedQuery> {
        return Status::Internal("no requests, no plans");
      });
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->sessions.empty());
  EXPECT_EQ(report->sessions_completed, 0u);
  EXPECT_EQ(report->sessions_shed, 0u);
  EXPECT_TRUE(report->governor_events.empty());
  ExpectConserved(*report);
}

TEST(OverloadServeTest, DeadlineExactlyAtAdmissionBillsZeroDirectJoules) {
  // The batching gate releases the request exactly `window_s` after its
  // arrival, which is also its absolute deadline: CollectAll polls before
  // Open, so the session dies having charged nothing — but it still ran
  // through admission, so it carries its background share.
  sim::ArrivalTrace trace = ClusteredTrace(1, 0.0);
  Rig rig = MakeRig();
  sched::ServingConfig config;
  config.worker_fleet = 1;
  config.batching.window_s = 0.05;
  config.overload.relative_deadline_s = 0.05;
  auto report = rig.db->Serve(
      trace, config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
  ASSERT_TRUE(report.ok()) << report.status().message();

  ASSERT_EQ(report->sessions.size(), 1u);
  const sched::SessionBill& bill = report->sessions[0];
  EXPECT_EQ(bill.terminal, sched::SessionTerminal::kDeadline);
  EXPECT_EQ(bill.shed_cause, sched::ShedCause::kNone);
  EXPECT_EQ(bill.admit_s, bill.deadline_s);
  EXPECT_EQ(bill.end_s, bill.admit_s);
  EXPECT_DOUBLE_EQ(bill.cpu_joules, 0.0);
  EXPECT_DOUBLE_EQ(bill.dram_joules, 0.0);
  EXPECT_DOUBLE_EQ(bill.io_joules, 0.0);
  EXPECT_DOUBLE_EQ(bill.fault_joules, 0.0);
  EXPECT_EQ(bill.rows_emitted, 0u);
  EXPECT_GT(bill.background_joules, 0.0);
  EXPECT_EQ(report->sessions_deadline, 1u);
  ExpectConserved(*report);
}

TEST(OverloadServeTest, TightDeadlineKillsMidRunAndBillsPartialWork) {
  sim::ArrivalTrace trace = ClusteredTrace(2, 0.5);
  Rig rig = MakeRig();

  // Calibrate: how long does this query run unprotected?
  sched::ServingConfig open_config;
  open_config.worker_fleet = 1;
  auto baseline = rig.db->Serve(
      trace, open_config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->sessions_completed, 2u);
  const double service =
      baseline->sessions[0].end_s - baseline->sessions[0].admit_s;
  ASSERT_GT(service, 0.0);

  // Replay with a deadline at half the service time: both sessions die
  // mid-run, each keeping the Joules it burned up to the poll that killed it.
  Rig rig2 = MakeRig();
  sched::ServingConfig config = open_config;
  config.overload.relative_deadline_s = service / 2.0;
  auto report = rig2.db->Serve(
      trace, config, tpch::MakeServingFactory(rig2.orders, rig2.lineitem));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->sessions_deadline, 2u);
  double direct = 0.0;
  for (const sched::SessionBill& bill : report->sessions) {
    EXPECT_EQ(bill.terminal, sched::SessionTerminal::kDeadline);
    direct += bill.cpu_joules + bill.dram_joules + bill.io_joules;
  }
  EXPECT_GT(direct, 0.0);  // partial work stayed on the bill
  ExpectConserved(*report);
}

TEST(OverloadServeTest, TenantCapShedsExcessInFlightArrivals) {
  sim::ArrivalTrace trace = ClusteredTrace(3, 1e-4);  // all tenant 0
  Rig rig = MakeRig();
  sched::ServingConfig config;
  config.worker_fleet = 2;
  config.overload.per_tenant_inflight = 1;
  auto report = rig.db->Serve(
      trace, config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
  ASSERT_TRUE(report.ok()) << report.status().message();

  EXPECT_EQ(report->sessions_completed, 1u);
  EXPECT_EQ(report->sessions_shed, 2u);
  for (const sched::SessionBill& bill : report->sessions) {
    if (bill.terminal == sched::SessionTerminal::kShed) {
      EXPECT_EQ(bill.shed_cause, sched::ShedCause::kTenantCap);
    }
  }
  ExpectConserved(*report);
}

TEST(OverloadServeTest, QueueSloShedsArrivalsThatWouldWaitTooLong) {
  sim::ArrivalTrace trace = ClusteredTrace(4, 1e-4);
  Rig rig = MakeRig();
  sched::ServingConfig config;
  config.worker_fleet = 1;
  config.overload.queue_slo_s = 1e-6;
  auto report = rig.db->Serve(
      trace, config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
  ASSERT_TRUE(report.ok()) << report.status().message();

  EXPECT_EQ(report->sessions_completed, 1u);
  EXPECT_EQ(report->sessions_shed, 3u);
  for (const sched::SessionBill& bill : report->sessions) {
    if (bill.terminal == sched::SessionTerminal::kShed) {
      EXPECT_EQ(bill.shed_cause, sched::ShedCause::kQueueSlo);
    }
    // The SLO is a hard bound for everything that actually ran.
    if (bill.terminal == sched::SessionTerminal::kCompleted) {
      EXPECT_LE(bill.queue_seconds, config.overload.queue_slo_s);
    }
  }
  ExpectConserved(*report);
}

TEST(OverloadServeTest, BoundedQueueEvictsLowestPriorityForUrgentArrival) {
  sim::ArrivalTrace trace;
  sim::TraceRequest running;  // takes the single slot
  running.index = 0;
  running.arrival_s = 0.0;
  running.priority = 1;
  running.query_class = 1;
  sim::TraceRequest queued;  // fills the single queue slot
  queued.index = 1;
  queued.arrival_s = 1e-4;
  queued.priority = 1;
  queued.query_class = 1;
  sim::TraceRequest urgent;  // outranks `queued` -> evicts it
  urgent.index = 2;
  urgent.arrival_s = 2e-4;
  urgent.priority = 0;
  urgent.query_class = 1;
  sim::TraceRequest late;  // does not outrank `urgent` -> shed at arrival
  late.index = 3;
  late.arrival_s = 3e-4;
  late.priority = 1;
  late.query_class = 1;
  trace.requests = {running, queued, urgent, late};

  Rig rig = MakeRig();
  sched::ServingConfig config;
  config.worker_fleet = 1;
  config.overload.max_queue_depth = 1;
  auto report = rig.db->Serve(
      trace, config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
  ASSERT_TRUE(report.ok()) << report.status().message();

  EXPECT_EQ(report->sessions_completed, 2u);
  EXPECT_EQ(report->sessions_evicted, 1u);
  EXPECT_EQ(report->sessions_shed, 1u);
  for (const sched::SessionBill& bill : report->sessions) {
    switch (bill.session_id) {
      case 0:
      case 2:
        EXPECT_EQ(bill.terminal, sched::SessionTerminal::kCompleted);
        break;
      case 1:
        EXPECT_EQ(bill.terminal, sched::SessionTerminal::kEvicted);
        EXPECT_EQ(bill.shed_cause, sched::ShedCause::kQueueFull);
        break;
      case 3:
        EXPECT_EQ(bill.terminal, sched::SessionTerminal::kShed);
        EXPECT_EQ(bill.shed_cause, sched::ShedCause::kQueueFull);
        break;
    }
  }
  ExpectConserved(*report);
}

TEST(OverloadServeTest, ZeroCapacityPowerCapShedsOnceWorkCompletes) {
  // Arrivals spaced wider than the service time, inside one cap window: the
  // first session completes, its pulse trips the zero-watt ladder, and
  // every later release is refused at the top of the ladder.
  sim::ArrivalTrace trace = ClusteredTrace(3, 0.1);
  Rig rig = MakeRig();
  sched::ServingConfig config;
  config.worker_fleet = 1;
  config.overload.power_cap.enabled = true;
  config.overload.power_cap.cap_watts = 0.0;
  config.overload.power_cap.window_s = 10.0;
  auto report = rig.db->Serve(
      trace, config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
  ASSERT_TRUE(report.ok()) << report.status().message();

  EXPECT_EQ(report->sessions_completed, 1u);
  EXPECT_EQ(report->sessions_shed, 2u);
  for (const sched::SessionBill& bill : report->sessions) {
    if (bill.terminal == sched::SessionTerminal::kShed) {
      EXPECT_EQ(bill.shed_cause, sched::ShedCause::kPowerCap);
      // A refused session consumed nothing and spent no in-flight time, so
      // its bill is empty — refusal is the cheap outcome by design.
      EXPECT_DOUBLE_EQ(bill.TotalJoules(), 0.0);
    }
  }
  ASSERT_FALSE(report->governor_events.empty());
  EXPECT_TRUE(report->governor_events.back().shed_new);
  ExpectConserved(*report);
}

TEST(OverloadServeTest, AllShedTailStillBalancesTheBooks) {
  // Regression for the background-residual fold: when the *last* decisions
  // on the timeline are zero-weight sheds, the float remainder must fold
  // into the last session that actually ran — a zero-weight shed cannot
  // absorb it (its bill would no longer equal its background share).
  sim::ArrivalTrace trace = ClusteredTrace(5, 1e-4);
  Rig rig = MakeRig();
  sched::ServingConfig config;
  config.worker_fleet = 1;
  config.overload.queue_slo_s = 1e-6;
  auto report = rig.db->Serve(
      trace, config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
  ASSERT_TRUE(report.ok()) << report.status().message();

  ASSERT_EQ(report->sessions_completed, 1u);
  ASSERT_EQ(report->sessions_shed, 4u);
  EXPECT_EQ(report->sessions.back().terminal, sched::SessionTerminal::kShed);
  for (const sched::SessionBill& bill : report->sessions) {
    if (bill.terminal == sched::SessionTerminal::kShed) {
      EXPECT_DOUBLE_EQ(bill.TotalJoules(), bill.background_joules);
    }
  }
  ExpectConserved(*report);
}

TEST(OverloadServeTest, OverloadScheduleAndBillsAreDopInvariant) {
  // A 2x-capacity burst through every protection at once: deadlines, the
  // bounded queue, tenant caps, the SLO, and an enabled power cap. The
  // decision sequence and every bill must be bit-identical at dop 1/2/4/8
  // (DESIGN §14: serving billing runs on the serial-equivalent timeline).
  sim::ArrivalTraceSpec spec;
  spec.seed = 17;
  spec.tenants = 3;
  spec.requests = 16;
  spec.mean_interarrival_s = 2e-4;
  spec.priority_classes = 2;
  spec.bursts.push_back({0.0, 1.0, 2.0});
  const sim::ArrivalTrace trace = sim::GenerateArrivalTrace(spec);

  struct BillRow {
    uint64_t id;
    int terminal, cause;
    double admit, end, cpu, dram, io, fault;
    uint64_t rows;
  };
  std::vector<std::vector<BillRow>> per_dop;
  std::vector<uint64_t> fingerprints;
  std::vector<size_t> governor_steps;

  for (int dop : {1, 2, 4, 8}) {
    Rig rig = MakeRig();
    sched::ServingConfig config;
    config.worker_fleet = 2;
    config.exec_options.dop = dop;
    config.overload.relative_deadline_s = 0.02;
    config.overload.max_queue_depth = 3;
    config.overload.per_tenant_inflight = 2;
    config.overload.queue_slo_s = 0.004;
    config.overload.power_cap.enabled = true;
    config.overload.power_cap.cap_watts = 1.0;
    config.overload.power_cap.window_s = 0.02;
    config.overload.power_cap.max_pstate_steps = 1;
    auto report = rig.db->Serve(
        trace, config, tpch::MakeServingFactory(rig.orders, rig.lineitem));
    ASSERT_TRUE(report.ok()) << report.status().message();
    ASSERT_EQ(report->sessions.size(), trace.requests.size());
    EXPECT_GT(report->sessions_shed + report->sessions_deadline +
                  report->sessions_evicted,
              0u);  // the protections actually fired
    ExpectConserved(*report);

    std::vector<BillRow> rows;
    for (const sched::SessionBill& bill : report->sessions) {
      rows.push_back({bill.session_id, static_cast<int>(bill.terminal),
                      static_cast<int>(bill.shed_cause), bill.admit_s,
                      bill.end_s, bill.cpu_joules, bill.dram_joules,
                      bill.io_joules, bill.fault_joules, bill.rows_emitted});
    }
    per_dop.push_back(std::move(rows));
    fingerprints.push_back(report->admission_fingerprint);
    governor_steps.push_back(report->governor_events.size());
  }

  for (size_t d = 1; d < per_dop.size(); ++d) {
    EXPECT_EQ(fingerprints[d], fingerprints[0]);
    EXPECT_EQ(governor_steps[d], governor_steps[0]);
    ASSERT_EQ(per_dop[d].size(), per_dop[0].size());
    for (size_t i = 0; i < per_dop[0].size(); ++i) {
      EXPECT_EQ(per_dop[d][i].id, per_dop[0][i].id);
      EXPECT_EQ(per_dop[d][i].terminal, per_dop[0][i].terminal);
      EXPECT_EQ(per_dop[d][i].cause, per_dop[0][i].cause);
      EXPECT_EQ(per_dop[d][i].admit, per_dop[0][i].admit);
      EXPECT_EQ(per_dop[d][i].end, per_dop[0][i].end);
      EXPECT_EQ(per_dop[d][i].cpu, per_dop[0][i].cpu);
      EXPECT_EQ(per_dop[d][i].dram, per_dop[0][i].dram);
      EXPECT_EQ(per_dop[d][i].io, per_dop[0][i].io);
      EXPECT_EQ(per_dop[d][i].fault, per_dop[0][i].fault);
      EXPECT_EQ(per_dop[d][i].rows, per_dop[0][i].rows);
    }
  }
}

}  // namespace
}  // namespace ecodb
