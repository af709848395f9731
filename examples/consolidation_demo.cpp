// Consolidation demo (Section 4.2): batching + spin-down + migration
// working together on a simulated timeline.
//
// A sparse stream of lookups hits a two-tier store (15K disk + SSD). We
// run the same day three ways:
//   a) baseline        — requests served on arrival, disk always spinning
//   b) batched         — requests held in 5-minute windows, break-even
//                        spin-down policy parks the disk between bursts
//   c) consolidated    — the cold partition is migrated to the SSD first,
//                        and the disk powers down for good
//
//   $ ./build/examples/consolidation_demo

#include <cstdio>

#include "power/energy_meter.h"
#include "sched/batching.h"
#include "sched/consolidation.h"
#include "sched/spin_down.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace {

constexpr double kDay = 6.0 * 3600;   // a six-hour shift
constexpr int kRequests = 120;
constexpr uint64_t kReadBytes = 4 << 20;

struct Scenario {
  double disk_joules = 0;
  double ssd_joules = 0;
  double p95_latency = 0;
  int spin_downs = 0;
  double Total() const { return disk_joules + ssd_joules; }
};

Scenario Run(bool batch, bool migrate_first) {
  ecodb::sim::SimClock clock;
  ecodb::power::EnergyMeter meter(&clock);
  ecodb::sim::EventQueue events(&clock);
  ecodb::storage::HddDevice hdd("hdd", ecodb::power::HddSpec{}, &meter);
  ecodb::storage::SsdDevice ssd("ssd", ecodb::power::SsdSpec{}, &meter);

  // The cold partition: lives on the disk unless migrated.
  ecodb::catalog::Schema schema(
      {ecodb::catalog::Column{"v", ecodb::catalog::DataType::kInt64, 8}});
  ecodb::storage::TableStorage partition(
      1, schema, ecodb::storage::TableLayout::kColumn, &hdd);
  std::vector<ecodb::storage::ColumnData> cols(1);
  cols[0].type = ecodb::catalog::DataType::kInt64;
  for (int i = 0; i < 500000; ++i) cols[0].i64.push_back(i);
  (void)partition.Append(cols);

  if (migrate_first) {
    const auto decision = ecodb::sched::ConsolidationManager::Evaluate(
        hdd, ssd, partition.TotalBytes(), kDay);
    std::printf("   advisor: migration %s (move %.0f J, save %.0f J over "
                "the horizon)\n",
                decision.migrate ? "recommended" : "not recommended",
                decision.migration_joules, decision.savings_joules);
    (void)ecodb::sched::ConsolidationManager::Migrate(&partition, &ssd, &clock).value();
  }

  ecodb::sched::DiskPowerManager power_mgr(
      &events, &hdd,
      batch || migrate_first ? ecodb::sched::SpinDownPolicy::kBreakEven
                             : ecodb::sched::SpinDownPolicy::kNever);
  ecodb::sched::BatchingScheduler scheduler(
      &events,
      ecodb::sched::BatchingConfig{batch ? 300.0 : 0.0});

  ecodb::Rng rng(77);
  double t = clock.now();
  for (int i = 0; i < kRequests; ++i) {
    t += rng.Exponential(kDay / kRequests);
    events.ScheduleAt(t, [&] {
      scheduler.Submit([&] {
        auto* device = partition.device();
        const ecodb::storage::IoResult r =
            device->SubmitRead(clock.now(), kReadBytes, false).value();
        power_mgr.NotifyAccessEnd(r.completion_time);
        return r.completion_time;
      });
    });
  }
  events.RunAll();
  clock.AdvanceTo(std::max(clock.now(), kDay));

  Scenario s;
  s.disk_joules = meter.ChannelJoules(hdd.channel());
  s.ssd_joules = meter.ChannelJoules(ssd.channel());
  s.p95_latency = scheduler.latency().Percentile(0.95);
  s.spin_downs = power_mgr.spin_downs();
  return s;
}

}  // namespace

int main() {
  std::printf("Serving 120 lookups over six hours from a cold partition:\n\n");

  std::printf("a) baseline (no batching, disk always on)\n");
  const Scenario base = Run(/*batch=*/false, /*migrate_first=*/false);
  std::printf("b) batched (5-minute windows + break-even spin-down)\n");
  const Scenario batched = Run(/*batch=*/true, /*migrate_first=*/false);
  std::printf("c) consolidated (migrate to SSD, park the disk)\n");
  const Scenario consolidated = Run(/*batch=*/false, /*migrate_first=*/true);

  std::printf("\n%-14s %12s %12s %12s %10s\n", "scenario", "disk kJ",
              "ssd kJ", "total kJ", "p95 lat");
  auto row = [](const char* name, const Scenario& s) {
    std::printf("%-14s %12.1f %12.1f %12.1f %9.1fs\n", name,
                s.disk_joules / 1e3, s.ssd_joules / 1e3, s.Total() / 1e3,
                s.p95_latency);
  };
  row("baseline", base);
  row("batched", batched);
  row("consolidated", consolidated);

  std::printf("\nbatching saved %.0f%% of the baseline energy at the cost "
              "of queueing latency;\nconsolidation saved %.0f%% and keeps "
              "lookups fast (they hit the SSD).\n",
              (1.0 - batched.Total() / base.Total()) * 100.0,
              (1.0 - consolidated.Total() / base.Total()) * 100.0);
  return 0;
}
