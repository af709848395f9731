// Ablation A3 (Section 4.2): batching requests in time creates idle periods
// long enough to amortize disk spin-down — energy falls, latency rises.
//
// "We expect to see workload management policies that encourage identifiable
// periods of low and high activity — perhaps batching requests at the cost
// of increased latency" + "hardware components will require a certain
// minimum-length idle period to enter in a suspended mode".
//
// The harness replays the same Poisson arrival trace of small disk reads
// under increasing batch windows, with a break-even spin-down policy
// managing the disk, and reports energy vs p95 latency.

#include <memory>

#include "bench_util.h"
#include "power/energy_meter.h"
#include "sched/batching.h"
#include "sched/spin_down.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "storage/hdd.h"
#include "util/random.h"

namespace ecodb {
namespace {

constexpr int kRequests = 200;
constexpr double kMeanInterarrival = 20.0;  // sparse: idle gaps exist
constexpr uint64_t kRequestBytes = 16 << 20;

struct RunOutcome {
  double joules = 0;
  double p95_latency = 0;
  int spin_downs = 0;
};

RunOutcome RunTrace(double window_s) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  sim::EventQueue events(&clock);
  storage::HddDevice hdd("hdd", power::HddSpec{}, &meter);
  sched::DiskPowerManager power_mgr(&events, &hdd,
                                    sched::SpinDownPolicy::kBreakEven);
  sched::BatchingScheduler scheduler(&events,
                                     sched::BatchingConfig{window_s});

  // Identical arrival trace for every window (same seed).
  Rng rng(4242);
  double t = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    t += rng.Exponential(kMeanInterarrival);
    events.ScheduleAt(t, [&scheduler, &hdd, &power_mgr, &clock] {
      scheduler.Submit([&hdd, &power_mgr, &clock] {
        const storage::IoResult r =
            hdd.SubmitRead(clock.now(), kRequestBytes, false).value();
        power_mgr.NotifyAccessEnd(r.completion_time);
        return r.completion_time;
      });
    });
  }
  events.RunAll();
  const double end = clock.now() + 60.0;
  clock.AdvanceTo(end);

  RunOutcome out;
  out.joules = meter.ChannelJoules(hdd.channel());
  out.p95_latency = scheduler.latency().Percentile(0.95);
  out.spin_downs = power_mgr.spin_downs();
  return out;
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A3: request batching vs disk energy and latency",
      "200 Poisson arrivals (mean gap 20 s) of 16 MiB reads; break-even "
      "spin-down policy; sweep of the batching window");

  bench::Table table({"batch window (s)", "disk energy (kJ)",
                      "p95 latency (s)", "spin-downs"});
  double joules_nobatch = 0, joules_maxbatch = 0;
  double lat_nobatch = 0, lat_maxbatch = 0;
  const std::vector<double> windows = {0.0, 30.0, 60.0, 120.0, 300.0, 600.0};
  for (double w : windows) {
    const RunOutcome out = RunTrace(w);
    table.AddRow({bench::Fmt("%.0f", w), bench::Fmt("%.1f", out.joules / 1e3),
                  bench::Fmt("%.1f", out.p95_latency),
                  bench::Fmt("%.0f", out.spin_downs)});
    if (w == windows.front()) {
      joules_nobatch = out.joules;
      lat_nobatch = out.p95_latency;
    }
    if (w == windows.back()) {
      joules_maxbatch = out.joules;
      lat_maxbatch = out.p95_latency;
    }
  }
  table.Print();

  std::printf("largest window saves %.1f%% disk energy at %.1fx the p95 "
              "latency\n",
              (1.0 - joules_maxbatch / joules_nobatch) * 100.0,
              lat_maxbatch / std::max(lat_nobatch, 1e-9));
  const bool shape =
      joules_maxbatch < joules_nobatch && lat_maxbatch > lat_nobatch;
  std::printf("shape check (batching trades latency for energy): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
