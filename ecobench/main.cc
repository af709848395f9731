// The EcoDB benchmark's run loop: one workload, one seed, one run.
//
//   ecobench --workload <serve_tpch|join_graph|joulesort> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <path>]
//   ecobench --list-metrics
//
// A run sets the workload up seven times (setup_s is the median; the last
// two instances are kept), runs one pass on each kept instance and checks
// that their modeled outputs agree bit for bit, then repeats passes for
// --seconds. --trace 0 prints every end-to-end metric. --trace 1 runs the
// first pass traced, repeats traced passes on one instance alternating
// with untraced passes on the other, and prints every per-layer metric
// plus the tracing overhead. The last stdout line is the JSON result; the
// exit code is 0 only when every output check passed. No engine pool gets
// more threads than the cores the process may run on.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adapter.h"
#include "metrics.h"
#include "trace.h"

namespace ecobench {
namespace {

using HostClock = std::chrono::steady_clock;

constexpr int kSetups = 7;
// Host samples a run collects at least, so the tail rule reaches p90.
constexpr size_t kMinHostSamples = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;  // BENCHMARK.json's run_seconds
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1;
}

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// Cores this process may run on (its affinity mask), at least 1.
int HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMib() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Host times are reported in reference units: every host time of a run is
// scaled by kCalibrationRefMs over the median time of a fixed,
// engine-independent kernel timed before each setup and each pass. The
// shared hosts this runs on change speed by tens of percent from minute to
// minute; the kernel slows with them, the engine's share of the ratio does
// not. The report also prints the unscaled figures.
constexpr double kCalibrationRefMs = 10.0;
constexpr double kCalibrationEveryS = 0.15;

/// Sort plus open-addressing hash build/probe over ~1.5 MB of preallocated
/// memory: CPU- and cache-bound like the engine, allocation-free so page
/// faults do not add noise.
class Calibration {
 public:
  Calibration() : values_(kValues), table_(kSlots) {}

  /// Times one run of the kernel; returns its host milliseconds.
  double RunMs() {
    const double t0 = ProcessCpuNs();
    uint64_t x = 88172645463325252ULL;
    for (uint64_t& v : values_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x | 1;  // never 0, the empty slot
    }
    std::sort(values_.begin(), values_.end());
    std::fill(table_.begin(), table_.end(), 0);
    for (size_t i = 0; i < kValues; i += 4) {
      size_t slot = values_[i] & (kSlots - 1);
      while (table_[slot] != 0) slot = (slot + 1) & (kSlots - 1);
      table_[slot] = values_[i];
    }
    size_t hits = 0;
    for (uint64_t v : values_) {
      for (size_t slot = v & (kSlots - 1); table_[slot] != 0;
           slot = (slot + 1) & (kSlots - 1)) {
        if (table_[slot] == v) {
          ++hits;
          break;
        }
      }
    }
    const double ms = (ProcessCpuNs() - t0) / 1e6;
    samples_ms_.push_back(ms);
    return hits > 0 ? ms : 0.0;
  }

  /// kCalibrationRefMs over the median kernel time so far: > 1 when the
  /// host runs faster than the reference.
  double SpeedFactor() const {
    return kCalibrationRefMs / Summarize(samples_ms_).p50;
  }

 private:
  static constexpr size_t kValues = size_t{1} << 17;
  static constexpr size_t kSlots = size_t{1} << 16;
  std::vector<uint64_t> values_;
  std::vector<uint64_t> table_;
  std::vector<double> samples_ms_;
};

/// Median with the two middle values averaged for an even count.
double MedianOfMedians(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

Metric Make(const std::string& name, double value, size_t n,
            const std::string& stat) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const Declared& d : *list) {
      if (d.name == name) return {name, value, d.unit, d.clock, n, stat};
    }
  }
  std::fprintf(stderr, "ecobench: undeclared metric %s\n", name.c_str());
  std::abort();
}

/// Everything a run measured, before it is turned into metrics.
struct RunData {
  std::vector<double> setup_s;  // unscaled host seconds
  double speed = 1.0;           // Calibration::SpeedFactor() of the run
  PassRecord first;      // pass 0 on instance A: the modeled figures
  PassRecord reference;  // pass 0 on instance B, untraced
  std::vector<PassRecord> timed;       // untraced timed passes
  std::vector<PassRecord> traced;      // traced timed passes (--trace 1)
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void Absorb(const PassRecord& pass, RunData* run) {
  run->attempted += pass.ops.size();
  for (const OpRecord& op : pass.ops) run->failed += op.ok ? 0 : 1;
  run->failures.insert(run->failures.end(), pass.failures.begin(),
                       pass.failures.end());
}

size_t ExecutedOps(const std::vector<PassRecord>& passes) {
  size_t n = 0;
  for (const PassRecord& p : passes) {
    for (const OpRecord& op : p.ops) n += op.executed ? 1 : 0;
  }
  return n;
}

void AddEndToEnd(const RunData& run, MetricSet* out) {
  const double speed = run.speed;
  const Summary setup = Summarize(run.setup_s);
  out->Add(Make("setup_s", setup.p50 * speed, setup.n, "p50"));

  std::vector<double> host_ms;
  std::map<std::string, std::vector<double>> host_by_key;
  std::vector<double> pass_rates;  // completed ops per host second, per pass
  for (const PassRecord& pass : run.timed) {
    double completed = 0.0;
    for (const OpRecord& op : pass.ops) {
      if (op.executed) {
        host_ms.push_back(op.host_ms);
        host_by_key[op.key].push_back(op.host_ms);
      }
      completed += op.served && op.ok ? 1.0 : 0.0;
    }
    pass_rates.push_back(completed / std::max(pass.engine_host_s, 1e-9));
  }
  // The median of a fixed mix of k query kinds sits in the gap between two
  // kinds whenever k is even, and jumps across it from run to run; the
  // median of the per-kind medians does not.
  std::vector<double> key_medians;
  for (const auto& [key, v] : host_by_key) {
    const Summary c = Summarize(v);
    key_medians.push_back(c.p50);
    std::printf("unscaled host_op_ms %-10s p50=%.3f %s=%.3f n=%zu\n",
                key.c_str(), c.p50, PercentileLabel(c.tail_tenths).c_str(),
                c.tail, c.n);
  }
  const Summary host = Summarize(host_ms);
  const Summary rate = Summarize(pass_rates);
  std::printf("unscaled setup_s samples:");
  for (double v : run.setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("unscaled setup_s=%.6f host_ops_per_s=%.3f host_op_ms_p50=%.4f "
              "host_op_ms_tail=%.4f; speed factor %.4f\n",
              setup.p50, rate.p50, MedianOfMedians(key_medians), host.tail,
              speed);
  out->Add(Make("host_ops_per_s", rate.p50 / speed, rate.n, "p50/pass"));
  out->Add(Make("host_op_ms_p50", MedianOfMedians(key_medians) * speed,
                host.n, "p50/kind"));
  out->Add(Make("host_op_ms_tail", host.tail * speed, host.n,
                PercentileLabel(host.tail_tenths)));
  out->Add(Make("peak_rss_mb", PeakRssMib(), 1, "max"));

  std::vector<double> modeled_s;
  double joules = 0.0;
  double ok = 0.0;
  for (const OpRecord& op : run.first.ops) {
    joules += op.joules;
    if (op.served && op.ok) {
      modeled_s.push_back(op.modeled_s);
      ok += 1.0;
    }
  }
  const double ops = static_cast<double>(std::max<size_t>(1, run.first.ops.size()));
  const Summary modeled = Summarize(modeled_s);
  out->Add(Make("modeled_j_per_op", joules / ops, run.first.ops.size(), "mean"));
  out->Add(Make("modeled_op_s_p50", modeled.p50, modeled.n, "p50"));
  out->Add(Make("modeled_op_s_tail", modeled.tail, modeled.n,
                PercentileLabel(modeled.tail_tenths)));
  out->Add(Make("ok_op_ratio", ok / ops, run.first.ops.size(), "ratio"));
}

/// Per-layer host metrics from the spans; modeled ones from pass 0; the
/// rest from the rig's own extra measurements.
void AddPerLayer(const RunData& run, const Tracer& tracer, Rig* rig,
                 MetricSet* out) {
  Layers layers = run.first.modeled_layers;
  const std::vector<Span>& spans = tracer.spans();

  // Setup: per setup span, the sum of each layer's spans under it.
  {
    std::vector<int> top(spans.size(), -1);
    std::map<int, std::map<std::string, double>> per_setup;
    for (size_t i = 0; i < spans.size(); ++i) {
      top[i] = spans[i].parent < 0 ? static_cast<int>(i) : top[spans[i].parent];
      if (spans[top[i]].name == "setup") {
        per_setup[top[i]][spans[i].name] += spans[i].Duration() / 1e9;
      }
    }
    for (const char* name : {"tpch.generate", "storage.load",
                             "storage.compress", "catalog.analyze"}) {
      std::vector<double> v;
      for (const auto& [index, sums] : per_setup) {
        auto it = sums.find(name);
        if (it != sums.end()) v.push_back(it->second);
      }
      const Summary s = Summarize(v);
      if (s.n > 0) layers[std::string(name) + "_s"] = {s.p50, s.n};
    }
  }

  // Plan-root spans per op, keyed by request id.
  std::map<uint64_t, std::map<std::string, double>> root_ns;
  for (const Span& s : spans) {
    if (s.name.rfind("exec.", 0) == 0) root_ns[s.request][s.name] += s.Duration();
  }
  std::map<std::string, std::vector<double>> open_ms, next_ms, ns_per_row;
  std::vector<const PassRecord*> traced = {&run.first};
  for (const PassRecord& p : run.traced) traced.push_back(&p);
  for (const PassRecord* pass : traced) {
    for (const OpRecord& op : pass->ops) {
      auto it = root_ns.find(op.request);
      if (!op.executed || it == root_ns.end()) continue;
      std::map<std::string, double>& ns = it->second;
      open_ms[op.cls].push_back(ns["exec.open"] / 1e6);
      next_ms[op.cls].push_back(ns["exec.next"] / 1e6);
      ns_per_row[op.cls].push_back(
          (ns["exec.open"] + ns["exec.next"] + ns["exec.close"]) /
          std::max(1.0, op.rows_scanned));
    }
  }
  const auto put_medians = [&layers](const std::string& prefix,
                                     const std::map<std::string,
                                                    std::vector<double>>& by) {
    for (const auto& [cls, v] : by) {
      const Summary s = Summarize(v);
      layers[prefix + cls] = {s.p50, s.n};
    }
  };
  put_medians("exec.open_ms.", open_ms);
  put_medians("exec.next_ms.", next_ms);
  put_medians("exec.ns_per_scanned_row.", ns_per_row);

  const auto put_span_median = [&](const char* span, const char* metric,
                                   double scale) {
    const Summary s = Summarize(DurationsNs(spans, span));
    if (s.n > 0) layers[metric] = {s.p50 * scale, s.n};
  };
  put_span_median("optimizer.choose_plan", "optimizer.choose_plan_us", 1e-3);
  put_span_median("optimizer.build_operator", "optimizer.build_operator_us",
                  1e-3);
  put_span_median("sched.serve", "sched.serve_s", 1e-9);
  put_span_median("sched.factory", "sched.factory_us", 1e-3);
  {
    const std::vector<double> self = SelfTimesNs(spans);
    std::vector<double> serve_self;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "sched.serve") serve_self.push_back(self[i] / 1e9);
    }
    const Summary s = Summarize(serve_self);
    if (s.n > 0) layers["sched.self_s"] = {s.p50, s.n};
  }

  // Tracing overhead: traced passes on A against the untraced passes on B
  // that alternate with them.
  std::vector<double> traced_s, untraced_s;
  for (const PassRecord& p : run.traced) traced_s.push_back(p.engine_host_s);
  for (const PassRecord& p : run.timed) untraced_s.push_back(p.engine_host_s);
  const Summary t = Summarize(traced_s);
  const Summary u = Summarize(untraced_s);
  if (u.n > 0 && u.p50 > 0.0) {
    layers["trace.overhead_ratio"] = {t.p50 / u.p50 - 1.0, t.n};
  }

  rig->MeasureLayers(&layers);

  for (const Declared& d : PerLayerMetrics()) {
    auto it = layers.find(d.name);
    if (it == layers.end()) {
      out->Add({d.name, 0.0, d.unit, d.clock, 0, "n/a"});
    } else {
      out->Add({d.name, it->second.value, d.unit, d.clock, it->second.n, ""});
    }
  }
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    for (const auto& [kind, list] : {std::pair{"end_to_end", &EndToEndMetrics()},
                                     std::pair{"per_layer", &PerLayerMetrics()}}) {
      for (const Declared& d : *list) {
        std::printf("%s %s %s %s %s\n", kind, d.name.c_str(), d.unit.c_str(),
                    d.higher_is_better ? "higher" : "lower",
                    d.clock == Clock::kHost ? "host" : "modeled");
      }
    }
    return 0;
  }
  Args args;
  RigConfig config;
  if (!ParseArgs(argc, argv, &args) ||
      !DefaultRigConfig(args.workload, args.seed, HostCores(), &config)) {
    std::fprintf(stderr,
                 "usage: ecobench --workload <serve_tpch|join_graph|joulesort> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  Calibration calibration;
  RunData run;
  std::unique_ptr<Rig> a, b;
  for (int i = 0; i < kSetups; ++i) {
    b = std::move(a);  // keeps at most two instances alive
    std::string error;
    calibration.RunMs();
    const double t0 = ProcessCpuNs();
    {
      ScopedSpan span(&tracer, "setup", static_cast<uint64_t>(i));
      a = SetupRig(config, &tracer, &error);
    }
    run.setup_s.push_back((ProcessCpuNs() - t0) / 1e9);
    if (a == nullptr) {
      std::fprintf(stderr, "ecobench: %s\n", error.c_str());
      return 1;
    }
  }

  run.first = a->RunPass(&tracer);
  run.reference = b->RunPass(&off);
  Absorb(run.first, &run);
  Absorb(run.reference, &run);
  if (run.first.modeled_fingerprint != run.reference.modeled_fingerprint) {
    run.failures.push_back(
        "replay: a second identical instance gave different modeled outputs");
    run.failed += run.first.ops.size();
  }

  const auto timed_start = HostClock::now();
  double pass_s = run.reference.engine_host_s;
  for (int i = 0; SecondsSince(timed_start) < args.seconds ||
                  ExecutedOps(args.trace ? run.traced : run.timed) <
                      kMinHostSamples;
       ++i) {
    if (args.trace && i % 2 == 0) run.traced.push_back(a->RunPass(&tracer));
    // About one kernel run per kCalibrationEveryS of pass time, so the
    // speed factor rests on ~200 samples spread over the run.
    for (int k = 0; k < std::max(1, static_cast<int>(pass_s / kCalibrationEveryS));
         ++k) {
      calibration.RunMs();
    }
    run.timed.push_back((args.trace ? b : a)->RunPass(&off));
    pass_s = run.timed.back().engine_host_s;
    if (args.trace && i % 2 == 1) run.traced.push_back(a->RunPass(&tracer));
  }
  run.speed = calibration.SpeedFactor();
  for (const PassRecord& p : run.timed) Absorb(p, &run);
  for (const PassRecord& p : run.traced) Absorb(p, &run);

  const bool correct = run.failures.empty() && run.failed == 0;
  std::printf("ecobench workload=%s seed=%" PRIu64 " trace=%d threads=%d\n",
              config.workload.c_str(), config.seed, args.trace ? 1 : 0,
              config.threads);
  std::printf("sizes: scale_factor=%g requests=%zu records=%zu\n",
              config.scale_factor, config.requests, config.records);
  std::printf("input_fingerprint=%016" PRIx64 " modeled_fingerprint=%016" PRIx64
              "\n",
              a->InputFingerprint(), run.first.modeled_fingerprint);
  std::printf("passes: timed=%zu traced=%zu timed_seconds=%.3f\n",
              run.timed.size(), run.traced.size(),
              SecondsSince(timed_start));
  std::printf("checks: replay %s, outputs %s\n",
              run.first.modeled_fingerprint == run.reference.modeled_fingerprint
                  ? "PASS"
                  : "FAIL",
              correct ? "PASS" : "FAIL");
  for (const std::string& f : run.failures) std::printf("  FAIL: %s\n", f.c_str());
  MetricSet metrics;
  if (args.trace) {
    AddPerLayer(run, tracer, a.get(), &metrics);
  } else {
    AddEndToEnd(run, &metrics);
  }
  std::printf("%s", metrics.Table().c_str());
  if (args.trace && !args.trace_out.empty() &&
      !tracer.WriteJsonLines(args.trace_out)) {
    std::fprintf(stderr, "ecobench: cannot write %s\n", args.trace_out.c_str());
  }
  std::printf("%s\n",
              metrics.ResultLine(correct, run.attempted, run.failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ecobench

int main(int argc, char** argv) { return ecobench::Main(argc, argv); }
