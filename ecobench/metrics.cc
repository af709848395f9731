#include "metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace ecobench {

namespace {

constexpr int kLadderTenths[] = {500, 750, 900, 950, 990, 999};
constexpr size_t kMinBeyond = 10;

size_t NearestRank(size_t n, int tenths) {
  const size_t rank =
      (static_cast<size_t>(tenths) * n + 999) / 1000;  // ceil(p * n)
  return std::clamp<size_t>(rank, 1, n);
}

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double PercentileTenths(const std::vector<double>& sorted, int tenths) {
  return sorted[NearestRank(sorted.size(), tenths) - 1];
}

size_t SamplesBeyond(size_t n, int tenths) {
  return n == 0 ? 0 : n - NearestRank(n, tenths);
}

int TailTenths(size_t n) {
  int best = 1000;
  for (int tenths : kLadderTenths) {
    if (SamplesBeyond(n, tenths) >= kMinBeyond) best = tenths;
  }
  return best;
}

std::string PercentileLabel(int tenths) {
  if (tenths >= 1000) return "max";
  char buf[16];
  if (tenths % 10 == 0) {
    std::snprintf(buf, sizeof(buf), "p%d", tenths / 10);
  } else {
    std::snprintf(buf, sizeof(buf), "p%d.%d", tenths / 10, tenths % 10);
  }
  return buf;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileTenths(samples, 500);
  s.tail_tenths = TailTenths(s.n);
  s.tail = PercentileTenths(samples, s.tail_tenths);
  return s;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

bool MetricSet::Add(Metric metric) {
  if (!ValidMetricName(metric.name) || !ValidUnit(metric.unit) ||
      !std::isfinite(metric.value) || Find(metric.name) != nullptr) {
    return false;
  }
  metrics_.push_back(std::move(metric));
  return true;
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricSet::Table() const {
  std::string out;
  char line[256];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-44s %18.6g %-8s %-8s %-5s n=%zu\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  m.clock == Clock::kHost ? "host" : "modeled", m.stat.c_str(),
                  m.n);
    out += line;
  }
  return out;
}

std::string MetricSet::ResultLine(bool correct, uint64_t attempted,
                                  uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<Declared>& EndToEndMetrics() {
  static const std::vector<Declared> kMetrics = {
      {"setup_s", "s", Clock::kHost, false},
      {"host_ops_per_s", "ops/s", Clock::kHost, true},
      {"host_op_ms_p50", "ms", Clock::kHost, false},
      {"host_op_ms_tail", "ms", Clock::kHost, false},
      {"peak_rss_mb", "MiB", Clock::kHost, false},
      {"modeled_j_per_op", "J", Clock::kModeled, false},
      {"modeled_op_s_p50", "s", Clock::kModeled, false},
      {"modeled_op_s_tail", "s", Clock::kModeled, false},
      {"ok_op_ratio", "ratio", Clock::kModeled, true},
  };
  return kMetrics;
}

const std::vector<Declared>& PerLayerMetrics() {
  static const std::vector<Declared> kMetrics = [] {
    constexpr Clock kHost = Clock::kHost;
    constexpr Clock kModeled = Clock::kModeled;
    std::vector<Declared> m;
    const auto add = [&m](std::string name, const char* unit, Clock clock,
                          bool higher = false) {
      m.push_back({std::move(name), unit, clock, higher});
    };
    add("tpch.generate_s", "s", kHost);
    add("storage.load_s", "s", kHost);
    add("storage.compress_s", "s", kHost);
    add("catalog.analyze_s", "s", kHost);
    for (const char* codec : {"none", "bitpack", "for", "delta", "rle",
                              "dictionary"}) {
      add(std::string("storage.read_column_ns_per_value.") + codec, "ns",
          kHost);
    }
    add("storage.io_bytes_per_op", "B", kModeled);
    add("optimizer.choose_plan_us", "us", kHost);
    add("optimizer.build_operator_us", "us", kHost);
    add("optimizer.rows_qerror", "ratio", kModeled);
    add("optimizer.joules_qerror", "ratio", kModeled);
    const char* const classes[] = {"q1", "q6",  "q3",        "q9",
                                   "q5", "q14", "sort.dop1", "sort.dopN"};
    for (const char* cls : classes) {
      add(std::string("exec.open_ms.") + cls, "ms", kHost);
    }
    for (const char* cls : classes) {
      add(std::string("exec.next_ms.") + cls, "ms", kHost);
    }
    for (const char* cls : classes) {
      add(std::string("exec.ns_per_scanned_row.") + cls, "ns", kHost);
    }
    for (const char* cls : classes) {
      add(std::string("exec.instructions.") + cls, "count", kModeled);
    }
    add("exec.spill_bytes.sort.dop1", "B", kModeled);
    add("exec.spill_bytes.sort.dopN", "B", kModeled);
    for (const char* layer : {"scan_filter", "join", "aggregate", "topk",
                              "sort"}) {
      add(std::string("exec.self_ms.") + layer, "ms", kHost);
    }
    add("exec_context.poll_cancel_ns", "ns", kHost);
    add("exec_context.charge_ns", "ns", kHost);
    add("exec_context.finish_us", "us", kHost);
    add("sched.serve_s", "s", kHost);
    add("sched.factory_us", "us", kHost);
    add("sched.self_s", "s", kHost);
    add("sched.share_rate", "ratio", kModeled, true);
    add("sched.batches", "count", kModeled);
    add("sched.queue_s_p50", "s", kModeled);
    add("sched.queue_s_tail", "s", kModeled);
    add("sched.shed", "count", kModeled);
    add("sched.evicted", "count", kModeled);
    add("sched.deadline_killed", "count", kModeled);
    add("sched.governor_events", "count", kModeled);
    add("power.cpu_j_per_op", "J", kModeled);
    add("power.dram_j_per_op", "J", kModeled);
    add("power.io_j_per_op", "J", kModeled);
    add("power.background_j_per_op", "J", kModeled);
    add("trace.overhead_ratio", "ratio", kHost);
    return m;
  }();
  return kMetrics;
}

}  // namespace ecobench
