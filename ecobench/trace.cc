#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace ecobench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowNs() const {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  return Begin(name, open_.empty() ? 0 : spans_[open_.back()].request);
}

int Tracer::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (!enabled_ || open_.empty() || open_.back() != index) return;
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%.0f,"
                 "\"end_ns\":%.0f,\"parent\":%d,\"request\":%llu}\n",
                 i, s.name.c_str(), s.start_ns, s.end_ns, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

std::vector<double> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = parent.start_ns;  // end of the union so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, parent.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = parent.Duration() - covered;
  }
  return self;
}

std::vector<double> DurationsNs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.Duration());
  }
  return out;
}

}  // namespace ecobench
