// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into
// an engine layer (and around the Open/Next/Close of each plan root through
// a forwarding proxy). They nest on one thread: the harness drives the
// engine from a single coordinator thread, and plan roots are pulled there.
// Spans stay in memory until the run ends, then go to a JSON-lines file.

#ifndef ECOBENCH_TRACE_H_
#define ECOBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ecobench {

struct Span {
  std::string name;
  double start_ns = 0.0;  // since the tracer was created
  double end_ns = 0.0;
  int parent = -1;        // index into the span list; -1 at the top
  uint64_t request = 0;   // spans of one request share this id
  double Duration() const { return end_ns - start_ns; }
};

/// Records spans when enabled; every call is a no-op when disabled.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. The request id is
  /// inherited from the parent unless given. Returns its index (-1 when
  /// disabled).
  int Begin(const std::string& name);
  int Begin(const std::string& name, uint64_t request);

  /// Closes the innermost open span, which must be `index`.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request)
      : tracer_(tracer), index_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// CPU time the whole process has used (all threads, user + system), in
/// ns. Host costs are taken on this clock: unlike wall time it does not
/// depend on how many cores a shared host lends the process at the moment,
/// which swings a 4-thread sort's wall time by 3x from one minute to the
/// next. Spans stay on the wall clock.
double ProcessCpuNs();

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children's intervals.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans);

/// Durations (ns) of the spans named `name`.
std::vector<double> DurationsNs(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace ecobench

#endif  // ECOBENCH_TRACE_H_
