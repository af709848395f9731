// The benchmark's one coupling point to the engine.
//
// Everything that names an EcoDB type lives behind this header: building a
// workload's database (a "rig"), running one pass of its operations through
// the public API, checking their outputs, and the traced-run extras that
// need calls of their own. The run loop (main.cc) sees only plain records.
// Engine refactors that keep the public facade change this file alone.

#ifndef ECOBENCH_ADAPTER_H_
#define ECOBENCH_ADAPTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace ecobench {

/// Workload names, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

struct RigConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Host cores the run may occupy; no engine pool gets more threads.
  int threads = 1;
  double scale_factor = 0.0;  // TPC-H scale (serve_tpch, join_graph)
  size_t requests = 0;        // arrival-trace length (serve_tpch)
  size_t records = 0;         // records sorted (joulesort)
};

/// The benchmark's sizes for `workload`; false when the name is unknown.
bool DefaultRigConfig(const std::string& workload, uint64_t seed, int threads,
                      RigConfig* out);

/// One operation: a serving session, a join query, or a sort.
struct OpRecord {
  std::string cls;           // q1/q6/q3, q3/q9/q5/q14, sort.dop1/sort.dopN
  std::string key;           // the exact query: class, plus lambda on joins
  uint64_t request = 0;      // span request id, unique within the rig
  bool executed = true;      // reached the engine (refused sessions did not)
  bool served = true;        // completed: not shed, evicted or killed
  bool ok = true;            // no engine error and its output check passed
  double host_ms = 0.0;      // host time of the op inside the engine
  double rows_scanned = 0.0; // base-table rows the op's scans read
  double modeled_s = 0.0;    // response time on the modeled clock
  double joules = 0.0;       // modeled Joules billed to the op
};

/// A per-layer number and the sample count behind it.
struct LayerValue {
  double value = 0.0;
  size_t n = 1;
};
using Layers = std::map<std::string, LayerValue>;

struct PassRecord {
  std::vector<OpRecord> ops;
  /// Host seconds inside the engine calls of the pass (the harness's own
  /// output checks excluded).
  double engine_host_s = 0.0;
  /// FNV-1a over every modeled output of the pass: equal fingerprints
  /// mean bit-identical bills, times, plans and row checksums.
  uint64_t modeled_fingerprint = 0;
  /// Per-layer modeled metrics of the pass (deterministic).
  Layers modeled_layers;
  /// Failed output checks, one line each.
  std::vector<std::string> failures;
};

/// One fully set-up instance of a workload.
class Rig {
 public:
  virtual ~Rig() = default;

  /// Runs one pass of the workload's operations. With an enabled tracer
  /// every engine call gets a span and plan roots run under a forwarding
  /// proxy that spans Open/Next/Close; the proxy never touches the
  /// ExecContext, so modeled outputs do not depend on tracing.
  virtual PassRecord RunPass(Tracer* tracer) = 0;

  /// FNV-1a over the generated inputs (arrival trace, tables, records).
  virtual uint64_t InputFingerprint() const = 0;

  /// Traced-run extras that need calls of their own: per-codec ReadColumn
  /// cost, ExecContext call costs, per-layer self time of planner-built
  /// query prefixes, per-class instruction counts. Runs after the passes;
  /// it advances the rig's simulated clock.
  virtual void MeasureLayers(Layers* out) = 0;
};

/// Builds a rig: opens the database, generates and loads the tables,
/// analyzes and compresses them. Setup spans (tpch.generate, storage.load,
/// catalog.analyze, storage.compress) go to `tracer`. Returns null and
/// sets `error` on failure.
std::unique_ptr<Rig> SetupRig(const RigConfig& config, Tracer* tracer,
                              std::string* error);

}  // namespace ecobench

#endif  // ECOBENCH_ADAPTER_H_
