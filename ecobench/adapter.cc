#include "adapter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "core/ecodb.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "metrics.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "sim/arrival_trace.h"
#include "storage/compression.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "tpch/workload.h"
#include "util/random.h"

namespace ecobench {
namespace {

using ecodb::Status;
using ecodb::StatusOr;
namespace catalog = ecodb::catalog;
namespace core = ecodb::core;
namespace exec = ecodb::exec;
namespace optimizer = ecodb::optimizer;
namespace power = ecodb::power;
namespace sched = ecodb::sched;
namespace sim = ecodb::sim;
namespace storage = ecodb::storage;
namespace tpch = ecodb::tpch;

// --- Workload sizes (README "Workloads") ---------------------------------
// serve_tpch: SF 2 keeps every LINEITEM column near 1 MB, inside CPU caches.
constexpr double kServeScaleFactor = 2.0;
constexpr size_t kServeRequests = 400;
// join_graph: SF 10 (600k LINEITEM rows) so joins, not setup, dominate.
constexpr double kJoinScaleFactor = 10.0;
// joulesort: ~200k records; the exact count moves with the seed (+-2%) so
// modeled figures differ between seeds.
constexpr size_t kSortRecordsBase = 196608;
constexpr size_t kSortRecordsSpread = 2048;
constexpr uint64_t kSortMemoryBudget = 2ULL << 20;  // well below the data

// --- serve_tpch trace and serving knobs ----------------------------------
constexpr int kTenants = 4;
constexpr double kTenantSkew = 0.9;  // Zipf theta
constexpr int kPriorities = 2;
constexpr int kDisks = 4;  // RAID-5 primary store
constexpr int kWorkerFleet = 2;
constexpr double kBatchWindowS = 0.02;
constexpr double kShareWindowS = 1.0;
// Arrival spacing and overload protection, in modeled seconds. Steady load
// sits below the fleet's capacity; the burst (a fifth of the requests at
// 8x the rate) runs above it, so the queue bound and the deadline engage.
constexpr double kMeanInterarrivalS = 0.025;
constexpr double kBurstMultiplier = 8.0;
constexpr double kRelativeDeadlineS = 0.05;
constexpr size_t kMaxQueueDepth = 8;

// --- join_graph ------------------------------------------------------------
constexpr double kHeavyLambda = 10.0;
// DRAM residency priced as in the A14 ablation, so the join order flips
// between lambda = 0 and the heavy lambda.
constexpr double kMemoryPremium = 1e6;
constexpr double kDramWattsPerGib = 0.65;

// --- traced-run extras -----------------------------------------------------
constexpr int kPrefixReps = 3;
constexpr int kMicroCalls = 200000;
constexpr int kFinishContexts = 2000;
constexpr double kReadColumnMinNs = 20e6;

double NsSince(double t0) { return ProcessCpuNs() - t0; }

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
    Add(uint64_t{s.size()});
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Rounds to 20 mantissa bits: sums accumulated in another order (another
/// join order feeding an aggregate) land on the same value, while any
/// real difference in the data still changes it.
double Round20(double v) {
  if (v == 0.0 || !std::isfinite(v)) return v == 0.0 ? 0.0 : v;
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);
  return std::ldexp(std::round(std::ldexp(mantissa, 20)), exp - 20);
}

void AddCell(const storage::ColumnData& col, size_t row, Fnv* fnv) {
  switch (col.type) {
    case catalog::DataType::kDouble:
      fnv->Add(Round20(col.f64[row]));
      break;
    case catalog::DataType::kString:
      fnv->Add(col.str[row]);
      break;
    default:
      fnv->Add(static_cast<uint64_t>(col.i64[row]));
  }
}

/// Order-insensitive checksum of a row multiset: each row hashed on its
/// own, hashes summed.
struct RowChecksum {
  uint64_t sum = 0;
  uint64_t rows = 0;
  bool operator==(const RowChecksum&) const = default;

  void AddRow(const std::vector<const storage::ColumnData*>& cols,
              size_t row) {
    Fnv fnv;
    for (const storage::ColumnData* col : cols) AddCell(*col, row, &fnv);
    sum += fnv.hash();
    ++rows;
  }
};

/// Columns are taken in name order, so plans that emit them in another
/// order (another join order) checksum alike.
RowChecksum ChecksumResult(const exec::QueryResultSet& result) {
  std::vector<std::pair<std::string, size_t>> by_name;
  for (size_t c = 0; c < result.schema.columns().size(); ++c) {
    by_name.emplace_back(result.schema.columns()[c].name, c);
  }
  std::sort(by_name.begin(), by_name.end());
  RowChecksum sum;
  for (const exec::RecordBatch& batch : result.batches) {
    std::vector<const storage::ColumnData*> cols;
    for (const auto& [name, c] : by_name) cols.push_back(&batch.column(c));
    for (size_t r = 0; r < batch.num_rows(); ++r) sum.AddRow(cols, r);
  }
  return sum;
}

void FingerprintColumns(const std::vector<storage::ColumnData>& cols,
                        Fnv* fnv) {
  for (const storage::ColumnData& col : cols) {
    for (size_t r = 0; r < col.size(); ++r) AddCell(col, r, fnv);
  }
}

double QError(double estimate, double actual) {
  estimate = std::max(estimate, 1e-12);
  actual = std::max(actual, 1e-12);
  return std::max(estimate / actual, actual / estimate);
}

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : Summarize(std::move(v)).p50;
}

/// Forwarding plan-root proxy: adds up the host time of every
/// Open/Next/Close call into `*host_ns` and spans each of them. It never
/// touches the ExecContext it forwards.
class RootProxy final : public exec::Operator {
 public:
  RootProxy(exec::OperatorPtr inner, Tracer* tracer, uint64_t request,
            double* host_ns)
      : inner_(std::move(inner)),
        tracer_(tracer),
        request_(request),
        host_ns_(host_ns) {}

  const catalog::Schema& output_schema() const override {
    return inner_->output_schema();
  }
  Status Open(exec::ExecContext* ctx) override {
    return Timed("exec.open", [&] { return inner_->Open(ctx); });
  }
  Status Next(exec::RecordBatch* out, bool* eos) override {
    return Timed("exec.next", [&] { return inner_->Next(out, eos); });
  }
  void Close() override {
    (void)Timed("exec.close", [&] {
      inner_->Close();
      return Status::OK();
    });
  }

 private:
  template <typename Call>
  Status Timed(const char* name, Call&& call) {
    const int span = tracer_->Begin(name, request_);
    const double t0 = ProcessCpuNs();
    Status status = call();
    *host_ns_ += NsSince(t0);
    tracer_->End(span);
    return status;
  }

  exec::OperatorPtr inner_;
  Tracer* tracer_;
  uint64_t request_;
  double* host_ns_;
};

/// One planned query run: EcoDb::Execute when untraced; when traced the
/// same steps spelled out (ChoosePlan, BuildOperator, proxy, a context
/// with the plan's dop and P-state) so each gets its own span.
struct QueryRun {
  bool ok = false;
  std::string error;
  double host_ms = 0.0;
  exec::QueryStats stats;
  optimizer::PhysicalPlan plan;
  exec::QueryResultSet rows;
};

QueryRun RunQuery(core::EcoDb* db, const optimizer::QuerySpec& spec,
                  double lambda, Tracer* tracer, uint64_t request) {
  QueryRun run;
  const optimizer::Objective objective = optimizer::Objective::Balanced(lambda);
  const double t0 = ProcessCpuNs();
  if (!tracer->enabled()) {
    StatusOr<core::QueryOutcome> outcome = db->Execute(spec, objective);
    run.host_ms = NsSince(t0) / 1e6;
    if (!outcome.ok()) {
      run.error = outcome.status().message();
      return run;
    }
    run.stats = outcome->stats;
    run.plan = *outcome->plan;
    run.rows = std::move(outcome->rows);
    run.ok = true;
    return run;
  }
  ScopedSpan query_span(tracer, "query", request);
  StatusOr<optimizer::PhysicalPlan> plan = [&] {
    ScopedSpan span(tracer, "optimizer.choose_plan");
    return db->planner()->ChoosePlan(spec, objective);
  }();
  if (!plan.ok()) {
    run.error = plan.status().message();
    return run;
  }
  StatusOr<exec::OperatorPtr> root = [&] {
    ScopedSpan span(tracer, "optimizer.build_operator");
    return db->planner()->BuildOperator(spec, *plan);
  }();
  if (!root.ok()) {
    run.error = root.status().message();
    return run;
  }
  double exec_ns = 0.0;
  RootProxy proxy(std::move(*root), tracer, request, &exec_ns);
  exec::ExecOptions options;  // the rigs keep DbConfig::exec_options default
  options.dop = plan->dop;
  options.pstate = plan->pstate;
  exec::ExecContext ctx(db->platform(), options);
  StatusOr<exec::QueryResultSet> rows = exec::CollectAll(&proxy, &ctx);
  if (!rows.ok()) {
    run.host_ms = NsSince(t0) / 1e6;
    run.error = rows.status().message();
    return run;
  }
  run.stats = ctx.Finish();
  run.host_ms = NsSince(t0) / 1e6;
  run.plan = *plan;
  run.rows = std::move(*rows);
  run.ok = true;
  return run;
}

/// Median host ms of kPrefixReps untraced runs of `spec`.
double TimeQuery(core::EcoDb* db, const optimizer::QuerySpec& spec,
                 double lambda, std::string* error) {
  Tracer off(false);
  std::vector<double> ms;
  for (int i = 0; i < kPrefixReps; ++i) {
    QueryRun run = RunQuery(db, spec, lambda, &off, 0);
    if (!run.ok) *error = run.error;
    ms.push_back(run.host_ms);
  }
  return Median(std::move(ms));
}

/// A query over `rel` alone (its scan and filter). This is QuerySpec's
/// single-table form; the benchmark never fills the two-way join fields.
optimizer::QuerySpec SingleRelationSpec(const optimizer::TableAlternatives& rel) {
  optimizer::QuerySpec spec;
  spec.left = rel;
  return spec;
}

/// Modeled per-op records and per-layer figures of planned queries.
struct QueryOps {
  std::vector<QueryRun> runs;
  std::vector<std::string> classes;
  std::vector<std::string> keys;
  std::vector<double> rows_scanned;
  std::vector<uint64_t> extra_io_bytes;  // spill bytes (sorts)
};

void RecordQueries(const QueryOps& q, uint64_t first_request,
                   PassRecord* pass) {
  Fnv fnv;
  std::vector<double> rows_qerror, joules_qerror;
  double cpu = 0, dram = 0, io = 0, background = 0, io_bytes = 0;
  std::map<std::string, std::vector<double>> instructions, spill;
  for (size_t i = 0; i < q.runs.size(); ++i) {
    const QueryRun& run = q.runs[i];
    OpRecord op;
    op.cls = q.classes[i];
    op.key = q.keys[i];
    op.request = first_request + i;
    op.ok = run.ok;
    op.served = run.ok;
    op.host_ms = run.host_ms;
    op.rows_scanned = q.rows_scanned[i];
    pass->engine_host_s += run.host_ms / 1e3;
    if (!run.ok) {
      pass->failures.push_back(op.cls + ": " + run.error);
      pass->ops.push_back(op);
      continue;
    }
    const exec::QueryStats& s = run.stats;
    op.modeled_s = s.elapsed_seconds;
    op.joules = s.Joules();
    pass->ops.push_back(op);

    cpu += s.cpu_active_joules;
    dram += s.dram_joules;
    io += s.io_active_joules + s.faults.reconstruct_joules;
    background += s.Joules() - s.DirectJoules();
    io_bytes += static_cast<double>(s.io_bytes);
    rows_qerror.push_back(QError(run.plan.output_rows,
                                 static_cast<double>(s.rows_emitted)));
    joules_qerror.push_back(QError(run.plan.cost.joules, s.Joules()));
    instructions[op.cls].push_back(s.cpu_instructions);
    if (!q.extra_io_bytes.empty()) {
      spill[op.cls].push_back(static_cast<double>(q.extra_io_bytes[i]));
    }
    for (double v : {s.elapsed_seconds, s.Joules(), s.cpu_instructions,
                     s.cpu_elapsed_seconds, run.plan.cost.seconds,
                     run.plan.cost.joules, run.plan.output_rows}) {
      fnv.Add(v);
    }
    fnv.Add(s.io_bytes);
    fnv.Add(s.rows_emitted);
    fnv.Add(static_cast<uint64_t>(run.plan.dop));
    const RowChecksum sum = ChecksumResult(run.rows);
    fnv.Add(sum.sum);
    fnv.Add(sum.rows);
  }
  const double n = std::max<double>(1.0, static_cast<double>(q.runs.size()));
  const size_t count = q.runs.size();
  Layers& l = pass->modeled_layers;
  l["power.cpu_j_per_op"] = {cpu / n, count};
  l["power.dram_j_per_op"] = {dram / n, count};
  l["power.io_j_per_op"] = {io / n, count};
  l["power.background_j_per_op"] = {background / n, count};
  l["storage.io_bytes_per_op"] = {io_bytes / n, count};
  l["optimizer.rows_qerror"] = {Median(rows_qerror), rows_qerror.size()};
  l["optimizer.joules_qerror"] = {Median(joules_qerror), joules_qerror.size()};
  for (const auto& [cls, v] : instructions) {
    l["exec.instructions." + cls] = {Median(v), v.size()};
  }
  for (const auto& [cls, v] : spill) {
    l["exec.spill_bytes." + cls] = {Median(v), v.size()};
  }
  pass->modeled_fingerprint = fnv.hash();
}

/// Host ns per decoded value of TableStorage::ReadColumn, per codec.
void MeasureReadColumn(const std::vector<const storage::TableStorage*>& tables,
                       Layers* out) {
  std::map<storage::CompressionKind, std::pair<double, double>> per_kind;
  for (const storage::TableStorage* table : tables) {
    for (int c = 0; c < table->schema().num_columns(); ++c) {
      double ns = 0.0;
      double values = 0.0;
      while (ns < kReadColumnMinNs) {
        const double t0 = ProcessCpuNs();
        StatusOr<storage::ColumnData> col = table->ReadColumn(c);
        ns += NsSince(t0);
        if (!col.ok()) return;
        values += static_cast<double>(col->size());
      }
      auto& acc = per_kind[table->column_layout(c).compression];
      acc.first += ns;
      acc.second += values;
    }
  }
  for (const auto& [kind, acc] : per_kind) {
    out->insert({std::string("storage.read_column_ns_per_value.") +
                     storage::CompressionKindName(kind),
                 {acc.first / std::max(1.0, acc.second), 1}});
  }
}

/// Host cost of the ExecContext calls every operator makes per batch.
void MeasureExecContext(Layers* out) {
  std::unique_ptr<power::HardwarePlatform> platform =
      power::MakeProportionalPlatform();
  exec::ExecContext ctx(platform.get(), exec::ExecOptions{});
  exec::CancelToken token;
  token.deadline_s = 1e12;  // finite: PollCancel projects the deadline
  ctx.set_cancel_token(token);
  double t0 = ProcessCpuNs();
  for (int i = 0; i < kMicroCalls; ++i) (void)ctx.PollCancel();
  (*out)["exec_context.poll_cancel_ns"] = {NsSince(t0) / kMicroCalls,
                                           kMicroCalls};
  t0 = ProcessCpuNs();
  for (int i = 0; i < kMicroCalls; ++i) ctx.ChargeInstructions(1000.0);
  (*out)["exec_context.charge_ns"] = {NsSince(t0) / kMicroCalls, kMicroCalls};
  double finish_ns = 0.0;
  for (int i = 0; i < kFinishContexts; ++i) {
    exec::ExecContext query(platform.get(), exec::ExecOptions{});
    query.ChargeInstructions(1e6);
    query.ChargeDram(1 << 16);
    t0 = ProcessCpuNs();
    query.Finish();
    finish_ns += NsSince(t0);
  }
  (*out)["exec_context.finish_us"] = {finish_ns / kFinishContexts / 1e3,
                                      kFinishContexts};
}

/// Creates and fills one EcoDB-owned table: the Append and Analyze that
/// EcoDb::Load runs, as two spanned steps.
Status LoadTable(core::EcoDb* db, Tracer* tracer, const std::string& name,
                 catalog::Schema schema,
                 const std::vector<storage::ColumnData>& columns) {
  ECODB_RETURN_IF_ERROR(db->CreateTable(name, std::move(schema)));
  {
    ScopedSpan span(tracer, "storage.load");
    ECODB_ASSIGN_OR_RETURN(storage::TableStorage * table, db->table(name));
    ECODB_RETURN_IF_ERROR(table->Append(columns));
  }
  ScopedSpan span(tracer, "catalog.analyze");
  return db->Analyze(name);
}

std::vector<storage::ColumnData> Generate(
    Tracer* tracer,
    const std::function<std::vector<storage::ColumnData>()>& generate) {
  ScopedSpan span(tracer, "tpch.generate");
  return generate();
}

// ===========================================================================
// serve_tpch
// ===========================================================================

const char* ServeClass(int query_class) {
  // tpch::MakeServingFactory's shape selector.
  static const char* kNames[] = {"q1", "q6", "q3"};
  return kNames[((query_class % 3) + 3) % 3];
}

class ServeRig final : public Rig {
 public:
  Status Setup(const RigConfig& config, Tracer* tracer) {
    core::DbConfig db_config;
    db_config.preset = core::PlatformPreset::kProportional;
    db_config.hdd_count = kDisks;
    db_config.ssd_count = 0;
    db_config.hdd_spec.sustained_bw_bytes_per_s = 80.0 * 1e6;
    db_config.hdd_spec.active_watts = 17.0;
    db_config.hdd_spec.idle_watts = 12.0;
    ECODB_ASSIGN_OR_RETURN(db_, core::EcoDb::Open(db_config));

    tpch::TpchConfig tc;
    tc.scale_factor = config.scale_factor;
    tc.seed = config.seed;
    ECODB_RETURN_IF_ERROR(
        LoadTable(db_.get(), tracer, "orders", tpch::OrdersSchema(),
                  Generate(tracer, [&] { return tpch::GenerateOrders(tc); })));
    ECODB_RETURN_IF_ERROR(LoadTable(
        db_.get(), tracer, "lineitem", tpch::LineitemSchema(),
        Generate(tracer, [&] { return tpch::GenerateLineitem(tc); })));
    {
      // The scanned integer/date columns, each with the codec its data
      // suits, plus the dictionary-friendly return flag.
      ScopedSpan span(tracer, "storage.compress");
      using storage::CompressionKind;
      const std::pair<const char*, std::pair<const char*, CompressionKind>>
          kinds[] = {
              {"lineitem", {"l_orderkey", CompressionKind::kRle}},
              {"lineitem", {"l_shipdate", CompressionKind::kFor}},
              {"lineitem", {"l_returnflag", CompressionKind::kDictionary}},
              {"orders", {"o_orderkey", CompressionKind::kDelta}},
              {"orders", {"o_orderdate", CompressionKind::kBitpack}},
          };
      for (const auto& [table, col] : kinds) {
        ECODB_RETURN_IF_ERROR(
            db_->SetCompression(table, col.first, col.second));
      }
    }
    ECODB_ASSIGN_OR_RETURN(orders_, db_->table("orders"));
    ECODB_ASSIGN_OR_RETURN(lineitem_, db_->table("lineitem"));

    sim::ArrivalTraceSpec spec;
    spec.seed = config.seed;
    spec.tenants = kTenants;
    spec.requests = config.requests;
    spec.mean_interarrival_s = kMeanInterarrivalS;
    spec.tenant_skew_theta = kTenantSkew;
    spec.priority_classes = kPriorities;
    spec.query_classes = 3;
    const double horizon =
        static_cast<double>(config.requests) * kMeanInterarrivalS;
    spec.bursts.push_back({0.4 * horizon, 0.2 * horizon / kBurstMultiplier,
                           kBurstMultiplier});
    trace_ = sim::GenerateArrivalTrace(spec);
    // Every seed serves the same mix over the same window: classes rotate
    // q1, q6, q3 and arrivals stretch to end exactly at the horizon.
    // Otherwise the class mix (+-2.4% per class at 400 requests) and the
    // window length (+-5%) alone move J/op and the response percentiles
    // from seed to seed.
    const double stretch = horizon / trace_.requests.back().arrival_s;
    for (sim::TraceRequest& req : trace_.requests) {
      req.query_class = static_cast<int>(req.index % 3);
      req.arrival_s *= stretch;
    }

    serving_.worker_fleet = kWorkerFleet;
    serving_.batching.window_s = kBatchWindowS;
    serving_.share_window_s = kShareWindowS;
    serving_.overload.relative_deadline_s = kRelativeDeadlineS;
    serving_.overload.max_queue_depth = kMaxQueueDepth;
    factory_ = tpch::MakeServingFactory(orders_, lineitem_);
    return Status::OK();
  }

  PassRecord RunPass(Tracer* tracer) override {
    PassRecord pass;
    const size_t n = trace_.requests.size();
    const uint64_t base = next_request_;
    next_request_ += n;
    std::vector<double> host_ns(n, 0.0);
    std::vector<double> rows_scanned(n, 0.0);
    std::vector<bool> ran(n, false);
    const sched::SessionManager::QueryFactory factory =
        [&](const sim::TraceRequest& req)
        -> StatusOr<sched::SessionManager::PlannedQuery> {
      StatusOr<sched::SessionManager::PlannedQuery> pq = [&] {
        ScopedSpan span(tracer, "sched.factory", base + req.index);
        return factory_(req);
      }();
      if (!pq.ok()) return pq;
      for (const sched::SessionManager::ScanRequest& scan : pq->scans) {
        rows_scanned[req.index] += static_cast<double>(scan.table->row_count());
      }
      ran[req.index] = true;
      pq->root = std::make_unique<RootProxy>(
          std::move(pq->root), tracer, base + req.index, &host_ns[req.index]);
      return pq;
    };
    const double t0 = ProcessCpuNs();
    StatusOr<sched::ServingReport> report = [&] {
      ScopedSpan span(tracer, "sched.serve", base);
      return db_->Serve(trace_, serving_, factory);
    }();
    pass.engine_host_s = NsSince(t0) / 1e9;
    if (!report.ok()) {
      pass.failures.push_back("Serve: " + report.status().message());
      for (size_t i = 0; i < n; ++i) {
        const std::string cls = ServeClass(trace_.requests[i].query_class);
        pass.ops.push_back({cls, cls, base + i, false, false, false});
      }
      return pass;
    }
    const sched::ServingReport& r = *report;
    const bool conserved = std::abs(r.billed_joules - r.total_joules) <=
                           1e-9 * std::max(1.0, r.total_joules);
    if (!conserved) {
      pass.failures.push_back("serve_tpch: session bills do not sum to the "
                              "meter integral");
    }

    Fnv fnv;
    fnv.Add(r.admission_fingerprint);
    fnv.Add(r.total_joules);
    fnv.Add(r.billed_joules);
    double cpu = 0, dram = 0, io = 0, background = 0;
    std::vector<double> queue_s;
    for (const sched::SessionBill& bill : r.sessions) {
      const size_t i = bill.session_id;
      OpRecord op;
      op.cls = ServeClass(bill.query_class);
      op.key = op.cls;
      op.request = base + i;
      op.executed = ran[i];
      op.served = bill.terminal == sched::SessionTerminal::kCompleted;
      op.ok = conserved;
      op.host_ms = host_ns[i] / 1e6;
      op.rows_scanned = rows_scanned[i];
      op.modeled_s = bill.end_s - bill.arrival_s;
      op.joules = bill.TotalJoules();
      pass.ops.push_back(op);
      if (ran[i]) queue_s.push_back(bill.queue_seconds);
      cpu += bill.cpu_joules;
      dram += bill.dram_joules;
      io += bill.io_joules + bill.fault_joules;
      background += bill.background_joules;
      fnv.Add(uint64_t{bill.session_id});
      fnv.Add(bill.TotalJoules());
      fnv.Add(bill.end_s);
      fnv.Add(static_cast<uint64_t>(bill.terminal));
    }
    pass.modeled_fingerprint = fnv.hash();

    const double ops = std::max<double>(1.0, static_cast<double>(n));
    const Summary queue = Summarize(queue_s);
    Layers& l = pass.modeled_layers;
    l["power.cpu_j_per_op"] = {cpu / ops, n};
    l["power.dram_j_per_op"] = {dram / ops, n};
    l["power.io_j_per_op"] = {io / ops, n};
    l["power.background_j_per_op"] = {background / ops, n};
    l["storage.io_bytes_per_op"] = {
        static_cast<double>(r.shared_scans.bytes_transferred) / ops, n};
    l["sched.share_rate"] = {r.shared_scans.ShareRate(),
                             r.shared_scans.scans_requested};
    l["sched.batches"] = {static_cast<double>(r.batches_dispatched), 1};
    l["sched.queue_s_p50"] = {queue.p50, queue.n};
    l["sched.queue_s_tail"] = {queue.tail, queue.n};
    l["sched.shed"] = {static_cast<double>(r.sessions_shed), n};
    l["sched.evicted"] = {static_cast<double>(r.sessions_evicted), n};
    l["sched.deadline_killed"] = {static_cast<double>(r.sessions_deadline), n};
    l["sched.governor_events"] = {
        static_cast<double>(r.governor_events.size()), 1};
    return pass;
  }

  uint64_t InputFingerprint() const override {
    Fnv fnv;
    fnv.Add(trace_.Fingerprint());
    return fnv.hash();
  }

  void MeasureLayers(Layers* out) override {
    MeasureReadColumn({orders_, lineitem_}, out);
    MeasureExecContext(out);
    // Modeled instructions of one session of each class, run alone.
    for (int c = 0; c < 3; ++c) {
      sim::TraceRequest req;
      req.query_class = c;
      StatusOr<sched::SessionManager::PlannedQuery> pq = factory_(req);
      if (!pq.ok()) continue;
      StatusOr<core::QueryOutcome> outcome = db_->Run(pq->root.get());
      if (!outcome.ok()) continue;
      (*out)[std::string("exec.instructions.") + ServeClass(c)] = {
          outcome->stats.cpu_instructions, 1};
    }
  }

 private:
  std::unique_ptr<core::EcoDb> db_;
  storage::TableStorage* orders_ = nullptr;
  storage::TableStorage* lineitem_ = nullptr;
  sim::ArrivalTrace trace_;
  sched::ServingConfig serving_;
  sched::SessionManager::QueryFactory factory_;
  uint64_t next_request_ = 0;
};

// ===========================================================================
// join_graph
// ===========================================================================

/// "segment_revenue_q3" -> "q3".
std::string ShapeClass(const std::string& shape_name) {
  return shape_name.substr(shape_name.rfind('_') + 1);
}

class JoinRig final : public Rig {
 public:
  Status Setup(const RigConfig& config, Tracer* tracer) {
    core::DbConfig db_config;
    db_config.preset = core::PlatformPreset::kFlashScan;
    db_config.ssd_count = 1;
    db_config.cost_params.memory_power_premium = kMemoryPremium;
    db_config.cost_params.dram_watts_per_gib_override = kDramWattsPerGib;
    // Hash joins only: with DRAM priced this high a nested-loop join would
    // win at the heavy lambda and run for hours on the host.
    db_config.planner_options.enumerate_join_algorithms = false;
    db_config.derive_dop_ladder = false;
    db_config.planner_options.dops = optimizer::DopLadder(
        std::min(config.threads,
                 power::MakeFlashScanPlatform()->cpu().total_cores()));
    ECODB_ASSIGN_OR_RETURN(db_, core::EcoDb::Open(db_config));

    tpch::TpchConfig tc;
    tc.scale_factor = config.scale_factor;
    tc.seed = config.seed;
    using Gen = std::vector<storage::ColumnData> (*)(const tpch::TpchConfig&);
    struct TableDef {
      const char* name;
      catalog::Schema schema;
      Gen generate;
      tpch::TpchTable* out;
    };
    TableDef defs[] = {
        {"customer", tpch::CustomerSchema(), tpch::GenerateCustomer,
         &tables_.customer},
        {"part", tpch::PartSchema(), tpch::GeneratePart, &tables_.part},
        {"supplier", tpch::SupplierSchema(), tpch::GenerateSupplier,
         &tables_.supplier},
        {"partsupp", tpch::PartsuppSchema(), tpch::GeneratePartsupp,
         &tables_.partsupp},
        {"orders", tpch::OrdersSchema(), tpch::GenerateOrders,
         &tables_.orders},
        {"lineitem", tpch::LineitemSchema(), tpch::GenerateLineitem,
         &tables_.lineitem},
    };
    Fnv fnv;
    for (TableDef& def : defs) {
      const std::vector<storage::ColumnData> columns =
          Generate(tracer, [&] { return def.generate(tc); });
      FingerprintColumns(columns, &fnv);
      ECODB_ASSIGN_OR_RETURN(const catalog::TableId id,
                             db_->catalog()->CreateTable(def.name, def.schema));
      {
        ScopedSpan span(tracer, "storage.load");
        def.out->storage = std::make_unique<storage::TableStorage>(
            id, def.schema, storage::TableLayout::kColumn,
            db_->primary_device());
        ECODB_RETURN_IF_ERROR(def.out->storage->Append(columns));
      }
      ScopedSpan span(tracer, "catalog.analyze");
      ECODB_RETURN_IF_ERROR(def.out->storage->AnalyzeInto(&def.out->stats));
      ECODB_RETURN_IF_ERROR(db_->catalog()->UpdateStats(id, def.out->stats));
    }
    input_fingerprint_ = fnv.hash();
    shapes_ = tpch::MakeJoinQueryShapes(tables_);
    return Status::OK();
  }

  PassRecord RunPass(Tracer* tracer) override {
    PassRecord pass;
    QueryOps q;
    const uint64_t base = next_request_;
    for (const tpch::JoinQueryShape& shape : shapes_) {
      for (double lambda : {0.0, kHeavyLambda}) {
        q.runs.push_back(
            RunQuery(db_.get(), shape.spec, lambda, tracer, next_request_++));
        q.classes.push_back(ShapeClass(shape.name));
        q.keys.push_back(q.classes.back() + (lambda > 0 ? ".heavy" : ".perf"));
        q.rows_scanned.push_back(RowsScanned(shape.spec));
      }
    }
    RecordQueries(q, base, &pass);
    // Both lambda plans of a shape must return the same row multiset.
    for (size_t i = 0; i + 1 < q.runs.size(); i += 2) {
      if (!q.runs[i].ok || !q.runs[i + 1].ok) continue;
      if (ChecksumResult(q.runs[i].rows) == ChecksumResult(q.runs[i + 1].rows)) {
        continue;
      }
      pass.ops[i].ok = pass.ops[i + 1].ok = false;
      pass.failures.push_back("join_graph " + q.classes[i] +
                              ": lambda plans returned different rows");
    }
    return pass;
  }

  uint64_t InputFingerprint() const override { return input_fingerprint_; }

  void MeasureLayers(Layers* out) override {
    MeasureReadColumn({tables_.customer.storage.get(), tables_.part.storage.get(),
                       tables_.supplier.storage.get(),
                       tables_.partsupp.storage.get(),
                       tables_.orders.storage.get(),
                       tables_.lineitem.storage.get()},
                      out);
    MeasureExecContext(out);
    // Self time per layer from planner-built prefixes of every query:
    // scans + filters alone, the joins without aggregate or tail, the joins
    // with the aggregate, the full query.
    double scan = 0, join = 0, aggregate = 0, topk = 0;
    std::string error;
    size_t ops = 0;
    for (const tpch::JoinQueryShape& shape : shapes_) {
      optimizer::QuerySpec joins = shape.spec;
      joins.group_by.clear();
      joins.aggregates.clear();
      joins.order_by.clear();
      joins.limit.reset();
      optimizer::QuerySpec grouped = shape.spec;
      grouped.order_by.clear();
      grouped.limit.reset();
      const bool has_agg = !shape.spec.aggregates.empty();
      const bool has_tail = !shape.spec.order_by.empty();
      for (double lambda : {0.0, kHeavyLambda}) {
        double t_scan = 0.0;
        for (const optimizer::TableAlternatives& rel : shape.spec.relations) {
          t_scan += TimeQuery(db_.get(), SingleRelationSpec(rel), lambda, &error);
        }
        const double t_join = TimeQuery(db_.get(), joins, lambda, &error);
        const double t_agg =
            has_agg ? TimeQuery(db_.get(), grouped, lambda, &error) : t_join;
        const double t_full =
            has_tail ? TimeQuery(db_.get(), shape.spec, lambda, &error) : t_agg;
        scan += t_scan;
        join += t_join - t_scan;
        aggregate += t_agg - t_join;
        topk += t_full - t_agg;
        ++ops;
      }
    }
    if (!error.empty()) return;
    const double n = static_cast<double>(ops);
    (*out)["exec.self_ms.scan_filter"] = {scan / n, ops};
    (*out)["exec.self_ms.join"] = {join / n, ops};
    (*out)["exec.self_ms.aggregate"] = {aggregate / n, ops};
    (*out)["exec.self_ms.topk"] = {topk / n, ops};
  }

 private:
  static double RowsScanned(const optimizer::QuerySpec& spec) {
    double rows = 0.0;
    for (const optimizer::TableAlternatives& rel : spec.relations) {
      rows += static_cast<double>(rel.variants[0]->row_count());
    }
    return rows;
  }

  std::unique_ptr<core::EcoDb> db_;
  tpch::TpchDatabase tables_;
  std::vector<tpch::JoinQueryShape> shapes_;
  uint64_t input_fingerprint_ = 0;
  uint64_t next_request_ = 0;
};

// ===========================================================================
// joulesort
// ===========================================================================

class SortRig final : public Rig {
 public:
  Status Setup(const RigConfig& config, Tracer* tracer) {
    std::vector<storage::ColumnData> records(2);
    {
      ScopedSpan span(tracer, "bench.generate_records");
      records[0].type = catalog::DataType::kInt64;
      records[1].type = catalog::DataType::kString;
      ecodb::Rng rng(config.seed);
      for (size_t i = 0; i < config.records; ++i) {
        records[0].i64.push_back(static_cast<int64_t>(rng.Next() >> 1));
        records[1].str.push_back(rng.AlphaString(12));
      }
    }
    RowChecksum input;
    for (size_t r = 0; r < config.records; ++r) {
      input.AddRow({&records[0], &records[1]}, r);
    }
    input_ = input;
    // One instance per dop: each planner's ladder holds only that dop, so
    // EcoDb::Execute runs the sort at it.
    const int dop_n = std::min(4, config.threads);
    for (int dop : {1, dop_n}) {
      Instance inst;
      inst.cls = dop == 1 ? "sort.dop1" : "sort.dopN";
      core::DbConfig db_config;
      db_config.preset = core::PlatformPreset::kDl785;
      db_config.ssd_count = 1;
      db_config.derive_dop_ladder = false;
      db_config.planner_options.dops = {dop};
      ECODB_ASSIGN_OR_RETURN(inst.db, core::EcoDb::Open(db_config));
      // JouleSort records: 10-byte key, 90-byte payload (modeled widths).
      ECODB_RETURN_IF_ERROR(LoadTable(
          inst.db.get(), tracer, "records",
          catalog::Schema({catalog::Column{"key", catalog::DataType::kInt64, 8},
                           catalog::Column{"payload",
                                           catalog::DataType::kString, 90}}),
          records));
      ECODB_ASSIGN_OR_RETURN(inst.table, inst.db->table("records"));
      ECODB_ASSIGN_OR_RETURN(const catalog::TableEntry* entry,
                             inst.db->catalog()->GetTable("records"));
      optimizer::TableAlternatives rel;
      rel.name = "records";
      rel.variants = {inst.table};
      rel.stats = &entry->stats;  // else ChoosePlan re-analyzes every query
      inst.scan = SingleRelationSpec(rel);
      inst.sort = inst.scan;
      inst.sort.order_by = {{"key", /*ascending=*/true}};
      inst.sort.sort_memory_budget_bytes = kSortMemoryBudget;
      inst.sort.sort_spill_device = inst.db->primary_device();
      instances_.push_back(std::move(inst));
    }
    Fnv fnv;
    fnv.Add(input_.sum);
    fnv.Add(input_.rows);
    input_fingerprint_ = fnv.hash();
    return Status::OK();
  }

  PassRecord RunPass(Tracer* tracer) override {
    PassRecord pass;
    QueryOps q;
    const uint64_t base = next_request_;
    for (Instance& inst : instances_) {
      q.runs.push_back(
          RunQuery(inst.db.get(), inst.sort, 0.0, tracer, next_request_++));
      q.classes.push_back(inst.cls);
      q.keys.push_back(inst.cls);
      q.rows_scanned.push_back(static_cast<double>(inst.table->row_count()));
      const uint64_t scan_bytes = inst.table->ScanBytes({0, 1});
      const uint64_t io = q.runs.back().stats.io_bytes;
      q.extra_io_bytes.push_back(io > scan_bytes ? io - scan_bytes : 0);
    }
    RecordQueries(q, base, &pass);
    for (size_t i = 0; i < q.runs.size(); ++i) {
      if (q.runs[i].ok && !SortedAndComplete(q.runs[i].rows)) {
        pass.ops[i].ok = false;
        pass.failures.push_back("joulesort " + q.classes[i] +
                                ": output not sorted or not complete");
      }
    }
    return pass;
  }

  uint64_t InputFingerprint() const override { return input_fingerprint_; }

  void MeasureLayers(Layers* out) override {
    MeasureReadColumn({instances_[0].table}, out);
    MeasureExecContext(out);
    double sort = 0.0;
    std::string error;
    for (Instance& inst : instances_) {
      sort += TimeQuery(inst.db.get(), inst.sort, 0.0, &error) -
              TimeQuery(inst.db.get(), inst.scan, 0.0, &error);
    }
    if (!error.empty()) return;
    (*out)["exec.self_ms.sort"] = {sort / static_cast<double>(instances_.size()),
                                   instances_.size()};
  }

 private:
  struct Instance {
    std::string cls;
    std::unique_ptr<core::EcoDb> db;
    storage::TableStorage* table = nullptr;
    optimizer::QuerySpec scan;  // the sort's scan prefix
    optimizer::QuerySpec sort;
  };

  bool SortedAndComplete(const exec::QueryResultSet& rows) const {
    const int key = rows.schema.FindColumn("key");
    if (key < 0) return false;
    int64_t prev = INT64_MIN;
    for (const exec::RecordBatch& batch : rows.batches) {
      for (int64_t k : batch.column(key).i64) {
        if (k < prev) return false;
        prev = k;
      }
    }
    return ChecksumResult(rows) == input_;
  }

  std::vector<Instance> instances_;
  RowChecksum input_;
  uint64_t input_fingerprint_ = 0;
  uint64_t next_request_ = 0;
};

template <typename R>
std::unique_ptr<Rig> Build(const RigConfig& config, Tracer* tracer,
                           std::string* error) {
  auto rig = std::make_unique<R>();
  const Status status = rig->Setup(config, tracer);
  if (!status.ok()) {
    *error = config.workload + " setup: " + status.message();
    return nullptr;
  }
  return rig;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"serve_tpch", "join_graph",
                                                  "joulesort"};
  return kNames;
}

bool DefaultRigConfig(const std::string& workload, uint64_t seed, int threads,
                      RigConfig* out) {
  RigConfig c;
  c.workload = workload;
  c.seed = seed;
  c.threads = std::max(1, threads);
  if (workload == "serve_tpch") {
    c.scale_factor = kServeScaleFactor;
    c.requests = kServeRequests;
  } else if (workload == "join_graph") {
    c.scale_factor = kJoinScaleFactor;
  } else if (workload == "joulesort") {
    c.records = kSortRecordsBase + SplitMix(seed) % kSortRecordsSpread;
  } else {
    return false;
  }
  *out = c;
  return true;
}

std::unique_ptr<Rig> SetupRig(const RigConfig& config, Tracer* tracer,
                              std::string* error) {
  if (config.workload == "serve_tpch") return Build<ServeRig>(config, tracer, error);
  if (config.workload == "join_graph") return Build<JoinRig>(config, tracer, error);
  if (config.workload == "joulesort") return Build<SortRig>(config, tracer, error);
  *error = "unknown workload " + config.workload;
  return nullptr;
}

}  // namespace ecobench
