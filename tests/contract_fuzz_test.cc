// Seeded contract fuzzer at the QuerySpec level: one generator of query
// specs, one reference evaluator (naive_reference.h, which shares no code
// with the operators) and one runner that executes every plan the planner
// could run for a spec. The seeds and the case count are fixed; nothing
// changes them.
//
// The generator draws 1 to 6 relations with int64, date, string and double
// keys at each type's edges (INT64_MIN/MAX, NaN with two payloads, ±0.0,
// ±inf, denormals, strings that share a 7-byte prefix and hold NULs),
// foreign-key and heavily duplicated edge domains, cyclic and parallel
// edges (which joins check as residual edges), column-vs-literal filters
// at type bounds under NOT, AND and OR, compressed variants, zone maps and
// indexes, aggregates, ORDER BY with and without LIMIT, and a 1 KiB sort
// budget that spills to an SSD, sometimes under a seeded FaultPlan. Among
// its cases are small copies of each shape the benchmark runs.
//
// Each case is one of three kinds, and each kind has its own TEST:
//   - rows: every plan — ChoosePlan at the drawn lambda with and without
//     join-algorithm and P-state enumeration, CanonicalJoinPlan, and the
//     canonical tree edited by hand (each join algorithm the key types
//     allow, each leaf's other variant and access path) — runs at dop 1,
//     2, 4 and 8. Every run returns the reference's rows, bills
//     bit-identical charges at every dop, and puts on the meter its direct
//     pulses plus the platform's standing watts over its window; a tree
//     opened twice bills its spill once. An ORDER BY + LIMIT plan also
//     runs as Sort + Limit — LimitOp over the plan's unlimited sort, which
//     no plan builds — and its fused top-k returns the same rows and bills
//     no more in any term, and exactly as much when the limit covers every
//     row.
//   - exact: device-less, unfiltered specs whose FK edges point at dense
//     keys and whose group columns hold every value, so estimates are
//     exact. There PricePlan's seconds and Joules equal the bill at every
//     dop and P-state, as well as all of the above.
//   - invalid: a string-number edge, a column name two relations scan, or
//     a disconnected graph. ChoosePlan rejects it; a hand-set plan fails
//     in PricePlan and in BuildOperator or its tree's Open; none crashes or
//     returns a row.
//
// Named slices at the end draw a few more rows cases each, with one
// feature forced (a residual edge, a double-key edge, indexed leaves, a
// spilling or faulted top-k, NaN sort keys, ...), through the same
// generator and contract.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "naive_reference.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/btree.h"
#include "storage/fault_injector.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::optimizer {
namespace {

using catalog::Column;
using catalog::DataType;
using exec::Col;
using exec::ExprPtr;
using exec::Lit;
using exec::Value;
using exec::naive::Row;
namespace naive = exec::naive;

constexpr uint64_t kSeed = 0xC0A7AC7F00000000ULL;
constexpr int kCases = 250;
constexpr int kDops[] = {1, 2, 4, 8};

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kNaN2 = std::bit_cast<double>(uint64_t{0x7ff8000000000123});
const double kInf = std::numeric_limits<double>::infinity();
const double kDenorm = std::numeric_limits<double>::denorm_min();
const double kDblMax = std::numeric_limits<double>::max();
/// Seven bytes that many string keys share, a NUL and two high bytes
/// among them, so sort words tie and the full compare decides.
const std::string kPrefix("a\x80\x00\xff\x01" "a\x7f", 7);

/// The `j`-th key of `type`: distinct j give values no join equality
/// matches to each other, and the smallest j are the type's edges.
Value Key(DataType type, int64_t j) {
  switch (type) {
    case DataType::kInt64: {
      const int64_t edges[] = {INT64_MIN, INT64_MAX,     -1,  0,
                               255,       INT64_MAX - 1, -256, INT64_MIN + 1};
      return Value::Int64(j < 8 ? edges[j] : j * 1000003 - 40);
    }
    case DataType::kDate:
      return Value::Date(j * 3 - 60);
    case DataType::kString:
      return Value::String(
          (j % 3 == 0 ? std::string(1, '\0') : kPrefix) + std::to_string(j));
    case DataType::kDouble: {
      const double edges[] = {kNaN,    kNaN2,    -kNaN,  -0.0,
                              kInf,    -kInf,    kDenorm, -kDenorm,
                              kDblMax, -kDblMax};
      return Value::Double(j < 10 ? edges[j] : static_cast<double>(j - 9) / 4);
    }
  }
  return {};
}

/// A literal a filter compares a `type` column with, at the type's bounds
/// or among its values.
ExprPtr Literal(DataType type, Rng& rng) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate: {
      const int64_t bounds[] = {INT64_MIN, INT64_MAX, 0, -1, INT64_MAX - 1};
      const int64_t v = rng.Bernoulli(0.4) ? bounds[rng.Uniform(0, 4)]
                                           : rng.Uniform(-60, 320);
      return type == DataType::kDate && rng.Bernoulli(0.5) ? exec::LitDate(v)
                                                           : Lit(v);
    }
    case DataType::kDouble: {
      const double bounds[] = {kNaN, -0.0, 0.0, kInf, -kInf, kDenorm};
      return Lit(rng.Bernoulli(0.5)
                     ? bounds[rng.Uniform(0, 5)]
                     : static_cast<double>(rng.Uniform(-40, 40)) / 4);
    }
    case DataType::kString: {
      const std::string strings[] = {"", kPrefix, kPrefix + "5",
                                     std::string(1, '\0') + "3", "\xff"};
      return exec::Expr::Literal(Value::String(strings[rng.Uniform(0, 4)]));
    }
  }
  return nullptr;
}

/// A drawn filter over `columns` (name, type): column-vs-literal compares,
/// now and then a bare int64 column, a literal or an arithmetic predicate
/// or operand, under NOT, AND and OR.
ExprPtr DrawFilter(Rng& rng, const std::vector<Column>& columns, int depth) {
  if (depth < 2 && rng.Bernoulli(0.35)) {
    const int64_t connective = rng.Uniform(0, 2);
    ExprPtr lhs = DrawFilter(rng, columns, depth + 1);
    if (connective == 0) return exec::Expr::Not(std::move(lhs));
    ExprPtr rhs = DrawFilter(rng, columns, depth + 1);
    return connective == 1 ? exec::And(std::move(lhs), std::move(rhs))
                           : exec::Or(std::move(lhs), std::move(rhs));
  }
  // columns[0] is the int64 row id, columns[1] the int64 run column and
  // columns[2] the double payload.
  const int64_t shape = rng.Uniform(0, 19);
  if (shape == 0) return Col(columns[1].name);
  if (shape == 1) return Lit(int64_t{rng.Uniform(0, 1)});
  if (shape == 2) return Col(columns[0].name) - Lit(int64_t{rng.Uniform(0, 9)});
  if (shape == 3) {
    return Col(columns[0].name) * Lit(int64_t{3}) + Col(columns[1].name) <
           Lit(int64_t{rng.Uniform(0, 600)});
  }
  if (shape == 4) {
    const auto op = static_cast<exec::ArithOp>(rng.Uniform(0, 3));
    return exec::Expr::Arith(op, Col(columns[2].name), Lit(0.5)) >=
           Lit(static_cast<double>(rng.Uniform(-20, 20)) / 4);
  }
  const Column& c = columns[static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(columns.size()) - 1))];
  const auto op = static_cast<exec::CompareOp>(rng.Uniform(0, 5));
  ExprPtr lit = Literal(c.type, rng);
  return rng.Bernoulli(0.8) ? exec::Expr::Compare(op, Col(c.name), lit)
                            : exec::Expr::Compare(op, lit, Col(c.name));
}

enum class Kind { kRows, kExact, kInvalid };

/// What a named slice forces on its draws, on top of what it draws; the
/// default forces nothing. A slice sets `shape` to a rows template: 1 the
/// FK join + aggregate, 3 the spilling ORDER BY, kFree a free case.
struct Focus {
  std::optional<int64_t> shape{};
  int relations = 0;  // else drawn, at least `min_relations`
  int min_relations = 1;
  std::optional<bool> aggregate{}, order{}, limit{}, spill{}, faults{};
  // A cyclic or parallel edge, double keys on the first edge, every
  // relation compressed and indexed or filtered, a group column.
  bool residual_edge = false, double_edge = false, indexed = false,
       filtered = false, grouped = false;
  std::optional<DataType> g_type{};  // the g columns'
  int64_t g_values = 0;              // in each g column, else drawn
  std::string first_key{};           // the first ORDER BY key's column
  bool descending = false;           // every ORDER BY key
  std::optional<double> lambda{};
};
constexpr int64_t kFree = 7;

/// One drawn edge: relation `a`'s column references relation `b`'s.
struct DrawnEdge {
  int a = 0;
  int b = 0;
  DataType type = DataType::kInt64;
  /// 0: a foreign key onto b's distinct keys; else both sides draw from
  /// this many values.
  int64_t shared_values = 0;
};

/// One generated column: its schema entry and its value in row i.
struct DrawnColumn {
  Column column;
  std::function<Value(int)> value;
};

/// One run's platform and sort spill device. Unless the case's tables sit
/// on its SSD, both are fresh: a fault plan replays from its first I/O,
/// and the meter integrates only this run, so its Joules keep their digits
/// however many runs came before.
struct RunPlatform {
  std::unique_ptr<power::HardwarePlatform> owned;
  power::HardwarePlatform* platform = nullptr;
  std::unique_ptr<storage::FaultInjector> injector;
  std::unique_ptr<storage::StorageDevice> spill;
};

/// One drawn case: its tables, its spec and the options every run uses.
struct Case {
  Kind kind = Kind::kRows;
  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::SsdDevice> ssd;    // the tables' device, if any
  std::unique_ptr<storage::SsdDevice> spill;  // prices the spill, if any
  std::optional<storage::FaultPlan> faults;   // on each run's spill device
  std::vector<std::unique_ptr<storage::TableStorage>> tables;
  std::vector<std::unique_ptr<storage::BTreeIndex>> indexes;
  QuerySpec spec;
  exec::ExecOptions options;
  double lambda = 0.0;
  int pstate = 0;  // the hand-set plans'
  /// The reference's rows without the LIMIT, columns in name order, sorted
  /// stably under an ORDER BY.
  naive::Rows want;

  RunPlatform MakeRunPlatform() const {
    RunPlatform out;
    out.platform = platform.get();
    if (ssd != nullptr) return out;
    out.owned = power::MakeProportionalPlatform();
    out.platform = out.owned.get();
    if (spill == nullptr) return out;
    auto ssd_device = std::make_unique<storage::SsdDevice>(
        "spill", power::SsdSpec{}, out.platform->meter());
    if (!faults.has_value()) {
      out.spill = std::move(ssd_device);
      return out;
    }
    out.injector = std::make_unique<storage::FaultInjector>(*faults);
    out.spill = std::make_unique<storage::FaultInjectedDevice>(
        std::move(ssd_device), out.injector.get(), out.platform->meter());
    return out;
  }
};

/// `rows` of `schema` with their columns in name order, the group-by
/// columns' values as the engine's group equality sees them.
naive::Rows ByName(const catalog::Schema& schema, const std::vector<Row>& rows,
                   const std::vector<std::string>& group_by) {
  std::vector<std::pair<std::string, int>> names;
  for (int c = 0; c < schema.num_columns(); ++c) {
    names.emplace_back(schema.column(c).name, c);
  }
  std::sort(names.begin(), names.end());
  std::vector<Column> columns;
  for (const auto& [name, c] : names) columns.push_back(schema.column(c));
  naive::Rows out{catalog::Schema(columns), {}};
  for (const Row& row : rows) {
    Row& named = out.rows.emplace_back();
    for (const auto& [name, c] : names) {
      const bool key = std::count(group_by.begin(), group_by.end(), name) > 0;
      named.push_back(key ? naive::GroupKey(row[c]) : row[c]);
    }
  }
  return out;
}

/// The spec's rows without its LIMIT, from the reference evaluator.
naive::Rows Reference(const QuerySpec& spec) {
  std::vector<naive::Rows> relations;
  for (const TableAlternatives& rel : spec.relations) {
    relations.push_back(naive::Select(*rel.variants[0], rel.filter));
  }
  std::vector<naive::Edge> edges;
  for (const JoinEdge& e : spec.edges) {
    edges.push_back({e.left_rel, e.right_rel, e.left_key, e.right_key});
  }
  naive::Rows rows = naive::Join(relations, edges);
  if (!spec.aggregates.empty()) {
    std::vector<Column> columns;
    for (const std::string& g : spec.group_by) {
      columns.push_back(rows.schema.column(rows.schema.FindColumn(g)));
    }
    for (const exec::AggregateItem& item : spec.aggregates) {
      columns.push_back(Column{item.name,
                               item.func == exec::AggFunc::kCount
                                   ? DataType::kInt64
                                   : DataType::kDouble,
                               8});
    }
    rows = ByName(catalog::Schema(columns),
                  naive::Aggregate(rows, spec.group_by, spec.aggregates),
                  spec.group_by);
  }
  if (!spec.order_by.empty()) rows.rows = naive::Sort(rows, spec.order_by);
  return rows;
}

template <typename T>
T Pick(Rng& rng, std::initializer_list<T> values) {
  const int64_t last = static_cast<int64_t>(values.size()) - 1;
  return values.begin()[rng.Uniform(0, last)];
}

/// Draws case `index`: its kind, then the tables, the spec and the options.
/// Templates 0-3 draw the benchmark's shapes at small scale: serve_tpch's
/// filtered aggregate over compressed columns and its FK join + aggregate,
/// join_graph's 3-5 relation FK graph with a residual edge and a group-by +
/// top-k tail, and joulesort's spilling ORDER BY over one scan.
Case Draw(int index, const Focus& focus = {}) {
  Case c;
  Rng rng(kSeed + static_cast<uint64_t>(index));
  c.platform = power::MakeProportionalPlatform();
  // 4-5 exact, 6 invalid, 7-9 free
  const int64_t t = focus.shape.value_or(rng.Uniform(0, 9));
  c.kind = t == 4 || t == 5 ? Kind::kExact
           : t == 6         ? Kind::kInvalid
                            : Kind::kRows;
  const bool exact = c.kind == Kind::kExact;
  const bool invalid = c.kind == Kind::kInvalid;
  // Invalid specs break one way each: 0 a string-number edge, 1 a column
  // name two relations scan, 2 a disconnected graph.
  const int64_t broken = invalid ? rng.Uniform(0, 2) : -1;

  int n = static_cast<int>(rng.Uniform(1, 6));
  if (t == 0 || t == 3 || t == 4) n = 1;
  if (t == 1) n = 2;
  if (t == 2) n = static_cast<int>(rng.Uniform(3, 5));
  if (t == 5) n = static_cast<int>(rng.Uniform(2, 3));
  if (invalid) n = static_cast<int>(rng.Uniform(2, 4));
  n = focus.relations > 0 ? focus.relations : std::max(n, focus.min_relations);

  const bool aggregate = focus.aggregate.value_or(
      t <= 2 || (t != 3 && t != 4 && rng.Bernoulli(0.45)));
  const bool order =
      focus.order.value_or(t == 2 || t == 3 || t == 4 || rng.Bernoulli(0.5));
  // A LIMIT without ORDER BY can stop its child early and bill less than
  // any price: exact specs limit only a sort.
  const bool limit = focus.limit.value_or(
      t == 2 || (order ? rng.Bernoulli(0.5) : !exact && rng.Bernoulli(0.15)));
  const bool spill = focus.spill.value_or(order && !exact &&
                                          (t == 3 || rng.Bernoulli(0.3)));
  if (spill && focus.faults.value_or(rng.Bernoulli(0.5))) {
    storage::FaultPlan plan;
    plan.seed = rng.Next();
    storage::DeviceFaultSpec faults;
    faults.device = "spill";
    faults.transient_ios = {0, 2};
    faults.transient_error_rate = 0.1;
    plan.devices.push_back(faults);
    plan.retry.max_attempts = 8;  // so the drawn rate exhausts no request
    c.faults = plan;
  }
  // Spilling cases keep their tables off devices, so a reopened tree's
  // I/O is its spill alone.
  if (!exact && !spill && rng.Bernoulli(0.5)) {
    c.ssd = std::make_unique<storage::SsdDevice>("ssd", power::SsdSpec{},
                                                 c.platform->meter());
  }
  if (spill) {
    c.spill = std::make_unique<storage::SsdDevice>("spill", power::SsdSpec{},
                                                   c.platform->meter());
    c.spec.sort_memory_budget_bytes = 1024;
    c.spec.sort_spill_device = c.spill.get();
  }

  // A spanning tree whose edge i - 1 links relation i to an earlier one,
  // which holds the reference: an FK edge then never multiplies rows.
  std::vector<DrawnEdge> edges;
  bool duplicated = false;
  for (int i = 1; i < n; ++i) {
    DrawnEdge e;
    e.a = static_cast<int>(rng.Uniform(0, i - 1));
    e.b = i;
    e.type = exact || t <= 2
                 ? Pick(rng, {DataType::kInt64, DataType::kDate})
                 : Pick(rng, {DataType::kInt64, DataType::kDate,
                              DataType::kString, DataType::kDouble});
    if (focus.double_edge && i == 1) e.type = DataType::kDouble;
    if (!exact && t > 2 && !duplicated && rng.Bernoulli(0.25)) {
      e.shared_values = rng.Uniform(1, 3);
      duplicated = true;
    }
    edges.push_back(e);
  }
  // A cyclic or parallel edge, which a join checks as a residual edge.
  if (t == 2 ||
      (!exact && n >= 2 && (rng.Bernoulli(0.3) || focus.residual_edge))) {
    DrawnEdge e;
    e.a = static_cast<int>(rng.Uniform(0, n - 2));
    e.b = static_cast<int>(rng.Uniform(e.a + 1, n - 1));
    e.shared_values = rng.Uniform(2, 3);
    edges.push_back(e);
  }

  std::vector<int> rows(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    int cap = r == 0 ? 300 : 60;
    for (const DrawnEdge& e : edges) {
      // Exact: a referenced relation is no larger than a referencing one,
      // so the references i % rows cover every key, and small: the planner
      // prices a hash build's DRAM residency, which nothing bills.
      if (exact && e.b == r) cap = std::min({cap, rows[e.a], 4});
      // Duplicated domains multiply rows: keep both sides small.
      if (e.shared_values > 0 && (e.a == r || e.b == r)) {
        cap = std::min(cap, r == 0 ? 60 : 20);
      }
    }
    const int least = std::min(exact ? 40 : 2, cap);
    rows[r] = !exact && rng.Bernoulli(0.1)
                  ? static_cast<int>(rng.Uniform(0, 1))
                  : static_cast<int>(rng.Uniform(least, cap));
  }

  for (int r = 0; r < n; ++r) {
    const std::string id = std::to_string(r);
    const DataType g_type = focus.g_type.value_or(
        exact    ? DataType::kInt64
        : t == 0 ? DataType::kString
                 : Pick(rng, {DataType::kInt64, DataType::kDate,
                              DataType::kString, DataType::kDouble}));
    const int64_t g_values =
        focus.g_values > 0 ? focus.g_values : rng.Uniform(1, 12);
    // p: the row id; q: runs of seven; v: doubles exact in any sum; g: a
    // group and sort column of few values at its type's edges, -0.0 and
    // +0.0 both.
    std::vector<DrawnColumn> columns = {
        {{"p" + id, DataType::kInt64, 8},
         [](int i) { return Value::Int64(i); }},
        {{"q" + id, DataType::kInt64, 8},
         [](int i) { return Value::Int64(i / 7); }},
        {{"v" + id, DataType::kDouble, 8},
         [&rng](int) {
           return Value::Double(static_cast<double>(rng.Uniform(-40, 40)) /
                                4);
         }},
        {{"g" + id, g_type, 12}, [&, g_type, g_values](int i) {
           Value g = Key(g_type, exact ? i % g_values
                                       : rng.Uniform(0, g_values - 1));
           if (g.f64 == 0.0 && rng.Bernoulli(0.5)) g.f64 = -g.f64;
           return g;
         }}};
    if (broken == 1 && r == 1) {
      columns.push_back({{"v0", DataType::kDouble, 8},
                         [](int) { return Value::Double(0.5); }});
    }
    for (size_t e = 0; e < edges.size(); ++e) {
      const DrawnEdge& edge = edges[e];
      if (edge.a != r && edge.b != r) continue;
      const bool referencing = edge.a == r;
      DataType type = edge.type;
      if (broken == 0 && e == 0) {
        type = referencing ? DataType::kString : DataType::kInt64;
      }
      const int nb = rows[edge.b];
      columns.push_back(
          {{"e" + std::to_string(e) + "_" + id, type, 12},
           [&, edge, referencing, type, nb](int i) {
             int64_t j = i;  // the referenced side's distinct keys
             if (edge.shared_values > 0) {
               j = rng.Uniform(0, edge.shared_values - 1);
             } else if (referencing) {
               // Exact: every key, each referenced; else an eighth of the
               // references match nothing.
               j = exact ? i % nb : rng.Uniform(0, nb + nb / 8);
             }
             Value v = Key(type, j);
             if (v.f64 == 0.0) v.f64 = 0.0;  // both sides' zero equal
             return v;
           }});
    }

    std::vector<Column> schema;
    std::vector<storage::ColumnData> lanes(columns.size());
    for (size_t k = 0; k < columns.size(); ++k) {
      schema.push_back(columns[k].column);
      lanes[k].type = columns[k].column.type;
    }
    for (int i = 0; i < rows[r]; ++i) {
      for (size_t k = 0; k < columns.size(); ++k) {
        const Value v = columns[k].value(i);
        switch (lanes[k].type) {
          case DataType::kInt64:
          case DataType::kDate:
            lanes[k].i64.push_back(v.i64);
            break;
          case DataType::kDouble:
            lanes[k].f64.push_back(v.f64);
            break;
          case DataType::kString:
            lanes[k].str.push_back(v.str);
            break;
        }
      }
    }
    TableAlternatives rel;
    rel.name = "r" + id;
    const bool packed = t == 0 || rng.Bernoulli(0.3) || focus.indexed;
    const size_t zone_block =
        rng.Bernoulli(0.4) ? Pick(rng, {size_t{16}, size_t{24}}) : 0;
    for (int variant = 0; variant < (packed ? 2 : 1); ++variant) {
      c.tables.push_back(std::make_unique<storage::TableStorage>(
          static_cast<catalog::TableId>(c.tables.size() + 1),
          catalog::Schema(schema), storage::TableLayout::kColumn,
          c.ssd.get()));
      storage::TableStorage& table = *c.tables.back();
      EXPECT_TRUE(table.Append(lanes).ok());
      if (zone_block > 0) {
        EXPECT_TRUE(table.BuildZoneMaps(zone_block).ok());
      }
      rel.variants.push_back(&table);
      if (variant == 0) continue;
      // The second variant holds the same rows compressed: runs as RLE,
      // ids as FOR, strings through a dictionary, other integers bit-packed
      // or delta-coded.
      for (const Column& col : schema) {
        using storage::CompressionKind;
        const CompressionKind kind =
            col.type == DataType::kString ? CompressionKind::kDictionary
            : col.name == "q" + id        ? CompressionKind::kRle
            : col.name == "p" + id        ? CompressionKind::kFor
            : col.type == DataType::kDouble
                ? CompressionKind::kNone
                : Pick(rng,
                       {CompressionKind::kBitpack, CompressionKind::kDelta});
        if (kind != CompressionKind::kNone) {
          EXPECT_TRUE(table.SetCompression(col.name, kind).ok()) << col.name;
        }
      }
    }
    if (!exact && (t == 0 || rng.Bernoulli(0.4) || focus.filtered)) {
      rel.filter = DrawFilter(rng, schema, 0);
    }
    if (!exact && (rng.Bernoulli(0.3) || focus.indexed)) {
      // A B+tree on the row id, and a filter whose AND bounds it.
      auto index = std::make_unique<storage::BTreeIndex>(8);
      for (int i = 0; i < rows[r]; ++i) {
        index->Insert(i, static_cast<uint64_t>(i));
      }
      rel.index = index.get();
      rel.index_column = "p" + id;
      c.indexes.push_back(std::move(index));
      const int64_t lo =
          rng.Bernoulli(0.2) ? INT64_MIN : rng.Uniform(-2, rows[r]);
      const int64_t hi =
          rng.Bernoulli(0.2) ? INT64_MAX : rng.Uniform(0, rows[r] + 2);
      ExprPtr range = exec::And(Col(rel.index_column) >= Lit(lo),
                                Col(rel.index_column) < Lit(hi));
      rel.filter = rel.filter != nullptr && rng.Bernoulli(0.5)
                       ? exec::And(range, rel.filter)
                       : range;
    }
    c.spec.relations.push_back(std::move(rel));
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    if (broken == 2 && edges[e].b == n - 1) continue;
    const std::string id = "e" + std::to_string(e) + "_";
    c.spec.edges.push_back({edges[e].a, edges[e].b,
                            id + std::to_string(edges[e].a),
                            id + std::to_string(edges[e].b)});
  }

  // The tail reads the join's columns, or the aggregate's.
  std::vector<std::string> names;
  for (const TableAlternatives& rel : c.spec.relations) {
    for (const Column& col : rel.variants[0]->schema().columns()) {
      names.push_back(col.name);
    }
  }
  if (aggregate) {
    const int64_t groups =
        rng.Uniform(t == 2 || focus.grouped ? 1 : 0, exact ? 1 : 2);
    for (int64_t g = 0; g < groups; ++g) {
      const std::string name = Pick(rng, {"g", "q"}) +
                               std::to_string(rng.Uniform(0, n - 1));
      if (std::count(c.spec.group_by.begin(), c.spec.group_by.end(), name) ==
          0) {
        c.spec.group_by.push_back(name);
      }
    }
    const int64_t items = rng.Uniform(1, 3);
    for (int64_t a = 0; a < items; ++a) {
      const exec::AggFunc func =
          Pick(rng, {exec::AggFunc::kSum, exec::AggFunc::kCount,
                     exec::AggFunc::kMin, exec::AggFunc::kMax,
                     exec::AggFunc::kAvg});
      ExprPtr input;
      if (func != exec::AggFunc::kCount) {
        input = Col("v" + std::to_string(rng.Uniform(0, n - 1)));
      }
      c.spec.aggregates.push_back({"agg" + std::to_string(a), func, input});
    }
    names = c.spec.group_by;
    for (const exec::AggregateItem& item : c.spec.aggregates) {
      names.push_back(item.name);
    }
  }
  if (order) {
    const int64_t keys = rng.Uniform(1, 3);
    for (int64_t k = 0; k < keys; ++k) {
      const std::string& name = names[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(names.size()) - 1))];
      const bool ascending = rng.Bernoulli(0.5) && !focus.descending;
      c.spec.order_by.push_back({name, ascending});
    }
    if (!focus.first_key.empty()) c.spec.order_by[0].column = focus.first_key;
  }

  c.options.morsel_rows =
      exact ? Pick(rng, {size_t{16}, size_t{64}, size_t{256}, size_t{16384}})
            : Pick(rng, {size_t{16}, size_t{64}, size_t{256}});
  c.options.batch_rows = exact || rng.Bernoulli(0.5) ? 4096 : 64;
  c.options.decode_scale = rng.Bernoulli(0.25) ? 4.0 : 1.0;
  c.lambda = focus.lambda.value_or(Pick(rng, {0.0, 0.01, 10.0}));
  c.pstate = static_cast<int>(rng.Uniform(0, 2));

  if (!invalid) c.want = Reference(c.spec);
  if (limit) {
    const uint64_t all = c.want.rows.size();
    c.spec.limit = Pick(rng, {uint64_t{0}, uint64_t{1},
                              static_cast<uint64_t>(rng.Uniform(2, 9)),
                              all / 2, all, all + 10});
  }
  return c;
}

/// The benchmark shape a case draws at small scale, if any.
std::string ShapeOf(const Case& c) {
  const QuerySpec& s = c.spec;
  if (c.kind == Kind::kInvalid) return "invalid";
  const size_t n = s.relations.size();
  const bool fk_only = s.edges.size() + 1 == n;  // a tree: no residual edge
  if (n == 1 && !s.aggregates.empty() && s.relations[0].filter != nullptr &&
      s.relations[0].variants.size() == 2 &&
      s.relations[0].variants[1]->schema().column(3).type ==
          DataType::kString) {
    return "serve_tpch scan+filter+aggregate over RLE/dictionary/FOR";
  }
  if (n == 2 && fk_only && !s.aggregates.empty()) {
    return "serve_tpch FK join+aggregate";
  }
  if (n >= 3 && n <= 5 && s.edges.size() >= n && !s.group_by.empty() &&
      !s.order_by.empty() && s.limit.has_value()) {
    return "join_graph 3-5 relations+residual edge+group-by+top-k";
  }
  if (n == 1 && !s.order_by.empty() && s.aggregates.empty() &&
      s.sort_spill_device != nullptr) {
    return "joulesort spilling ORDER BY over a scan";
  }
  return c.kind == Kind::kExact ? "other (exact)" : "other";
}

/// A plan's tree, access paths and P-state, to tell plans apart.
std::string PlanKey(const PhysicalPlan& plan) {
  std::string key = std::to_string(plan.pstate);
  for (const PlanJoinNode& node : plan.join_nodes) {
    key += "|" + std::to_string(node.relation) + "," +
           std::to_string(node.variant) + "," +
           AccessPathName(node.path) + "," + std::to_string(node.left) + "," +
           std::to_string(node.right) + "," + JoinAlgorithmName(node.algo) +
           "," + node.left_key;
  }
  return key;
}

/// Every plan the planner could run for `c`: ChoosePlan with and without
/// join-algorithm and P-state enumeration, CanonicalJoinPlan, and the
/// canonical tree with each join algorithm the key types allow, and each
/// leaf's other variant and access path.
std::vector<PhysicalPlan> Plans(const Case& c, CostModel* model) {
  std::vector<PhysicalPlan> plans;
  std::set<std::string> seen;
  const auto add = [&](const PhysicalPlan& plan) {
    if (seen.insert(PlanKey(plan)).second) plans.push_back(plan);
  };
  for (const bool algorithms : {false, true}) {
    for (const bool pstates : {false, true}) {
      PlannerOptions options;
      options.enumerate_join_algorithms = algorithms;
      options.enumerate_pstates = pstates;
      const Planner planner(model, options);
      const StatusOr<PhysicalPlan> chosen =
          planner.ChoosePlan(c.spec, Objective::Balanced(c.lambda));
      // Hash joins alone cannot join an edge of double keys.
      EXPECT_TRUE(chosen.ok() ||
                  (!algorithms &&
                   chosen.status().code() == StatusCode::kInvalidArgument))
          << chosen.status().message();
      if (chosen.ok()) add(*chosen);
    }
  }
  StatusOr<PhysicalPlan> canonical = CanonicalJoinPlan(c.spec);
  EXPECT_TRUE(canonical.ok()) << canonical.status().message();
  if (!canonical.ok()) return plans;
  canonical->pstate = c.pstate;
  add(*canonical);
  // Each edit keeps a node's change only where PricePlan accepts it.
  const Planner planner(model);
  const auto edit = [&](const std::function<void(PlanJoinNode*)>& change) {
    PhysicalPlan plan = *canonical;
    for (PlanJoinNode& node : plan.join_nodes) {
      const PlanJoinNode before = node;
      change(&node);
      if (!planner.PricePlan(c.spec, plan).ok()) node = before;
    }
    add(plan);
  };
  for (const JoinAlgorithm algo :
       {JoinAlgorithm::kMerge, JoinAlgorithm::kNestedLoop}) {
    edit([algo](PlanJoinNode* node) {
      if (node->relation < 0) node->algo = algo;
    });
  }
  edit([](PlanJoinNode* node) {
    if (node->relation >= 0) node->variant = 1;
  });
  edit([](PlanJoinNode* node) {
    if (node->relation >= 0) node->path = AccessPath::kIndexScan;
  });
  return plans;
}

/// What one run returned and billed, and its platform's standing watts.
struct Outcome {
  Status status;
  naive::Rows rows;
  exec::QueryStats stats;
  double standing_watts = 0.0;
};

/// Runs `plan` at `dop` with the case's options; `opens` > 1 opens the
/// tree again before draining it, as a retry would. `sort_then_limit`
/// runs an ORDER BY + LIMIT plan as LimitOp over its unlimited sort.
Outcome Run(const Case& c, PhysicalPlan plan, int dop, int opens = 1,
            bool sort_then_limit = false) {
  plan.dop = dop;
  QuerySpec spec = c.spec;
  const RunPlatform on = c.MakeRunPlatform();
  if (on.spill != nullptr) spec.sort_spill_device = on.spill.get();
  if (sort_then_limit) spec.limit.reset();
  Outcome out;
  out.standing_watts = on.platform->meter()->TotalWatts();
  StatusOr<exec::OperatorPtr> root = Planner::BuildOperator(spec, plan);
  out.status = root.status();
  if (!root.ok()) return out;
  if (sort_then_limit) {
    *root = std::make_unique<exec::LimitOp>(std::move(*root), *c.spec.limit);
  }
  exec::ExecOptions options = c.options;
  options.dop = dop;
  options.pstate = plan.pstate;
  exec::ExecContext ctx(on.platform, options);
  for (int open = 1; open < opens && out.status.ok(); ++open) {
    out.status = (*root)->Open(&ctx);
  }
  StatusOr<exec::QueryResultSet> result =
      out.status.ok() ? exec::CollectAll(root->get(), &ctx)
                      : StatusOr<exec::QueryResultSet>(out.status);
  out.stats = ctx.Finish();
  out.status = result.status();
  if (result.ok()) {
    out.rows = ByName(result->schema, naive::RowsOf(result->batches),
                      c.spec.group_by);
  }
  return out;
}

/// True when two rows tie on every ORDER BY key.
bool Tied(const naive::Rows& want, const Row& a, const Row& b,
          const std::vector<exec::SortKey>& keys) {
  return std::all_of(keys.begin(), keys.end(), [&](const exec::SortKey& k) {
    const int col = want.schema.FindColumn(k.column);
    return !naive::Less(a[col], b[col]) && !naive::Less(b[col], a[col]);
  });
}

/// Checks `got` against the reference. Without ORDER BY, rows compare as
/// a multiset, a sub-multiset of min(k, n) rows under a LIMIT k. With one,
/// they compare in order: rows tied on every key keep their input order
/// exactly when `order_fixed`, and otherwise compare as a multiset per
/// tie group, of which the one a LIMIT cuts compares on its keys only.
void ExpectReferenceRows(const Case& c, std::vector<Row> got,
                         bool order_fixed) {
  const std::vector<Row>& want = c.want.rows;
  const size_t take =
      std::min<uint64_t>(c.spec.limit.value_or(UINT64_MAX), want.size());
  ASSERT_EQ(got.size(), take);
  const auto sorted = [](std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), naive::BitsLess{});
    return rows;
  };
  if (c.spec.order_by.empty()) {
    got = sorted(std::move(got));
    const std::vector<Row> all = sorted(want);
    EXPECT_TRUE(std::includes(all.begin(), all.end(), got.begin(), got.end(),
                              naive::BitsLess{}))
        << "rows the reference does not return";
    return;
  }
  if (order_fixed) {
    EXPECT_TRUE(naive::SameBits(
        got, std::vector<Row>(want.begin(), want.begin() + take)));
    return;
  }
  for (size_t a = 0; a < take;) {
    size_t b = a + 1;
    while (b < want.size() && Tied(c.want, want[a], want[b], c.spec.order_by)) {
      ++b;
    }
    for (size_t r = a; r < std::min(b, take); ++r) {
      ASSERT_TRUE(Tied(c.want, got[r], want[a], c.spec.order_by))
          << "row " << r;
    }
    if (b <= take) {
      EXPECT_TRUE(naive::SameBits(
          sorted({got.begin() + a, got.begin() + b}),
          sorted({want.begin() + a, want.begin() + b})))
          << "tie group at row " << a;
    }
    a = b;
  }
}

/// Counts of runs that reached each path the fuzzer must cover.
struct Tally {
  std::map<std::string, int> runs;

  void Count(const Case& c, const PhysicalPlan& plan,
             const exec::QueryStats& stats) {
    const bool sorted = !c.spec.order_by.empty();
    const bool limited = sorted && c.spec.limit.has_value();
    for (const PlanJoinNode& node : plan.join_nodes) {
      if (node.relation >= 0) {
        if (node.path == AccessPath::kIndexScan) ++runs["index-scan leaf"];
        if (node.variant > 0) ++runs["compressed leaf"];
      } else {
        ++runs[std::string(JoinAlgorithmName(node.algo)) + " join"];
        if (!node.residual_edges.empty()) ++runs["residual edge"];
      }
    }
    if (plan.pstate > 0) ++runs["P-state above 0"];
    if (c.spill != nullptr && stats.io_bytes > 0) ++runs["spilled sort"];
    if (limited) ++runs["fused top-k"];
    if (stats.faults.transient_errors > 0) ++runs["injected fault"];
  }

  /// A Sort + Limit comparison run: its tail, its spill and its faults.
  void CountSortThenLimit(const Case& c, const exec::QueryStats& stats) {
    ++runs["Sort + Limit"];
    if (c.spill != nullptr && stats.io_bytes > 0) ++runs["spilled sort"];
    if (stats.faults.transient_errors > 0) ++runs["injected fault"];
  }
};

/// The fused top-k's bill against Sort + Limit's for the same plan at the
/// same dop: no more in any term, and the same bits when the limit covers
/// every row. Runs over tables on the case's SSD share its platform, whose
/// meter, read after earlier runs, keeps the metered Joules to about 1e-12
/// (the meter check's bound); fresh platforms compare them exactly.
void ExpectNoMoreThanSortThenLimit(const Case& c,
                                   const exec::QueryStats& fused,
                                   const exec::QueryStats& unfused) {
  const double slack = c.ssd != nullptr ? 1e-12 * unfused.Joules() : 0.0;
  if (*c.spec.limit >= c.want.rows.size()) {
    EXPECT_EQ(fused.cpu_instructions, unfused.cpu_instructions);
    EXPECT_EQ(fused.cpu_serial_seconds, unfused.cpu_serial_seconds);
    EXPECT_EQ(fused.dram_joules, unfused.dram_joules);
    EXPECT_EQ(fused.io_bytes, unfused.io_bytes);
    EXPECT_NEAR(fused.Joules(), unfused.Joules(), slack);
    return;
  }
  EXPECT_LE(fused.cpu_instructions, unfused.cpu_instructions);
  EXPECT_LE(fused.cpu_serial_seconds, unfused.cpu_serial_seconds);
  EXPECT_LE(fused.dram_joules, unfused.dram_joules);
  EXPECT_LE(fused.io_bytes, unfused.io_bytes);
  EXPECT_LE(fused.Joules(), unfused.Joules() + slack);
}

/// The contract on every plan of a rows or exact case: reference rows at
/// dop 1, 2, 4 and 8; charges bit-identical across dop; metered Joules =
/// direct pulses + standing watts over the window; a reopened tree's spill
/// billed once; under ORDER BY + LIMIT, the rows of Sort + Limit and no
/// more than its bill; and, on an exact case, at every P-state,
/// PricePlan's seconds and Joules equal to the bill.
void CheckCase(const Case& c, Tally* tally) {
  CostModel model(c.platform.get(), CostModelParams{}, c.options);
  const Planner pricer(&model);
  const bool exact = c.kind == Kind::kExact;
  const bool limited = !c.spec.order_by.empty() && c.spec.limit.has_value();
  const int num_pstates = c.platform->cpu().num_pstates();
  for (const PhysicalPlan& chosen : Plans(c, &model)) {
    SCOPED_TRACE(chosen.Describe(c.spec));
    const StatusOr<PlanCost> cost = pricer.PricePlan(c.spec, chosen);
    ASSERT_TRUE(cost.ok()) << cost.status().message();
    EXPECT_TRUE(std::isfinite(cost->seconds) && std::isfinite(cost->joules));
    const PlanJoinNode& root = chosen.join_nodes[chosen.join_root];
    // One relation read by a table scan keeps its row order into the sort.
    const bool order_fixed = c.spec.relations.size() == 1 &&
                             c.spec.aggregates.empty() &&
                             root.path == AccessPath::kTableScan;
    for (int pstate = exact ? 0 : chosen.pstate;
         pstate < (exact ? num_pstates : chosen.pstate + 1); ++pstate) {
      PhysicalPlan plan = chosen;
      plan.pstate = pstate;
      std::optional<exec::QueryStats> base;
      for (const int dop : kDops) {
        SCOPED_TRACE("pstate=" + std::to_string(pstate) +
                     " dop=" + std::to_string(dop));
        const Outcome run = Run(c, plan, dop);
        ASSERT_TRUE(run.status.ok()) << run.status.message();
        ExpectReferenceRows(c, run.rows.rows, order_fixed);
        const exec::QueryStats& s = run.stats;
        EXPECT_NEAR(s.Joules(),
                    s.DirectJoules() + run.standing_watts * s.elapsed_seconds,
                    1e-12 * s.Joules());
        if (!base.has_value()) base = s;
        EXPECT_EQ(s.cpu_instructions, base->cpu_instructions);
        EXPECT_EQ(s.cpu_seconds, base->cpu_seconds);
        EXPECT_EQ(s.cpu_serial_seconds, base->cpu_serial_seconds);
        EXPECT_EQ(s.io_bytes, base->io_bytes);
        EXPECT_EQ(s.dram_joules, base->dram_joules);
        EXPECT_EQ(s.faults.transient_errors, base->faults.transient_errors);
        EXPECT_EQ(s.faults.retry_seconds, base->faults.retry_seconds);
        EXPECT_EQ(s.faults.retry_joules, base->faults.retry_joules);
        tally->Count(c, plan, s);
        if (limited) {
          const Outcome unfused =
              Run(c, plan, dop, /*opens=*/1, /*sort_then_limit=*/true);
          ASSERT_TRUE(unfused.status.ok()) << unfused.status.message();
          EXPECT_TRUE(naive::SameBits(unfused.rows.rows, run.rows.rows));
          ExpectNoMoreThanSortThenLimit(c, s, unfused.stats);
          tally->CountSortThenLimit(c, unfused.stats);
        }
        if (exact) {
          plan.dop = dop;
          const StatusOr<PlanCost> priced = pricer.PricePlan(c.spec, plan);
          ASSERT_TRUE(priced.ok()) << priced.status().message();
          EXPECT_NEAR(priced->seconds, s.cpu_elapsed_seconds,
                      1e-12 * s.cpu_elapsed_seconds);
          EXPECT_NEAR(priced->joules, s.Joules(), 1e-8 * s.Joules());
        }
        if (c.spill != nullptr && dop == 2) {
          const Outcome twice = Run(c, plan, dop, /*opens=*/2);
          ASSERT_TRUE(twice.status.ok()) << twice.status.message();
          EXPECT_EQ(twice.stats.io_bytes, s.io_bytes) << "spill billed twice";
          EXPECT_EQ(twice.stats.faults.transient_errors,
                    s.faults.transient_errors);
          EXPECT_TRUE(naive::SameBits(twice.rows.rows, run.rows.rows));
        }
      }
    }
  }
}

/// An invalid case: every planner entry point rejects it, and so does a
/// hand-set plan (left-deep in relation order, each join on the first
/// edge that crosses it, or on no key), in PricePlan and in BuildOperator
/// or its tree's Open. Nothing crashes or returns a row.
void CheckRejected(const Case& c) {
  const auto rejected = [](const Status& status) {
    return status.code() == StatusCode::kInvalidArgument ||
           status.code() == StatusCode::kNotFound;
  };
  CostModel model(c.platform.get(), CostModelParams{}, c.options);
  for (const bool algorithms : {false, true}) {
    PlannerOptions options;
    options.enumerate_join_algorithms = algorithms;
    const Planner planner(&model, options);
    const Status chosen =
        planner.ChoosePlan(c.spec, Objective::Balanced(c.lambda)).status();
    EXPECT_TRUE(rejected(chosen)) << chosen.ToString();
  }
  EXPECT_TRUE(rejected(CanonicalJoinPlan(c.spec).status()));
  for (const JoinAlgorithm algo :
       {JoinAlgorithm::kHash, JoinAlgorithm::kNestedLoop}) {
    PhysicalPlan plan;
    plan.join_nodes.resize(1);
    plan.join_nodes[0].relation = 0;
    plan.join_root = 0;
    for (int rel = 1; rel < static_cast<int>(c.spec.relations.size()); ++rel) {
      PlanJoinNode leaf;
      leaf.relation = rel;
      PlanJoinNode join;
      join.left = plan.join_root;
      join.right = static_cast<int>(plan.join_nodes.size());
      join.algo = algo;
      for (const JoinEdge& e : c.spec.edges) {
        if ((e.left_rel < rel) != (e.right_rel < rel) &&
            (e.left_rel == rel || e.right_rel == rel) &&
            join.left_key.empty()) {
          join.left_key = e.left_rel < rel ? e.left_key : e.right_key;
          join.right_key = e.left_rel < rel ? e.right_key : e.left_key;
        }
      }
      plan.join_nodes.push_back(leaf);
      plan.join_nodes.push_back(join);
      plan.join_root = static_cast<int>(plan.join_nodes.size()) - 1;
    }
    SCOPED_TRACE(plan.Describe(c.spec));
    EXPECT_TRUE(rejected(Planner(&model).PricePlan(c.spec, plan).status()));
    const Outcome run = Run(c, plan, 2);
    EXPECT_TRUE(rejected(run.status)) << run.status.ToString();
    EXPECT_TRUE(run.rows.rows.empty());
  }
}

/// Runs every case of `kind` through `check`.
template <typename Check>
void ForEachCase(Kind kind, Check&& check) {
  for (int i = 0; i < kCases; ++i) {
    Case c = Draw(i);
    if (c.kind != kind) continue;
    SCOPED_TRACE("case " + std::to_string(i) + " (" + ShapeOf(c) + ")");
    check(c);
  }
}

TEST(ContractFuzzTest, DrawsEveryBenchmarkShape) {
  std::map<std::string, int> shapes;
  for (int i = 0; i < kCases; ++i) ++shapes[ShapeOf(Draw(i))];
  for (const auto& [shape, count] : shapes) {
    std::cout << "[ shape    ] " << shape << ": " << count << "\n";
  }
  for (const char* shape :
       {"serve_tpch scan+filter+aggregate over RLE/dictionary/FOR",
        "serve_tpch FK join+aggregate",
        "join_graph 3-5 relations+residual edge+group-by+top-k",
        "joulesort spilling ORDER BY over a scan"}) {
    EXPECT_GT(shapes[shape], 0) << shape;
  }
}

TEST(ContractFuzzTest, EveryPlanMatchesTheReferenceAndBillsOnce) {
  Tally tally;
  ForEachCase(Kind::kRows, [&](const Case& c) { CheckCase(c, &tally); });
  for (const auto& [path, runs] : tally.runs) {
    std::cout << "[ runs     ] " << path << ": " << runs << "\n";
  }
  for (const char* path :
       {"sort-merge join", "nested-loop join", "index-scan leaf",
        "P-state above 0", "spilled sort", "fused top-k", "Sort + Limit",
        "residual edge", "injected fault"}) {
    EXPECT_GT(tally.runs[path], 0) << path;
  }
}

TEST(ContractFuzzTest, ExactSpecsPriceWhatTheyBill) {
  Tally tally;
  int partial_run_sorts = 0;
  int join_sorts = 0;
  ForEachCase(Kind::kExact, [&](const Case& c) {
    CheckCase(c, &tally);
    if (c.spec.order_by.empty() || !c.spec.aggregates.empty()) return;
    if (c.spec.relations.size() > 1) {
      ++join_sorts;
      return;
    }
    const storage::TableStorage& table = *c.spec.relations[0].variants[0];
    const std::vector<exec::ScanRowRange> runs = exec::MorselizeRanges(
        {{0, table.row_count()}}, table.zone_maps().block_rows,
        c.options.morsel_rows);
    if (runs.size() > 1 && runs.back().end - runs.back().begin <
                               runs.front().end - runs.front().begin) {
      ++partial_run_sorts;
    }
  });
  std::cout << "[ exact    ] sorts with a partial last run: "
            << partial_run_sorts << ", sorts over a join: " << join_sorts
            << "\n";
  EXPECT_GT(partial_run_sorts, 0);
  EXPECT_GT(join_sorts, 0);
}

TEST(ContractFuzzTest, InvalidSpecsAreRejected) {
  ForEachCase(Kind::kInvalid, CheckRejected);
}

// Named slices: each draws a few rows cases of its own, on seeds apart
// from the main cases', with one feature forced, and holds them to the
// same contract, so what the main draw reaches only now and then runs on
// every build under a name of its own.

/// Checks the first `cases` draws of slice `slice` under `focus` whose
/// reference returns rows, and `also` on each; some run must reach each
/// path in `reached`. Returns the runs that reached each path.
Tally CheckSlice(int slice, const Focus& focus, int cases,
                 std::initializer_list<const char*> reached,
                 const std::function<void(const Case&)>& also = {}) {
  Tally tally;
  for (int i = 0; cases > 0 && i < 1000; ++i) {
    const int index = 1000 * slice + i;
    const Case c = Draw(index, focus);
    if (c.want.rows.empty()) continue;
    --cases;
    SCOPED_TRACE("slice case " + std::to_string(index) + " (" + ShapeOf(c) +
                 ")");
    EXPECT_EQ(c.kind, Kind::kRows);
    CheckCase(c, &tally);
    if (also) also(c);
  }
  EXPECT_EQ(cases, 0) << "too few draws return rows";
  for (const char* path : reached) EXPECT_GT(tally.runs[path], 0) << path;
  return tally;
}

TEST(DifferentialJoinOrderTest, RandomizedGraphsMatchOracleAtEveryDop) {
  CheckSlice(1, {.shape = kFree, .min_relations = 2}, 16,
             {"hash(build=right) join", "sort-merge join", "nested-loop join"});
}

TEST(DifferentialJoinOrderTest, ParallelEdgesBecomeResidualFilters) {
  CheckSlice(2, {.shape = kFree, .min_relations = 2, .residual_edge = true},
             6, {"residual edge"});
}

TEST(DifferentialJoinOrderTest, DoubleKeyEdgeMatchesOracle) {
  // No hash join runs an edge of double keys: the plans that run join it
  // by nested loops or merge.
  CheckSlice(3, {.shape = kFree, .min_relations = 2, .double_edge = true}, 6,
             {"nested-loop join"});
}

TEST(DifferentialJoinOrderTest, HighLambdaTreeStillMatchesOracle) {
  CheckSlice(4, {.shape = kFree, .min_relations = 3, .aggregate = true,
                 .lambda = 10.0},
             6, {"hash(build=right) join"});
}

TEST(DifferentialJoinOrderTest, IndexScanLeafOnProbeSideMatchesOracle) {
  CheckSlice(5, {.shape = kFree, .min_relations = 2, .indexed = true}, 6,
             {"index-scan leaf", "compressed leaf"});
}

TEST(DifferentialTopKTest, RandomizedSpecsMatchOracleAtEveryDop) {
  CheckSlice(6, {.shape = kFree, .order = true, .limit = true}, 16,
             {"fused top-k", "Sort + Limit"});
}

TEST(DifferentialTopKTest, DescendingKeysWithTotalDuplication) {
  // Every row ties on the first key, so one table-scanned relation must
  // keep its input order through each ORDER BY path.
  CheckSlice(7, {.shape = kFree, .relations = 1, .aggregate = false,
                 .order = true, .limit = true, .g_values = 1,
                 .first_key = "g0", .descending = true},
             6, {"fused top-k", "Sort + Limit"});
}

TEST(DifferentialTopKTest, SpillingTopKStillMatchesOracle) {
  CheckSlice(8, {.shape = kFree, .aggregate = false, .order = true,
                 .limit = true, .spill = true, .faults = false},
             6, {"spilled sort", "fused top-k"});
}

TEST(DifferentialTopKTest, NaNDoubleKeysSortInOneTotalOrder) {
  // The first key holds NaN with two payloads and -NaN, ±0.0, ±inf,
  // denormals and ±DBL_MAX. In the reference, NaNs sort after every
  // number: one block at the end ASC and at the start DESC.
  int64_t nans = 0;
  CheckSlice(9, {.shape = kFree, .relations = 1, .aggregate = false,
                 .order = true, .g_type = DataType::kDouble, .g_values = 12,
                 .first_key = "g0"},
             6, {}, [&](const Case& c) {
               const int col = c.want.schema.FindColumn("g0");
               const auto nan = [&](const Row& r) {
                 return std::isnan(r[col].f64);
               };
               nans += std::ranges::count_if(c.want.rows, nan);
               EXPECT_TRUE(std::ranges::is_partitioned(
                   c.want.rows, [&](const Row& r) {
                     return c.spec.order_by[0].ascending != nan(r);
                   }));
             });
  EXPECT_GT(nans, 0);
}

TEST(DifferentialTopKTest, EdgeKeysMatchOracle) {
  // The first key comes from each type's edges, ASC or DESC as drawn.
  for (const DataType type : {DataType::kInt64, DataType::kDate,
                              DataType::kString, DataType::kDouble}) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)));
    CheckSlice(10 + static_cast<int>(type),
               {.shape = kFree, .relations = 1, .aggregate = false,
                .order = true, .limit = true, .g_type = type, .g_values = 12,
                .first_key = "g0"},
               3, {"fused top-k", "Sort + Limit"});
  }
}

TEST(DifferentialTopKTest, FaultPlanCaseMatchesOracleWithIdenticalRetries) {
  CheckSlice(20, {.shape = kFree, .order = true, .limit = true,
                  .spill = true, .faults = true},
             6, {"injected fault", "spilled sort"});
}

TEST(PlanDopDifferentialTest, FilteredGroupByAggregate) {
  CheckSlice(21, {.shape = kFree, .aggregate = true, .filtered = true,
                  .grouped = true},
             6, {}, [](const Case& c) {
               EXPECT_FALSE(c.spec.group_by.empty());
             });
}

TEST(PlanDopDifferentialTest, LegacyTwoWayJoin) {
  CheckSlice(22, {.shape = 1}, 6, {"hash(build=right) join"});
}

TEST(PlanDopDifferentialTest, OrderByInMemoryAndSpilling) {
  CheckSlice(23, {.shape = 3}, 3, {"spilled sort"});
  const Tally in_memory = CheckSlice(24, {.shape = 3, .spill = false}, 3, {});
  EXPECT_EQ(in_memory.runs.count("spilled sort"), 0u);
}

TEST(PlanDopDifferentialTest, OrderByLimitFusedAndUnfused) {
  CheckSlice(25, {.shape = kFree, .relations = 1, .order = true,
                  .limit = true},
             6, {"fused top-k", "Sort + Limit"});
}

}  // namespace
}  // namespace ecodb::optimizer
