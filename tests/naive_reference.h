// Naive test oracles: drain a child into rows, select a table's rows
// through the reference expression walk, join relations by nested loops,
// std::stable_sort rows, take the first k, or fold them into a std::map.
// Shares no code with the operators under test. Fold order cannot change
// result bits as long as the inputs' doubles are exact in binary (the test
// tables use multiples of 0.25).

#ifndef ECODB_TESTS_NAIVE_REFERENCE_H_
#define ECODB_TESTS_NAIVE_REFERENCE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/sort_limit.h"
#include "power/platform.h"
#include "storage/table_storage.h"

namespace ecodb::exec::naive {

using Row = std::vector<Value>;

/// A child's schema and every row it produced, in order.
struct Rows {
  catalog::Schema schema;
  std::vector<Row> rows;
};

/// Every row of `batches`, in order.
inline std::vector<Row> RowsOf(const std::vector<RecordBatch>& batches) {
  std::vector<Row> rows;
  for (const RecordBatch& batch : batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      Row& row = rows.emplace_back();
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        row.push_back(batch.GetValue(r, c));
      }
    }
  }
  return rows;
}

/// Bitwise equality: NaN equals itself, and -0.0 differs from +0.0.
inline bool SameBits(const Value& a, const Value& b) {
  return a.type == b.type && a.i64 == b.i64 && a.str == b.str &&
         std::bit_cast<uint64_t>(a.f64) == std::bit_cast<uint64_t>(b.f64);
}

inline bool SameBits(const std::vector<Row>& a, const std::vector<Row>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Row& x, const Row& y) {
                      return std::equal(x.begin(), x.end(), y.begin(),
                                        y.end(),
                                        [](const Value& u, const Value& v) {
                                          return SameBits(u, v);
                                        });
                    });
}

inline Rows Materialize(Operator* child, power::HardwarePlatform* platform) {
  ExecContext ctx(platform, ExecOptions{});
  StatusOr<QueryResultSet> result = CollectAll(child, &ctx);
  ctx.Finish();
  EXPECT_TRUE(result.ok()) << result.status().message();
  Rows out;
  if (!result.ok()) return out;
  out.schema = result->schema;
  out.rows = RowsOf(result->batches);
  return out;
}

/// The rows of `table` for which `filter` (none: every row) evaluates
/// non-zero under BoundExpr::Evaluate, the reference tree walk; a filter
/// that does not bind selects nothing.
inline Rows Select(const storage::TableStorage& table, const ExprPtr& filter) {
  RecordBatch batch(table.schema());
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    StatusOr<ColumnData> lane = table.ReadColumn(c);
    EXPECT_TRUE(lane.ok()) << lane.status().message();
    if (lane.ok()) batch.column(static_cast<size_t>(c)) = std::move(*lane);
  }
  EXPECT_TRUE(batch.SealRows(table.row_count()).ok());
  Rows out{table.schema(), {}};
  ColumnData keep;
  if (filter != nullptr) {
    StatusOr<BoundExpr> program = filter->BindPredicate(table.schema());
    if (!program.ok()) return out;
    keep = program->Evaluate(batch);
  }
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    if (filter != nullptr && keep.i64[r] == 0) continue;
    Row& row = out.rows.emplace_back();
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      row.push_back(batch.GetValue(r, c));
    }
  }
  return out;
}

/// An equi-join edge of Join: relations[left].left_key =
/// relations[right].right_key.
struct Edge {
  int left = 0;
  int right = 0;
  std::string left_key;
  std::string right_key;
};

/// The equality a join checks: strings compare by bytes, integers (int64
/// and date) as integers, and any pair with a double through double, so
/// NaN equals nothing.
inline bool JoinKeysEqual(const Value& a, const Value& b) {
  if (a.type == catalog::DataType::kString) return a.str == b.str;
  if (catalog::IsIntegerLike(a.type) && catalog::IsIntegerLike(b.type)) {
    return a.i64 == b.i64;
  }
  return a.AsDouble() == b.AsDouble();
}

/// Joins connected `relations` on every edge by nested loops, relation 0
/// first and then each relation an edge reaches, in breadth-first order;
/// a relation's rows join in their order. The result has every column of
/// every relation, ordered by name.
inline Rows Join(const std::vector<Rows>& relations,
                 const std::vector<Edge>& edges) {
  std::vector<int> order = {0};
  for (size_t i = 0; i < order.size(); ++i) {
    for (const Edge& e : edges) {
      for (const int next : {e.left == order[i] ? e.right : -1,
                             e.right == order[i] ? e.left : -1}) {
        if (next >= 0 && std::count(order.begin(), order.end(), next) == 0) {
          order.push_back(next);
        }
      }
    }
  }
  EXPECT_EQ(order.size(), relations.size()) << "disconnected join graph";
  // An edge from the relation being joined to one joined before it: its
  // key column, and the step and key column of the other relation.
  struct Check {
    int column;
    size_t other_step;
    int other_column;
  };
  // Partial results as one row index per relation joined so far.
  std::vector<std::vector<size_t>> tuples(1);
  for (size_t step = 0; step < order.size(); ++step) {
    const Rows& rel = relations[order[step]];
    std::vector<Check> checks;
    for (size_t before = 0; before < step; ++before) {
      const Rows& other = relations[order[before]];
      for (const Edge& e : edges) {
        if (e.left == order[step] && e.right == order[before]) {
          checks.push_back({rel.schema.FindColumn(e.left_key), before,
                            other.schema.FindColumn(e.right_key)});
        } else if (e.right == order[step] && e.left == order[before]) {
          checks.push_back({rel.schema.FindColumn(e.right_key), before,
                            other.schema.FindColumn(e.left_key)});
        }
      }
    }
    std::vector<std::vector<size_t>> next;
    for (const std::vector<size_t>& t : tuples) {
      for (size_t r = 0; r < rel.rows.size(); ++r) {
        const bool match =
            std::all_of(checks.begin(), checks.end(), [&](const Check& c) {
              return JoinKeysEqual(
                  rel.rows[r][c.column],
                  relations[order[c.other_step]]
                      .rows[t[c.other_step]][c.other_column]);
            });
        if (!match) continue;
        next.push_back(t);
        next.back().push_back(r);
      }
    }
    tuples = std::move(next);
  }
  // (name, step, column) of every output column, ordered by name.
  std::vector<std::tuple<std::string, size_t, int>> columns;
  for (size_t step = 0; step < order.size(); ++step) {
    const catalog::Schema& schema = relations[order[step]].schema;
    for (int c = 0; c < schema.num_columns(); ++c) {
      columns.emplace_back(schema.column(c).name, step, c);
    }
  }
  std::sort(columns.begin(), columns.end());
  std::vector<catalog::Column> schema;
  for (const auto& [name, step, c] : columns) {
    schema.push_back(relations[order[step]].schema.column(c));
  }
  Rows out{catalog::Schema(schema), {}};
  for (const std::vector<size_t>& t : tuples) {
    Row& row = out.rows.emplace_back();
    for (const auto& [name, step, c] : columns) {
      row.push_back(relations[order[step]].rows[t[step]][c]);
    }
  }
  return out;
}

/// Orders two values of one column (the fields a type leaves unset are
/// zero, so comparing all of them compares the one that is set). Doubles
/// take ORDER BY's total order (DESIGN §7): NaN after every number and tied
/// with every other NaN, -0.0 tied with +0.0.
inline bool Less(const Value& a, const Value& b) {
  if (a.i64 != b.i64) return a.i64 < b.i64;
  const bool a_nan = std::isnan(a.f64);
  const bool b_nan = std::isnan(b.f64);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a.f64 != b.f64) return a.f64 < b.f64;
  return a.str < b.str;
}

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end(), Less);
  }
};

/// Rows in one canonical order, for results that promise no order.
inline std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess{});
  return rows;
}

/// ORDER BY `keys`: a stable sort of the rows.
inline std::vector<Row> Sort(const Rows& in, const std::vector<SortKey>& keys) {
  std::vector<Row> rows = in.rows;
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const SortKey& key : keys) {
      const int c = in.schema.FindColumn(key.column);
      if (Less(a[c], b[c])) return key.ascending;
      if (Less(b[c], a[c])) return !key.ascending;
    }
    return false;
  });
  return rows;
}

/// ORDER BY `keys` LIMIT `k`: the first k rows of Sort.
inline std::vector<Row> TopK(const Rows& in, const std::vector<SortKey>& keys,
                             size_t k) {
  std::vector<Row> rows = Sort(in, keys);
  rows.resize(std::min(k, rows.size()));
  return rows;
}

/// A strict total order on bit patterns: rows that are not SameBits
/// differ under it, so sorting two multisets of rows by it lines up equal
/// rows.
struct BitsLess {
  bool operator()(const Row& a, const Row& b) const {
    const auto bits = [](const Value& v) {
      return std::tuple(v.i64, std::bit_cast<uint64_t>(v.f64), v.str);
    };
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [&](const Value& x, const Value& y) { return bits(x) < bits(y); });
  }
};

/// A group key value as the engine's group equality sees it: a double by
/// its bits, with -0.0 as +0.0 (so NaNs group by bit pattern).
inline Value GroupKey(Value v) {
  if (v.f64 == 0.0) v.f64 = 0.0;
  return v;
}

/// GROUP BY `group_by` with `aggs`, whose inputs must be null (COUNT(*)) or
/// plain column references. Groups form under the engine's group
/// equality, come out in BitsLess order of their keys, and carry their
/// keys as GroupKey gives them.
inline std::vector<Row> Aggregate(const Rows& in,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<AggregateItem>& aggs) {
  std::map<Row, std::vector<std::vector<double>>, BitsLess> groups;
  for (const Row& row : in.rows) {
    Row key;
    for (const std::string& g : group_by) {
      key.push_back(GroupKey(row[in.schema.FindColumn(g)]));
    }
    std::vector<std::vector<double>>& inputs = groups[key];
    inputs.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggregateItem& item = aggs[a];
      inputs[a].push_back(
          item.input == nullptr
              ? 0.0
              : row[in.schema.FindColumn(item.input->column_name())]
                    .AsDouble());
    }
  }
  if (groups.empty() && group_by.empty()) groups[Row{}].resize(aggs.size());
  std::vector<Row> out;
  for (const auto& [key, inputs] : groups) {
    Row& row = out.emplace_back(key);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const std::vector<double>& v = inputs[a];
      double sum = 0.0;
      for (double x : v) sum += x;
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      const double n = static_cast<double>(v.size());
      switch (aggs[a].func) {
        case AggFunc::kSum:
          row.push_back(Value::Double(sum));
          break;
        case AggFunc::kCount:
          row.push_back(Value::Int64(static_cast<int64_t>(v.size())));
          break;
        case AggFunc::kMin:
          row.push_back(Value::Double(v.empty() ? 0.0 : *lo));
          break;
        case AggFunc::kMax:
          row.push_back(Value::Double(v.empty() ? 0.0 : *hi));
          break;
        case AggFunc::kAvg:
          row.push_back(Value::Double(v.empty() ? 0.0 : sum / n));
          break;
      }
    }
  }
  return out;
}

}  // namespace ecodb::exec::naive

#endif  // ECODB_TESTS_NAIVE_REFERENCE_H_
