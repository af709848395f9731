// Naive test oracles for the ordering and aggregation operators: drain a
// child into rows, then std::stable_sort them, take the first k, or fold
// them into a std::map. Shares no code with the operators under test. Fold
// order cannot change result bits as long as the inputs' doubles are exact
// in binary (the test tables use multiples of 0.25).

#ifndef ECODB_TESTS_NAIVE_REFERENCE_H_
#define ECODB_TESTS_NAIVE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/operator.h"
#include "exec/sort_limit.h"
#include "power/platform.h"

namespace ecodb::exec::naive {

using Row = std::vector<Value>;

/// A child's schema and every row it produced, in order.
struct Rows {
  catalog::Schema schema;
  std::vector<Row> rows;
};

inline Rows Materialize(Operator* child, power::HardwarePlatform* platform) {
  ExecContext ctx(platform, ExecOptions{});
  StatusOr<QueryResultSet> result = CollectAll(child, &ctx);
  ctx.Finish();
  EXPECT_TRUE(result.ok()) << result.status().message();
  Rows out;
  if (!result.ok()) return out;
  out.schema = result->schema;
  for (const RecordBatch& batch : result->batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      Row& row = out.rows.emplace_back();
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        row.push_back(batch.GetValue(r, c));
      }
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

/// GROUP BY `group_by` with `aggs`, whose inputs must be null (COUNT(*)) or
/// plain column references; groups come out in canonical key order.
inline std::vector<Row> Aggregate(const Rows& in,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<AggregateItem>& aggs) {
  std::map<Row, std::vector<std::vector<double>>, RowLess> groups;
  for (const Row& row : in.rows) {
    Row key;
    for (const std::string& g : group_by) {
      key.push_back(row[in.schema.FindColumn(g)]);
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
