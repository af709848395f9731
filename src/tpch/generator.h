// TPC-H-like data generation (ORDERS, LINEITEM, CUSTOMER, PART, SUPPLIER,
// PARTSUPP).
//
// The paper's experiments run against a 300 GB-scale-factor TPC-H database
// (Figure 1) and a scan of ORDERS projecting 5 of its 7 attributes
// (Figure 2, after [HLA+06]'s 7-attribute ORDERS variant). The generator
// reproduces the schema shapes and value distributions that matter for
// those experiments — clustered keys (compressible with FOR/delta), skewed
// low-cardinality status/priority strings (dictionary-friendly), dates over
// a 7-year window, and prices — fully deterministically from a seed.
//
// The four dimension-side tables widen the schema for multi-join queries
// (the join-order work): they are FK-consistent with ORDERS/LINEITEM by
// construction — every o_custkey, l_partkey and l_suppkey the fact tables
// draw lands inside the [1, count] key ranges the dimensions enumerate —
// and each table consumes its own seeded RNG stream, so adding tables never
// perturbs the bytes of an existing one.
//
// Row counts scale volumetrically: 15,000 rows of ORDERS (1/100 of
// TPC-H's 1.5M) per unit of scale factor, so tests run in milliseconds
// while benchmark configs can scale up.

#ifndef ECODB_TPCH_GENERATOR_H_
#define ECODB_TPCH_GENERATOR_H_

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "storage/table_storage.h"
#include "util/random.h"
#include "util/status.h"

namespace ecodb::tpch {

struct TpchConfig {
  double scale_factor = 1.0;
  uint64_t seed = 20090104;  // CIDR 2009 opening day
};

/// Derived table cardinalities for a config. These ratios are fixed by the
/// fact-table generators (GenerateOrders draws o_custkey from
/// [1, customers]; GenerateLineitem draws l_partkey / l_suppkey from
/// [1, parts] / [1, suppliers]), so the dimension generators must use the
/// exact same counts to stay FK-consistent.
struct TpchRowCounts {
  uint64_t orders = 0;
  uint64_t customers = 0;  // orders / 10 (TPC-H: 10 orders per customer)
  uint64_t parts = 0;      // orders / 8
  uint64_t suppliers = 0;  // orders / 150
  uint64_t partsupp = 0;   // parts * 2 supply links
};

TpchRowCounts RowCountsFor(const TpchConfig& config);

/// The 7-attribute ORDERS variant of [HLA+06] / Figure 2.
catalog::Schema OrdersSchema();

/// LINEITEM columns needed by the throughput-test queries.
catalog::Schema LineitemSchema();

/// CUSTOMER (c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment).
catalog::Schema CustomerSchema();

/// PART (p_partkey, p_name, p_brand, p_size, p_retailprice).
catalog::Schema PartSchema();

/// SUPPLIER (s_suppkey, s_name, s_nationkey, s_acctbal).
catalog::Schema SupplierSchema();

/// PARTSUPP (ps_partkey, ps_suppkey, ps_availqty, ps_supplycost).
catalog::Schema PartsuppSchema();

/// Generates ORDERS columns (o_orderkey, o_custkey, o_orderstatus,
/// o_totalprice, o_orderdate, o_orderpriority, o_shippriority).
std::vector<storage::ColumnData> GenerateOrders(const TpchConfig& config);

/// Generates LINEITEM columns (l_orderkey, l_partkey, l_suppkey,
/// l_quantity, l_extendedprice, l_discount, l_returnflag, l_shipdate).
/// Order keys reference GenerateOrders output for the same config.
std::vector<storage::ColumnData> GenerateLineitem(const TpchConfig& config);

/// Generates CUSTOMER rows covering every o_custkey GenerateOrders draws.
std::vector<storage::ColumnData> GenerateCustomer(const TpchConfig& config);

/// Generates PART rows covering every l_partkey GenerateLineitem draws.
std::vector<storage::ColumnData> GeneratePart(const TpchConfig& config);

/// Generates SUPPLIER rows covering every l_suppkey GenerateLineitem draws.
std::vector<storage::ColumnData> GenerateSupplier(const TpchConfig& config);

/// Generates PARTSUPP: two distinct supply links per part (when more than
/// one supplier exists). Every ps_partkey / ps_suppkey resolves against
/// PART / SUPPLIER; per-column FK containment of LINEITEM's (partkey,
/// suppkey) draws holds, pair containment is not promised (as in real
/// TPC-H data only the declared single-column FKs are normative here).
std::vector<storage::ColumnData> GeneratePartsupp(const TpchConfig& config);

/// One loaded table plus the load-time statistics the planner prices with.
struct TpchTable {
  std::unique_ptr<storage::TableStorage> storage;
  catalog::TableStats stats;
};

/// The full widened database: all six tables loaded on `device`, analyzed,
/// and registered in `catalog` under the names "customer", "part",
/// "supplier", "partsupp", "orders" and "lineitem" (in that order, which
/// fixes their table ids).
struct TpchDatabase {
  TpchTable orders;
  TpchTable lineitem;
  TpchTable customer;
  TpchTable part;
  TpchTable supplier;
  TpchTable partsupp;
};

StatusOr<TpchDatabase> LoadDatabase(const TpchConfig& config,
                                    storage::TableLayout layout,
                                    storage::StorageDevice* device,
                                    catalog::Catalog* catalog);

/// Date helpers: days since 1992-01-01 (the TPC-H calendar start).
constexpr int64_t kDateEpochStart = 0;
constexpr int64_t kDateRangeDays = 7 * 365;  // 1992-1998

}  // namespace ecodb::tpch

#endif  // ECODB_TPCH_GENERATOR_H_
