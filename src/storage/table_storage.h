// Table storage: real column/row data bound to a simulated device.
//
// EcoDB separates the two things a storage engine provides:
//   * the *bytes* (kept in memory here, since devices are simulated), and
//   * the *cost* of getting them (service time + energy charged against the
//     owning device when operators scan).
// Column tables keep one lane per column and an optional per-column
// compression codec; the encoded buffers are real (produced by the codecs in
// compression.h), so footprints, ratios, and decode work are all genuine.

#ifndef ECODB_STORAGE_TABLE_STORAGE_H_
#define ECODB_STORAGE_TABLE_STORAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "storage/compression.h"
#include "storage/device.h"
#include "storage/zone_map.h"
#include "util/status.h"

namespace ecodb::storage {

/// Physical row organization.
enum class TableLayout {
  kRow,     // NSM: scans read every column regardless of projection
  kColumn,  // DSM: scans read only projected columns
};

const char* TableLayoutName(TableLayout layout);

/// One column's values. Exactly one lane is populated, per the type.
struct ColumnData {
  catalog::DataType type = catalog::DataType::kInt64;
  std::vector<int64_t> i64;   // kInt64 and kDate
  std::vector<double> f64;    // kDouble
  std::vector<std::string> str;  // kString

  size_t size() const;
};

/// On-device footprint of one column.
struct ColumnLayout {
  CompressionKind compression = CompressionKind::kNone;
  uint64_t raw_bytes = 0;
  uint64_t encoded_bytes = 0;
  double Ratio() const {
    return raw_bytes ? static_cast<double>(encoded_bytes) /
                           static_cast<double>(raw_bytes)
                     : 1.0;
  }
};

class TableStorage {
 public:
  /// `device` must outlive the table.
  TableStorage(catalog::TableId id, catalog::Schema schema,
               TableLayout layout, StorageDevice* device);

  catalog::TableId id() const { return id_; }
  const catalog::Schema& schema() const { return schema_; }
  TableLayout layout() const { return layout_; }
  StorageDevice* device() const { return device_; }
  uint64_t row_count() const { return row_count_; }

  /// Appends columnar data; all columns must match the schema types and
  /// have equal lengths.
  Status Append(const std::vector<ColumnData>& columns);

  /// Applies `kind` to the named column, re-encoding its current contents.
  /// Dictionary is for strings; integer codecs for int64/date. kNone resets.
  Status SetCompression(const std::string& column, CompressionKind kind);

  /// Decoded values of column `i` — decodes through the codec when the
  /// column is compressed (the work an operator's scan performs). The
  /// result matches the appended data exactly (lossless round-trip).
  StatusOr<ColumnData> ReadColumn(int i) const;

  /// In-memory reference to the uncompressed data (no decode charge);
  /// intended for loading-side helpers and tests.
  const ColumnData& RawColumn(int i) const { return columns_[i]; }

  const ColumnLayout& column_layout(int i) const { return layouts_[i]; }

  /// Bytes a scan projecting `column_indexes` must transfer from the
  /// device, honoring the layout (row layout always reads full rows), when
  /// `selected_fraction` of the zone blocks survive pruning: row pages and
  /// uncompressed columns skip pruned blocks, compressed columns do not.
  uint64_t ScanBytes(const std::vector<int>& column_indexes,
                     double selected_fraction = 1.0) const;

  /// Total device-resident footprint.
  uint64_t TotalBytes() const;

  /// Abstract CPU instructions to decode `column_indexes` during the same
  /// scan: DecodeInstructionsPerValue for each selected value of an
  /// uncompressed column, and for every value of a compressed one (codecs
  /// decode the whole column).
  double DecodeInstructions(const std::vector<int>& column_indexes,
                            double selected_fraction = 1.0) const;

  /// Computes fresh statistics into `stats` (row count, min/max, NDV).
  Status AnalyzeInto(catalog::TableStats* stats) const;

  /// Points the table at a different device (partition migration). The
  /// caller is responsible for charging the data-movement I/O.
  void Rebind(StorageDevice* device) { device_ = device; }

  /// Builds per-block min/max zone maps over the current contents with
  /// `block_rows` rows per block. Rebuild after further Appends.
  Status BuildZoneMaps(size_t block_rows);

  const ZoneMapSet& zone_maps() const { return zone_maps_; }

 private:
  Status ReencodeColumn(int i);

  catalog::TableId id_;
  catalog::Schema schema_;
  TableLayout layout_;
  StorageDevice* device_;
  uint64_t row_count_ = 0;
  std::vector<ColumnData> columns_;
  std::vector<ColumnLayout> layouts_;
  /// Encoded buffers; empty for kNone columns.
  std::vector<std::vector<uint8_t>> encoded_;
  ZoneMapSet zone_maps_;
};

}  // namespace ecodb::storage

#endif  // ECODB_STORAGE_TABLE_STORAGE_H_
