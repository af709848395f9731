#include "storage/table_storage.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/flat_key_index.h"

namespace ecodb::storage {

size_t ColumnData::size() const {
  switch (type) {
    case catalog::DataType::kInt64:
    case catalog::DataType::kDate:
      return i64.size();
    case catalog::DataType::kDouble:
      return f64.size();
    case catalog::DataType::kString:
      return str.size();
  }
  return 0;
}

TableStorage::TableStorage(catalog::TableId id, catalog::Schema schema,
                           TableLayout layout, StorageDevice* device)
    : id_(id), schema_(std::move(schema)), layout_(layout), device_(device) {
  columns_.resize(schema_.num_columns());
  layouts_.resize(schema_.num_columns());
  encoded_.resize(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    columns_[i].type = schema_.column(i).type;
  }
}

namespace {

uint64_t RawColumnBytes(const catalog::Column& col, uint64_t rows,
                        const ColumnData& data) {
  if (col.type == catalog::DataType::kString) {
    uint64_t total = 0;
    for (const std::string& s : data.str) total += s.size() + 1;
    return total;
  }
  return rows * 8;
}

/// Distinct values of `values` under ==; `hash(r)` hashes row r.
template <typename T, typename RowHash>
uint64_t CountDistinct(const std::vector<T>& values, RowHash hash) {
  return FlatKeyIndex::CountDistinct(
      values.size(), hash,
      [&](size_t a, size_t b) { return values[a] == values[b]; });
}

/// Equal doubles hash alike (-0.0 as 0.0). NaN equals nothing, so hashing
/// it by its row spreads a NaN-heavy lane over the table instead of piling
/// it onto one probe chain.
uint64_t HashDoubleRow(double v, size_t row) {
  if (std::isnan(v)) return MixHash64(row);
  return MixHash64(std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v));
}

}  // namespace

Status TableStorage::Append(const std::vector<ColumnData>& columns) {
  if (static_cast<int>(columns.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("column count mismatch");
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (int i = 0; i < schema_.num_columns(); ++i) {
    if (columns[i].type != schema_.column(i).type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema_.column(i).name);
    }
    if (columns[i].size() != rows) {
      return Status::InvalidArgument("ragged column lengths");
    }
  }
  for (int i = 0; i < schema_.num_columns(); ++i) {
    ColumnData& dst = columns_[i];
    const ColumnData& src = columns[i];
    dst.i64.insert(dst.i64.end(), src.i64.begin(), src.i64.end());
    dst.f64.insert(dst.f64.end(), src.f64.begin(), src.f64.end());
    dst.str.insert(dst.str.end(), src.str.begin(), src.str.end());
  }
  row_count_ += rows;
  for (int i = 0; i < schema_.num_columns(); ++i) {
    ECODB_RETURN_IF_ERROR(ReencodeColumn(i));
  }
  return Status::OK();
}

Status TableStorage::ReencodeColumn(int i) {
  ColumnLayout& layout = layouts_[i];
  const catalog::Column& col = schema_.column(i);
  layout.raw_bytes = RawColumnBytes(col, row_count_, columns_[i]);

  if (layout.compression == CompressionKind::kNone) {
    encoded_[i].clear();
    layout.encoded_bytes = layout.raw_bytes;
    return Status::OK();
  }
  if (col.type == catalog::DataType::kString) {
    if (layout.compression != CompressionKind::kDictionary) {
      return Status::InvalidArgument("string columns support dictionary only");
    }
    StringDictionaryCodec codec;
    ECODB_RETURN_IF_ERROR(codec.Encode(columns_[i].str, &encoded_[i]));
    layout.encoded_bytes = encoded_[i].size();
    return Status::OK();
  }
  if (col.type == catalog::DataType::kDouble) {
    return Status::Unimplemented("double columns are stored uncompressed");
  }
  auto codec = MakeInt64Codec(layout.compression);
  if (codec == nullptr) {
    return Status::InvalidArgument("codec not applicable to int64");
  }
  ECODB_RETURN_IF_ERROR(codec->Encode(columns_[i].i64, &encoded_[i]));
  layout.encoded_bytes = encoded_[i].size();
  return Status::OK();
}

Status TableStorage::SetCompression(const std::string& column,
                                    CompressionKind kind) {
  const int idx = schema_.FindColumn(column);
  if (idx < 0) return Status::NotFound("no column named '" + column + "'");
  const CompressionKind prev = layouts_[idx].compression;
  layouts_[idx].compression = kind;
  const Status st = ReencodeColumn(idx);
  if (!st.ok()) layouts_[idx].compression = prev;
  return st;
}

StatusOr<ColumnData> TableStorage::ReadColumn(int i) const {
  if (i < 0 || i >= schema_.num_columns()) {
    return Status::OutOfRange("column index");
  }
  const ColumnLayout& layout = layouts_[i];
  if (layout.compression == CompressionKind::kNone) {
    return columns_[i];
  }
  // Decode through the codec: this is the real CPU work a compressed scan
  // performs, and doubles as a continuous lossless-round-trip check.
  ColumnData out;
  out.type = columns_[i].type;
  if (out.type == catalog::DataType::kString) {
    StringDictionaryCodec codec;
    ECODB_RETURN_IF_ERROR(codec.Decode(encoded_[i], &out.str));
    return out;
  }
  auto codec = MakeInt64Codec(layout.compression);
  ECODB_RETURN_IF_ERROR(codec->Decode(encoded_[i], &out.i64));
  return out;
}

StatusOr<DictionaryColumn> TableStorage::ReadDictionaryColumn(int i) const {
  if (i < 0 || i >= schema_.num_columns()) {
    return Status::OutOfRange("column index");
  }
  if (layouts_[i].compression != CompressionKind::kDictionary) {
    return Status::InvalidArgument("column is not dictionary-coded");
  }
  DictionaryColumn out;
  ECODB_RETURN_IF_ERROR(StringDictionaryCodec().Parse(encoded_[i], &out));
  return out;
}

uint64_t TableStorage::ScanBytes(const std::vector<int>& column_indexes,
                                 double selected_fraction) const {
  // Skipped blocks skip their bytes for prunable storage (row pages and
  // uncompressed columns); whole-column codecs must still stream fully.
  const auto selected = [&](uint64_t bytes) {
    return static_cast<uint64_t>(static_cast<double>(bytes) *
                                 selected_fraction);
  };
  uint64_t total = 0;
  if (layout_ == TableLayout::kRow) {
    // NSM reads whole rows no matter the projection. Row pages hold the
    // uncompressed row image (row stores rarely compress in place).
    for (int i = 0; i < schema_.num_columns(); ++i) {
      total += layouts_[i].raw_bytes;
    }
    return selected(total);
  }
  std::vector<bool> seen(schema_.num_columns());
  for (int i : column_indexes) {
    if (i < 0 || i >= schema_.num_columns() || seen[i]) continue;
    seen[i] = true;
    const ColumnLayout& layout = layouts_[i];
    total += layout.compression == CompressionKind::kNone
                 ? selected(layout.encoded_bytes)
                 : layout.encoded_bytes;
  }
  return total;
}

uint64_t TableStorage::TotalBytes() const {
  uint64_t total = 0;
  for (const ColumnLayout& l : layouts_) total += l.encoded_bytes;
  return total;
}

double TableStorage::DecodeInstructions(
    const std::vector<int>& column_indexes, double selected_fraction) const {
  const double total_rows = static_cast<double>(row_count_);
  double instructions = 0.0;
  std::vector<bool> seen(schema_.num_columns());
  for (int i : column_indexes) {
    if (i < 0 || i >= schema_.num_columns() || seen[i]) continue;
    seen[i] = true;
    const CompressionKind kind = layouts_[i].compression;
    const double rows = kind == CompressionKind::kNone
                            ? total_rows * selected_fraction
                            : total_rows;  // whole-column decode
    instructions += DecodeInstructionsPerValue(kind) * rows;
  }
  return instructions;
}

int64_t ZoneStringPrefixKey(const std::string& s) {
  uint64_t key = 0;
  for (int i = 0; i < 8; ++i) {
    key = (key << 8) |
          (i < static_cast<int>(s.size())
               ? static_cast<uint8_t>(s[static_cast<size_t>(i)])
               : 0);
  }
  return static_cast<int64_t>(key ^ (1ULL << 63));  // keep signed order
}

Status TableStorage::BuildZoneMaps(size_t block_rows) {
  if (block_rows == 0) {
    return Status::InvalidArgument("block_rows must be positive");
  }
  zone_maps_.block_rows = block_rows;
  zone_maps_.entries.assign(schema_.num_columns(), {});
  const size_t blocks = (row_count_ + block_rows - 1) / block_rows;
  for (int c = 0; c < schema_.num_columns(); ++c) {
    std::vector<ZoneEntry>& col_zones = zone_maps_.entries[c];
    col_zones.resize(blocks);
    const ColumnData& data = columns_[c];
    for (size_t b = 0; b < blocks; ++b) {
      const size_t lo = b * block_rows;
      const size_t hi = std::min<size_t>(row_count_, lo + block_rows);
      ZoneEntry& z = col_zones[b];
      switch (data.type) {
        case catalog::DataType::kInt64:
        case catalog::DataType::kDate: {
          z.min_i64 = *std::min_element(data.i64.begin() + lo,
                                        data.i64.begin() + hi);
          z.max_i64 = *std::max_element(data.i64.begin() + lo,
                                        data.i64.begin() + hi);
          break;
        }
        case catalog::DataType::kDouble: {
          // NaN compares false with everything, so it cannot bound a
          // block: a block holding one spans every value (its NaNs satisfy
          // `!=`, which such a block never prunes).
          const auto first = data.f64.begin() + lo;
          const auto last = data.f64.begin() + hi;
          if (std::any_of(first, last,
                          [](double v) { return std::isnan(v); })) {
            z.min_f64 = -std::numeric_limits<double>::infinity();
            z.max_f64 = std::numeric_limits<double>::infinity();
          } else {
            z.min_f64 = *std::min_element(first, last);
            z.max_f64 = *std::max_element(first, last);
          }
          break;
        }
        case catalog::DataType::kString: {
          int64_t mn = INT64_MAX, mx = INT64_MIN;
          for (size_t r = lo; r < hi; ++r) {
            const int64_t k = ZoneStringPrefixKey(data.str[r]);
            mn = std::min(mn, k);
            mx = std::max(mx, k);
          }
          z.min_i64 = mn;
          z.max_i64 = mx;
          break;
        }
      }
    }
  }
  return Status::OK();
}

Status TableStorage::AnalyzeInto(catalog::TableStats* stats) const {
  stats->row_count = row_count_;
  stats->columns.assign(schema_.num_columns(), catalog::ColumnStats{});
  for (int i = 0; i < schema_.num_columns(); ++i) {
    catalog::ColumnStats& cs = stats->columns[i];
    const ColumnData& data = columns_[i];
    switch (data.type) {
      case catalog::DataType::kInt64:
      case catalog::DataType::kDate: {
        if (!data.i64.empty()) {
          cs.min_i64 = *std::min_element(data.i64.begin(), data.i64.end());
          cs.max_i64 = *std::max_element(data.i64.begin(), data.i64.end());
          cs.distinct_values = FlatKeyIndex::CountDistinct(data.i64);
        }
        break;
      }
      case catalog::DataType::kDouble: {
        if (!data.f64.empty()) {
          // NaN compares false with everything, so it cannot bound the
          // column: the bounds are those of the other values, wherever the
          // NaNs sit. An all-NaN column keeps NaN bounds.
          constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
          cs.min_f64 = kNaN;
          cs.max_f64 = kNaN;
          for (double v : data.f64) {
            if (std::isnan(v)) continue;
            // Written so the first value replaces the NaN start; a tie
            // keeps the earlier value, as std::min_element does.
            if (!(v >= cs.min_f64)) cs.min_f64 = v;
            if (!(v <= cs.max_f64)) cs.max_f64 = v;
          }
          cs.distinct_values = CountDistinct(data.f64, [&](size_t r) {
            return HashDoubleRow(data.f64[r], r);
          });
        }
        break;
      }
      case catalog::DataType::kString: {
        cs.distinct_values = CountDistinct(data.str, [&](size_t r) {
          return HashBytes(data.str[r]);
        });
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace ecodb::storage
