// The Catalog's one lock under concurrent use: shared lookups beside
// exclusive DDL and stats updates. Labelled tsan, so the tsan preset
// reports a race or a re-entered lock here (CONTRACT.md, EC9's row).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"

namespace ecodb::catalog {
namespace {

Schema TwoColumns() {
  return Schema({Column{"id", DataType::kInt64, 8},
                 Column{"v", DataType::kDouble, 8}});
}

TableStats StatsWithRows(uint64_t rows) {
  TableStats stats;
  stats.row_count = rows;
  stats.columns.resize(2);
  return stats;
}

TEST(Catalog, ConcurrentLookupsAndWrites) {
  // Readers look up the base tables and read their stats, which nothing
  // updates meanwhile (catalog.h: an entry's stats are not read across an
  // UpdateStats of that entry). The writer creates the w tables and updates
  // their stats; readers look those up but read only their name and schema.
  constexpr int kBase = 4;
  constexpr int kWritten = 64;
  constexpr int kReaders = 3;
  constexpr int kMinRounds = 200;
  Catalog cat;
  for (int t = 0; t < kBase; ++t) {
    auto id = cat.CreateTable("base" + std::to_string(t), TwoColumns());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(cat.UpdateStats(*id, StatsWithRows(100 + t)).ok());
  }

  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t last_size = kBase;
      for (int round = 0; round < kMinRounds || !writer_done.load();
           ++round) {
        const int t = (round + r) % kBase;
        auto base = cat.GetTable("base" + std::to_string(t));
        ASSERT_TRUE(base.ok()) << base.status().ToString();
        EXPECT_EQ((*base)->name, "base" + std::to_string(t));
        EXPECT_EQ((*base)->stats.row_count, static_cast<uint64_t>(100 + t));

        const size_t size = cat.size();
        EXPECT_GE(size, last_size);
        EXPECT_LE(size, static_cast<size_t>(kBase + kWritten));
        last_size = size;

        const std::string name = "w" + std::to_string(round % kWritten);
        auto written = cat.GetTable(name);
        if (written.ok()) {
          EXPECT_EQ((*written)->name, name);
          EXPECT_EQ((*written)->schema.num_columns(), 2);
        } else {
          EXPECT_EQ(written.status().code(), StatusCode::kNotFound);
        }
      }
    });
  }

  for (int w = 0; w < kWritten; ++w) {
    auto id = cat.CreateTable("w" + std::to_string(w), TwoColumns());
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (id.ok()) {
      EXPECT_TRUE(cat.UpdateStats(*id, StatsWithRows(w)).ok());
    }
  }
  writer_done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(cat.size(), static_cast<size_t>(kBase + kWritten));
  for (int w = 0; w < kWritten; ++w) {
    auto written = cat.GetTable("w" + std::to_string(w));
    ASSERT_TRUE(written.ok());
    EXPECT_EQ((*written)->stats.row_count, static_cast<uint64_t>(w));
  }
}

}  // namespace
}  // namespace ecodb::catalog
