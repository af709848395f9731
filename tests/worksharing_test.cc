// Tests for the work-sharing mechanisms: shared scans and the bursty
// prefetcher (Sections 4.2 and 5.2 of the paper).

#include <memory>

#include <gtest/gtest.h>

#include "power/energy_meter.h"
#include "sched/prefetcher.h"
#include "sched/shared_scan.h"
#include "sim/clock.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb::sched {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

class SharedScanTest : public ::testing::Test {
 protected:
  SharedScanTest() : meter_(&clock_), ssd_("s", power::SsdSpec{}, &meter_) {
    Schema schema({Column{"a", DataType::kInt64, 8},
                   Column{"b", DataType::kInt64, 8}});
    table_ = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, &ssd_);
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    for (int i = 0; i < 100000; ++i) {
      cols[0].i64.push_back(i);
      cols[1].i64.push_back(-i);
    }
    EXPECT_TRUE(table_->Append(cols).ok());
  }

  /// Admits a scan of `columns` (empty = all) through `mgr`. The payer
  /// submits the transfer's read itself, as a serving session bills it
  /// through its own context, and reports its completion; its ticket then
  /// carries the data-ready instant a follower waits for.
  ScanTicket Scan(SharedScanManager* mgr, std::vector<int> columns) {
    ScanTicket ticket = mgr->AdmitScan(*table_, columns).value();
    if (ticket.shared) return ticket;
    if (columns.empty()) columns = {0, 1};
    const storage::IoResult io =
        ssd_.SubmitRead(clock_.now(), table_->ScanBytes(columns),
                        /*sequential=*/true)
            .value();
    mgr->CompleteTransfer(*table_, io.completion_time);
    ticket.ready_time = io.completion_time;
    return ticket;
  }

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  storage::SsdDevice ssd_;
  std::unique_ptr<storage::TableStorage> table_;
};

TEST_F(SharedScanTest, SecondScanWithinWindowPiggybacks) {
  SharedScanManager mgr(&clock_, /*share_window_s=*/1.0);
  const ScanTicket a = Scan(&mgr, {0});
  const ScanTicket b = Scan(&mgr, {0});
  EXPECT_FALSE(a.shared);
  EXPECT_TRUE(b.shared);
  EXPECT_DOUBLE_EQ(a.ready_time, b.ready_time);
  EXPECT_EQ(mgr.stats().device_transfers, 1u);
  EXPECT_EQ(mgr.stats().scans_requested, 2u);
  EXPECT_GT(mgr.stats().bytes_saved, 0u);
  EXPECT_DOUBLE_EQ(mgr.stats().ShareRate(), 0.5);
}

TEST_F(SharedScanTest, ExpiredWindowRereads) {
  SharedScanManager mgr(&clock_, 1.0);
  EXPECT_FALSE(Scan(&mgr, {0}).shared);
  clock_.Advance(5.0);
  const ScanTicket b = Scan(&mgr, {0});
  EXPECT_FALSE(b.shared);
  EXPECT_EQ(mgr.stats().device_transfers, 2u);
}

TEST_F(SharedScanTest, WiderColumnSetCannotPiggyback) {
  SharedScanManager mgr(&clock_, 1.0);
  EXPECT_FALSE(Scan(&mgr, {0}).shared);
  const ScanTicket b = Scan(&mgr, {0, 1});
  EXPECT_FALSE(b.shared);
  // But a narrower request can ride the wide one.
  const ScanTicket c = Scan(&mgr, {1});
  EXPECT_TRUE(c.shared);
}

TEST_F(SharedScanTest, SharingSavesDeviceEnergy) {
  SharedScanManager shared(&clock_, 1.0);
  for (int i = 0; i < 10; ++i) Scan(&shared, {0});
  const double shared_busy = meter_.ChannelBusySeconds(ssd_.channel());

  SharedScanManager unshared(&clock_, 0.0);
  for (int i = 0; i < 10; ++i) {
    Scan(&unshared, {0});
    clock_.Advance(1.0);  // outside any window
  }
  const double total_busy = meter_.ChannelBusySeconds(ssd_.channel());
  EXPECT_LT(shared_busy, (total_busy - shared_busy) / 5.0);
}

TEST_F(SharedScanTest, EmptyColumnListMeansAllColumns) {
  SharedScanManager mgr(&clock_, 1.0);
  EXPECT_FALSE(Scan(&mgr, {}).shared);
  const ScanTicket b = Scan(&mgr, {0});
  EXPECT_TRUE(b.shared);  // full-table transfer covers any projection
}

// --- BurstyPrefetcher ---------------------------------------------------------

class PrefetcherTest : public ::testing::Test {
 protected:
  PrefetcherTest() : meter_(&clock_), hdd_("h", power::HddSpec{}, &meter_) {}

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  storage::HddDevice hdd_;
};

TEST_F(PrefetcherTest, BurstSizeOneFetchesEveryPage) {
  BurstyPrefetcher pf(&clock_, &hdd_, 64 << 10, 1);
  for (int i = 0; i < 10; ++i) {
    clock_.AdvanceTo(pf.NextPage().value());
    clock_.Advance(1.0);  // consumer think time
  }
  EXPECT_EQ(pf.stats().device_bursts, 10u);
  EXPECT_EQ(pf.stats().pages_served, 10u);
}

TEST_F(PrefetcherTest, LargerBurstsFewerDeviceVisits) {
  BurstyPrefetcher pf(&clock_, &hdd_, 64 << 10, 8);
  for (int i = 0; i < 32; ++i) {
    clock_.AdvanceTo(pf.NextPage().value());
    clock_.Advance(1.0);
  }
  EXPECT_EQ(pf.stats().device_bursts, 4u);
  EXPECT_EQ(pf.buffered(), 0);
}

TEST_F(PrefetcherTest, BurstsLengthenIdleGaps) {
  // Identical consumer pace; idle gaps between device visits grow with the
  // burst size — the property spin-down needs.
  auto run = [&](int burst) {
    sim::SimClock clock;
    power::EnergyMeter meter(&clock);
    storage::HddDevice hdd("h", power::HddSpec{}, &meter);
    BurstyPrefetcher pf(&clock, &hdd, 64 << 10, burst);
    for (int i = 0; i < 64; ++i) {
      clock.AdvanceTo(pf.NextPage().value());
      clock.Advance(2.0);
    }
    return pf.stats().longest_idle_gap_s;
  };
  const double gap1 = run(1);
  const double gap16 = run(16);
  EXPECT_GT(gap16, gap1 * 8);
}

TEST_F(PrefetcherTest, BufferedPagesServeInstantly) {
  BurstyPrefetcher pf(&clock_, &hdd_, 64 << 10, 4);
  clock_.AdvanceTo(pf.NextPage().value());  // miss: fetches 4
  EXPECT_EQ(pf.buffered(), 3);
  const double now = clock_.now();
  EXPECT_DOUBLE_EQ(pf.NextPage().value(), now);  // hit
  EXPECT_DOUBLE_EQ(pf.NextPage().value(), now);  // hit
  EXPECT_EQ(pf.buffered(), 1);
}

}  // namespace
}  // namespace ecodb::sched
