// Tests for the work-sharing mechanism: shared scans (Section 5.2 of the
// paper).

#include <memory>

#include <gtest/gtest.h>

#include "power/energy_meter.h"
#include "sched/shared_scan.h"
#include "sim/clock.h"
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

}  // namespace
}  // namespace ecodb::sched
