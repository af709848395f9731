// Tests for the WAL and recovery: record serialization (including a
// randomized round-trip sweep), group-commit flushing semantics and energy
// accounting, and crash recovery with redo/undo plus torn-tail handling at
// every byte boundary.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/ssd.h"
#include "txn/log_record.h"
#include "txn/recovery.h"
#include "txn/wal.h"
#include "util/fnv1a.h"
#include "util/random.h"

namespace ecodb::txn {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// --- LogRecord serialization -------------------------------------------------

TEST(LogRecord, RoundTrip) {
  LogRecord rec;
  rec.lsn = 42;
  rec.txn_id = 7;
  rec.type = LogRecordType::kUpdate;
  rec.page = {3, 9};
  rec.slot = 5;
  rec.before = Bytes("old");
  rec.after = Bytes("new value");

  std::vector<uint8_t> buf;
  rec.SerializeTo(&buf);
  size_t pos = 0;
  auto out = LogRecord::Deserialize(buf, &pos);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, rec);
  EXPECT_EQ(pos, buf.size());
}

TEST(LogRecord, RandomizedRoundTripSweep) {
  Rng rng(77);
  std::vector<uint8_t> buf;
  std::vector<LogRecord> originals;
  for (int i = 0; i < 200; ++i) {
    LogRecord rec;
    rec.lsn = rng.Next();
    rec.txn_id = rng.Next() % 1000;
    rec.type = static_cast<LogRecordType>(rng.Uniform(1, 7));
    rec.page = {static_cast<uint32_t>(rng.Next()),
                static_cast<uint32_t>(rng.Next())};
    rec.slot = static_cast<uint16_t>(rng.Next());
    rec.before.resize(rng.Uniform(0, 100));
    for (auto& b : rec.before) b = static_cast<uint8_t>(rng.Next());
    rec.after.resize(rng.Uniform(0, 100));
    for (auto& b : rec.after) b = static_cast<uint8_t>(rng.Next());
    rec.SerializeTo(&buf);
    originals.push_back(std::move(rec));
  }
  size_t pos = 0;
  for (const LogRecord& expected : originals) {
    auto rec = LogRecord::Deserialize(buf, &pos);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(LogRecord, ChecksumCatchesCorruption) {
  LogRecord rec;
  rec.lsn = 1;
  rec.after = Bytes("payload");
  rec.type = LogRecordType::kInsert;
  std::vector<uint8_t> buf;
  rec.SerializeTo(&buf);
  buf[buf.size() / 2] ^= 0x40;
  size_t pos = 0;
  EXPECT_EQ(LogRecord::Deserialize(buf, &pos).status().code(),
            StatusCode::kDataLoss);
}

TEST(LogRecord, TruncationAtEveryByteRejectsCleanly) {
  LogRecord rec;
  rec.lsn = 9;
  rec.type = LogRecordType::kUpdate;
  rec.before = Bytes("abc");
  rec.after = Bytes("defgh");
  std::vector<uint8_t> full;
  rec.SerializeTo(&full);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<uint8_t> torn(full.begin(), full.begin() + cut);
    size_t pos = 0;
    EXPECT_FALSE(LogRecord::Deserialize(torn, &pos).ok()) << "cut=" << cut;
  }
}

TEST(Fnv1a, StableKnownValue) {
  const uint8_t data[] = {'a', 'b', 'c'};
  EXPECT_EQ(Fnv1a(data, 3), 0xe71fa2190541574bULL);  // FNV-1a("abc")
}

// --- WalManager ---------------------------------------------------------------

class WalTest : public ::testing::Test {
 protected:
  WalTest() : meter_(&clock_), device_("log", power::SsdSpec{}, &meter_) {}

  WalManager MakeWal(int group_size, double timeout = 0.01) {
    WalConfig config;
    config.group_commit_size = group_size;
    config.group_commit_timeout_s = timeout;
    return WalManager(config, &clock_, &device_);
  }

  LogRecord Insert(TxnId txn, uint32_t page_no, const std::string& payload) {
    LogRecord rec;
    rec.txn_id = txn;
    rec.type = LogRecordType::kInsert;
    rec.page = {1, page_no};
    rec.slot = 0;
    rec.after = Bytes(payload);
    return rec;
  }

  sim::SimClock clock_;
  power::EnergyMeter meter_;
  storage::SsdDevice device_;
};

TEST_F(WalTest, LsnsMonotonic) {
  WalManager wal = MakeWal(1);
  const Lsn a = wal.Append(Insert(1, 0, "x"));
  const Lsn b = wal.Append(Insert(1, 1, "y"));
  EXPECT_LT(a, b);
}

TEST_F(WalTest, ImmediateFlushWithGroupSizeOne) {
  WalManager wal = MakeWal(1);
  wal.Append(Insert(1, 0, "x"));
  const CommitResult r = wal.Commit(1).value();
  EXPECT_GT(r.durable_time, 0.0);
  EXPECT_EQ(wal.stats().flushes, 1u);
  EXPECT_FALSE(wal.durable_bytes().empty());
}

TEST_F(WalTest, GroupCommitBatchesFlushes) {
  WalManager wal = MakeWal(4);
  for (TxnId t = 1; t <= 8; ++t) {
    wal.Append(Insert(t, static_cast<uint32_t>(t), "v"));
    ASSERT_TRUE(wal.Commit(t).ok());
  }
  EXPECT_EQ(wal.stats().flushes, 2u);  // 8 commits / group of 4
  EXPECT_EQ(wal.stats().commits, 8u);
}

TEST_F(WalTest, GroupCommitReducesDeviceEnergy) {
  // Fewer, larger flushes cost less device energy than many small ones
  // (per-request latency amortized) — the Section 5.2 knob.
  auto run = [&](int group) {
    sim::SimClock clock;
    power::EnergyMeter meter(&clock);
    storage::SsdDevice dev("log", power::SsdSpec{}, &meter);
    WalConfig config;
    config.group_commit_size = group;
    WalManager wal(config, &clock, &dev);
    for (TxnId t = 1; t <= 64; ++t) {
      LogRecord rec;
      rec.txn_id = t;
      rec.type = LogRecordType::kInsert;
      rec.page = {1, static_cast<uint32_t>(t)};
      rec.after.assign(100, 0x5a);
      wal.Append(std::move(rec));
      EXPECT_TRUE(wal.Commit(t).ok());
    }
    EXPECT_TRUE(wal.Flush().ok());
    clock.AdvanceTo(dev.busy_until());
    return meter.ChannelJoules(dev.channel());
  };
  EXPECT_LT(run(16), run(1));
}

TEST_F(WalTest, TimeoutFlushesPartialGroup) {
  WalManager wal = MakeWal(10, 0.5);
  wal.Append(Insert(1, 0, "x"));
  ASSERT_TRUE(wal.Commit(1).ok());
  EXPECT_EQ(wal.stats().flushes, 0u);
  EXPECT_FALSE(wal.FlushTimedOut(0.1).value());  // too early
  clock_.AdvanceTo(0.6);
  EXPECT_TRUE(wal.FlushTimedOut(0.6).value());
  EXPECT_EQ(wal.stats().flushes, 1u);
}

TEST_F(WalTest, FlushWithNothingPendingIsNoop) {
  WalManager wal = MakeWal(1);
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(wal.stats().flushes, 0u);
}

TEST_F(WalTest, AllBytesIncludesUnflushedTail) {
  WalManager wal = MakeWal(100);
  wal.Append(Insert(1, 0, "x"));
  EXPECT_TRUE(wal.durable_bytes().empty());
  EXPECT_FALSE(wal.AllBytes().empty());
}

// --- Recovery ------------------------------------------------------------------

class RecoveryTest : public WalTest {};

TEST_F(RecoveryTest, CommittedWorkIsRedone) {
  WalManager wal = MakeWal(1);
  LogRecord ins = Insert(1, 0, "hello");
  // Forward-processing applies to the "live" store as it logs.
  PageStore live;
  ASSERT_TRUE(ApplyRedo(ins, &live).ok());
  wal.Append(std::move(ins));
  ASSERT_TRUE(wal.Commit(1).ok());

  PageStore recovered;
  auto report = Recover(wal.durable_bytes(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->redo_applied, 1u);
  EXPECT_EQ(report->committed_txns, 1u);
  EXPECT_EQ(report->undo_applied, 0u);
  EXPECT_TRUE(PageStore::Equal(live, recovered));
}

TEST_F(RecoveryTest, UncommittedWorkIsUndone) {
  WalManager wal = MakeWal(1);
  // Txn 1 commits; txn 2 inserts but never commits.
  LogRecord a = Insert(1, 0, "keep");
  PageStore live;
  ASSERT_TRUE(ApplyRedo(a, &live).ok());
  wal.Append(std::move(a));
  ASSERT_TRUE(wal.Commit(1).ok());

  // Forward processing: apply to the live page first, then log the slot
  // the insert actually landed in.
  LogRecord b = Insert(2, 0, "lose");
  auto slot = live.GetOrCreate({1, 0})->Insert(b.after);
  ASSERT_TRUE(slot.ok());
  b.slot = *slot;  // second insert on the page lands in slot 1
  EXPECT_EQ(b.slot, 1);
  wal.Append(std::move(b));
  ASSERT_TRUE(wal.Flush().ok());

  PageStore recovered;
  auto report = Recover(wal.durable_bytes(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->loser_txns, 1u);
  EXPECT_EQ(report->undo_applied, 1u);
  const storage::Page* page = recovered.Find({1, 0});
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->live_records(), 1);
  auto rec = page->Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(std::string(rec->begin(), rec->end()), "keep");
  EXPECT_FALSE(page->Get(1).ok());
}

TEST_F(RecoveryTest, UpdateAndEraseRecover) {
  WalManager wal = MakeWal(1);
  PageStore live;

  LogRecord ins = Insert(1, 0, "v1");
  ASSERT_TRUE(ApplyRedo(ins, &live).ok());
  wal.Append(std::move(ins));

  LogRecord upd;
  upd.txn_id = 1;
  upd.type = LogRecordType::kUpdate;
  upd.page = {1, 0};
  upd.slot = 0;
  upd.before = Bytes("v1");
  upd.after = Bytes("v2");
  ASSERT_TRUE(ApplyRedo(upd, &live).ok());
  wal.Append(std::move(upd));
  ASSERT_TRUE(wal.Commit(1).ok());

  LogRecord ers;
  ers.txn_id = 2;
  ers.type = LogRecordType::kErase;
  ers.page = {1, 0};
  ers.slot = 0;
  ers.before = Bytes("v2");
  ASSERT_TRUE(ApplyRedo(ers, &live).ok());
  wal.Append(std::move(ers));
  ASSERT_TRUE(wal.Flush().ok());  // txn 2 never commits

  PageStore recovered;
  auto report = Recover(wal.durable_bytes(), &recovered);
  ASSERT_TRUE(report.ok());
  // Txn 2's erase is undone: the record is resurrected with value v2.
  const storage::Page* page = recovered.Find({1, 0});
  ASSERT_NE(page, nullptr);
  auto rec = page->Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(std::string(rec->begin(), rec->end()), "v2");
}

TEST_F(RecoveryTest, TornTailDetectedAndIgnored) {
  WalManager wal = MakeWal(1);
  LogRecord a = Insert(1, 0, "first");
  wal.Append(std::move(a));
  ASSERT_TRUE(wal.Commit(1).ok());
  LogRecord b = Insert(2, 1, "second");  // separate page, slot 0
  wal.Append(std::move(b));
  ASSERT_TRUE(wal.Commit(2).ok());

  const std::vector<uint8_t>& full = wal.durable_bytes();
  // Cut in the middle of the second commit's frames.
  std::vector<uint8_t> torn(full.begin(),
                            full.begin() + static_cast<long>(full.size()) - 3);
  PageStore recovered;
  auto report = Recover(torn, &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->torn_tail_detected);
}

TEST_F(RecoveryTest, RecoveryAtEveryPrefixNeverErrors) {
  // Property: recovery must handle a crash at ANY byte boundary of the log
  // without returning an error (losers roll back, torn frames drop).
  WalManager wal = MakeWal(2);
  std::map<uint32_t, uint16_t> next_slot;
  for (TxnId t = 1; t <= 6; ++t) {
    LogRecord ins = Insert(t, static_cast<uint32_t>(t % 3), "p" +
                           std::to_string(t));
    ins.slot = next_slot[ins.page.page_no]++;
    wal.Append(std::move(ins));
    ASSERT_TRUE(wal.Commit(t).ok());
  }
  ASSERT_TRUE(wal.Flush().ok());
  const std::vector<uint8_t> full = wal.durable_bytes();
  for (size_t cut = 0; cut <= full.size(); cut += 7) {
    std::vector<uint8_t> prefix(full.begin(),
                                full.begin() + static_cast<long>(cut));
    PageStore store;
    auto report = Recover(prefix, &store);
    ASSERT_TRUE(report.ok()) << "cut=" << cut;
  }
}

TEST_F(RecoveryTest, RecoveryIsIdempotentFromCheckpointState) {
  // Recovering the same log twice from the same starting state must agree.
  WalManager wal = MakeWal(1);
  for (TxnId t = 1; t <= 4; ++t) {
    LogRecord ins = Insert(t, 0, "r" + std::to_string(t));
    ins.slot = static_cast<uint16_t>(t - 1);  // sequential slots on page 0
    wal.Append(std::move(ins));
    ASSERT_TRUE(wal.Commit(t).ok());
  }
  PageStore once, twice;
  ASSERT_TRUE(Recover(wal.durable_bytes(), &once).ok());
  ASSERT_TRUE(Recover(wal.durable_bytes(), &twice).ok());
  EXPECT_TRUE(PageStore::Equal(once, twice));
}

TEST(PageStore, EqualityDetectsDifferences) {
  PageStore a, b;
  EXPECT_TRUE(PageStore::Equal(a, b));
  a.GetOrCreate({1, 0});
  EXPECT_FALSE(PageStore::Equal(a, b));
  b.GetOrCreate({1, 0});
  EXPECT_TRUE(PageStore::Equal(a, b));
  ASSERT_TRUE(a.GetOrCreate({1, 0})->Insert(Bytes("x")).ok());
  EXPECT_FALSE(PageStore::Equal(a, b));
}

}  // namespace
}  // namespace ecodb::txn
