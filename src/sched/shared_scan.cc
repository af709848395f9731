#include "sched/shared_scan.h"

#include <algorithm>

namespace ecodb::sched {

SharedScanManager::SharedScanManager(sim::SimClock* clock,
                                     double share_window_s)
    : clock_(clock), share_window_s_(share_window_s) {}

StatusOr<ScanTicket> SharedScanManager::AdmitScan(
    const storage::TableStorage& table, std::vector<int> column_indexes) {
  ++stats_.scans_requested;
  if (column_indexes.empty()) {
    for (int i = 0; i < table.schema().num_columns(); ++i) {
      column_indexes.push_back(i);
    }
  }
  const std::set<int> needed(column_indexes.begin(), column_indexes.end());
  const double now = clock_->now();

  auto it = last_transfer_.find(&table);
  if (it != last_transfer_.end()) {
    const Transfer& t = it->second;
    const bool fresh = now - t.start_time <= share_window_s_;
    const bool covers = std::includes(t.columns.begin(), t.columns.end(),
                                      needed.begin(), needed.end());
    if (fresh && covers) {
      stats_.bytes_saved += table.ScanBytes(column_indexes);
      ScanTicket ticket;
      ticket.ready_time = std::max(now, t.completion_time);
      ticket.shared = true;
      return ticket;
    }
  }

  // New transfer: the caller pays for the union of this request's columns
  // and reports the real completion via CompleteTransfer(). Until then
  // followers see completion == start, which is only reachable by requests
  // admitted at the same instant (they share the payer's data anyway).
  const uint64_t bytes = table.ScanBytes(column_indexes);
  Transfer t;
  t.start_time = now;
  t.columns = needed;
  t.completion_time = now;
  last_transfer_[&table] = std::move(t);
  ++stats_.device_transfers;
  stats_.bytes_transferred += bytes;

  ScanTicket ticket;
  ticket.ready_time = now;
  ticket.shared = false;
  return ticket;
}

void SharedScanManager::CompleteTransfer(const storage::TableStorage& table,
                                         double completion_time) {
  auto it = last_transfer_.find(&table);
  if (it == last_transfer_.end()) return;
  it->second.completion_time =
      std::max(it->second.completion_time, completion_time);
}

}  // namespace ecodb::sched
