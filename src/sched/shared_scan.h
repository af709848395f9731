// Shared scans: work sharing across concurrent queries.
//
// Section 5.2 of the paper: "Techniques that enable and encourage work
// sharing across queries will become increasingly attractive." A shared
// scan lets queries that need the same table within a short window ride a
// single device transfer instead of each paying for their own — the same
// bytes, read once. The manager tracks in-flight/recent transfers per
// (table, column set) and piggybacks compatible requests.

#ifndef ECODB_SCHED_SHARED_SCAN_H_
#define ECODB_SCHED_SHARED_SCAN_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sim/clock.h"
#include "storage/table_storage.h"
#include "util/status.h"

namespace ecodb::sched {

struct SharedScanStats {
  uint64_t scans_requested = 0;
  uint64_t device_transfers = 0;
  uint64_t bytes_transferred = 0;
  uint64_t bytes_saved = 0;  // bytes piggybacked instead of re-read

  double ShareRate() const {
    return scans_requested
               ? 1.0 - static_cast<double>(device_transfers) /
                           static_cast<double>(scans_requested)
               : 0.0;
  }
};

/// Outcome of one scan request.
struct ScanTicket {
  /// Simulated time at which the data is available to the requester.
  double ready_time = 0.0;
  /// True if this request shared another request's transfer.
  bool shared = false;
};

class SharedScanManager {
 public:
  /// Requests arriving within `share_window_s` of a transfer of the same
  /// table covering the needed columns piggyback on it. `clock` must
  /// outlive the manager.
  SharedScanManager(sim::SimClock* clock, double share_window_s);

  /// Decides whether a scan of `table` projecting `column_indexes` (empty =
  /// all) piggybacks on the last in-window transfer of `table` that covers
  /// its columns. The manager submits no device I/O itself. A non-shared
  /// ticket means the caller is the payer — it must bill the transfer
  /// through its own session context and then report the transfer's
  /// completion via CompleteTransfer(), so followers within the window
  /// wait for the real data-ready instant.
  StatusOr<ScanTicket> AdmitScan(const storage::TableStorage& table,
                                 std::vector<int> column_indexes);

  /// Records the completion time of the transfer a non-shared AdmitScan()
  /// registered (the payer's device I/O, billed through its ExecContext).
  void CompleteTransfer(const storage::TableStorage& table,
                        double completion_time);

  const SharedScanStats& stats() const { return stats_; }

 private:
  struct Transfer {
    double start_time = 0.0;
    double completion_time = 0.0;
    std::set<int> columns;
  };

  sim::SimClock* clock_;
  double share_window_s_;
  std::map<const storage::TableStorage*, Transfer> last_transfer_;
  SharedScanStats stats_;
};

}  // namespace ecodb::sched

#endif  // ECODB_SCHED_SHARED_SCAN_H_
