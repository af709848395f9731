// Write-ahead-log records with real byte-level serialization.
//
// Section 5.2 of the paper singles logging out: ~15% of OLTP instructions
// are logging-related [HAM+08], and energy-aware systems may "increase the
// batching factor (and increase response time) to avoid frequent commits on
// stable storage". The WAL here is a genuine physiological redo/undo log:
// records carry before/after images, serialize to bytes, and are replayed
// by RecoveryManager into slotted pages.

#ifndef ECODB_TXN_LOG_RECORD_H_
#define ECODB_TXN_LOG_RECORD_H_

#include <cstdint>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace ecodb::txn {

using Lsn = uint64_t;
using TxnId = uint64_t;

constexpr Lsn kInvalidLsn = 0;

enum class LogRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,   // after image only
  kUpdate = 5,   // before + after images
  kErase = 6,    // before image only
  kCheckpoint = 7,
};

struct LogRecord {
  Lsn lsn = kInvalidLsn;
  TxnId txn_id = 0;
  LogRecordType type = LogRecordType::kBegin;
  storage::PageId page;
  uint16_t slot = storage::Page::kInvalidSlot;
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;

  /// Appends the serialized form (length-prefixed, checksummed) to `out`.
  void SerializeTo(std::vector<uint8_t>* out) const;

  /// Parses one record at `*pos`, advancing it. DataLoss on corruption or
  /// truncation (a torn tail after a crash parses as DataLoss and ends the
  /// redo scan, which is the correct recovery semantic).
  static StatusOr<LogRecord> Deserialize(const std::vector<uint8_t>& buf,
                                         size_t* pos);

  bool operator==(const LogRecord&) const = default;
};

}  // namespace ecodb::txn

#endif  // ECODB_TXN_LOG_RECORD_H_
