#include "txn/recovery.h"

#include <algorithm>
#include <vector>

namespace ecodb::txn {

storage::Page* PageStore::GetOrCreate(storage::PageId id) {
  return &pages_[id];
}

storage::Page* PageStore::Find(storage::PageId id) {
  auto it = pages_.find(id);
  return it == pages_.end() ? nullptr : &it->second;
}

const storage::Page* PageStore::Find(storage::PageId id) const {
  auto it = pages_.find(id);
  return it == pages_.end() ? nullptr : &it->second;
}

void PageStore::ForEach(
    const std::function<void(storage::PageId, const storage::Page&)>& fn)
    const {
  // Visit in page-id order so callers (checksums, dumps, replay audits)
  // see the same sequence on every run regardless of hash layout.
  std::vector<storage::PageId> ids;
  ids.reserve(pages_.size());
  for (const auto& [id, page] : pages_) ids.push_back(id);  // NOLINT-ECODB(EC5): collect-then-sort, order-independent
  std::sort(ids.begin(), ids.end(),
            [](const storage::PageId& a, const storage::PageId& b) {
              return a.space_id != b.space_id ? a.space_id < b.space_id
                                              : a.page_no < b.page_no;
            });
  for (const storage::PageId& id : ids) fn(id, pages_.at(id));
}

bool PageStore::Equal(const PageStore& a, const PageStore& b) {
  if (a.pages_.size() != b.pages_.size()) return false;
  for (const auto& [id, page] : a.pages_) {  // NOLINT-ECODB(EC5): all-of lookup, order-independent
    const storage::Page* other = b.Find(id);
    if (other == nullptr || other->image() != page.image()) return false;
  }
  return true;
}

Status ApplyRedo(const LogRecord& rec, PageStore* store) {
  storage::Page* page = store->GetOrCreate(rec.page);
  switch (rec.type) {
    case LogRecordType::kInsert: {
      auto slot = page->Insert(rec.after);
      if (!slot.ok()) return slot.status();
      if (*slot != rec.slot) {
        return Status::DataLoss("redo insert slot diverged from log");
      }
      return Status::OK();
    }
    case LogRecordType::kUpdate:
      return page->Update(rec.slot, rec.after);
    case LogRecordType::kErase:
      return page->Erase(rec.slot);
    default:
      return Status::OK();  // control records change no page state
  }
}

namespace {

Status ApplyUndo(const LogRecord& rec, PageStore* store) {
  storage::Page* page = store->Find(rec.page);
  if (page == nullptr) return Status::DataLoss("undo against missing page");
  switch (rec.type) {
    case LogRecordType::kInsert:
      return page->Erase(rec.slot);
    case LogRecordType::kUpdate:
      return page->Update(rec.slot, rec.before);
    case LogRecordType::kErase:
      return page->Resurrect(rec.slot, rec.before);
    default:
      return Status::OK();
  }
}

}  // namespace

StatusOr<RecoveryReport> Recover(const std::vector<uint8_t>& log_bytes,
                                 PageStore* store) {
  RecoveryReport report;

  // --- Analysis: parse everything parseable; a torn tail ends the scan.
  std::vector<LogRecord> records;
  std::unordered_set<TxnId> committed;
  std::unordered_set<TxnId> aborted;
  size_t pos = 0;
  while (pos < log_bytes.size()) {
    auto rec = LogRecord::Deserialize(log_bytes, &pos);
    if (!rec.ok()) {
      report.torn_tail_detected = true;
      break;
    }
    if (rec->type == LogRecordType::kCommit) {
      committed.insert(rec->txn_id);
    } else if (rec->type == LogRecordType::kAbort) {
      aborted.insert(rec->txn_id);
    }
    records.push_back(std::move(rec).value());
  }
  report.records_scanned = records.size();
  report.committed_txns = committed.size();

  // --- Redo: repeat history for every logged change, in LSN order.
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecordType::kInsert ||
        rec.type == LogRecordType::kUpdate ||
        rec.type == LogRecordType::kErase) {
      ECODB_RETURN_IF_ERROR(ApplyRedo(rec, store));
      ++report.redo_applied;
    }
  }

  // --- Undo: roll back losers (began but never committed) in reverse.
  std::unordered_set<TxnId> losers;
  for (const LogRecord& rec : records) {
    if (!committed.count(rec.txn_id)) losers.insert(rec.txn_id);
  }
  report.loser_txns = losers.size();
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (!losers.count(it->txn_id)) continue;
    if (it->type == LogRecordType::kInsert ||
        it->type == LogRecordType::kUpdate ||
        it->type == LogRecordType::kErase) {
      ECODB_RETURN_IF_ERROR(ApplyUndo(*it, store));
      ++report.undo_applied;
    }
  }
  return report;
}

}  // namespace ecodb::txn
