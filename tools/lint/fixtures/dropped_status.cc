// Compiled, not linted: the status_nodiscard ctest runs the compiler over
// this file with -fsyntax-only -Werror=unused-result and requires an error
// on exactly the lines marked "dropped". Status and StatusOr are
// [[nodiscard]], so each dropped result is rejected — a member's, a free
// function's (a wrapper whose own Status return carries the obligation), a
// StatusOr, a braced temporary's and a lambda's — while the consumed,
// (void)-cast, returned and macro-wrapped ones compile, as does depth(),
// whose int return nobody need look at.
#include "util/status.h"

namespace ecodb::storage {

class CompactionQueue {
 public:
  Status Drain() { return Status::OK(); }
  StatusOr<int> Reserve(int pages) { return pages; }
  int depth() const { return depth_; }

 private:
  int depth_ = 0;
};

Status DrainAll(CompactionQueue* queue) { return queue->Drain(); }

}  // namespace ecodb::storage

namespace ecodb::txn {

Status Checkpoint(storage::CompactionQueue* queue) {
  queue->Drain();  // dropped
  storage::DrainAll(queue);  // dropped
  queue->Reserve(4);  // dropped
  queue->depth();
  (void)queue->Drain();
  const Status last = queue->Drain();
  ECODB_RETURN_IF_ERROR(storage::DrainAll(queue));
  ECODB_ASSIGN_OR_RETURN(const int pages, queue->Reserve(2));
  return pages > 0 ? last : Status::OK();
}

Status DrainFresh() {
  storage::CompactionQueue{}.Drain();  // dropped
  const auto flush = [] { return Status::OK(); };
  flush();  // dropped
  return storage::CompactionQueue{}.Drain();
}

}  // namespace ecodb::txn
