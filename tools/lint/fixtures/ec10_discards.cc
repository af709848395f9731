// EC10 fixture, caller side (labelled src/txn/ec10_discards.cc). The first
// three statements and DrainFresh's first drop a Status/StatusOr and must
// fire; the rest consume, cast, return or macro-wrap the result and must
// stay clean, as must depth(), whose int return nobody need look at.
namespace ecodb::txn {

Status Checkpoint(storage::CompactionQueue* queue) {
  queue->Drain();
  storage::DrainAll(queue);
  queue->Reserve(4);
  queue->depth();
  (void)queue->Drain();
  const Status last = queue->Drain();
  ECODB_RETURN_IF_ERROR(storage::DrainAll(queue));
  return last;
}

Status DrainFresh() {
  storage::CompactionQueue{}.Drain();
  return storage::CompactionQueue{}.Drain();
}

}  // namespace ecodb::txn
