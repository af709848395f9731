// Fixture for lint_test: every violation here carries a NOLINT-ECODB
// suppression, so no rule fires. Never compiled — the test lints this file
// under the label src/sched/suppression.cc. The last suppression also names
// EC12, which is no rule: that is itself a finding at that line.

namespace ecodb::sched {

void MoveOutsideQueryContext(storage::StorageDevice* device) {
  // The mover runs on the background scheduler, outside any query's
  // ExecContext; it owns its device timeline directly.
  // NOLINT-ECODB(EC1)
  device->SubmitRead(0.0, 512, true);
  device->SubmitWrite(0.0, 512, true);  // NOLINT-ECODB(EC1)
  device->SubmitWrite(0.0, 512, true);  // NOLINT-ECODB
  device->SubmitRead(0.0, 512, true);  // NOLINT-ECODB(EC1, EC12)
}

}  // namespace ecodb::sched
