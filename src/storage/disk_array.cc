#include "storage/disk_array.h"

#include <algorithm>
#include <cassert>

namespace ecodb::storage {

DiskArray::DiskArray(std::string name, ArraySpec spec,
                     std::vector<std::unique_ptr<StorageDevice>> members,
                     power::EnergyMeter* meter)
    : name_(std::move(name)),
      spec_(spec),
      members_(std::move(members)),
      failed_(members_.size(), false),
      meter_(meter) {
  if (meter_ != nullptr) {
    xor_channel_ = meter_->RegisterChannel(name_ + ".xor", 0.0);
  }
}

StatusOr<std::unique_ptr<DiskArray>> DiskArray::Create(
    std::string name, ArraySpec spec,
    std::vector<std::unique_ptr<StorageDevice>> members,
    power::EnergyMeter* meter) {
  if (members.empty()) {
    return Status::InvalidArgument("disk array '" + name +
                                   "' needs at least one member");
  }
  if (spec.level == RaidLevel::kRaid5 && members.size() < 3) {
    return Status::InvalidArgument(
        "RAID 5 array '" + name + "' needs >= 3 members, got " +
        std::to_string(members.size()));
  }
  if (spec.controller_bw_bytes_per_s <= 0.0) {
    return Status::InvalidArgument("controller_bw_bytes_per_s must be > 0");
  }
  for (const auto& m : members) {
    if (m == nullptr) {
      return Status::InvalidArgument("disk array member must not be null");
    }
  }
  return std::unique_ptr<DiskArray>(
      new DiskArray(std::move(name), spec, std::move(members), meter));
}

int DiskArray::failed_member() const {
  for (size_t i = 0; i < failed_.size(); ++i) {
    if (failed_[i]) return static_cast<int>(i);
  }
  return -1;
}

double DiskArray::ChargeXorAt(double t, uint64_t xored_bytes) {
  const double instructions =
      kXorInstructionsPerByte * static_cast<double>(xored_bytes);
  if (meter_ != nullptr && xor_channel_.valid()) {
    meter_->AddEnergyAt(xor_channel_, t,
                        instructions * kXorJoulesPerInstruction);
  }
  return instructions;
}

Status DiskArray::FailMember(int index, double t) {
  if (index < 0 || index >= num_members()) {
    return Status::InvalidArgument("member index out of range");
  }
  if (failed_[index]) return Status::OK();  // idempotent
  failed_[index] = true;
  ++failed_count_;
  // A pulled drive draws nothing.
  StorageDevice* m = members_[index].get();
  if (meter_ != nullptr && m->channel().valid()) {
    meter_->SetPowerAt(m->channel(), std::max(t, m->busy_until()), 0.0);
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<StorageDevice>> DiskArray::ReplaceFailedMember(
    int index, std::unique_ptr<StorageDevice> spare) {
  if (index < 0 || index >= num_members()) {
    return Status::InvalidArgument("member index out of range");
  }
  if (!failed_[index]) {
    return Status::FailedPrecondition("member " + std::to_string(index) +
                                      " has not failed");
  }
  if (spare == nullptr) {
    return Status::InvalidArgument("spare must not be null");
  }
  std::unique_ptr<StorageDevice> old = std::move(members_[index]);
  members_[index] = std::move(spare);
  failed_[index] = false;
  --failed_count_;
  busy_until_ = std::max(busy_until_, members_[index]->busy_until());
  return old;
}

StatusOr<IoResult> DiskArray::Submit(double earliest_start, uint64_t bytes,
                                     bool sequential, bool is_write,
                                     int depth) {
  const double start = std::max(earliest_start, busy_until_);
  const size_t n = members_.size();

  if (failed_count_ > 0 && spec_.level == RaidLevel::kRaid0) {
    return Status::DataLoss("RAID 0 array '" + name_ +
                            "' lost a member; data is gone");
  }
  if (failed_count_ > 1) {
    return Status::DataLoss("RAID 5 array '" + name_ +
                            "' lost two members; data is gone");
  }
  const bool degraded_read =
      failed_count_ == 1 && !is_write && spec_.level == RaidLevel::kRaid5;

  // Fair share per member, inflated by stripe skew (the array completes when
  // its slowest member does; with wider stripes the imbalance worsens).
  double share = static_cast<double>(bytes) / static_cast<double>(n);
  if (is_write && spec_.level == RaidLevel::kRaid5) {
    // Full-stripe RAID-5 writes add one parity unit per (n-1) data units.
    share *= static_cast<double>(n) / static_cast<double>(n - 1);
  }
  const double skew =
      1.0 + spec_.stripe_skew_alpha * static_cast<double>(n - 1);
  // Degraded read: every survivor serves its own share plus its part of
  // reconstructing the dead member's share — double the transfer volume.
  const double per_member =
      degraded_read ? 2.0 * share * skew : share * skew;
  const uint64_t member_bytes = static_cast<uint64_t>(per_member + 0.5);

  IoResult faults;
  double member_completion = start;
  for (size_t i = 0; i < n; ++i) {
    if (failed_[i]) continue;
    StorageDevice* m = members_[i].get();
    auto r = is_write ? m->SubmitWrite(start, member_bytes, sequential)
                      : m->SubmitRead(start, member_bytes, sequential);
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kDataLoss) {
        // The member died mid-request. Absorb the first loss on RAID 5 by
        // re-running the whole request in degraded mode (the survivor work
        // already booked stays booked — those transfers really happened).
        if (!failed_[i]) {
          failed_[i] = true;
          ++failed_count_;
        }
        if (spec_.level == RaidLevel::kRaid5 && failed_count_ == 1 &&
            depth == 0) {
          ECODB_ASSIGN_OR_RETURN(
              IoResult retried,
              Submit(earliest_start, bytes, sequential, is_write, depth + 1));
          retried.AccumulateFaults(faults);
          return retried;
        }
      }
      return r.status();
    }
    faults.AccumulateFaults(*r);
    member_completion = std::max(member_completion, r->completion_time);
  }

  if (degraded_read) {
    // Fold the (n-1) survivor blocks into the missing one: XOR input volume
    // is the survivors' reconstruction reads, charged on the XOR channel.
    const uint64_t xored_bytes = static_cast<uint64_t>(
        static_cast<double>(n - 1) * share + 0.5);
    const double instructions = ChargeXorAt(member_completion, xored_bytes);
    faults.degraded_reads += 1;
    faults.reconstruct_instructions += instructions;
    faults.reconstruct_joules += instructions * kXorJoulesPerInstruction;
  }

  // The controller/SAS fabric moves the full request serially; the array is
  // done when both the slowest member and the fabric are done.
  const double fabric_done = start + spec_.per_request_overhead_s +
                             static_cast<double>(bytes) /
                                 spec_.controller_bw_bytes_per_s;
  const double end = std::max(member_completion, fabric_done);
  busy_until_ = end;
  IoResult out{start, end, end - start};
  out.AccumulateFaults(faults);
  return out;
}

StatusOr<IoResult> DiskArray::SubmitRead(double earliest_start, uint64_t bytes,
                                         bool sequential) {
  return Submit(earliest_start, bytes, sequential, /*is_write=*/false,
                /*depth=*/0);
}

StatusOr<IoResult> DiskArray::SubmitWrite(double earliest_start,
                                          uint64_t bytes, bool sequential) {
  return Submit(earliest_start, bytes, sequential, /*is_write=*/true,
                /*depth=*/0);
}

double DiskArray::EstimateReadSeconds(uint64_t bytes) const {
  const size_t n = members_.size();
  const double skew =
      1.0 + spec_.stripe_skew_alpha * static_cast<double>(n - 1);
  const uint64_t member_bytes = static_cast<uint64_t>(
      static_cast<double>(bytes) / static_cast<double>(n) * skew + 0.5);
  double slowest = 0.0;
  for (const auto& m : members_) {
    slowest = std::max(slowest, m->EstimateReadSeconds(member_bytes));
  }
  const double fabric = spec_.per_request_overhead_s +
                        static_cast<double>(bytes) /
                            spec_.controller_bw_bytes_per_s;
  return std::max(slowest, fabric);
}

double DiskArray::EstimateReadJoules(uint64_t bytes) const {
  const size_t n = members_.size();
  const double skew =
      1.0 + spec_.stripe_skew_alpha * static_cast<double>(n - 1);
  const uint64_t member_bytes = static_cast<uint64_t>(
      static_cast<double>(bytes) / static_cast<double>(n) * skew + 0.5);
  double joules = 0.0;
  for (const auto& m : members_) {
    joules += m->EstimateReadJoules(member_bytes);
  }
  return joules;
}

void DiskArray::PowerDown(double t) {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i]) members_[i]->PowerDown(t);
  }
}

void DiskArray::PowerUp(double t) {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i]) members_[i]->PowerUp(t);
  }
  for (auto& m : members_) {
    busy_until_ = std::max(busy_until_, m->busy_until());
  }
}

bool DiskArray::IsPoweredDown() const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i] && !members_[i]->IsPoweredDown()) return false;
  }
  return true;
}

double DiskArray::StandbySavingsWatts() const {
  double total = 0.0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i]) total += members_[i]->StandbySavingsWatts();
  }
  return total;
}

double DiskArray::BreakEvenIdleSeconds() const {
  double worst = 0.0;
  for (const auto& m : members_) {
    worst = std::max(worst, m->BreakEvenIdleSeconds());
  }
  return worst;
}

StatusOr<RebuildReport> RebuildScheduler::Run(
    std::unique_ptr<StorageDevice> spare, double start_time,
    const RebuildConfig& config) {
  if (!array_->degraded()) {
    return Status::FailedPrecondition("array '" + array_->name() +
                                      "' is healthy; nothing to rebuild");
  }
  if (spare == nullptr) {
    return Status::InvalidArgument("rebuild needs a spare device");
  }
  if (config.total_bytes == 0 || config.chunk_bytes == 0) {
    return Status::InvalidArgument("rebuild extent/chunk must be > 0");
  }
  const int dead = array_->failed_member();
  const int n = array_->num_members();

  RebuildReport report;
  report.start_time = start_time;
  report.end_time = start_time;
  double t = start_time;
  uint64_t done = 0;
  while (done < config.total_bytes) {
    const uint64_t chunk =
        std::min<uint64_t>(config.chunk_bytes, config.total_bytes - done);
    if (config.rate_bytes_per_s > 0.0) {
      // Pace the *start* of each chunk so reconstructed bytes flow at no
      // more than the configured rate, leaving survivor idle gaps for
      // foreground queries.
      t = std::max(t, start_time + static_cast<double>(done) /
                                       config.rate_bytes_per_s);
    }
    // Read this chunk's extent from every survivor (sequential stream)...
    double read_done = t;
    for (int i = 0; i < n; ++i) {
      if (i == dead || array_->member_failed(i)) continue;
      ECODB_ASSIGN_OR_RETURN(
          const IoResult r,
          array_->member(i)->SubmitRead(t, chunk, /*sequential=*/true));
      read_done = std::max(read_done, r.completion_time);
    }
    // ...fold them into the lost chunk...
    const uint64_t xored = static_cast<uint64_t>(n - 1) * chunk;
    const double instructions = array_->ChargeXorAt(read_done, xored);
    report.xor_instructions += instructions;
    report.xor_joules += instructions * kXorJoulesPerInstruction;
    // ...and stream it onto the spare.
    ECODB_ASSIGN_OR_RETURN(
        const IoResult w,
        spare->SubmitWrite(read_done, chunk, /*sequential=*/true));
    report.end_time = std::max(report.end_time, w.completion_time);
    done += chunk;
    ++report.chunks;
    t = read_done;  // spare write overlaps the next chunk's survivor reads
  }
  report.bytes_rebuilt = done;
  ECODB_ASSIGN_OR_RETURN(std::unique_ptr<StorageDevice> retired,
                         array_->ReplaceFailedMember(dead, std::move(spare)));
  (void)retired;  // the dead drive leaves the chassis
  return report;
}

StatusOr<std::vector<uint8_t>> ComputeParity(
    const std::vector<std::vector<uint8_t>>& blocks) {
  if (blocks.empty()) {
    return Status::InvalidArgument("parity over zero blocks");
  }
  const size_t len = blocks[0].size();
  for (const auto& b : blocks) {
    if (b.size() != len) {
      return Status::InvalidArgument("parity blocks must be equal-sized");
    }
  }
  std::vector<uint8_t> parity(len, 0);
  for (const auto& b : blocks) {
    for (size_t i = 0; i < len; ++i) parity[i] ^= b[i];
  }
  return parity;
}

StatusOr<std::vector<uint8_t>> ReconstructBlock(
    const std::vector<std::vector<uint8_t>>& blocks, size_t missing_index,
    const std::vector<uint8_t>& parity) {
  if (missing_index >= blocks.size()) {
    return Status::InvalidArgument("missing index out of range");
  }
  std::vector<uint8_t> rebuilt = parity;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (b == missing_index) continue;
    if (blocks[b].size() != parity.size()) {
      return Status::InvalidArgument("block/parity size mismatch");
    }
    for (size_t i = 0; i < parity.size(); ++i) rebuilt[i] ^= blocks[b][i];
  }
  return rebuilt;
}

}  // namespace ecodb::storage
