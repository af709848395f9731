// RAID disk-array simulator.
//
// The paper's Figure 1 machine stripes a 300 GB-scale database across
// 36-204 SCSI drives in RAID 5. The array model captures the two facts the
// experiment rests on:
//   1. every member disk adds a constant power draw, but
//   2. incremental throughput per disk shrinks (stripe skew + shared
//      controller/SAS-link capacity), so performance saturates.
// XOR parity is implemented for real (block parity computation and single-
// disk reconstruction), exercised by property tests.
//
// Degraded mode (RAID 5, one failed member): reads landing on the failed
// member's share are reconstructed — each survivor serves its own share
// *plus* its part of the dead member's share, and the controller pays XOR
// instructions and energy proportional to the (n-1) survivor blocks it
// folds together. Writes run parity-degraded: survivors absorb the full
// striped write, the dead member's part exists only as parity. A second
// member loss (or any loss on RAID 0) is kDataLoss. RebuildScheduler
// replays sequential rebuild I/O onto a spare at a configurable rate and
// charges the rebuild's energy, so benches can report EE during rebuild.

#ifndef ECODB_STORAGE_DISK_ARRAY_H_
#define ECODB_STORAGE_DISK_ARRAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/device.h"
#include "util/status.h"

namespace ecodb::storage {

enum class RaidLevel {
  kRaid0,  // striping, no redundancy
  kRaid5,  // striping + rotated parity
};

/// XOR reconstruction cost: instructions per byte of survivor data folded
/// together, and Joules per instruction on the array controller. Charged to
/// the "<name>.xor" meter channel in degraded mode / rebuild.
inline constexpr double kXorInstructionsPerByte = 0.05;
inline constexpr double kXorJoulesPerInstruction = 1e-9;

/// Array-level behaviour parameters.
struct ArraySpec {
  RaidLevel level = RaidLevel::kRaid5;
  /// Aggregate ceiling of the controller / SAS fabric.
  double controller_bw_bytes_per_s = 3.0 * 1e9;
  /// Fixed per-request array overhead (dispatch, interrupt coalescing).
  double per_request_overhead_s = 0.0002;
  /// Stripe-skew factor: the slowest member of an n-disk stripe serves
  /// ~ (1 + alpha * (n - 1)) times the fair share. Models load imbalance
  /// that worsens with width; drives the diminishing returns of Figure 1.
  double stripe_skew_alpha = 0.0015;
};

/// A striped array presenting the StorageDevice interface over its members.
class DiskArray final : public StorageDevice {
 public:
  /// Validated construction: `members` must be non-empty, >= 3 for RAID 5
  /// (anything less cannot hold rotated parity), and the spec's rates must
  /// be positive. `meter` (optional) hosts the "<name>.xor" channel that
  /// carries reconstruction energy; without it, degraded mode still tracks
  /// XOR instructions but has nowhere to charge the Joules.
  static StatusOr<std::unique_ptr<DiskArray>> Create(
      std::string name, ArraySpec spec,
      std::vector<std::unique_ptr<StorageDevice>> members,
      power::EnergyMeter* meter = nullptr);

  StatusOr<IoResult> SubmitRead(double earliest_start, uint64_t bytes,
                                bool sequential) override;
  StatusOr<IoResult> SubmitWrite(double earliest_start, uint64_t bytes,
                                 bool sequential) override;

  double busy_until() const override { return busy_until_; }

  /// Spins every member down / up (tray-level consolidation).
  void PowerDown(double t) override;
  void PowerUp(double t) override;
  bool IsPoweredDown() const override;

  double StandbySavingsWatts() const override;
  double BreakEvenIdleSeconds() const override;

  const std::string& name() const override { return name_; }

  /// The XOR controller channel when a meter was supplied (member transfer
  /// energy lives on the member channels).
  power::ChannelId channel() const override { return xor_channel_; }

  double EstimateReadSeconds(uint64_t bytes) const override;
  double EstimateReadJoules(uint64_t bytes) const override;

  int num_members() const { return static_cast<int>(members_.size()); }
  StorageDevice* member(int i) { return members_[i].get(); }
  const ArraySpec& spec() const { return spec_; }

  // --- Degraded mode -----------------------------------------------------

  /// Marks member `index` as failed at simulated time `t` (e.g. the bench
  /// pulling a drive). Zeroes the member's background draw. The array
  /// also transitions on its own when a member submit returns kDataLoss.
  Status FailMember(int index, double t);

  /// Swaps `spare` in for the failed member `index` and returns the old
  /// (dead) device. The array is healthy again afterwards.
  StatusOr<std::unique_ptr<StorageDevice>> ReplaceFailedMember(
      int index, std::unique_ptr<StorageDevice> spare);

  bool degraded() const { return failed_count_ > 0; }
  int failed_member() const;  // -1 when healthy
  bool member_failed(int i) const { return failed_[i]; }

  /// Charges XOR work for folding `xored_bytes` of survivor data at time
  /// `t` on the array's XOR channel; returns the instruction count. Used
  /// by degraded reads and by RebuildScheduler.
  double ChargeXorAt(double t, uint64_t xored_bytes);

 private:
  DiskArray(std::string name, ArraySpec spec,
            std::vector<std::unique_ptr<StorageDevice>> members,
            power::EnergyMeter* meter);

  StatusOr<IoResult> Submit(double earliest_start, uint64_t bytes,
                            bool sequential, bool is_write, int depth);

  std::string name_;
  ArraySpec spec_;
  std::vector<std::unique_ptr<StorageDevice>> members_;
  std::vector<bool> failed_;
  int failed_count_ = 0;
  power::EnergyMeter* meter_ = nullptr;
  power::ChannelId xor_channel_;
  double busy_until_ = 0.0;
};

// --- Rebuild -------------------------------------------------------------

/// Rebuild pacing and extent.
struct RebuildConfig {
  /// Bytes of the dead member to reconstruct onto the spare.
  uint64_t total_bytes = 0;
  /// Sequential chunk size per rebuild step.
  uint64_t chunk_bytes = 16ull << 20;
  /// Rebuild rate ceiling in bytes/s of reconstructed data; 0 means
  /// device-limited (rebuild as fast as the survivors allow).
  double rate_bytes_per_s = 0.0;
};

/// What one rebuild cost.
struct RebuildReport {
  double start_time = 0.0;
  double end_time = 0.0;
  uint64_t bytes_rebuilt = 0;
  uint64_t chunks = 0;
  double xor_instructions = 0.0;
  double xor_joules = 0.0;
};

/// Replays sequential rebuild I/O for a degraded RAID-5 array: per chunk,
/// read the chunk from every survivor, XOR-fold (charged to the array's
/// XOR channel), write the reconstructed chunk to the spare; optionally
/// throttled to RebuildConfig::rate_bytes_per_s. On success the spare is
/// swapped in via ReplaceFailedMember and the array is healthy again.
class RebuildScheduler {
 public:
  explicit RebuildScheduler(DiskArray* array) : array_(array) {}

  StatusOr<RebuildReport> Run(std::unique_ptr<StorageDevice> spare,
                              double start_time, const RebuildConfig& config);

 private:
  DiskArray* array_;
};

// --- Parity math (RAID 5), used by the array tests ----------------------

/// XOR parity over equally sized blocks. Returns InvalidArgument on
/// mismatched sizes or empty input.
StatusOr<std::vector<uint8_t>> ComputeParity(
    const std::vector<std::vector<uint8_t>>& blocks);

/// Rebuilds the block at `missing_index` from the surviving blocks and the
/// parity block: survivors XOR parity.
StatusOr<std::vector<uint8_t>> ReconstructBlock(
    const std::vector<std::vector<uint8_t>>& blocks, size_t missing_index,
    const std::vector<uint8_t>& parity);

}  // namespace ecodb::storage

#endif  // ECODB_STORAGE_DISK_ARRAY_H_
