// Buffer pool with energy-aware page replacement.
//
// Section 4.3 of the paper: "Consider, for example, the buffer manager: its
// whole notion and associated replacement policies are based on avoiding as
// much as possible costly (in terms of latency) accesses to slower storage.
// With energy savings in mind, the access costs of memory hierarchy levels
// are going to be different." EcoDB's pool supports classic LRU and CLOCK
// plus an energy-aware policy whose victim score weighs each page's *reload
// energy* (cheap from an idle SSD, expensive from a spun-down disk) against
// its recency, so cheap-to-reload pages are sacrificed first.
//
// The pool tracks residency metadata and charges simulated device I/O on
// misses and write-backs; page payloads live with their owning tables.

#ifndef ECODB_STORAGE_BUFFER_POOL_H_
#define ECODB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/device.h"
#include "storage/page.h"
#include "util/status.h"

namespace ecodb::storage {

enum class ReplacementPolicy {
  kLru,
  kClock,
  kEnergyAware,
};

const char* ReplacementPolicyName(ReplacementPolicy policy);

struct BufferPoolConfig {
  size_t num_frames = 1024;
  ReplacementPolicy policy = ReplacementPolicy::kLru;
  /// DRAM energy charged per buffer hit (row of reads from the resident
  /// page). 0 disables hit accounting.
  double dram_joules_per_hit = 0.0;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

/// Outcome of a page access.
struct PageAccess {
  bool hit = false;
  /// Simulated time at which the page is available to the caller.
  double ready_time = 0.0;
};

class BufferPool {
 public:
  /// `clock` and `meter` must outlive the pool. `dram_channel` may be
  /// invalid to skip hit accounting.
  BufferPool(BufferPoolConfig config, sim::SimClock* clock,
             power::EnergyMeter* meter,
             power::ChannelId dram_channel = power::ChannelId{});

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Accesses `page` stored on `source`. On a miss, submits a device read
  /// (evicting a victim if the pool is full; dirty victims are written back
  /// to their own device first). `mark_dirty` flags the page for write-back.
  /// Device faults (kDataLoss / kUnavailable) propagate; a failed miss
  /// leaves the pool unchanged apart from any victim already evicted.
  StatusOr<PageAccess> Access(PageId page, StorageDevice* source,
                              bool mark_dirty = false);

  /// Writes back every dirty page. Returns the completion time of the last
  /// write-back (clock time if none).
  StatusOr<double> FlushAll();

  bool IsResident(PageId page) const { return frames_.count(page) > 0; }
  size_t resident_pages() const { return frames_.size(); }
  const BufferPoolConfig& config() const { return config_; }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

 private:
  struct Frame {
    StorageDevice* source = nullptr;
    uint64_t last_used_tick = 0;
    bool referenced = false;  // CLOCK
    bool dirty = false;
    double reload_joules = 0.0;  // energy-aware victim scoring
  };

  /// Picks a victim per policy. Pool must be full and non-empty.
  PageId PickVictim();

  BufferPoolConfig config_;
  sim::SimClock* clock_;
  power::EnergyMeter* meter_;
  power::ChannelId dram_channel_;
  std::unordered_map<PageId, Frame, PageIdHash> frames_;
  std::vector<PageId> clock_order_;  // insertion ring for CLOCK
  size_t clock_hand_ = 0;
  uint64_t tick_ = 0;
  BufferPoolStats stats_;
};

}  // namespace ecodb::storage

#endif  // ECODB_STORAGE_BUFFER_POOL_H_
