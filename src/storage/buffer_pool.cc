#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace ecodb::storage {

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kClock:
      return "clock";
    case ReplacementPolicy::kEnergyAware:
      return "energy-aware";
  }
  return "unknown";
}

BufferPool::BufferPool(BufferPoolConfig config, sim::SimClock* clock,
                       power::EnergyMeter* meter,
                       power::ChannelId dram_channel)
    : config_(config),
      clock_(clock),
      meter_(meter),
      dram_channel_(dram_channel) {
  assert(config_.num_frames > 0);
}

namespace {

// frames_ is an unordered_map, so every scan over it must break ties by
// page id: otherwise the victim (and with it the whole device timeline and
// energy bill) depends on hash iteration order, which EC5 forbids
// everywhere under src/.
bool PageIdLess(const PageId& a, const PageId& b) {
  return a.space_id != b.space_id ? a.space_id < b.space_id
                                  : a.page_no < b.page_no;
}

}  // namespace

PageId BufferPool::PickVictim() {
  assert(!frames_.empty());
  switch (config_.policy) {
    case ReplacementPolicy::kLru: {
      PageId victim{};
      bool have_victim = false;
      uint64_t oldest = std::numeric_limits<uint64_t>::max();
      for (const auto& [id, f] : frames_) {  // NOLINT-ECODB(EC5): order-independent min-reduction (id tie-break)
        if (f.last_used_tick < oldest ||
            (f.last_used_tick == oldest &&
             (!have_victim || PageIdLess(id, victim)))) {
          oldest = f.last_used_tick;
          victim = id;
          have_victim = true;
        }
      }
      return victim;
    }
    case ReplacementPolicy::kClock: {
      // Sweep the ring clearing reference bits; evict the first clear page.
      for (size_t sweep = 0; sweep < 2 * clock_order_.size(); ++sweep) {
        clock_hand_ = (clock_hand_ + 1) % clock_order_.size();
        const PageId id = clock_order_[clock_hand_];
        auto it = frames_.find(id);
        if (it == frames_.end()) continue;  // stale ring entry
        if (it->second.referenced) {
          it->second.referenced = false;
        } else {
          return id;
        }
      }
      return clock_order_[clock_hand_];
    }
    case ReplacementPolicy::kEnergyAware: {
      // Expected eviction cost = reload energy x reuse likelihood; recency
      // proxies reuse likelihood. Evict the minimum-cost frame.
      PageId victim{};
      bool have_victim = false;
      double best = std::numeric_limits<double>::max();
      for (const auto& [id, f] : frames_) {  // NOLINT-ECODB(EC5): order-independent min-reduction (id tie-break)
        const double age =
            static_cast<double>(tick_ - f.last_used_tick) + 1.0;
        const double recency_weight = 1.0 / age;
        // A dirty page also owes a write-back; fold that in.
        const double writeback_penalty = f.dirty ? f.reload_joules : 0.0;
        const double cost =
            (f.reload_joules + writeback_penalty) * recency_weight;
        if (cost < best ||
            (cost == best && (!have_victim || PageIdLess(id, victim)))) {
          best = cost;
          victim = id;
          have_victim = true;
        }
      }
      return victim;
    }
  }
  return frames_.begin()->first;
}

StatusOr<PageAccess> BufferPool::Access(PageId page, StorageDevice* source,
                                        bool mark_dirty) {
  ++tick_;
  auto it = frames_.find(page);
  if (it != frames_.end()) {
    it->second.last_used_tick = tick_;
    it->second.referenced = true;
    it->second.dirty |= mark_dirty;
    ++stats_.hits;
    if (dram_channel_.valid() && config_.dram_joules_per_hit > 0) {
      meter_->AddEnergy(dram_channel_, config_.dram_joules_per_hit);
    }
    return PageAccess{true, clock_->now()};
  }

  ++stats_.misses;
  double ready = clock_->now();
  if (frames_.size() >= config_.num_frames) {
    const PageId victim_id = PickVictim();
    auto vit = frames_.find(victim_id);
    assert(vit != frames_.end());
    if (vit->second.dirty && vit->second.source != nullptr) {
      ECODB_ASSIGN_OR_RETURN(
          const IoResult wb,
          vit->second.source->SubmitWrite(clock_->now(), Page::kPageSize,
                                          /*sequential=*/false));
      ready = std::max(ready, wb.completion_time);
      ++stats_.dirty_writebacks;
    }
    frames_.erase(vit);
    ++stats_.evictions;
  }

  ECODB_ASSIGN_OR_RETURN(
      const IoResult rd,
      source->SubmitRead(ready, Page::kPageSize, /*sequential=*/false));
  ready = rd.completion_time;

  Frame f;
  f.source = source;
  f.last_used_tick = tick_;
  f.referenced = true;
  f.dirty = mark_dirty;
  f.reload_joules = source->EstimateReadJoules(Page::kPageSize);
  frames_.emplace(page, f);
  clock_order_.push_back(page);
  // Bound the CLOCK ring against stale growth.
  if (clock_order_.size() > 4 * config_.num_frames) {
    std::vector<PageId> fresh;
    fresh.reserve(frames_.size());
    for (const PageId& id : clock_order_) {
      if (frames_.count(id)) fresh.push_back(id);
    }
    clock_order_ = std::move(fresh);
    clock_hand_ = 0;
  }
  return PageAccess{false, ready};
}

StatusOr<double> BufferPool::FlushAll() {
  double last = clock_->now();
  // Write back in page-id order: the flush sequence feeds the device
  // timeline, so hash order here would leak into completion times.
  std::vector<PageId> dirty;
  dirty.reserve(frames_.size());
  for (const auto& [id, f] : frames_) {  // NOLINT-ECODB(EC5): collect-then-sort, order-independent
    if (f.dirty && f.source != nullptr) dirty.push_back(id);
  }
  std::sort(dirty.begin(), dirty.end(), PageIdLess);
  for (const PageId& id : dirty) {
    Frame& f = frames_.at(id);
    ECODB_ASSIGN_OR_RETURN(
        const IoResult wb,
        f.source->SubmitWrite(clock_->now(), Page::kPageSize,
                              /*sequential=*/false));
    last = std::max(last, wb.completion_time);
    f.dirty = false;
    ++stats_.dirty_writebacks;
  }
  return last;
}

}  // namespace ecodb::storage
