// Work-group execution state: lane scheduling status, the work-group-wide
// collective rendezvous, the scratchpad arena, and fine-grain barrier (fbar)
// objects (paper §5.3 / HSA PRM).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "simt/collective.hpp"
#include "simt/types.hpp"

namespace gravel::simt {

class Device;
class WorkGroupState;

/// Scheduling status of one lane's fiber.
enum class LaneStatus : std::uint8_t {
  kRunnable,  ///< may be resumed (includes lanes spin-waiting on queues)
  kParked,    ///< suspended inside a collective, waiting for siblings
  kFinished,  ///< kernel body returned
};

/// Fine-grain barrier: a collective domain over a *subset* of a work-group's
/// lanes (paper §5.3, Figure 10c). Lanes join, synchronize any number of
/// times, and leave; leaving can complete an in-flight collective for the
/// remaining members.
class FBar {
 public:
  explicit FBar(std::uint32_t maxLanes)
      : site_(maxLanes), member_(maxLanes, 0) {}

  bool isMember(std::uint32_t lane) const { return member_[lane] != 0; }
  std::uint32_t memberCount() const { return memberCount_; }

  CollectiveSite& site() { return site_; }

  /// Sorted list of current members (defines prefix-sum order).
  std::vector<std::uint32_t> memberLanes() const {
    std::vector<std::uint32_t> lanes;
    lanes.reserve(memberCount_);
    for (std::uint32_t l = 0; l < member_.size(); ++l)
      if (member_[l]) lanes.push_back(l);
    return lanes;
  }

 private:
  friend class WorkGroupState;
  CollectiveSite site_;
  std::vector<std::uint8_t> member_;
  std::uint32_t memberCount_ = 0;
};

/// Per-work-group execution state. One instance per Device; re-armed for
/// each dispatched work-group. All methods run on the device's scheduler
/// thread (lane fibers share that thread), so no internal locking is needed.
class WorkGroupState {
 public:
  WorkGroupState(Device& device, const DeviceConfig& config,
                 DeviceStats& stats);

  /// Arms the state for a work-group of `laneCount` lanes (the trailing
  /// work-group of a grid may be partial).
  void begin(std::uint64_t wgIndex, std::uint32_t laneCount);

  std::uint64_t wgIndex() const noexcept { return wgIndex_; }
  std::uint32_t laneCount() const noexcept { return laneCount_; }
  LaneStatus status(std::uint32_t lane) const { return status_[lane]; }
  void setStatus(std::uint32_t lane, LaneStatus s) { status_[lane] = s; }

  /// First kRunnable lane at or after `from`, or laneCount() if none.
  std::uint32_t nextRunnable(std::uint32_t from) const {
    while (from < laneCount_ && status_[from] != LaneStatus::kRunnable) ++from;
    return from;
  }

  /// Executes one work-group-level (or fbar-level when `fb != nullptr`)
  /// collective from lane `lane`. Parks the lane until all participants
  /// arrive; returns the lane's result (§5.2 semantics for inactive lanes).
  std::uint64_t collective(std::uint32_t lane, CollectiveOp op,
                           std::uint64_t value, bool active,
                           FBar* fb = nullptr);

  /// Reserves `bytes` of the work-group's scratchpad. Collective: all live
  /// lanes must call with the same size; all receive the same arena offset.
  /// Throws when the scratchpad (DeviceConfig::scratchpad_bytes) overflows.
  std::byte* scratchAlloc(std::uint32_t lane, std::uint64_t bytes);

  std::uint64_t scratchUsed() const noexcept { return scratchOffset_; }

  /// Returns the fbar with the given small id, creating it on first use.
  /// All lanes that pass the same id share one object (Figure 10c's pattern
  /// of lane 0 running initfbar is modeled by first-use creation).
  FBar& fbar(std::uint32_t id);

  void fbarJoin(std::uint32_t lane, FBar& fb);
  void fbarLeave(std::uint32_t lane, FBar& fb);

  /// Bookkeeping when a lane's kernel body returns. Detects the §5 hazard:
  /// a lane exiting while siblings wait at a work-group-level operation (or
  /// while the lane itself still holds fbar membership) would hang a real
  /// GPU; we throw DeadlockError instead.
  void onLaneFinish(std::uint32_t lane);

 private:
  void parkUntil(std::uint32_t lane, const CollectiveSite& site,
                 std::uint64_t generation);
  void wake(const std::vector<std::uint32_t>& lanes);
  const std::vector<std::uint32_t>& liveLanes();

  Device& device_;
  const DeviceConfig& config_;
  DeviceStats& stats_;
  CollectiveSite wgSite_;
  std::vector<LaneStatus> status_;
  std::vector<std::byte> scratch_;
  std::map<std::uint32_t, std::unique_ptr<FBar>> fbars_;
  std::uint64_t wgIndex_ = 0;
  std::uint32_t laneCount_ = 0;
  std::uint32_t liveCount_ = 0;
  std::uint64_t scratchOffset_ = 0;
  // Live lanes in lane order, rebuilt only after a lane exited.
  std::vector<std::uint32_t> liveLanes_;
  bool liveLanesStale_ = true;
};

}  // namespace gravel::simt
