#include "simt/workgroup.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "simt/device.hpp"

namespace gravel::simt {

WorkGroupState::WorkGroupState(Device& device, const DeviceConfig& config,
                               DeviceStats& stats)
    : device_(device),
      config_(config),
      stats_(stats),
      wgSite_(config.max_wg_size),
      status_(config.max_wg_size, LaneStatus::kFinished),
      scratch_(config.scratchpad_bytes) {}

void WorkGroupState::begin(std::uint64_t wgIndex, std::uint32_t laneCount) {
  GRAVEL_CHECK_MSG(laneCount > 0 && laneCount <= config_.max_wg_size,
                   "work-group size out of range");
  wgIndex_ = wgIndex;
  laneCount_ = laneCount;
  liveCount_ = laneCount;
  liveLanesStale_ = true;
  wgSite_.abandon();
  scratchOffset_ = 0;
  fbars_.clear();
  std::fill(status_.begin(), status_.begin() + laneCount,
            LaneStatus::kRunnable);
}

const std::vector<std::uint32_t>& WorkGroupState::liveLanes() {
  // Hot path: one call per completed collective, while the set changes only
  // when a lane exits.
  if (liveLanesStale_) {
    liveLanes_.clear();
    for (std::uint32_t l = 0; l < laneCount_; ++l)
      if (status_[l] != LaneStatus::kFinished) liveLanes_.push_back(l);
    liveLanesStale_ = false;
  }
  return liveLanes_;
}

std::uint64_t WorkGroupState::collective(std::uint32_t lane, CollectiveOp op,
                                         std::uint64_t value, bool active,
                                         FBar* fb) {
  CollectiveSite& site = fb ? fb->site() : wgSite_;
  if (fb) {
    GRAVEL_CHECK_MSG(fb->isMember(lane),
                     "fbar collective from a non-member lane");
  }
  ++stats_.collective_arrivals;
  if (active) ++stats_.active_arrivals;

  const std::uint64_t myGen = site.generation();
  // For the work-group domain every *live* lane participates; the engine is
  // strict (OpenCL-style): a lane that already exited makes further WG-level
  // operations a deadlock, detected in onLaneFinish().
  const std::uint32_t expected = fb ? fb->memberCount() : liveCount_;
  const bool last = site.arrive(lane, op, value, active, expected);
  if (last) {
    const std::vector<std::uint32_t>& domain =
        fb ? fb->memberLanes() : liveLanes();
    site.complete(domain);
    if (op == CollectiveOp::kScratchAlloc) {
      const std::uint64_t bytes = site.resultFor(lane);  // reduced max size
      GRAVEL_CHECK_MSG(scratchOffset_ + bytes <= scratch_.size(),
                       "scratchpad overflow");
      site.overrideResults(domain, scratchOffset_);
      scratchOffset_ += bytes;
      stats_.scratchpad_high_water =
          std::max(stats_.scratchpad_high_water, scratchOffset_);
    }
    ++stats_.collective_ops;
    wake(domain);
  } else {
    parkUntil(lane, site, myGen);
  }
  return site.resultFor(lane);
}

void WorkGroupState::parkUntil(std::uint32_t lane, const CollectiveSite& site,
                               std::uint64_t generation) {
  GRAVEL_CHECK_MSG(Fiber::current() != nullptr, "collective called off-fiber");
  while (site.generation() == generation) {
    status_[lane] = LaneStatus::kParked;
    device_.switchFrom(lane);
  }
  status_[lane] = LaneStatus::kRunnable;
}

void WorkGroupState::wake(const std::vector<std::uint32_t>& lanes) {
  for (auto l : lanes)
    if (status_[l] == LaneStatus::kParked) status_[l] = LaneStatus::kRunnable;
}

std::byte* WorkGroupState::scratchAlloc(std::uint32_t lane,
                                        std::uint64_t bytes) {
  // Round to 16 so consecutive allocations stay aligned for any element type.
  const std::uint64_t rounded = (bytes + 15) & ~std::uint64_t{15};
  const std::uint64_t offset =
      collective(lane, CollectiveOp::kScratchAlloc, rounded, true);
  return scratch_.data() + offset;
}

FBar& WorkGroupState::fbar(std::uint32_t id) {
  auto& slot = fbars_[id];
  if (!slot) slot = std::make_unique<FBar>(config_.max_wg_size);
  return *slot;
}

void WorkGroupState::fbarJoin(std::uint32_t lane, FBar& fb) {
  GRAVEL_CHECK_MSG(!fb.isMember(lane), "lane already joined this fbar");
  fb.member_[lane] = 1;
  ++fb.memberCount_;
  // Joining is a scheduling point: on real hardware lanes of a wavefront
  // join in lockstep, so siblings that are about to join must get the chance
  // before this lane races ahead into an fbar collective with a too-small
  // membership. Handing the thread to the next runnable lane walks the
  // pass across the group.
  if (Fiber::current() != nullptr) device_.switchFrom(lane);
}

void WorkGroupState::fbarLeave(std::uint32_t lane, FBar& fb) {
  GRAVEL_CHECK_MSG(fb.isMember(lane), "lane is not a member of this fbar");
  fb.member_[lane] = 0;
  --fb.memberCount_;
  // Leaving can complete an in-flight collective for the remaining members
  // (Figure 10c: lanes leave when their edge list is exhausted while
  // siblings still synchronize each iteration).
  if (fb.site().inProgress() && fb.memberCount_ > 0 &&
      fb.site().arrivedCount() == fb.memberCount_) {
    const std::vector<std::uint32_t>& domain = fb.memberLanes();
    fb.site().complete(domain);
    ++stats_.collective_ops;
    wake(domain);
  }
  GRAVEL_CHECK_MSG(fb.memberCount_ > 0 || !fb.site().inProgress(),
                   "last lane left an fbar with a collective in flight");
}

void WorkGroupState::onLaneFinish(std::uint32_t lane) {
  status_[lane] = LaneStatus::kFinished;
  --liveCount_;
  liveLanesStale_ = true;
  if (wgSite_.inProgress()) {
    if (!config_.wg_reconvergence) {
      throw DeadlockError(
          "work-item exited its kernel while siblings wait at a "
          "work-group-level operation (diverged WG-level op misuse, "
          "paper §5); enable DeviceConfig::wg_reconvergence for the "
          "thread-block-compaction semantics of §5.3");
    }
    // §5.3 work-group-granularity control flow: the exited lane no longer
    // participates, which may complete the in-flight operation for the
    // remaining live lanes.
    if (liveCount_ > 0 && wgSite_.arrivedCount() == liveCount_) {
      const std::vector<std::uint32_t>& domain = liveLanes();
      wgSite_.complete(domain);
      ++stats_.collective_ops;
      wake(domain);
    }
  }
  for (auto& [id, fb] : fbars_) {
    if (fb->isMember(lane)) {
      throw DeadlockError("work-item exited while still joined to fbar " +
                          std::to_string(id));
    }
  }
}

}  // namespace gravel::simt
