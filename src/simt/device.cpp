#include "simt/device.hpp"

#include <string>
#include <thread>

#include "common/error.hpp"

namespace gravel::simt {

Device::Device(const DeviceConfig& config)
    : config_(config),
      stats_(),
      wg_(*this, config_, stats_),
      fibers_(config_.max_wg_size, config_.fiber_stack_bytes) {
  GRAVEL_CHECK_MSG(config_.wavefront_width > 0, "wavefront width must be > 0");
  GRAVEL_CHECK_MSG(config_.max_wg_size % config_.wavefront_width == 0,
                   "work-group size must be a whole number of wavefronts");
}

void Device::launch(const LaunchConfig& launch, const Kernel& kernel) {
  GRAVEL_CHECK_MSG(launch.wg_size > 0 &&
                       launch.wg_size <= config_.max_wg_size,
                   "launch wg_size out of device range");
  // Lanes switch back to this thread's scheduler stack, so a launch nested
  // in a kernel would hand its lanes to the outer scheduler.
  GRAVEL_CHECK_MSG(Fiber::current() == nullptr,
                   "Device::launch from inside a kernel");
  ++stats_.kernels_launched;
  kernel_ = &kernel;
  gridSize_ = launch.grid_size;
  for (std::uint64_t base = 0; base < gridSize_; base += launch.wg_size) {
    const auto lanes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(launch.wg_size, gridSize_ - base));
    wgBase_ = base;
    runWorkGroup(base / launch.wg_size, lanes);
  }
}

void Device::laneEntry(void* device) {
  auto& dev = *static_cast<Device*>(device);
  WorkItem wi(dev, dev.wg_, dev.running_, dev.wgBase_, dev.gridSize_,
              dev.config_.wavefront_width);
  (*dev.kernel_)(wi);
}

void Device::runWorkGroup(std::uint64_t wgIndex, std::uint32_t laneCount) {
  wg_.begin(wgIndex, laneCount);
  ++stats_.workgroups_executed;
  stats_.lanes_executed += laneCount;
  for (std::uint32_t lane = 0; lane < laneCount; ++lane)
    fibers_.at(lane).reset(&Device::laneEntry, this);

  // Passes in lane order approximate wavefront-ordered issue. A pass enters
  // its first runnable lane; from there every lane that parks at a
  // collective hands the thread straight to the next runnable lane
  // (switchFrom), and control comes back here only when a lane finishes,
  // spins in yieldLane(), or the pass runs out of runnable lanes.
  std::uint32_t finished = 0;
  while (finished < laneCount) {
    std::uint32_t lane = wg_.nextRunnable(0);
    if (lane == laneCount) {
      // Every unfinished lane is parked at a rendezvous that can no longer
      // complete. (Lanes spinning on external conditions stay kRunnable, so
      // they are not counted here.)
      throw DeadlockError(
          "work-group " + std::to_string(wgIndex) +
          ": all unfinished lanes are parked at collectives that cannot "
          "complete");
    }
    bool finishedAny = false;
    do {
      running_ = lane;
      fibers_.at(lane).resume();
      lane = running_;
      if (fibers_.at(lane).finished()) {
        ++finished;
        finishedAny = true;
        wg_.onLaneFinish(lane);
      }
      lane = wg_.nextRunnable(lane + 1);
    } while (lane < laneCount);
    if (!finishedAny) {
      // Lanes are spin-waiting on an external condition (e.g. a full
      // producer/consumer queue); let host threads (aggregator, network
      // thread) run so the condition can change.
      std::this_thread::yield();
    }
  }
}

void Device::switchFrom(std::uint32_t lane) {
  const std::uint32_t next = wg_.nextRunnable(lane + 1);
  if (next < wg_.laneCount()) {
    running_ = next;
    fibers_.at(next).resume();
  } else {
    fibers_.at(lane).yield();  // end of the pass
  }
}

void Device::yieldLane() {
  if (Fiber* f = Fiber::current()) {
    f->yield();
  } else {
    std::this_thread::yield();
  }
}

}  // namespace gravel::simt
