// The simulated GPU device: dispatches a grid of work-items as work-groups
// over a fiber scheduler with SIMT convergence semantics.
#pragma once

#include <functional>

#include "simt/fiber.hpp"
#include "simt/types.hpp"
#include "simt/workgroup.hpp"
#include "simt/workitem.hpp"

namespace gravel::simt {

/// A simulated GPU. Work-groups of a launch are executed one at a time on
/// the calling thread (the compute-unit count only matters to the cost
/// model); lanes within a work-group interleave on fibers so that
/// work-group-level operations block and resume like real convergence
/// points. Thread-compatibility: one Device per "node" thread.
class Device {
 public:
  using Kernel = std::function<void(WorkItem&)>;

  explicit Device(const DeviceConfig& config = {});

  const DeviceConfig& config() const noexcept { return config_; }
  DeviceStats& stats() noexcept { return stats_; }
  const DeviceStats& stats() const noexcept { return stats_; }

  /// Runs `kernel` for every work-item of the grid. Blocks until the whole
  /// grid finished. Exceptions thrown by kernel bodies (including
  /// DeadlockError from convergence misuse) propagate to the caller, and the
  /// device stays usable for later launches. Must not be called from inside
  /// a kernel.
  void launch(const LaunchConfig& launch, const Kernel& kernel);

  /// Yields the current lane if called from inside a kernel (so sibling
  /// lanes and, transitively, host threads make progress), or the OS thread
  /// otherwise. Pass as the YieldFn of any spin-waiting structure shared
  /// with kernels.
  static void yieldLane();

 private:
  friend class WorkGroupState;

  /// Every lane fiber's entry: runs the launch's kernel for lane running_.
  static void laneEntry(void* device);

  void runWorkGroup(std::uint64_t wgIndex, std::uint32_t laneCount);

  /// Called from lane `lane`'s fiber when it parks at a collective or yields
  /// in fbarJoin: hands the thread straight to the next runnable lane of the
  /// pass, or back to the scheduler when the pass is over. Returns when the
  /// lane is resumed.
  void switchFrom(std::uint32_t lane);

  DeviceConfig config_;
  DeviceStats stats_;
  WorkGroupState wg_;
  FiberPool fibers_;
  // The launch in flight, read by laneEntry.
  const Kernel* kernel_ = nullptr;
  std::uint64_t gridSize_ = 0;
  std::uint64_t wgBase_ = 0;
  /// Lane whose fiber holds the thread; set by whoever switches to it, so
  /// back on the scheduler stack it names the lane that gave control back.
  std::uint32_t running_ = 0;
};

}  // namespace gravel::simt
