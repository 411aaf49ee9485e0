// Shared identifiers and configuration for the SIMT execution engine.
#pragma once

#include <cstdint>

namespace gravel::simt {

/// Hardware shape of a simulated GPU (paper Table 3: 8 CUs, 64-lane
/// wavefronts, 256-work-item work-groups, 64 KiB scratchpad per CU).
struct DeviceConfig {
  std::uint32_t compute_units = 8;
  std::uint32_t wavefront_width = 64;
  std::uint32_t max_wg_size = 256;
  std::uint32_t scratchpad_bytes = 64 * 1024;
  std::uint32_t fiber_stack_bytes = 64 * 1024;
  /// When true, work-group-level operations follow the §5.3
  /// thread-block-compaction proposal: a lane that exits its kernel stops
  /// participating, and an in-flight collective completes over the
  /// remaining live lanes. When false (default, current GPUs), that exit is
  /// a deadlock and the engine throws DeadlockError.
  bool wg_reconvergence = false;
};

/// One kernel launch: `grid_size` work-items in `wg_size`-lane work-groups.
struct LaunchConfig {
  std::uint64_t grid_size = 0;
  std::uint32_t wg_size = 256;
};

/// Execution statistics accumulated across launches; read by the cost model.
/// Plain integers: every field is written only by the device's scheduler
/// thread and read after launches complete.
struct DeviceStats {
  std::uint64_t kernels_launched = 0;
  std::uint64_t workgroups_executed = 0;
  std::uint64_t lanes_executed = 0;
  std::uint64_t collective_ops = 0;       ///< completed WG/fbar collectives
  std::uint64_t collective_arrivals = 0;  ///< per-lane arrivals at collectives
  std::uint64_t active_arrivals = 0;      ///< arrivals with active == true
  std::uint64_t predication_overhead_ops = 0;  ///< bumped by predicated apps
  std::uint64_t scratchpad_high_water = 0;     ///< max bytes used by one WG
  /// OS-thread yields by the lane scheduler: passes in which no lane
  /// finished, including those that ended at a completed collective.
  std::uint64_t thread_yields = 0;

  /// Fraction of collective arrivals that carried real (active) work; the
  /// §8.2 experiments are about pushing this toward 1.0.
  double activeFraction() const {
    return collective_arrivals
               ? double(active_arrivals) / double(collective_arrivals)
               : 1.0;
  }
};

}  // namespace gravel::simt
