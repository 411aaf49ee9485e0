// Cluster-wide configuration, defaulted to the paper's Table 3 setup.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "obs/profiler.hpp"
#include "obs/status_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "runtime/membership.hpp"
#include "runtime/message.hpp"
#include "simt/types.hpp"

namespace gravel::rt {

/// Conservative per-(src,dst) estimate of the reliability layer's dense
/// eager state (send/recv link structs, era and stats vectors) used by the
/// validate() footprint gate.
inline constexpr std::size_t kReliableLinkEagerBytes = 256;

struct ClusterConfig {
  std::uint32_t nodes = 8;

  /// Symmetric heap per node.
  std::size_t heap_bytes = 64_MiB;

  /// GPU-side producer/consumer queue (Table 3: 1 MB).
  std::size_t gpu_queue_bytes = 1_MiB;

  /// Per-node (per-destination) queues: 64 kB each (Table 3). Table 3's
  /// three queues per destination only matter to the latency model (they
  /// hide network latency; see src/perf); functionally one active buffer
  /// per destination cycles through flushes.
  std::size_t pernode_queue_bytes = 64_KiB;

  /// Flush timeout for a partially-filled per-node queue. The paper's value
  /// is 125 us against an APU that offloads ~220M msgs/s; the functional
  /// SIMT engine is roughly three orders of magnitude slower, so the
  /// *functional* default scales the timeout by the same factor to preserve
  /// the fill-before-timeout behaviour (the timing model applies the real
  /// 125 us — see src/perf).
  std::chrono::microseconds flush_timeout{125000};

  /// Aggregator threads consuming the GPU queue (Table 3: 1): the number of
  /// aggregator tasks per node the executor runs.
  std::uint32_t aggregator_threads = 1;

  /// Shards backing the aggregator's per-destination buffers (DESIGN.md
  /// §14). Clamped to `nodes`, so clusters up to this size keep the
  /// historical one-lock-per-destination behaviour exactly; larger
  /// clusters pay a fixed shard-mutex footprint instead of one per node.
  /// 0 means the SlotRouter default (64).
  std::uint32_t aggregator_shards = 0;

  /// Executor threads (DESIGN.md §5). Every node's runtime work is split
  /// into tasks — `aggregator_threads` aggregator tasks and one network
  /// task per node — and the executor runs them all on
  /// min(runtime_threads, tasks) threads. 0 (default) gives every task its
  /// own thread, the paper's dedicated aggregator and network threads; a
  /// small value runs 1024+ simulated nodes on a host that cannot spawn
  /// one OS thread per task.
  std::uint32_t runtime_threads = 0;

  /// Upper bound on the cluster's total *eager* allocation footprint
  /// (bytes): memory validate() can predict from the config alone —
  /// symmetric heaps, GPU queues, and the reliability layer's dense
  /// per-link state. Configs over the cap are rejected up front with an
  /// actionable message instead of OOM-ing mid-construction. 0 disables
  /// the check. Per-destination aggregation buffers are demand-paged
  /// (DESIGN.md §14) and deliberately NOT counted.
  std::size_t max_eager_bytes = std::size_t{65536} * 1_MiB;  // 64 GiB

  /// Fault injection on the wire. Inactive (all-zero) means the cluster runs
  /// on PerfectFabric exactly as before; any nonzero knob swaps in
  /// FaultyFabric.
  net::FaultConfig fault{};

  /// Reliable-delivery sublayer (seq/ack/retransmit/dedup). Off by default;
  /// required for correct results whenever `fault` can lose or duplicate
  /// batches.
  net::ReliabilityConfig reliability{};

  /// Failure detector behind `reliability.policy == kDegrade` (DESIGN.md
  /// §11): stall-driven suspicion thresholds sampled by the monitor thread.
  /// Inert under fail_fast.
  MembershipConfig membership{};

  /// Upper bound on each quiet() wait loop. On expiry quiet() throws with a
  /// per-link diagnostic instead of hanging the process. Zero disables the
  /// deadline.
  std::chrono::milliseconds quiet_deadline{120000};

  /// Observability (src/obs): message-lifecycle tracing, depth gauges and
  /// the metrics registry feed. Off by default; when `obs.enabled` is false
  /// the hot paths pay one predictable branch per record site and nothing
  /// else.
  obs::TraceConfig obs{};

  /// Stall watchdog (src/obs/watchdog.hpp): the monitor thread samples
  /// queue progress, buffer ages and reliable-link send states on
  /// `watchdog.period` and turns persistent stalls into structured
  /// diagnoses that quiet()'s post-mortem and the metrics registry report.
  obs::WatchdogConfig watchdog{};

  /// Windowed time-series collector (src/obs/timeseries.hpp): the monitor
  /// thread takes MetricsSnapshot::delta() windows on `timeseries.period`
  /// into a bounded ring, and the cluster dumps gravel_timeseries.json at
  /// destruction. GRAVEL_TIMESERIES=1 enables it from the environment.
  obs::TimeSeriesConfig timeseries{};

  /// Live HTTP status endpoint (src/obs/status_server.hpp): /metrics in
  /// Prometheus text exposition, /status + /timeseries as JSON.
  /// GRAVEL_STATUS_PORT=<port> enables it (and the collector) from the
  /// environment; port 0 binds an ephemeral port.
  obs::StatusServerConfig status_server{};

  /// Continuous profiler (src/obs/profiler.hpp): per-thread cycle
  /// attribution over region paths plus named-mutex lock-contention
  /// histograms. Off by default (one predicted branch per region bracket);
  /// GRAVEL_PROFILE=1 enables it from the environment.
  obs::ProfilerConfig profiler{};

  simt::DeviceConfig device{};

  /// Rejects degenerate configurations up front, with actionable messages.
  /// Called by the Cluster constructor — a pernode_queue_bytes smaller than
  /// one NetMessage would otherwise silently truncate the per-destination
  /// capacity to zero and the aggregator would flush 1-message batches (or
  /// nothing) forever.
  void validate() const {
    GRAVEL_CHECK_MSG(nodes > 0, "cluster needs at least one node");
    GRAVEL_CHECK_MSG(nodes <= 65536,
                     "node ids are recorded in 16-bit trace fields; "
                     "more than 65536 nodes would alias");
    GRAVEL_CHECK_MSG(heap_bytes > 0, "symmetric heap cannot be empty");
    GRAVEL_CHECK_MSG(gpu_queue_bytes > 0,
                     "GPU producer/consumer queue cannot be zero-sized");
    GRAVEL_CHECK_MSG(
        pernode_queue_bytes >= sizeof(NetMessage),
        "pernode_queue_bytes must hold at least one NetMessage (32 bytes); "
        "smaller values silently truncate per-destination capacity to zero");
    GRAVEL_CHECK_MSG(aggregator_threads > 0,
                     "aggregator needs at least one thread");
    // Eager-footprint gate: reject configs that would OOM mid-construction
    // with a message naming the knobs, instead of dying in an allocator.
    // Historical note: per-destination aggregation buffers used to dominate
    // this sum (3 x pernode_queue_bytes x nodes x aggregator_threads); they
    // are demand-paged now (DESIGN.md §14), so the cap covers only what is
    // still allocated up front — heaps, GPU queues, and the reliability
    // layer's dense per-link state.
    if (max_eager_bytes != 0) {
      const std::uint64_t perNode =
          std::uint64_t(heap_bytes) + std::uint64_t(gpu_queue_bytes);
      std::uint64_t eager = perNode * nodes;
      if (reliability.enabled)
        eager += std::uint64_t(nodes) * nodes * kReliableLinkEagerBytes;
      GRAVEL_CHECK_MSG(
          eager <= max_eager_bytes,
          "total eager allocation footprint (" + std::to_string(eager) +
              " bytes: nodes x (heap_bytes + gpu_queue_bytes)" +
              (reliability.enabled ? " + nodes^2 reliable-link state" : "") +
              ") exceeds max_eager_bytes (" +
              std::to_string(max_eager_bytes) +
              "); shrink heap_bytes/gpu_queue_bytes for large simulated "
              "clusters, or raise max_eager_bytes");
    }
    if (reliability.policy == net::FailurePolicy::kDegrade) {
      GRAVEL_CHECK_MSG(reliability.enabled,
                       "the degrade failure policy needs the reliability "
                       "layer: circuit breakers live on its links");
      GRAVEL_CHECK_MSG(reliability.dlq_capacity > 0,
                       "degrade needs a dead-letter capacity of >= 1 message "
                       "per destination");
      GRAVEL_CHECK_MSG(membership.suspect_after.count() > 0 &&
                           membership.probe_period.count() > 0,
                       "membership detector thresholds must be positive "
                       "under the degrade policy");
    }
    if (watchdog.enabled) {
      GRAVEL_CHECK_MSG(watchdog.period.count() > 0,
                       "watchdog.period must be positive when enabled");
      GRAVEL_CHECK_MSG(watchdog.max_diagnoses > 0,
                       "watchdog.max_diagnoses must be >= 1 when enabled");
      GRAVEL_CHECK_MSG(
          watchdog.no_progress_deadline.count() > 0 &&
              watchdog.backpressure_deadline.count() > 0 &&
              watchdog.stalled_link_deadline.count() > 0,
          "watchdog deadlines must be positive when the watchdog is enabled");
    }
    if (timeseries.enabled) {
      GRAVEL_CHECK_MSG(timeseries.period.count() > 0,
                       "timeseries.period must be positive when enabled");
      GRAVEL_CHECK_MSG(timeseries.capacity > 0,
                       "timeseries.capacity must be >= 1 window when enabled");
    }
    if (status_server.enabled)
      GRAVEL_CHECK_MSG(!status_server.bind_address.empty(),
                       "status_server.bind_address cannot be empty when "
                       "the status server is enabled");
  }
};

}  // namespace gravel::rt
