// Aggregated statistics for one measurement window of a cluster run. This
// is the hand-off structure between the functional execution and the cost
// model in src/perf: everything timing-related is derived from these counts.
// Cluster::runStats() reads it off the metrics registry (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/stage.hpp"
#include "simt/types.hpp"

namespace gravel::rt {

/// What a degraded-mode window looked like (reliability.policy == kDegrade):
/// which nodes are excised, which links tripped, and the dead-letter
/// accounting that closes the conservation invariant
///
///     delivered (net_resolved) + dead_lettered == sent (net_messages)
///
/// for the window. All-zero/empty under fail_fast or a healthy run.
struct DegradedRunReport {
  struct DeadNode {
    std::uint32_t node = 0;
    std::uint32_t epoch = 0;  ///< incarnation at the end of the window
  };
  struct TrippedLink {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint8_t breaker = 0;  ///< net::BreakerState at window end
    std::uint32_t era = 0;     ///< re-sync count (lifetime, not windowed)
  };

  std::vector<DeadNode> dead_nodes;
  std::vector<TrippedLink> tripped_links;

  // Window deltas from the dead-letter queue.
  std::uint64_t dead_lettered = 0;  ///< messages excised links owed
  std::uint64_t redelivered = 0;    ///< paid back after a restart
  std::uint64_t rejected = 0;       ///< enqueue-side admission refusals
  std::uint64_t evicted = 0;        ///< dead-lettered past the bound

  bool degraded() const noexcept {
    return !dead_nodes.empty() || !tripped_links.empty() ||
           dead_lettered != 0 || rejected != 0;
  }
};

struct ClusterRunStats {
  std::uint32_t nodes = 0;

  // Device-side operation mix (summed over nodes).
  std::uint64_t put_local = 0;
  std::uint64_t put_remote = 0;
  std::uint64_t inc_local = 0;
  std::uint64_t inc_remote = 0;
  std::uint64_t am_local = 0;
  std::uint64_t am_remote = 0;

  // GPU execution counts (summed over nodes).
  std::uint64_t lanes_executed = 0;
  std::uint64_t workgroups_executed = 0;
  std::uint64_t collective_ops = 0;
  std::uint64_t collective_arrivals = 0;
  std::uint64_t active_arrivals = 0;
  std::uint64_t predication_overhead_ops = 0;

  // Aggregator hot path (summed over nodes). The lock-vs-destination pair
  // is the slot-batched routing invariant: one appendRun lock acquisition
  // per distinct destination per slot, so
  // agg_lock_acquisitions <= agg_dests_touched <= messages routed — the
  // bench harness (bench/run_benches.py) checks the inequality per window.
  std::uint64_t agg_slots = 0;             ///< queue slots routed
  std::uint64_t agg_lock_acquisitions = 0; ///< routing-path shard locks
  std::uint64_t agg_dests_touched = 0;     ///< distinct dests summed per slot

  // Scalability evidence (DESIGN.md §14). timeout_scanned is a windowed
  // delta like the counters above: timer-wheel entries checkTimeouts()
  // examined, proportional to buffer-open events rather than the old
  // nodes x cadence-ticks full scan. The remaining three are LEVELS at the
  // moment runStats() ran, not deltas — lazy_buffers/resident_bytes sum the
  // demand-paged per-destination buffers actually allocated (flat in N for
  // cold destinations), and staging_bytes_peak is the largest per-routing-
  // thread scratch high-water mark (O(lanes), never O(N)).
  std::uint64_t agg_timeout_scanned = 0;   ///< wheel entries examined
  std::uint64_t agg_lazy_buffers = 0;      ///< resident per-dest buffers
  std::uint64_t agg_resident_bytes = 0;    ///< bytes in resident buffers
  std::uint64_t agg_staging_bytes_peak = 0;  ///< max per-thread scratch

  // Network traffic (summed over links). With a reliability layer these are
  // app-level counts: retransmissions, duplicates and ACK overhead appear in
  // the reliability counters below (and in the wire fabric's own stats),
  // not here — so Table 5 semantics are preserved under fault injection.
  std::uint64_t net_batches = 0;   ///< network messages (flushed queues)
  std::uint64_t net_messages = 0;  ///< Gravel messages carried
  std::uint64_t net_bytes = 0;
  double avg_batch_bytes = 0;  ///< Table 5 "average message size"

  /// Messages resolved at their destination heaps this window (summed over
  /// network threads). Equals net_messages on a healthy run; under degrade,
  /// net_resolved + degraded.dead_lettered == net_messages — the
  /// conservation invariant quiet() reports instead of throwing.
  std::uint64_t net_resolved = 0;

  // Reliability sublayer (zero when it is disabled).
  std::uint64_t retransmits = 0;   ///< sender-side timeout retransmissions
  std::uint64_t dup_drops = 0;     ///< receiver-side duplicates discarded
  std::uint64_t acks = 0;          ///< ACK parcels applied at senders
  std::uint64_t acks_sent = 0;     ///< standalone ACK batches emitted
  std::uint64_t reorder_drops = 0; ///< out-of-window batches discarded
  std::uint64_t reorder_peak = 0;  ///< deepest reorder buffer (absolute)

  // Graceful degradation (zero under fail_fast — see DegradedRunReport).
  std::uint64_t breaker_trips = 0;     ///< closed/half-open -> open edges
  std::uint64_t probes = 0;            ///< half-open probe batches sent
  std::uint64_t stale_data_drops = 0;  ///< stale-era data frames rejected
  std::uint64_t stale_ack_drops = 0;   ///< stale-era ACKs rejected
  DegradedRunReport degraded{};

  // Fault injection on the wire (zero on PerfectFabric).
  std::uint64_t injected_drops = 0;  ///< batches the adversary discarded
  std::uint64_t injected_dups = 0;   ///< extra copies it delivered

  // Per-transition latency attribution over sampled messages (zero when
  // tracing is off or nothing was sampled). Index t is the transition out
  // of stage t: enqueue->aggregate, ..., deliver->resolve — see
  // obs::transitionLabel. Filled from the latency-attribution engine's
  // pooled histograms; benches print these as Table-5-style columns.
  static constexpr int kLatTransitions = obs::kMessageStages - 1;
  double lat_stage_p50_ns[kLatTransitions] = {};
  double lat_stage_p99_ns[kLatTransitions] = {};
  double lat_e2e_p50_ns = 0;
  double lat_e2e_p99_ns = 0;
  std::uint64_t lat_samples = 0;  ///< e2e-paired samples behind the quantiles

  // Continuous-profiler roll-up (zero when config.profiler is off). Like
  // the latency quantiles these are cluster-lifetime values, not windowed
  // by resetStats(): benches that want per-workload CPU efficiency build a
  // fresh cluster per workload (bench/common.hpp does). busy/idle sum every
  // profiled thread's duty split; the lock pair sums the named-mutex
  // contention table — bench schema v4's cpu_ns_per_msg and
  // lock_wait_share columns derive from these.
  std::uint64_t prof_busy_ns = 0;           ///< region self time, busy paths
  std::uint64_t prof_idle_ns = 0;           ///< backoff/spin self time
  std::uint64_t prof_lock_wait_ns = 0;      ///< named-mutex blocking waits
  std::uint64_t prof_lock_acquisitions = 0; ///< named-mutex lock() calls

  // Time-series collector roll-up (zero when config.timeseries is off):
  // per-window fabric.messages rates over the retained ring, so serving
  // benches report sustained vs. peak throughput rather than one mean.
  std::uint64_t ts_windows = 0;      ///< collection windows retained
  double ts_msgs_per_s_p50 = 0;      ///< median per-window message rate
  double ts_msgs_per_s_peak = 0;     ///< fastest window's message rate

  std::uint64_t opsTotal() const {
    return put_local + put_remote + inc_local + inc_remote + am_local +
           am_remote;
  }
  std::uint64_t opsRemote() const {
    return put_remote + inc_remote + am_remote;
  }
  /// Table 5 "remote access frequency".
  double remoteFraction() const {
    return opsTotal() ? double(opsRemote()) / double(opsTotal()) : 0.0;
  }
};

}  // namespace gravel::rt
