// Gravel's aggregator (paper §3.4, §6): CPU threads that drain the GPU's
// producer/consumer queue and repack messages into per-destination ("per-
// node") queues, which are handed to the fabric once full or once idle past
// the flush timeout. This is the piece that turns many small GPU-initiated
// messages into few large network messages.
//
// The drain routes at *slot* granularity (DESIGN.md §9): each claimed slot
// is bulk-decoded into the driver's staging, and every destination's run is
// appended to its shared buffer with one lock acquisition per destination
// per slot — not one per message. pump() is also the one place that
// applies the paper's 125 us flush-timeout rule: on every pass that finds
// no work, and at least every quarter flush timeout on a busy driver, so a
// lightly-trafficked destination's partial buffer is flushed within a
// bounded delay even when the queue never goes idle.
//
// The aggregator owns no thread: the cluster's executor (DESIGN.md §5)
// drives it through pump(), one Driver per aggregator task.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/atomic.hpp"
#include "common/stats.hpp"
#include "net/fabric.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "queue/gravel_queue.hpp"
#include "runtime/config.hpp"
#include "runtime/message.hpp"
#include "runtime/slot_router.hpp"

namespace gravel::rt {

class Aggregator {
 public:
  Aggregator(std::uint32_t self, GravelQueue& queue, net::Fabric& fabric,
             const ClusterConfig& config, obs::Tracer& tracer,
             obs::Profiler* profiler = nullptr)
      : self_(self),
        queue_(queue),
        fabric_(fabric),
        tracer_(tracer),
        prof_(profiler),
        capacityMsgs_(config.pernode_queue_bytes / sizeof(NetMessage)),
        timeoutPeriod_(config.flush_timeout / 4),
        router_(
            fabric.nodes(), capacityMsgs_, config.flush_timeout,
            [this](std::uint32_t dst, std::vector<NetMessage>&& batch) {
              onFlush(dst, std::move(batch));
            },
            config.aggregator_shards) {}

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Number of queue slots fully routed into per-node buffers — the quiet
  /// protocol compares this with the queue's reservation count, so this is
  /// the PROTOCOL accessor: its acquire pairs with the drivers' release
  /// adds, making every routed message's buffer append visible to a caller
  /// that observes the count. Stats/ratio readers should use
  /// slotsProcessedStat() instead.
  std::uint64_t slotsProcessed() const noexcept {
    // pairs-with: aggregator.slots-processed
    return slotsProcessed_.get(std::memory_order_acquire);
  }

  /// STATS accessor: relaxed read of the same counter. A monotonic
  /// approximation — it can lag concurrent drivers and carries no ordering,
  /// which is fine for gauges, metrics and ratios (pollFraction) and keeps
  /// the concurrency lint's protocol/stats distinction auditable.
  std::uint64_t slotsProcessedStat() const noexcept {
    return slotsProcessed_.get(std::memory_order_relaxed);
  }

  /// Force every partially-filled per-node queue onto the wire (quiet
  /// protocol / end of kernel). Thread-safe against the drivers.
  void flushAll() { router_.flushAll(); }

  /// Messages repacked so far, by destination kind.
  std::uint64_t messagesRouted() const noexcept {
    return messagesRouted_.get(std::memory_order_relaxed);
  }

  /// Idle polls: pump() passes that found no published slot.
  /// §8.1 observes the paper's aggregator polls 65% of the time even at 8
  /// nodes — the motivation for a hardware aggregator. The poll *fraction*
  /// here is pollCount / (pollCount + slotsProcessed).
  std::uint64_t pollCount() const noexcept {
    return polls_.get(std::memory_order_relaxed);
  }

  /// Poll fraction as a monotonic approximation: both counters are read
  /// relaxed (see slotsProcessedStat) and either can be mid-update, so the
  /// ratio is only statistically meaningful — exactly what the §8.1
  /// comparison needs, and all it promises.
  double pollFraction() const noexcept {
    const double p = double(pollCount());
    const double s = double(slotsProcessedStat());
    return (p + s) > 0 ? p / (p + s) : 0.0;
  }

  /// Routing-path lock acquisitions (one per distinct destination per
  /// slot). The bench harness checks locks/slot <= distinct dests/slot.
  std::uint64_t lockAcquisitions() { return router_.routeLockAcquisitions(); }

  /// Distinct destinations summed over routed slots.
  std::uint64_t destsTouched() const noexcept {
    return destsTouched_.get(std::memory_order_relaxed);
  }

  /// Nonempty per-destination buffers with fill and age — the monitor
  /// thread's shared pipeline sample feeds depth histograms and the stall
  /// watchdog's backpressure detector from one pass (sampler cadence only).
  void sampleBufferAges(
      const std::function<void(std::uint32_t dst, std::uint64_t fill,
                               std::uint64_t age_ns)>& fn) {
    router_.sampleBufferAges(fn);
  }

  std::size_t capacityMsgs() const noexcept { return capacityMsgs_; }

  /// Shards backing the per-destination buffers (fixed, <= nodes).
  std::uint32_t shardCount() const noexcept { return router_.shardCount(); }

  /// Timer-wheel entries examined so far — proportional to buffer-open
  /// events, NOT to nodes x cadence ticks (the old full-array scan).
  std::uint64_t timeoutScanned() { return router_.timeoutScanned(); }

  /// Per-destination buffers demand-paged in so far (cold dests cost 0).
  std::uint64_t lazyBuffers() { return router_.lazyBuffers(); }

  /// Bytes resident in per-destination buffers right now.
  std::size_t residentBufferBytes() { return router_.residentBufferBytes(); }

  /// High-water mark of one driver's staging scratch, sampled after every
  /// pump() pass. The scale tests assert this does not grow with the node
  /// count (it is O(lanes) by construction).
  std::size_t stagingBytesPeak() const noexcept {
    return stagingPeak_.load(std::memory_order_relaxed);
  }

  /// One driver's private state: its staging scratch and when it last
  /// checked timeouts. Every pump() call with a given Driver comes from one
  /// thread at a time (the executor gives each task one owner), so nothing
  /// in here is shared.
  struct Driver {
    SlotRouter::Staging staging;
    std::chrono::steady_clock::time_point lastTimeoutCheck;
  };

  Driver makeDriver() const {
    return Driver{SlotRouter::Staging(queue_.lanes()),
                  std::chrono::steady_clock::now()};
  }

  /// One pass of a drain: route up to `maxSlots` published slots without
  /// blocking. A pass that routes nothing is a poll: it is counted, and it
  /// retires buffers that sat past the flush timeout (the paper's 125 us
  /// rule). A busy pass does the same once a quarter flush timeout has
  /// passed since its driver's last check, so a queue that never idles
  /// cannot starve a partial buffer. Returns slots routed.
  std::uint32_t pump(Driver& d, std::uint32_t maxSlots) {
    GravelQueue::SlotRef ref;
    std::uint32_t done = 0;
    while (done < maxSlots && queue_.tryAcquireRead(ref)) {
      processSlot(ref, d.staging);
      ++done;
    }
    if (done == 0) polls_.add(1, std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (done == 0 || now - d.lastTimeoutCheck >= timeoutPeriod_)
      checkTimeouts(d, now);
    // The scratch high-water mark is the scale sweep's staying-O(lanes)
    // evidence (one relaxed load, rarely a CAS).
    noteStaging(d.staging);
    return done;
  }

 private:
  /// Retires every buffer open past the flush timeout, under its profiler
  /// region. pump() is its only caller.
  void checkTimeouts(Driver& d, std::chrono::steady_clock::time_point now) {
    obs::ScopedRegion scanRegion(prof_, obs::Region::kAggTimerScan);
    d.lastTimeoutCheck = now;
    router_.checkTimeouts(now);
  }

  /// Decode, trace, route and count one claimed slot.
  void processSlot(const GravelQueue::SlotRef& ref,
                   SlotRouter::Staging& staging) {
    obs::ScopedRegion slotRegion(prof_, obs::Region::kAggSlot);
    const std::span<const NetMessage> msgs =
        router_.decode(queue_, ref, staging);
    // The staging owns a copy: hand the slot back to producers before
    // taking any buffer locks.
    queue_.release(ref);
    // active(), not enabled(): the flight recorder wants every message's
    // aggregate event (id 0 = unsampled; recordStage keeps those out of
    // the sampled buffers). One clock read stamps the whole slot.
    if (tracer_.active()) {
      const std::uint64_t now = tracer_.nowNs();
      for (const NetMessage& m : msgs)
        tracer_.recordStage(now, obs::Stage::kAggregate, m.traceId(),
                            std::uint16_t(self_), std::uint16_t(m.dest),
                            m.addr, std::uint8_t(m.command()));
    }
    std::uint32_t dests;
    {
      obs::ScopedRegion routeRegion(prof_, obs::Region::kAggRoute);
      dests = router_.routeStaged(staging);
    }
    messagesRouted_.add(ref.count, std::memory_order_relaxed);
    destsTouched_.add(dests, std::memory_order_relaxed);
    // Release-ordered AFTER the buffer appends: quiet() observing this
    // count may flushAll() immediately, so the slot's messages must
    // already be in the shared buffers.
    slotsProcessed_.add(1, std::memory_order_release);  // pairs-with: aggregator.slots-processed
  }

  /// Monotonic max of this driver's staging scratch bytes. Relaxed CAS max:
  /// a stats gauge, no ordering published through it.
  void noteStaging(const SlotRouter::Staging& staging) {
    const std::size_t bytes = staging.residentBytes();
    std::size_t cur = stagingPeak_.load(std::memory_order_relaxed);
    while (bytes > cur && !stagingPeak_.compare_exchange_weak(
                              cur, bytes, std::memory_order_relaxed,
                              std::memory_order_relaxed)) {
    }
  }

  /// SlotRouter flush sink: trace the handoff, then give the batch to the
  /// fabric. Runs with the destination's buffer lock held (per-destination
  /// batch order == append order).
  void onFlush(std::uint32_t dst, std::vector<NetMessage>&& batch) {
    obs::ScopedRegion flushRegion(prof_, obs::Region::kAggFlush);
    if (tracer_.active()) {
      const std::uint64_t now = tracer_.nowNs();  // one read per batch
      for (const NetMessage& m : batch)
        tracer_.recordStage(now, obs::Stage::kFlush, m.traceId(),
                            std::uint16_t(self_), std::uint16_t(dst), m.addr,
                            std::uint8_t(m.command()));
    }
    fabric_.send(self_, dst, std::move(batch));
  }

  std::uint32_t self_;
  GravelQueue& queue_;
  net::Fabric& fabric_;
  obs::Tracer& tracer_;
  obs::Profiler* prof_;
  std::size_t capacityMsgs_;
  std::chrono::steady_clock::duration timeoutPeriod_;

  SlotRouter router_;

  // Sharded per driving thread: with aggregator_threads > 1 these are the
  // hottest shared words on the stats path (one bump per slot / message /
  // poll), and unsharded they false-share a single line.
  ShardedCounter slotsProcessed_;
  ShardedCounter messagesRouted_;
  ShardedCounter polls_;
  ShardedCounter destsTouched_;
  /// Stats-only gauge (relaxed max); see noteStaging().
  atomic<std::size_t> stagingPeak_{0};
};

}  // namespace gravel::rt
