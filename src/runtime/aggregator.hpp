// Gravel's aggregator (paper §3.4, §6): CPU threads that drain the GPU's
// producer/consumer queue and repack messages into per-destination ("per-
// node") queues, which are handed to the fabric once full or once idle past
// the flush timeout. This is the piece that turns many small GPU-initiated
// messages into few large network messages.
//
// The drain loop routes at *slot* granularity (DESIGN.md §9): each claimed
// slot is bulk-decoded into thread-local staging, and every destination's
// run is appended to its shared buffer with one lock acquisition per
// destination per slot — not one per message. Timeout checking is folded
// into the busy path on a slot-count cadence, so a lightly-trafficked
// destination's partial buffer is flushed within a bounded delay even when
// the queue never goes idle (the paper's 125 us rule, previously only
// honoured on the idle path).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/atomic.hpp"
#include "common/backoff.hpp"
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
        timeoutCheckSlots_(config.aggregator_timeout_check_slots),
        stagingReserve_(config.aggregator_staging_reserve),
        router_(
            fabric.nodes(), capacityMsgs_, config.flush_timeout,
            [this](std::uint32_t dst, std::vector<NetMessage>&& batch) {
              onFlush(dst, std::move(batch));
            },
            config.aggregator_shards) {}

  ~Aggregator() { stop(); }

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  void start(std::uint32_t threads) {
    GRAVEL_CHECK_MSG(threads > 0, "aggregator needs at least one thread");
    // Thread creation below establishes the happens-before to the workers.
    stopped_.store(false, std::memory_order_relaxed);
    for (std::uint32_t t = 0; t < threads; ++t)
      workers_.emplace_back([this, t] {
        const std::string name =
            "agg." + std::to_string(self_) + "." + std::to_string(t);
        tracer_.nameThread(name);
        if (prof_ != nullptr) prof_->nameThread(name);
        run();
      });
  }

  void stop() {
    // Release pairs with acquireRead's acquire load of `stopped` — the
    // stopped-drain exit path depends on this edge (see gravel_queue.hpp).
    stopped_.store(true, std::memory_order_release);  // pairs-with: aggregator.stopped
    for (auto& w : workers_)
      if (w.joinable()) w.join();
    workers_.clear();
  }

  /// Number of queue slots fully routed into per-node buffers — the quiet
  /// protocol compares this with the queue's reservation count, so this is
  /// the PROTOCOL accessor: its acquire pairs with the workers' release
  /// adds, making every routed message's buffer append visible to a caller
  /// that observes the count. Stats/ratio readers should use
  /// slotsProcessedStat() instead.
  std::uint64_t slotsProcessed() const noexcept {
    // pairs-with: aggregator.slots-processed
    return slotsProcessed_.get(std::memory_order_acquire);
  }

  /// STATS accessor: relaxed read of the same counter. A monotonic
  /// approximation — it can lag concurrent workers and carries no ordering,
  /// which is fine for gauges, metrics and ratios (pollFraction) and keeps
  /// the concurrency lint's protocol/stats distinction auditable.
  std::uint64_t slotsProcessedStat() const noexcept {
    return slotsProcessed_.get(std::memory_order_relaxed);
  }

  /// Force every partially-filled per-node queue onto the wire (quiet
  /// protocol / end of kernel). Thread-safe against the workers.
  void flushAll() { router_.flushAll(); }

  /// Messages repacked so far, by destination kind.
  std::uint64_t messagesRouted() const noexcept {
    return messagesRouted_.get(std::memory_order_relaxed);
  }

  /// Idle poll iterations (spins of acquireRead with nothing to consume).
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

  /// Messages currently parked in per-destination buffers (occupancy gauge;
  /// sampler-cadence only — takes each buffer's lock briefly).
  std::uint64_t bufferedMessages() { return router_.bufferedMessages(); }

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

  /// High-water mark of one routing thread's staging scratch, sampled on
  /// the timeout cadence. The scale tests assert this does not grow with
  /// the node count (it is O(lanes) by construction).
  std::size_t stagingBytesPeak() const noexcept {
    return stagingPeak_.load(std::memory_order_relaxed);
  }

  // --- cooperative (pooled) driving -------------------------------------
  //
  // With ClusterConfig::runtime_threads > 0 the cluster drives aggregators
  // from a small shared pool instead of dedicated per-node threads (a
  // 4096-node cluster cannot spawn 8192 OS threads). Each pooled node has
  // exactly ONE driver at a time, so pump() keeps its cadence counter as a
  // plain member — same single-consumer contract as run().

  /// Make the per-driver staging scratch for this aggregator's queue.
  SlotRouter::Staging makeStaging() const {
    return SlotRouter::Staging(fabric_.nodes(), queue_.lanes(),
                               stagingReserve_);
  }

  /// Drain up to `maxSlots` ready slots without blocking; returns slots
  /// routed. Zero means the queue had no published work.
  std::uint32_t pump(SlotRouter::Staging& staging, std::uint32_t maxSlots) {
    GravelQueue::SlotRef ref;
    std::uint32_t done = 0;
    while (done < maxSlots && queue_.tryAcquireRead(ref)) {
      processSlot(ref, staging);
      ++done;
      if (++pumpSinceTimeoutCheck_ >= timeoutCheckSlots_) {
        pumpSinceTimeoutCheck_ = 0;
        scannedCheckTimeouts();
      }
    }
    // Record the scratch high-water mark whenever this pump did work — a
    // short pooled run may never reach the timeout cadence, and the peak is
    // the scale sweep's staying-O(lanes) evidence (one relaxed CAS-max).
    if (done > 0) noteStaging(staging);
    return done;
  }

  /// Timeout maintenance entry point for pooled drivers (time-based cadence
  /// lives in the pool loop; dedicated threads keep their own cadence).
  void checkTimeouts() { scannedCheckTimeouts(); }

 private:
  /// Timer-wheel scan under its profiler region (every cadence path —
  /// idle, busy, pooled — funnels through here).
  void scannedCheckTimeouts() {
    obs::ScopedRegion scanRegion(prof_, obs::Region::kAggTimerScan);
    router_.checkTimeouts();
  }

  void run() {
    GravelQueue::SlotRef ref;
    SlotRouter::Staging staging = makeStaging();
    // Idle polls decay to short sleeps (paper's aggregator polls 65% of the
    // time, §8.1 — no need to burn a core doing it) but stay well under the
    // flush timeout so checkTimeouts() keeps its resolution.
    Backoff backoff(std::chrono::microseconds(20));
    const YieldFn idle = [this, &backoff, &staging] {
      // While waiting for GPU work, retire buffers that sat past the
      // timeout (the paper's 125 us rule, applied when the queue is idle so
      // a 1-core host's scheduling gaps do not shred aggregation).
      polls_.add(1, std::memory_order_relaxed);
      scannedCheckTimeouts();
      noteStaging(staging);
      obs::ScopedRegion idleRegion(prof_, obs::Region::kIdle);
      backoff.wait();
    };
    std::uint32_t slotsSinceTimeoutCheck = 0;
    while (queue_.acquireRead(ref, stopped_, idle)) {
      backoff.reset();
      processSlot(ref, staging);
      // Busy-path timeout cadence: under sustained load the idle YieldFn
      // above never runs, so without this a single buffered message to a
      // quiet destination would sit until the queue drains (timeout
      // starvation). Every timeoutCheckSlots_ slots bounds that latency.
      if (++slotsSinceTimeoutCheck >= timeoutCheckSlots_) {
        slotsSinceTimeoutCheck = 0;
        scannedCheckTimeouts();
        noteStaging(staging);
      }
    }
    // Producers are done and the queue is drained: final flush.
    flushAll();
  }

  /// Decode, trace, route and count one claimed slot (shared by the
  /// dedicated-thread run() loop and the pooled pump()).
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
  std::uint32_t timeoutCheckSlots_;
  std::uint32_t stagingReserve_;

  SlotRouter router_;

  atomic<bool> stopped_{true};
  // Sharded per worker thread: with aggregator_threads > 1 these are the
  // hottest shared words on the stats path (one bump per slot / message /
  // poll), and unsharded they false-share a single line.
  ShardedCounter slotsProcessed_;
  ShardedCounter messagesRouted_;
  ShardedCounter polls_;
  ShardedCounter destsTouched_;
  /// Stats-only gauge (relaxed max); see noteStaging().
  atomic<std::size_t> stagingPeak_{0};
  /// Plain: pump() has exactly one driver at a time (pool ownership).
  std::uint32_t pumpSinceTimeoutCheck_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace gravel::rt
