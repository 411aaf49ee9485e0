// Unit tests for the aggregator's slot-batched hot path (DESIGN.md §9):
// batching invariants (no reordering within a destination, batch sizes
// bounded by capacity, counts conserved route -> flush -> fabric) under 1
// and 4 aggregator threads, the busy-path timeout cadence (the
// timeout-starvation regression), the routing lock discipline (one lock
// acquisition per distinct destination per slot), and ClusterConfig
// validation of degenerate setups.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/cluster.hpp"
#include "runtime/slot_router.hpp"

namespace gravel::rt {
namespace {

/// Publishes one slot carrying `msgs` (lane i = msgs[i]).
void writeSlot(GravelQueue& q, const std::vector<NetMessage>& msgs) {
  auto ref = q.acquireWrite(std::uint32_t(msgs.size()));
  for (std::uint32_t lane = 0; lane < msgs.size(); ++lane) {
    q.wordAt(ref, 0, lane) = msgs[lane].cmd;
    q.wordAt(ref, 1, lane) = msgs[lane].dest;
    q.wordAt(ref, 2, lane) = msgs[lane].addr;
    q.wordAt(ref, 3, lane) = msgs[lane].value;
  }
  q.publish(ref);
}

/// Drives `agg` from `drivers` test threads the way the executor drives an
/// aggregator task: each thread owns one Driver and pumps until destroyed.
class PumpThreads {
 public:
  PumpThreads(Aggregator& agg, std::uint32_t drivers) {
    for (std::uint32_t t = 0; t < drivers; ++t)
      threads_.emplace_back([this, &agg] {
        Aggregator::Driver d = agg.makeDriver();
        while (!stop_.load(std::memory_order_relaxed))
          if (agg.pump(d, 8) == 0) std::this_thread::yield();
      });
  }
  ~PumpThreads() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --- timeout starvation regression ----------------------------------------

TEST(Aggregator, TimeoutFlushReachedUnderSustainedLoad) {
  // Regression for the busy-path timeout bug: checkTimeouts() used to run
  // only from the idle poll loop, so while the GPU queue stayed hot a
  // single message parked for a quiet destination sat buffered until the
  // load stopped — far past the paper's flush timeout. The slot-count
  // cadence must flush it within ~10x the timeout even though the
  // aggregator never goes idle.
  ClusterConfig c;
  c.nodes = 3;
  c.pernode_queue_bytes = 1 << 10;  // 32-message buffers
  c.flush_timeout = std::chrono::milliseconds(25);
  c.aggregator_timeout_check_slots = 4;
  constexpr std::uint32_t kLanes = 8;
  GravelQueue queue(GravelQueueConfig{1 << 13, kLanes, NetMessage::kRows});
  net::PerfectFabric fabric(3);
  obs::Tracer tracer(c.obs);
  Aggregator agg(0, queue, fabric, c, tracer);
  PumpThreads driver(agg, 1);

  // Park one message for destination 2 and wait until it is routed into the
  // (still partial) per-destination buffer.
  writeSlot(queue, {NetMessage::put(2, 0, 42)});
  while (agg.messagesRouted() < 1) std::this_thread::yield();
  const auto parked = std::chrono::steady_clock::now();
  const auto bound = parked + 10 * c.flush_timeout;
  const auto giveUp = parked + std::chrono::seconds(20);

  // Keep the queue hot with destination-1 traffic (8 messages per slot, so
  // buffers fill and flush continuously and the idle path never runs),
  // until the parked message reaches the wire.
  const std::vector<NetMessage> hot(kLanes, NetMessage::atomicInc(1, 8));
  std::uint64_t flushedAt = 0;
  while (true) {
    if (fabric.link(0, 2).batches > 0) {
      flushedAt = std::uint64_t(std::chrono::duration_cast<
          std::chrono::milliseconds>(std::chrono::steady_clock::now() - parked)
                                    .count());
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), giveUp)
        << "parked message never timeout-flushed under sustained load";
    writeSlot(queue, hot);
  }
  EXPECT_LT(std::chrono::steady_clock::now(), bound)
      << "timeout flush took " << flushedAt << " ms, more than 10x the "
      << c.flush_timeout.count() / 1000 << " ms flush timeout";
  EXPECT_EQ(fabric.link(0, 2).messages, 1u);
}

// --- batching invariants ---------------------------------------------------

struct BatchedRun {
  std::map<std::uint32_t, std::vector<std::uint64_t>> perDest;  ///< values
  std::size_t maxBatch = 0;
  std::uint64_t batches = 0;
  std::uint64_t locks = 0;
  std::uint64_t dests = 0;
  std::uint64_t routed = 0;
  std::size_t capacity = 0;
};

/// Pushes `slots` slots of `kLanes` messages through an aggregator pumped
/// by `threads` driver threads and collects everything the fabric received,
/// per destination and in per-destination arrival order. Each value encodes
/// (slot, lane).
BatchedRun runBatched(std::uint32_t threads, std::uint32_t slots) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kLanes = 8;
  ClusterConfig c;
  c.nodes = kNodes;
  c.pernode_queue_bytes = 20 * sizeof(NetMessage);  // flush mid-run sometimes
  c.flush_timeout = std::chrono::seconds(10);       // timeouts play no part
  GravelQueue queue(GravelQueueConfig{1 << 14, kLanes, NetMessage::kRows});
  net::PerfectFabric fabric(kNodes);
  obs::Tracer tracer(c.obs);
  Aggregator agg(0, queue, fabric, c, tracer);
  PumpThreads drivers(agg, threads);

  for (std::uint32_t s = 0; s < slots; ++s) {
    std::vector<NetMessage> msgs;
    msgs.reserve(kLanes);
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      // A skewed destination mix: several messages per destination per slot,
      // so the slot-batched path strictly beats per-message locking.
      const auto dest = std::uint32_t((s + lane / 3) % kNodes);
      msgs.push_back(
          NetMessage::put(dest, 0, (std::uint64_t(s) << 16) | lane));
    }
    writeSlot(queue, msgs);
  }
  while (agg.slotsProcessed() < slots) std::this_thread::yield();
  agg.flushAll();

  BatchedRun run;
  run.capacity = agg.capacityMsgs();
  run.locks = agg.lockAcquisitions();
  run.dests = agg.destsTouched();
  run.routed = agg.messagesRouted();
  net::Delivery d;
  for (std::uint32_t dst = 0; dst < kNodes; ++dst) {
    while (fabric.tryReceive(dst, d)) {
      ++run.batches;
      run.maxBatch = std::max(run.maxBatch, d.messages.size());
      for (const NetMessage& m : d.messages) {
        EXPECT_EQ(m.dest, dst);
        run.perDest[dst].push_back(m.value);
      }
    }
  }
  return run;
}

void checkBatchingInvariants(const BatchedRun& run, std::uint32_t slots) {
  constexpr std::uint32_t kLanes = 8;
  // Conservation: every sent message arrives exactly once.
  std::uint64_t received = 0;
  std::map<std::uint64_t, int> seen;
  for (const auto& [dst, values] : run.perDest) {
    received += values.size();
    for (std::uint64_t v : values) ++seen[v];
  }
  EXPECT_EQ(received, std::uint64_t(slots) * kLanes);
  EXPECT_EQ(run.routed, std::uint64_t(slots) * kLanes);
  EXPECT_EQ(seen.size(), std::size_t(slots) * kLanes) << "duplicate values";

  // Batch sizes never exceed the configured per-destination capacity.
  EXPECT_LE(run.maxBatch, run.capacity);

  // No reordering within a destination: each slot's run for a destination
  // is contiguous in the concatenated arrival stream (appendRun holds the
  // buffer lock across the whole run, and flushes under that same lock
  // preserve order end-to-end) and its lanes arrive ascending.
  for (const auto& [dst, values] : run.perDest) {
    std::map<std::uint64_t, std::uint64_t> lastLane;  // slot -> last lane
    std::map<std::uint64_t, bool> closed;             // slot run ended?
    std::uint64_t prevSlot = ~0ull;
    for (std::uint64_t v : values) {
      const std::uint64_t slot = v >> 16, lane = v & 0xffff;
      if (slot != prevSlot && prevSlot != ~0ull) closed[prevSlot] = true;
      ASSERT_FALSE(closed.count(slot) && closed[slot])
          << "dest " << dst << ": slot " << slot
          << " run is not contiguous in arrival order";
      if (lastLane.count(slot)) {
        ASSERT_LT(lastLane[slot], lane)
            << "dest " << dst << ": lanes reordered within slot " << slot;
      }
      lastLane[slot] = lane;
      prevSlot = slot;
    }
  }

  // Lock discipline: the routing path takes exactly one lock per distinct
  // destination per slot — never one per message.
  EXPECT_EQ(run.locks, run.dests);
  EXPECT_LT(run.locks, run.routed)
      << "slot-batched routing should acquire far fewer locks than messages";
  EXPECT_LE(run.dests, std::uint64_t(slots) * 4);  // <= nodes per slot
}

TEST(Aggregator, BatchingInvariantsSingleThread) {
  const std::uint32_t slots = 200;
  checkBatchingInvariants(runBatched(1, slots), slots);
}

TEST(Aggregator, BatchingInvariantsFourThreads) {
  const std::uint32_t slots = 200;
  checkBatchingInvariants(runBatched(4, slots), slots);
}

// --- config validation -----------------------------------------------------

TEST(ClusterConfigValidate, RejectsDegenerateSetups) {
  {  // pernode queue smaller than one message => zero capacity
    ClusterConfig c;
    c.pernode_queue_bytes = sizeof(NetMessage) - 1;
    EXPECT_THROW(Cluster cluster(c), Error);
  }
  {
    ClusterConfig c;
    c.aggregator_threads = 0;
    EXPECT_THROW(Cluster cluster(c), Error);
  }
  {
    ClusterConfig c;
    c.gpu_queue_bytes = 0;
    EXPECT_THROW(Cluster cluster(c), Error);
  }
  {
    ClusterConfig c;
    c.nodes = 0;
    EXPECT_THROW(Cluster cluster(c), Error);
  }
  {
    ClusterConfig c;
    c.aggregator_timeout_check_slots = 0;
    EXPECT_THROW(Cluster cluster(c), Error);
  }
  {  // exactly one message of capacity is degenerate-but-legal
    ClusterConfig c;
    c.nodes = 2;
    c.heap_bytes = 1 << 16;
    c.gpu_queue_bytes = 1 << 13;
    c.pernode_queue_bytes = sizeof(NetMessage);
    EXPECT_NO_THROW(Cluster cluster(c));
  }
}

TEST(ClusterConfigValidate, DirectAggregatorRejectsZeroCapacity) {
  ClusterConfig c;
  c.nodes = 2;
  c.pernode_queue_bytes = 8;  // < sizeof(NetMessage)
  GravelQueue queue(GravelQueueConfig{1 << 13, 8, NetMessage::kRows});
  net::PerfectFabric fabric(2);
  obs::Tracer tracer(c.obs);
  EXPECT_THROW(Aggregator agg(0, queue, fabric, c, tracer), Error);
}

// --- run stats plumbing ----------------------------------------------------

TEST(Aggregator, ClusterRunStatsExposeLockDiscipline) {
  ClusterConfig c;
  c.nodes = 2;
  c.heap_bytes = 1 << 20;
  c.gpu_queue_bytes = 1 << 14;
  c.pernode_queue_bytes = 1 << 10;
  c.device.wavefront_width = 4;
  c.device.max_wg_size = 16;
  Cluster cluster(c);
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(32, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 1 - nodeId, arr.at(wi.globalId() % 16));
  });
  const ClusterRunStats s = cluster.runStats();
  EXPECT_GT(s.agg_slots, 0u);
  EXPECT_GT(s.agg_lock_acquisitions, 0u);
  EXPECT_EQ(s.agg_lock_acquisitions, s.agg_dests_touched);
  // Slot-granularity routing: strictly fewer locks than routed messages
  // whenever slots carry more than one message on average.
  EXPECT_LT(s.agg_lock_acquisitions, 2u * 32u /* messages */);
  // resetStats() rebaselines the aggregator counters too.
  cluster.resetStats();
  const ClusterRunStats after = cluster.runStats();
  EXPECT_EQ(after.agg_slots, 0u);
  EXPECT_EQ(after.agg_lock_acquisitions, 0u);
  EXPECT_EQ(after.agg_dests_touched, 0u);
}

}  // namespace
}  // namespace gravel::rt
