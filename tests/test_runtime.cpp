// Integration tests for the Gravel runtime: symmetric heap, fabric,
// aggregator repacking, network-thread resolution, the device-side
// shmem_put / shmem_inc / shmem_am API with work-group-level reservation,
// the quiet protocol, and the Table-5 statistics plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "runtime/cluster.hpp"

namespace gravel::rt {
namespace {

ClusterConfig smallCluster(std::uint32_t nodes, std::uint32_t wg = 16,
                           std::uint32_t wf = 4) {
  ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 1 << 20;
  c.gpu_queue_bytes = 1 << 14;
  c.pernode_queue_bytes = 1 << 10;  // 1 kB = 32 messages per flush
  c.device.wavefront_width = wf;
  c.device.max_wg_size = wg;
  return c;
}

TEST(SymmetricHeap, WordAccess) {
  SymmetricHeap h(1024);
  h.storeU64(16, 0xdeadbeef);
  EXPECT_EQ(h.loadU64(16), 0xdeadbeefu);
  EXPECT_EQ(h.fetchAddU64(16, 2), 0xdeadbeefu);
  EXPECT_EQ(h.loadU64(16), 0xdeadbef1u);
}

TEST(SymmetricHeap, TypedDoubleRoundTrip) {
  SymmetricHeap h(1024);
  SymAddr<double> a{64};
  h.store(a, 3, 2.718281828);
  EXPECT_DOUBLE_EQ(h.load(a, 3), 2.718281828);
}

TEST(SymmetricHeap, BoundsChecked) {
  SymmetricHeap h(64);
  EXPECT_THROW(h.loadU64(64), Error);
  EXPECT_THROW(h.storeU64(61, 0), Error);  // unaligned + oob
}

TEST(SymmetricAllocator, OffsetsAreSequentialAndBounded) {
  SymmetricAllocator a(64);
  auto x = a.alloc<std::uint64_t>(4);
  auto y = a.alloc<std::uint64_t>(4);
  EXPECT_EQ(x.offset, 0u);
  EXPECT_EQ(y.offset, 32u);
  EXPECT_THROW(a.alloc<std::uint64_t>(1), Error);
}

TEST(NetMessage, PackingRoundTrips) {
  auto m = NetMessage::activeMessage(3, 77, 123, 456);
  EXPECT_EQ(m.command(), Command::kActiveMessage);
  EXPECT_EQ(m.handler(), 77u);
  EXPECT_EQ(m.dest, 3u);
  EXPECT_EQ(m.addr, 123u);
  EXPECT_EQ(m.value, 456u);
  auto p = NetMessage::put(1, 8, 9);
  EXPECT_EQ(p.command(), Command::kPut);
  auto i = NetMessage::atomicInc(2, 16);
  EXPECT_EQ(i.command(), Command::kAtomicInc);
}

TEST(Fabric, DeliversAndCounts) {
  net::PerfectFabric f(2);
  std::vector<NetMessage> batch{NetMessage::put(1, 0, 42),
                                NetMessage::put(1, 8, 43)};
  f.send(0, 1, std::move(batch));
  EXPECT_EQ(f.inFlight(), 2u);
  EXPECT_FALSE(f.quiescent());
  net::Delivery d;
  EXPECT_FALSE(f.tryReceive(0, d));
  ASSERT_TRUE(f.tryReceive(1, d));
  EXPECT_EQ(d.src, 0u);
  ASSERT_EQ(d.messages.size(), 2u);
  f.markResolved(1, d);
  EXPECT_EQ(f.inFlight(), 0u);
  EXPECT_TRUE(f.quiescent());
  auto link = f.link(0, 1);
  EXPECT_EQ(link.batches, 1u);
  EXPECT_EQ(link.messages, 2u);
  EXPECT_EQ(link.bytes, 64u);
}

TEST(Fabric, EmptyBatchIsDropped) {
  net::PerfectFabric f(2);
  f.send(0, 1, {});
  net::Delivery d;
  EXPECT_FALSE(f.tryReceive(1, d));
  EXPECT_EQ(f.total().batches, 0u);
}

TEST(Aggregator, TimeoutFlushesPartialBufferWithoutFlushAll) {
  // A message parked in a partially-filled per-node buffer must reach the
  // wire within the configured timeout through checkTimeouts() alone —
  // flushAll() is never called here.
  ClusterConfig c;
  c.nodes = 2;
  c.pernode_queue_bytes = 1 << 10;  // 32-message buffers; we park only 3
  c.flush_timeout = std::chrono::milliseconds(2);
  GravelQueue queue(GravelQueueConfig{1 << 13, 32, NetMessage::kRows});
  net::PerfectFabric fabric(2);
  obs::Tracer tracer(c.obs);
  Aggregator agg(0, queue, fabric, c, tracer);
  agg.start(1);
  auto ref = queue.acquireWrite(3);
  const NetMessage msgs[3] = {NetMessage::put(1, 0, 7),
                              NetMessage::put(1, 8, 8),
                              NetMessage::atomicInc(1, 16)};
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    queue.wordAt(ref, 0, lane) = msgs[lane].cmd;
    queue.wordAt(ref, 1, lane) = msgs[lane].dest;
    queue.wordAt(ref, 2, lane) = msgs[lane].addr;
    queue.wordAt(ref, 3, lane) = msgs[lane].value;
  }
  queue.publish(ref);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fabric.link(0, 1).batches == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timeout flush never pushed the partial buffer onto the wire";
    std::this_thread::yield();
  }
  EXPECT_EQ(fabric.link(0, 1).messages, 3u);
  net::Delivery d;
  ASSERT_TRUE(fabric.tryReceive(1, d));
  ASSERT_EQ(d.messages.size(), 3u);
  EXPECT_EQ(d.messages[0].value, 7u);
  agg.stop();
}

// --- end-to-end cluster tests -------------------------------------------

TEST(Cluster, RemotePutLandsOnDestinationHeap) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    auto& self = cluster.node(nodeId);
    const std::uint32_t dest = 1 - nodeId;
    self.shmemPut(wi, dest, arr.at(wi.globalId()),
                  nodeId * 1000 + wi.globalId());
  });
  for (std::uint32_t n = 0; n < 2; ++n) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      EXPECT_EQ(cluster.node(n).heap().loadU64(arr.at(i)),
                (1 - n) * 1000 + i);
    }
  }
}

TEST(Cluster, LocalPutIsDirectStore) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemPut(wi, nodeId, arr.at(wi.globalId()), 7);
  });
  auto s = cluster.runStats();
  EXPECT_EQ(s.put_local, 32u);
  EXPECT_EQ(s.put_remote, 0u);
  EXPECT_EQ(s.net_messages, 0u);  // nothing crossed the aggregator
  EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(3)), 7u);
}

TEST(Cluster, AtomicIncrementsAreExact) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint64_t kGrid = 64;
  Cluster cluster(smallCluster(kNodes));
  auto counters = cluster.alloc<std::uint64_t>(8);
  // Every work-item increments counter (globalId % 8) on node
  // (globalId % kNodes): each counter on each node gets grid/8 increments
  // from each source node... total per (node, counter) is easy to compute.
  cluster.launchAll(kGrid, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    const std::uint32_t dest = wi.globalId() % kNodes;
    const std::uint64_t slot = wi.globalId() % 8;
    cluster.node(nodeId).shmemInc(wi, dest, counters.at(slot));
  });
  // Work-item g on each of the 4 source nodes targets (g%4, g%8); for a
  // fixed (dest, slot) pair the number of g in [0,64) with g%4==dest and
  // g%8==slot is 8 when slot%4==dest, else 0. Each source node contributes.
  for (std::uint32_t dest = 0; dest < kNodes; ++dest) {
    for (std::uint64_t slot = 0; slot < 8; ++slot) {
      const std::uint64_t expected = (slot % kNodes == dest) ? 8 * kNodes : 0;
      EXPECT_EQ(cluster.node(dest).heap().loadU64(counters.at(slot)), expected)
          << "dest=" << dest << " slot=" << slot;
    }
  }
  // All atomics route through the NI, local ones included (§6).
  auto s = cluster.runStats();
  EXPECT_EQ(s.inc_local + s.inc_remote, kGrid * kNodes);
  EXPECT_EQ(s.net_messages, kGrid * kNodes);
}

TEST(Cluster, ActiveMessagesRunAtHomeNode) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  // Handler: arr[arg0] = max(arr[arg0], arg1).
  const std::uint32_t h = cluster.registerHandler(
      [arr](AmContext& ctx, std::uint64_t a0, std::uint64_t a1) {
        const std::uint64_t cur = ctx.heap().loadU64(arr.at(a0));
        if (a1 > cur) ctx.heap().storeU64(arr.at(a0), a1);
      });
  cluster.launchAll(32, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemAm(wi, 1 - nodeId, h, wi.globalId() % 16,
                                 wi.globalId() + nodeId * 100);
  });
  // Node 0's array receives maxima from node 1 (values 100..131).
  for (std::uint64_t s = 0; s < 16; ++s) {
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(s)), 100 + 16 + s);
    EXPECT_EQ(cluster.node(1).heap().loadU64(arr.at(s)), 16 + s);
  }
}

TEST(Cluster, SoftwarePredicationSkipsInactiveLanes) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(32, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    const bool active = wi.globalId() % 4 == 0;  // 8 of 32 lanes
    cluster.node(nodeId).shmemPut(wi, 1 - nodeId, arr.at(wi.globalId()),
                                  wi.globalId() + 1, active);
  });
  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::uint64_t expect = (i % 4 == 0) ? i + 1 : 0;
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(i)), expect);
  }
  auto s = cluster.runStats();
  EXPECT_EQ(s.put_remote, 16u);  // 8 active lanes per node
}

TEST(Cluster, AllLanesInactiveIsANoop) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemPut(wi, 1 - nodeId, arr.at(0), 1,
                                  /*active=*/false);
  });
  auto s = cluster.runStats();
  EXPECT_EQ(s.opsTotal(), 0u);
  EXPECT_EQ(s.net_messages, 0u);
}

TEST(Cluster, ManyGroupsStressQueueReuse) {
  // Grid far larger than the GPU queue so the ring wraps many times and
  // producers spin on slot reuse while the aggregator drains.
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(4096);
  cluster.launchAll(4096, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 1 - nodeId,
                                  arr.at(wi.globalId() % 4096));
  });
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 4096; ++i)
    total += cluster.node(0).heap().loadU64(arr.at(i));
  EXPECT_EQ(total, 4096u);
}

TEST(Cluster, SequentialLaunchesComposeWithQuiet) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  for (int iter = 0; iter < 5; ++iter) {
    cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
      cluster.node(nodeId).shmemInc(wi, 1 - nodeId, arr.at(wi.globalId()));
    });
    // quiet() ran inside launchAll: results must be visible now.
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(0)), std::uint64_t(iter + 1));
  }
}

TEST(Cluster, RunStatsWindowsResetCleanly) {
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 1 - nodeId, arr.at(0));
  });
  auto first = cluster.runStats();
  EXPECT_EQ(first.inc_remote, 32u);
  cluster.resetStats();
  auto empty = cluster.runStats();
  EXPECT_EQ(empty.opsTotal(), 0u);
  EXPECT_EQ(empty.net_messages, 0u);
  cluster.launchAll(16, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 1 - nodeId, arr.at(0));
  });
  auto second = cluster.runStats();
  EXPECT_EQ(second.inc_remote, 32u);
}

TEST(Cluster, BatchSizesReflectAggregation) {
  // 1 kB per-node queues = 32 messages per batch. A burst of 256 messages
  // to one destination must produce full 1 kB batches (plus a tail).
  Cluster cluster(smallCluster(2));
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(256, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    if (nodeId == 0) cluster.node(0).shmemInc(wi, 1, arr.at(0));
    else cluster.node(1).shmemInc(wi, 1, arr.at(0), false);
  });
  auto s = cluster.runStats();
  EXPECT_EQ(s.net_messages, 256u);
  EXPECT_EQ(s.net_batches, 8u);  // 256 / 32
  EXPECT_DOUBLE_EQ(s.avg_batch_bytes, 1024.0);
  EXPECT_EQ(cluster.node(1).heap().loadU64(arr.at(0)), 256u);
}

TEST(Cluster, SingleNodeClusterWorks) {
  Cluster cluster(smallCluster(1));
  auto arr = cluster.alloc<std::uint64_t>(16);
  cluster.launchAll(64, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    cluster.node(nodeId).shmemInc(wi, 0, arr.at(wi.globalId() % 16));
  });
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_EQ(cluster.node(0).heap().loadU64(arr.at(i)), 4u);
}

TEST(Cluster, HostParallelRunsPerNodeWork) {
  Cluster cluster(smallCluster(4));
  auto arr = cluster.alloc<std::uint64_t>(4);
  cluster.hostParallel([&](std::uint32_t nodeId) {
    cluster.node(nodeId).heap().storeU64(arr.at(0), nodeId + 1);
  });
  for (std::uint32_t n = 0; n < 4; ++n)
    EXPECT_EQ(cluster.node(n).heap().loadU64(arr.at(0)), n + 1u);
}

// Each lane increments arr[0] on the next node.
void incrementSuccessor(Cluster& cluster, SymAddr<std::uint64_t> arr,
                        std::uint32_t nodeId, simt::WorkItem& wi) {
  cluster.node(nodeId).shmemInc(wi, (nodeId + 1) % cluster.nodes(),
                                arr.at(0));
}

std::uint64_t clusterSum(Cluster& cluster, SymAddr<std::uint64_t> arr) {
  std::uint64_t sum = 0;
  for (std::uint32_t n = 0; n < cluster.nodes(); ++n)
    sum += cluster.node(n).heap().loadU64(arr.at(0));
  return sum;
}

TEST(Cluster, KernelExceptionOnOneNodeLeavesClusterUsable) {
  Cluster cluster(smallCluster(4));
  auto arr = cluster.alloc<std::uint64_t>(1);
  // Node 2's second work-group throws before any of its lanes reserves a
  // queue slot; its first work-group and the other nodes complete.
  try {
    cluster.launchAll(64, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
      if (nodeId == 2 && wi.globalId() == 16)
        throw std::runtime_error("node 2 failed");
      incrementSuccessor(cluster, arr, nodeId, wi);
    });
    FAIL() << "launchAll swallowed the kernel's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "node 2 failed");
  }
  cluster.quiet();
  EXPECT_EQ(clusterSum(cluster, arr), 3u * 64 + 16);

  cluster.resetStats();
  cluster.launchAll(64, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    incrementSuccessor(cluster, arr, nodeId, wi);
  });
  const ClusterRunStats s = cluster.runStats();
  EXPECT_EQ(s.lanes_executed, 4u * 64);
  EXPECT_EQ(s.inc_local, 0u);
  EXPECT_EQ(s.inc_remote, 4u * 64);
  EXPECT_EQ(s.net_resolved, s.net_messages);
  EXPECT_EQ(clusterSum(cluster, arr), 3u * 64 + 16 + 4 * 64);
  cluster.quiet();
}

TEST(Cluster, HostParallelRethrowsFirstNodesErrorAfterAllFinish) {
  Cluster cluster(smallCluster(4));
  auto arr = cluster.alloc<std::uint64_t>(1);
  std::atomic<bool> slowNodeDone{false};
  const auto launch = [&](std::uint32_t nodeId) {
    cluster.node(nodeId).device().launch(
        {64, 16}, [&, nodeId](simt::WorkItem& wi) {
          incrementSuccessor(cluster, arr, nodeId, wi);
        });
  };
  try {
    cluster.hostParallel([&](std::uint32_t nodeId) {
      if (nodeId == 3) throw std::runtime_error("node 3 failed");
      if (nodeId == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("node 2 failed");
      }
      if (nodeId == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        slowNodeDone.store(true, std::memory_order_release);
      }
      launch(nodeId);
    });
    FAIL() << "hostParallel swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    // The first error in node order, not the first thrown; and only once
    // every node finished.
    EXPECT_STREQ(e.what(), "node 2 failed");
    EXPECT_TRUE(slowNodeDone.load(std::memory_order_acquire));
  }
  cluster.quiet();
  EXPECT_EQ(clusterSum(cluster, arr), 2u * 64);

  cluster.resetStats();
  cluster.hostParallel(launch);
  const ClusterRunStats s = cluster.runStats();
  EXPECT_EQ(s.lanes_executed, 4u * 64);
  EXPECT_EQ(s.inc_remote, 4u * 64);
  EXPECT_EQ(s.net_resolved, s.net_messages);
  EXPECT_EQ(clusterSum(cluster, arr), 2u * 64 + 4 * 64);
  cluster.quiet();
}

TEST(Cluster, DispatchFromInsideWorkIsRejected) {
  Cluster cluster(smallCluster(2));
  const auto nested = [&](std::uint32_t) {
    cluster.runOnNodes([](std::uint32_t) {});
  };
  EXPECT_THROW(cluster.runOnNodes(nested), Error);
  // The rejected inner dispatch left the workers ready for the next one.
  std::atomic<std::uint32_t> ran{0};
  cluster.runOnNodes(
      [&](std::uint32_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 2u);
}

// Returning is the check: each destructor joined its GPU workers.
TEST(Cluster, WorkersJoinAtDestruction) {
  { Cluster neverStarted(smallCluster(4)); }
  { Cluster idle(smallCluster(4)); idle.start(); }
  {
    Cluster launched(smallCluster(4));
    auto arr = launched.alloc<std::uint64_t>(1);
    launched.launchAll(64, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
      incrementSuccessor(launched, arr, nodeId, wi);
    });
  }
}

TEST(Cluster, MixedOperationKindsInterleave) {
  Cluster cluster(smallCluster(2));
  auto puts = cluster.alloc<std::uint64_t>(32);
  auto counters = cluster.alloc<std::uint64_t>(4);
  const std::uint32_t h = cluster.registerHandler(
      [counters](AmContext& ctx, std::uint64_t a0, std::uint64_t a1) {
        ctx.heap().fetchAddU64(counters.at(a0), a1);
      });
  cluster.launchAll(32, 16, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
    auto& self = cluster.node(nodeId);
    const std::uint32_t other = 1 - nodeId;
    switch (wi.globalId() % 3) {
      case 0:
        self.shmemPut(wi, other, puts.at(wi.globalId()), 11);
        self.shmemInc(wi, other, counters.at(3), false);
        self.shmemAm(wi, other, h, 0, 0, false);
        break;
      case 1:
        self.shmemPut(wi, other, puts.at(0), 0, false);
        self.shmemInc(wi, other, counters.at(3));
        self.shmemAm(wi, other, h, 0, 0, false);
        break;
      default:
        self.shmemPut(wi, other, puts.at(0), 0, false);
        self.shmemInc(wi, other, counters.at(3), false);
        self.shmemAm(wi, other, h, 1, 5);
        break;
    }
  });
  // 32 ids: 11 with id%3==0, 11 with id%3==1, 10 with id%3==2.
  EXPECT_EQ(cluster.node(0).heap().loadU64(puts.at(0)), 11u);
  EXPECT_EQ(cluster.node(0).heap().loadU64(counters.at(3)), 11u);
  EXPECT_EQ(cluster.node(0).heap().loadU64(counters.at(1)), 50u);
}

// Property sweep: random mixes of destinations/activity must always deliver
// exactly the multiset of increments the kernel issued.
// Every field is 64-bit so the struct has no padding: gtest names each case
// after the struct's raw bytes, and padding bytes are indeterminate.
struct MixParam {
  std::uint64_t nodes;
  std::uint64_t grid;
  std::uint64_t wg;
  std::uint64_t seed;
};

class RandomTraffic : public ::testing::TestWithParam<MixParam> {};

TEST_P(RandomTraffic, IncrementsConserveCount) {
  const auto p = GetParam();
  const auto wg = std::uint32_t(p.wg);
  Cluster cluster(smallCluster(std::uint32_t(p.nodes), wg));
  constexpr std::uint64_t kSlots = 32;
  auto arr = cluster.alloc<std::uint64_t>(kSlots);

  // Precompute each (node, workitem)'s action so the expectation is exact.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> plan(
      p.nodes);
  std::vector<std::vector<std::uint64_t>> expected(
      p.nodes, std::vector<std::uint64_t>(kSlots, 0));
  for (std::uint32_t n = 0; n < p.nodes; ++n) {
    Xoshiro256 rng(p.seed + n);
    plan[n].resize(p.grid);
    for (std::uint64_t g = 0; g < p.grid; ++g) {
      if (rng.uniform() < 0.25) {
        plan[n][g] = {~0u, 0};  // inactive lane
      } else {
        const auto dest = std::uint32_t(rng.below(p.nodes));
        const auto slot = rng.below(kSlots);
        plan[n][g] = {dest, slot};
        ++expected[dest][slot];
      }
    }
  }
  cluster.launchAll(p.grid, wg, [&](std::uint32_t nodeId,
                                    simt::WorkItem& wi) {
    const auto [dest, slot] = plan[nodeId][wi.globalId()];
    const bool active = dest != ~0u;
    cluster.node(nodeId).shmemInc(wi, active ? dest : 0,
                                  arr.at(active ? slot : 0), active);
  });
  for (std::uint32_t n = 0; n < p.nodes; ++n)
    for (std::uint64_t s = 0; s < kSlots; ++s)
      EXPECT_EQ(cluster.node(n).heap().loadU64(arr.at(s)), expected[n][s])
          << "node " << n << " slot " << s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTraffic,
    ::testing::Values(MixParam{1, 64, 16, 1}, MixParam{2, 128, 16, 2},
                      MixParam{3, 96, 8, 3}, MixParam{4, 256, 16, 4},
                      MixParam{8, 128, 16, 5}));

}  // namespace
}  // namespace gravel::rt
