// Large-N honesty tests (DESIGN.md §14): the config admits nodes <= 65536,
// so the runtime must actually run at four-digit node counts on one host.
// These pin the three mechanisms that make that true — demand-paged
// per-destination buffers, the sharded aggregation tree, and the timer-wheel
// flush timeout — plus the executor running every node's runtime tasks on
// two threads instead of one thread per task. Labelled `scale`; CI's
// scale-smoke job runs the 1024-node cases (`ctest -L scale -E 4096`).
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/gups.hpp"
#include "apps/pagerank.hpp"
#include "graph/generators.hpp"
#include "runtime/cluster.hpp"
#include "runtime/slot_router.hpp"

namespace gravel::rt {
namespace {

/// A cluster sized to run thousands of simulated nodes in one process:
/// small heaps/queues, and two executor threads instead of one per task.
ClusterConfig scaleCluster(std::uint32_t nodes) {
  ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 16u << 10;
  c.gpu_queue_bytes = 8u << 10;
  c.pernode_queue_bytes = 512;
  c.runtime_threads = 2;
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  return c;
}

/// Shared invariants every scale run must satisfy.
void checkScaleInvariants(const ClusterRunStats& s) {
  // Conservation: everything sent resolved at its destination heap.
  EXPECT_EQ(s.net_resolved, s.net_messages);
  // Slot-batched sharded routing: at most one lock per touched destination
  // per slot (shard combining can only reduce acquisitions further).
  EXPECT_LE(s.agg_lock_acquisitions, s.agg_dests_touched);
  // Timer-wheel timeout maintenance is O(expired), not O(N x ticks): wheel
  // entries exist only for buffer-open events, and each is examined a small
  // bounded number of times (arm, possibly a few early-cursor passes,
  // expiry). The old full scan did nodes x cadence-ticks work, which at
  // 4096 nodes dwarfs any constant here — the slack absorbs re-arms of
  // long-lived buffers without ever re-admitting a full scan.
  EXPECT_LE(s.agg_timeout_scanned, 8 * s.net_messages + 4 * s.nodes);
}

TEST(Scale, GupsValidatesAt1024Nodes) {
  Cluster cluster(scaleCluster(1024));
  apps::GupsConfig cfg;
  cfg.table_size = 1024 * 16;
  cfg.updates_per_node = 32;
  const auto report = apps::runGups(cluster, cfg);
  EXPECT_TRUE(report.validated);
  EXPECT_EQ(report.stats.opsTotal(), 1024u * 32u);
  checkScaleInvariants(report.stats);
  // Uniform destinations: lazily-allocated buffers track traffic. The hard
  // guarantee is the N^2 bound was never approached; with 32 updates per
  // node each aggregator can open at most 32 distinct destination buffers.
  EXPECT_LE(report.stats.agg_lazy_buffers, 1024u * 32u);
  EXPECT_LT(report.stats.agg_lazy_buffers, 1024u * 1024u / 8u);
}

TEST(Scale, GupsValidatesAt4096Nodes) {
  Cluster cluster(scaleCluster(4096));
  apps::GupsConfig cfg;
  cfg.table_size = 4096 * 8;
  cfg.updates_per_node = 8;
  const auto report = apps::runGups(cluster, cfg);
  EXPECT_TRUE(report.validated);
  EXPECT_EQ(report.stats.opsTotal(), 4096u * 8u);
  checkScaleInvariants(report.stats);
  EXPECT_LE(report.stats.agg_lazy_buffers, 4096u * 8u);
}

TEST(Scale, PageRankValidatesAt1024Nodes) {
  Cluster cluster(scaleCluster(1024));
  graph::DistGraph dg(graph::bubblesLike(4096, 2), 1024);
  apps::PageRankConfig cfg;
  cfg.iterations = 2;
  const auto result = apps::runPageRank(cluster, dg, cfg);
  EXPECT_TRUE(result.report.validated);
  checkScaleInvariants(result.report.stats);
}

TEST(Scale, PageRankValidatesAt4096Nodes) {
  Cluster cluster(scaleCluster(4096));
  graph::DistGraph dg(graph::bubblesLike(8192, 2), 4096);
  apps::PageRankConfig cfg;
  cfg.iterations = 2;
  const auto result = apps::runPageRank(cluster, dg, cfg);
  EXPECT_TRUE(result.report.validated);
  checkScaleInvariants(result.report.stats);
}

// The tentpole claim in one number: a node that talks to one neighbour pays
// for one buffer, no matter how many nodes exist. Run the same ring
// workload at two cluster sizes and require the per-node resident footprint
// to stay flat (the eager design allocated nodes x 3 x 64KiB per node up
// front — ~190 MiB each at 1024 nodes — and would fail this by orders of
// magnitude).
TEST(Scale, ColdDestinationsCostNothing) {
  auto ringRun = [](std::uint32_t nodes) {
    Cluster cluster(scaleCluster(nodes));
    auto cell = cluster.alloc<std::uint64_t>(1);
    cluster.resetStats();
    cluster.launchAll(8, 8, [&](std::uint32_t nodeId, simt::WorkItem& wi) {
      cluster.node(nodeId).shmemInc(wi, (nodeId + 1) % nodes, cell.at(0));
    });
    return cluster.runStats();
  };
  const ClusterRunStats small = ringRun(256);
  const ClusterRunStats big = ringRun(1024);
  checkScaleInvariants(small);
  checkScaleInvariants(big);
  // Exactly one destination per node was ever warm.
  EXPECT_EQ(small.agg_lazy_buffers, 256u);
  EXPECT_EQ(big.agg_lazy_buffers, 1024u);
  // Per-node resident bytes (buffers + wheel) must not grow with N. Allow
  // 2x slack for allocator rounding; the eager design differs by ~1000x.
  const double perNodeSmall = double(small.agg_resident_bytes) / 256.0;
  const double perNodeBig = double(big.agg_resident_bytes) / 1024.0;
  EXPECT_LE(perNodeBig, 2.0 * perNodeSmall + 256.0);
}

// Satellite regression (ISSUE 9): the routing scratch each pump/run thread
// owns must be O(lanes), never O(nodes) — the old design kept one run
// vector per node (~128 MiB per routing thread at 65536 nodes).
TEST(Scale, StagingScratchIndependentOfClusterSize) {
  const std::uint32_t lanes = 64;
  const SlotRouter::Staging tiny(2, lanes);
  const SlotRouter::Staging huge(65536, lanes);
  EXPECT_EQ(tiny.residentBytes(), huge.residentBytes());
  // And it is actually small: well under a megabyte at wavefront width 64.
  EXPECT_LT(huge.residentBytes(), std::size_t{1} << 20);
}

// Satellite: the eager-footprint gate. A config that would have OOM-ed
// mid-construction is rejected up front, naming the knobs.
TEST(Scale, FootprintCapRejectsEagerConfigs) {
  {
    ClusterConfig c;
    c.nodes = 1024;
    c.heap_bytes = 64u << 20;  // 64 GiB of heaps alone
    c.gpu_queue_bytes = 1u << 20;
    c.max_eager_bytes = std::size_t{1} << 30;  // 1 GiB cap
    try {
      c.validate();
      FAIL() << "expected validate() to reject the footprint";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("max_eager_bytes"), std::string::npos) << msg;
      EXPECT_NE(msg.find("heap_bytes"), std::string::npos) << msg;
    }
  }
  {  // reliability's dense per-link state counts against the cap too
    ClusterConfig c;
    c.nodes = 16384;
    c.heap_bytes = 4u << 10;
    c.gpu_queue_bytes = 4u << 10;
    c.reliability.enabled = true;
    c.max_eager_bytes = std::size_t{4} << 30;
    EXPECT_THROW(c.validate(), Error);
  }
  {  // the same node count WITHOUT reliability passes: buffers are lazy now
    ClusterConfig c;
    c.nodes = 16384;
    c.heap_bytes = 4u << 10;
    c.gpu_queue_bytes = 4u << 10;
    c.max_eager_bytes = std::size_t{4} << 30;
    EXPECT_NO_THROW(c.validate());
  }
  {  // 0 disables the gate entirely
    ClusterConfig c;
    c.nodes = 1024;
    c.heap_bytes = 64u << 20;
    c.max_eager_bytes = 0;
    EXPECT_NO_THROW(c.validate());
  }
}

}  // namespace
}  // namespace gravel::rt
