// GUPS in the coprocessor style (paper Figure 4a).
//
// Measured by bench_table2_loc. Compare with gups_gravel.cpp: here the
// *program* owns everything Gravel hides — per-node queues and their
// overflow discipline, chunking the update stream so the worst case fits,
// per-destination work-group reservations on the GPU, the host-side
// send/receive/apply loop, and the exchange barrier at every kernel
// boundary. This is why the paper's Table 2 counts 342 lines for this
// style against 193 for Gravel.
#include <atomic>
#include <cstdio>
#include <vector>

#include "apps/gups.hpp"
#include "graph/csr.hpp"
#include "runtime/cluster.hpp"

namespace {

using namespace gravel;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kTable = 1 << 16;
constexpr std::uint64_t kUpdatesPerNode = 1 << 15;
// Each per-node queue must survive the worst case: every work-item of a
// chunk targeting the same destination. So the chunk is the queue capacity.
constexpr std::uint64_t kQueueMsgs = 2048;  // 64 kB of 32 B messages

/// One destination's staging queue on one node.
struct DestQueue {
  std::vector<rt::NetMessage> slots;
  std::atomic<std::uint32_t> count{0};
};

/// The GPU kernel for one chunk (Figure 4a lines 1-5): for each destination
/// targeted by the work-group, reserve with one WG-level reservation and
/// deposit messages. The per-destination loop is exactly the branch/memory
/// divergence §3.1 warns about.
void chunkKernel(const apps::GupsConfig& cfg,
                 const graph::BlockPartition& part,
                 rt::SymAddr<std::uint64_t> table,
                 std::vector<std::vector<DestQueue>>& queues,
                 std::uint64_t chunkBase, std::uint32_t nodeId,
                 simt::WorkItem& wi) {
  const std::uint64_t g =
      apps::gupsTarget(cfg, nodeId, chunkBase + wi.globalId());
  const std::uint32_t dest = part.owner(g);
  const std::uint64_t addr = table.at(part.localIndex(g));
  for (std::uint32_t d = 0; d < kNodes; ++d) {
    const bool mine = dest == d;
    const std::uint64_t myOff = wi.wgPrefixSum(mine ? 1 : 0, mine);
    const std::uint64_t cnt = wi.wgReduceSum(mine ? 1 : 0);
    std::uint64_t base = 0;
    if (mine && myOff + 1 == cnt)  // leader reserves for the group
      base = queues[nodeId][d].count.fetch_add(std::uint32_t(cnt));
    base = wi.wgReduceSum(base);  // broadcast
    if (mine)
      queues[nodeId][d].slots[base + myOff] = rt::NetMessage::atomicInc(d, addr);
  }
}

/// Host-side exchange (Figure 4a lines 8-13): send every queue, then wait
/// until all increments have been applied remotely.
void exchange(rt::Cluster& cluster,
              std::vector<std::vector<DestQueue>>& queues) {
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    for (std::uint32_t d = 0; d < kNodes; ++d) {
      auto& q = queues[i][d];
      const std::uint32_t cnt = q.count.exchange(0);
      if (cnt == 0) continue;
      std::vector<rt::NetMessage> batch(q.slots.begin(),
                                        q.slots.begin() + cnt);
      cluster.fabric().send(i, d, std::move(batch));
    }
  }
  cluster.quiet();
}

}  // namespace

int main() {
  rt::ClusterConfig config;
  config.nodes = kNodes;
  rt::Cluster cluster(config);
  cluster.start();  // we drive devices and the fabric by hand

  graph::BlockPartition part(kTable, kNodes);
  auto table = cluster.alloc<std::uint64_t>(part.perNode());

  apps::GupsConfig cfg;
  cfg.table_size = kTable;
  cfg.updates_per_node = kUpdatesPerNode;

  // Allocate the per-node queues (worst-case sized).
  std::vector<std::vector<DestQueue>> queues(kNodes);
  for (auto& nodeQueues : queues) {
    nodeQueues = std::vector<DestQueue>(kNodes);
    for (auto& q : nodeQueues) q.slots.resize(kQueueMsgs);
  }

  // Chunked host loop (Figure 4a lines 6-7): one kernel + one exchange per
  // chunk; nothing overlaps.
  for (std::uint64_t chunk = 0; chunk < kUpdatesPerNode; chunk += kQueueMsgs) {
    const std::uint64_t grid = std::min(kQueueMsgs, kUpdatesPerNode - chunk);
    cluster.runOnNodes([&](std::uint32_t i) {
      cluster.node(i).device().launch({grid, 256}, [&, i](simt::WorkItem& wi) {
        chunkKernel(cfg, part, table, queues, chunk, i, wi);
      });
    });
    exchange(cluster, queues);
  }

  // Validation against the serial expectation.
  std::vector<std::uint64_t> expected(kTable, 0);
  for (std::uint32_t n = 0; n < kNodes; ++n)
    for (std::uint64_t u = 0; u < kUpdatesPerNode; ++u)
      ++expected[apps::gupsTarget(cfg, n, u)];
  for (std::uint64_t g = 0; g < kTable; ++g) {
    const std::uint64_t got = cluster.node(part.owner(g))
                                  .heap()
                                  .loadU64(table.at(part.localIndex(g)));
    if (got != expected[g]) {
      std::printf("MISMATCH at %llu\n", (unsigned long long)g);
      return 1;
    }
  }
  std::printf("gups_coprocessor: %llu updates verified\n",
              (unsigned long long)(kUpdatesPerNode * kNodes));
  return 0;
}
