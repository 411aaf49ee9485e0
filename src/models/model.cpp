#include "models/model.hpp"

#include "common/atomic.hpp"
#include <vector>

#include "common/error.hpp"
#include "graph/csr.hpp"

namespace gravel::models {

using apps::GupsConfig;
using rt::NetMessage;

const char* modelName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kCoprocessor:
      return "coprocessor";
    case ModelKind::kMsgPerLane:
      return "msg-per-lane";
    case ModelKind::kCoalesced:
      return "coalesced APIs";
    case ModelKind::kCoalescedAgg:
      return "coalesced APIs + aggregation";
  }
  return "?";
}

namespace {

/// Node-level repacker for the "coalesced + GPU-wide aggregation" variant:
/// per-WG per-destination lists are combined into large per-node queues,
/// exactly what Gravel's aggregator does for individual messages.
class Repacker {
 public:
  Repacker(std::uint32_t self, net::Fabric& fabric, std::size_t capacityMsgs)
      : self_(self), fabric_(fabric), capacity_(capacityMsgs),
        buffers_(fabric.nodes()) {}

  void append(std::uint32_t dst, const NetMessage* msgs, std::size_t count) {
    gravel::lock_guard lk(mutex_);
    auto& buf = buffers_[dst];
    for (std::size_t i = 0; i < count; ++i) {
      buf.push_back(msgs[i]);
      if (buf.size() >= capacity_) {
        std::vector<NetMessage> batch;
        batch.swap(buf);
        fabric_.send(self_, dst, std::move(batch));
      }
    }
  }

  void flushAll() {
    gravel::lock_guard lk(mutex_);
    for (std::uint32_t dst = 0; dst < buffers_.size(); ++dst) {
      if (buffers_[dst].empty()) continue;
      std::vector<NetMessage> batch;
      batch.swap(buffers_[dst]);
      fabric_.send(self_, dst, std::move(batch));
    }
  }

 private:
  std::uint32_t self_;
  net::Fabric& fabric_;
  std::size_t capacity_;
  gravel::mutex mutex_{"model::Repacker::mutex_"};
  std::vector<std::vector<NetMessage>> buffers_ GRAVEL_GUARDED_BY(mutex_);
};

/// The Figure 4c kernel body: counting-sort this work-group's messages by
/// destination in scratchpad, then hand each destination's contiguous list
/// to `sendList` (a sync_inc_list stand-in). All lanes must be convergent.
void coalescedSortAndSend(
    simt::WorkItem& wi, std::uint32_t nodes, std::uint32_t dest,
    std::uint64_t addr,
    const std::function<void(std::uint32_t dst, const std::uint64_t* addrs,
                             std::uint32_t count)>& sendList) {
  auto* list = wi.scratchAlloc<std::uint64_t>(wi.wgSize());
  std::uint64_t base = 0;
  for (std::uint32_t d = 0; d < nodes; ++d) {
    const bool mine = dest == d;
    const std::uint64_t myOff = wi.wgPrefixSum(mine ? 1 : 0, mine);
    const std::uint64_t cnt = wi.wgReduceSum(mine ? 1 : 0);
    if (mine) list[base + myOff] = addr;
    wi.wgBarrier();  // list complete before the leader reads it
    if (cnt > 0 && wi.localId() == 0)
      sendList(d, list + base, std::uint32_t(cnt));
    wi.wgBarrier();  // list consumed before the next destination reuses it
    base += cnt;
  }
}

}  // namespace

apps::AppReport runGupsModel(rt::Cluster& cluster, const GupsConfig& cfg,
                             ModelKind kind) {
  const std::uint32_t nodes = cluster.nodes();
  graph::BlockPartition part(cfg.table_size, nodes);
  auto table = cluster.alloc<std::uint64_t>(part.perNode());
  const std::uint32_t wg =
      cfg.wg_size ? cfg.wg_size : cluster.config().device.max_wg_size;

  cluster.resetStats();

  auto target = [&](std::uint32_t node, std::uint64_t u) {
    return apps::gupsTarget(cfg, node, u);
  };

  switch (kind) {
    case ModelKind::kMsgPerLane: {
      // Every lane ships its own one-message network message; no
      // aggregation anywhere (Figure 15's msg-per-lane bars).
      cluster.launchAll(cfg.updates_per_node, wg,
                        [&](std::uint32_t nodeId, simt::WorkItem& wi) {
        const std::uint64_t g = target(nodeId, wi.globalId());
        cluster.fabric().send(
            nodeId, part.owner(g),
            {NetMessage::atomicInc(part.owner(g),
                                   table.at(part.localIndex(g)))});
      });
      break;
    }

    case ModelKind::kCoalesced: {
      cluster.launchAll(cfg.updates_per_node, wg,
                        [&](std::uint32_t nodeId, simt::WorkItem& wi) {
        const std::uint64_t g = target(nodeId, wi.globalId());
        coalescedSortAndSend(
            wi, nodes, part.owner(g), table.at(part.localIndex(g)),
            [&](std::uint32_t dst, const std::uint64_t* addrs,
                std::uint32_t count) {
              std::vector<NetMessage> batch;
              batch.reserve(count);
              for (std::uint32_t k = 0; k < count; ++k)
                batch.push_back(NetMessage::atomicInc(dst, addrs[k]));
              cluster.fabric().send(nodeId, dst, std::move(batch));
            });
      });
      break;
    }

    case ModelKind::kCoalescedAgg: {
      std::vector<std::unique_ptr<Repacker>> repackers;
      const std::size_t capacity =
          cluster.config().pernode_queue_bytes / sizeof(NetMessage);
      for (std::uint32_t i = 0; i < nodes; ++i)
        repackers.push_back(
            std::make_unique<Repacker>(i, cluster.fabric(), capacity));
      cluster.launchAll(cfg.updates_per_node, wg,
                        [&](std::uint32_t nodeId, simt::WorkItem& wi) {
        const std::uint64_t g = target(nodeId, wi.globalId());
        coalescedSortAndSend(
            wi, nodes, part.owner(g), table.at(part.localIndex(g)),
            [&](std::uint32_t dst, const std::uint64_t* addrs,
                std::uint32_t count) {
              std::vector<NetMessage> msgs;
              msgs.reserve(count);
              for (std::uint32_t k = 0; k < count; ++k)
                msgs.push_back(NetMessage::atomicInc(dst, addrs[k]));
              repackers[nodeId]->append(dst, msgs.data(), msgs.size());
            });
      });
      for (auto& r : repackers) r->flushAll();
      cluster.quiet();
      break;
    }

    case ModelKind::kCoprocessor: {
      cluster.start();  // devices and fabric are driven directly below
      // Figure 4a: chunk the update stream so the worst case (every message
      // of a chunk to one destination) fits a per-node queue; fill queues
      // on the GPU with per-destination WG-level reservations; exchange at
      // each kernel boundary.
      const std::uint64_t chunkMsgs = std::max<std::size_t>(
          wg, cluster.config().pernode_queue_bytes / sizeof(NetMessage));
      struct DestQueue {
        std::vector<NetMessage> slots;
        atomic<std::uint32_t> count{0};
      };
      // queues[node][dest]
      std::vector<std::vector<DestQueue>> queues(nodes);
      for (auto& q : queues) {
        q = std::vector<DestQueue>(nodes);
        for (auto& dq : q) dq.slots.resize(chunkMsgs);
      }
      for (std::uint64_t chunk = 0; chunk < cfg.updates_per_node;
           chunk += chunkMsgs) {
        const std::uint64_t grid =
            std::min(chunkMsgs, cfg.updates_per_node - chunk);
        const auto kernel = [&](std::uint32_t nodeId, simt::WorkItem& wi) {
          const std::uint64_t g = target(nodeId, chunk + wi.globalId());
          const std::uint32_t dest = part.owner(g);
          const std::uint64_t addr = table.at(part.localIndex(g));
          // One WG-level reservation per destination targeted by the group
          // (Figure 4a lines 2-4) — the per-destination loop is the branch
          // divergence the paper calls out.
          for (std::uint32_t d = 0; d < nodes; ++d) {
            const bool mine = dest == d;
            const std::uint64_t myOff = wi.wgPrefixSum(mine ? 1 : 0, mine);
            const std::uint64_t cnt = wi.wgReduceSum(mine ? 1 : 0);
            std::uint64_t base = 0;
            if (mine && myOff + 1 == cnt)  // leader = last active lane
              base = queues[nodeId][d].count.fetch_add(
                  std::uint32_t(cnt), std::memory_order_seq_cst);
            base = wi.wgReduceSum(base);
            if (mine)
              queues[nodeId][d].slots[base + myOff] =
                  NetMessage::atomicInc(d, addr);
          }
        };
        // The kernel alone, without launchAll()'s quiet: the exchange
        // below is this model's fence.
        cluster.runOnNodes([&](std::uint32_t i) {
          cluster.node(i).device().launch(
              {grid, wg}, [&, i](simt::WorkItem& wi) { kernel(i, wi); });
        });
        // Host exchange phase: send every queue, wait for resolution.
        for (std::uint32_t i = 0; i < nodes; ++i) {
          for (std::uint32_t d = 0; d < nodes; ++d) {
            auto& dq = queues[i][d];
            const std::uint32_t cnt =
                dq.count.exchange(0, std::memory_order_seq_cst);
            if (cnt == 0) continue;
            std::vector<NetMessage> batch(dq.slots.begin(),
                                          dq.slots.begin() + cnt);
            cluster.fabric().send(i, d, std::move(batch));
          }
        }
        cluster.quiet();
      }
      break;
    }
  }

  apps::AppReport report;
  report.name = std::string("GUPS/") + modelName(kind);
  report.stats = cluster.runStats();
  report.work_units = double(cfg.updates_per_node) * nodes;
  report.iterations = 1;

  std::vector<std::uint64_t> expected(cfg.table_size, 0);
  for (std::uint32_t n = 0; n < nodes; ++n)
    for (std::uint64_t u = 0; u < cfg.updates_per_node; ++u)
      ++expected[apps::gupsTarget(cfg, n, u)];
  report.validated = true;
  for (std::uint64_t g = 0; g < cfg.table_size; ++g) {
    const std::uint64_t got = cluster.node(part.owner(g))
                                  .heap()
                                  .loadU64(table.at(part.localIndex(g)));
    if (got != expected[g]) {
      report.validated = false;
      break;
    }
  }
  return report;
}

}  // namespace gravel::models
