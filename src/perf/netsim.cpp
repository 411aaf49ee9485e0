#include <cstdio>
#include <cstdlib>
#include "perf/netsim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "perf/des.hpp"

namespace gravel::perf {

const char* styleName(Style s) {
  switch (s) {
    case Style::kGravel:
      return "Gravel";
    case Style::kCoprocessor:
      return "coprocessor";
    case Style::kMsgPerLane:
      return "msg-per-lane";
    case Style::kCoalesced:
      return "coalesced APIs";
    case Style::kCoalescedAgg:
      return "coalesced+aggregation";
  }
  return "?";
}

namespace {

constexpr double kNs = 1e-9;
constexpr double kUs = 1e-6;

/// Expected number of distinct destinations hit by one work-group of `wg`
/// messages whose destination distribution is `msgs_to` (classic occupancy
/// bound). `networkOnly` drops the self-destination.
double expectedDestsPerWg(const NodeDemand& d, std::uint32_t self, double wg,
                          bool networkOnly) {
  const double total = d.totalMsgs();
  if (total <= 0) return 0;
  double dests = 0;
  for (std::uint32_t n = 0; n < d.msgs_to.size(); ++n) {
    if (networkOnly && n == self) continue;
    const double p = d.msgs_to[n] / total;
    if (p > 0) dests += 1.0 - std::pow(1.0 - p, wg);
  }
  return dests;
}

/// GPU-side time to produce this node's message stream under `style`.
double productionSeconds(const SimConfig& cfg, const NodeDemand& d,
                         std::uint32_t self) {
  const MachineParams& p = cfg.params;
  const double msgs = d.totalMsgs();
  const double slots = std::ceil(msgs / cfg.wg_size);
  // Style-independent base: the kernel's own work. The edge-loop traversal
  // (including software-predicated idle iterations) is measured as
  // collective arrivals on the Gravel run, and every style pays it — the
  // styles differ in what *messaging* machinery runs on top.
  double t = d.lanes * p.lane_ns + d.overhead_ops * p.op_ns +
             d.collective_arrivals * p.arrival_ns;
  switch (cfg.style) {
    case Style::kGravel:
      // The WG-level synchronization is already the measured arrivals; add
      // the two RMWs per group reservation (WriteIdx by the producer group,
      // the claim by the consumer).
      t += slots * 2 * p.queue_rmw_ns;
      break;
    case Style::kMsgPerLane:
      // WI-granularity issue: §4.1 measured it two orders of magnitude
      // slower than WG-level reservation.
      t += msgs * p.per_lane_issue_ns;
      break;
    case Style::kCoalesced:
    case Style::kCoalescedAgg: {
      // Counting sort in scratchpad plus one synchronous API invocation per
      // destination per work-group (degrades SIMT utilization, §3.3).
      const double dests = expectedDestsPerWg(d, self, cfg.wg_size, false);
      // coalesced_call_ns covers the per-destination API invocation
      // including its group-wide synchronization.
      t += slots * cfg.wg_size * p.coalesced_sort_lane_ns +
           slots * dests * p.coalesced_call_ns;
      break;
    }
    case Style::kCoprocessor: {
      // WG-level reservation once per destination targeted by the group
      // (Figure 4a lines 2-4): branch+memory divergence scales the sync
      // cost by the destination count.
      const double dests =
          std::max(1.0, expectedDestsPerWg(d, self, cfg.wg_size, false));
      t += d.collective_arrivals * p.arrival_ns * (dests - 1.0) +
           slots * dests * 2 * p.queue_rmw_ns;
      break;
    }
  }
  return t * kNs;
}

/// Per-message resolve cost at the receiver.
double resolveSeconds(const SimConfig& cfg, double msgs) {
  return msgs *
         (cfg.params.resolve_msg_ns + cfg.am_fraction * cfg.params.am_extra_ns) *
         kNs;
}

/// Sender occupancy for one network message: post cost + wire serialization.
double batchSeconds(const SimConfig& cfg, double msgs) {
  return cfg.params.batch_post_us * kUs +
         msgs * cfg.msg_bytes / (cfg.params.linkBytesPerNs() / kNs);
}

/// Overlapped pipeline (Gravel, msg-per-lane, coalesced, coalesced+agg):
/// event-driven replay of slot-granular production through the per-style
/// network path.
double simulateOverlapped(const SimConfig& cfg,
                          const std::vector<NodeDemand>& nodes) {
  const auto n = std::uint32_t(nodes.size());
  const double batchMsgs =
      std::max(1.0, cfg.pernode_queue_bytes / cfg.msg_bytes);
  EventSim sim;
  std::vector<Server> agg, egress, resolver;
  agg.reserve(n);
  egress.reserve(n);
  resolver.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    agg.emplace_back(sim);
    egress.emplace_back(sim);
    resolver.emplace_back(sim);
  }
  double makespan = 0;
  auto finish = [&makespan, &sim] { makespan = std::max(makespan, sim.now()); };

  const bool aggregated = cfg.style == Style::kGravel ||
                          cfg.style == Style::kCoalescedAgg;

  struct NodeState {
    std::vector<double> fill;  // per-destination buffered messages
    double slotsLeft = 0;
  };
  std::vector<NodeState> state(n);

  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeDemand& d = nodes[i];
    const double msgs = d.totalMsgs();
    if (msgs <= 0) {
      // Compute-only node (e.g. all-local PUT phases): no message stream,
      // but the kernel time still bounds the round.
      makespan = std::max(makespan, productionSeconds(cfg, d, i));
      continue;
    }
    const double slots = std::ceil(msgs / cfg.wg_size);
    const double prod = productionSeconds(cfg, d, i);
    const double interval = prod / slots;
    state[i].fill.assign(n, 0.0);
    state[i].slotsLeft = slots;

    // Per-destination split of each slot's messages.
    std::vector<double> frac(n, 0.0);
    for (std::uint32_t dst = 0; dst < n; ++dst)
      frac[dst] = d.msgs_to[dst] / msgs;
    const double wgMsgs = msgs / slots;

    auto shipBatch = [&, i](std::uint32_t dst, double count) {
      if (count <= 0) return;
      if (dst == i) {
        // Loopback: local atomics still go to the network thread for
        // serialized resolution (§6), but nothing crosses the wire.
        resolver[dst].submit(resolveSeconds(cfg, count), finish);
        return;
      }
      egress[i].submit(batchSeconds(cfg, count), [&, dst, count] {
        // In-flight latency (hidden by the per-destination queue rotation)
        // delays arrival without occupying the sender.
        sim.after(cfg.params.batch_latency_us * kUs, [&, dst, count] {
          resolver[dst].submit(resolveSeconds(cfg, count), finish);
        });
      });
    };

    auto onSlotAggregated = [&, i, frac, wgMsgs, shipBatch] {
      NodeState& st = state[i];
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        st.fill[dst] += wgMsgs * frac[dst];
        while (st.fill[dst] >= batchMsgs) {
          shipBatch(dst, batchMsgs);
          st.fill[dst] -= batchMsgs;
        }
      }
      st.slotsLeft -= 1;
      if (st.slotsLeft <= 0.5) {
        // End of stream: quiet() flushes every partial buffer.
        for (std::uint32_t dst = 0; dst < n; ++dst) {
          shipBatch(dst, st.fill[dst]);
          st.fill[dst] = 0;
        }
      }
    };

    auto onSlotDirect = [&, i, frac, wgMsgs, shipBatch] {
      // No aggregation: the slot's messages leave as per-destination
      // slivers (msg-per-lane: singles; coalesced: per-WG lists). Egress
      // serialization accounts one overhead per network message.
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        const double count = wgMsgs * frac[dst];
        if (count <= 0) continue;
        if (dst == i) {
          resolver[dst].submit(resolveSeconds(cfg, count), finish);
        } else if (cfg.style == Style::kMsgPerLane) {
          // `count` one-message sends, bulked into a single busy period.
          egress[i].submit(count * batchSeconds(cfg, 1.0), [&, dst, count] {
            sim.after(cfg.params.batch_latency_us * kUs, [&, dst, count] {
              resolver[dst].submit(resolveSeconds(cfg, count), finish);
            });
          });
        } else {
          egress[i].submit(batchSeconds(cfg, count), [&, dst, count] {
            sim.after(cfg.params.batch_latency_us * kUs, [&, dst, count] {
              resolver[dst].submit(resolveSeconds(cfg, count), finish);
            });
          });
        }
      }
    };

    for (double s = 1; s <= slots; ++s) {
      if (aggregated) {
        sim.at(s * interval, [&, i, onSlotAggregated] {
          agg[i].submit(cfg.wg_size * cfg.params.agg_msg_ns * kNs,
                        onSlotAggregated);
        });
      } else {
        sim.at(s * interval, onSlotDirect);
      }
    }
    if (aggregated) {
      // The 125 us flush timeout (Table 3): partially-filled per-node
      // queues ship periodically during the round, not only when full —
      // this is what overlaps Gravel's communication with computation even
      // when per-destination traffic is modest. Rounds of our scaled-down
      // inputs can be shorter than the real timeout, so the sweep interval
      // is capped at a fraction of the round (at paper scale, where rounds
      // span many milliseconds, the real 125 us applies unchanged).
      const double timeout =
          std::min(cfg.timeout_us * kUs, prod / 16.0);
      for (double t = timeout; t < prod; t += timeout) {
        sim.at(t, [&, i, shipBatch] {
          NodeState& st = state[i];
          if (st.slotsLeft <= 0.5) return;  // stream already flushed
          for (std::uint32_t dst = 0; dst < n; ++dst) {
            shipBatch(dst, st.fill[dst]);
            st.fill[dst] = 0;
          }
        });
      }
    }
    makespan = std::max(makespan, prod);
  }

  sim.run();
  if (std::getenv("GRAVEL_NETSIM_DEBUG")) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::fprintf(stderr,
                   "  [netsim] node %u: prod=%.1fus agg(busy=%.1f free=%.1f) "
                   "egr(busy=%.1f free=%.1f) res(busy=%.1f free=%.1f)\n",
                   i, productionSeconds(cfg, nodes[i], i) * 1e6,
                   agg[i].busyTime() * 1e6, agg[i].freeAt() * 1e6,
                   egress[i].busyTime() * 1e6, egress[i].freeAt() * 1e6,
                   resolver[i].busyTime() * 1e6, resolver[i].freeAt() * 1e6);
    }
    std::fprintf(stderr, "  [netsim] makespan=%.1fus\n", makespan * 1e6);
  }
  return makespan;
}

/// Kernel-boundary pipeline (coprocessor model): compute a chunk, exchange,
/// repeat — no overlap (§3.1, Figure 15 discussion).
double simulateCoprocessor(const SimConfig& cfg,
                           const std::vector<NodeDemand>& nodes) {
  const auto n = std::uint32_t(nodes.size());
  const MachineParams& p = cfg.params;
  // Chunk sized so the worst case (every message to one destination) cannot
  // overflow a per-node queue (Figure 4a lines 6-7).
  const double chunkMsgs =
      std::max(1.0, cfg.pernode_queue_bytes / cfg.msg_bytes);

  double maxMsgs = 0;
  for (const auto& d : nodes) maxMsgs = std::max(maxMsgs, d.totalMsgs());
  if (maxMsgs <= 0) return 0;
  const double chunks = std::ceil(maxMsgs / chunkMsgs);

  double total = 0;
  for (double c = 0; c < chunks; ++c) {
    double gpuPhase = 0, exchangePhase = 0, resolvePhase = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeDemand& d = nodes[i];
      const double share = std::min(chunkMsgs, d.totalMsgs() / chunks) /
                           std::max(1.0, d.totalMsgs());
      NodeDemand slice = d;
      for (auto& m : slice.msgs_to) m *= share;
      slice.lanes *= share;
      slice.collective_arrivals *= share;
      slice.overhead_ops *= share;
      // GPU efficiency collapses when the chunk grid is small: the device
      // cannot fill its CUs ("small per-node queues limit the amount of
      // parallelism on the GPU").
      const double lanes = slice.lanes;
      const double util = lanes / (lanes + 8192.0);
      gpuPhase = std::max(
          gpuPhase, productionSeconds(cfg, slice, i) / std::max(util, 0.02));
      // Exchange: one batch per remote destination.
      double egress = 0, ingress = 0;
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (dst == i) continue;
        egress += batchSeconds(cfg, slice.msgs_to[dst]);
      }
      for (std::uint32_t src = 0; src < n; ++src) {
        if (src == i) continue;
        const NodeDemand& s = nodes[src];
        const double sShare =
            std::min(chunkMsgs, s.totalMsgs() / chunks) /
            std::max(1.0, s.totalMsgs());
        ingress += resolveSeconds(cfg, s.msgs_to[i] * sShare);
      }
      exchangePhase = std::max(exchangePhase, egress);
      resolvePhase = std::max(resolvePhase, ingress);
    }
    total += p.launch_overhead_us * kUs + gpuPhase + exchangePhase +
             resolvePhase;
  }
  return total;
}

}  // namespace

double simulateRound(const SimConfig& cfg,
                     const std::vector<NodeDemand>& nodes) {
  GRAVEL_CHECK_MSG(!nodes.empty(), "need at least one node");
  for (const auto& d : nodes)
    GRAVEL_CHECK_MSG(d.msgs_to.size() == nodes.size(),
                     "demand matrix shape mismatch");
  if (cfg.style == Style::kCoprocessor) return simulateCoprocessor(cfg, nodes);
  return simulateOverlapped(cfg, nodes);
}

double simulateApp(const SimConfig& cfg, const std::vector<NodeDemand>& totals,
                   std::uint64_t rounds) {
  GRAVEL_CHECK_MSG(rounds > 0, "rounds must be positive");
  std::vector<NodeDemand> perRound = totals;
  for (auto& d : perRound) {
    for (auto& m : d.msgs_to) m /= double(rounds);
    d.lanes /= double(rounds);
    d.collective_arrivals /= double(rounds);
    d.overhead_ops /= double(rounds);
  }
  const double round = simulateRound(cfg, perRound);
  return double(rounds) * (round + cfg.params.launch_overhead_us * kUs);
}

double cpuBaselineTime(const MachineParams& p, double opsPerNode,
                       double remoteFraction, double msgBytes,
                       double pernodeQueueBytes, std::uint64_t rounds) {
  // Grappa-style: every operation runs through the software delegate +
  // aggregation path on `cpu_threads` hardware threads; remote operations
  // additionally ride 64 kB aggregated network messages.
  const double compute = opsPerNode * p.cpu_op_ns * 1e-9 / p.cpu_threads;
  const double remoteMsgs = opsPerNode * remoteFraction;
  const double batches = remoteMsgs * msgBytes / pernodeQueueBytes;
  const double wire = batches * (p.batch_post_us + p.batch_latency_us) * 1e-6 +
                      remoteMsgs * msgBytes / (p.linkBytesPerNs() * 1e9);
  // Compute and communication overlap (Grappa is latency-tolerant); the
  // resolve path shares the same threads, so add it to compute.
  const double resolve = remoteMsgs * p.cpu_op_ns * 0.5e-9 / p.cpu_threads;
  return std::max(compute + resolve, wire) +
         double(rounds) * p.launch_overhead_us * 1e-6;
}

}  // namespace gravel::perf
