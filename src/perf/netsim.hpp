// Style-parameterized cluster timing simulation.
//
// A functional run (src/runtime) yields exact per-node traffic and SIMT
// counts; this module replays them against the Table-3 machine model for
// each GPU networking style of paper §3, reproducing the style's *overlap
// semantics*:
//
//   kGravel        : GPU production, aggregator repacking, NIC serialization
//                    and remote resolution all overlap (per-node queues ship
//                    as soon as they fill or time out).
//   kCoprocessor   : kernel-boundary exchanges — compute a chunk, then
//                    exchange, serially; chunk size bound by the per-node
//                    queue capacity (worst case: all messages to one node).
//   kMsgPerLane    : no aggregation; every message is its own network
//                    message with WI-granularity issue cost.
//   kCoalesced     : per-work-group counting sort + one (small) network
//                    message per destination per work-group.
//   kCoalescedAgg  : coalesced sort on the GPU, then the Gravel aggregation
//                    path ("coalesced APIs + Gravel aggregation").
#pragma once

#include <cstdint>
#include <vector>

#include "perf/params.hpp"

namespace gravel::perf {

enum class Style {
  kGravel,
  kCoprocessor,
  kMsgPerLane,
  kCoalesced,
  kCoalescedAgg,
};

const char* styleName(Style s);

/// One node's per-round demand, from functional instrumentation.
struct NodeDemand {
  std::vector<double> msgs_to;  ///< messages bound for each node (self incl.)
  double lanes = 0;             ///< kernel lanes executed
  double collective_arrivals = 0;  ///< WG-sync arrivals (Gravel path)
  double overhead_ops = 0;         ///< software-predication instructions

  double totalMsgs() const {
    double t = 0;
    for (double m : msgs_to) t += m;
    return t;
  }
};

struct SimConfig {
  Style style = Style::kGravel;
  MachineParams params{};
  double msg_bytes = 32;
  double wg_size = 256;
  double pernode_queue_bytes = 64.0 * 1024;  ///< aggregation target
  double timeout_us = 125;
  double am_fraction = 0;  ///< fraction of messages that are active messages
};

/// Simulates one communication round (one kernel + its traffic) and returns
/// the makespan in seconds.
double simulateRound(const SimConfig& cfg,
                     const std::vector<NodeDemand>& nodes);

/// Simulates an app of `rounds` identical rounds (totals split evenly),
/// adding per-round launch/quiet overhead.
double simulateApp(const SimConfig& cfg, const std::vector<NodeDemand>& totals,
                   std::uint64_t rounds);

/// CPU-based comparator (Grappa/UPC-like, Figure 13): `opsPerNode` software
/// delegate operations per node, aggregated over the same wire.
double cpuBaselineTime(const MachineParams& p, double opsPerNode,
                       double remoteFraction, double msgBytes,
                       double pernodeQueueBytes, std::uint64_t rounds);

}  // namespace gravel::perf
