#include "runtime/node_runtime.hpp"

#include "simt/collective.hpp"

namespace gravel::rt {

void NodeRuntime::enqueueGroup(simt::WorkItem& wi, const NetMessage& m,
                               bool active, simt::FBar* fb) {
  using simt::CollectiveOp;
  auto& wg = wi.group();
  const std::uint32_t lane = wi.localId();

  // Leader = the active lane with the largest local id; its exclusive
  // prefix-sum value is therefore total-1, so it knows the group's message
  // count without an extra reduction (Figure 5b).
  const std::uint64_t leader = wg.collective(
      lane, CollectiveOp::kReduceMax, lane, active, fb);
  const std::uint64_t myOff = wg.collective(
      lane, CollectiveOp::kPrefixSumExclusive, active ? 1 : 0, active, fb);
  const bool isLeader = active && lane == leader;

  // Sampled tracing: stamp this lane's trace ID into the command word before
  // the payload is written — from here the ID rides the wire format through
  // every downstream stage for free. The enqueue events themselves are the
  // leader's job (below).
  NetMessage traced = m;
  if (active && tracer_.enabled()) {
    const std::uint32_t traceId = tracer_.maybeSample();
    if (traceId != 0) traced.setTraceId(traceId);
  }

  GravelQueue::SlotRef ref{};
  std::uint64_t packed = 0;
  std::uint32_t count = 0;
  std::uint64_t enqueueNs = 0;
  if (isLeader) {
    count = static_cast<std::uint32_t>(myOff + 1);
    // One clock read per reservation, taken before acquireWrite so a
    // queue-full wait still counts toward enqueue -> aggregate.
    if (tracer_.active()) enqueueNs = tracer_.nowNs();
    // The fetch-add on WriteIdx lives inside acquireWrite; yielding the lane
    // while the ring is full lets sibling groups and the aggregator run.
    ref = queue_.acquireWrite(count, &simt::Device::yieldLane);
    packed = packRef(ref);
  }
  // Broadcast the slot handle (reduce-to-sum with non-leaders submitting 0,
  // exactly how Figure 5b broadcasts Qoff). When no lane is active there is
  // no leader, nothing was reserved, and the group falls through.
  packed = wg.collective(lane, CollectiveOp::kReduceSum, packed, true, fb);

  if (active) {
    const auto slot = unpackRef(packed, /*count=*/0);
    queue_.wordAt(slot, 0, static_cast<std::uint32_t>(myOff)) = traced.cmd;
    queue_.wordAt(slot, 1, static_cast<std::uint32_t>(myOff)) = traced.dest;
    queue_.wordAt(slot, 2, static_cast<std::uint32_t>(myOff)) = traced.addr;
    queue_.wordAt(slot, 3, static_cast<std::uint32_t>(myOff)) = traced.value;
  }
  // Every lane's column must be in place before the leader publishes.
  wg.collective(lane, CollectiveOp::kBarrier, 0, true, fb);
  if (isLeader) {
    ref.count = count;
    // active(), not enabled(): the flight recorder records every message
    // (id 0 = unsampled), the sampled buffers only the stamped ones.
    if (tracer_.active()) traceEnqueues(ref, enqueueNs);
    queue_.publish(ref);
  }
}

void NodeRuntime::traceEnqueues(const GravelQueue::SlotRef& ref,
                                std::uint64_t ts) {
  // The group barrier put every column in place, and the lanes ran on this
  // thread, so the leader reads the slot's words directly.
  for (std::uint32_t c = 0; c < ref.count; ++c) {
    NetMessage msg;
    msg.cmd = queue_.wordAt(ref, 0, c);
    msg.dest = queue_.wordAt(ref, 1, c);
    msg.addr = queue_.wordAt(ref, 2, c);
    tracer_.recordStage(ts, obs::Stage::kEnqueue, msg.traceId(),
                        std::uint16_t(id_), std::uint16_t(msg.dest), msg.addr,
                        std::uint8_t(msg.command()));
  }
}

}  // namespace gravel::rt
