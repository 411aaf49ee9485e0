// The per-node network thread (paper §6): receives per-node queues from the
// fabric and resolves each message as a local memory operation. Routing all
// atomics — local ones included — through this single thread serializes them,
// which is both the paper's correctness strategy for active messages and the
// reason local/remote atomic throughput is similar (§7.1). The class owns no
// thread: the cluster's executor (DESIGN.md §5) runs its network task by
// calling pumpOnce() from exactly one thread at a time.
#pragma once

#include <cstdint>

#include "common/atomic.hpp"
#include "net/fabric.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "runtime/active_message.hpp"
#include "runtime/message.hpp"
#include "runtime/symmetric_heap.hpp"

namespace gravel::rt {

class NetworkThread {
 public:
  NetworkThread(std::uint32_t self, net::Fabric& fabric, SymmetricHeap& heap,
                const AmRegistry& registry, obs::Tracer& tracer,
                obs::Profiler* profiler = nullptr)
      : self_(self),
        fabric_(fabric),
        heap_(heap),
        registry_(registry),
        tracer_(tracer),
        prof_(profiler),
        // Handler-initiated follow-on messages ship immediately as
        // one-message batches: chained walks are latency-bound, not
        // bandwidth-bound, and shipping before markResolved() keeps the
        // quiet protocol's in-flight count from ever touching zero
        // mid-chain. A member because AmContext holds the SendFn by
        // reference.
        sendFn_([this](std::uint32_t dest, std::uint32_t handler,
                       std::uint64_t a0, std::uint64_t a1) {
          fabric_.send(self_, dest,
                       {NetMessage::activeMessage(dest, handler, a0, a1)});
        }),
        ctx_(heap_, self_, sendFn_) {}

  NetworkThread(const NetworkThread&) = delete;
  NetworkThread& operator=(const NetworkThread&) = delete;

  std::uint64_t messagesResolved() const noexcept {
    return resolved_.load(std::memory_order_relaxed);
  }

  /// One pass of the network task: one fabric poll plus at most one
  /// delivery, never blocking. Returns true when messages were resolved.
  /// The executor runs a node's network task on one thread at a time, which
  /// is the fabric's single-consumer contract for this node's inbox.
  bool pumpOnce() {
    {
      // poll() IS the reliable layer's ack/retransmit scan (a no-op on the
      // perfect fabric) — attribute it separately from delivery work.
      obs::ScopedRegion pollRegion(prof_, obs::Region::kRelRetransmit);
      fabric_.poll(self_);
    }
    net::Delivery d;
    if (!fabric_.tryReceive(self_, d)) return false;
    resolveDelivery(d);
    return true;
  }

 private:
  /// Resolves every message of one delivery, then marks it resolved (the
  /// quiet protocol's in-flight count). The deliver and resolve events of
  /// all the delivery's messages carry one clock read each: when the
  /// delivery was taken, and when its last message was resolved. Both are
  /// recorded before markResolved(), so a caller past quiet() sees them.
  void resolveDelivery(const net::Delivery& d) {
    obs::ScopedRegion recvRegion(prof_, obs::Region::kNetRecv);
    // active(), not enabled(): the flight recorder records every delivery
    // (id 0 = unsampled), the sampled buffers only the stamped ones.
    const bool traced = tracer_.active();
    if (traced) traceDelivery(d, obs::Stage::kDeliver);
    for (const NetMessage& m : d.messages) resolve(m);
    if (traced) traceDelivery(d, obs::Stage::kResolve);
    fabric_.markResolved(self_, d);
    resolved_.fetch_add(d.messages.size(), std::memory_order_relaxed);
  }

  void traceDelivery(const net::Delivery& d, obs::Stage stage) {
    const std::uint64_t now = tracer_.nowNs();
    for (const NetMessage& m : d.messages)
      tracer_.recordStage(now, stage, m.traceId(), std::uint16_t(self_),
                          std::uint16_t(self_), m.addr,
                          std::uint8_t(m.command()));
  }

  void resolve(const NetMessage& m) {
    switch (m.command()) {
      case Command::kPut:
        heap_.storeU64(m.addr, m.value);
        break;
      case Command::kAtomicInc:
        heap_.fetchAddU64(m.addr, 1);
        break;
      case Command::kActiveMessage:
        registry_.run(m.handler(), ctx_, m.addr, m.value);
        break;
      case Command::kControl:
        // Reliability framing is stripped inside ReliableFabric; a control
        // message reaching the resolver means a layering bug.
        GRAVEL_CHECK_MSG(false, "control message escaped the fabric layer");
        break;
    }
  }

  std::uint32_t self_;
  net::Fabric& fabric_;
  SymmetricHeap& heap_;
  const AmRegistry& registry_;
  obs::Tracer& tracer_;
  obs::Profiler* prof_;
  /// Declared before ctx_: AmContext stores the SendFn by reference.
  AmContext::SendFn sendFn_;
  AmContext ctx_;
  atomic<std::uint64_t> resolved_{0};
};

}  // namespace gravel::rt
