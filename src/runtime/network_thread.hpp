// The per-node network thread (paper §6): receives per-node queues from the
// fabric and resolves each message as a local memory operation. Routing all
// atomics — local ones included — through this single thread serializes them,
// which is both the paper's correctness strategy for active messages and the
// reason local/remote atomic throughput is similar (§7.1).
#pragma once

#include <cstdint>
#include <thread>

#include "common/atomic.hpp"
#include "common/backoff.hpp"
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
        // mid-chain. A member (not a run()-local) because AmContext holds
        // the SendFn by reference and pumpOnce() needs it thread-free.
        sendFn_([this](std::uint32_t dest, std::uint32_t handler,
                       std::uint64_t a0, std::uint64_t a1) {
          fabric_.send(self_, dest,
                       {NetMessage::activeMessage(dest, handler, a0, a1)});
        }),
        ctx_(heap_, self_, sendFn_) {}

  ~NetworkThread() { stop(); }

  NetworkThread(const NetworkThread&) = delete;
  NetworkThread& operator=(const NetworkThread&) = delete;

  void start() {
    // A previously stopped worker (crash/restart cycling) was joined by
    // stop(), but the moved-from std::thread must be reaped before the slot
    // is reused.
    if (worker_.joinable()) worker_.join();
    // Thread creation below establishes the happens-before to the worker.
    stopped_.store(false, std::memory_order_relaxed);
    worker_ = std::thread([this] { run(); });
  }

  void stop() {
    // Release pairs with the worker's acquire: everything published before
    // the stop request is visible to the worker's final drain.
    stopped_.store(true, std::memory_order_release);  // pairs-with: netthread.stopped
    if (worker_.joinable()) worker_.join();
  }

  std::uint64_t messagesResolved() const noexcept {
    return resolved_.load(std::memory_order_relaxed);
  }

  /// Whether the worker is (logically) live — false before start(), after
  /// stop(), and after crashNode() stopped it. restartNode() uses this to
  /// avoid double-starting a thread the failure detector never killed.
  bool running() const noexcept {
    return !stopped_.load(std::memory_order_acquire);  // pairs-with: netthread.stopped
  }

  /// Cooperative (pooled) drive: one fabric poll plus at most one delivery
  /// batch, never blocking. Returns true when messages were resolved. The
  /// pool guarantees one driver per node at a time, so this shares the
  /// dedicated worker's single-consumer contract (they are never mixed:
  /// pooled clusters never start() the worker).
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
  void run() {
    const std::string name = "net." + std::to_string(self_);
    tracer_.nameThread(name);
    if (prof_ != nullptr) prof_->nameThread(name);
    net::Delivery d;
    // Bounded backoff: an idle network thread decays to ~100 us sleeps
    // (cheap CPU) but snaps back to hot spinning on the first delivery.
    Backoff backoff(std::chrono::microseconds(100));
    for (;;) {
      {
        // Drive the fabric's housekeeping even while traffic keeps us
        // busy. poll() IS the reliability layer's ack/retransmit scan (a
        // no-op on the perfect fabric), so it gets its own region.
        obs::ScopedRegion pollRegion(prof_, obs::Region::kRelRetransmit);
        fabric_.poll(self_);
      }
      if (fabric_.tryReceive(self_, d)) {
        resolveDelivery(d);
        backoff.reset();
      // pairs-with: netthread.stopped
      } else if (stopped_.load(std::memory_order_acquire)) {
        // Drain once more after observing stop; quiet() guarantees no new
        // sends race this.
        if (!fabric_.tryReceive(self_, d)) return;
        resolveDelivery(d);
      } else {
        obs::ScopedRegion idleRegion(prof_, obs::Region::kIdle);
        backoff.wait();
      }
    }
  }

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
  atomic<bool> stopped_{true};
  atomic<std::uint64_t> resolved_{0};
  std::thread worker_;
};

}  // namespace gravel::rt
