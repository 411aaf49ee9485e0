// One Gravel node: simulated GPU + producer/consumer queue + aggregator +
// network thread + symmetric-heap slice, with the device-side API kernels
// call (shmem_put / shmem_inc / shmem_am, paper §3.4 and §6).
#pragma once

#include <cstdint>

#include "net/dead_letter.hpp"
#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "queue/gravel_queue.hpp"
#include "runtime/active_message.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/config.hpp"
#include "runtime/membership.hpp"
#include "runtime/message.hpp"
#include "runtime/network_thread.hpp"
#include "runtime/symmetric_heap.hpp"
#include "simt/device.hpp"

namespace gravel::rt {

/// Device-side operation counters; single-writer (the node's GPU scheduler
/// thread), read after launches.
struct NodeOpStats {
  std::uint64_t put_local = 0;   ///< PUTs resolved by a direct GPU store
  std::uint64_t put_remote = 0;  ///< PUTs shipped through the aggregator
  std::uint64_t inc_local = 0;   ///< local atomics (still serialized via NI)
  std::uint64_t inc_remote = 0;
  std::uint64_t am_local = 0;
  std::uint64_t am_remote = 0;

  std::uint64_t total() const {
    return put_local + put_remote + inc_local + inc_remote + am_local +
           am_remote;
  }
  /// Table 5's "remote access frequency": operations whose destination is
  /// another node.
  double remoteFraction() const {
    const std::uint64_t t = total();
    return t ? double(put_remote + inc_remote + am_remote) / double(t) : 0.0;
  }
};

class NodeRuntime {
 public:
  NodeRuntime(std::uint32_t id, const ClusterConfig& config,
              net::Fabric& fabric, const AmRegistry& registry,
              obs::Tracer& tracer, obs::Profiler* profiler = nullptr)
      : id_(id),
        tracer_(tracer),
        heap_(config.heap_bytes),
        queue_(GravelQueueConfig{config.gpu_queue_bytes,
                                 config.device.max_wg_size,
                                 NetMessage::kRows}),
        aggregator_(id, queue_, fabric, config, tracer, profiler),
        network_(id, fabric, heap_, registry, tracer, profiler),
        device_(config.device) {}

  std::uint32_t id() const noexcept { return id_; }
  SymmetricHeap& heap() noexcept { return heap_; }
  const SymmetricHeap& heap() const noexcept { return heap_; }
  GravelQueue& queue() noexcept { return queue_; }
  Aggregator& aggregator() noexcept { return aggregator_; }
  NetworkThread& network() noexcept { return network_; }
  simt::Device& device() noexcept { return device_; }
  NodeOpStats& opStats() noexcept { return opStats_; }
  const NodeOpStats& opStats() const noexcept { return opStats_; }

  /// Soft admission control (degrade policy): when a destination is dead and
  /// its dead-letter store is already at its bound, new remote operations
  /// toward it are refused at enqueue time — pushback at the source instead
  /// of unbounded eviction downstream. Both collaborators must outlive this
  /// node; never attached under fail_fast.
  void attachAdmission(const Membership* membership,
                       net::DeadLetterQueue* dlq) {
    membership_ = membership;
    dlq_ = dlq;
  }

  // --- device-side API (call from inside kernels) -------------------------
  // All three operations are collective over the work-group: every live lane
  // must call them (software predication, §5.1) with `active` saying whether
  // this lane really has a message. The whole group's messages are deposited
  // into one queue slot with a single reservation (§4.1/Figure 5b).

  /// PGAS put: store `value` at `addr` on node `dest`. Local puts execute
  /// directly as GPU stores (§7.1); remote puts go through the aggregator.
  void shmemPut(simt::WorkItem& wi, std::uint32_t dest,
                std::uint64_t byteOffset, std::uint64_t value,
                bool active = true, simt::FBar* fb = nullptr) {
    const bool local = dest == id_;
    if (active && !local && !admitRemote(dest)) active = false;
    if (active) {
      if (local) {
        heap_.storeU64(byteOffset, value);
        ++opStats_.put_local;
      } else {
        ++opStats_.put_remote;
      }
    }
    enqueueGroup(wi, NetMessage::put(dest, byteOffset, value),
                 active && !local, fb);
  }

  /// PGAS atomic increment of the 64-bit word at `addr` on node `dest`.
  /// Local increments are also routed through the NI so all atomics on a
  /// node are serialized by its network thread (§6).
  void shmemInc(simt::WorkItem& wi, std::uint32_t dest,
                std::uint64_t byteOffset, bool active = true,
                simt::FBar* fb = nullptr) {
    if (active && !admitRemote(dest)) active = false;
    if (active) {
      if (dest == id_)
        ++opStats_.inc_local;
      else
        ++opStats_.inc_remote;
    }
    enqueueGroup(wi, NetMessage::atomicInc(dest, byteOffset), active, fb);
  }

  /// Active message: run `handler` at node `dest` with two arguments.
  /// Serialized through the destination's network thread like increments.
  void shmemAm(simt::WorkItem& wi, std::uint32_t dest, std::uint32_t handler,
               std::uint64_t arg0, std::uint64_t arg1, bool active = true,
               simt::FBar* fb = nullptr) {
    if (active && !admitRemote(dest)) active = false;
    if (active) {
      if (dest == id_)
        ++opStats_.am_local;
      else
        ++opStats_.am_remote;
    }
    enqueueGroup(wi, NetMessage::activeMessage(dest, handler, arg0, arg1),
                 active, fb);
  }

  /// Direct load from the local heap slice (GPU loads are local-only in
  /// Gravel; remote reads are expressed as puts/AMs toward the reader).
  std::uint64_t localLoad(std::uint64_t byteOffset) const {
    return heap_.loadU64(byteOffset);
  }

 private:
  /// The admission check. Refusing turns the lane inactive: it still takes
  /// part in the collective reservation (software-predication semantics are
  /// untouched), its message just never enters the queue, and the refusal is
  /// counted. A live (or merely suspect) destination is always admitted —
  /// only a dead destination whose dead-letter bound is exhausted pushes
  /// back.
  bool admitRemote(std::uint32_t dest) {
    if (membership_ == nullptr || dlq_ == nullptr) return true;
    if (!membership_->dead(dest) || !dlq_->full(dest)) return true;
    dlq_->noteRejected(1);
    return false;
  }

  /// The §4.1 work-group-level reservation: leader election by reduce-max
  /// over active lane ids, per-lane slot columns by prefix-sum, one
  /// fetch-add (inside acquireWrite) by the leader, broadcast of the slot
  /// handle, then a group barrier before the leader publishes.
  /// With `fb`, the same sequence runs over the fbar's members instead of
  /// the whole group (§5.3).
  void enqueueGroup(simt::WorkItem& wi, const NetMessage& m, bool active,
                    simt::FBar* fb);

  /// The leader's enqueue events: one per column of its filled slot, all
  /// stamped `ts`, the clock read taken before the reservation.
  void traceEnqueues(const GravelQueue::SlotRef& ref, std::uint64_t ts);

  static std::uint64_t packRef(const GravelQueue::SlotRef& ref) {
    return (std::uint64_t(ref.slot) << 48) | ref.round;
  }
  static GravelQueue::SlotRef unpackRef(std::uint64_t packed,
                                        std::uint32_t count) {
    return GravelQueue::SlotRef{std::uint32_t(packed >> 48),
                                packed & ((std::uint64_t(1) << 48) - 1),
                                count};
  }

  std::uint32_t id_;
  obs::Tracer& tracer_;
  SymmetricHeap heap_;
  GravelQueue queue_;
  Aggregator aggregator_;
  NetworkThread network_;
  simt::Device device_;
  NodeOpStats opStats_;
  const Membership* membership_ = nullptr;  ///< admission (degrade only)
  net::DeadLetterQueue* dlq_ = nullptr;
};

}  // namespace gravel::rt
