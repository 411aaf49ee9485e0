// CPU-baseline multi-producer/multi-consumer queue (paper §4.3, "CPU-only
// MPMC" series in Figure 8).
//
// Same synchronization algorithm as GravelQueue — global index fetch-add to
// pick a slot, per-slot round counter N and full/empty bit F — but each slot
// holds a single message written by a single CPU thread and is padded to a
// cache line. So every message pays one fetch-add plus slot handshaking,
// where Gravel amortizes that cost across a work-group of up to 256 messages.
//
// Model-checked under GRAVEL_VERIFY (tests/test_verify.cpp), including round
// wraparound with capacity forced to 2.
//
// gravel-lint: hot-path
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/atomic.hpp"
#include "common/cacheline.hpp"
#include "common/error.hpp"

namespace gravel {

/// Bounded MPMC byte-message queue, one padded message per slot.
class MpmcQueue {
 public:
  MpmcQueue(std::size_t capacityBytes, std::size_t messageBytes)
      : messageBytes_(messageBytes),
        cellBytes_(linesFor(messageBytes) * kCacheLineSize),
        capacity_(std::max<std::size_t>(
            2, capacityBytes / (cellBytes_ + sizeof(Slot)))),
        slots_(std::make_unique<Slot[]>(capacity_)),
        payload_(capacity_ * cellBytes_) {
    GRAVEL_CHECK_MSG(messageBytes > 0, "message size must be nonzero");
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Blocking push of one message.
  void push(const void* msg) {
    const std::uint64_t idx =
        writeIdx_.value.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[idx % capacity_];
    const std::uint64_t round = idx / capacity_;
    // Acquire on round pairs with pop's round release: the previous round's
    // consumer finished reading the cell before we overwrite it.
    // pairs-with: mpmc.slot-round, mpmc.slot-full
    while (s.round.load(std::memory_order_acquire) != round ||
           s.full.load(std::memory_order_acquire)) {
      verify::spinYield();
    }
    std::byte* c = cell(idx);
    verify::dataStore(c);
    std::memcpy(c, msg, messageBytes_);
    // Release pairs with pop's full acquire: payload visible before F.
    s.full.store(true, std::memory_order_release);  // pairs-with: mpmc.slot-full
  }

  /// Blocking pop; returns false only when drained AND `stopped`.
  bool pop(void* msg, const atomic<bool>& stopped) {
    std::uint64_t claimed;
    for (;;) {
      claimed = readIdx_.value.load(std::memory_order_relaxed);
      if (claimed < writeIdx_.value.load(std::memory_order_acquire)) {
        if (readIdx_.value.compare_exchange_weak(claimed, claimed + 1,
                                                 std::memory_order_relaxed,
                                                 std::memory_order_relaxed)) {
          break;
        }
        continue;
      }
      // Same stopped-drain shape as GravelQueue::acquireRead; see the
      // comment there and the StoppedDrain model test.
      if (stopped.load(std::memory_order_acquire) &&
          readIdx_.value.load(std::memory_order_relaxed) >=
              writeIdx_.value.load(std::memory_order_acquire)) {
        return false;
      }
      verify::spinYield();
    }
    Slot& s = slots_[claimed % capacity_];
    const std::uint64_t round = claimed / capacity_;
    while (s.round.load(std::memory_order_acquire) != round ||
           !s.full.load(std::memory_order_acquire)) {
      verify::spinYield();
    }
    const std::byte* c = cell(claimed);
    verify::dataLoad(c);
    std::memcpy(msg, c, messageBytes_);
    s.full.store(false, std::memory_order_relaxed);
    // Release pairs with push's round acquire: our cell read completes
    // before the next-round producer reuses the cell.
    s.round.store(round + 1, std::memory_order_release);  // pairs-with: mpmc.slot-round
    return true;
  }

#if defined(GRAVEL_VERIFY) && GRAVEL_VERIFY
  std::uint64_t peekSlotRound(std::size_t slot) const noexcept {
    return slots_[slot].round.peek();
  }
  bool peekSlotFull(std::size_t slot) const noexcept {
    return slots_[slot].full.peek();
  }
#endif

 private:
  struct alignas(kCacheLineSize) Slot {
    atomic<std::uint64_t> round{0};
    atomic<bool> full{false};
  };

  std::byte* cell(std::uint64_t idx) noexcept {
    return payload_.data() + (idx % capacity_) * cellBytes_;
  }
  const std::byte* cell(std::uint64_t idx) const noexcept {
    return payload_.data() + (idx % capacity_) * cellBytes_;
  }

  std::size_t messageBytes_;
  std::size_t cellBytes_;
  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::vector<std::byte> payload_;
  CacheAligned<atomic<std::uint64_t>> writeIdx_{};
  CacheAligned<atomic<std::uint64_t>> readIdx_{};
};

}  // namespace gravel

// gravel-lint: hot-path — lock-free; no mutexes, sleeps, or raw yields.
// (Marker kept at end of file: the memory-order mutation matrix in
// tests/test_verify_mutation.cpp pins line numbers in this header.)
