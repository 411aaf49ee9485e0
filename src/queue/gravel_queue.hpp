// Gravel's GPU-efficient producer/consumer queue (paper §4.2, Figure 7).
//
// The queue is a bounded ring of *slots*. Each slot is a two-dimensional
// payload: `rows` x `lanes` 64-bit words, where column l holds work-item l's
// message and row f holds field f of every message (command, destination,
// address, value, ...). A whole work-group deposits up to `lanes` messages
// into one slot, so producer/consumer synchronization is amortized across the
// work-group:
//
//   - a global WriteIdx fetch-add picks the slot (one RMW per work-group),
//   - a per-slot ticket (WriteTick) orders producers that alias to the same
//     slot across ring wrap-arounds,
//   - a per-slot ticket (ReadTick) orders consumers the same way,
//   - a full/empty bit F plus round counter N arbitrate between the producer
//     holding the write ticket and the consumer holding the read ticket:
//     the slot is writable in round r when N == r && !F, and readable in
//     round r when N == r && F. Consuming clears F and increments N.
//
// The row-major payload is what lets GPU work-items in one work-group write
// their messages into shared cache lines (memory coalescing); the CPU-only
// baselines in spsc_queue.hpp / mpmc_queue.hpp need a padded cache line per
// message instead, which is the §4.3 bandwidth gap for small messages.
//
// The memory-order protocol here is model-checked: tests/test_verify.cpp
// explores bounded configurations exhaustively, and the mutation self-test
// weakens each acquire/release below to relaxed and asserts the checker
// objects (DESIGN.md §8).
//
// gravel-lint: hot-path
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/atomic.hpp"
#include "common/cacheline.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace gravel {

/// Configuration for a GravelQueue.
struct GravelQueueConfig {
  /// Total payload capacity in bytes (paper default: 1 MiB, Table 3).
  std::size_t capacity_bytes = 1 << 20;
  /// Messages per slot == maximum work-group size (paper: 256).
  std::uint32_t lanes = 256;
  /// 64-bit words per message (paper: command, destination, address, value).
  std::uint32_t rows = 4;
};

/// Callback invoked while spin-waiting; lets the SIMT fiber scheduler run
/// other work-groups (and lets a 1-core host make progress).
using YieldFn = std::function<void()>;

/// The §4.2 slotted ticket queue. Thread-safe for any number of producers
/// and consumers. Producers reserve a whole slot (up to `lanes` messages);
/// consumers drain a whole slot.
class GravelQueue {
 public:
  explicit GravelQueue(const GravelQueueConfig& config)
      : config_(config),
        slotWords_(std::size_t{config.rows} * config.lanes),
        slotCount_(computeSlotCount(config)) {
    GRAVEL_CHECK_MSG(config.lanes > 0 && config.rows > 0,
                     "queue needs nonzero lanes and rows");
    slots_ = std::make_unique<Slot[]>(slotCount_);
    payload_.assign(slotCount_ * slotWords_, 0);
  }

  std::size_t slotCount() const noexcept { return slotCount_; }
  std::uint32_t lanes() const noexcept { return config_.lanes; }
  std::uint32_t rows() const noexcept { return config_.rows; }
  std::size_t messageBytes() const noexcept { return config_.rows * 8u; }

  /// Handle to a reserved slot. Producers fill columns [0, count) and then
  /// publish(); consumers read columns [0, count) and then release().
  struct SlotRef {
    std::uint32_t slot = 0;   ///< slot index in the ring
    std::uint64_t round = 0;  ///< which wrap-around of the ring
    std::uint32_t count = 0;  ///< number of valid messages (set by producer)
  };

  /// Producer side, step 1: claim the next slot. Called once per work-group
  /// (by the leader work-item). Spins until the slot's previous round has
  /// been consumed. `count` is the number of messages the group will write.
  SlotRef acquireWrite(std::uint32_t count, const YieldFn& yield = {}) {
    GRAVEL_CHECK_MSG(count > 0 && count <= config_.lanes,
                     "write count must be in [1, lanes]");
    const std::uint64_t idx = writeIdx_.fetch_add(1, std::memory_order_relaxed);
    bumpAtomics();
    Slot& s = slots_[idx % slotCount_];
    // Per-slot write ticket (paper's WriteTick). The global WriteIdx already
    // hands the rounds of slot (idx % S) out in order — producer idx gets
    // ticket idx / S — so a second per-slot fetch-add would only risk
    // inverting rounds between two groups that alias the same slot; we derive
    // the ticket instead of re-counting.
    const std::uint64_t ticket = idx / slotCount_;
    // Wait for our round: N == ticket and the slot drained (F clear).
    // The acquire on round pairs with release()'s round.store: it orders this
    // producer's payload writes after the previous round's consumer reads.
    spinUntil(
        [&] {
          return s.round.load(std::memory_order_acquire) == ticket &&  // pairs-with: gq.slot-round
                 !s.full.load(std::memory_order_acquire);  // pairs-with: gq.slot-full
        },
        yield);
    return SlotRef{static_cast<std::uint32_t>(idx % slotCount_), ticket, count};
  }

  /// Producer side, step 2: the 64-bit word for field `row` of message
  /// `lane`. Every lane writes its own column concurrently, no ordering
  /// needed between lanes of the same group.
  std::uint64_t& wordAt(const SlotRef& ref, std::uint32_t row,
                        std::uint32_t lane) noexcept {
    return payload_[wordIndex(ref, row, lane)];
  }

  /// wordAt with the access announced to the verification layer's race
  /// detector (no-ops in normal builds). New code and the typed facade use
  /// these; the reference-returning wordAt remains for coalescing loops.
  void putWord(const SlotRef& ref, std::uint32_t row, std::uint32_t lane,
               std::uint64_t value) noexcept {
    std::uint64_t& w = payload_[wordIndex(ref, row, lane)];
    verify::dataStore(&w);
    w = value;
  }
  std::uint64_t getWord(const SlotRef& ref, std::uint32_t row,
                        std::uint32_t lane) const noexcept {
    const std::uint64_t& w = payload_[wordIndex(ref, row, lane)];
    verify::dataLoad(&w);
    return w;
  }

  /// Producer side, step 3: make the slot visible to consumers. Called once
  /// per work-group (by the leader) after all lanes wrote their columns.
  void publish(const SlotRef& ref) {
    Slot& s = slots_[ref.slot];
    s.count.store(ref.count, std::memory_order_relaxed);
    // Release: the payload and count written above become visible to the
    // consumer whose acquire load sees F set.
    s.full.store(true, std::memory_order_release);  // pairs-with: gq.slot-full
  }

  /// Consumer side, step 1: claim the next slot if any message will ever be
  /// available for it. Returns false if the queue is drained AND `stopped`
  /// is true. Blocks (spinning/yielding) otherwise.
  ///
  /// Liveness argument: readIdx_ is only advanced after observing
  /// writeIdx_ > readIdx_, i.e. some producer has already claimed that round
  /// of the ring; every producer that claims publishes in finite time, so the
  /// spin on F terminates.
  ///
  /// Stopped-drain: the relaxed readIdx_ re-read below is intentional. It can
  /// only observe a *stale (smaller)* value, which keeps the consumer in the
  /// loop for another iteration — never an early exit. Exit requires
  /// readIdx >= writeIdx with writeIdx read acquire AFTER observing
  /// stopped == true (acquire), and the stop protocol releases `stopped`
  /// after all producers quiesce, so no claimed slot can be missed. This is
  /// not just an argument: tests/test_verify.cpp GravelQueueStoppedDrain
  /// explores the interleavings exhaustively and checks the no-lost-message
  /// invariant.
  bool acquireRead(SlotRef& out, const atomic<bool>& stopped,
                   const YieldFn& yield = {}) {
    std::uint64_t claimed;
    for (;;) {
      claimed = readIdx_.load(std::memory_order_relaxed);
      const std::uint64_t written = writeIdx_.load(std::memory_order_acquire);
      if (claimed < written) {
        if (readIdx_.compare_exchange_weak(claimed, claimed + 1,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
          bumpAtomics();
          break;
        }
        continue;  // lost the race; retry
      }
      if (stopped.load(std::memory_order_acquire) &&
          readIdx_.load(std::memory_order_relaxed) >=
              writeIdx_.load(std::memory_order_acquire)) {
        return false;
      }
      doYield(yield);
    }
    Slot& s = slots_[claimed % slotCount_];
    // Per-slot read ticket (paper's ReadTick), derived from the global claim
    // index for the same reason as on the write side.
    const std::uint64_t ticket = claimed / slotCount_;
    // The acquire on full pairs with publish()'s release store; it makes the
    // producer's payload writes visible before getWord reads them.
    spinUntil(
        [&] {
          return s.round.load(std::memory_order_acquire) == ticket &&  // pairs-with: gq.slot-round
                 s.full.load(std::memory_order_acquire);  // pairs-with: gq.slot-full
        },
        yield);
    out.slot = static_cast<std::uint32_t>(claimed % slotCount_);
    out.round = ticket;
    out.count = s.count.load(std::memory_order_relaxed);
    return true;
  }

  /// Non-blocking variant of acquireRead for pass-at-a-time drivers: claims
  /// the next slot only once its producer has published it, and otherwise
  /// returns false at once, so a driver never waits on a work-group that is
  /// still filling its slot. Claiming a published slot is safe: only the
  /// consumer that claims an index releases its slot, so the slot still
  /// holds this round when the claim succeeds.
  bool tryAcquireRead(SlotRef& out) {
    for (;;) {
      std::uint64_t claimed = readIdx_.load(std::memory_order_relaxed);
      const std::uint64_t written = writeIdx_.load(std::memory_order_acquire);
      if (claimed >= written) return false;
      Slot& s = slots_[claimed % slotCount_];
      const std::uint64_t ticket = claimed / slotCount_;
      // The acquire on full pairs with publish()'s release store; it makes
      // the producer's payload writes visible before getWord reads them.
      if (s.round.load(std::memory_order_acquire) != ticket ||  // pairs-with: gq.slot-round
          !s.full.load(std::memory_order_acquire))  // pairs-with: gq.slot-full
        return false;
      if (readIdx_.compare_exchange_weak(claimed, claimed + 1,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
        bumpAtomics();
        out.slot = static_cast<std::uint32_t>(claimed % slotCount_);
        out.round = ticket;
        out.count = s.count.load(std::memory_order_relaxed);
        return true;
      }
      // lost the race; retry
    }
  }

  /// Consumer side, step 2 is wordAt()/getWord() on the claimed columns.
  const std::uint64_t& wordAt(const SlotRef& ref, std::uint32_t row,
                              std::uint32_t lane) const noexcept {
    return payload_[wordIndex(ref, row, lane)];
  }

  /// Consumer side, step 3: release the slot for the next round (clears F,
  /// bumps N — Figure 7 time 5).
  void release(const SlotRef& ref) {
    Slot& s = slots_[ref.slot];
    s.full.store(false, std::memory_order_relaxed);
    // Release: the consumer's payload reads complete before the next-round
    // producer (acquire on round in acquireWrite) may overwrite the slot.
    s.round.store(ref.round + 1, std::memory_order_release);  // pairs-with: gq.slot-round
  }

  /// Consumer bulk decode: copies the slot's `ref.count` messages into
  /// `out[0..ref.count)` in a single row-major pass. Each payload row is
  /// read contiguously (the same layout the GPU wrote coalesced), so the
  /// whole slot costs one streaming sweep instead of rows x count strided
  /// wordAt() calls. T must be trivially copyable and exactly `rows` words
  /// wide (word r of message `lane` is payload row r, column `lane`).
  template <typename T>
  void copySlot(const SlotRef& ref, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) % 8 == 0, "message must be whole 64-bit words");
    GRAVEL_CHECK_MSG(sizeof(T) == messageBytes(),
                     "copySlot message width must match the queue's rows");
    const std::uint64_t* base =
        payload_.data() + std::size_t{ref.slot} * slotWords_;
    for (std::uint32_t row = 0; row < config_.rows; ++row) {
      const std::uint64_t* src = base + std::size_t{row} * config_.lanes;
      unsigned char* dstBytes =
          reinterpret_cast<unsigned char*>(out) + std::size_t{row} * 8;
      for (std::uint32_t lane = 0; lane < ref.count; ++lane) {
        verify::dataLoad(src + lane);
        std::memcpy(dstBytes + std::size_t{lane} * sizeof(T), src + lane, 8);
      }
    }
  }

  /// Total write reservations so far; with Aggregator::slotsProcessed this
  /// forms the runtime's quiescence check.
  std::uint64_t reservedCount() const noexcept {
    return writeIdx_.load(std::memory_order_acquire);
  }

  /// True when every published slot has been claimed by a consumer.
  bool drained() const noexcept {
    return readIdx_.load(std::memory_order_acquire) >=
           writeIdx_.load(std::memory_order_acquire);
  }

  /// Number of shared-memory atomic RMWs issued so far (Figure 6's right
  /// axis is this, divided by messages offloaded).
  std::uint64_t atomicRmwCount() const noexcept {
    return atomics_.load(std::memory_order_relaxed);
  }
  void resetAtomicRmwCount() noexcept {
    atomics_.store(0, std::memory_order_relaxed);
  }

#if defined(GRAVEL_VERIFY) && GRAVEL_VERIFY
  /// Model-free state peeks for model-test invariants (verify builds only).
  std::uint64_t peekSlotRound(std::uint32_t slot) const noexcept {
    return slots_[slot].round.peek();
  }
  bool peekSlotFull(std::uint32_t slot) const noexcept {
    return slots_[slot].full.peek();
  }
  std::uint32_t peekSlotCount(std::uint32_t slot) const noexcept {
    return slots_[slot].count.peek();
  }
  std::uint64_t peekWriteIdx() const noexcept { return writeIdx_.peek(); }
  std::uint64_t peekReadIdx() const noexcept { return readIdx_.peek(); }
#endif

 private:
  struct alignas(kCacheLineSize) Slot {
    atomic<std::uint64_t> round{0};   ///< N in Figure 7
    atomic<std::uint32_t> count{0};   ///< valid messages this round
    atomic<bool> full{false};         ///< F in Figure 7
  };

  static std::size_t computeSlotCount(const GravelQueueConfig& c) {
    const std::size_t slotBytes = std::size_t{c.rows} * 8 * c.lanes;
    // At least two slots so one group can fill while a consumer drains.
    return std::max<std::size_t>(2, c.capacity_bytes / std::max<std::size_t>(
                                                           1, slotBytes));
  }

  std::size_t wordIndex(const SlotRef& ref, std::uint32_t row,
                        std::uint32_t lane) const noexcept {
    return ref.slot * slotWords_ + std::size_t{row} * config_.lanes + lane;
  }

  // Under the model checker each failed probe must become a schedule point
  // immediately, or the cooperative scheduler would spin forever waiting for
  // a store that only another thread can make.
  static constexpr int kSpinsBeforeYield = verify::kEnabled ? 1 : 64;

  template <typename Pred>
  void spinUntil(const Pred& ready, const YieldFn& yield) const {
    int spins = 0;
    while (!ready()) {
      if (++spins >= kSpinsBeforeYield) {
        doYield(yield);
        spins = 0;
      }
    }
  }

  void doYield(const YieldFn& yield) const {
    if (yield)
      yield();
    else
      verify::spinYield();
  }

  void bumpAtomics() noexcept {
    atomics_.fetch_add(1, std::memory_order_relaxed);
  }

  GravelQueueConfig config_;
  std::size_t slotWords_;
  std::size_t slotCount_;
  std::unique_ptr<Slot[]> slots_;
  std::vector<std::uint64_t> payload_;

  alignas(kCacheLineSize) atomic<std::uint64_t> writeIdx_{0};
  alignas(kCacheLineSize) atomic<std::uint64_t> readIdx_{0};
  alignas(kCacheLineSize) mutable atomic<std::uint64_t> atomics_{0};
};

/// Typed facade over GravelQueue for trivially-copyable messages whose size
/// is a multiple of 8 bytes. Field words of message type T map to payload
/// rows, preserving the row-major (coalescing-friendly) layout.
template <typename T>
class TypedGravelQueue {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % 8 == 0, "message must be whole 64-bit words");

 public:
  static constexpr std::uint32_t kRows = sizeof(T) / 8;

  TypedGravelQueue(std::size_t capacityBytes, std::uint32_t lanes)
      : queue_(GravelQueueConfig{capacityBytes, lanes, kRows}) {}

  GravelQueue& raw() noexcept { return queue_; }
  std::uint32_t lanes() const noexcept { return queue_.lanes(); }

  using SlotRef = GravelQueue::SlotRef;

  SlotRef acquireWrite(std::uint32_t count, const YieldFn& yield = {}) {
    return queue_.acquireWrite(count, yield);
  }
  void store(const SlotRef& ref, std::uint32_t lane, const T& msg) noexcept {
    std::uint64_t words[kRows];
    std::memcpy(words, &msg, sizeof(T));
    for (std::uint32_t r = 0; r < kRows; ++r)
      queue_.putWord(ref, r, lane, words[r]);
  }
  void publish(const SlotRef& ref) { queue_.publish(ref); }

  bool acquireRead(SlotRef& out, const atomic<bool>& stopped,
                   const YieldFn& yield = {}) {
    return queue_.acquireRead(out, stopped, yield);
  }
  T load(const SlotRef& ref, std::uint32_t lane) const noexcept {
    std::uint64_t words[kRows];
    for (std::uint32_t r = 0; r < kRows; ++r)
      words[r] = queue_.getWord(ref, r, lane);
    T msg;
    std::memcpy(&msg, words, sizeof(T));
    return msg;
  }
  void release(const SlotRef& ref) { queue_.release(ref); }
  bool drained() const noexcept { return queue_.drained(); }
  std::uint64_t atomicRmwCount() const noexcept {
    return queue_.atomicRmwCount();
  }

 private:
  GravelQueue queue_;
};

}  // namespace gravel

// gravel-lint: hot-path — lock-free; no mutexes, sleeps, or raw yields.
// (Marker kept at end of file: the memory-order mutation matrix in
// tests/test_verify_mutation.cpp pins line numbers in this header.)
