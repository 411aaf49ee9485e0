// Always-on flight recorder: a lock-free per-thread ring of the last N
// trace events, independent of sampling. Where the sampled TraceBuffers
// answer "what is the statistical shape of this run", the flight recorder
// answers "what were the last things each thread did" — the question a
// post-mortem (quiet-deadline expiry, LinkFailureError, watchdog stall)
// actually asks. Bounded memory by construction: capacity * 32 bytes per
// recording thread, oldest events overwritten in place. Each thread's ring
// lives in its one observability context (trace.hpp), registered once per
// tracer; writeFlightRecorderJson (trace_export.hpp) dumps every ring.
//
// Ring protocol (DESIGN.md §10): each ring has exactly one writer (its
// owning thread). record() is a relaxed load of the head, four 64-bit
// atomic word stores into the slot, and a release store of head+1 — plain
// moves on x86, no RMW, no fence, no lock, no branch on occupancy. Dumpers
// acquire the head, copy the slots below it, then re-read the head and drop
// every slot the writer may have lapped meanwhile, so a snapshot never
// holds a torn event.
//
// gravel-lint: hot-path
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/atomic.hpp"
#include "obs/stage.hpp"

namespace gravel::obs {

/// Single-writer overwriting event ring. Capacity is rounded up to a power
/// of two so the head wraps with a mask, never a division.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  /// Owner-thread only: overwrite the oldest slot, publish the new head.
  /// The word stores are release, not relaxed: on x86 both are the same
  /// plain move, but release orders this event's words after the previous
  /// head publication, which is what lets snapshot() detect a lapped slot.
  void record(const TraceEvent& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    const Words w = pack(e);
    for (int i = 0; i < kWords; ++i)
      s.w[i].store(w[i], std::memory_order_release);  // pairs-with: flightrec.slot
    head_.store(h + 1, std::memory_order_release);  // pairs-with: flightrec.head
  }

  /// Events ever recorded (not clamped to capacity).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);  // pairs-with: flightrec.head
  }

  std::size_t capacity() const noexcept { return std::size_t(mask_) + 1; }

  /// Copies the retained window, oldest first: at most capacity-1 events,
  /// because the slot of event head-capacity is the one the writer fills
  /// next. Safe concurrent with the writer: slots below the acquired head
  /// are fully published, and after the copy the head is read again and
  /// every event the writer may since have overwritten, or be overwriting,
  /// is dropped. A word that a lapping writer stored is read with acquire,
  /// so the second head read sees at least that writer's publication.
  // gravel-analyze: cold — quiescent/dump-time reader, not a record site.
  std::vector<TraceEvent> snapshot() const {
    // pairs-with: flightrec.head
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t first = oldestIntact(h);
    std::vector<TraceEvent> out;
    out.reserve(std::size_t(h - first));
    for (std::uint64_t i = first; i < h; ++i) {
      const Slot& s = slots_[i & mask_];
      Words w;
      for (int k = 0; k < kWords; ++k)
        w[k] = s.w[k].load(std::memory_order_acquire);  // pairs-with: flightrec.slot
      out.push_back(unpack(w));
    }
    const std::uint64_t lapped =
        oldestIntact(head_.load(std::memory_order_relaxed)) - first;
    out.erase(out.begin(),
              out.begin() + std::ptrdiff_t(std::min<std::uint64_t>(
                                lapped, out.size())));
    return out;
  }

 private:
  static constexpr int kWords = 4;
  using Words = std::array<std::uint64_t, kWords>;

  /// One event as four atomic words, so a concurrent snapshot() reads
  /// racing words instead of racing bytes.
  struct Slot {
    atomic<std::uint64_t> w[kWords] = {};
  };

  static Words pack(const TraceEvent& e) noexcept {
    return {e.ts_ns, e.value,
            std::uint64_t(e.id) | std::uint64_t(e.node) << 32 |
                std::uint64_t(e.aux) << 48,
            std::uint64_t(e.stage) | std::uint64_t(e.kind) << 8};
  }

  static TraceEvent unpack(const Words& w) noexcept {
    TraceEvent e;
    e.ts_ns = w[0];
    e.value = w[1];
    e.id = std::uint32_t(w[2]);
    e.node = std::uint16_t(w[2] >> 32);
    e.aux = std::uint16_t(w[2] >> 48);
    e.stage = Stage(std::uint8_t(w[3]));
    e.kind = std::uint8_t(w[3] >> 8);
    return e;
  }

  /// Oldest event still intact while the head reads `h`: the writer's next
  /// record goes to the slot of event h - capacity.
  std::uint64_t oldestIntact(std::uint64_t h) const noexcept {
    return h > mask_ ? h - mask_ : 0;
  }

  std::uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  atomic<std::uint64_t> head_{0};
};

}  // namespace gravel::obs
