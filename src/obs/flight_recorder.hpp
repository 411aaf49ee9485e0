// Always-on flight recorder: a lock-free per-thread ring of the last N
// trace events, independent of sampling. Where the sampled TraceBuffers
// answer "what is the statistical shape of this run", the flight recorder
// answers "what were the last things each thread did" — the question a
// post-mortem (quiet-deadline expiry, LinkFailureError, watchdog stall)
// actually asks. Bounded memory by construction: capacity * 32 bytes per
// recording thread, oldest events overwritten in place.
//
// Ring protocol (DESIGN.md §10): each ring has exactly one writer (its
// owning thread). record() is a relaxed load of the head, four 64-bit
// atomic word stores into the slot, and a release store of head+1 — plain
// moves on x86, no RMW, no fence, no lock, no branch on occupancy. Dumpers
// acquire the head, copy the slots below it, then re-read the head and drop
// every slot the writer may have lapped meanwhile, so a snapshot never
// holds a torn event. Thread registration is a CAS push onto an intrusive
// singly-linked list — the recorder never takes a mutex, so it is safe to
// mark this whole file hot-path.
//
// gravel-lint: hot-path
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/atomic.hpp"
#include "obs/json.hpp"
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

/// The per-cluster flight-record sink: one FlightRing per recording thread,
/// registered lock-free on first record. Zero capacity disables recording
/// entirely (record sites guard on enabled()).
class FlightRecorder {
 public:
  /// One thread's ring plus its track name. `default_name` is immutable
  /// after the node is CAS-published; a later nameThread() writes
  /// `custom_name` once and release-publishes `named` (first name wins), so
  /// dumpers never read a string mid-mutation.
  struct ThreadRing {
    explicit ThreadRing(std::size_t cap) : ring(cap) {}
    FlightRing ring;
    std::string default_name;
    std::string custom_name;
    atomic<bool> named{false};
    ThreadRing* next = nullptr;  ///< immutable after publication

    const std::string& name() const noexcept {
      // pairs-with: flightrec.named
      return named.load(std::memory_order_acquire) ? custom_name
                                                   : default_name;
    }
  };

  explicit FlightRecorder(std::size_t eventsPerThread)
      : capacity_(eventsPerThread), gen_(nextGeneration()) {}

  ~FlightRecorder() {
    ThreadRing* t = headPtr();
    while (t != nullptr) {
      ThreadRing* next = t->next;
      delete t;
      t = next;
    }
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const noexcept { return capacity_ != 0; }

  /// A head load and five stores (four slot words, the head), all plain
  /// moves on x86, after the calling thread's first record, which
  /// registers its ring via one CAS push.
  void record(const TraceEvent& e) { threadRing().ring.record(e); }

  /// Names the calling thread's ring. First name wins; renames are ignored
  /// so a dumper can never observe a string being rewritten.
  // gravel-analyze: cold — once-per-thread registration.
  void nameThread(const std::string& name) {
    if (!enabled()) return;
    ThreadRing& t = threadRing();
    if (t.named.load(std::memory_order_relaxed)) return;
    t.custom_name = name;
    t.named.store(true, std::memory_order_release);  // pairs-with: flightrec.named
  }

  /// All rings registered so far, registration order not guaranteed. Safe
  /// concurrent with writers (see FlightRing::snapshot).
  // gravel-analyze: cold — dump-time walker.
  std::vector<const ThreadRing*> threads() const {
    std::vector<const ThreadRing*> out;
    for (const ThreadRing* t = headPtr(); t != nullptr; t = t->next)
      out.push_back(t);
    return out;
  }

 private:
  static std::uint64_t nextGeneration() noexcept {
    static atomic<std::uint64_t> gen{1};
    return gen.fetch_add(1, std::memory_order_relaxed);
  }

  // gravel-analyze: cold — once-per-thread slow path; record() amortizes
  // the one allocation + CAS over every later event.
  ThreadRing& threadRing() {
    // Generation (not pointer) keyed, like Tracer::threadBuffer: a new
    // recorder at a recycled address must not inherit a stale ring.
    thread_local std::uint64_t tlsGen = 0;
    thread_local ThreadRing* tlsRing = nullptr;
    if (tlsGen != gen_) {
      ThreadRing* t = new ThreadRing(capacity_);
      t->default_name =
          "thread-" +
          std::to_string(count_.fetch_add(1, std::memory_order_relaxed) + 1);
      std::uintptr_t expected = head_.load(std::memory_order_relaxed);
      do {
        t->next = reinterpret_cast<ThreadRing*>(expected);
      } while (!head_.compare_exchange_weak(
          expected, reinterpret_cast<std::uintptr_t>(t),
          // pairs-with: flightrec.registry
          std::memory_order_release, std::memory_order_relaxed));
      tlsRing = t;
      tlsGen = gen_;
    }
    return *tlsRing;
  }

  ThreadRing* headPtr() const noexcept {
    // pairs-with: flightrec.registry
    return reinterpret_cast<ThreadRing*>(head_.load(std::memory_order_acquire));
  }

  std::size_t capacity_;
  std::uint64_t gen_;
  // The intrusive list head, stored as uintptr_t: gravel::atomic's verify
  // shim arbitrates integral words only, and the flight recorder must stay
  // checkable under GRAVEL_VERIFY=1 like every other lock-free structure.
  atomic<std::uintptr_t> head_{0};
  atomic<std::uint64_t> count_{0};
};

/// Serializes the recorder as gravel_flightrec.json:
///   {"reason": ..., "now_ns": ..., "threads": [{"name", "recorded",
///    "capacity", "overwritten", "events": [{...}, ...]}, ...]}
/// Events carry ts_ns/stage/id/node/dest/value/kind; id 0 means the event
/// was recorded outside sampling (flight-only). `extra`, when given, is
/// invoked after the header keys to append caller-owned top-level keys
/// (the Cluster injects its membership/degraded-mode block this way — this
/// layer cannot see runtime types).
// gravel-analyze: cold
inline void writeFlightRecorderJson(
    std::ostream& os, const FlightRecorder& rec, const std::string& reason,
    std::uint64_t now_ns,
    const std::function<void(JsonWriter&)>& extra = nullptr) {
  JsonWriter w(os);
  w.beginObject();
  w.kv("reason", reason);
  w.kv("now_ns", now_ns);
  if (extra) extra(w);
  w.key("threads").beginArray();
  for (const FlightRecorder::ThreadRing* t : rec.threads()) {
    const std::uint64_t recorded = t->ring.recorded();
    const std::uint64_t cap = t->ring.capacity();
    w.beginObject();
    w.kv("name", t->name());
    w.kv("recorded", recorded);
    w.kv("capacity", cap);
    w.kv("overwritten", recorded > cap ? recorded - cap : 0);
    w.key("events").beginArray();
    for (const TraceEvent& e : t->ring.snapshot()) {
      w.beginObject();
      w.kv("ts_ns", e.ts_ns);
      w.kv("stage", stageName(e.stage));
      w.kv("id", std::uint64_t{e.id});
      w.kv("node", std::uint64_t{e.node});
      w.kv("dest", std::uint64_t{e.aux});
      w.kv("value", e.value);
      w.kv("kind", messageKindName(e.kind));
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

}  // namespace gravel::obs
