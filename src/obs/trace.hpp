// Message-lifecycle tracing: sampled trace IDs stamped into messages at GPU
// enqueue and followed through aggregator -> per-node queue flush -> wire ->
// network-thread resolution, with per-stage timestamps recorded into
// single-writer per-thread buffers.
//
// Design constraints:
//   - near-zero overhead when disabled: every record site is guarded by one
//     branch on a plain bool; nothing else is touched;
//   - no locks at all: each recording thread owns its state outright (see
//     the per-thread context below) and writes it single-writer with
//     release-published counts; readers only run at quiescent points (after
//     quiet() or the launch barrier) or tolerate a slightly stale tail;
//   - the trace ID travels *in* the message: NetMessage's cmd word has 16
//     free bits (16..31) on every data command, so no wire-format growth and
//     the ID survives aggregation, framing, retransmission and reordering;
//   - one clock read per unit of batched work, not per message: the caller
//     passes recordStage() a timestamp it read once per work-group
//     reservation, routed slot, flushed batch or network delivery, and
//     stamps every message of that unit with it.
//
// One observability context per thread (DESIGN.md §7): a thread registers
// one ThreadContext per Tracer, by one CAS push, and finds it again through
// one generation-keyed thread_local. The context holds the thread's one
// name, its flight ring (flight_recorder.hpp: the always-on ring of the
// last N events, independent of sampling — record sites gate on active()
// and pass id 0 for unsampled messages), its sampled-event buffer and its
// profiler accumulators (profiler.hpp), so a thread's trace track, flight
// ring and profiler row always carry the same name. The latency engine
// (latency.hpp) consumes the sampled buffers incrementally.
//
// The Perfetto/Chrome-trace exporter and the flight-recorder dump live in
// trace_export.hpp; depth-gauge samples recorded here render as counter
// tracks there.
//
// gravel-lint: hot-path — record()/recordStage() run on every traced
// message.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/atomic.hpp"
#include "common/mapping.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stage.hpp"

namespace gravel::obs {

/// Fixed-capacity single-writer event buffer. Its storage is an anonymous
/// mapping, so a page becomes resident only when the writer first records
/// into it. Each event is constructed in place when it is recorded; the
/// writer publishes with a release store of the count, and concurrent
/// readers acquire the count and read only below it, so drains at quiescent
/// points are race-free without locks.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity)
      : capacity_(capacity),
        events_(capacity == 0 ? nullptr
                              : reinterpret_cast<TraceEvent*>(mapAnonymous(
                                    capacity * sizeof(TraceEvent))),
                Unmap{capacity * sizeof(TraceEvent)}) {}

  void record(const TraceEvent& e) noexcept {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::construct_at(events_.get() + n, e);
    count_.store(n + 1, std::memory_order_release);  // pairs-with: trace.buffer-count
  }

  std::size_t size() const noexcept {
    return count_.load(std::memory_order_acquire);  // pairs-with: trace.buffer-count
  }
  const TraceEvent& operator[](std::size_t i) const noexcept {
    return events_[i];
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  static_assert(std::is_trivially_copyable_v<TraceEvent>,
                "in-place construction must stay a plain 32-byte store");

  std::size_t capacity_;
  std::unique_ptr<TraceEvent[], Unmap> events_;
  atomic<std::size_t> count_{0};
  atomic<std::uint64_t> dropped_{0};
};

/// Tracing knobs, embedded in ClusterConfig as `config.obs`.
struct TraceConfig {
  /// Master switch for *sampled* tracing. Off means no sampling, no
  /// stamping, no buffer recording. The flight recorder below is
  /// independent of this switch.
  bool enabled = false;

  /// Sample 1 in N candidate messages (per node, deterministic round-robin
  /// over the enqueue count). 1 traces everything. The GRAVEL_TRACE_SAMPLE
  /// environment variable, when set to a positive integer, overrides this
  /// at Tracer construction (see README quickstart).
  std::uint32_t sample_interval = 64;

  /// Events per recording thread; overflow drops (counted, reported by the
  /// exporter) rather than reallocating on the hot path.
  std::size_t buffer_events = 1 << 16;

  /// Queue-depth / occupancy gauge sampling cadence; zero disables the
  /// gauge duty of the monitor thread.
  std::chrono::microseconds gauge_period{0};

  /// Always-on flight recorder: every record site also appends to a
  /// bounded per-thread ring of the last `flightrec_events` events
  /// (sampled or not — unsampled events carry id 0), dumped as
  /// gravel_flightrec.json on quiet-deadline expiry, LinkFailureError, or
  /// GRAVEL_FLIGHTREC_DUMP=1 exit. Costs one 32-byte ring store per event
  /// plus one clock read per work-group reservation, routed slot, flushed
  /// batch or delivery; 0 disables it, making record sites overhead-free.
  std::size_t flightrec_events = 2048;
};

/// One thread's profiler accumulators, entered, exited and sampled by the
/// Profiler (profiler.hpp). A "path" is the stack of active regions packed
/// one byte per level into a uint64 (deepest region in the low byte), and
/// each path owns one row of a small open-addressed table. The owner thread
/// is the only writer; dumpers read concurrently, so a row's key is
/// release-published and its totals are relaxed monotonic counters that
/// may lag each other by one update — fine for a profile.
struct RegionTable {
  static constexpr int kMaxDepth = 8;   // packed key: one byte per level
  static constexpr int kMaxPaths = 64;  // distinct paths per thread

  struct PathSlot {
    atomic<std::uint64_t> key{0};
    atomic<std::uint64_t> count{0};
    atomic<std::uint64_t> self_ns{0};
  };

  atomic<std::uint64_t> dropped{0};  // depth or table overflow
  PathSlot paths[kMaxPaths];

  // Owner-thread scratch: plain fields, never read by dumpers.
  int depth = 0;
  std::uint64_t packed = 0;
  std::uint64_t start_ns[kMaxDepth] = {};
  std::uint64_t child_ns[kMaxDepth] = {};
  int slot_memo[kMaxDepth] = {};
};

/// One thread's observability state under one Tracer: its name, its flight
/// ring (when flight recording is on), its sampled-event buffer (when
/// sampling is on) and its profiler accumulators. Registered once per
/// (thread, tracer) pair, owned by the tracer, reclaimed in its destructor.
class ThreadContext {
 public:
  /// The thread's name: "thread-N" until it names itself. The default is
  /// immutable once the context is published; Tracer::nameThread writes the
  /// custom name once and release-publishes `named_` (first name wins), so
  /// a reader never sees a string being rewritten.
  const std::string& name() const noexcept {
    // pairs-with: trace.named
    return named_.load(std::memory_order_acquire) ? custom_name_
                                                  : default_name_;
  }

  std::optional<FlightRing> ring;     ///< iff config.flightrec_events > 0
  std::optional<TraceBuffer> buffer;  ///< iff config.enabled
  RegionTable regions;

 private:
  friend class Tracer;  // registers, names and links contexts

  ThreadContext(std::string defaultName, const TraceConfig& config)
      : default_name_(std::move(defaultName)) {
    if (config.flightrec_events != 0) ring.emplace(config.flightrec_events);
    if (config.enabled) buffer.emplace(config.buffer_events);
  }

  std::string default_name_;
  std::string custom_name_;
  atomic<bool> named_{false};
  ThreadContext* next_ = nullptr;  ///< immutable after publication
};

/// The per-cluster trace sink and the owner of every thread's
/// ThreadContext. Threads register their context on first use (one CAS
/// push), then record lock-free. Trace IDs are 16-bit, never 0, assigned
/// round-robin to every sample_interval-th candidate.
class Tracer {
 public:
  explicit Tracer(const TraceConfig& config)
      : config_(config),
        enabled_(config.enabled),
        epoch_(std::chrono::steady_clock::now()),
        gen_(nextGeneration()) {
    if (const char* env = std::getenv("GRAVEL_TRACE_SAMPLE")) {
      // Positive integers override the configured interval; anything else
      // (unset, empty, 0, garbage) leaves the config value in force.
      const unsigned long v = std::strtoul(env, nullptr, 10);
      if (v >= 1 && v <= 0xffffffffUL)
        config_.sample_interval = std::uint32_t(v);
    }
  }

  ~Tracer() {
    ThreadContext* c = headPtr();
    while (c != nullptr) {
      ThreadContext* next = c->next_;
      delete c;
      c = next;
    }
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// True when every context carries a flight ring.
  bool flightEnabled() const noexcept { return config_.flightrec_events != 0; }

  /// True when any record site should fire: sampled tracing, the flight
  /// recorder, or both. Call sites guard their per-message loops on this
  /// and pass traceId() (possibly 0) straight through.
  bool active() const noexcept { return enabled_ || flightEnabled(); }

  const TraceConfig& config() const noexcept { return config_; }

  std::uint64_t nowNs() const noexcept {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - epoch_)
                             .count());
  }

  /// Sampling decision for one candidate message: 0 = not sampled, else a
  /// fresh nonzero 16-bit trace ID to stamp into the message.
  std::uint32_t maybeSample() noexcept {
    if (!enabled_) return 0;
    const std::uint32_t interval = std::max(1u, config_.sample_interval);
    if (candidates_.fetch_add(1, std::memory_order_relaxed) % interval != 0)
      return 0;
    std::uint32_t id;
    do {
      id = nextId_.fetch_add(1, std::memory_order_relaxed) & 0xffffu;
    } while (id == 0);
    return id;
  }

  /// Records a message-stage event stamped `ts_ns` (a nowNs() reading the
  /// caller takes once per unit of work it handles as a batch: a queue
  /// reservation, a routed slot, a flushed batch, a delivery). id 0 is legal
  /// and means "not sampled": the event still reaches the flight ring but
  /// never the sampled buffer.
  void recordStage(std::uint64_t ts_ns, Stage stage, std::uint32_t id,
                   std::uint16_t node, std::uint16_t dest,
                   std::uint64_t value = 0, std::uint8_t kind = 0) noexcept {
    if (!active()) return;
    const TraceEvent e{ts_ns, value, id, node, dest, stage, kind};
    ThreadContext& c = context();
    if (c.ring) c.ring->record(e);
    if (c.buffer && id != 0) c.buffer->record(e);
  }

  /// Records a gauge sample (renders as a Perfetto counter track; also
  /// lands in the flight ring so post-mortems see recent depth history).
  void recordGauge(Gauge gauge, std::uint16_t node, std::uint64_t value) {
    if (!active()) return;
    const TraceEvent e{nowNs(), value, std::uint32_t(gauge),
                       node, 0, Stage::kGauge};
    ThreadContext& c = context();
    if (c.ring) c.ring->record(e);
    if (c.buffer) c.buffer->record(e);
  }

  /// Names the calling thread in every view: its trace track, its flight
  /// ring and its profiler row. First name wins.
  // gravel-analyze: cold — once-per-thread naming.
  void nameThread(const std::string& name) {
    ThreadContext& c = context();
    if (c.named_.load(std::memory_order_relaxed)) return;
    c.custom_name_ = name;
    c.named_.store(true, std::memory_order_release);  // pairs-with: trace.named
  }

  /// The calling thread's context: one generation check, after a first
  /// call that registers it. Generation (not pointer) keyed: a new Tracer
  /// at a recycled address must not inherit a stale context.
  ThreadContext& context() {
    thread_local std::uint64_t tlsGen = 0;
    thread_local ThreadContext* tlsContext = nullptr;
    if (tlsGen != gen_) {
      tlsContext = registerThread();
      tlsGen = gen_;
    }
    return *tlsContext;
  }

  /// Every context registered so far, oldest first. Safe concurrent with
  /// registration and recording.
  // gravel-analyze: cold — quiescent-point reader, not a record site.
  std::vector<const ThreadContext*> contexts() const {
    std::vector<const ThreadContext*> out;
    for (const ThreadContext* c = headPtr(); c != nullptr; c = c->next_)
      out.push_back(c);
    std::reverse(out.begin(), out.end());  // the list is newest first
    return out;
  }

  /// The contexts with a sampled buffer, oldest first: every context while
  /// sampling is on, none while it is off. Each buffer's size() is
  /// release-published by its writer.
  // gravel-analyze: cold — quiescent-point reader, not a record site.
  std::vector<const ThreadContext*> buffers() const {
    return enabled_ ? contexts() : std::vector<const ThreadContext*>{};
  }

  /// Every event from every buffer, sorted by timestamp. Convenience for
  /// tests and latency analysis.
  // gravel-analyze: cold — quiescent/dump-time reader, not a record site.
  std::vector<TraceEvent> allEvents() const {
    std::vector<TraceEvent> out;
    for (const ThreadContext* c : buffers()) {
      const TraceBuffer& b = *c->buffer;
      const std::size_t n = b.size();
      for (std::size_t i = 0; i < n; ++i) out.push_back(b[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.ts_ns < b.ts_ns;
              });
    return out;
  }

  std::uint64_t droppedEvents() const {
    std::uint64_t d = 0;
    for (const ThreadContext* c : buffers()) d += c->buffer->dropped();
    return d;
  }

  std::uint64_t sampledCandidates() const noexcept {
    return candidates_.load(std::memory_order_relaxed);
  }

 private:
  static std::uint64_t nextGeneration() noexcept {
    static atomic<std::uint64_t> gen{1};
    return gen.fetch_add(1, std::memory_order_relaxed);
  }

  // gravel-analyze: cold — once-per-thread slow path; the allocation and
  // the CAS are amortized over every later record and region.
  ThreadContext* registerThread() {
    auto* c = new ThreadContext(
        "thread-" +
            std::to_string(count_.fetch_add(1, std::memory_order_relaxed) + 1),
        config_);
    std::uintptr_t expected = head_.load(std::memory_order_relaxed);
    do {
      c->next_ = reinterpret_cast<ThreadContext*>(expected);
    } while (!head_.compare_exchange_weak(
        expected, reinterpret_cast<std::uintptr_t>(c),
        // pairs-with: trace.registry
        std::memory_order_release, std::memory_order_relaxed));
    return c;
  }

  ThreadContext* headPtr() const noexcept {
    // pairs-with: trace.registry
    return reinterpret_cast<ThreadContext*>(
        head_.load(std::memory_order_acquire));
  }

  TraceConfig config_;
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t gen_;

  atomic<std::uint64_t> candidates_{0};
  atomic<std::uint32_t> nextId_{1};

  // The context registry: an intrusive list head stored as uintptr_t,
  // because gravel::atomic's verify shim arbitrates integral words only.
  atomic<std::uintptr_t> head_{0};
  atomic<std::uint64_t> count_{0};
};

}  // namespace gravel::obs
