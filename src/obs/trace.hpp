// Message-lifecycle tracing: sampled trace IDs stamped into messages at GPU
// enqueue and followed through aggregator -> per-node queue flush -> wire ->
// network-thread resolution, with per-stage timestamps recorded into
// single-writer per-thread buffers.
//
// Design constraints (ISSUE 2 tentpole):
//   - near-zero overhead when disabled: every record site is guarded by one
//     branch on a plain bool; nothing else is touched;
//   - no locks at all: each recording thread owns a fixed-capacity event
//     buffer (registered once by a CAS push, then written single-writer
//     with a release-published count); readers only run at quiescent points
//     (after quiet() or the launch barrier) or tolerate a slightly stale
//     tail;
//   - the trace ID travels *in* the message: NetMessage's cmd word has 16
//     free bits (16..31) on every data command, so no wire-format growth and
//     the ID survives aggregation, framing, retransmission and reordering;
//   - one clock read per unit of batched work, not per message: the caller
//     passes recordStage() a timestamp it read once per work-group
//     reservation, routed slot, flushed batch or network delivery, and
//     stamps every message of that unit with it.
//
// Layered on the same record sites (ISSUE 5):
//   - the flight recorder (flight_recorder.hpp) keeps an always-on ring of
//     the last N events per thread, independent of sampling — record sites
//     gate on active() (= sampling enabled OR flight recording enabled) and
//     pass id 0 for unsampled messages;
//   - the latency-attribution engine (latency.hpp) consumes the sampled
//     buffers incrementally and attributes p50/p99 to pipeline stages.
//
// The Perfetto/Chrome-trace exporter over these buffers lives in
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
#include <string>
#include <vector>

#include "common/atomic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stage.hpp"

namespace gravel::obs {

/// Fixed-capacity single-writer event buffer. The writer publishes with a
/// release store of the count; concurrent readers acquire the count and read
/// only below it, so drains at quiescent points are race-free without locks.
class TraceBuffer {
 public:
  TraceBuffer(std::size_t capacity, std::string defaultName)
      : capacity_(capacity),
        events_(new TraceEvent[capacity]),
        default_name_(std::move(defaultName)) {}

  void record(const TraceEvent& e) noexcept {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_[n] = e;
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

  /// The track name. `default_name_` is immutable once the buffer is
  /// registered; setName() writes `custom_name_` once and release-publishes
  /// `named_`, so a reader never sees a string being rewritten.
  const std::string& name() const noexcept {
    // pairs-with: trace.named
    return named_.load(std::memory_order_acquire) ? custom_name_
                                                  : default_name_;
  }

  /// Owner thread only. First name wins; later names are ignored.
  void setName(const std::string& name) {
    if (named_.load(std::memory_order_relaxed)) return;
    custom_name_ = name;
    named_.store(true, std::memory_order_release);  // pairs-with: trace.named
  }

 private:
  friend class Tracer;  // owns the registry link below

  std::size_t capacity_;
  std::unique_ptr<TraceEvent[]> events_;
  atomic<std::size_t> count_{0};
  atomic<std::uint64_t> dropped_{0};
  std::string default_name_;
  std::string custom_name_;
  atomic<bool> named_{false};
  TraceBuffer* next_ = nullptr;  ///< immutable after publication
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
  /// batch or delivery; set false for overhead-free record sites.
  bool flightrec = true;
  std::size_t flightrec_events = 2048;
};

/// The per-cluster trace sink. Threads register a private buffer on first
/// record (one CAS push, like the flight recorder's rings), then record
/// lock-free. Trace IDs are 16-bit, never 0, assigned round-robin to every
/// sample_interval-th candidate.
class Tracer {
 public:
  explicit Tracer(const TraceConfig& config)
      : config_(config),
        enabled_(config.enabled),
        flight_(config.flightrec ? config.flightrec_events : 0),
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
    TraceBuffer* b = headPtr();
    while (b != nullptr) {
      TraceBuffer* next = b->next_;
      delete b;
      b = next;
    }
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// True when any record site should fire: sampled tracing, the flight
  /// recorder, or both. Call sites guard their per-message loops on this
  /// and pass traceId() (possibly 0) straight through.
  bool active() const noexcept { return enabled_ || flight_.enabled(); }

  const TraceConfig& config() const noexcept { return config_; }

  FlightRecorder& flightRecorder() noexcept { return flight_; }
  const FlightRecorder& flightRecorder() const noexcept { return flight_; }

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
  /// and means "not sampled": the event still reaches the flight recorder
  /// but never a TraceBuffer.
  void recordStage(std::uint64_t ts_ns, Stage stage, std::uint32_t id,
                   std::uint16_t node, std::uint16_t dest,
                   std::uint64_t value = 0, std::uint8_t kind = 0) noexcept {
    if (!enabled_ && !flight_.enabled()) return;
    const TraceEvent e{ts_ns, value, id, node, dest, stage, kind};
    if (flight_.enabled()) flight_.record(e);
    if (enabled_ && id != 0) threadBuffer().record(e);
  }

  /// Records a gauge sample (renders as a Perfetto counter track; also
  /// lands in the flight ring so post-mortems see recent depth history).
  void recordGauge(Gauge gauge, std::uint16_t node, std::uint64_t value) {
    if (!enabled_ && !flight_.enabled()) return;
    const TraceEvent e{nowNs(), value, std::uint32_t(gauge),
                       node, 0, Stage::kGauge};
    if (flight_.enabled()) flight_.record(e);
    if (enabled_) threadBuffer().record(e);
  }

  /// Names the calling thread's buffer (its Perfetto track) and its flight
  /// ring. First name wins, for both.
  // gravel-analyze: cold — once-per-thread registration.
  void nameThread(const std::string& name) {
    if (enabled_) threadBuffer().setName(name);
    if (flight_.enabled()) flight_.nameThread(name);
  }

  /// All buffers registered so far, oldest first. Safe concurrent with
  /// registration and recording; each buffer's size() is release-published
  /// by its writer.
  // gravel-analyze: cold — quiescent-point reader, not a record site.
  std::vector<const TraceBuffer*> buffers() const {
    std::vector<const TraceBuffer*> out;
    for (const TraceBuffer* b = headPtr(); b != nullptr; b = b->next_)
      out.push_back(b);
    std::reverse(out.begin(), out.end());  // the list is newest first
    return out;
  }

  /// Every event from every buffer, sorted by timestamp. Convenience for
  /// tests and latency analysis.
  // gravel-analyze: cold — quiescent/dump-time reader, not a record site.
  std::vector<TraceEvent> allEvents() const {
    std::vector<TraceEvent> out;
    for (const TraceBuffer* b : buffers()) {
      const std::size_t n = b->size();
      for (std::size_t i = 0; i < n; ++i) out.push_back((*b)[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.ts_ns < b.ts_ns;
              });
    return out;
  }

  std::uint64_t droppedEvents() const {
    std::uint64_t d = 0;
    for (const TraceBuffer* b : buffers()) d += b->dropped();
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
  // the CAS are amortized over every later record on this thread.
  TraceBuffer& threadBuffer() {
    // Generation (not pointer) keyed: a new Tracer at a recycled address
    // must not inherit a stale buffer pointer.
    thread_local std::uint64_t tlsGen = 0;
    thread_local TraceBuffer* tlsBuf = nullptr;
    if (tlsGen != gen_) {
      TraceBuffer* b = new TraceBuffer(
          config_.buffer_events,
          "thread-" + std::to_string(
                          count_.fetch_add(1, std::memory_order_relaxed) + 1));
      std::uintptr_t expected = head_.load(std::memory_order_relaxed);
      do {
        b->next_ = reinterpret_cast<TraceBuffer*>(expected);
      } while (!head_.compare_exchange_weak(
          expected, reinterpret_cast<std::uintptr_t>(b),
          // pairs-with: trace.registry
          std::memory_order_release, std::memory_order_relaxed));
      tlsBuf = b;
      tlsGen = gen_;
    }
    return *tlsBuf;
  }

  TraceBuffer* headPtr() const noexcept {
    // pairs-with: trace.registry
    return reinterpret_cast<TraceBuffer*>(head_.load(std::memory_order_acquire));
  }

  TraceConfig config_;
  bool enabled_;
  FlightRecorder flight_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t gen_;

  atomic<std::uint64_t> candidates_{0};
  atomic<std::uint32_t> nextId_{1};

  // The buffer registry: an intrusive list head stored as uintptr_t, for
  // the verify shim's sake, like FlightRecorder::head_.
  atomic<std::uintptr_t> head_{0};
  atomic<std::uint64_t> count_{0};
};

}  // namespace gravel::obs
