// Shared trace-event vocabulary: the pipeline stages, the 32-byte TraceEvent
// record, and the well-known gauge IDs. Split out of trace.hpp so the
// flight recorder (flight_recorder.hpp) and the latency-attribution engine
// (latency.hpp) can consume events without pulling in the Tracer itself.
#pragma once

#include <cstdint>

namespace gravel::obs {

/// Lifecycle stages of one Gravel message, in pipeline order (paper §3.4).
/// A stage's timestamp is one clock read per unit of work, shared by every
/// message of the unit: the work-group's queue reservation (read before it,
/// so a queue-full wait counts toward enqueue -> aggregate), the routed
/// slot, the flushed batch, the batch on the wire, and the delivery.
enum class Stage : std::uint8_t {
  kEnqueue = 0,    ///< its work-group began reserving its Gravel queue slot
  kAggregate = 1,  ///< aggregator drained its slot into per-dest buffers
  kFlush = 2,      ///< its per-destination buffer was handed to the fabric
  kWireSend = 3,   ///< the (possibly faulty) wire accepted the framed batch
  kDeliver = 4,    ///< destination network thread took the delivery with it
  kResolve = 5,    ///< every message of that delivery has been resolved
  kGauge = 6,      ///< not a message stage: a sampled gauge value
};

inline const char* stageName(Stage s) noexcept {
  switch (s) {
    case Stage::kEnqueue: return "enqueue";
    case Stage::kAggregate: return "aggregate";
    case Stage::kFlush: return "flush";
    case Stage::kWireSend: return "wire-send";
    case Stage::kDeliver: return "deliver";
    case Stage::kResolve: return "resolve";
    case Stage::kGauge: return "gauge";
  }
  return "?";
}

/// Number of message stages (kGauge excluded).
inline constexpr int kMessageStages = 6;

/// Message kind carried in TraceEvent::kind — the rt::Command value of the
/// traced message, rendered for metric labels. Kept here (duplicating the
/// numeric values of rt::Command) so the obs layer stays free of runtime
/// includes.
inline const char* messageKindName(std::uint8_t kind) noexcept {
  switch (kind) {
    case 0: return "put";      // rt::Command::kPut
    case 1: return "inc";      // rt::Command::kAtomicInc
    case 2: return "am";       // rt::Command::kActiveMessage
    case 3: return "control";  // rt::Command::kControl
  }
  return "?";
}

/// One recorded event, 32 bytes. For message stages `id` is the sampled
/// trace ID (1..65535, or 0 for flight-recorder-only events when sampling
/// is off) and `value` carries the symmetric-heap address (a cheap payload
/// correlator); for kGauge `id` names the gauge and `value` is the sample.
/// `node` is 16 bits wide so Fig-12-style scaling runs past 256 nodes
/// record unaliased ids (ClusterConfig::validate bounds nodes at 65536 to
/// match). `aux` is the message's destination node for every message stage
/// (deliver/resolve record at the destination itself). `kind` is the
/// message's rt::Command, keying the latency-attribution histograms.
struct TraceEvent {
  std::uint64_t ts_ns = 0;  ///< nanoseconds since the tracer's epoch
  std::uint64_t value = 0;
  std::uint32_t id = 0;
  std::uint16_t node = 0;  ///< node whose pipeline recorded the event
  std::uint16_t aux = 0;   ///< destination node for message stages
  Stage stage = Stage::kEnqueue;
  std::uint8_t kind = 0;  ///< rt::Command of the message (messageKindName)
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay 32 bytes");

/// Well-known gauge IDs (TraceEvent::id when stage == kGauge).
enum class Gauge : std::uint32_t {
  kGpuQueueDepth = 1,  ///< reserved-but-unrouted Gravel queue slots
  kAggBufferFill = 2,  ///< messages sitting in per-destination buffers
  kFabricPending = 3,  ///< unresolved (or unacked) batches in the fabric
  kReorderDepth = 4,   ///< parked out-of-order batches (reliability layer)
};

inline const char* gaugeName(Gauge g) noexcept {
  switch (g) {
    case Gauge::kGpuQueueDepth: return "gpu_queue_depth";
    case Gauge::kAggBufferFill: return "agg_buffer_fill";
    case Gauge::kFabricPending: return "fabric_pending";
    case Gauge::kReorderDepth: return "reorder_depth";
  }
  return "?";
}

}  // namespace gravel::obs
