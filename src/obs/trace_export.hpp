// JSON exports of a Tracer: the Perfetto/Chrome trace of its sampled
// buffers, and the flight-recorder dump of its rings.
//
// The trace is in the Chrome trace-event JSON format (https://ui.perfetto.dev
// opens it directly): one track (tid) per recording thread — aggregator,
// network, GPU scheduler, sampler — carrying a short "X" slice per recorded
// message stage, flow events ("s"/"t"/"f") chaining each sampled message's
// stages across tracks, and "C" counter tracks for the depth gauges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gravel::obs {

namespace detail {

/// Chrome trace timestamps are microseconds (doubles are accepted).
inline double toUs(std::uint64_t ns) { return double(ns) / 1000.0; }

struct FlowPoint {
  std::uint64_t ts_ns;
  int tid;
  Stage stage;
};

}  // namespace detail

/// Writes the whole trace as Chrome trace-event JSON. `process` names the
/// process track ("gravel" by default).
inline void writeChromeTrace(std::ostream& os, const Tracer& tracer,
                             const std::string& process = "gravel") {
  const auto buffers = tracer.buffers();
  JsonWriter w(os);
  w.beginObject();
  w.kv("displayTimeUnit", "ns");
  w.key("otherData").beginObject();
  w.kv("sample_interval", std::uint64_t(tracer.config().sample_interval));
  w.kv("dropped_events", tracer.droppedEvents());
  w.endObject();
  w.key("traceEvents").beginArray();

  // Process + thread name metadata.
  w.beginObject()
      .kv("name", "process_name")
      .kv("ph", "M")
      .kv("pid", 1)
      .key("args")
      .beginObject()
      .kv("name", process)
      .endObject()
      .endObject();
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    w.beginObject()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", 1)
        .kv("tid", std::uint64_t(t + 1))
        .key("args")
        .beginObject()
        .kv("name", buffers[t]->name())
        .endObject()
        .endObject();
  }

  // Pass 1: slices and counters, gathering flow points per trace ID.
  std::map<std::uint32_t, std::vector<detail::FlowPoint>> flows;
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    const TraceBuffer& b = *buffers[t]->buffer;
    const std::size_t n = b.size();
    const int tid = int(t + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = b[i];
      if (e.stage == Stage::kGauge) {
        // Counter track, one per (gauge, node).
        w.beginObject()
            .kv("name", std::string(gaugeName(Gauge(e.id))) + ".node" +
                            std::to_string(e.node))
            .kv("ph", "C")
            .kv("pid", 1)
            .kv("ts", detail::toUs(e.ts_ns))
            .key("args")
            .beginObject()
            .kv("value", e.value)
            .endObject()
            .endObject();
        continue;
      }
      w.beginObject()
          .kv("name", stageName(e.stage))
          .kv("cat", "msg")
          .kv("ph", "X")
          .kv("pid", 1)
          .kv("tid", std::uint64_t(tid))
          .kv("ts", detail::toUs(e.ts_ns))
          .kv("dur", 1.0)
          .key("args")
          .beginObject()
          .kv("trace_id", std::uint64_t(e.id))
          .kv("node", std::uint64_t(e.node))
          .kv("dest", std::uint64_t(e.aux))
          .kv("addr", e.value)
          .endObject()
          .endObject();
      flows[e.id].push_back(detail::FlowPoint{e.ts_ns, tid, e.stage});
    }
  }

  // Pass 2: flow events following each sampled message across tracks.
  // Chrome semantics: "s" starts a flow at a slice, "t" steps through
  // intermediate slices, "f" (bp:"e") binds the arrow head to the enclosing
  // slice. A flow needs >= 2 points to draw anything.
  for (auto& [id, points] : flows) {
    if (points.size() < 2) continue;
    std::stable_sort(points.begin(), points.end(),
                     [](const detail::FlowPoint& a, const detail::FlowPoint& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    for (std::size_t i = 0; i < points.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      w.beginObject()
          .kv("name", "message")
          .kv("cat", "flow")
          .kv("ph", ph)
          .kv("id", std::uint64_t(id))
          .kv("pid", 1)
          .kv("tid", std::uint64_t(points[i].tid))
          .kv("ts", detail::toUs(points[i].ts_ns));
      if (ph[0] == 'f') w.kv("bp", "e");
      w.endObject();
    }
  }

  w.endArray().endObject();
}

/// Serializes every thread's flight ring as gravel_flightrec.json:
///   {"reason": ..., "now_ns": ..., "threads": [{"name", "recorded",
///    "capacity", "overwritten", "events": [{...}, ...]}, ...]}
/// Events carry ts_ns/stage/id/node/dest/value/kind; id 0 means the event
/// was recorded outside sampling (flight-only). Threads without a ring
/// (flight recording off) are not listed. `extra`, when given, is invoked
/// after the header keys to append caller-owned top-level keys (the
/// Cluster injects its membership/degraded-mode block this way — this
/// layer cannot see runtime types). Safe concurrent with writers (see
/// FlightRing::snapshot).
inline void writeFlightRecorderJson(
    std::ostream& os, const Tracer& tracer, const std::string& reason,
    std::uint64_t now_ns,
    const std::function<void(JsonWriter&)>& extra = nullptr) {
  JsonWriter w(os);
  w.beginObject();
  w.kv("reason", reason);
  w.kv("now_ns", now_ns);
  if (extra) extra(w);
  w.key("threads").beginArray();
  for (const ThreadContext* t : tracer.contexts()) {
    if (!t->ring) continue;
    const std::uint64_t recorded = t->ring->recorded();
    const std::uint64_t cap = t->ring->capacity();
    w.beginObject();
    w.kv("name", t->name());
    w.kv("recorded", recorded);
    w.kv("capacity", cap);
    w.kv("overwritten", recorded > cap ? recorded - cap : 0);
    w.key("events").beginArray();
    for (const TraceEvent& e : t->ring->snapshot()) {
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
