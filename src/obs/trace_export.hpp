// Perfetto/Chrome-trace JSON export of a Tracer's buffers.
//
// Output is the Chrome trace-event JSON format (https://ui.perfetto.dev
// opens it directly): one track (tid) per recording thread — aggregator,
// network, GPU scheduler, sampler — carrying a short "X" slice per recorded
// message stage, flow events ("s"/"t"/"f") chaining each sampled message's
// stages across tracks, and "C" counter tracks for the depth gauges.
#pragma once

#include <algorithm>
#include <cstdint>
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
    const TraceBuffer& b = *buffers[t];
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

}  // namespace gravel::obs
