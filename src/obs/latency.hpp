// Online latency attribution: consumes sampled TraceEvent stage pairs
// (enqueue -> aggregate -> flush -> wire-send -> deliver -> resolve) and
// maintains per-transition and end-to-end Pow2Histograms, overall and keyed
// by (destination node, message kind). This is the piece that answers
// "which pipeline stage dominates p99?" (ISSUE 5) — the registry publishes
// its histograms and percentile gauges, tools/latency_report.py renders the
// table and names the bottleneck, and ClusterRunStats carries the summary
// into the benches.
//
// The engine is *online*: ingest(tracer) consumes only the events appended
// since the previous call (per-buffer cursors over the release-published
// counts), so the monitor thread can tick it continuously during a run.
// Events for one trace ID arrive unordered across buffers (each recording
// thread owns its own). Trace IDs are 16-bit and wrap, so one ID names many
// messages over a run; each stage is paired with the incarnation whose
// enqueue precedes it in time:
//   - an enqueue discards the stages recorded for its ID that are older
//     than it (an earlier incarnation's stragglers);
//   - once an incarnation has its enqueue, a stage older than that enqueue
//     is dropped, and a repeated stage (a retransmitted wire-send) keeps
//     the first timestamp;
//   - before the enqueue arrives, a repeated stage keeps the newer
//     timestamp, since the older one belongs to an earlier incarnation;
//   - transitions are counted only once the enqueue is present, each at
//     most once, and the incarnation is forgotten when all six stages are
//     in. open_ therefore holds only incomplete samples: in flight, lost,
//     or a wire-send retransmitted after its incarnation completed.
// An enqueue for an ID whose previous incarnation never completed starts
// afresh; that needs 65 535 samples in flight, or a lost message.
//
// Single-owner by design: nothing here locks — the owner (Cluster) guards
// ingest/read with its own mutex, keeping this file clean under the
// hot-path lint it is listed in.
//
// gravel-lint: hot-path
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/stage.hpp"
#include "obs/trace.hpp"

namespace gravel::obs {

/// Label for the transition out of stage `t` ("enqueue_to_aggregate", ...),
/// the `stage=` label of the lat.stage_* rows.
inline std::string transitionLabel(int t) {
  return std::string(stageName(Stage(t))) + "_to_" +
         stageName(Stage(t + 1));
}

class LatencyAttribution {
 public:
  /// Transitions between adjacent message stages.
  static constexpr int kTransitions = kMessageStages - 1;

  /// Per-transition + end-to-end histogram bundle.
  struct Hists {
    Pow2Histogram stage[kTransitions];
    Pow2Histogram e2e;
  };

  /// Percentile roll-up for ClusterRunStats and quick assertions.
  struct Summary {
    double stage_p50_ns[kTransitions] = {};
    double stage_p99_ns[kTransitions] = {};
    std::uint64_t stage_count[kTransitions] = {};
    double e2e_p50_ns = 0;
    double e2e_p99_ns = 0;
    std::uint64_t e2e_count = 0;
    int bottleneck = -1;  ///< transition with the largest p99, -1 if none
  };

  /// Consumes every event appended to the tracer's buffers since the last
  /// ingest. Safe concurrent with recording threads (reads below the
  /// release-published counts); callers serialize ingest/read themselves.
  // gravel-analyze: cold — monitor-thread cadence, not a record site.
  void ingest(const Tracer& tracer) {
    for (const ThreadContext* c : tracer.buffers()) {
      const TraceBuffer& b = *c->buffer;
      std::size_t& cursor = cursors_[&b];
      const std::size_t n = b.size();
      for (; cursor < n; ++cursor) consume(b[cursor]);
    }
  }

  /// Ingests one event directly (unit tests drive this with synthetic
  /// timestamps; ingest() is a loop over it).
  void consume(const TraceEvent& e) {
    if (e.stage == Stage::kGauge || e.id == 0) return;
    const int s = int(e.stage);
    if (s >= kMessageStages) return;
    const std::uint8_t bit = std::uint8_t(1u << s);
    Open& o = open_[e.id];
    const bool anchored = (o.seen & kEnqueueBit) != 0;
    if (e.stage == Stage::kEnqueue) {
      if (anchored)
        o = Open{};  // the previous incarnation never completed
      else
        dropOlderThan(o, e.ts_ns);
    } else if (anchored) {
      // An earlier incarnation's straggler, or a duplicate: keep the first.
      if (e.ts_ns < o.ts[0] || (o.seen & bit) != 0) return;
    } else if ((o.seen & bit) != 0 && e.ts_ns <= o.ts[s]) {
      return;  // the recorded one is newer: this is the straggler
    }
    o.ts[s] = e.ts_ns;
    o.seen |= bit;
    o.dest = e.aux;
    o.kind = e.kind;
    if ((o.seen & kEnqueueBit) == 0) return;  // pair once anchored
    Hists& keyed = keyed_[{o.dest, o.kind}];
    for (int t = 0; t < kTransitions; ++t) tryPair(o, t, keyed);
    constexpr std::uint8_t kEnds = kEnqueueBit | (1u << int(Stage::kResolve));
    if ((o.seen & kEnds) == kEnds && (o.paired & kE2eBit) == 0) {
      o.paired |= kE2eBit;
      const std::uint64_t a = o.ts[int(Stage::kEnqueue)];
      const std::uint64_t b = o.ts[int(Stage::kResolve)];
      if (b >= a) {
        total_.e2e.add(b - a);
        keyed.e2e.add(b - a);
      }
    }
    if (o.seen == kAllStages) open_.erase(e.id);
  }

  /// Sampled messages whose six stages are not all in yet.
  std::size_t openSamples() const noexcept { return open_.size(); }

  const Hists& overall() const noexcept { return total_; }
  const std::map<std::pair<std::uint16_t, std::uint8_t>, Hists>& keyed()
      const noexcept {
    return keyed_;
  }

  Summary summary() const {
    Summary s;
    double worst = -1.0;
    for (int t = 0; t < kTransitions; ++t) {
      s.stage_count[t] = total_.stage[t].total();
      if (s.stage_count[t] == 0) continue;
      s.stage_p50_ns[t] = total_.stage[t].quantile(0.50);
      s.stage_p99_ns[t] = total_.stage[t].quantile(0.99);
      if (s.stage_p99_ns[t] > worst) {
        worst = s.stage_p99_ns[t];
        s.bottleneck = t;
      }
    }
    s.e2e_count = total_.e2e.total();
    if (s.e2e_count != 0) {
      s.e2e_p50_ns = total_.e2e.quantile(0.50);
      s.e2e_p99_ns = total_.e2e.quantile(0.99);
    }
    return s;
  }

  /// Publishes histograms + percentile gauges into the registry:
  ///   lat.stage_ns{stage=...}            pooled per-transition histograms
  ///   lat.stage_p50_ns / lat.stage_p99_ns{stage=...}
  ///   lat.e2e_ns / lat.e2e_p50_ns / lat.e2e_p99_ns
  ///   lat.stage_ns{dest=D,kind=K,stage=...}, lat.e2e_ns{dest=D,kind=K}
  ///   lat.bottleneck_stage               index of the worst transition
  // gravel-analyze: cold — collector cadence.
  void publish(MetricsRegistry& metrics) const {
    for (int t = 0; t < kTransitions; ++t) {
      if (total_.stage[t].total() == 0) continue;
      const std::string label = "stage=" + transitionLabel(t);
      metrics.setHistogram("lat.stage_ns", label, total_.stage[t]);
      metrics.setGauge("lat.stage_p50_ns", label,
                       total_.stage[t].quantile(0.50));
      metrics.setGauge("lat.stage_p99_ns", label,
                       total_.stage[t].quantile(0.99));
    }
    if (total_.e2e.total() != 0) {
      metrics.setHistogram("lat.e2e_ns", "", total_.e2e);
      metrics.setGauge("lat.e2e_p50_ns", "", total_.e2e.quantile(0.50));
      metrics.setGauge("lat.e2e_p99_ns", "", total_.e2e.quantile(0.99));
    }
    const Summary s = summary();
    if (s.bottleneck >= 0)
      metrics.setGauge("lat.bottleneck_stage", "", double(s.bottleneck));
    for (const auto& [key, h] : keyed_) {
      const std::string kl = "dest=" + std::to_string(key.first) +
                             ",kind=" + messageKindName(key.second);
      for (int t = 0; t < kTransitions; ++t)
        if (h.stage[t].total() != 0)
          metrics.setHistogram("lat.stage_ns",
                               kl + ",stage=" + transitionLabel(t),
                               h.stage[t]);
      if (h.e2e.total() != 0) metrics.setHistogram("lat.e2e_ns", kl, h.e2e);
    }
  }

 private:
  static constexpr std::uint8_t kE2eBit = 1u << 7;
  static constexpr std::uint8_t kEnqueueBit = 1u << int(Stage::kEnqueue);
  static constexpr std::uint8_t kAllStages = (1u << kMessageStages) - 1;

  /// One in-flight sampled message: earliest timestamp per stage, which
  /// stages were seen, which transitions (and e2e, bit 7) were counted.
  struct Open {
    std::uint64_t ts[kMessageStages] = {};
    std::uint8_t seen = 0;
    std::uint8_t paired = 0;
    std::uint16_t dest = 0;
    std::uint8_t kind = 0;
  };

  /// Forgets the recorded stages older than an arriving enqueue at `ts`:
  /// they belong to an earlier incarnation of the trace ID. Nothing was
  /// paired yet, since pairing waits for the enqueue.
  static void dropOlderThan(Open& o, std::uint64_t ts) {
    for (int s = 0; s < kMessageStages; ++s)
      if (o.ts[s] < ts) o.seen &= std::uint8_t(~(1u << s));
  }

  /// Counts transition t (stage t -> t+1) once both endpoints are present.
  void tryPair(Open& o, int t, Hists& keyed) {
    if (t < 0 || t >= kTransitions) return;
    const auto need = std::uint8_t((1u << t) | (1u << (t + 1)));
    if ((o.seen & need) != need || (o.paired & (1u << t)) != 0) return;
    o.paired |= std::uint8_t(1u << t);
    // A later stage timestamped before an earlier one means the two reads
    // of the steady clock raced on different cores at sub-tick resolution;
    // skip the sample rather than record a bogus huge unsigned delta.
    if (o.ts[t + 1] < o.ts[t]) return;
    const std::uint64_t d = o.ts[t + 1] - o.ts[t];
    total_.stage[t].add(d);
    keyed.stage[t].add(d);
  }

  Hists total_;
  std::map<std::pair<std::uint16_t, std::uint8_t>, Hists> keyed_;
  std::map<const TraceBuffer*, std::size_t> cursors_;
  std::map<std::uint32_t, Open> open_;
};

}  // namespace gravel::obs
