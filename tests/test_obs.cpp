// Observability layer: metrics registry snapshot/delta/export semantics,
// message-lifecycle tracing through a real cluster run (including a hostile
// wire), and the Chrome-trace exporter's output shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/status_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "runtime/cluster.hpp"

namespace gravel {
namespace {

using obs::MetricKind;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Stage;
using obs::TraceConfig;
using obs::TraceEvent;
using obs::Tracer;

// --- JSON well-formedness (structural, no parser dependency) ---------------

/// Checks brace/bracket balance and quote pairing outside of strings — the
/// failure modes a hand-rolled writer can actually have.
bool jsonBalanced(const std::string& s) {
  int depth = 0;
  bool inString = false, escaped = false;
  for (char ch : s) {
    if (inString) {
      if (escaped)
        escaped = false;
      else if (ch == '\\')
        escaped = true;
      else if (ch == '"')
        inString = false;
      continue;
    }
    switch (ch) {
      case '"': inString = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !inString;
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, RegistryRoundTripsKinds) {
  MetricsRegistry reg;
  reg.setCounter("msgs", "node=0", 42);
  reg.setGauge("depth", "", 7.5);
  reg.observe("lat", "", 10.0);
  reg.observe("lat", "", 30.0);
  reg.observeHistogram("size", "", 8);

  const MetricsSnapshot s = reg.snapshot();
  ASSERT_TRUE(s.contains("msgs", "node=0"));
  EXPECT_EQ(s.find("msgs", "node=0")->kind, MetricKind::kCounter);
  EXPECT_EQ(s.number("msgs", "node=0"), 42.0);
  EXPECT_EQ(s.number("depth"), 7.5);
  const obs::MetricValue* lat = s.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_EQ(lat->mean(), 20.0);
  EXPECT_EQ(lat->min, 10.0);
  EXPECT_EQ(lat->max, 30.0);
  const obs::MetricValue* size = s.find("size");
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(size->kind, MetricKind::kHistogram);
  // 8 lands in bucket [2^3, 2^4) = index 4 under the 64-countl_zero rule.
  EXPECT_EQ(size->buckets[4], 1u);
  EXPECT_EQ(s.number("absent"), 0.0);
}

TEST(Metrics, DeltaWindowsCountersAndKeepsGauges) {
  MetricsRegistry reg;
  reg.setCounter("sent", "", 100);
  reg.setGauge("depth", "", 5);
  reg.observe("lat", "", 10);
  const MetricsSnapshot base = reg.snapshot();

  reg.setCounter("sent", "", 140);
  reg.setGauge("depth", "", 2);
  reg.observe("lat", "", 20);
  const MetricsSnapshot now = reg.snapshot();

  const MetricsSnapshot d = now.delta(base);
  EXPECT_EQ(d.number("sent"), 40.0);    // counter: subtracted
  EXPECT_EQ(d.number("depth"), 2.0);    // gauge: current level
  const obs::MetricValue* lat = d.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 1u);            // stat: window count
  EXPECT_EQ(lat->mean(), 20.0);         // window sum / window count
}

TEST(Metrics, JsonAndCsvExportAreWellFormed) {
  MetricsRegistry reg;
  reg.setCounter("a.count", "node=0", 3);
  reg.setGauge("b.level", "link=0->1", 1.5);
  reg.observe("c.stat", "", 2.0);
  reg.observeHistogram("d.hist", "", 1024);
  const MetricsSnapshot s = reg.snapshot();

  std::ostringstream json;
  s.toJson(json);
  EXPECT_TRUE(jsonBalanced(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.str().find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.str().find("\"link=0->1\""), std::string::npos);

  std::ostringstream csv;
  s.toCsv(csv);
  EXPECT_EQ(csv.str().rfind("name,labels,kind,count,value,min,max\n", 0), 0u);
  // Header + one row per metric.
  std::size_t lines = 0;
  for (char ch : csv.str())
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 1 + s.metrics.size());
}

// --- Tracer ----------------------------------------------------------------

TEST(Trace, DisabledTracerRecordsNothing) {
  TraceConfig cfg;  // enabled = false
  Tracer t(cfg);
  EXPECT_EQ(t.maybeSample(), 0u);
  t.recordStage(t.nowNs(), Stage::kEnqueue, 1, 0, 0, 0);
  t.recordGauge(obs::Gauge::kGpuQueueDepth, 0, 5);
  t.nameThread("ignored");
  EXPECT_TRUE(t.allEvents().empty());
  EXPECT_TRUE(t.buffers().empty());
}

TEST(Trace, SamplingHonorsIntervalAndNeverReturnsZero) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.sample_interval = 4;
  Tracer t(cfg);
  std::uint32_t sampled = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t id = t.maybeSample();
    if (id != 0) ++sampled;
    EXPECT_LE(id, 0xffffu);
  }
  EXPECT_EQ(sampled, 16u);  // 1 in 4
  EXPECT_EQ(t.sampledCandidates(), 64u);
}

TEST(Trace, NodeIdsWiderThanAByteSurviveRecording) {
  // Fig-12-style scaling sweeps can run hundreds of nodes; the event's node
  // field is 16 bits so ids >= 256 must round-trip unaliased (they used to
  // be truncated through a uint8_t cast at every record site).
  TraceConfig cfg;
  cfg.enabled = true;
  Tracer t(cfg);
  t.recordStage(t.nowNs(), Stage::kEnqueue, 1, /*node=*/300, /*dest=*/65535,
                7);
  t.recordGauge(obs::Gauge::kGpuQueueDepth, /*node=*/40000, 5);
  const auto events = t.allEvents();
  ASSERT_EQ(events.size(), 2u);
  for (const TraceEvent& e : events) {
    if (e.stage == Stage::kGauge) {
      EXPECT_EQ(e.node, 40000u);
    } else {
      EXPECT_EQ(e.node, 300u);
      EXPECT_EQ(e.aux, 65535u);
    }
  }
}

TEST(Trace, BufferOverflowDropsAndCounts) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.buffer_events = 4;
  Tracer t(cfg);
  for (std::uint32_t i = 0; i < 10; ++i)
    t.recordStage(t.nowNs(), Stage::kEnqueue, i + 1, 0, 0, i);
  EXPECT_EQ(t.allEvents().size(), 4u);
  EXPECT_EQ(t.droppedEvents(), 6u);
}

// --- End-to-end through a cluster run --------------------------------------

rt::ClusterConfig tracedConfig() {
  rt::ClusterConfig c;
  c.nodes = 2;
  c.heap_bytes = 1 << 20;
  c.gpu_queue_bytes = 1 << 13;
  c.pernode_queue_bytes = 512;
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  c.quiet_deadline = std::chrono::milliseconds(60000);
  c.obs.enabled = true;
  c.obs.sample_interval = 1;  // trace every message
  c.obs.gauge_period = std::chrono::microseconds(200);
  return c;
}

void runTracedWorkload(rt::Cluster& cluster) {
  auto slots = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(128, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, (n + 1) % 2, slots.at(wi.globalId() % 64));
  });
}

TEST(Trace, ClusterRunProducesOrderedLifecycles) {
  rt::Cluster cluster(tracedConfig());
  runTracedWorkload(cluster);

  // Every message is sampled (sample_interval = 1), and the latency engine
  // counts a transition only when both its stages were seen in order. So
  // each transition's count equals the end-to-end count exactly when every
  // message was seen at every stage, in pipeline order:
  // enqueue -> aggregate -> flush -> wire-send -> deliver -> resolve.
  const MetricsSnapshot snap = cluster.collectMetrics();
  const obs::MetricValue* e2e = snap.find("lat.e2e_ns");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 256u);  // 2 nodes x 128 work-items
  for (int t = 0; t < obs::LatencyAttribution::kTransitions; ++t) {
    const std::string stage = "stage=" + obs::transitionLabel(t);
    const obs::MetricValue* hist = snap.find("lat.stage_ns", stage);
    ASSERT_NE(hist, nullptr) << stage;
    EXPECT_EQ(hist->count, e2e->count) << stage;
  }
}

TEST(Trace, ChromeTraceExportHasFlowsAndCounters) {
  rt::Cluster cluster(tracedConfig());
  runTracedWorkload(cluster);
  // The depth-gauge counter events come from the monitor's first tick,
  // which a run this short can beat.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.collectMetrics().number("monitor.ticks") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::ostringstream os;
  cluster.writeTrace(os);
  const std::string j = os.str();
  EXPECT_TRUE(jsonBalanced(j));
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
  // Named pipeline tracks.
  EXPECT_NE(j.find("agg.0.0"), std::string::npos);
  EXPECT_NE(j.find("net.0"), std::string::npos);
  EXPECT_NE(j.find("gpu.0"), std::string::npos);
  // Message slices for every stage.
  for (int s = 0; s < obs::kMessageStages; ++s)
    EXPECT_NE(j.find(std::string("\"") + obs::stageName(Stage(s)) + "\""),
              std::string::npos)
        << obs::stageName(Stage(s));
  // At least one full flow chain: start, step, finish (with binding point).
  EXPECT_NE(j.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(j.find("\"bp\":\"e\""), std::string::npos);
  // Depth-gauge counter tracks from the sampler thread.
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("gpu_queue_depth"), std::string::npos);
}

TEST(Trace, SurvivesFaultyWireWithReliability) {
  // The trace ID lives in the message's cmd word, so it must survive drops,
  // duplicates, reordering and retransmission — complete flows included.
  rt::ClusterConfig c = tracedConfig();
  c.fault.seed = 5;
  c.fault.drop_prob = 0.15;
  c.fault.dup_prob = 0.05;
  c.fault.reorder_prob = 0.25;
  c.reliability.enabled = true;
  c.reliability.rto_base = std::chrono::microseconds(500);
  c.reliability.rto_max = std::chrono::microseconds(8000);
  rt::Cluster cluster(c);
  runTracedWorkload(cluster);

  // Sampled messages still crossed every transition end to end.
  const MetricsSnapshot snap = cluster.collectMetrics();
  ASSERT_NE(snap.find("lat.e2e_ns"), nullptr);
  EXPECT_GT(snap.find("lat.e2e_ns")->count, 0u);
  for (int t = 0; t < obs::LatencyAttribution::kTransitions; ++t)
    EXPECT_TRUE(
        snap.contains("lat.stage_ns", "stage=" + obs::transitionLabel(t)))
        << obs::transitionLabel(t);

  std::ostringstream os;
  cluster.writeTrace(os);
  EXPECT_TRUE(jsonBalanced(os.str()));

  // The registry snapshot carries the fault/reliability counters too. Any
  // dropped batch — data or ACK — can only have been healed by at least one
  // retransmission.
  EXPECT_GT(snap.number("fault.drops") + snap.number("fault.duplicates"), 0.0);
  if (snap.number("fault.drops") > 0.0) {
    EXPECT_GT(snap.number("fabric.retransmits"), 0.0);
  }
  EXPECT_GT(snap.number("trace.candidates"), 0.0);
}

TEST(Trace, ClusterMetricsSnapshotCoversPipeline) {
  rt::Cluster cluster(tracedConfig());
  runTracedWorkload(cluster);
  // The gauge rows appear on the monitor's first tick, which a run this
  // short can beat.
  MetricsSnapshot snap = cluster.collectMetrics();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (snap.number("monitor.ticks") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    snap = cluster.collectMetrics();
  }

  // 2 nodes x 128 work-items, every op a shmemInc.
  EXPECT_EQ(snap.number("ops.inc_local", "node=0") +
                snap.number("ops.inc_remote", "node=0"),
            128.0);
  EXPECT_EQ(snap.number("agg.messages_routed", "node=0") +
                snap.number("agg.messages_routed", "node=1"),
            256.0);
  EXPECT_EQ(snap.number("net.messages_resolved", "node=0") +
                snap.number("net.messages_resolved", "node=1"),
            256.0);
  EXPECT_EQ(snap.number("fabric.messages"),
            snap.number("ops.inc_remote", "node=0") +
                snap.number("ops.inc_remote", "node=1"));
  // The gauge sampler fed depth histograms on its cadence.
  EXPECT_TRUE(snap.contains("gpu_queue.depth", "node=0"));
  EXPECT_TRUE(snap.contains("fabric.pending"));
  // Sampled end-to-end latency made it into the registry.
  EXPECT_TRUE(snap.contains("lat.e2e_ns"));

  std::ostringstream json;
  cluster.writeMetricsJson(json);
  EXPECT_TRUE(jsonBalanced(json.str()));
}

TEST(Trace, LaunchesReuseEachNodesObsState) {
  // Each node's GPU worker outlives its launches, so 30 rounds register no
  // more trace buffers, flight rings or profiler threads than the first.
  // No monitor thread (no gauge duty, no watchdog): it would register on
  // its own schedule, possibly after round 1.
  rt::ClusterConfig c = tracedConfig();
  c.nodes = 4;
  c.obs.gauge_period = std::chrono::microseconds(0);
  c.watchdog.enabled = false;
  c.profiler.enabled = true;
  rt::Cluster cluster(c);
  auto slots = cluster.alloc<std::uint64_t>(64);
  std::size_t buffers = 0, rings = 0, profiled = 0;
  for (int round = 1; round <= 30; ++round) {
    cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
      cluster.node(n).shmemInc(wi, (n + 1) % 4, slots.at(wi.globalId() % 64));
    });
    if (round == 1) {
      buffers = cluster.tracer().buffers().size();
      rings = cluster.tracer().flightRecorder().threads().size();
      profiled = cluster.profiler().sample().size();
    }
  }
  EXPECT_EQ(cluster.tracer().buffers().size(), buffers);
  EXPECT_EQ(cluster.tracer().flightRecorder().threads().size(), rings);
  EXPECT_EQ(cluster.profiler().sample().size(), profiled);
  std::vector<std::string> gpuTracks;
  for (const obs::TraceBuffer* b : cluster.tracer().buffers())
    if (b->name().rfind("gpu.", 0) == 0) gpuTracks.push_back(b->name());
  std::sort(gpuTracks.begin(), gpuTracks.end());
  EXPECT_EQ(gpuTracks,
            (std::vector<std::string>{"gpu.0", "gpu.1", "gpu.2", "gpu.3"}));
  EXPECT_EQ(cluster.tracer().droppedEvents(), 0u);
  EXPECT_EQ(cluster.runStats().net_resolved, 30u * 4 * 64);

  lockprof::setEnabled(false);
  lockprof::reset();
}

TEST(Trace, DisabledObservabilityLeavesMessagesUnstamped) {
  rt::ClusterConfig c = tracedConfig();
  c.obs.enabled = false;
  c.obs.gauge_period = std::chrono::microseconds(0);
  rt::Cluster cluster(c);
  runTracedWorkload(cluster);
  EXPECT_TRUE(cluster.tracer().allEvents().empty());
  EXPECT_EQ(cluster.tracer().sampledCandidates(), 0u);
  std::ostringstream os;
  cluster.writeTrace(os);
  EXPECT_TRUE(jsonBalanced(os.str()));  // valid, just empty of events
}

// --- NetMessage trace-ID stamping ------------------------------------------

TEST(Trace, TraceIdRoundTripsThroughCmdWord) {
  rt::NetMessage m = rt::NetMessage::put(3, 0x1000, 42);
  EXPECT_EQ(m.traceId(), 0u);
  m.setTraceId(0xbeef);
  EXPECT_EQ(m.traceId(), 0xbeefu);
  // Stamping must not disturb the command or the payload.
  EXPECT_EQ(m.command(), rt::Command::kPut);
  EXPECT_EQ(m.dest, 3u);
  EXPECT_EQ(m.addr, 0x1000u);
  EXPECT_EQ(m.value, 42u);
  m.setTraceId(0);
  EXPECT_EQ(m.traceId(), 0u);
  EXPECT_EQ(m.command(), rt::Command::kPut);
}

// --- Flight recorder -------------------------------------------------------

TEST(FlightRec, RingKeepsLastEventsAndSkipsLiveSlotWhenWrapped) {
  obs::FlightRing ring(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);

  TraceEvent e{};
  for (std::uint64_t i = 0; i < 3; ++i) {
    e.value = i;
    ring.record(e);
  }
  // Not yet wrapped: every recorded event is visible.
  auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(snap[i].value, i);

  for (std::uint64_t i = 3; i < 10; ++i) {
    e.value = i;
    ring.record(e);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  // Wrapped: the single oldest retained slot is skipped (it is the one a
  // live writer could be overwriting), so the last capacity-1 remain.
  snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(snap[i].value, 7 + i);
}

TEST(FlightRec, SnapshotNeverHoldsATornEvent) {
  // The writer laps an 8-slot ring over and over while a reader snapshots
  // it. Every field of event c derives from c, so a torn copy (words from
  // two different events) shows as an inconsistent event.
  obs::FlightRing ring(8);
  constexpr std::uint64_t kEvents = 200000;
  std::atomic<bool> done{false};
  std::thread writer([&ring, &done] {
    for (std::uint64_t c = 0; c < kEvents; ++c) {
      TraceEvent e{};
      e.ts_ns = c;
      e.value = ~c;
      e.id = std::uint32_t(c * 7);
      e.node = std::uint16_t(c >> 3);
      e.aux = std::uint16_t(c * 5);
      e.stage = Stage(c % obs::kMessageStages);
      e.kind = std::uint8_t(c % 3);
      ring.record(e);
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t snapshots = 0, torn = 0, gaps = 0;
  while (!done.load(std::memory_order_acquire)) {
    const std::vector<TraceEvent> snap = ring.snapshot();
    ++snapshots;
    EXPECT_LT(snap.size(), ring.capacity());
    for (std::size_t i = 0; i < snap.size(); ++i) {
      const TraceEvent& e = snap[i];
      const std::uint64_t c = e.ts_ns;
      if (e.value != ~c || e.id != std::uint32_t(c * 7) ||
          e.node != std::uint16_t(c >> 3) ||
          e.aux != std::uint16_t(c * 5) ||
          e.stage != Stage(c % obs::kMessageStages) ||
          e.kind != std::uint8_t(c % 3))
        ++torn;
      if (i > 0 && c != snap[i - 1].ts_ns + 1) ++gaps;  // oldest first
    }
  }
  writer.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(gaps, 0u);
  // Quiescent: the last capacity-1 events.
  const std::vector<TraceEvent> last = ring.snapshot();
  ASSERT_EQ(last.size(), ring.capacity() - 1);
  EXPECT_EQ(last.back().ts_ns, kEvents - 1);
}

TEST(FlightRec, RecorderRegistersThreadsLockFreeAndDumpsJson) {
  obs::FlightRecorder rec(8);
  ASSERT_TRUE(rec.enabled());
  TraceEvent e{};
  e.stage = Stage::kEnqueue;
  rec.record(e);
  rec.nameThread("main-thread");
  rec.nameThread("renamed");  // first name wins

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&rec, t] {
      TraceEvent w{};
      w.value = std::uint64_t(t);
      for (int i = 0; i < 20; ++i) rec.record(w);
      rec.nameThread("worker-" + std::to_string(t));
    });
  for (auto& w : workers) w.join();

  const auto threads = rec.threads();
  EXPECT_EQ(threads.size(), 5u);

  std::ostringstream os;
  obs::writeFlightRecorderJson(os, rec, "unit-test", 12345);
  const std::string j = os.str();
  EXPECT_TRUE(jsonBalanced(j));
  EXPECT_NE(j.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(j.find("main-thread"), std::string::npos);
  EXPECT_EQ(j.find("renamed"), std::string::npos);
  for (int t = 0; t < 4; ++t)
    EXPECT_NE(j.find("worker-" + std::to_string(t)), std::string::npos);
  // 20 events into an 8-slot ring: overwrites are reported.
  EXPECT_NE(j.find("\"overwritten\":12"), std::string::npos);
}

TEST(Trace, BuffersRegisterLockFreeAndFirstNameWins) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.sample_interval = 1;
  cfg.buffer_events = 64;
  Tracer t(cfg);
  t.recordStage(t.nowNs(), Stage::kEnqueue, 1, 0, 0);
  t.nameThread("main-thread");
  t.nameThread("renamed");  // first name wins

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w)
    workers.emplace_back([&t, w] {
      for (int i = 0; i < 20; ++i)
        t.recordStage(t.nowNs(), Stage::kAggregate, 1, std::uint16_t(w), 0);
      t.nameThread("worker-" + std::to_string(w));
    });
  // Registration and naming race a reader walking the registry, as a live
  // /metrics scrape or trace dump does. Every name it sees is whole.
  std::size_t torn = 0;
  std::thread reader([&t, &done, &torn] {
    while (!done.load(std::memory_order_acquire))
      for (const obs::TraceBuffer* b : t.buffers()) {
        const std::string& n = b->name();
        if (n != "main-thread" && n.rfind("thread-", 0) != 0 &&
            n.rfind("worker-", 0) != 0)
          ++torn;
      }
  });
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn, 0u);

  const auto buffers = t.buffers();
  ASSERT_EQ(buffers.size(), 5u);
  EXPECT_EQ(buffers.front()->name(), "main-thread");  // oldest first
  EXPECT_EQ(buffers.front()->size(), 1u);
  std::vector<std::string> names;
  for (const obs::TraceBuffer* b : buffers) names.push_back(b->name());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"main-thread", "worker-0",
                                             "worker-1", "worker-2",
                                             "worker-3"}));
  EXPECT_EQ(t.allEvents().size(), 81u);
}

TEST(FlightRec, ZeroCapacityDisablesRecording) {
  obs::FlightRecorder rec(0);
  EXPECT_FALSE(rec.enabled());
  rec.nameThread("ignored");
  EXPECT_TRUE(rec.threads().empty());
}

TEST(FlightRec, TracerRecordsUnsampledEventsToFlightRingOnly) {
  TraceConfig cfg;  // enabled = false, flightrec = true (default)
  Tracer t(cfg);
  EXPECT_FALSE(t.enabled());
  EXPECT_TRUE(t.active());  // flight recorder keeps record sites live
  t.recordStage(t.nowNs(), Stage::kEnqueue, 0, 1, 2, 99);  // id 0 = unsampled
  EXPECT_TRUE(t.allEvents().empty());           // sampled buffers untouched
  const auto threads = t.flightRecorder().threads();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0]->ring.recorded(), 1u);
  EXPECT_EQ(threads[0]->ring.snapshot()[0].value, 99u);

  TraceConfig off;
  off.flightrec = false;
  Tracer t2(off);
  EXPECT_FALSE(t2.active());  // both layers off: record sites fully dark
}

// --- Flight recorder on a cluster: one clock read per unit of work ---------

/// Four nodes, sampling off (the flight recorder alone, as shipped), and
/// rings large enough that none wraps in one test.
rt::ClusterConfig flightConfig() {
  rt::ClusterConfig c = tracedConfig();
  c.nodes = 4;
  c.obs.enabled = false;
  c.obs.gauge_period = std::chrono::microseconds(0);
  c.obs.flightrec_events = 1 << 14;
  return c;
}

/// Every ring's events with its track name. A wrapped ring fails the test:
/// its snapshot would not hold everything the thread recorded.
std::vector<std::pair<std::string, std::vector<TraceEvent>>> ringEvents(
    const rt::Cluster& cluster) {
  std::vector<std::pair<std::string, std::vector<TraceEvent>>> out;
  for (const auto* t : cluster.tracer().flightRecorder().threads()) {
    EXPECT_LT(t->ring.recorded(), t->ring.capacity()) << t->name();
    out.emplace_back(t->name(), t->ring.snapshot());
  }
  return out;
}

std::size_t countStage(const std::vector<TraceEvent>& events, Stage stage) {
  return std::size_t(std::count_if(
      events.begin(), events.end(),
      [stage](const TraceEvent& e) { return e.stage == stage; }));
}

/// Distinct timestamps among one stage's events: how many clock reads
/// stamped them.
std::size_t clockReads(const std::vector<TraceEvent>& events, Stage stage) {
  std::vector<std::uint64_t> ts;
  for (const TraceEvent& e : events)
    if (e.stage == stage) ts.push_back(e.ts_ns);
  std::sort(ts.begin(), ts.end());
  return std::size_t(std::unique(ts.begin(), ts.end()) - ts.begin());
}

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

constexpr std::uint32_t kFlightGrid = 256;  // lanes per node
constexpr std::uint32_t kFlightWg = 32;

/// One launch in which every lane sends one increment; a quarter of them
/// stay on their own node (still routed through the NI).
void runIncrements(rt::Cluster& cluster) {
  auto slots = cluster.alloc<std::uint64_t>(64);
  cluster.launchAll(kFlightGrid, kFlightWg,
                    [&](std::uint32_t n, simt::WorkItem& wi) {
                      cluster.node(n).shmemInc(
                          wi, (n + 1 + wi.localId()) % 4,
                          slots.at(wi.globalId() % 64));
                    });
}

TEST(FlightRec, EveryMessageLeavesOneEventPerStage) {
  rt::Cluster cluster(flightConfig());
  runIncrements(cluster);
  std::size_t perStage[obs::kMessageStages] = {};
  for (const auto& [name, events] : ringEvents(cluster))
    for (int s = 0; s < obs::kMessageStages; ++s) {
      const std::size_t n = countStage(events, Stage(s));
      perStage[s] += n;
      if (Stage(s) == Stage::kEnqueue && n != 0) {
        EXPECT_TRUE(startsWith(name, "gpu.")) << name;
      }
    }
  for (int s = 0; s < obs::kMessageStages; ++s)
    EXPECT_EQ(perStage[s], 4u * kFlightGrid) << obs::stageName(Stage(s));
}

TEST(FlightRec, OneClockReadPerWorkGroupSlotBatchAndDelivery) {
  rt::Cluster cluster(flightConfig());
  runIncrements(cluster);
  const auto rings = ringEvents(cluster);
  const rt::ClusterRunStats stats = cluster.runStats();
  // Batches carry several messages each, or one read per batch would be
  // indistinguishable from one per message.
  ASSERT_GT(stats.net_messages, 4 * stats.net_batches);
  std::size_t flushReads = 0, wireReads = 0, deliverReads = 0,
              resolveReads = 0;
  for (const auto& [name, events] : rings) {
    // Every group has an active lane, and each reserves one slot.
    if (startsWith(name, "gpu.")) {
      EXPECT_LE(clockReads(events, Stage::kEnqueue), kFlightGrid / kFlightWg)
          << name;
    }
    if (startsWith(name, "agg.")) {
      const std::uint32_t node = std::uint32_t(std::stoul(name.substr(4)));
      EXPECT_LE(clockReads(events, Stage::kAggregate),
                cluster.node(node).aggregator().slotsProcessedStat())
          << name;
    }
    flushReads += clockReads(events, Stage::kFlush);
    wireReads += clockReads(events, Stage::kWireSend);
    deliverReads += clockReads(events, Stage::kDeliver);
    resolveReads += clockReads(events, Stage::kResolve);
  }
  EXPECT_LE(flushReads, stats.net_batches);
  EXPECT_LE(wireReads, stats.net_batches);
  EXPECT_LE(deliverReads, stats.net_batches);
  EXPECT_LE(resolveReads, stats.net_batches);
}

TEST(FlightRec, PredicatedAndFbarGroupsRecordOneEnqueuePerActiveLane) {
  rt::Cluster cluster(flightConfig());
  auto slots = cluster.alloc<std::uint64_t>(64);
  const auto enqueues = [&cluster] {
    std::size_t n = 0;
    for (const auto& [name, events] : ringEvents(cluster))
      n += countStage(events, Stage::kEnqueue);
    return n;
  };
  // Software predication: every lane joins the reservation, only lanes
  // 0, 3, ..., 30 of each 32-lane group carry a message (11 per group).
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, (n + 1) % 4, slots.at(wi.localId()),
                             wi.localId() % 3 == 0);
  });
  const std::size_t predicated = enqueues();
  EXPECT_EQ(predicated, 4u * 2 * 11);
  // An fbar over lanes 0..19: the reservation runs over its members only.
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    if (wi.localId() >= 20) return;
    auto& fb = wi.fbar();
    wi.fbarJoin(fb);
    cluster.node(n).shmemInc(wi, (n + 1) % 4, slots.at(32 + wi.localId()),
                             true, &fb);
    wi.fbarLeave(fb);
  });
  EXPECT_EQ(enqueues() - predicated, 4u * 2 * 20);
  for (std::uint32_t n = 0; n < 4; ++n)
    for (std::uint32_t l = 0; l < 20; ++l)
      EXPECT_EQ(cluster.node(n).heap().loadU64(slots.at(32 + l)), 2u);
}

// --- GRAVEL_TRACE_SAMPLE ---------------------------------------------------

TEST(Trace, SampleIntervalEnvOverridesConfig) {
  ASSERT_EQ(setenv("GRAVEL_TRACE_SAMPLE", "3", 1), 0);
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.sample_interval = 64;
  {
    Tracer t(cfg);
    EXPECT_EQ(t.config().sample_interval, 3u);
    std::uint32_t sampled = 0;
    for (int i = 0; i < 30; ++i)
      if (t.maybeSample() != 0) ++sampled;
    EXPECT_EQ(sampled, 10u);  // 1 in 3
  }
  // Zero and garbage leave the configured value in force.
  ASSERT_EQ(setenv("GRAVEL_TRACE_SAMPLE", "0", 1), 0);
  EXPECT_EQ(Tracer(cfg).config().sample_interval, 64u);
  ASSERT_EQ(setenv("GRAVEL_TRACE_SAMPLE", "banana", 1), 0);
  EXPECT_EQ(Tracer(cfg).config().sample_interval, 64u);
  ASSERT_EQ(unsetenv("GRAVEL_TRACE_SAMPLE"), 0);
  EXPECT_EQ(Tracer(cfg).config().sample_interval, 64u);
}

// --- Latency attribution ---------------------------------------------------

TraceEvent latEvent(Stage s, std::uint32_t id, std::uint64_t ts,
                    std::uint16_t dest = 1, std::uint8_t kind = 1) {
  TraceEvent e{};
  e.ts_ns = ts;
  e.id = id;
  e.aux = dest;
  e.stage = s;
  e.kind = kind;
  return e;
}

TEST(Latency, AttributesTransitionsAndNamesBottleneck) {
  obs::LatencyAttribution lat;
  // One message with geometrically growing stage gaps; the last transition
  // (deliver -> resolve, gap 1600 ns) is the bottleneck.
  const std::uint64_t ts[] = {100, 200, 400, 800, 1600, 3200};
  for (int s = 0; s < obs::kMessageStages; ++s)
    lat.consume(latEvent(Stage(s), 7, ts[s]));

  const auto sum = lat.summary();
  for (int t = 0; t < obs::LatencyAttribution::kTransitions; ++t)
    EXPECT_EQ(sum.stage_count[t], 1u) << "transition " << t;
  EXPECT_EQ(sum.e2e_count, 1u);
  EXPECT_EQ(sum.bottleneck, obs::LatencyAttribution::kTransitions - 1);
  // The 1600 ns gap lands in bucket [1024, 2048); e2e (3100) in [2048,4096).
  EXPECT_GE(sum.stage_p99_ns[4], 1024.0);
  EXPECT_LT(sum.stage_p99_ns[4], 2048.0);
  EXPECT_GE(sum.e2e_p99_ns, 2048.0);
  EXPECT_LT(sum.e2e_p99_ns, 4096.0);

  // Keyed by (dest, kind).
  ASSERT_EQ(lat.keyed().size(), 1u);
  EXPECT_EQ(lat.keyed().begin()->first.first, 1u);
  EXPECT_EQ(lat.keyed().begin()->first.second, 1u);
}

TEST(Latency, DuplicatesKeepFirstAndOutOfOrderArrivalsStillPair) {
  obs::LatencyAttribution lat;
  // Events arrive across buffers in arbitrary order; retransmission
  // re-records wire-send with a later timestamp, which must be ignored.
  lat.consume(latEvent(Stage::kResolve, 9, 600));
  lat.consume(latEvent(Stage::kEnqueue, 9, 100));
  lat.consume(latEvent(Stage::kDeliver, 9, 500));
  lat.consume(latEvent(Stage::kDeliver, 9, 5000));  // duplicate: keep first
  const auto sum = lat.summary();
  EXPECT_EQ(sum.stage_count[4], 1u);  // deliver -> resolve paired once
  EXPECT_GE(sum.stage_p99_ns[4], 64.0);
  EXPECT_LT(sum.stage_p99_ns[4], 128.0);  // 100 ns, not 5000-based
  EXPECT_EQ(sum.e2e_count, 1u);           // enqueue + resolve = 500 ns
}

TEST(Latency, IdWrapStartsFreshIncarnation) {
  obs::LatencyAttribution lat;
  for (int s = 0; s < obs::kMessageStages; ++s)
    lat.consume(latEvent(Stage(s), 3, 100 * (s + 1)));
  // 16-bit ids recycle: a second enqueue for id 3 is a new message.
  for (int s = 0; s < obs::kMessageStages; ++s)
    lat.consume(latEvent(Stage(s), 3, 100000 + 100 * (s + 1)));
  const auto sum = lat.summary();
  EXPECT_EQ(sum.e2e_count, 2u);
  for (int t = 0; t < obs::LatencyAttribution::kTransitions; ++t)
    EXPECT_EQ(sum.stage_count[t], 2u);
}

TEST(Latency, WrappedTraceIdsPairWithTheirOwnEnqueue) {
  // 240 000 sampled lifecycles, 3.7 wraps of the 16-bit ID space, recorded
  // by two threads as a cluster records them: one thread's enqueues, the
  // other's later stages, in a buffer registered first (aggregator and
  // network threads name themselves before the GPU workers), so every
  // ingest sees an ID's later stages before its enqueue. The engine ingests
  // after each round, as the monitor does. Timestamps are synthetic, so
  // the ground truth is exact.
  constexpr std::uint32_t kRounds = 30, kPerRound = 8000;
  constexpr std::uint64_t kSamples = std::uint64_t(kRounds) * kPerRound;
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.sample_interval = 1;
  cfg.flightrec = false;
  cfg.buffer_events = std::size_t(kSamples) * (obs::kMessageStages - 1);
  Tracer t(cfg);
  std::vector<std::uint32_t> ids(kSamples);
  for (std::uint32_t& id : ids) id = t.maybeSample();
  // Sample k is enqueued at 1 us * k and resolved e2e(k) later, up to 3.3 ms.
  const auto enqueueNs = [](std::uint64_t k) { return 1000 * (k + 1); };
  const auto e2eNs = [](std::uint64_t k) {
    return 1000 + (k * 7919) % 3'300'000;
  };

  std::barrier<> step(3);
  std::latch laterRegistered(1);
  std::thread later([&] {
    t.nameThread("later");
    laterRegistered.count_down();
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      step.arrive_and_wait();
      for (std::uint64_t k = r * kPerRound; k < (r + 1) * kPerRound; ++k)
        for (int s = 1; s < obs::kMessageStages; ++s) {
          const std::uint64_t ts =
              enqueueNs(k) + e2eNs(k) * s / (obs::kMessageStages - 1);
          t.recordStage(ts, Stage(s), ids[k], 0, 1, 0, 1);
        }
      step.arrive_and_wait();
    }
  });
  laterRegistered.wait();
  std::thread enqueuer([&] {
    t.nameThread("enqueue");
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      step.arrive_and_wait();
      for (std::uint64_t k = r * kPerRound; k < (r + 1) * kPerRound; ++k)
        t.recordStage(enqueueNs(k), Stage::kEnqueue, ids[k], 0, 1, 0, 1);
      step.arrive_and_wait();
    }
  });
  obs::LatencyAttribution lat;
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    step.arrive_and_wait();
    step.arrive_and_wait();
    lat.ingest(t);
  }
  later.join();
  enqueuer.join();
  ASSERT_EQ(t.buffers().front()->name(), "later");
  ASSERT_EQ(t.droppedEvents(), 0u);

  std::vector<std::uint64_t> truth(kSamples);
  for (std::uint64_t k = 0; k < kSamples; ++k) truth[k] = e2eNs(k);
  std::sort(truth.begin(), truth.end());
  const std::uint64_t p99 = truth[std::size_t(0.99 * double(kSamples))];
  const double bucketLo = double(std::bit_floor(p99));

  const auto sum = lat.summary();
  EXPECT_EQ(sum.e2e_count, kSamples);
  for (int tr = 0; tr < obs::LatencyAttribution::kTransitions; ++tr)
    EXPECT_EQ(sum.stage_count[tr], kSamples) << obs::transitionLabel(tr);
  EXPECT_GE(sum.e2e_p99_ns, bucketLo);
  EXPECT_LT(sum.e2e_p99_ns, 2 * bucketLo);
  EXPECT_EQ(lat.openSamples(), 0u);  // nothing in flight is left open
}

TEST(Latency, BackwardsClockSampleIsDiscarded) {
  obs::LatencyAttribution lat;
  // Cross-core steady-clock reads can race at sub-tick resolution; a
  // backwards pair must not be recorded as a huge unsigned delta.
  lat.consume(latEvent(Stage::kEnqueue, 4, 200));
  lat.consume(latEvent(Stage::kAggregate, 4, 150));
  EXPECT_EQ(lat.summary().stage_count[0], 0u);
}

TEST(Latency, IngestsTracerBuffersIncrementallyAndPublishes) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.flightrec = false;
  Tracer t(cfg);
  obs::LatencyAttribution lat;
  for (int s = 0; s < obs::kMessageStages; ++s)
    t.recordStage(100 * (s + 1), Stage(s), 11, 0, 1, 0, 1);
  lat.ingest(t);
  EXPECT_EQ(lat.summary().e2e_count, 1u);
  // A second ingest consumes only new events — counts must not double.
  lat.ingest(t);
  EXPECT_EQ(lat.summary().e2e_count, 1u);

  MetricsRegistry reg;
  lat.publish(reg);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.contains("lat.stage_ns", "stage=enqueue_to_aggregate"));
  EXPECT_TRUE(snap.contains("lat.e2e_ns"));
  EXPECT_TRUE(snap.contains("lat.bottleneck_stage"));
  EXPECT_TRUE(snap.contains("lat.stage_p99_ns", "stage=deliver_to_resolve"));
}

TEST(Latency, ClusterRunStatsCarryStageQuantiles) {
  rt::Cluster cluster(tracedConfig());
  runTracedWorkload(cluster);
  const rt::ClusterRunStats s = cluster.runStats();
  EXPECT_GT(s.lat_samples, 0u);
  EXPECT_GT(s.lat_e2e_p99_ns, 0.0);
  EXPECT_GE(s.lat_e2e_p99_ns, s.lat_e2e_p50_ns);
  // Every transition of the pipeline was exercised.
  for (int t = 0; t < rt::ClusterRunStats::kLatTransitions; ++t)
    EXPECT_GT(s.lat_stage_p99_ns[t], 0.0) << obs::transitionLabel(t);

  const MetricsSnapshot snap = cluster.collectMetrics();
  EXPECT_TRUE(snap.contains("lat.e2e_p99_ns"));
}

// --- Stall watchdog --------------------------------------------------------

obs::WatchdogConfig fastWatchdog() {
  obs::WatchdogConfig wc;
  wc.period = std::chrono::microseconds(1000);
  wc.no_progress_deadline = std::chrono::milliseconds(10);
  wc.backpressure_deadline = std::chrono::milliseconds(10);
  wc.stalled_link_deadline = std::chrono::milliseconds(10);
  return wc;
}

TEST(Watchdog, DiagnosesNoProgressAndClosesOnRecovery) {
  obs::Watchdog wd(fastWatchdog());
  obs::WatchdogSample s;
  s.now_ns = 0;
  s.queues = {{0, 100, 50}};
  wd.observe(s);  // baseline tick
  EXPECT_TRUE(wd.diagnoses().empty());

  s.now_ns = 20'000'000;  // 20 ms later, routed unchanged, backlog 50
  wd.observe(s);
  auto diags = wd.diagnoses();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, obs::StallKind::kNoProgress);
  EXPECT_EQ(diags[0].node, 0u);
  EXPECT_EQ(diags[0].depth, 50u);
  EXPECT_TRUE(diags[0].open);
  EXPECT_NE(wd.describe().find("[no-progress]"), std::string::npos);
  EXPECT_NE(wd.describe().find("node 0"), std::string::npos);

  s.now_ns = 25'000'000;
  s.queues = {{0, 100, 60}};  // progress: routed advanced
  wd.observe(s);
  diags = wd.diagnoses();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_FALSE(diags[0].open);  // diagnosis retained, marked recovered
}

TEST(Watchdog, EmptyBacklogIsNotAStall) {
  obs::Watchdog wd(fastWatchdog());
  obs::WatchdogSample s;
  s.now_ns = 0;
  s.queues = {{2, 80, 80}};  // all routed
  wd.observe(s);
  s.now_ns = 50'000'000;  // far past the deadline, still nothing owed
  wd.observe(s);
  EXPECT_TRUE(wd.diagnoses().empty());
}

TEST(Watchdog, DiagnosesBackpressureAndStalledLinkWithSeqRange) {
  obs::Watchdog wd(fastWatchdog());
  obs::WatchdogSample s;
  s.now_ns = 30'000'000;
  s.buffers = {{1, 0, 5, 20'000'000}};           // 20 ms old buffer 1->0
  s.links = {{0, 1, 3, 7, 10, 2, 15'000'000}};   // seq [7,10) stalled 15 ms
  wd.observe(s);
  const auto diags = wd.diagnoses();
  ASSERT_EQ(diags.size(), 2u);

  const std::string desc = wd.describe();
  EXPECT_NE(desc.find("[backpressure]"), std::string::npos);
  EXPECT_NE(desc.find("node 1 -> dest 0"), std::string::npos);
  EXPECT_NE(desc.find("[stalled-link]"), std::string::npos);
  EXPECT_NE(desc.find("seq [7,10)"), std::string::npos);

  // Registry publication, one metric per diagnosis plus the total.
  MetricsRegistry reg;
  wd.publish(reg);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.number("watchdog.diagnoses"), 2.0);
  EXPECT_TRUE(snap.contains("watchdog.backpressure_ms", "node=1,dest=0"));
  EXPECT_TRUE(snap.contains("watchdog.stalled_link_ms", "link=0->1"));

  std::ostringstream os;
  obs::writeWatchdogJson(os, wd);
  EXPECT_TRUE(jsonBalanced(os.str()));
  EXPECT_NE(os.str().find("\"kind\":\"stalled-link\""), std::string::npos);
}

// A stalled-link diagnosis under the degrade policy names the breaker state
// and the destination's membership epoch — a reader of the post-mortem can
// tell "link excised and dead-lettering" from "link merely slow" without
// cross-referencing cluster stats.
TEST(Watchdog, StalledLinkDiagnosisCarriesBreakerAndEpoch) {
  obs::Watchdog wd(fastWatchdog());
  obs::WatchdogSample s;
  s.now_ns = 30'000'000;
  s.links = {{0, 1, 3, 7, 10, 2, 15'000'000, 1, 4}};  // breaker open, epoch 4
  wd.observe(s);
  ASSERT_EQ(wd.diagnoses().size(), 1u);

  const std::string desc = wd.describe();
  EXPECT_NE(desc.find("breaker open"), std::string::npos) << desc;
  EXPECT_NE(desc.find("dest epoch 4"), std::string::npos) << desc;

  std::ostringstream os;
  obs::writeWatchdogJson(os, wd);
  EXPECT_TRUE(jsonBalanced(os.str()));
  EXPECT_NE(os.str().find("\"breaker\":\"open\""), std::string::npos);
  EXPECT_NE(os.str().find("\"epoch\":4"), std::string::npos);
}

TEST(Watchdog, DiagnosisTableOverflowIsCountedNotGrown) {
  obs::WatchdogConfig wc = fastWatchdog();
  wc.max_diagnoses = 2;
  obs::Watchdog wd(wc);
  obs::WatchdogSample s;
  s.now_ns = 30'000'000;
  for (std::uint32_t d = 0; d < 5; ++d)
    s.buffers.push_back({0, d, 1, 20'000'000});
  wd.observe(s);
  EXPECT_EQ(wd.diagnoses().size(), 2u);
  EXPECT_EQ(wd.overflow(), 3u);
  EXPECT_NE(wd.describe().find("+3 overflowed"), std::string::npos);
}

TEST(Watchdog, ForcedAggregatorStallIsNamedInQuietPostMortem) {
  rt::ClusterConfig c = tracedConfig();
  c.quiet_deadline = std::chrono::milliseconds(400);
  c.watchdog.period = std::chrono::microseconds(2000);
  c.watchdog.no_progress_deadline = std::chrono::milliseconds(50);
  rt::Cluster cluster(c);
  // Wedge node 0's aggregator: its GPU queue fills and never drains.
  cluster.stallAggregator(0);
  auto slots = cluster.alloc<std::uint64_t>(64);
  try {
    cluster.launchAll(128, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
      cluster.node(n).shmemInc(wi, (n + 1) % 2, slots.at(wi.globalId() % 64));
    });
    FAIL() << "quiet() should have hit its deadline";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("quiet deadline"), std::string::npos) << msg;
    // The watchdog names the wedged queue, not just "something is slow".
    EXPECT_NE(msg.find("[no-progress]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gpu-queue node 0"), std::string::npos) << msg;
  }
  // The always-on flight recorder captured every runtime thread's last
  // events — the dump a post-mortem reader opens first.
  std::ostringstream os;
  cluster.writeFlightRecorder(os, "test");
  const std::string j = os.str();
  EXPECT_TRUE(jsonBalanced(j));
  EXPECT_NE(j.find("gpu."), std::string::npos);
  EXPECT_NE(j.find("agg."), std::string::npos);
  EXPECT_NE(j.find("net."), std::string::npos);
}

TEST(Watchdog, StalledLinkIsNamedWhenWireGoesDark) {
  rt::ClusterConfig c = tracedConfig();
  c.quiet_deadline = std::chrono::milliseconds(400);
  c.watchdog.period = std::chrono::microseconds(2000);
  c.watchdog.stalled_link_deadline = std::chrono::milliseconds(50);
  // Every batch (data and ACK) is dropped; retries never exhaust, so the
  // quiet deadline - not a LinkFailureError - ends the run.
  c.fault.seed = 1;
  c.fault.drop_prob = 1.0;
  c.reliability.enabled = true;
  c.reliability.rto_base = std::chrono::microseconds(500);
  c.reliability.rto_max = std::chrono::microseconds(4000);
  c.reliability.max_retries = 1u << 30;
  rt::Cluster cluster(c);
  auto slots = cluster.alloc<std::uint64_t>(64);
  try {
    cluster.launchAll(32, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
      cluster.node(n).shmemInc(wi, (n + 1) % 2, slots.at(wi.globalId() % 64));
    });
    FAIL() << "quiet() should have hit its deadline";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[stalled-link]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seq ["), std::string::npos) << msg;
  }
}

// --- Multi-threaded aggregator flow export ---------------------------------

std::size_t countOccurrences(const std::string& hay, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++count;
  return count;
}

TEST(Trace, FlowEventsSurviveMultiThreadedAggregators) {
  // With >= 2 aggregator threads per node, a message's aggregate/flush
  // events land in different per-thread buffers than its enqueue; the
  // exporter must still emit matched flow start/finish pairs.
  rt::ClusterConfig c = tracedConfig();
  c.aggregator_threads = 2;
  rt::Cluster cluster(c);
  runTracedWorkload(cluster);

  std::ostringstream os;
  cluster.writeTrace(os);
  const std::string j = os.str();
  EXPECT_TRUE(jsonBalanced(j));
  EXPECT_NE(j.find("agg.0.1"), std::string::npos);  // second worker traced
  const std::size_t starts = countOccurrences(j, "\"ph\":\"s\"");
  const std::size_t finishes = countOccurrences(j, "\"ph\":\"f\"");
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);  // no dangling flow ends
}

// --- Windowed time-series collector ----------------------------------------

obs::TimeSeriesConfig tsConfig() {
  obs::TimeSeriesConfig c;
  c.enabled = true;
  return c;
}

TEST(TimeSeries, FirstCollectEmitsAbsolutesThenWindowedDeltas) {
  MetricsRegistry reg;
  reg.setCounter("sent", "", 100);
  reg.setGauge("depth", "", 5.0);
  obs::TimeSeries ts(tsConfig());

  // First window: delta against an empty baseline == absolute values, so a
  // run shorter than one period still dumps something useful.
  ts.collect(reg.snapshot(), 1000, 1'000'000'000, {}, {}, {});
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.windows()[0].delta.number("sent"), 100.0);

  reg.setCounter("sent", "", 140);
  reg.setGauge("depth", "", 2.0);
  ts.collect(reg.snapshot(), 2000, 2'000'000'000, {}, {}, {});
  const std::vector<obs::TimeSeriesWindow> ws = ts.windows();
  ASSERT_EQ(ws.size(), 2u);
  const obs::TimeSeriesWindow& w = ws[1];
  EXPECT_EQ(w.delta.number("sent"), 40.0);   // counter: windowed
  EXPECT_EQ(w.delta.number("depth"), 2.0);   // gauge: current level
  EXPECT_DOUBLE_EQ(w.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(w.ratePerSec("sent"), 40.0);
  EXPECT_EQ(w.seq, 1u);
  EXPECT_EQ(w.wall_ms, 2000u);
}

TEST(TimeSeries, PruneDropsZeroDeltaRowsButKeepsGauges) {
  MetricsRegistry reg;
  reg.setCounter("idle", "", 7);   // never changes after the baseline
  reg.setCounter("busy", "", 1);
  reg.setGauge("depth", "", 3.0);
  obs::TimeSeries ts(tsConfig());
  ts.collect(reg.snapshot(), 0, 0, {}, {}, {});
  reg.setCounter("busy", "", 2);
  ts.collect(reg.snapshot(), 250, 250'000'000, {}, {}, {});

  const obs::TimeSeriesWindow w = ts.windows()[1];
  EXPECT_FALSE(w.delta.contains("idle"));  // zero delta: no signal
  EXPECT_TRUE(w.delta.contains("busy"));
  EXPECT_TRUE(w.delta.contains("depth"));  // gauges always survive

  // Disabling the prune keeps exhaustive windows.
  obs::TimeSeriesConfig c = tsConfig();
  c.prune_zero_deltas = false;
  obs::TimeSeries full(c);
  full.collect(reg.snapshot(), 0, 0, {}, {}, {});
  full.collect(reg.snapshot(), 250, 250'000'000, {}, {}, {});
  EXPECT_TRUE(full.windows()[1].delta.contains("idle"));
}

TEST(TimeSeries, RingIsBoundedAndCountsDroppedWindows) {
  obs::TimeSeriesConfig c = tsConfig();
  c.capacity = 4;
  obs::TimeSeries ts(c);
  MetricsRegistry reg;
  for (int i = 0; i < 6; ++i)
    ts.collect(reg.snapshot(), std::uint64_t(i), std::uint64_t(i) * 1000000,
               {}, {}, {});
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.droppedWindows(), 2u);
  const std::vector<obs::TimeSeriesWindow> ws = ts.windows();
  EXPECT_EQ(ws.front().seq, 2u);  // oldest retained
  EXPECT_EQ(ws.back().seq, 5u);
  EXPECT_EQ(ts.lastWindows(2).front().seq, 4u);
  EXPECT_EQ(ts.lastWindows(99).size(), 4u);  // clamped, not UB
}

TEST(TimeSeries, MembershipAndBreakerTransitionsTagTheWindow) {
  obs::TimeSeries ts(tsConfig());
  MetricsRegistry reg;
  // Baseline: everything healthy. A normal first sight is silent.
  ts.collect(reg.snapshot(), 0, 0, {{0, 0, 0}, {1, 0, 0}},
             {{0, 1, 0, 0}}, {});
  EXPECT_TRUE(ts.windows()[0].epoch_changes.empty());
  EXPECT_TRUE(ts.windows()[0].breaker_changes.empty());

  // Node 1 dies and link 0->1's breaker trips between ticks.
  ts.collect(reg.snapshot(), 250, 250'000'000, {{0, 0, 0}, {1, 2, 0}},
             {{0, 1, 1, 1}}, {});
  const obs::TimeSeriesWindow w = ts.windows()[1];
  ASSERT_EQ(w.epoch_changes.size(), 1u);
  EXPECT_EQ(w.epoch_changes[0].node, 1u);
  EXPECT_EQ(w.epoch_changes[0].from_health, 0);  // alive
  EXPECT_EQ(w.epoch_changes[0].to_health, 2);    // dead
  ASSERT_EQ(w.breaker_changes.size(), 1u);
  EXPECT_EQ(w.breaker_changes[0].src, 0u);
  EXPECT_EQ(w.breaker_changes[0].dst, 1u);
  EXPECT_EQ(w.breaker_changes[0].to_state, 1);   // open
  EXPECT_EQ(w.breaker_changes[0].era, 1u);

  // Steady state afterwards: no re-announcement while nothing changes.
  ts.collect(reg.snapshot(), 500, 500'000'000, {{0, 0, 0}, {1, 2, 0}},
             {{0, 1, 1, 1}}, {});
  EXPECT_TRUE(ts.windows()[2].epoch_changes.empty());
  EXPECT_TRUE(ts.windows()[2].breaker_changes.empty());
}

TEST(TimeSeries, AbnormalFirstSightIsAnnounced) {
  // A collector attached mid-incident (GRAVEL_STATUS_PORT added to a wedged
  // run) must still report the incident, not wait for the next transition.
  obs::TimeSeries ts(tsConfig());
  MetricsRegistry reg;
  ts.collect(reg.snapshot(), 0, 0, {{3, 2, 1}}, {{0, 3, 1, 2}}, {});
  const obs::TimeSeriesWindow w = ts.windows()[0];
  ASSERT_EQ(w.epoch_changes.size(), 1u);
  EXPECT_EQ(w.epoch_changes[0].node, 3u);
  EXPECT_EQ(w.epoch_changes[0].to_health, 2);
  EXPECT_EQ(w.epoch_changes[0].epoch, 1u);
  ASSERT_EQ(w.breaker_changes.size(), 1u);
  EXPECT_EQ(w.breaker_changes[0].to_state, 1);
}

TEST(TimeSeries, JsonDumpIsSchemaVersionedAndBalanced) {
  obs::TimeSeries ts(tsConfig());
  MetricsRegistry reg;
  reg.setCounter("fabric.messages", "", 10);
  obs::Diagnosis diag;
  diag.node = 1;
  diag.depth = 42;
  ts.collect(reg.snapshot(), 1000, 1'000'000'000, {{1, 2, 0}},
             {{0, 1, 1, 1}}, {diag});
  std::ostringstream os;
  ts.writeJson(os);
  const std::string j = os.str();
  EXPECT_TRUE(jsonBalanced(j));
  EXPECT_NE(j.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(j.find("\"kind\":\"gravel-timeseries\""), std::string::npos);
  EXPECT_NE(j.find("\"epoch_changes\""), std::string::npos);
  EXPECT_NE(j.find("\"to\":\"dead\""), std::string::npos);
  EXPECT_NE(j.find("\"to\":\"open\""), std::string::npos);
  EXPECT_NE(j.find("\"watchdog\""), std::string::npos);
  EXPECT_NE(j.find("fabric.messages"), std::string::npos);
}

TEST(TimeSeries, DeviceCountersMatchAccessorsUnderAFastCollector) {
  // ops.* and simt.* come from plain fields the GPU threads write, so they
  // are published only where launchAll() has joined those threads, never by
  // the monitor. A 1 ms collector running through several launches must
  // neither race the GPU threads (the TSan job runs this) nor lose a count.
  rt::ClusterConfig c = tracedConfig();
  c.obs.enabled = false;
  c.obs.gauge_period = std::chrono::microseconds(0);
  c.timeseries.enabled = true;
  c.timeseries.period = std::chrono::milliseconds(1);
  rt::Cluster cluster(c);
  auto slots = cluster.alloc<std::uint64_t>(64);
  for (int launch = 0; launch < 8; ++launch)
    cluster.launchAll(256, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
      // Every third lane is predicated off: it still arrives, inactive.
      cluster.node(n).shmemInc(wi, (n + 1) % 2, slots.at(wi.globalId() % 64),
                               wi.globalId() % 3 != 0);
    });

  const MetricsSnapshot snap = cluster.collectMetrics();
  const auto rows = [&](const char* name) {
    double total = 0;
    for (std::uint32_t i = 0; i < cluster.nodes(); ++i)
      total += snap.number(name, "node=" + std::to_string(i));
    return std::uint64_t(total);
  };
  std::uint64_t incRemote = 0, lanes = 0, groups = 0, collectives = 0,
                arrivals = 0, active = 0;
  for (std::uint32_t i = 0; i < cluster.nodes(); ++i) {
    incRemote += cluster.node(i).opStats().inc_remote;
    const simt::DeviceStats& d = cluster.node(i).device().stats();
    lanes += d.lanes_executed;
    groups += d.workgroups_executed;
    collectives += d.collective_ops;
    arrivals += d.collective_arrivals;
    active += d.active_arrivals;
  }
  EXPECT_EQ(rows("ops.inc_remote"), incRemote);
  EXPECT_EQ(rows("simt.lanes"), lanes);
  EXPECT_EQ(rows("simt.workgroups"), groups);
  EXPECT_EQ(rows("simt.collective_ops"), collectives);
  EXPECT_EQ(rows("simt.collective_arrivals"), arrivals);
  EXPECT_EQ(rows("simt.active_arrivals"), active);
  EXPECT_EQ(lanes, 2u * 8u * 256u);
  EXPECT_LT(active, arrivals);
}

// --- Prometheus text exposition --------------------------------------------

TEST(Prometheus, ExpositionMapsEveryKindAndManglesNames) {
  MetricsRegistry reg;
  reg.setCounter("fabric.messages", "node=0", 42);
  reg.setGauge("dlq.stored", "", 3.5);
  reg.observe("ack.rtt", "", 10.0);
  reg.observe("ack.rtt", "", 30.0);
  reg.observeHistogram("msg.size", "link=0->1", 0);
  reg.observeHistogram("msg.size", "link=0->1", 8);

  std::ostringstream os;
  obs::writePrometheusText(os, reg.snapshot());
  const std::string t = os.str();

  // counter: dots mangle to underscores under the gravel_ namespace.
  EXPECT_NE(t.find("# TYPE gravel_fabric_messages counter\n"),
            std::string::npos);
  EXPECT_NE(t.find("gravel_fabric_messages{node=\"0\"} 42\n"),
            std::string::npos);
  // gauge
  EXPECT_NE(t.find("# TYPE gravel_dlq_stored gauge\n"), std::string::npos);
  EXPECT_NE(t.find("gravel_dlq_stored 3.5\n"), std::string::npos);
  // stat -> summary with _min/_max companions
  EXPECT_NE(t.find("# TYPE gravel_ack_rtt summary\n"), std::string::npos);
  EXPECT_NE(t.find("gravel_ack_rtt_count 2\n"), std::string::npos);
  EXPECT_NE(t.find("gravel_ack_rtt_sum 40\n"), std::string::npos);
  EXPECT_NE(t.find("gravel_ack_rtt_min 10\n"), std::string::npos);
  EXPECT_NE(t.find("gravel_ack_rtt_max 30\n"), std::string::npos);
  // histogram: cumulative le bounds per the Pow2 rule — bucket 0 is {0}
  // (le="0"), 8 lands in [8,16) whose inclusive integer bound is 15.
  EXPECT_NE(t.find("# TYPE gravel_msg_size histogram\n"), std::string::npos);
  EXPECT_NE(t.find("gravel_msg_size_bucket{link=\"0->1\",le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(t.find("gravel_msg_size_bucket{link=\"0->1\",le=\"15\"} 2\n"),
            std::string::npos);
  EXPECT_NE(t.find("gravel_msg_size_bucket{link=\"0->1\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(t.find("gravel_msg_size_count{link=\"0->1\"} 2\n"),
            std::string::npos);
  // _sum is the midpoint estimate: 0 contributes 0, 8 contributes 12.
  EXPECT_NE(t.find("gravel_msg_size_sum{link=\"0->1\"} 12\n"),
            std::string::npos);

  // Structural sweep: every line is a # TYPE comment or "name[{labels}] value"
  // with the gravel_ namespace — the shape Prometheus' parser accepts.
  std::istringstream lines(t);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) continue;
    EXPECT_EQ(line.rfind("gravel_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(Prometheus, LabelValuesEscapeAndBareFragmentsGetAKey) {
  MetricsRegistry reg;
  reg.setCounter("c", "path=a\"b\\c", 1);   // quote + backslash in the value
  reg.setCounter("d", "orphan", 2);         // fragment without '='
  std::ostringstream os;
  obs::writePrometheusText(os, reg.snapshot());
  const std::string t = os.str();
  EXPECT_NE(t.find("gravel_c{path=\"a\\\"b\\\\c\"} 1"), std::string::npos);
  EXPECT_NE(t.find("gravel_d{label=\"orphan\"} 2"), std::string::npos);
}

// --- Status server ----------------------------------------------------------

#if GRAVEL_STATUS_SERVER_SUPPORTED
/// Minimal raw-socket HTTP client: one GET, read to EOF. The server speaks
/// HTTP/1.0 with Connection: close, so EOF terminates the response.
std::string httpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) break;
    off += std::size_t(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, std::size_t(n));
  }
  ::close(fd);
  return out;
}

/// Body after the blank line separating HTTP headers from content.
std::string httpBody(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}
#endif

TEST(StatusServer, ServesHandlerRoutesOnAnEphemeralPort) {
  if (!obs::StatusServer::supported()) GTEST_SKIP() << "no POSIX sockets";
#if GRAVEL_STATUS_SERVER_SUPPORTED
  obs::StatusServerConfig cfg;
  cfg.enabled = true;
  cfg.port = 0;  // ephemeral: tests never fight over a fixed port
  std::vector<std::string> seen;
  std::mutex seenMu;
  obs::StatusServer server(cfg, [&](const std::string& path) {
    {
      std::scoped_lock lk(seenMu);
      seen.push_back(path);
    }
    if (path == "/ok")
      return obs::StatusResponse{200, "text/plain", "payload\n"};
    return obs::StatusResponse{404, "text/plain", "nope\n"};
  });
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string ok = httpGet(server.port(), "/ok");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length: 8"), std::string::npos);
  EXPECT_EQ(httpBody(ok), "payload\n");

  // Query strings are stripped before routing.
  const std::string query = httpGet(server.port(), "/ok?verbose=1");
  EXPECT_NE(query.find("200 OK"), std::string::npos);

  const std::string missing = httpGet(server.port(), "/absent");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  EXPECT_GE(server.requestsServed(), 3u);
  {
    std::scoped_lock lk(seenMu);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], "/ok");
    EXPECT_EQ(seen[1], "/ok");  // ?verbose=1 stripped
    EXPECT_EQ(seen[2], "/absent");
  }
  server.stop();
  EXPECT_FALSE(server.running());
  // Idempotent stop; restart binds a fresh ephemeral port.
  server.stop();
  ASSERT_TRUE(server.start());
  EXPECT_NE(httpGet(server.port(), "/ok").find("200 OK"), std::string::npos);
  server.stop();
#endif
}

// --- Live telemetry through a degraded cluster run (acceptance) -------------

TEST(Telemetry, CrashIsVisibleInStatusAndTimeseriesWithinOneWindow) {
  // The ISSUE 7 acceptance scenario, as a test rather than a hand-check:
  // watch a degrade-policy run over the status server, crash a node, and
  // require the flip to show up in /status, /metrics and the collector ring
  // — with the breaker trip landing within one window of the epoch change.
  rt::ClusterConfig c = tracedConfig();
  c.nodes = 4;
  c.reliability.enabled = true;
  c.reliability.policy = net::FailurePolicy::kDegrade;
  c.reliability.rto_base = std::chrono::microseconds(500);
  c.reliability.rto_max = std::chrono::microseconds(8000);
  c.timeseries.enabled = true;
  c.timeseries.period = std::chrono::milliseconds(10);
  c.status_server.enabled = obs::StatusServer::supported();
  c.status_server.port = 0;
  rt::Cluster cluster(c);
  cluster.start();
  ASSERT_NE(cluster.timeSeries(), nullptr);

  auto slots = cluster.alloc<std::uint64_t>(8);
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, (n + 1) % 4, slots.at(n % 8));
  });

#if GRAVEL_STATUS_SERVER_SUPPORTED
  std::uint16_t port = 0;
  if (cluster.statusServer() != nullptr && cluster.statusServer()->running()) {
    port = cluster.statusServer()->port();
    ASSERT_NE(port, 0);
    const std::string metrics = httpBody(httpGet(port, "/metrics"));
    EXPECT_NE(metrics.find("# TYPE gravel_fabric_messages counter"),
              std::string::npos);
    EXPECT_NE(metrics.find("gravel_net_messages_resolved"),
              std::string::npos);
    const std::string healthy = httpBody(httpGet(port, "/status"));
    EXPECT_TRUE(jsonBalanced(healthy));
    EXPECT_NE(healthy.find("\"policy\":\"degrade\""), std::string::npos);
    EXPECT_NE(healthy.find("\"state\":\"alive\""), std::string::npos);
    EXPECT_EQ(healthy.find("\"state\":\"dead\""), std::string::npos);
  }
#endif

  cluster.crashNode(3);
  // Survivors keep sending into the dead node: the traffic dead-letters,
  // and the windowed dlq.* delta is what the collector must surface.
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    const bool live = n != 3;
    cluster.node(n).shmemInc(wi, 3, slots.at(0), live);
    cluster.node(n).shmemInc(wi, (n + 1) % 3, slots.at(1 + n), live);
  });

  // The collector runs on the monitor thread at a 10 ms cadence; give it a
  // bounded (generous) grace to take the windows, then assert.
  bool sawDead = false, sawOpen = false, sawDlqDelta = false;
  std::uint64_t deadSeq = 0, openSeq = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    sawDead = sawOpen = sawDlqDelta = false;
    for (const obs::TimeSeriesWindow& w : cluster.timeSeries()->windows()) {
      for (const obs::EpochChange& e : w.epoch_changes)
        if (e.node == 3 && e.to_health == 2 && !sawDead) {
          sawDead = true;
          deadSeq = w.seq;
        }
      for (const obs::BreakerChange& b : w.breaker_changes)
        if (b.dst == 3 && b.to_state == 1 && !sawOpen) {
          sawOpen = true;
          openSeq = w.seq;
        }
      if (w.delta.number("dlq.dead_lettered") > 0) sawDlqDelta = true;
    }
    if (sawDead && sawOpen && sawDlqDelta) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(sawDead) << "no window tagged node 3's death";
  EXPECT_TRUE(sawOpen) << "no window tagged a breaker trip into node 3";
  EXPECT_TRUE(sawDlqDelta) << "no window carried a dlq.dead_lettered delta";
  // crashNode() excises links in the same act that declares the node dead,
  // so the two tags must land within one collection window of each other.
  if (sawDead && sawOpen) {
    const std::uint64_t gap =
        deadSeq > openSeq ? deadSeq - openSeq : openSeq - deadSeq;
    EXPECT_LE(gap, 1u);
  }

#if GRAVEL_STATUS_SERVER_SUPPORTED
  if (port != 0) {
    const std::string degraded = httpBody(httpGet(port, "/status"));
    EXPECT_TRUE(jsonBalanced(degraded));
    EXPECT_NE(degraded.find("\"state\":\"dead\""), std::string::npos);
    EXPECT_NE(degraded.find("\"breaker\":\"open\""), std::string::npos);
    EXPECT_NE(degraded.find("\"dead_lettered\""), std::string::npos);
    const std::string series = httpBody(httpGet(port, "/timeseries"));
    EXPECT_TRUE(jsonBalanced(series));
    EXPECT_NE(series.find("\"kind\":\"gravel-timeseries\""),
              std::string::npos);
    EXPECT_NE(httpGet(port, "/bogus").find("404"), std::string::npos);
  }
#endif

  // The exit-artifact writer serves the same ring.
  std::ostringstream os;
  cluster.writeTimeSeries(os);
  const std::string dump = os.str();
  EXPECT_TRUE(jsonBalanced(dump));
  EXPECT_NE(dump.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"to\":\"dead\""), std::string::npos);
}

// --- Status server robustness -----------------------------------------------

TEST(StatusServer, HealthzAnswersWithoutInvokingTheHandler) {
  if (!obs::StatusServer::supported()) GTEST_SKIP() << "no POSIX sockets";
#if GRAVEL_STATUS_SERVER_SUPPORTED
  obs::StatusServerConfig cfg;
  cfg.enabled = true;
  cfg.port = 0;
  std::atomic<int> handlerCalls{0};
  obs::StatusServer server(cfg, [&](const std::string&) {
    handlerCalls.fetch_add(1, std::memory_order_relaxed);
    return obs::StatusResponse{200, "text/plain", "snapshot\n"};
  });
  ASSERT_TRUE(server.start());

  const std::string resp = httpGet(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(httpBody(resp), "ok\n");
  // The liveness probe must not pay for (or depend on) the embedder's
  // snapshot work.
  EXPECT_EQ(handlerCalls.load(), 0);
  // Query strings are stripped before the healthz match, like any route.
  EXPECT_NE(httpGet(server.port(), "/healthz?probe=1").find("200 OK"),
            std::string::npos);
  EXPECT_EQ(handlerCalls.load(), 0);
  server.stop();
#endif
}

#if GRAVEL_STATUS_SERVER_SUPPORTED
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: rely on the test runner ignoring SIGPIPE
#endif
/// Raw-socket request with an arbitrary byte payload (httpGet always forms
/// a valid GET line; the robustness tests need to send garbage).
std::string httpRaw(std::uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + off, payload.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // server may close mid-send on oversized requests
    off += std::size_t(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, std::size_t(n));
  }
  ::close(fd);
  return out;
}
#endif

TEST(StatusServer, SurvivesMalformedOversizedAndConcurrentRequests) {
  if (!obs::StatusServer::supported()) GTEST_SKIP() << "no POSIX sockets";
#if GRAVEL_STATUS_SERVER_SUPPORTED
  obs::StatusServerConfig cfg;
  cfg.enabled = true;
  cfg.port = 0;
  obs::StatusServer server(cfg, [](const std::string& path) {
    if (path == "/ok")
      return obs::StatusResponse{200, "text/plain", "payload\n"};
    return obs::StatusResponse{404, "text/plain", "nope\n"};
  });
  ASSERT_TRUE(server.start());

  // Malformed request line: anything that is not "GET " is refused with a
  // well-formed 405, not a hang or a crash.
  const std::string bogus = httpRaw(server.port(), "BOGUS\r\n\r\n");
  EXPECT_NE(bogus.find("HTTP/1.0 405 Method Not Allowed"), std::string::npos);

  // Oversized request: a path far beyond the server's single 2 KiB read.
  // The truncated tail parses as an unroutable path; the only contract is
  // that the server answers (or closes) without dying. The client's send
  // may race the server's close, so the response itself is best-effort.
  const std::string big =
      "GET /" + std::string(16 * 1024, 'x') + " HTTP/1.0\r\n\r\n";
  (void)httpRaw(server.port(), big);
  EXPECT_TRUE(server.running());

  // Two concurrent clients: connections queue in the listen backlog and are
  // serviced serially; both must get complete responses.
  std::string r1, r2;
  std::thread c1([&] { r1 = httpGet(server.port(), "/ok"); });
  std::thread c2([&] { r2 = httpGet(server.port(), "/ok"); });
  c1.join();
  c2.join();
  EXPECT_NE(r1.find("200 OK"), std::string::npos);
  EXPECT_EQ(httpBody(r1), "payload\n");
  EXPECT_NE(r2.find("200 OK"), std::string::npos);
  EXPECT_EQ(httpBody(r2), "payload\n");

  // And the server is still healthy for a normal scrape afterwards.
  EXPECT_NE(httpGet(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
  server.stop();
#endif
}

// --- Continuous profiler ----------------------------------------------------

/// Spins until the profiler clock has visibly advanced, so self-time
/// assertions never compare two identical timestamps.
void burnAtLeastNs(std::uint64_t ns) {
  const std::uint64_t t0 = obs::Profiler::nowNs();
  while (obs::Profiler::nowNs() - t0 < ns) {
  }
}

TEST(Profiler, DisabledRecordsNothingAndRegistersNoThreads) {
  obs::Profiler prof;  // default config: disabled
  {
    obs::ScopedRegion r(&prof, obs::Region::kAggSlot);
    obs::ScopedRegion nested(&prof, obs::Region::kAggRoute);
  }
  { obs::ScopedRegion nullTarget(nullptr, obs::Region::kAggSlot); }
  EXPECT_TRUE(prof.sample().empty());
}

TEST(Profiler, NestedRegionsSplitSelfTimeFromChildTime) {
  obs::ProfilerConfig cfg;
  cfg.enabled = true;
  obs::Profiler prof(cfg);
  prof.nameThread("tester");
  prof.nameThread("ignored");  // first name wins

  {
    obs::ScopedRegion outer(&prof, obs::Region::kAggSlot);
    burnAtLeastNs(200 * 1000);
    {
      obs::ScopedRegion inner(&prof, obs::Region::kAggRoute);
      burnAtLeastNs(400 * 1000);
    }
  }
  {
    obs::ScopedRegion idle(&prof, obs::Region::kIdle);
    burnAtLeastNs(100 * 1000);
  }

  const auto threads = prof.sample();
  ASSERT_EQ(threads.size(), 1u);
  const auto& t = threads[0];
  EXPECT_EQ(t.name, "tester");
  EXPECT_EQ(t.dropped, 0u);

  const obs::Profiler::PathSample* outer = nullptr;
  const obs::Profiler::PathSample* inner = nullptr;
  const obs::Profiler::PathSample* idle = nullptr;
  for (const auto& p : t.paths) {
    if (p.depth == 1 && p.stack[0] == obs::Region::kAggSlot) outer = &p;
    if (p.depth == 2 && p.stack[0] == obs::Region::kAggSlot &&
        p.stack[1] == obs::Region::kAggRoute)
      inner = &p;
    if (p.depth == 1 && p.stack[0] == obs::Region::kIdle) idle = &p;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 1u);
  // Self time excludes the nested child: the outer region burned ~200us
  // itself and ~400us inside kAggRoute, so its self share must stay well
  // below the child's.
  EXPECT_GE(inner->self_ns, 400u * 1000);
  EXPECT_GE(outer->self_ns, 200u * 1000);
  EXPECT_LT(outer->self_ns, inner->self_ns);
  // Duty split: idle-leaf paths fund idle_ns, everything else busy_ns, and
  // the two sides partition the attributed total exactly.
  EXPECT_EQ(t.idle_ns, idle->self_ns);
  EXPECT_EQ(t.busy_ns, outer->self_ns + inner->self_ns);
}

TEST(Profiler, DepthOverflowIsCountedDroppedNotRecorded) {
  obs::ProfilerConfig cfg;
  cfg.enabled = true;
  obs::Profiler prof(cfg);
  {
    // kMaxDepth nested regions record; the one beyond only counts.
    std::vector<std::unique_ptr<obs::ScopedRegion>> nest;
    for (int i = 0; i < obs::Profiler::kMaxDepth + 1; ++i)
      nest.push_back(std::make_unique<obs::ScopedRegion>(
          &prof, obs::Region::kAggSlot));
    nest.clear();  // unwinds innermost-first
  }
  const auto threads = prof.sample();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].dropped, 1u);
  int deepest = 0;
  for (const auto& p : threads[0].paths) deepest = std::max(deepest, p.depth);
  EXPECT_EQ(deepest, obs::Profiler::kMaxDepth);
}

TEST(Profiler, JsonExportIsBalancedAndCarriesTheDutySplit) {
  obs::ProfilerConfig cfg;
  cfg.enabled = true;
  obs::Profiler prof(cfg);
  {
    obs::ScopedRegion r(&prof, obs::Region::kNetRecv);
    burnAtLeastNs(50 * 1000);
  }
  std::ostringstream os;
  obs::writeProfilerJson(os, prof, obs::Profiler::nowNs());
  const std::string doc = os.str();
  EXPECT_TRUE(jsonBalanced(doc));
  EXPECT_NE(doc.find("\"kind\":\"gravel-profile\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"net.recv\""), std::string::npos);
  EXPECT_NE(doc.find("\"duty\""), std::string::npos);
  EXPECT_NE(doc.find("\"locks\""), std::string::npos);
}

// --- Lock-contention accounting (lockprof) ----------------------------------

/// RAII guard: every lockprof test windows the process-global table and
/// restores the disabled state, so cluster tests in this binary never see
/// leftover counters.
struct LockprofWindow {
  LockprofWindow() {
    lockprof::reset();
    lockprof::setEnabled(true);
  }
  ~LockprofWindow() {
    lockprof::setEnabled(false);
    lockprof::reset();
  }
};

const lockprof::SiteSample* findSite(
    const std::vector<lockprof::SiteSample>& sites, const char* name) {
  for (const auto& s : sites)
    if (std::string(s.name) == name) return &s;
  return nullptr;
}

std::vector<lockprof::SiteSample> allSites() {
  std::vector<lockprof::SiteSample> out;
  lockprof::forEachSite(
      [&out](const lockprof::SiteSample& s) { out.push_back(s); });
  return out;
}

TEST(Lockprof, NamedMutexCountsAcquisitionsAndContendedWaits) {
  LockprofWindow window;
  gravel::mutex mu{"test.lockprof.contended"};

  // Uncontended acquisitions take the try_lock fast path: counted, no wait.
  for (int i = 0; i < 10; ++i) {
    mu.lock();
    mu.unlock();
  }

  // Force real contention: the holder sleeps with the lock held while the
  // second thread blocks on it.
  std::atomic<bool> held{false};
  std::thread holder([&] {
    mu.lock();
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    mu.unlock();
  });
  while (!held.load()) std::this_thread::yield();
  mu.lock();  // blocks ~5ms
  mu.unlock();
  holder.join();

  const auto sites = allSites();
  const auto* site = findSite(sites, "test.lockprof.contended");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acquisitions, 12u);  // 10 + holder + blocked
  ASSERT_GE(site->contended, 1u);
  EXPECT_GE(site->wait_ns_total, 1u * 1000 * 1000);  // slept 5ms holding
  std::uint64_t histTotal = 0;
  for (auto b : site->wait_hist) histTotal += b;
  EXPECT_EQ(histTotal, site->contended);
  EXPECT_GT(site->waitQuantileNs(0.99), 0.0);
}

TEST(Lockprof, SitesDeduplicateByContentAndUnnamedMutexesStayInvisible) {
  LockprofWindow window;
  // Same site name through two distinct string objects: content dedup must
  // fold them into one row.
  const std::string a = "test.lockprof.dedup";
  const std::string b = "test.lockprof.dedup";
  gravel::mutex m1{a.c_str()};
  gravel::mutex m2{b.c_str()};
  m1.lock();
  m1.unlock();
  m2.lock();
  m2.unlock();
  gravel::mutex unnamed;
  unnamed.lock();
  unnamed.unlock();

  const auto sites = allSites();
  int matches = 0;
  for (const auto& s : sites)
    if (std::string(s.name) == "test.lockprof.dedup") ++matches;
  EXPECT_EQ(matches, 1);
  const auto* site = findSite(sites, "test.lockprof.dedup");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acquisitions, 2u);
}

TEST(Lockprof, ResetZeroesCountersButKeepsTheSiteClaimed) {
  LockprofWindow window;
  gravel::mutex mu{"test.lockprof.reset"};
  mu.lock();
  mu.unlock();
  {
    const auto before = allSites();
    ASSERT_NE(findSite(before, "test.lockprof.reset"), nullptr);
  }
  lockprof::reset();
  const auto after = allSites();
  const auto* site = findSite(after, "test.lockprof.reset");
  ASSERT_NE(site, nullptr);  // name survives; counters window
  EXPECT_EQ(site->acquisitions, 0u);
  EXPECT_EQ(site->contended, 0u);
  EXPECT_EQ(site->wait_ns_total, 0u);
}

TEST(Lockprof, WaitQuantileInterpolatesPow2Buckets) {
  lockprof::SiteSample s;
  // 100 waits in bucket 10 ([512, 1024) ns): every quantile lands inside.
  s.wait_hist[10] = 100;
  EXPECT_GE(s.waitQuantileNs(0.50), 512.0);
  EXPECT_LE(s.waitQuantileNs(0.50), 1024.0);
  EXPECT_GE(s.waitQuantileNs(0.99), s.waitQuantileNs(0.50));
  // Empty histogram reports zero, not garbage.
  lockprof::SiteSample empty;
  EXPECT_EQ(empty.waitQuantileNs(0.99), 0.0);
}

// --- Profiled cluster run (acceptance) --------------------------------------

TEST(Profiler, SkewedWorkloadNamesTheAggregatorShardMutexWithEvidence) {
  // The ISSUE 10 acceptance scenario: a profiled run whose destinations all
  // hash to one aggregator shard must produce lock-contention evidence that
  // names SlotRouter::Shard::mutex with acquisition counts and a wait p99.
  rt::ClusterConfig c;
  c.nodes = 4;
  c.heap_bytes = 1 << 20;
  c.gpu_queue_bytes = 1 << 13;
  c.pernode_queue_bytes = 512;
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  c.aggregator_threads = 4;  // four route/flush threads per node...
  c.aggregator_shards = 1;   // ...funneled through one shard mutex
  c.profiler.enabled = true;
  rt::Cluster cluster(c);
  cluster.start();

  auto slots = cluster.alloc<std::uint64_t>(4);
  // Skewed destinations: every node hammers node 0.
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, 0, slots.at(n));
  });
  cluster.quiet();

  const auto sites = allSites();
  const auto* shard = findSite(sites, "SlotRouter::Shard::mutex");
  ASSERT_NE(shard, nullptr)
      << "profiled run recorded no aggregator shard-mutex site";
  EXPECT_GT(shard->acquisitions, 0u);
  // Contended-or-not depends on scheduling; the evidence contract is that
  // the counts and quantiles are *reported*, and that any recorded wait
  // shows up in the p99.
  if (shard->contended > 0) {
    EXPECT_GT(shard->wait_ns_total, 0u);
    EXPECT_GT(shard->waitQuantileNs(0.99), 0.0);
  }

  // The same run's region attribution covers the aggregator loop.
  bool sawAggSlot = false;
  std::uint64_t busyTotal = 0;
  for (const auto& t : cluster.profiler().sample()) {
    busyTotal += t.busy_ns;
    for (const auto& p : t.paths)
      if (p.depth >= 1 && p.stack[0] == obs::Region::kAggSlot)
        sawAggSlot = true;
  }
  EXPECT_TRUE(sawAggSlot) << "no thread attributed time to agg.slot";
  EXPECT_GT(busyTotal, 0u);

  // And the merged run stats carry the roll-up the bench columns consume.
  const rt::ClusterRunStats stats = cluster.runStats();
  EXPECT_GT(stats.prof_busy_ns, 0u);
  EXPECT_GT(stats.prof_lock_acquisitions, 0u);

  // /profile document over the same state.
  std::ostringstream os;
  cluster.writeProfileJson(os);
  const std::string doc = os.str();
  EXPECT_TRUE(jsonBalanced(doc));
  EXPECT_NE(doc.find("\"SlotRouter::Shard::mutex\""), std::string::npos);

  // Window the global table so later tests in this binary start clean.
  lockprof::setEnabled(false);
  lockprof::reset();
}

TEST(Profiler, ProfiledClusterServesProfileEndpointAndMonitorStats) {
  rt::ClusterConfig c = tracedConfig();
  c.profiler.enabled = true;
  c.timeseries.enabled = true;
  c.timeseries.period = std::chrono::milliseconds(10);
  c.status_server.enabled = obs::StatusServer::supported();
  c.status_server.port = 0;
  rt::Cluster cluster(c);
  cluster.start();

  auto slots = cluster.alloc<std::uint64_t>(4);
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, (n + 1) % 2, slots.at(n % 4));
  });
  cluster.quiet();
  // Let the monitor thread take at least one instrumented tick.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

#if GRAVEL_STATUS_SERVER_SUPPORTED
  if (cluster.statusServer() != nullptr && cluster.statusServer()->running()) {
    const std::uint16_t port = cluster.statusServer()->port();
    const std::string profile = httpBody(httpGet(port, "/profile"));
    EXPECT_TRUE(jsonBalanced(profile));
    EXPECT_NE(profile.find("\"kind\":\"gravel-profile\""),
              std::string::npos);
    EXPECT_NE(profile.find("\"enabled\":true"), std::string::npos);
    const std::string status = httpBody(httpGet(port, "/status"));
    EXPECT_NE(status.find("\"profile\""), std::string::npos);
    EXPECT_NE(httpGet(port, "/healthz").find("200 OK"), std::string::npos);
  }
#endif

  // prof.* and monitor.* metric families land in the registry snapshot.
  const MetricsSnapshot snap = cluster.collectMetrics();
  bool sawProfDuty = false, sawMonitorTicks = false;
  for (const auto& [key, m] : snap.metrics) {
    if (key.first == "prof.duty") sawProfDuty = true;
    if (key.first == "monitor.ticks") sawMonitorTicks = true;
  }
  EXPECT_TRUE(sawProfDuty) << "no prof.duty gauge in the registry";
  EXPECT_TRUE(sawMonitorTicks) << "no monitor.ticks counter in the registry";

  lockprof::setEnabled(false);
  lockprof::reset();
}

TEST(Profiler, MonitorSleepCountsAsIdle) {
  // At a 10 ms cadence the monitor sleeps almost all the time. The sleep is
  // idle, so its duty must read far below the 1.0 an unbracketed sleep gave.
  rt::ClusterConfig c = tracedConfig();
  c.obs.enabled = false;
  c.obs.gauge_period = std::chrono::microseconds(0);
  c.profiler.enabled = true;
  c.timeseries.enabled = true;
  c.timeseries.period = std::chrono::milliseconds(10);
  rt::Cluster cluster(c);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const MetricsSnapshot snap = cluster.collectMetrics();
  ASSERT_TRUE(snap.contains("prof.duty", "thread=monitor"));
  EXPECT_GT(snap.number("prof.idle_ns", "thread=monitor"), 0.0);
  EXPECT_LT(snap.number("prof.duty", "thread=monitor"), 0.5);

  lockprof::setEnabled(false);
  lockprof::reset();
}

TEST(Profiler, RestartedThreadKeepsItsOwnRows) {
  // restartNode() reschedules node 1's network task on the thread that has
  // run it all along, so there is one net.1 row before and after, and
  // runStats()'s profiler roll-up, which sums the rows, loses no time.
  rt::ClusterConfig c = tracedConfig();
  c.obs.enabled = false;
  c.obs.gauge_period = std::chrono::microseconds(0);
  c.reliability.enabled = true;
  c.reliability.policy = net::FailurePolicy::kDegrade;
  c.profiler.enabled = true;
  rt::Cluster cluster(c);
  cluster.start();

  const auto netOnes = [&cluster] {
    std::size_t n = 0;
    for (const auto& t : cluster.profiler().sample())
      if (t.name == "net.1") ++n;
    return n;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (netOnes() < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cluster.crashNode(1);
  cluster.restartNode(1);
  // Long enough for a thread restartNode() started to register itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(netOnes(), 1u);
  EXPECT_TRUE(cluster.collectMetrics().contains("prof.busy_ns",
                                                "thread=net.1"));

  const auto busy = [&cluster] {
    std::uint64_t total = 0;
    for (const auto& t : cluster.profiler().sample()) total += t.busy_ns;
    return total;
  };
  const std::uint64_t before = busy();
  const rt::ClusterRunStats s = cluster.runStats();
  const std::uint64_t after = busy();
  EXPECT_GE(s.prof_busy_ns, before);
  EXPECT_LE(s.prof_busy_ns, after);

  lockprof::setEnabled(false);
  lockprof::reset();
}

}  // namespace
}  // namespace gravel
