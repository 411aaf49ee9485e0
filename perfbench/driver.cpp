// Benchmark driver for the functional pipeline: runs one workload in a
// closed loop (one app run at a time from this thread) and writes what it
// measured as JSON for run.py to reduce.
//
//   gravel_perfbench run   --workload W --seed N --seconds S --out FILE
//   gravel_perfbench trace --workload W --seed N --seconds S --out FILE
//
// `run` times whole app runs and nothing else. `trace` runs each input
// untraced and then with the progress probe attached, and afterwards times
// each layer's public entry points in isolation at the workload's own
// shape. Every app run builds a fresh 4-node cluster, so one run's buffers
// never leak into the next run's time or memory.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/color.hpp"
#include "apps/gups.hpp"
#include "apps/sssp.hpp"
#include "graph/dist.hpp"
#include "graph/generators.hpp"
#include "net/fabric.hpp"
#include "obs/json.hpp"
#include "queue/gravel_queue.hpp"
#include "runtime/cluster.hpp"
#include "runtime/message.hpp"
#include "simt/device.hpp"

extern char** environ;

namespace {

using namespace gravel;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNodes = 4;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads ----------------------------------------------------------
// Sizes follow bench/common.hpp's Table-4 registry; every seeded choice
// derives from the one --seed, so the same seed gives the same inputs.

enum class App { kGups, kSssp, kColor };

struct Workload {
  const char* name;
  App app;
  bool observed;  ///< the shipped observability config bench_table5 uses
};

constexpr Workload kWorkloads[] = {
    {"gups", App::kGups, false},
    {"sssp", App::kSssp, false},
    {"color", App::kColor, false},
    {"sssp_observed", App::kSssp, true},
};

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return apps::mix64(seed * 0x9e3779b97f4a7c15ULL + salt) | 1;
}

/// BFS from `src`: how many vertices it reaches and how deep it goes.
std::pair<std::uint64_t, std::uint32_t> bfsReach(const graph::Csr& g,
                                                 graph::Vertex src) {
  std::vector<bool> seen(g.vertexCount(), false);
  std::vector<graph::Vertex> frontier{src}, next;
  seen[src] = true;
  std::uint64_t reached = 1;
  std::uint32_t depth = 0;
  for (;; ++depth) {
    next.clear();
    for (graph::Vertex v : frontier)
      for (graph::Vertex w : g.neighbors(v))
        if (!seen[w]) {
          seen[w] = true;
          next.push_back(w);
        }
    if (next.empty()) return {reached, depth};
    reached += next.size();
    frontier.swap(next);
  }
}

/// The most central of a few seeded candidates. A uniformly drawn source
/// swings the round count from 126 to 196 between seeds (mesh middle vs
/// corner), which would bury any change in input noise; the most central
/// of 16 keeps the seed choosing the source while holding the work steady.
/// The mesh pads its vertex count with a few isolated vertices, so reach
/// ranks before depth.
graph::Vertex seededSource(const graph::Csr& g, std::uint64_t seed) {
  graph::Vertex best = 0;
  std::pair<std::uint64_t, std::uint32_t> bestReach{0, 0};
  for (std::uint64_t k = 0; k < 16; ++k) {
    const auto v = graph::Vertex(derive(seed, 100 + k) % g.vertexCount());
    const auto r = bfsReach(g, v);
    if (r.first > bestReach.first ||
        (r.first == bestReach.first && r.second < bestReach.second)) {
      best = v;
      bestReach = r;
    }
  }
  return best;
}

struct Inputs {
  apps::GupsConfig gups;
  apps::SsspConfig sssp;
  apps::ColorConfig color;
  std::optional<graph::DistGraph> graph;
};

Inputs makeInputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  switch (w.app) {
    case App::kGups:
      in.gups.table_size = 1 << 18;
      in.gups.updates_per_node = 2 << 20;
      in.gups.seed = derive(seed, 1);
      break;
    case App::kSssp: {
      graph::Csr g = graph::bubblesLike(8000, derive(seed, 2));
      in.sssp.source = seededSource(g, seed);
      in.graph.emplace(std::move(g), kNodes);
      break;
    }
    case App::kColor:
      in.graph.emplace(graph::cageLike(15000, 19, derive(seed, 4)), kNodes);
      in.color.seed = derive(seed, 5);
      break;
  }
  return in;
}

rt::ClusterConfig clusterConfig(const Workload& w) {
  rt::ClusterConfig c;  // Table 3 defaults: 256-lane WGs, 1 MiB GPU queue
  c.nodes = kNodes;
  if (w.observed) {
    c.obs.enabled = true;
    c.obs.sample_interval = 16;
    c.timeseries.enabled = true;
    c.timeseries.period = std::chrono::milliseconds(50);
    c.profiler.enabled = true;
  }
  return c;
}

apps::AppReport runApp(const Workload& w, rt::Cluster& cluster,
                       const Inputs& in) {
  switch (w.app) {
    case App::kGups:
      return apps::runGups(cluster, in.gups);
    case App::kSssp:
      return apps::runSssp(cluster, *in.graph, in.sssp).report;
    case App::kColor:
      return apps::runColor(cluster, *in.graph, in.color).report;
  }
  throw InvalidArgument("unreachable workload kind");
}

// --- progress probe -----------------------------------------------------
// Polls only lock-free counters, so watching the run never takes a lock the
// run itself contends for. One sample sums every node:
// [t_s, reserved slots, routed slots, routed msgs, resolved msgs, in flight].

using Sample = std::array<double, 6>;

Sample takeSample(rt::Cluster& cluster, Clock::time_point t0) {
  Sample s{since(t0), 0, 0, 0, 0, 0};
  for (std::uint32_t i = 0; i < cluster.nodes(); ++i) {
    rt::NodeRuntime& n = cluster.node(i);
    s[1] += double(n.queue().reservedCount());
    s[2] += double(n.aggregator().slotsProcessed());
    s[3] += double(n.aggregator().messagesRouted());
    s[4] += double(n.network().messagesResolved());
  }
  s[5] = double(cluster.fabric().pendingCount());
  return s;
}

class Probe {
 public:
  static constexpr auto kPeriod = std::chrono::microseconds(100);

  /// Takes sample 0 on the caller's thread, so the series starts exactly
  /// where the timed span does.
  Probe(rt::Cluster& cluster, Clock::time_point t0)
      : cluster_(cluster), t0_(t0) {
    samples_.reserve(1 << 16);
    samples_.push_back(takeSample(cluster_, t0_));
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(kPeriod);
        samples_.push_back(takeSample(cluster_, t0_));
      }
    });
  }

  ~Probe() { finish(); }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Joins the poller and takes the last sample on the caller's thread.
  std::vector<Sample> finish() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
      samples_.push_back(takeSample(cluster_, t0_));
    }
    return std::move(samples_);
  }

 private:
  rt::Cluster& cluster_;
  Clock::time_point t0_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last: started after the members it uses
};

// --- one app run ------------------------------------------------------------

struct RunRecord {
  std::uint64_t input = 0;  ///< index of the run's input (inputSeed)
  double input_s = 0;
  double cluster_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  bool ok = false;
  std::string error;
  std::uint64_t rounds = 0;
  rt::ClusterRunStats stats;
  std::vector<Sample> samples;  ///< traced runs only
};

/// Seed of the index-th input of a run. Every app run of a benchmark run
/// gets its own input, so a run's median samples the workload's input
/// distribution instead of resting on one draw of it.
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t index) {
  return derive(seed, 1000 + index);
}

RunRecord runOnce(const Workload& w, std::uint64_t seed, std::uint64_t index,
                  bool traced) {
  RunRecord r;
  r.input = index;
  try {
    auto t0 = Clock::now();
    const Inputs in = makeInputs(w, inputSeed(seed, index));
    r.input_s = since(t0);
    t0 = Clock::now();
    // The cluster dies at the end of this scope, after the timed span: its
    // exit dumps (profile, time series) never count as run time.
    rt::Cluster cluster(clusterConfig(w));
    r.cluster_s = since(t0);

    std::optional<Probe> probe;
    const double cpu0 = cpuSeconds();
    t0 = Clock::now();
    if (traced) probe.emplace(cluster, t0);
    const apps::AppReport report = runApp(w, cluster, in);
    r.run_s = since(t0);
    r.cpu_s = cpuSeconds() - cpu0;
    if (probe) r.samples = probe->finish();

    r.stats = report.stats;
    r.rounds = report.iterations;
    if (!report.validated)
      r.error = "app validation failed";
    else if (r.stats.net_resolved != r.stats.net_messages)
      r.error = "conservation broken: net_resolved " +
                std::to_string(r.stats.net_resolved) + " != net_messages " +
                std::to_string(r.stats.net_messages);
    r.ok = r.error.empty();
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = std::string("threw: ") + e.what();
  }
  return r;
}

/// Closed loop: the next run starts only after the previous one returned.
/// Runs inputs 0, 1, 2, ... until `seconds` elapsed, and at least 3 times.
std::vector<RunRecord> loop(const Workload& w, std::uint64_t seed,
                            double seconds) {
  std::vector<RunRecord> out;
  const auto t0 = Clock::now();
  while (out.size() < 3 || since(t0) < seconds)
    out.push_back(runOnce(w, seed, out.size(), false));
  return out;
}

/// The traced loop. Per input, an untraced run, the same input traced, and
/// for an observed workload the same input with observability off, back to
/// back: host drift then hits every side alike, and each ratio pairs two
/// runs of one input.
struct TracedRuns {
  std::vector<RunRecord> plain, traced, obsOff;
};

TracedRuns tracedLoop(const Workload& w, std::uint64_t seed, double seconds) {
  const Workload off{w.name, w.app, false};
  TracedRuns out;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < 2 || since(t0) < seconds; ++i) {
    out.plain.push_back(runOnce(w, seed, i, false));
    out.traced.push_back(runOnce(w, seed, i, true));
    if (w.observed) out.obsOff.push_back(runOnce(off, seed, i, false));
  }
  return out;
}

// --- isolated per-unit costs ------------------------------------------------
// Each layer's public entry points timed alone, at the shape the workload
// gave them, so count x unit cost says which layer can bound run time.

constexpr int kReps = 7;

/// Median ns per launched lane of `kernel` on a fresh device.
double launchNsPerLane(const rt::ClusterConfig& cfg, std::uint32_t wg,
                       const simt::Device::Kernel& kernel,
                       double* collectivesPerLane) {
  simt::Device dev(cfg.device);
  const std::uint64_t grid = std::uint64_t(wg) * 64;
  dev.launch({grid, wg}, kernel);  // warm the fiber pool
  const std::uint64_t coll0 = dev.stats().collective_ops;
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    dev.launch({grid, wg}, kernel);
    ns.push_back(since(t0) * 1e9 / double(grid));
  }
  if (collectivesPerLane != nullptr)
    *collectivesPerLane =
        double(dev.stats().collective_ops - coll0) / kReps / double(grid);
  return median(ns);
}

double queueNsPerSlot(const rt::ClusterConfig& cfg, std::uint32_t count) {
  GravelQueue q(GravelQueueConfig{cfg.gpu_queue_bytes, cfg.device.max_wg_size,
                                  rt::NetMessage::kRows});
  constexpr std::uint64_t kSlots = 20000;
  std::vector<rt::NetMessage> sink(cfg.device.max_wg_size);
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    {
      std::jthread producer([&] {
        for (std::uint64_t i = 0; i < kSlots; ++i)
          q.publish(q.acquireWrite(count));
      });
      for (std::uint64_t got = 0; got < kSlots;) {
        GravelQueue::SlotRef ref;
        if (!q.tryAcquireRead(ref)) continue;
        q.copySlot(ref, sink.data());
        q.release(ref);
        ++got;
      }
    }  // joins the producer
    ns.push_back(since(t0) * 1e9 / double(kSlots));
  }
  return median(ns);
}

double fabricNsPerBatch(std::size_t msgsPerBatch) {
  net::PerfectFabric fabric(kNodes);
  std::vector<rt::NetMessage> batch(msgsPerBatch,
                                    rt::NetMessage::atomicInc(1, 0));
  constexpr int kBatches = 5000;
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatches; ++i) {
      fabric.send(0, 1, std::move(batch));
      net::Delivery d;
      if (!fabric.tryReceive(1, d))
        throw Error("PerfectFabric lost a batch in the unit-cost loop");
      fabric.markResolved(1, d);
      batch = std::move(d.messages);  // recycle: time the fabric, not malloc
    }
    ns.push_back(since(t0) * 1e9 / kBatches);
  }
  return median(ns);
}

// --- output -----------------------------------------------------------------

void writeRun(obs::JsonWriter& j, const RunRecord& r) {
  const rt::ClusterRunStats& s = r.stats;
  j.beginObject()
      .kv("input", r.input)
      .kv("input_s", r.input_s)
      .kv("cluster_s", r.cluster_s)
      .kv("run_s", r.run_s)
      .kv("cpu_s", r.cpu_s)
      .kv("ok", r.ok)
      .kv("error", r.error)
      .kv("rounds", r.rounds)
      .kv("lanes", s.lanes_executed)
      .kv("workgroups", s.workgroups_executed)
      .kv("collective_ops", s.collective_ops)
      .kv("predication_ops", s.predication_overhead_ops)
      .kv("agg_slots", s.agg_slots)
      .kv("agg_locks", s.agg_lock_acquisitions)
      .kv("agg_dests", s.agg_dests_touched)
      .kv("net_batches", s.net_batches)
      .kv("net_msgs", s.net_messages)
      .kv("net_resolved", s.net_resolved)
      .kv("batch_bytes_mean", s.avg_batch_bytes)
      .kv("lat_samples", s.lat_samples);
  if (!r.samples.empty()) {
    j.key("samples").beginArray();
    for (const Sample& x : r.samples) {
      j.beginArray();
      for (double v : x) j.value(v);
      j.endArray();
    }
    j.endArray();
  }
  j.endObject();
}

void writeRuns(obs::JsonWriter& j, const char* key,
               const std::vector<RunRecord>& runs) {
  j.key(key).beginArray();
  for (const RunRecord& r : runs) writeRun(j, r);
  j.endArray();
}

/// Variables the Cluster constructor (or the tracer/fault layer) honours.
/// A stray one would silently change the workload, so refuse them all.
bool inheritedGravelEnv(std::string& which) {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "GRAVEL_", 7) == 0) {
      which = *e;
      return true;
    }
  return false;
}

int usage() {
  std::cerr << "usage: gravel_perfbench run|trace --workload "
               "gups|sssp|color|sssp_observed --seed N --seconds S "
               "--out FILE [--artifact-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload, out, artifactDir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--out") out = v;
    else if (k == "--artifact-dir") artifactDir = v;
    else return usage();
  }
  const Workload* w = findWorkload(workload);
  if ((mode != "run" && mode != "trace") || w == nullptr || out.empty() ||
      !(seconds > 0))
    return usage();

  std::string stray;
  if (inheritedGravelEnv(stray)) {
    std::cerr << "gravel_perfbench: refusing to run with " << stray
              << " set; it would change the workload\n";
    return 2;
  }
  // Exit dumps of observed runs land beside the result, never in the cwd.
  for (const char* var :
       {"GRAVEL_PROFILE_DIR", "GRAVEL_TIMESERIES_DIR", "GRAVEL_FLIGHTREC_DIR"})
    setenv(var, artifactDir.c_str(), 1);

  std::ofstream os(out);
  if (!os) {
    std::cerr << "gravel_perfbench: cannot write " << out << "\n";
    return 2;
  }
  obs::JsonWriter j(os);
  j.beginObject();
  j.key("meta")
      .beginObject()
      .kv("workload", std::string(w->name))
      .kv("mode", mode)
      .kv("seed", seed)
      .kv("nodes", kNodes)
      .kv("nproc", std::uint64_t(std::thread::hardware_concurrency()))
      .kv("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .kv("compiler", std::string("g++ ") + __VERSION__)
      .endObject();

  if (mode == "run") {
    writeRuns(j, "runs", loop(*w, seed, seconds));
  } else {
    const TracedRuns runs = tracedLoop(*w, seed, seconds);
    writeRuns(j, "runs", runs.plain);
    writeRuns(j, "traced", runs.traced);
    writeRuns(j, "obs_off", runs.obsOff);

    // Unit costs at the shape of the first untraced run.
    const rt::ClusterConfig cfg = clusterConfig(*w);
    const rt::ClusterRunStats& s = runs.plain.front().stats;
    const std::uint32_t wg = cfg.device.max_wg_size;  // every app's default
    const double bare = launchNsPerLane(
        cfg, wg, [](simt::WorkItem&) {}, nullptr);
    double collPerLane = 0;
    const double withColl = launchNsPerLane(
        cfg, wg,
        [](simt::WorkItem& wi) { (void)wi.wgReduceMax(wi.localId()); },
        &collPerLane);
    const double msgsPerSlot =
        s.agg_slots ? double(s.net_messages) / double(s.agg_slots) : 1.0;
    const auto count = std::uint32_t(
        std::clamp(msgsPerSlot + 0.5, 1.0, double(cfg.device.max_wg_size)));
    const auto batchMsgs = std::size_t(std::max(
        1.0, s.avg_batch_bytes / double(sizeof(rt::NetMessage)) + 0.5));
    j.key("units")
        .beginObject()
        .kv("simt.ns_per_lane", bare)
        .kv("simt.ns_per_collective", (withColl - bare) / collPerLane)
        .kv("queue.ns_per_slot", queueNsPerSlot(cfg, count))
        .kv("queue.slot_msgs", count)
        .kv("net.ns_per_batch", fabricNsPerBatch(batchMsgs))
        .kv("net.batch_msgs", std::uint64_t(batchMsgs))
        .endObject();
  }
  j.kv("peak_rss_mb", peakRssMb());
  j.endObject();
  os << "\n";
  return os ? 0 : 1;
}
