// The whole simulated cluster: N Gravel nodes over an in-process fabric.
// Owns the symmetric allocator, the active-message registry, the quiet
// protocol and the per-run statistics roll-up the benches print.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic.hpp"
#include "net/dead_letter.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/status_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "runtime/active_message.hpp"
#include "runtime/cluster_stats.hpp"
#include "runtime/config.hpp"
#include "runtime/membership.hpp"
#include "runtime/node_runtime.hpp"

namespace gravel::rt {

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t nodes() const noexcept { return config_.nodes; }
  const ClusterConfig& config() const noexcept { return config_; }
  NodeRuntime& node(std::uint32_t i) { return *nodes_[i]; }

  /// The transport the runtime sends through: PerfectFabric by default,
  /// FaultyFabric when config.fault is active, with ReliableFabric stacked
  /// on top when config.reliability.enabled.
  net::Fabric& fabric() noexcept { return *fabric_; }

  /// The raw wire under any reliability layer (== fabric() without one);
  /// its counters include retransmissions, duplicates and ACK traffic.
  net::Fabric& wireFabric() noexcept { return *wire_; }

  /// Symmetric allocation: the same offset is reserved on every node's heap.
  template <typename T>
  SymAddr<T> alloc(std::uint64_t count) {
    return allocator_.alloc<T>(count);
  }

  /// Registers an active-message handler on all nodes. Safe at any
  /// quiescent point, including between launches (multi-phase pipelines).
  std::uint32_t registerHandler(AmHandler handler);

  /// A kernel parameterized by the node it runs on.
  using NodeKernel = std::function<void(std::uint32_t node, simt::WorkItem&)>;

  /// Work for one node, run on that node's GPU worker.
  using NodeWork = std::function<void(std::uint32_t node)>;

  /// Launches `kernel` with a per-node grid size on every node concurrently
  /// (through runOnNodes()), publishes the GPU-side counters, then runs the
  /// quiet protocol so every initiated message is resolved cluster-wide.
  void launchAll(std::uint64_t gridPerNode, std::uint32_t wgSize,
                 const NodeKernel& kernel);

  /// Same, with per-node grid sizes (irregular partitions).
  void launchAll(const std::vector<std::uint64_t>& grids, std::uint32_t wgSize,
                 const NodeKernel& kernel);

  /// Runs host `work(node)` for every node concurrently and quiesces. Used
  /// by host-driven phases of baseline models.
  void hostParallel(const NodeWork& work);

  /// The one way to run per-node work: hands `work(node)` to every node's
  /// GPU worker and waits at the launch barrier until all of them finished.
  /// The workers live as long as the cluster and block between dispatches.
  /// Everything a worker wrote happens-before the return, as after joining
  /// a thread. If any work threw, the first exception in node order is
  /// rethrown once every node finished. No quiet(): callers that drive
  /// devices and the fabric by hand (the §3 models) fence themselves. One
  /// dispatch at a time; calling it from inside `work` is an error.
  void runOnNodes(const NodeWork& work);

  /// Starts the executor (every node's aggregator and network tasks) and
  /// the per-node GPU workers explicitly. launchAll() and runOnNodes() do
  /// this on first use; callers that drive the fabric directly (the §3
  /// model implementations) must call it before sending. No thread starts
  /// or stops after this until the destructor.
  void start() { ensureThreadsStarted(); }

  /// Drains GPU queues, flushes aggregators and waits until every message
  /// in flight has been resolved (the PGAS fence + cluster barrier). With a
  /// reliability layer, completion is ACK-based: every batch must be
  /// acknowledged by its destination, so drops and duplicates cannot wedge
  /// or corrupt the count. Throws net::LinkFailureError if a link exhausted
  /// its retry budget, and a generic Error with a per-link diagnostic if
  /// config.quiet_deadline expires before the cluster quiesces.
  void quiet();

  /// Per-run traffic/operation roll-up, read off the metrics registry:
  /// counters are collectMetrics().delta() against the snapshot the last
  /// resetStats() stored, while levels, latency quantiles and the profiler
  /// roll-up read the current snapshot. Call between launches: both publish
  /// the GPU-side counters first. Under the degrade failure policy,
  /// `runStats().degraded` reports which nodes/links were excised and the
  /// dead-letter accounting that closes
  /// net_resolved + degraded.dead_lettered == net_messages for the window.
  ClusterRunStats runStats();
  void resetStats();

  // --- graceful degradation (config.reliability.policy == kDegrade) -------

  /// Membership/health view; null under fail_fast.
  Membership* membership() noexcept { return membership_.get(); }
  const Membership* membership() const noexcept { return membership_.get(); }

  /// Dead-letter queue; null under fail_fast.
  net::DeadLetterQueue* deadLetters() noexcept { return dlq_.get(); }

  /// Crash injection: declares node `n` dead, unschedules its network task
  /// and excises every link touching it — in-flight traffic it already
  /// resolved counts delivered, the rest is dead-lettered, and new sends
  /// toward it dead-letter immediately (its aggregator keeps draining the
  /// GPU queue, the proxy-thread property). Returns only once no executor
  /// thread is inside the network task, so the node's resolution level is
  /// final before excision. quiet() then completes degraded instead of
  /// throwing. No-op if the node is already dead. Requires kDegrade.
  void crashNode(std::uint32_t n);

  /// Restart injection: brings a crashed node back under the next epoch —
  /// links re-sync (stale-epoch wire traffic stays rejected), its network
  /// task is rescheduled, and dead-lettered traffic involving it is
  /// redelivered through the normal send path. Requires a prior
  /// crashNode/excision.
  void restartNode(std::uint32_t n);

  /// Stall injection for the watchdog: unschedules node `n`'s aggregator
  /// tasks, so its GPU queue stops draining. Returns once no executor thread
  /// is inside one of them. The destructor still drains the queue.
  void stallAggregator(std::uint32_t n);

  // --- observability (src/obs) -------------------------------------------

  /// The message-lifecycle tracer (enabled via config.obs.enabled).
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// The metrics registry; the depth sampler feeds it continuously, and
  /// collectMetrics() publishes every runtime counter into it.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Publishes all runtime/fabric/trace-derived metrics into the registry
  /// and returns a snapshot. Safe while the run is live (the monitor and
  /// the status server call it); the GPU-side ops.* and simt.* rows are as
  /// of the last launchAll(), runStats() or resetStats().
  obs::MetricsSnapshot collectMetrics();

  /// Chrome-trace JSON of everything recorded so far (open the file in
  /// https://ui.perfetto.dev). Call at a quiescent point.
  void writeTrace(std::ostream& os) const;

  /// Metrics snapshot as JSON / CSV (collectMetrics() first).
  void writeMetricsJson(std::ostream& os);
  void writeMetricsCsv(std::ostream& os);

  /// The stall watchdog (config.watchdog); null when disabled. Its
  /// diagnoses also surface in quiet()'s post-mortem and collectMetrics().
  obs::Watchdog* watchdog() noexcept { return watchdog_.get(); }
  const obs::Watchdog* watchdog() const noexcept { return watchdog_.get(); }

  /// Flight-recorder dump (the last N trace events per thread) as JSON.
  /// Safe at any time, including while runtime threads are live. The
  /// cluster also writes this automatically to
  /// ${GRAVEL_FLIGHTREC_DIR:-.}/gravel_flightrec.json on quiet-deadline
  /// expiry, on LinkFailureError, and at destruction when
  /// GRAVEL_FLIGHTREC_DUMP=1.
  void writeFlightRecorder(std::ostream& os, const std::string& reason) const;

  /// Watchdog diagnosis table as JSON (empty table when disabled).
  void writeWatchdog(std::ostream& os) const;

  /// The windowed time-series collector (config.timeseries /
  /// GRAVEL_TIMESERIES=1); null when disabled. The monitor thread feeds it
  /// one MetricsSnapshot::delta() window per period, and the destructor
  /// dumps ${GRAVEL_TIMESERIES_DIR:-.}/gravel_timeseries.json.
  obs::TimeSeries* timeSeries() noexcept { return timeseries_.get(); }
  const obs::TimeSeries* timeSeries() const noexcept {
    return timeseries_.get();
  }

  /// The live HTTP endpoint (config.status_server / GRAVEL_STATUS_PORT);
  /// null when disabled. port() reports the actually-bound port, so tests
  /// and tools work with an ephemeral port 0.
  obs::StatusServer* statusServer() noexcept { return statusServer_.get(); }

  /// The time-series ring as schema-versioned JSON (an empty document when
  /// the collector is disabled).
  void writeTimeSeries(std::ostream& os) const;

  /// The /status document: membership, link breakers, dead-letter depths,
  /// latency percentile gauges, open watchdog diagnoses and recent
  /// collector windows with rate columns. Safe while the run is live.
  void writeStatusJson(std::ostream& os);

  /// The continuous profiler (config.profiler / GRAVEL_PROFILE=1):
  /// per-thread cycle attribution plus the named-mutex contention table.
  /// Always constructed — disabled it costs one predicted branch per
  /// region bracket — so it can be flipped on mid-run.
  obs::Profiler& profiler() noexcept { return profiler_; }
  const obs::Profiler& profiler() const noexcept { return profiler_; }

  /// The /profile document (also gravel_profile.json at destruction when
  /// profiling is on): per-thread region paths, duty cycles, and per-site
  /// lock-wait histograms. Safe while the run is live.
  void writeProfileJson(std::ostream& os) const;

 private:
  /// One unit of runtime work (DESIGN.md §5): one of a node's aggregator
  /// drains, with its driver state, or the node's network task. Exactly
  /// one executor thread owns a task; `mutex` is held while that thread
  /// runs one pass of it, so unscheduling waits out an in-flight pass.
  struct Task {
    NodeRuntime& node;
    std::string name;  ///< agg.N.T or net.N
    bool network;
    /// An aggregator task's driver, built by its owner thread.
    std::optional<Aggregator::Driver> driver;
    gravel::mutex mutex;
    bool scheduled GRAVEL_GUARDED_BY(mutex) = true;
  };

  void ensureThreadsStarted();
  void executorLoop(std::uint32_t t, std::uint32_t threads);
  bool runTask(Task& task, bool timeoutsDue);
  void setScheduled(Task& task, bool scheduled);
  bool scheduled(Task& task);
  Task& nodeTask(std::uint32_t n, std::uint32_t k);
  void stopExecutor();
  void workerLoop(std::uint32_t node);
  void stopWorkers();
  [[noreturn]] void quietDeadlineExpired(const char* stage);
  void monitorLoop();
  obs::WatchdogSample samplePipeline();
  void sampleGauges(const obs::WatchdogSample& s);
  void sampleMembership(const obs::WatchdogSample& s);
  void collectWindow();
  void publishDeviceCounters();
  void ingestLatency();
  obs::StatusResponse handleStatusRequest(const std::string& path);
  void dumpFlightRecorder(const char* reason) const noexcept;
  void dumpTimeSeries() const noexcept;
  void dumpProfile() const noexcept;

  ClusterConfig config_;
  obs::Tracer tracer_;        ///< must outlive nodes_/fabric (they hold refs)
  obs::Profiler profiler_;    ///< must outlive nodes_ (they hold pointers)
  obs::MetricsRegistry metrics_;
  /// Serializes collectMetrics(). The monitor, the status server and
  /// runStats() all collect into metrics_; unserialized, a collect that read
  /// a counter earlier could overwrite a newer value between another
  /// collect's publish and its snapshot.
  gravel::mutex collectMutex_{"Cluster::collectMutex_"};
  std::unique_ptr<net::Fabric> wire_;             ///< transport (maybe faulty)
  std::unique_ptr<net::ReliableFabric> reliable_; ///< optional sublayer
  net::Fabric* fabric_ = nullptr;                 ///< top of the stack
  AmRegistry registry_;
  SymmetricAllocator allocator_;
  std::unique_ptr<Membership> membership_;        ///< degrade policy only
  std::unique_ptr<net::DeadLetterQueue> dlq_;     ///< degrade policy only
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  bool threadsStarted_ = false;

  /// The executor (DESIGN.md §5): tasks in node order, each node's
  /// aggregator tasks before its network task; thread t of K owns tasks
  /// t, t+K, t+2K, ...
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::thread> executor_;
  /// Relaxed: only asks the threads to leave their loops; join() orders
  /// their work before the destructor's drain.
  atomic<bool> executorStop_{false};

  /// Per-node GPU workers (DESIGN.md §5): worker i runs node i's share of
  /// every runOnNodes() dispatch. A dispatch posts `job_` under a new
  /// `jobSeq_` and waits until `jobsRunning_` drops to zero; a worker waits
  /// for a sequence number it has not run yet. Both waits hold workMutex_,
  /// so the barrier orders each worker's writes before the dispatcher
  /// returns.
  gravel::mutex workMutex_{"Cluster::workMutex_"};
  std::condition_variable_any workPosted_;  ///< new job, or stop
  std::condition_variable_any workDone_;    ///< jobsRunning_ reached zero
  const NodeWork* job_ GRAVEL_GUARDED_BY(workMutex_) = nullptr;
  std::uint64_t jobSeq_ GRAVEL_GUARDED_BY(workMutex_) = 0;
  std::uint32_t jobsRunning_ GRAVEL_GUARDED_BY(workMutex_) = 0;
  bool workersStop_ GRAVEL_GUARDED_BY(workMutex_) = false;
  /// Slot i is written only by worker i while a job runs and read by the
  /// dispatcher after the barrier.
  std::vector<std::exception_ptr> jobErrors_;
  std::vector<std::thread> workers_;

  /// Monitor thread: the run's ONE sampling thread. Gauge sampling + online
  /// latency ingest, watchdog sampling, the membership failure detector and
  /// the time-series collector run as duties on independent cadences;
  /// duties due on the same tick share a single pipeline sample.
  std::thread monitor_;
  atomic<bool> monitorStop_{false};
  /// Monitor-loop self-overhead (satellite of DESIGN.md §15): ticks whose
  /// work ran past the computed wake deadline, plus a duration stat. Both
  /// written by the monitor thread only; read by collectMetrics().
  atomic<std::uint64_t> monitorTickOverruns_{0};
  atomic<std::uint64_t> monitorTicks_{0};
  atomic<std::uint64_t> monitorTickNsTotal_{0};
  atomic<std::uint64_t> monitorTickNsMax_{0};

  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::unique_ptr<obs::StatusServer> statusServer_;

  // Latency-attribution engine. Single-owner by design (no internal locks);
  // the mutex serializes the monitor thread's incremental ingest against
  // collectMetrics() readers.
  gravel::mutex latencyMutex_{"Cluster::latencyMutex_"};
  obs::LatencyAttribution latency_ GRAVEL_GUARDED_BY(latencyMutex_);

  /// The collectMetrics() snapshot the last resetStats() took; runStats()
  /// windows every counter against it.
  obs::MetricsSnapshot statsBase_;
};

}  // namespace gravel::rt
