#include "runtime/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "obs/trace_export.hpp"

namespace gravel::rt {

namespace {

// Slots one aggregator pass routes at most: bounds how long a pooled
// thread's round keeps its other tasks waiting.
constexpr std::uint32_t kPumpSlots = 8;

std::uint64_t wallClockMs() {
  return std::uint64_t(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool envTruthy(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

// Visits every row of one metric, whatever its labels (one per node, thread
// or site). The snapshot is ordered by (name, labels), so they are adjacent.
template <typename Fn>
void forEachRow(const obs::MetricsSnapshot& s, const std::string& name,
                Fn&& fn) {
  for (auto it = s.metrics.lower_bound({name, std::string()});
       it != s.metrics.end() && it->first.first == name; ++it)
    fn(it->second);
}

std::uint64_t counterSum(const obs::MetricsSnapshot& s,
                         const std::string& name) {
  std::uint64_t sum = 0;
  forEachRow(s, name, [&sum](const obs::MetricValue& m) { sum += m.count; });
  return sum;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      tracer_(config.obs),
      profiler_(obs::ProfilerConfig{}, tracer_),
      allocator_(config.heap_bytes) {
  // Degenerate configurations (zero-capacity per-node queues, zero
  // aggregator threads, zero-size GPU queue, ...) fail here with an
  // actionable message instead of misbehaving deep in the pipeline.
  config_.validate();
  // GRAVEL_FAULT_* environment overrides may activate fault injection on a
  // cluster whose compiled-in config is fault-free, so apply them before
  // choosing the wire.
  config_.fault.applyEnvOverrides();
  // Live-telemetry overrides (README "Watching a live run"): the same
  // binary becomes watchable without a recompile. GRAVEL_STATUS_PORT
  // implies the collector — gravel-top's rate columns come from windows.
  if (envTruthy("GRAVEL_TIMESERIES")) config_.timeseries.enabled = true;
  if (const char* env = std::getenv("GRAVEL_TIMESERIES_PERIOD_MS")) {
    const long ms = std::atol(env);
    if (ms > 0) config_.timeseries.period = std::chrono::milliseconds(ms);
  }
  if (const char* env = std::getenv("GRAVEL_STATUS_PORT")) {
    const long port = std::atol(env);
    if (port >= 0 && port <= 65535) {
      config_.status_server.enabled = true;
      config_.status_server.port = std::uint16_t(port);
      config_.timeseries.enabled = true;
    }
  }
  // Continuous profiler (README "Profiling a run"): region attribution and
  // the process-wide named-mutex contention table switch on together —
  // lock-wait histograms without cycle attribution answer half the
  // question.
  if (envTruthy("GRAVEL_PROFILE")) config_.profiler.enabled = true;
  if (config_.profiler.enabled) {
    profiler_.setEnabled(true);
    // The contention table is process-global; window it to this cluster's
    // lifetime so sequential profiled runs in one process (the bench
    // sweeps) don't inherit each other's wait totals.
    lockprof::reset();
    lockprof::setEnabled(true);
  }
  if (config_.fault.active())
    wire_ = std::make_unique<net::FaultyFabric>(config_.nodes, config_.fault);
  else
    wire_ = std::make_unique<net::PerfectFabric>(config_.nodes);
  if (config_.reliability.enabled) {
    reliable_ =
        std::make_unique<net::ReliableFabric>(*wire_, config_.reliability);
    fabric_ = reliable_.get();
  } else {
    fabric_ = wire_.get();
  }
  // The top of the stack forwards the tracer down to the wire, so kWireSend
  // events fire at the real transport boundary (retransmissions included).
  fabric_->setTracer(&tracer_);
  if (config_.watchdog.enabled)
    watchdog_ = std::make_unique<obs::Watchdog>(config_.watchdog);
  if (reliable_ &&
      config_.reliability.policy == net::FailurePolicy::kDegrade) {
    membership_ = std::make_unique<Membership>(config_.nodes);
    dlq_ = std::make_unique<net::DeadLetterQueue>(
        config_.nodes, config_.reliability.dlq_capacity);
    reliable_->attachDegrade(membership_.get(), dlq_.get());
  }
  nodes_.reserve(config.nodes);
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeRuntime>(i, config_, *fabric_,
                                                   registry_, tracer_,
                                                   &profiler_));
    if (membership_) nodes_.back()->attachAdmission(membership_.get(),
                                                    dlq_.get());
  }
  if (config_.timeseries.enabled)
    timeseries_ = std::make_unique<obs::TimeSeries>(config_.timeseries);
  if (config_.status_server.enabled) {
    statusServer_ = std::make_unique<obs::StatusServer>(
        config_.status_server,
        [this](const std::string& path) { return handleStatusRequest(path); });
    // Telemetry must never take down the workload: a failed bind logs and
    // the run continues without the endpoint.
    if (!statusServer_->start())
      std::fprintf(stderr,
                   "gravel: status server could not bind %s:%u; running "
                   "without the live endpoint\n",
                   config_.status_server.bind_address.c_str(),
                   unsigned(config_.status_server.port));
  }
}

Cluster::~Cluster() {
  // The status server's handlers read cluster state; stop serving first.
  if (statusServer_) statusServer_->stop();
  monitorStop_.store(true, std::memory_order_release);  // pairs-with: cluster.monitor-stop
  if (monitor_.joinable()) monitor_.join();
  // Close the time-series with one final window so the exit artifact covers
  // the run's tail even when the last cadence tick never fired.
  if (timeseries_) {
    collectWindow();
    dumpTimeSeries();
  }
  // Every dispatch waits for its workers, so they are idle here; join them
  // before the executor they feed.
  stopWorkers();
  stopExecutor();
  // Exit artifact for a profiled run, written after every instrumented
  // thread has joined so the accumulators are final.
  if (profiler_.enabled()) dumpProfile();
  // Opt-in exit dump: GRAVEL_FLIGHTREC_DUMP=1 writes the flight record even
  // on clean shutdown (CI smoke uses this to validate the artifact).
  if (const char* env = std::getenv("GRAVEL_FLIGHTREC_DUMP"))
    if (*env != '\0' && std::string(env) != "0") dumpFlightRecorder("exit");
}

std::uint32_t Cluster::registerHandler(AmHandler handler) {
  // Registration is legal at any quiescent point (between launches): the
  // registry publishes append-only through an atomic count, so live network
  // threads never observe a partial entry.
  return registry_.add(std::move(handler));
}

void Cluster::ensureThreadsStarted() {
  if (threadsStarted_) return;
  for (auto& n : nodes_) {
    const std::string node = std::to_string(n->id());
    for (std::uint32_t t = 0; t < config_.aggregator_threads; ++t)
      tasks_.push_back(std::make_unique<Task>(
          *n, "agg." + node + "." + std::to_string(t), /*network=*/false));
    tasks_.push_back(
        std::make_unique<Task>(*n, "net." + node, /*network=*/true));
  }
  const auto threads = std::uint32_t(
      config_.runtime_threads == 0
          ? tasks_.size()
          : std::min<std::size_t>(config_.runtime_threads, tasks_.size()));
  executor_.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t)
    executor_.emplace_back([this, t, threads] { executorLoop(t, threads); });
  jobErrors_.resize(config_.nodes);
  workers_.reserve(config_.nodes);
  for (std::uint32_t i = 0; i < config_.nodes; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
  const bool gauges = tracer_.enabled() && config_.obs.gauge_period.count() > 0;
  if (gauges || watchdog_ || membership_ || timeseries_)
    monitor_ = std::thread([this] { monitorLoop(); });
  threadsStarted_ = true;
}

// One executor thread: runs one pass over each task it owns, round after
// round, and backs off when a whole round found no work. A thread that owns
// one task is that task's dedicated thread and carries its name; a thread
// that owns several is pool.t and brackets each round in pool.pump.
void Cluster::executorLoop(std::uint32_t t, std::uint32_t threads) {
  std::vector<Task*> mine;
  for (std::size_t j = t; j < tasks_.size(); j += threads)
    mine.push_back(tasks_[j].get());
  const bool pooled = mine.size() > 1;
  const std::string name = pooled ? "pool." + std::to_string(t)
                                  : mine.front()->name;
  tracer_.nameThread(name);
  // The owner builds its aggregator tasks' drivers, so their scratch lives
  // in this thread's malloc arena, as a dedicated thread's always did.
  bool drains = false;
  for (Task* task : mine)
    if (!task->network) {
      task->driver.emplace(task->node.aggregator().makeDriver());
      drains = true;
    }
  // Idle rounds decay to short sleeps, capped well under the flush timeout
  // for aggregator tasks (their idle passes retire timed-out buffers) and
  // at 100 us for network-only threads.
  Backoff backoff(std::chrono::microseconds(drains ? 20 : 100));
  while (!executorStop_.load(std::memory_order_relaxed)) {
    bool busy = false;
    {
      obs::ScopedRegion roundRegion(pooled ? &profiler_ : nullptr,
                                    obs::Region::kPoolPump);
      for (Task* task : mine) busy |= runTask(*task);
    }
    if (busy) {
      backoff.reset();
    } else {
      obs::ScopedRegion idleRegion(&profiler_, obs::Region::kIdle);
      backoff.wait();
    }
  }
}

// One pass of one task. Returns whether it found work.
bool Cluster::runTask(Task& task) {
  gravel::lock_guard lk(task.mutex);
  if (!task.scheduled) return false;
  if (task.network) return task.node.network().pumpOnce();
  return task.node.aggregator().pump(*task.driver, kPumpSlots) > 0;
}

void Cluster::setScheduled(Task& task, bool scheduled) {
  // Taking the mutex waits out a pass the owner thread is running.
  gravel::lock_guard lk(task.mutex);
  task.scheduled = scheduled;
}

bool Cluster::scheduled(Task& task) {
  gravel::lock_guard lk(task.mutex);
  return task.scheduled;
}

// Node n's aggregator tasks are k = 0 .. aggregator_threads - 1; its network
// task is k = aggregator_threads.
Cluster::Task& Cluster::nodeTask(std::uint32_t n, std::uint32_t k) {
  return *tasks_[std::size_t(n) * (config_.aggregator_threads + 1) + k];
}

// Joins the executor, then drains on this thread, which now owns every
// task: route what the GPU queues still hold, flush it, and resolve every
// inbox until a whole round finds nothing. Producers have quiesced.
void Cluster::stopExecutor() {
  executorStop_.store(true, std::memory_order_relaxed);
  for (auto& t : executor_)
    if (t.joinable()) t.join();
  executor_.clear();
  for (auto& task : tasks_)
    if (!task->network)
      while (task->node.aggregator().pump(*task->driver, kPumpSlots) > 0) {
      }
  for (auto& n : nodes_) n->aggregator().flushAll();
  bool drained = false;
  while (!drained) {
    drained = true;
    for (auto& n : nodes_)
      if (n->network().pumpOnce()) drained = false;
  }
}

// One node's GPU worker: blocks until a dispatch posts a job it has not
// run, runs the node's share, and counts itself out at the launch barrier.
void Cluster::workerLoop(std::uint32_t node) {
  std::uint64_t seen = 0;
  bool named = false;
  for (;;) {
    const NodeWork* job = nullptr;
    {
      gravel::lock_guard lk(workMutex_);
      while (jobSeq_ == seen && !workersStop_) workPosted_.wait(workMutex_);
      if (workersStop_) return;
      seen = jobSeq_;
      job = job_;
    }
    // Named on the first job, not at start: a worker that never runs
    // anything registers no observability context.
    if (!named) {
      tracer_.nameThread("gpu." + std::to_string(node));
      named = true;
    }
    try {
      (*job)(node);
    } catch (...) {
      jobErrors_[node] = std::current_exception();
    }
    gravel::lock_guard lk(workMutex_);
    if (--jobsRunning_ == 0) workDone_.notify_all();
  }
}

void Cluster::stopWorkers() {
  {
    gravel::lock_guard lk(workMutex_);
    workersStop_ = true;
  }
  workPosted_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

// --- graceful degradation ---------------------------------------------------

void Cluster::crashNode(std::uint32_t n) {
  GRAVEL_CHECK_MSG(membership_ != nullptr,
                   "crashNode requires reliability.policy == kDegrade");
  GRAVEL_CHECK_MSG(n < config_.nodes, "crashNode: bad node id");
  ensureThreadsStarted();
  if (!membership_->declareDead(n, "crashNode() injected")) return;
  // Unschedule the node's network task first, waiting out a pass in
  // flight: afterwards its resolution level is final, so excision settles
  // sender-side copies against the truth — resolved counts delivered, the
  // rest dead-letters. The aggregator tasks deliberately keep running: GPU
  // queues keep draining (the proxy-thread property) and their sends
  // dead-letter at the breaker.
  setScheduled(nodeTask(n, config_.aggregator_threads), false);
  reliable_->exciseNode(n, /*receiverStopped=*/true);
}

void Cluster::restartNode(std::uint32_t n) {
  GRAVEL_CHECK_MSG(membership_ != nullptr,
                   "restartNode requires reliability.policy == kDegrade");
  GRAVEL_CHECK_MSG(n < config_.nodes, "restartNode: bad node id");
  GRAVEL_CHECK_MSG(membership_->dead(n),
                   "restartNode: node is not dead (crashNode it first, or "
                   "let the failure detector excise it)");
  ensureThreadsStarted();
  // Epoch bump first, then the link re-sync (another era bump): any frame
  // of the dead incarnation still sitting in wire inboxes is provably
  // stale-era when it finally drains.
  membership_->restart(n, "restartNode() injected");
  reliable_->resetNode(n);
  // resetNode() re-closed every link touching n — including links whose
  // other endpoint is still dead. Re-excise those peers, or traffic between
  // n and a dead peer would retransmit into the void (n's sends never trip
  // a generous retry budget, the peer's sends are never polled) instead of
  // dead-lettering, wedging quiet() until its deadline.
  for (std::uint32_t d : membership_->deadNodes())
    reliable_->exciseNode(d, /*receiverStopped=*/!scheduled(
                                 nodeTask(d, config_.aggregator_threads)));
  // A crashNode()-unscheduled network task runs again; a detector-excised
  // node's task was never unscheduled.
  setScheduled(nodeTask(n, config_.aggregator_threads), true);
  // Pay back what the cluster owes the node (and what it owed others).
  reliable_->redeliver(n);
}

void Cluster::stallAggregator(std::uint32_t n) {
  GRAVEL_CHECK_MSG(n < config_.nodes, "stallAggregator: bad node id");
  ensureThreadsStarted();
  for (std::uint32_t k = 0; k < config_.aggregator_threads; ++k)
    setScheduled(nodeTask(n, k), false);
}

void Cluster::launchAll(std::uint64_t gridPerNode, std::uint32_t wgSize,
                        const NodeKernel& kernel) {
  launchAll(std::vector<std::uint64_t>(config_.nodes, gridPerNode), wgSize,
            kernel);
}

void Cluster::launchAll(const std::vector<std::uint64_t>& grids,
                        std::uint32_t wgSize, const NodeKernel& kernel) {
  GRAVEL_CHECK_MSG(grids.size() == config_.nodes,
                   "one grid size per node required");
  const NodeWork work = [this, &grids, wgSize, &kernel](std::uint32_t i) {
    if (grids[i] == 0) return;
    node(i).device().launch(
        {grids[i], wgSize},
        [i, &kernel](simt::WorkItem& wi) { kernel(i, wi); });
  };
  try {
    runOnNodes(work);
  } catch (...) {
    publishDeviceCounters();
    throw;
  }
  publishDeviceCounters();
  quiet();
}

void Cluster::hostParallel(const NodeWork& work) {
  runOnNodes(work);
  quiet();
}

void Cluster::runOnNodes(const NodeWork& work) {
  ensureThreadsStarted();
  {
    gravel::lock_guard lk(workMutex_);
    // A dispatch from inside `work` (or a second caller thread) would wait
    // on workers that are busy with the first one.
    GRAVEL_CHECK_MSG(jobsRunning_ == 0,
                     "runOnNodes: another dispatch is still running");
    job_ = &work;
    ++jobSeq_;
    jobsRunning_ = config_.nodes;
  }
  workPosted_.notify_all();
  {
    gravel::lock_guard lk(workMutex_);
    while (jobsRunning_ != 0) workDone_.wait(workMutex_);
    job_ = nullptr;
  }
  std::exception_ptr first;
  for (std::exception_ptr& e : jobErrors_) {
    if (e && !first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void Cluster::quietDeadlineExpired(const char* stage) {
  // A hang post-mortem built from the metrics-registry snapshot: which wait
  // stalled, how deep every pipeline stage is, and — with a reliability
  // layer — which link is stuck and which sequence range it still owes.
  const obs::MetricsSnapshot snap = collectMetrics();
  std::ostringstream os;
  os << "quiet deadline (" << config_.quiet_deadline.count()
     << " ms) expired while " << stage << ". " << fabric_->describePending();
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    const std::string node = "node=" + std::to_string(i);
    os << "; node " << i << ": aggregator "
       << std::uint64_t(snap.number("agg.slots_processed", node)) << "/"
       << std::uint64_t(snap.number("gpu_queue.slots_reserved", node))
       << " slots routed";
  }
  // Stalled links, from the registry's per-link reliability gauges.
  for (const auto& [key, m] : snap.metrics) {
    if (key.first != "rel.link_unacked") continue;
    const std::string& link = key.second;  // "link=S->D"
    os << "; stalled " << link << ": " << std::uint64_t(m.value)
       << " unacked, oldest seq "
       << std::uint64_t(snap.number("rel.link_oldest_seq", link))
       << ", next seq "
       << std::uint64_t(snap.number("rel.link_next_seq", link))
       << ", retries "
       << std::uint64_t(snap.number("rel.link_retries", link));
  }
  os << "; registry captured " << snap.metrics.size() << " metric(s)";
  // Degraded-mode context: "link excised by failure policy" (breaker open,
  // traffic dead-lettering by design) is a different situation from "quiet
  // deadline expired" on a healthy link, and the post-mortem must not
  // conflate them. describePending() above already lists excised links; add
  // the membership view so the reader sees which *nodes* are out.
  if (membership_) {
    for (std::uint32_t n : membership_->deadNodes())
      os << "; node " << n << " excised by failure policy (dead, epoch "
         << membership_->epoch(n) << ") — its traffic dead-letters instead "
         << "of completing; this deadline expiry is about the remaining "
         << "live links";
    const net::DeadLetterStats d = dlq_->stats();
    if (d.rejected != 0)
      os << "; admission control rejected " << d.rejected
         << " operation(s) at enqueue";
  }
  // The watchdog has been sampling all along: its diagnoses say *which*
  // queue/buffer/link stalled and since when, which the counters above only
  // imply.
  if (watchdog_) os << "; " << watchdog_->describe();
  dumpFlightRecorder("quiet-deadline");
  GRAVEL_CHECK_MSG(false, os.str());
}

void Cluster::quiet() {
  if (!threadsStarted_) return;
  const bool bounded = config_.quiet_deadline.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        config_.quiet_deadline;
  const auto check = [&](const char* stage) {
    if (auto f = fabric_->failure()) {
      dumpFlightRecorder("link-failure");
      throw net::LinkFailureError(*f);
    }
    if (bounded && std::chrono::steady_clock::now() >= deadline)
      quietDeadlineExpired(stage);
  };
  Backoff backoff;
  // 1. Every reserved GPU-queue slot must be routed by the aggregator.
  for (auto& n : nodes_) {
    while (n->aggregator().slotsProcessed() < n->queue().reservedCount()) {
      check("waiting for aggregators to drain the GPU queues");
      backoff.wait();
    }
  }
  // 2. Push every partially-filled per-node queue onto the wire.
  for (auto& n : nodes_) n->aggregator().flushAll();
  // 3. Wait until every message in flight has been resolved at its home —
  // and, with the reliability layer, acknowledged back to its sender, so a
  // dropped or duplicated batch can never fake completion.
  backoff.reset();
  while (!fabric_->quiescent()) {
    check("waiting for in-flight messages to resolve");
    backoff.wait();
  }
  // A retry budget can exhaust in the instant quiescence is observed
  // elsewhere; surface it rather than silently succeeding.
  if (auto f = fabric_->failure()) {
    dumpFlightRecorder("link-failure");
    throw net::LinkFailureError(*f);
  }
}

// A view over the registry: counters are windowed against the snapshot
// resetStats() stored, levels and cluster-lifetime values read the current
// snapshot.
ClusterRunStats Cluster::runStats() {
  publishDeviceCounters();
  const obs::MetricsSnapshot cur = collectMetrics();
  const obs::MetricsSnapshot win = cur.delta(statsBase_);
  const auto windowed = [&win](const char* name) {
    return counterSum(win, name);
  };
  ClusterRunStats s;
  s.nodes = config_.nodes;
  s.put_local = windowed("ops.put_local");
  s.put_remote = windowed("ops.put_remote");
  s.inc_local = windowed("ops.inc_local");
  s.inc_remote = windowed("ops.inc_remote");
  s.am_local = windowed("ops.am_local");
  s.am_remote = windowed("ops.am_remote");

  s.lanes_executed = windowed("simt.lanes");
  s.workgroups_executed = windowed("simt.workgroups");
  s.collective_ops = windowed("simt.collective_ops");
  s.collective_arrivals = windowed("simt.collective_arrivals");
  s.active_arrivals = windowed("simt.active_arrivals");
  s.predication_overhead_ops = windowed("simt.predication_ops");

  s.agg_slots = windowed("agg.slots_processed");
  s.agg_lock_acquisitions = windowed("agg.lock_acquisitions");
  s.agg_dests_touched = windowed("agg.dests_touched");
  s.agg_timeout_scanned = windowed("agg.timeout_scanned");
  // Levels, not windowed deltas: resident footprint is a gauge and the
  // staging and reorder peaks are high-water marks.
  s.agg_lazy_buffers = counterSum(cur, "agg.lazy_buffers");
  forEachRow(cur, "agg.resident_bytes", [&s](const obs::MetricValue& m) {
    s.agg_resident_bytes += std::uint64_t(m.value);
  });
  forEachRow(cur, "agg.staging_peak_bytes", [&s](const obs::MetricValue& m) {
    s.agg_staging_bytes_peak =
        std::max(s.agg_staging_bytes_peak, std::uint64_t(m.value));
  });
  s.reorder_peak = std::uint64_t(cur.number("rel.reorder_peak"));

  s.net_resolved = windowed("net.messages_resolved");
  s.net_batches = windowed("fabric.batches");
  s.net_messages = windowed("fabric.messages");
  s.net_bytes = windowed("fabric.bytes");
  s.avg_batch_bytes = win.number("fabric.batch_bytes");  // window mean
  s.retransmits = windowed("fabric.retransmits");
  s.dup_drops = windowed("fabric.dup_drops");
  s.acks = windowed("fabric.acks");
  s.acks_sent = windowed("rel.acks_sent");
  s.reorder_drops = windowed("rel.reorder_drops");
  s.breaker_trips = windowed("rel.breaker_trips");
  s.probes = windowed("rel.probes");
  s.stale_data_drops = windowed("rel.stale_data_drops");
  s.stale_ack_drops = windowed("rel.stale_ack_drops");
  s.injected_drops =
      windowed("fault.drops") + windowed("fault.partition_drops");
  s.injected_dups = windowed("fault.duplicates");

  // The dlq.* rows exist under the degrade policy only.
  s.degraded.dead_lettered = windowed("dlq.dead_lettered");
  s.degraded.redelivered = windowed("dlq.redelivered");
  s.degraded.rejected = windowed("dlq.rejected");
  s.degraded.evicted = windowed("dlq.evicted");
  if (membership_) {
    for (std::uint32_t n : membership_->deadNodes())
      s.degraded.dead_nodes.push_back({n, membership_->epoch(n)});
    // Links excised at window end, mirroring dead_nodes. A breaker that
    // tripped and re-closed within the window is not listed — its damage
    // shows in breaker_trips and the dead-letter deltas — so a healed
    // cluster's later windows stop reporting degraded().
    for (const auto& b : reliable_->breakerStates())
      if (b.state != net::BreakerState::kClosed)
        s.degraded.tripped_links.push_back(
            {b.src, b.dst, std::uint8_t(b.state), b.era});
  }

  // Latency quantiles and the profiler roll-up are cluster-lifetime values
  // read from the current snapshot: quantiles cannot be windowed the way
  // the counters above are, so benches that want per-workload numbers build
  // a fresh cluster per workload.
  for (int t = 0; t < ClusterRunStats::kLatTransitions; ++t) {
    const std::string stage = "stage=" + obs::transitionLabel(t);
    s.lat_stage_p50_ns[t] = cur.number("lat.stage_p50_ns", stage);
    s.lat_stage_p99_ns[t] = cur.number("lat.stage_p99_ns", stage);
  }
  s.lat_e2e_p50_ns = cur.number("lat.e2e_p50_ns");
  s.lat_e2e_p99_ns = cur.number("lat.e2e_p99_ns");
  s.lat_samples = std::uint64_t(cur.number("lat.e2e_ns"));
  s.prof_busy_ns = counterSum(cur, "prof.busy_ns");
  s.prof_idle_ns = counterSum(cur, "prof.idle_ns");
  s.prof_lock_wait_ns = counterSum(cur, "prof.lock_wait_ns");
  s.prof_lock_acquisitions = counterSum(cur, "prof.lock_acquisitions");

  // Time-series roll-up: sustained (median-window) vs. peak message rate
  // over the retained ring. Like the quantiles above, these are ring-
  // lifetime values rather than windowed by resetStats().
  if (timeseries_) {
    const std::vector<obs::TimeSeriesWindow> wins = timeseries_->windows();
    std::vector<double> rates;
    rates.reserve(wins.size());
    for (const obs::TimeSeriesWindow& w : wins)
      if (w.seconds() > 0) rates.push_back(w.ratePerSec("fabric.messages"));
    s.ts_windows = wins.size();
    if (!rates.empty()) {
      std::sort(rates.begin(), rates.end());
      s.ts_msgs_per_s_p50 = rates[rates.size() / 2];
      s.ts_msgs_per_s_peak = rates.back();
    }
  }
  return s;
}

void Cluster::resetStats() {
  publishDeviceCounters();
  statsBase_ = collectMetrics();
}

// --- observability ---------------------------------------------------------

// The run's ONE sampling thread, with up to four duties on independent
// cadences: gauge sampling + online latency ingest (tracer cadence,
// config.obs.gauge_period), watchdog sampling (config.watchdog.period), the
// membership failure detector (config.membership.probe_period, degrade
// policy only) and the time-series collector (config.timeseries.period).
// The first three consume the same runtime surface — queue progress, buffer
// fills/ages, link send states — so duties due on the same tick share one
// pipeline sample instead of each re-reading the runtime on its own timer
// (ISSUE 7 satellite: one sampler per run). Sleeps are capped so a stop
// request is honoured promptly even under long cadences.
void Cluster::monitorLoop() {
  using clock = std::chrono::steady_clock;
  tracer_.nameThread("monitor");
  const bool gauges = tracer_.enabled() && config_.obs.gauge_period.count() > 0;
  auto nextGauge = clock::now();
  auto nextWatch = clock::now();
  auto nextProbe = clock::now();
  auto nextWindow = clock::now();
  // pairs-with: cluster.monitor-stop
  while (!monitorStop_.load(std::memory_order_acquire)) {
    const auto now = clock::now();
    const bool gaugeDue = gauges && now >= nextGauge;
    const bool watchDue = watchdog_ && now >= nextWatch;
    const bool probeDue = membership_ && now >= nextProbe;
    const bool windowDue = timeseries_ && now >= nextWindow;
    const bool anyDue = gaugeDue || watchDue || probeDue || windowDue;
    if (anyDue) {
      obs::ScopedRegion tickRegion(&profiler_, obs::Region::kMonitorTick);
      if (gaugeDue || watchDue || probeDue) {
        const obs::WatchdogSample s = samplePipeline();
        if (gaugeDue) {
          sampleGauges(s);
          ingestLatency();
          nextGauge = now + config_.obs.gauge_period;
        }
        if (watchDue) {
          watchdog_->observe(s);
          nextWatch = now + config_.watchdog.period;
        }
        if (probeDue) {
          sampleMembership(s);
          nextProbe = now + config_.membership.probe_period;
        }
      }
      if (windowDue) {
        collectWindow();
        nextWindow = now + config_.timeseries.period;
      }
    }
    auto wake = clock::time_point::max();
    if (gauges) wake = std::min(wake, nextGauge);
    if (watchdog_) wake = std::min(wake, nextWatch);
    if (membership_) wake = std::min(wake, nextProbe);
    if (timeseries_) wake = std::min(wake, nextWindow);
    const auto end = clock::now();
    if (anyDue) {
      // Self-overhead accounting: how long the duty work held the sampling
      // thread, and whether it blew straight through the next deadline (an
      // overrun means a cadence is too tight for the cluster size).
      const std::uint64_t tick_ns = std::uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - now)
              .count());
      monitorTicks_.fetch_add(1, std::memory_order_relaxed);
      monitorTickNsTotal_.fetch_add(tick_ns, std::memory_order_relaxed);
      if (tick_ns > monitorTickNsMax_.load(std::memory_order_relaxed))
        monitorTickNsMax_.store(tick_ns, std::memory_order_relaxed);
      if (end >= wake)
        monitorTickOverruns_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto cap = end + std::chrono::milliseconds(10);
    // The sleep is the monitor's idle time; unbracketed, its duty would
    // read 1.0 however cheap the ticks are.
    obs::ScopedRegion idleRegion(&profiler_, obs::Region::kIdle);
    std::this_thread::sleep_until(std::min(wake, cap));
  }
}

// One pass over the pipeline's sampling surface — GPU-queue progress,
// nonempty aggregation buffers (fill + age), reliable-link send states —
// shared by every monitor duty due on the same tick.
obs::WatchdogSample Cluster::samplePipeline() {
  obs::WatchdogSample s;
  s.now_ns = tracer_.nowNs();
  s.queues.reserve(config_.nodes);
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    NodeRuntime& n = *nodes_[i];
    s.queues.push_back({i, n.queue().reservedCount(),
                        n.aggregator().slotsProcessedStat()});
    n.aggregator().sampleBufferAges(
        [&](std::uint32_t dst, std::uint64_t fill, std::uint64_t age_ns) {
          s.buffers.push_back({i, dst, fill, age_ns});
        });
  }
  if (reliable_) {
    for (const auto& ls : reliable_->sendStates())
      s.links.push_back({ls.src, ls.dst, ls.unacked, ls.oldest_seq,
                         ls.next_seq, ls.retries, ls.stalled_ns,
                         std::uint8_t(ls.breaker),
                         membership_ ? membership_->epoch(ls.dst) : 0});
  }
  return s;
}

// The stall-driven half of the failure detector: a link that has made no
// cumulative-ACK progress for membership.suspect_after marks its
// *destination* suspect. Suspicion alone never kills — the circuit breaker
// corroborates it when the same link's retry budget exhausts (tripLink), and
// ACK progress clears it (applyAck). A dead source's view does not vote.
void Cluster::sampleMembership(const obs::WatchdogSample& s) {
  const auto threshold =
      std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        config_.membership.suspect_after)
                        .count());
  for (const obs::LinkSample& ls : s.links) {
    if (ls.stalled_ns < threshold) continue;
    if (membership_->dead(ls.src) || membership_->dead(ls.dst)) continue;
    membership_->suspect(ls.dst, "link " + std::to_string(ls.src) + "->" +
                                     std::to_string(ls.dst) +
                                     " made no ACK progress for " +
                                     std::to_string(ls.stalled_ns / 1000000) +
                                     " ms");
  }
}

void Cluster::ingestLatency() {
  gravel::lock_guard lk(latencyMutex_);
  latency_.ingest(tracer_);
}

void Cluster::sampleGauges(const obs::WatchdogSample& s) {
  // Per-destination aggregation buffer fills (the shared sample lists
  // nonempty buffers only), rolled up per node for the fill gauge.
  std::vector<std::uint64_t> buffered(config_.nodes, 0);
  for (const obs::BufferSample& b : s.buffers) {
    buffered[b.node] += b.fill;
    metrics_.observeHistogram("agg.buffer_fill",
                              "node=" + std::to_string(b.node), b.fill);
  }
  for (const obs::QueueSample& q : s.queues) {
    // Gravel-queue slots reserved by producers but not yet routed.
    const std::uint64_t depth =
        q.reserved > q.routed ? q.reserved - q.routed : 0;
    tracer_.recordGauge(obs::Gauge::kGpuQueueDepth, std::uint16_t(q.node),
                        depth);
    metrics_.observeHistogram("gpu_queue.depth",
                              "node=" + std::to_string(q.node), depth);
    tracer_.recordGauge(obs::Gauge::kAggBufferFill, std::uint16_t(q.node),
                        buffered[q.node]);
  }

  // Fabric depth: unresolved batches (unacked, with a reliability layer).
  // Two atomic loads — cheaper read directly than carried in the sample.
  const std::uint64_t pending = fabric_->pendingCount();
  tracer_.recordGauge(obs::Gauge::kFabricPending, 0, pending);
  metrics_.observeHistogram("fabric.pending", "", pending);
  if (reliable_) {
    const std::uint64_t reorder = reliable_->reorderDepth();
    tracer_.recordGauge(obs::Gauge::kReorderDepth, 0, reorder);
    metrics_.observeHistogram("rel.reorder_depth", "", reorder);
  }
}

// The GPU-side counters. NodeOpStats and DeviceStats are plain fields the
// node's GPU worker writes, so they are read only past the launch barrier:
// after launchAll(), and at the top of runStats()/resetStats(), which also
// covers devices a caller launched from its own threads. Never from the
// monitor.
void Cluster::publishDeviceCounters() {
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    const std::string node = "node=" + std::to_string(i);
    const NodeOpStats& op = nodes_[i]->opStats();
    metrics_.setCounter("ops.put_local", node, op.put_local);
    metrics_.setCounter("ops.put_remote", node, op.put_remote);
    metrics_.setCounter("ops.inc_local", node, op.inc_local);
    metrics_.setCounter("ops.inc_remote", node, op.inc_remote);
    metrics_.setCounter("ops.am_local", node, op.am_local);
    metrics_.setCounter("ops.am_remote", node, op.am_remote);
    const simt::DeviceStats& d = nodes_[i]->device().stats();
    metrics_.setCounter("simt.lanes", node, d.lanes_executed);
    metrics_.setCounter("simt.workgroups", node, d.workgroups_executed);
    metrics_.setCounter("simt.collective_ops", node, d.collective_ops);
    metrics_.setCounter("simt.collective_arrivals", node,
                        d.collective_arrivals);
    metrics_.setCounter("simt.active_arrivals", node, d.active_arrivals);
    metrics_.setCounter("simt.predication_ops", node,
                        d.predication_overhead_ops);
  }
}

obs::MetricsSnapshot Cluster::collectMetrics() {
  gravel::lock_guard collect(collectMutex_);
  // Per-node pipeline counters (ops.* and simt.* come from
  // publishDeviceCounters()).
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    const std::string node = "node=" + std::to_string(i);
    NodeRuntime& n = *nodes_[i];
    metrics_.setCounter("gpu_queue.slots_reserved", node,
                        n.queue().reservedCount());
    metrics_.setCounter("gpu_queue.atomic_rmws", node,
                        n.queue().atomicRmwCount());
    metrics_.setCounter("agg.slots_processed", node,
                        n.aggregator().slotsProcessedStat());
    metrics_.setCounter("agg.messages_routed", node,
                        n.aggregator().messagesRouted());
    metrics_.setCounter("agg.polls", node, n.aggregator().pollCount());
    metrics_.setCounter("agg.lock_acquisitions", node,
                        n.aggregator().lockAcquisitions());
    metrics_.setCounter("agg.dests_touched", node,
                        n.aggregator().destsTouched());
    metrics_.setCounter("agg.timeout_scanned", node,
                        n.aggregator().timeoutScanned());
    metrics_.setCounter("agg.lazy_buffers", node,
                        n.aggregator().lazyBuffers());
    metrics_.setGauge("agg.resident_bytes", node,
                      double(n.aggregator().residentBufferBytes()));
    metrics_.setGauge("agg.staging_peak_bytes", node,
                      double(n.aggregator().stagingBytesPeak()));
    metrics_.setGauge("agg.shards", node, double(n.aggregator().shardCount()));
    metrics_.setCounter("net.messages_resolved", node,
                        n.network().messagesResolved());
  }

  // Fabric totals and per-link traffic (nonzero links only; app-level view).
  const net::LinkStats t = fabric_->total();
  metrics_.setCounter("fabric.batches", "", t.batches);
  metrics_.setCounter("fabric.messages", "", t.messages);
  metrics_.setCounter("fabric.bytes", "", t.bytes);
  metrics_.setCounter("fabric.retransmits", "", t.retransmits);
  metrics_.setCounter("fabric.dup_drops", "", t.dup_drops);
  metrics_.setCounter("fabric.acks", "", t.acks);
  metrics_.setGauge("fabric.pending_now", "", double(fabric_->pendingCount()));
  metrics_.setStat("fabric.batch_bytes", "", fabric_->batchSizeBytes());
  // Sparse walk (forEachLink): O(links touched), not O(nodes^2) — at 4096
  // nodes the dense double loop alone was 16M fabric queries per collect.
  fabric_->forEachLink([this](std::uint32_t src, std::uint32_t dst,
                              const net::LinkStats& l) {
    if (l.batches == 0) return;
    const std::string link =
        "link=" + std::to_string(src) + "->" + std::to_string(dst);
    metrics_.setCounter("link.batches", link, l.batches);
    metrics_.setCounter("link.messages", link, l.messages);
    metrics_.setCounter("link.bytes", link, l.bytes);
    if (l.retransmits)
      metrics_.setCounter("link.retransmits", link, l.retransmits);
  });

  const net::ReliabilityStats r = fabric_->reliabilityStats();
  metrics_.setCounter("rel.acks_sent", "", r.acks_sent);
  metrics_.setCounter("rel.reorder_drops", "", r.reorder_drops);
  metrics_.setGauge("rel.reorder_peak", "", double(r.reorder_peak));
  metrics_.setCounter("rel.breaker_trips", "", r.breaker_trips);
  metrics_.setCounter("rel.probes", "", r.probes);
  metrics_.setCounter("rel.stale_data_drops", "", r.stale_data_drops);
  metrics_.setCounter("rel.stale_ack_drops", "", r.stale_ack_drops);
  if (reliable_) {
    for (const auto& ls : reliable_->sendStates()) {
      const std::string link =
          "link=" + std::to_string(ls.src) + "->" + std::to_string(ls.dst);
      metrics_.setGauge("rel.link_unacked", link, double(ls.unacked));
      metrics_.setGauge("rel.link_oldest_seq", link, double(ls.oldest_seq));
      metrics_.setGauge("rel.link_next_seq", link, double(ls.next_seq));
      metrics_.setGauge("rel.link_retries", link, double(ls.retries));
    }
    for (const auto& b : reliable_->breakerStates()) {
      const std::string link =
          "link=" + std::to_string(b.src) + "->" + std::to_string(b.dst);
      metrics_.setGauge("rel.link_breaker", link, double(std::uint8_t(b.state)));
      metrics_.setGauge("rel.link_era", link, double(b.era));
    }
  }

  // Membership / dead-letter accounting (degrade policy only).
  if (membership_) {
    for (std::uint32_t i = 0; i < config_.nodes; ++i) {
      const std::string node = "node=" + std::to_string(i);
      metrics_.setGauge("health.state", node,
                        double(std::uint8_t(membership_->health(i))));
      metrics_.setGauge("health.epoch", node, double(membership_->epoch(i)));
    }
    metrics_.setGauge("health.live_nodes", "",
                      double(membership_->liveCount()));
    metrics_.setCounter("health.transitions", "",
                        membership_->version());
    const net::DeadLetterStats d = dlq_->stats();
    metrics_.setCounter("dlq.dead_lettered", "", d.dead_lettered);
    metrics_.setCounter("dlq.redelivered", "", d.redelivered);
    metrics_.setCounter("dlq.rejected", "", d.rejected);
    metrics_.setCounter("dlq.evicted", "", d.evicted);
    metrics_.setGauge("dlq.stored", "", double(d.stored));
  }

  // The collector watching itself: windows taken over the run's lifetime
  // and how many fell off the bounded ring.
  if (timeseries_) {
    metrics_.setCounter("ts.windows_total",
                        "", timeseries_->size() + timeseries_->droppedWindows());
    metrics_.setCounter("ts.dropped_windows", "",
                        timeseries_->droppedWindows());
  }

  // Monitor-loop self-overhead: the sampling thread watching itself. An
  // overrun is a tick whose duty work ran past the next computed wake.
  {
    const std::uint64_t ticks = monitorTicks_.load(std::memory_order_relaxed);
    if (ticks != 0) {
      metrics_.setCounter("monitor.ticks", "", ticks);
      metrics_.setCounter("monitor.tick_overruns", "",
                          monitorTickOverruns_.load(std::memory_order_relaxed));
      const std::uint64_t total =
          monitorTickNsTotal_.load(std::memory_order_relaxed);
      metrics_.setGauge("monitor.tick_avg_ns", "",
                        double(total) / double(ticks));
      metrics_.setGauge("monitor.tick_max_ns", "",
                        double(monitorTickNsMax_.load(
                            std::memory_order_relaxed)));
    }
  }

  // Continuous profiler (DESIGN.md §15): per-thread duty cycles, per-path
  // self time, and the named-mutex contention table. Collected only while
  // profiling so a default run's registry carries no prof.* noise.
  if (profiler_.enabled()) {
    for (const obs::Profiler::ThreadSample& t : profiler_.sample()) {
      const std::string thread = "thread=" + t.name;
      metrics_.setCounter("prof.busy_ns", thread, t.busy_ns);
      metrics_.setCounter("prof.idle_ns", thread, t.idle_ns);
      const std::uint64_t span = t.busy_ns + t.idle_ns;
      metrics_.setGauge("prof.duty", thread,
                        span == 0 ? 0.0 : double(t.busy_ns) / double(span));
      metrics_.setCounter("prof.dropped", thread, t.dropped);
      for (const obs::Profiler::PathSample& p : t.paths) {
        std::string path = thread + ",path=";
        for (int level = 0; level < p.depth; ++level) {
          if (level != 0) path += ';';
          path += obs::regionName(p.stack[level]);
        }
        metrics_.setCounter("prof.path_count", path, p.count);
        metrics_.setCounter("prof.path_self_ns", path, p.self_ns);
      }
    }
    lockprof::forEachSite([this](const lockprof::SiteSample& s) {
      const std::string site = "site=" + std::string(s.name);
      metrics_.setCounter("prof.lock_acquisitions", site, s.acquisitions);
      metrics_.setCounter("prof.lock_contended", site, s.contended);
      metrics_.setCounter("prof.lock_wait_ns", site, s.wait_ns_total);
      metrics_.setGauge("prof.lock_wait_p50_ns", site,
                        s.waitQuantileNs(0.50));
      metrics_.setGauge("prof.lock_wait_p99_ns", site,
                        s.waitQuantileNs(0.99));
    });
  }

  const net::FaultStats f = fabric_->faultStats();
  metrics_.setCounter("fault.drops", "", f.drops);
  metrics_.setCounter("fault.partition_drops", "", f.partition_drops);
  metrics_.setCounter("fault.duplicates", "", f.duplicates);
  metrics_.setCounter("fault.reorders", "", f.reorders);
  metrics_.setCounter("fault.delays", "", f.delays);

  // Tracer sampling and overflow accounting.
  if (tracer_.enabled()) {
    metrics_.setCounter("trace.candidates", "", tracer_.sampledCandidates());
    metrics_.setCounter("trace.dropped_events", "", tracer_.droppedEvents());
  }

  // Per-stage latency attribution (lat.*) and watchdog diagnoses.
  {
    gravel::lock_guard lk(latencyMutex_);
    latency_.ingest(tracer_);
    latency_.publish(metrics_);
  }
  if (watchdog_) watchdog_->publish(metrics_);

  return metrics_.snapshot();
}

void Cluster::writeTrace(std::ostream& os) const {
  obs::writeChromeTrace(os, tracer_);
}

void Cluster::writeMetricsJson(std::ostream& os) {
  collectMetrics().toJson(os);
}

void Cluster::writeMetricsCsv(std::ostream& os) {
  collectMetrics().toCsv(os);
}

void Cluster::writeFlightRecorder(std::ostream& os,
                                  const std::string& reason) const {
  // Under the degrade policy the dump gains a top-level health/dead-letter
  // block: a post-mortem reader sees breaker and membership state next to
  // the per-thread event rings.
  const auto extra = [this](obs::JsonWriter& w) {
    if (!membership_) return;
    w.key("health").beginArray();
    for (std::uint32_t i = 0; i < config_.nodes; ++i) {
      w.beginObject();
      w.kv("node", std::uint64_t{i});
      w.kv("state", nodeHealthName(membership_->health(i)));
      w.kv("epoch", std::uint64_t{membership_->epoch(i)});
      w.endObject();
    }
    w.endArray();
    w.key("breakers").beginArray();
    for (const auto& b : reliable_->breakerStates()) {
      w.beginObject();
      w.kv("src", std::uint64_t{b.src});
      w.kv("dst", std::uint64_t{b.dst});
      w.kv("state", net::breakerStateName(b.state));
      w.kv("era", std::uint64_t{b.era});
      w.endObject();
    }
    w.endArray();
    const net::DeadLetterStats d = dlq_->stats();
    w.key("dead_letter").beginObject();
    w.kv("dead_lettered", d.dead_lettered);
    w.kv("redelivered", d.redelivered);
    w.kv("rejected", d.rejected);
    w.kv("evicted", d.evicted);
    w.kv("stored", d.stored);
    w.endObject();
  };
  obs::writeFlightRecorderJson(os, tracer_, reason, tracer_.nowNs(), extra);
}

void Cluster::writeWatchdog(std::ostream& os) const {
  if (watchdog_) {
    obs::writeWatchdogJson(os, *watchdog_);
    return;
  }
  os << "{\"overflow\": 0, \"diagnoses\": []}";
}

// Takes one time-series window: a full registry refresh, then the flattened
// membership/breaker views the collector diffs into transition tags, plus
// the watchdog diagnoses still open at window end.
void Cluster::collectWindow() {
  const obs::MetricsSnapshot snap = collectMetrics();
  std::vector<obs::HealthSample> health;
  if (membership_) {
    health.reserve(config_.nodes);
    for (std::uint32_t i = 0; i < config_.nodes; ++i)
      health.push_back({i, std::uint8_t(membership_->health(i)),
                        std::uint32_t(membership_->epoch(i))});
  }
  std::vector<obs::BreakerSample> breakers;
  if (reliable_) {
    for (const auto& b : reliable_->breakerStates())
      breakers.push_back({b.src, b.dst, std::uint8_t(b.state), b.era});
  }
  std::vector<obs::Diagnosis> open;
  if (watchdog_) {
    for (const obs::Diagnosis& d : watchdog_->diagnoses())
      if (d.open) open.push_back(d);
  }
  timeseries_->collect(snap, wallClockMs(), tracer_.nowNs(), health,
                       breakers, std::move(open));
}

void Cluster::writeTimeSeries(std::ostream& os) const {
  if (timeseries_) {
    timeseries_->writeJson(os);
    return;
  }
  os << "{\"schema_version\": " << obs::kTimeSeriesSchemaVersion
     << ", \"kind\": \"gravel-timeseries\", \"period_ms\": 0, "
        "\"capacity\": 0, \"dropped_windows\": 0, \"windows\": []}";
}

void Cluster::writeStatusJson(std::ostream& os) {
  const obs::MetricsSnapshot snap = collectMetrics();
  obs::JsonWriter w(os);
  w.beginObject();
  w.kv("schema_version", std::int64_t{1});
  w.kv("kind", "gravel-status");
  w.kv("now_ns", tracer_.nowNs());
  w.kv("wall_ms", wallClockMs());
  w.kv("nodes", std::uint64_t{config_.nodes});
  w.kv("policy", membership_ ? "degrade" : "fail-fast");

  // Per-node rows: membership + incarnation and the pipeline counters
  // gravel-top turns into per-node rate columns.
  w.key("membership").beginArray();
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    const std::string node = "node=" + std::to_string(i);
    w.beginObject();
    w.kv("node", std::uint64_t{i});
    w.kv("state",
         membership_ ? nodeHealthName(membership_->health(i)) : "alive");
    w.kv("epoch",
         std::uint64_t{membership_ ? membership_->epoch(i) : 0});
    w.kv("slots_reserved",
         std::uint64_t(snap.number("gpu_queue.slots_reserved", node)));
    w.kv("slots_routed",
         std::uint64_t(snap.number("agg.slots_processed", node)));
    w.kv("resolved",
         std::uint64_t(snap.number("net.messages_resolved", node)));
    w.endObject();
  }
  w.endArray();

  // Per-link rows: every link with unacked traffic plus every link whose
  // breaker ever left closed, merged on (src, dst).
  w.key("links").beginArray();
  if (reliable_) {
    struct LinkRow {
      std::uint64_t unacked = 0;
      std::uint32_t retries = 0;
      std::uint64_t stalled_ns = 0;
      std::uint8_t breaker = 0;
      std::uint32_t era = 0;
    };
    std::map<std::pair<std::uint32_t, std::uint32_t>, LinkRow> rows;
    for (const auto& ls : reliable_->sendStates()) {
      LinkRow& r = rows[{ls.src, ls.dst}];
      r.unacked = ls.unacked;
      r.retries = ls.retries;
      r.stalled_ns = ls.stalled_ns;
      r.breaker = std::uint8_t(ls.breaker);
    }
    for (const auto& b : reliable_->breakerStates()) {
      LinkRow& r = rows[{b.src, b.dst}];
      r.breaker = std::uint8_t(b.state);
      r.era = b.era;
    }
    for (const auto& [link, r] : rows) {
      w.beginObject();
      w.kv("src", std::uint64_t{link.first});
      w.kv("dst", std::uint64_t{link.second});
      w.kv("breaker", obs::linkBreakerName(r.breaker));
      w.kv("era", std::uint64_t{r.era});
      w.kv("unacked", r.unacked);
      w.kv("retries", std::uint64_t{r.retries});
      w.kv("stalled_ms", double(r.stalled_ns) / 1e6);
      w.endObject();
    }
  }
  w.endArray();

  w.key("dead_letter").beginObject();
  {
    const net::DeadLetterStats d =
        dlq_ ? dlq_->stats() : net::DeadLetterStats{};
    w.kv("dead_lettered", d.dead_lettered);
    w.kv("redelivered", d.redelivered);
    w.kv("rejected", d.rejected);
    w.kv("evicted", d.evicted);
    w.kv("stored", d.stored);
    w.key("stored_per_dest").beginArray();
    if (dlq_)
      for (std::uint64_t v : dlq_->storedPerDest()) w.value(v);
    w.endArray();
  }
  w.endObject();

  // Latency percentile gauges (absent until any sampled message pairs).
  w.key("latency").beginObject();
  if (const obs::MetricValue* m = snap.find("lat.e2e_p50_ns"))
    w.kv("e2e_p50_ns", m->value);
  if (const obs::MetricValue* m = snap.find("lat.e2e_p99_ns"))
    w.kv("e2e_p99_ns", m->value);
  if (const obs::MetricValue* m = snap.find("lat.bottleneck_stage"))
    w.kv("bottleneck", obs::transitionLabel(int(m->value)));
  w.key("stages").beginArray();
  for (int t = 0; t < obs::LatencyAttribution::kTransitions; ++t) {
    const std::string label = "stage=" + obs::transitionLabel(t);
    const obs::MetricValue* p50 = snap.find("lat.stage_p50_ns", label);
    const obs::MetricValue* p99 = snap.find("lat.stage_p99_ns", label);
    if (p50 == nullptr && p99 == nullptr) continue;
    w.beginObject();
    w.kv("stage", obs::transitionLabel(t));
    if (p50) w.kv("p50_ns", p50->value);
    if (p99) w.kv("p99_ns", p99->value);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  w.key("watchdog").beginObject();
  w.kv("overflow", watchdog_ ? watchdog_->overflow() : 0);
  w.key("diagnoses").beginArray();
  if (watchdog_) {
    for (const obs::Diagnosis& d : watchdog_->diagnoses()) {
      w.beginObject();
      w.kv("kind", obs::stallKindName(d.kind));
      w.kv("node", std::uint64_t{d.node});
      w.kv("dest", std::uint64_t{d.dest});
      w.kv("depth", d.depth);
      w.kv("duration_ms", double(d.duration_ns()) / 1e6);
      w.kv("open", d.open);
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();

  // Recent collector windows with precomputed rate columns (gravel-top's
  // table; the full ring lives at /timeseries).
  w.key("timeseries").beginObject();
  w.kv("period_ms", std::int64_t(config_.timeseries.period.count()));
  w.kv("windows",
       std::uint64_t(timeseries_ ? timeseries_->size() : std::size_t{0}));
  w.key("recent").beginArray();
  if (timeseries_) {
    for (const obs::TimeSeriesWindow& win : timeseries_->lastWindows(8)) {
      w.beginObject();
      w.kv("seq", win.seq);
      w.kv("wall_ms", win.wall_ms);
      w.kv("seconds", win.seconds());
      w.kv("msgs_per_s", win.ratePerSec("fabric.messages"));
      w.kv("bytes_per_s", win.ratePerSec("fabric.bytes"));
      w.kv("retransmits_per_s", win.ratePerSec("fabric.retransmits"));
      w.kv("dead_lettered_per_s", win.ratePerSec("dlq.dead_lettered"));
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();

  // Per-thread duty cycles for gravel-top's THREADS panel (empty when
  // profiling is off; the full path/lock detail lives at /profile).
  w.key("profile").beginObject();
  w.kv("enabled", profiler_.enabled());
  w.key("threads").beginArray();
  if (profiler_.enabled()) {
    for (const obs::Profiler::ThreadSample& t : profiler_.sample()) {
      w.beginObject();
      w.kv("name", t.name);
      w.kv("busy_ns", t.busy_ns);
      w.kv("idle_ns", t.idle_ns);
      const std::uint64_t span = t.busy_ns + t.idle_ns;
      w.kv("duty", span == 0 ? 0.0 : double(t.busy_ns) / double(span));
      w.kv("dropped", t.dropped);
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();

  w.endObject();
}

// Route table for the status server's service thread. Every handler reads
// through thread-safe surfaces (registry mutex, lock-free membership reads,
// the collector's ring mutex), so serving concurrently with a live run is
// safe; any escape hatch becomes a 500 body instead of a crash.
obs::StatusResponse Cluster::handleStatusRequest(const std::string& path) {
  try {
    std::ostringstream body;
    if (path == "/metrics") {
      obs::writePrometheusText(body, collectMetrics());
      return {200, "text/plain; version=0.0.4; charset=utf-8", body.str()};
    }
    if (path == "/status") {
      writeStatusJson(body);
      return {200, "application/json", body.str()};
    }
    if (path == "/timeseries") {
      writeTimeSeries(body);
      return {200, "application/json", body.str()};
    }
    if (path == "/profile") {
      writeProfileJson(body);
      return {200, "application/json", body.str()};
    }
    if (path == "/" || path == "/index.html")
      return {200, "text/plain; charset=utf-8",
              "gravel status endpoints: /metrics /status /timeseries "
              "/profile /healthz\n"};
    return {404, "text/plain; charset=utf-8", "unknown path: " + path + "\n"};
  } catch (const std::exception& e) {
    return {500, "text/plain; charset=utf-8",
            std::string("telemetry error: ") + e.what() + "\n"};
  }
}

// Best-effort post-mortem artifact; never throws (it runs on error paths
// and in the destructor).
void Cluster::dumpFlightRecorder(const char* reason) const noexcept {
  try {
    if (!tracer_.flightEnabled()) return;
    const char* dir = std::getenv("GRAVEL_FLIGHTREC_DIR");
    std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
    path += "/gravel_flightrec.json";
    std::ofstream os(path);
    if (!os) return;
    writeFlightRecorder(os, reason);
  } catch (...) {
    // Swallow: a failed dump must not mask the error being reported.
  }
}

void Cluster::writeProfileJson(std::ostream& os) const {
  obs::writeProfilerJson(os, profiler_, obs::Profiler::nowNs());
}

// Exit artifact for a profiled run:
// ${GRAVEL_PROFILE_DIR:-.}/gravel_profile.json — the same document /profile
// serves, taken after every instrumented thread joined. Best-effort (runs
// in the destructor).
void Cluster::dumpProfile() const noexcept {
  try {
    const char* dir = std::getenv("GRAVEL_PROFILE_DIR");
    std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
    path += "/gravel_profile.json";
    std::ofstream os(path);
    if (!os) return;
    writeProfileJson(os);
  } catch (...) {
  }
}

// Exit artifact mirroring the flight recorder's pattern:
// ${GRAVEL_TIMESERIES_DIR:-.}/gravel_timeseries.json. Best-effort — it runs
// in the destructor.
void Cluster::dumpTimeSeries() const noexcept {
  try {
    if (!timeseries_) return;
    const char* dir = std::getenv("GRAVEL_TIMESERIES_DIR");
    std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
    path += "/gravel_timeseries.json";
    std::ofstream os(path);
    if (!os) return;
    timeseries_->writeJson(os);
  } catch (...) {
  }
}

}  // namespace gravel::rt
