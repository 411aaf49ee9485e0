// Chaos soak: the paper workloads (§6) run under the degrade failure policy
// while nodes are crashed and restarted mid-flight. The suite does not ask
// the apps to validate through a crash — losing a node mid-iteration legally
// loses that incarnation's updates — it asks the *runtime* to keep every
// promise that makes the loss accountable:
//
//   - quiet() completes instead of throwing (degraded, not wedged),
//   - conservation closes at every quiescent point:
//         net_resolved + dead_lettered == net_messages,
//   - a recovery pass (restart the dead, drain the dead-letter queue)
//     returns the cluster to all-alive with nothing still parked,
//   - only injected victims ever die (wire faults from the CI matrix heal
//     through retransmission, never through the breaker).
//
// CI runs this binary under the GRAVEL_FAULT_* matrix (see ci.yml), so the
// same scenarios soak with drops/dups/reorders layered under the crashes.
// On failure, set GRAVEL_CHAOS_ARTIFACT_DIR to capture flight-recorder
// dumps for the post-mortem.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/gups.hpp"
#include "apps/kmeans.hpp"
#include "apps/pagerank.hpp"
#include "graph/generators.hpp"
#include "runtime/cluster.hpp"

namespace gravel::apps {
namespace {

rt::ClusterConfig chaosCluster(std::uint32_t nodes) {
  rt::ClusterConfig c;
  c.nodes = nodes;
  c.heap_bytes = 8u << 20;
  c.gpu_queue_bytes = 1 << 14;
  c.pernode_queue_bytes = 1 << 10;
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  c.reliability.enabled = true;
  c.reliability.policy = net::FailurePolicy::kDegrade;
  c.reliability.rto_base = std::chrono::microseconds(500);
  c.reliability.rto_max = std::chrono::microseconds(8000);
  // Retry budget far beyond anything the CI fault matrix can exhaust: wire
  // drops heal through retransmission; only crashNode() excises links here.
  c.reliability.max_retries = 1u << 20;
  c.quiet_deadline = std::chrono::seconds(120);
  return c;
}

/// Timed crash/restart injections against a running cluster. Offsets are
/// from driver start; a restart is skipped if the node is not dead (its
/// crash may have raced an earlier restart), a crash no-ops if it already
/// is. The app thread never synchronizes with this thread except through
/// the cluster itself — that asynchrony is the point of the soak.
struct ChaosEvent {
  std::chrono::milliseconds at{0};
  std::uint32_t node = 0;
  bool crash = true;  ///< false = restart
};

class ChaosDriver {
 public:
  ChaosDriver(rt::Cluster& cluster, std::vector<ChaosEvent> events)
      : cluster_(cluster), events_(std::move(events)), thread_([this] {
          const auto t0 = std::chrono::steady_clock::now();
          for (const ChaosEvent& e : events_) {
            std::this_thread::sleep_until(t0 + e.at);
            if (e.crash)
              cluster_.crashNode(e.node);
            else if (cluster_.membership()->dead(e.node))
              cluster_.restartNode(e.node);
          }
        }) {}
  ~ChaosDriver() { join(); }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  rt::Cluster& cluster_;
  std::vector<ChaosEvent> events_;
  std::thread thread_;
};

/// Restart every dead node and drain the dead-letter queue. Redelivery to a
/// node that is itself re-crashed (or whose payback targets another dead
/// node) re-parks the batch, so recovery iterates; a handful of rounds is
/// far more than any schedule in this suite needs.
[[nodiscard]] bool recoverAll(rt::Cluster& cluster) {
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t n : cluster.membership()->deadNodes())
      cluster.restartNode(n);
    cluster.quiet();
    if (cluster.membership()->deadNodes().empty() &&
        cluster.deadLetters()->stats().stored == 0)
      return true;
  }
  return false;
}

/// The ledger the whole PR exists for: at a quiescent point, every message
/// ever admitted is either delivered or accounted dead — no third bucket.
void expectConservation(rt::Cluster& cluster, const char* where) {
  const rt::ClusterRunStats s = cluster.runStats();
  EXPECT_EQ(s.net_resolved + s.degraded.dead_lettered, s.net_messages)
      << where << ": resolved=" << s.net_resolved
      << " dead_lettered=" << s.degraded.dead_lettered
      << " sent=" << s.net_messages;
}

/// CI artifact hook: flight-recorder JSON per scenario when the env var
/// names a directory (the chaos job uploads it on failure).
void dumpArtifact(const rt::Cluster& cluster, const std::string& name) {
  const char* dir = std::getenv("GRAVEL_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ofstream out(std::string(dir) + "/" + name + ".json");
  if (out.good()) cluster.writeFlightRecorder(out, "chaos-soak " + name);
}

/// Post-soak checks shared by every scenario. `victimA` was dead for the
/// whole app run, so dead-lettered traffic and a post-recovery payback are
/// deterministic; the mid-run victim's timing is deliberately not asserted.
void expectSurvivedChaos(rt::Cluster& cluster, const std::string& name,
                         std::uint32_t victimA,
                         const std::vector<std::uint32_t>& victims) {
  dumpArtifact(cluster, name);
  EXPECT_TRUE(recoverAll(cluster)) << name << ": recovery did not converge";
  expectConservation(cluster, name.c_str());

  const rt::ClusterRunStats s = cluster.runStats();
  EXPECT_GT(s.degraded.dead_lettered, 0u)
      << name << ": a node dead for the whole run attracted no dead letters";
  EXPECT_GT(s.degraded.redelivered, 0u)
      << name << ": recovery paid nothing back";
  EXPECT_TRUE(s.degraded.dead_nodes.empty());
  // Only injected victims ever die: a non-victim that was never excised has
  // never been restarted, so its incarnation epoch is still zero.
  for (std::uint32_t n = 0; n < s.nodes; ++n) {
    bool injected = false;
    for (std::uint32_t v : victims) injected |= (v == n);
    if (!injected) {
      EXPECT_EQ(cluster.membership()->epoch(n), 0u)
          << name << ": node " << n << " died without an injected crash";
    }
  }
  EXPECT_EQ(cluster.deadLetters()->stats().stored, 0u);
  EXPECT_EQ(cluster.membership()->liveCount(), cluster.runStats().nodes);
  EXPECT_GE(cluster.membership()->epoch(victimA), 1u);
}

// --- GUPS -------------------------------------------------------------------

TEST(Chaos, GupsSurvivesCrashRestartCycle) {
  rt::Cluster cluster(chaosCluster(6));
  cluster.start();
  cluster.crashNode(5);  // dead before the first update is issued
  GupsConfig cfg;
  cfg.table_size = 1 << 12;
  cfg.updates_per_node = 1 << 13;
  {
    // A second victim cycles crash -> restart -> crash while updates fly.
    ChaosDriver driver(cluster,
                       {{std::chrono::milliseconds(2), 2, true},
                        {std::chrono::milliseconds(10), 2, false},
                        {std::chrono::milliseconds(25), 2, true}});
    runGups(cluster, cfg);
  }
  expectSurvivedChaos(cluster, "gups_crash_cycle", 5, {2, 5});
}

TEST(Chaos, GupsSurvivesCrashRestartCycleOnTwoRuntimeThreads) {
  // The same schedule with every node's aggregator and network tasks
  // sharing two executor threads: crash and restart unschedule and
  // reschedule a task instead of stopping a thread, and the ledger closes
  // the same way.
  rt::ClusterConfig c = chaosCluster(8);
  c.runtime_threads = 2;
  rt::Cluster cluster(c);
  cluster.start();
  cluster.crashNode(5);
  GupsConfig cfg;
  cfg.table_size = 1 << 12;
  cfg.updates_per_node = 1 << 13;
  {
    ChaosDriver driver(cluster,
                       {{std::chrono::milliseconds(2), 2, true},
                        {std::chrono::milliseconds(10), 2, false},
                        {std::chrono::milliseconds(25), 2, true}});
    runGups(cluster, cfg);
  }
  expectSurvivedChaos(cluster, "gups_crash_cycle_two_threads", 5, {2, 5});
}

TEST(Chaos, GupsValidatesWhenOnlyTheWireMisbehaves) {
  // Control: same config, no crashes. Whatever GRAVEL_FAULT_* the CI matrix
  // layers onto the wire must heal through retransmission — validation and
  // exact conservation with zero dead letters.
  rt::Cluster cluster(chaosCluster(6));
  GupsConfig cfg;
  cfg.table_size = 1 << 12;
  cfg.updates_per_node = 1 << 12;
  const AppReport report = runGups(cluster, cfg);
  EXPECT_TRUE(report.validated);
  EXPECT_FALSE(report.stats.degraded.degraded());
  EXPECT_EQ(report.stats.breaker_trips, 0u);
  EXPECT_EQ(report.stats.net_resolved, report.stats.net_messages);
}

// --- PageRank ---------------------------------------------------------------

TEST(Chaos, PageRankSurvivesLosingAThirdOfTheCluster) {
  rt::Cluster cluster(chaosCluster(3));
  cluster.start();
  cluster.crashNode(2);
  graph::DistGraph dg(graph::bubblesLike(400, 2), 3);
  PageRankConfig cfg;
  cfg.iterations = 4;
  {
    ChaosDriver driver(cluster, {{std::chrono::milliseconds(3), 1, true},
                                 {std::chrono::milliseconds(12), 1, false}});
    runPageRank(cluster, dg, cfg);
  }
  expectSurvivedChaos(cluster, "pagerank_two_victims", 2, {1, 2});
}

TEST(Chaos, PageRankValidatesWhenOnlyTheWireMisbehaves) {
  rt::Cluster cluster(chaosCluster(3));
  graph::DistGraph dg(graph::bubblesLike(400, 2), 3);
  const PageRankResult result = runPageRank(cluster, dg, {4});
  EXPECT_TRUE(result.report.validated);
  EXPECT_FALSE(result.report.stats.degraded.degraded());
  EXPECT_EQ(result.report.stats.net_resolved,
            result.report.stats.net_messages);
}

// --- K-means ----------------------------------------------------------------

TEST(Chaos, KmeansSurvivesRepeatedCrashesOfTheSameNode) {
  rt::Cluster cluster(chaosCluster(4));
  cluster.start();
  cluster.crashNode(3);
  KmeansConfig cfg;
  cfg.clusters = 4;
  cfg.dims = 2;
  cfg.points_per_node = 1 << 10;
  cfg.iterations = 3;
  {
    ChaosDriver driver(cluster,
                       {{std::chrono::milliseconds(2), 1, true},
                        {std::chrono::milliseconds(8), 1, false},
                        {std::chrono::milliseconds(14), 1, true},
                        {std::chrono::milliseconds(20), 1, false}});
    runKmeans(cluster, cfg);
  }
  expectSurvivedChaos(cluster, "kmeans_flapping_node", 3, {1, 3});
}

TEST(Chaos, KmeansValidatesWhenOnlyTheWireMisbehaves) {
  rt::Cluster cluster(chaosCluster(4));
  KmeansConfig cfg;
  cfg.clusters = 4;
  cfg.dims = 2;
  cfg.points_per_node = 1 << 10;
  cfg.iterations = 3;
  const KmeansResult result = runKmeans(cluster, cfg);
  EXPECT_TRUE(result.report.validated);
  EXPECT_FALSE(result.report.stats.degraded.degraded());
  EXPECT_EQ(result.report.stats.net_resolved,
            result.report.stats.net_messages);
}

// --- Seeded random schedules ------------------------------------------------

// Random crash/restart schedules, reproducible from the seed alone: the
// victims, ordering and timing all derive from mix64(seed). Every schedule
// must uphold the same runtime promises; none gets to assert app-level
// validation. Three seeds per run keeps the soak under a second — bump the
// range locally to brute-force a suspected schedule-sensitive bug.
TEST(Chaos, SeededRandomSchedulesAllConserve) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    constexpr std::uint32_t kNodes = 5;
    rt::Cluster cluster(chaosCluster(kNodes));
    cluster.start();

    // Victim A (dead for the whole run) and a distinct flapping victim B,
    // both drawn from [1, kNodes): node 0 stays alive in every schedule so
    // the non-victim epoch check always has a subject.
    const std::uint32_t victimA = 1 + mix64(seed) % (kNodes - 1);
    std::uint32_t victimB = 1 + mix64(seed ^ 0xb) % (kNodes - 1);
    if (victimB == victimA) victimB = 1 + (victimB % (kNodes - 1));
    cluster.crashNode(victimA);

    std::vector<ChaosEvent> events;
    std::uint64_t at = 1 + mix64(seed ^ 0xc) % 4;
    const std::uint32_t cycles = 1 + mix64(seed ^ 0xd) % 2;
    for (std::uint32_t i = 0; i < cycles; ++i) {
      events.push_back({std::chrono::milliseconds(at), victimB, true});
      at += 2 + mix64(seed ^ (0xe0 + i)) % 8;
      events.push_back({std::chrono::milliseconds(at), victimB, false});
      at += 2 + mix64(seed ^ (0xf0 + i)) % 8;
    }

    GupsConfig cfg;
    cfg.table_size = 1 << 12;
    cfg.updates_per_node = 1 << 13;
    cfg.seed = seed;
    {
      ChaosDriver driver(cluster, std::move(events));
      runGups(cluster, cfg);
    }
    expectSurvivedChaos(cluster,
                        "random_schedule_seed" + std::to_string(seed),
                        victimA, {victimA, victimB});
  }
}

// --- Back-to-back soak ------------------------------------------------------

// One cluster, every workload in sequence, a fresh crash per phase: the
// membership epochs, breaker eras and dead-letter ledger must compose
// across runs, not just within one. Conservation is asserted per phase
// window (each app opens its own stats window at a quiescent point).
TEST(Chaos, WorkloadSequenceSharesOneClusterAcrossCrashes) {
  rt::Cluster cluster(chaosCluster(3));
  cluster.start();

  cluster.crashNode(2);
  GupsConfig gups;
  gups.table_size = 1 << 12;
  gups.updates_per_node = 1 << 12;
  runGups(cluster, gups);
  expectSurvivedChaos(cluster, "seq_gups", 2, {2});

  cluster.crashNode(1);
  graph::DistGraph dg(graph::bubblesLike(300, 2), 3);
  runPageRank(cluster, dg, {3});
  expectSurvivedChaos(cluster, "seq_pagerank", 1, {1, 2});

  cluster.crashNode(2);
  KmeansConfig km;
  km.clusters = 4;
  km.dims = 2;
  km.points_per_node = 1 << 10;
  km.iterations = 2;
  runKmeans(cluster, km);
  expectSurvivedChaos(cluster, "seq_kmeans", 2, {1, 2});

  // Every incarnation is counted: node 2 died in two phases.
  EXPECT_GE(cluster.membership()->epoch(2), 2u);

  // The healed cluster still validates — degradation was never sticky.
  const AppReport report = runGups(cluster, gups);
  EXPECT_TRUE(report.validated);
  EXPECT_FALSE(report.stats.degraded.degraded());
}

}  // namespace
}  // namespace gravel::apps
