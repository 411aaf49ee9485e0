// Fault-injection suite: the reliability sublayer must restore exactly-once
// semantics on a hostile wire, and the quiet protocol must fail fast (with a
// usable diagnostic) instead of hanging when it cannot.
//
// The workload mixes the three Gravel primitives so every delivery bug has a
// witness: PUTs to per-writer-unique addresses (duplicates or losses change
// the heap), all-to-all atomic increments (commutative, so only exactly-once
// delivery reproduces the count), and active-message chains where handlers
// forward follow-on messages (exercises quiet()'s handling of work created
// mid-drain). Every operation commutes or targets a unique address, so any
// two exactly-once executions — whatever the adversary reordered or
// retransmitted — must leave bit-identical heaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cluster.hpp"

namespace gravel::rt {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kGrid = 256;   // work-items per node
constexpr std::uint32_t kWg = 32;
constexpr std::uint64_t kSlots = 8;    // increment targets
constexpr std::uint64_t kChains = 8;   // AM chains started per node
constexpr std::uint64_t kHops = 3;     // forwards after the first handler

ClusterConfig base() {
  ClusterConfig c;
  c.nodes = kNodes;
  c.heap_bytes = 1 << 20;
  c.gpu_queue_bytes = 1 << 13;
  c.pernode_queue_bytes = 512;  // tiny batches -> many wire messages to hit
  c.device.wavefront_width = 8;
  c.device.max_wg_size = 32;
  c.quiet_deadline = std::chrono::milliseconds(60000);
  return c;
}

/// Short timeouts so retransmission-heavy tests converge quickly.
net::ReliabilityConfig fastReliability() {
  net::ReliabilityConfig r;
  r.enabled = true;
  r.rto_base = std::chrono::microseconds(500);
  r.rto_max = std::chrono::microseconds(8000);
  return r;
}

struct RunResult {
  std::vector<std::uint64_t> heap;  ///< every word the workload can touch
  ClusterRunStats stats;
};

RunResult runWorkload(const ClusterConfig& c) {
  Cluster cluster(c);
  auto counters = cluster.alloc<std::uint64_t>(kSlots);
  auto puts = cluster.alloc<std::uint64_t>(kNodes * kGrid);
  auto chains = cluster.alloc<std::uint64_t>(kChains);
  auto hid = std::make_shared<std::uint32_t>(0);
  *hid = cluster.registerHandler(
      [chains, hid](AmContext& ctx, std::uint64_t slot, std::uint64_t hops) {
        // Only the home network thread touches this word: plain load/store.
        ctx.heap().storeU64(chains.at(slot),
                            ctx.heap().loadU64(chains.at(slot)) + 1);
        if (hops > 0) ctx.sendAm((ctx.self() + 1) % kNodes, *hid, slot, hops - 1);
      });
  cluster.launchAll(kGrid, kWg, [&](std::uint32_t n, simt::WorkItem& wi) {
    const std::uint64_t gid = wi.globalId();
    cluster.node(n).shmemInc(wi, std::uint32_t((n + gid) % kNodes),
                             counters.at(gid % kSlots));
    cluster.node(n).shmemPut(wi, (n + 1) % kNodes, puts.at(n * kGrid + gid),
                             (std::uint64_t(n) << 32) | gid);
    cluster.node(n).shmemAm(wi, (n + 1) % kNodes, *hid, gid % kChains, kHops,
                            /*active=*/gid < kChains);
  });
  RunResult r;
  r.stats = cluster.runStats();
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    auto& heap = cluster.node(n).heap();
    for (std::uint64_t i = 0; i < kSlots; ++i)
      r.heap.push_back(heap.loadU64(counters.at(i)));
    for (std::uint64_t i = 0; i < kChains; ++i)
      r.heap.push_back(heap.loadU64(chains.at(i)));
    for (std::uint64_t i = 0; i < kNodes * kGrid; ++i)
      r.heap.push_back(heap.loadU64(puts.at(i)));
  }
  return r;
}

/// Fault-free PerfectFabric run: the ground truth every faulty run must hit.
const RunResult& baseline() {
  static const RunResult r = runWorkload(base());
  return r;
}

TEST(Fault, BaselineWorkloadIsSelfConsistent) {
  const RunResult& b = baseline();
  const std::uint64_t perNode = kSlots + kChains + kNodes * kGrid;
  ASSERT_EQ(b.heap.size(), std::size_t(kNodes * perNode));
  // Increments: kNodes * kGrid total, spread over kSlots words per node.
  std::uint64_t incs = 0, chainHits = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (std::uint64_t i = 0; i < kSlots; ++i)
      incs += b.heap[n * perNode + i];
    for (std::uint64_t i = 0; i < kChains; ++i)
      chainHits += b.heap[n * perNode + kSlots + i];
  }
  EXPECT_EQ(incs, kNodes * kGrid);
  // Each chain runs its first handler plus kHops forwarded ones.
  EXPECT_EQ(chainHits, kNodes * kChains * (kHops + 1));
  // PUTs: node m holds exactly the values written by node (m+3)%4.
  for (std::uint32_t m = 0; m < kNodes; ++m) {
    const std::uint32_t writer = (m + kNodes - 1) % kNodes;
    for (std::uint64_t g = 0; g < kGrid; ++g) {
      EXPECT_EQ(b.heap[m * perNode + kSlots + kChains + writer * kGrid + g],
                (std::uint64_t(writer) << 32) | g);
    }
  }
}

TEST(Fault, ReliabilityOnPerfectWireIsExact) {
  ClusterConfig c = base();
  c.reliability.enabled = true;
  const RunResult r = runWorkload(c);
  EXPECT_EQ(r.heap, baseline().heap);
  EXPECT_GT(r.stats.acks_sent, 0u);
  EXPECT_GT(r.stats.acks, 0u);
  EXPECT_EQ(r.stats.injected_drops, 0u);
  // App-level traffic must match the fault-free run (framing and ACKs are
  // wire-level overhead, invisible up here).
  EXPECT_EQ(r.stats.net_messages, baseline().stats.net_messages);
}

TEST(Fault, SweepSeedsAndMixesBitIdentical) {
  struct Mix {
    const char* name;
    net::FaultConfig fault;
  };
  net::FaultConfig full;  // the acceptance mix: everything at once
  full.drop_prob = 0.05;
  full.dup_prob = 0.05;
  full.reorder_prob = 0.25;
  full.reorder_window = 8;
  full.delay_prob = 0.5;
  full.delay_min = std::chrono::microseconds(1);
  full.delay_max = std::chrono::microseconds(50);
  net::FaultConfig dropHeavy;
  dropHeavy.drop_prob = 0.10;
  net::FaultConfig dupReorder;
  dupReorder.dup_prob = 0.10;
  dupReorder.reorder_prob = 0.5;
  const Mix mixes[] = {{"full", full},
                       {"dropHeavy", dropHeavy},
                       {"dupReorder", dupReorder}};
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const Mix& mix : mixes) {
      SCOPED_TRACE(std::string(mix.name) + " seed " + std::to_string(seed));
      ClusterConfig c = base();
      c.fault = mix.fault;
      c.fault.seed = seed;
      c.reliability = fastReliability();
      const RunResult r = runWorkload(c);
      EXPECT_EQ(r.heap, baseline().heap);
      EXPECT_GT(r.stats.acks, 0u);
      if (mix.fault.drop_prob > 0) {
        EXPECT_GT(r.stats.injected_drops, 0u);
        EXPECT_GT(r.stats.retransmits, 0u);
      }
      if (mix.fault.dup_prob > 0) {
        EXPECT_GT(r.stats.injected_dups, 0u);
        EXPECT_GT(r.stats.dup_drops, 0u);
      }
    }
  }
}

TEST(Fault, DropsWithoutReliabilityFailFastWithDiagnostic) {
  // An unreliable wire under a quiet() that counts sends must wedge — the
  // deadline turns the hang into a structured post-mortem.
  ClusterConfig c = base();
  c.fault.seed = 7;
  c.fault.drop_prob = 0.3;
  c.quiet_deadline = std::chrono::milliseconds(1500);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    runWorkload(c);
    FAIL() << "quiet() should have hit its deadline";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quiet deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("in flight"), std::string::npos) << what;
    EXPECT_NE(what.find("dropped"), std::string::npos) << what;
    EXPECT_NE(what.find("aggregator"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(Fault, QuietDeadlineDumpNamesStalledLinkAndSequenceRange) {
  // With the reliability layer on, the deadline post-mortem must go beyond
  // "something is in flight": it names the stalled link and the unacked
  // sequence range it still owes, straight from the metrics registry.
  ClusterConfig c = base();
  c.fault.seed = 17;
  c.fault.partitions.push_back(
      {0, 1, std::chrono::microseconds(0), std::chrono::seconds(60)});
  c.reliability = fastReliability();
  c.reliability.max_retries = 1000000;  // never exhausts: the deadline fires
  c.quiet_deadline = std::chrono::milliseconds(1500);
  Cluster cluster(c);
  auto slot = cluster.alloc<std::uint64_t>(1);
  try {
    cluster.launchAll(32, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
      cluster.node(n).shmemInc(wi, 1, slot.at(0), /*active=*/n == 0);
    });
    FAIL() << "quiet() should have hit its deadline";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quiet deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("stalled link=0->1"), std::string::npos) << what;
    EXPECT_NE(what.find("unacked"), std::string::npos) << what;
    EXPECT_NE(what.find("oldest seq"), std::string::npos) << what;
    EXPECT_NE(what.find("next seq"), std::string::npos) << what;
  }
}

TEST(Fault, PartitionWindowHealsThroughRetransmit) {
  // Link 0->1 blacked out for the first 800 ms (long enough that the first
  // sends land inside the window even under sanitizer-slowed start-up):
  // retransmission must carry everything across once it lifts, exactly.
  ClusterConfig c = base();
  c.fault.seed = 11;
  c.fault.partitions.push_back(
      {0, 1, std::chrono::microseconds(0), std::chrono::microseconds(800000)});
  c.reliability = fastReliability();
  c.reliability.max_retries = 500;  // paced by rto_max: outlives the window
  const RunResult r = runWorkload(c);
  EXPECT_EQ(r.heap, baseline().heap);
  EXPECT_GT(r.stats.retransmits, 0u);
  EXPECT_GT(r.stats.injected_drops, 0u);
}

TEST(Fault, ExhaustedRetryBudgetSurfacesLinkFailure) {
  // A partition outliving the retry budget must surface as a structured
  // LinkFailureError naming the link — not as a hang or silent loss.
  ClusterConfig c = base();
  c.fault.seed = 13;
  c.fault.partitions.push_back(
      {0, 1, std::chrono::microseconds(0), std::chrono::seconds(10)});
  c.reliability.enabled = true;
  c.reliability.rto_base = std::chrono::microseconds(200);
  c.reliability.rto_max = std::chrono::microseconds(1000);
  c.reliability.max_retries = 4;
  c.quiet_deadline = std::chrono::milliseconds(30000);
  Cluster cluster(c);
  auto slot = cluster.alloc<std::uint64_t>(1);
  try {
    // Only node 0 sends, only toward node 1: the failing link is unambiguous.
    cluster.launchAll(32, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
      cluster.node(n).shmemInc(wi, 1, slot.at(0), /*active=*/n == 0);
    });
    FAIL() << "expected LinkFailureError";
  } catch (const net::LinkFailureError& e) {
    EXPECT_EQ(e.info().src, 0u);
    EXPECT_EQ(e.info().dst, 1u);
    EXPECT_GE(e.info().retries, 4u);
    EXPECT_GE(e.info().oldest_seq, 1u);
  }
}

// --- GRAVEL_FAULT_* environment overrides ----------------------------------

TEST(Fault, EnvOverridesParseValidValuesAndIgnoreGarbage) {
  ASSERT_EQ(::setenv("GRAVEL_FAULT_DROP", "0.25", 1), 0);
  ASSERT_EQ(::setenv("GRAVEL_FAULT_DUP", "not-a-number", 1), 0);
  ASSERT_EQ(::setenv("GRAVEL_FAULT_REORDER", "1.5", 1), 0);  // out of [0,1]
  ASSERT_EQ(::setenv("GRAVEL_FAULT_SEED", "42", 1), 0);
  net::FaultConfig f;
  EXPECT_TRUE(f.applyEnvOverrides());
  ::unsetenv("GRAVEL_FAULT_DROP");
  ::unsetenv("GRAVEL_FAULT_DUP");
  ::unsetenv("GRAVEL_FAULT_REORDER");
  ::unsetenv("GRAVEL_FAULT_SEED");
  EXPECT_DOUBLE_EQ(f.drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(f.dup_prob, 0.0);      // unparsable: ignored
  EXPECT_DOUBLE_EQ(f.reorder_prob, 0.0);  // out of range: ignored
  EXPECT_EQ(f.seed, 42u);

  net::FaultConfig untouched;
  EXPECT_FALSE(untouched.applyEnvOverrides());
  EXPECT_DOUBLE_EQ(untouched.drop_prob, 0.0);
  EXPECT_EQ(untouched.seed, 1u);
}

TEST(Fault, EnvOverridesReachTheClusterWire) {
  // The Cluster ctor applies the overrides before choosing its wire, so
  // GRAVEL_FAULT_* alone turns a perfect-wire config faulty — and with the
  // reliability layer on, the run still converges bit-exactly.
  ASSERT_EQ(::setenv("GRAVEL_FAULT_DROP", "0.05", 1), 0);
  ASSERT_EQ(::setenv("GRAVEL_FAULT_SEED", "9", 1), 0);
  ClusterConfig c = base();
  c.reliability = fastReliability();
  const RunResult r = runWorkload(c);
  ::unsetenv("GRAVEL_FAULT_DROP");
  ::unsetenv("GRAVEL_FAULT_SEED");
  EXPECT_EQ(r.heap, baseline().heap);
  EXPECT_GT(r.stats.injected_drops, 0u);
  EXPECT_GT(r.stats.retransmits, 0u);
}

// --- runStats() windows ------------------------------------------------------

/// Every windowed ClusterRunStats counter, summed from the component
/// accessors behind the metrics registry.
std::map<std::string, std::uint64_t> accessorCounts(Cluster& cluster) {
  std::map<std::string, std::uint64_t> k;
  for (std::uint32_t i = 0; i < cluster.nodes(); ++i) {
    NodeRuntime& n = cluster.node(i);
    const NodeOpStats& op = n.opStats();
    k["put_local"] += op.put_local;
    k["put_remote"] += op.put_remote;
    k["inc_local"] += op.inc_local;
    k["inc_remote"] += op.inc_remote;
    k["am_local"] += op.am_local;
    k["am_remote"] += op.am_remote;
    const simt::DeviceStats& d = n.device().stats();
    k["lanes_executed"] += d.lanes_executed;
    k["workgroups_executed"] += d.workgroups_executed;
    k["collective_ops"] += d.collective_ops;
    k["collective_arrivals"] += d.collective_arrivals;
    k["active_arrivals"] += d.active_arrivals;
    k["predication_overhead_ops"] += d.predication_overhead_ops;
    k["agg_slots"] += n.aggregator().slotsProcessedStat();
    k["agg_lock_acquisitions"] += n.aggregator().lockAcquisitions();
    k["agg_dests_touched"] += n.aggregator().destsTouched();
    k["agg_timeout_scanned"] += n.aggregator().timeoutScanned();
    k["net_resolved"] += n.network().messagesResolved();
  }
  const net::LinkStats t = cluster.fabric().total();
  k["net_batches"] = t.batches;
  k["net_messages"] = t.messages;
  k["net_bytes"] = t.bytes;
  k["retransmits"] = t.retransmits;
  k["dup_drops"] = t.dup_drops;
  k["acks"] = t.acks;
  const net::ReliabilityStats r = cluster.fabric().reliabilityStats();
  k["acks_sent"] = r.acks_sent;
  k["reorder_drops"] = r.reorder_drops;
  k["breaker_trips"] = r.breaker_trips;
  k["probes"] = r.probes;
  k["stale_data_drops"] = r.stale_data_drops;
  k["stale_ack_drops"] = r.stale_ack_drops;
  const net::FaultStats f = cluster.fabric().faultStats();
  k["injected_drops"] = f.drops + f.partition_drops;
  k["injected_dups"] = f.duplicates;
  return k;
}

/// The same counters as one runStats() window reports them.
std::map<std::string, std::uint64_t> windowedFields(const ClusterRunStats& s) {
  return {{"put_local", s.put_local},
          {"put_remote", s.put_remote},
          {"inc_local", s.inc_local},
          {"inc_remote", s.inc_remote},
          {"am_local", s.am_local},
          {"am_remote", s.am_remote},
          {"lanes_executed", s.lanes_executed},
          {"workgroups_executed", s.workgroups_executed},
          {"collective_ops", s.collective_ops},
          {"collective_arrivals", s.collective_arrivals},
          {"active_arrivals", s.active_arrivals},
          {"predication_overhead_ops", s.predication_overhead_ops},
          {"agg_slots", s.agg_slots},
          {"agg_lock_acquisitions", s.agg_lock_acquisitions},
          {"agg_dests_touched", s.agg_dests_touched},
          {"agg_timeout_scanned", s.agg_timeout_scanned},
          {"net_resolved", s.net_resolved},
          {"net_batches", s.net_batches},
          {"net_messages", s.net_messages},
          {"net_bytes", s.net_bytes},
          {"retransmits", s.retransmits},
          {"dup_drops", s.dup_drops},
          {"acks", s.acks},
          {"acks_sent", s.acks_sent},
          {"reorder_drops", s.reorder_drops},
          {"breaker_trips", s.breaker_trips},
          {"probes", s.probes},
          {"stale_data_drops", s.stale_data_drops},
          {"stale_ack_drops", s.stale_ack_drops},
          {"injected_drops", s.injected_drops},
          {"injected_dups", s.injected_dups}};
}

/// The level fields, read straight from the components.
struct Levels {
  std::uint64_t lazy_buffers = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t staging_peak = 0;
  std::uint64_t reorder_peak = 0;
};

Levels levels(Cluster& cluster) {
  Levels l;
  for (std::uint32_t i = 0; i < cluster.nodes(); ++i) {
    Aggregator& a = cluster.node(i).aggregator();
    l.lazy_buffers += a.lazyBuffers();
    l.resident_bytes += a.residentBufferBytes();
    l.staging_peak =
        std::max<std::uint64_t>(l.staging_peak, a.stagingBytesPeak());
  }
  l.reorder_peak = cluster.fabric().reliabilityStats().reorder_peak;
  return l;
}

TEST(Fault, RunStatsWindowMatchesAccessorsForEveryCounterFamily) {
  // A hostile wire under the reliability layer, so the fabric, reliability
  // and fault counters move along with the device and aggregator ones.
  ClusterConfig c = base();
  c.fault.seed = 29;
  c.fault.drop_prob = 0.05;
  c.fault.dup_prob = 0.05;
  c.fault.reorder_prob = 0.2;
  c.reliability = fastReliability();
  Cluster cluster(c);
  auto counters = cluster.alloc<std::uint64_t>(kSlots);
  auto puts = cluster.alloc<std::uint64_t>(kNodes * kGrid);
  auto hits = cluster.alloc<std::uint64_t>(kSlots);
  const std::uint32_t hid = cluster.registerHandler(
      [hits](AmContext& ctx, std::uint64_t slot, std::uint64_t) {
        ctx.heap().storeU64(hits.at(slot),
                            ctx.heap().loadU64(hits.at(slot)) + 1);
      });
  const auto workload = [&] {
    cluster.launchAll(kGrid, kWg, [&](std::uint32_t n, simt::WorkItem& wi) {
      const std::uint64_t gid = wi.globalId();
      const auto dest = std::uint32_t((n + gid) % kNodes);  // local + remote
      cluster.node(n).shmemInc(wi, dest, counters.at(gid % kSlots));
      cluster.node(n).shmemPut(wi, dest, puts.at(n * kGrid + gid), gid);
      cluster.node(n).shmemAm(wi, (n + 1) % kNodes, hid, gid % kSlots, 0,
                              /*active=*/gid % 4 == 0);
    });
  };

  workload();
  const auto pre = accessorCounts(cluster);
  cluster.resetStats();
  const auto post = accessorCounts(cluster);
  const RunningStat batchesPost = cluster.fabric().batchSizeBytes();
  workload();
  const auto end1 = accessorCounts(cluster);
  const Levels levels1 = levels(cluster);
  const RunningStat batchesEnd = cluster.fabric().batchSizeBytes();
  const ClusterRunStats s = cluster.runStats();
  const auto end2 = accessorCounts(cluster);
  const Levels levels2 = levels(cluster);

  // A late duplicate, its re-ACK or a timer scan can still move a counter
  // after quiet() returns, so each window is bracketed: at least the
  // movement between the reads just inside resetStats() and runStats(), at
  // most the movement between the reads just outside them.
  for (const auto& [field, got] : windowedFields(s)) {
    EXPECT_GE(got, end1.at(field) - post.at(field)) << field;
    EXPECT_LE(got, end2.at(field) - pre.at(field)) << field;
  }
  // Every family moved in the second run, so neither a forgotten baseline
  // (cumulative counts) nor a missing row (zero) can pass the bracket.
  for (const char* moved :
       {"put_local", "put_remote", "inc_local", "inc_remote", "am_remote",
        "lanes_executed", "collective_ops", "agg_slots", "net_resolved",
        "net_messages", "acks"})
    EXPECT_GT(end1.at(moved) - post.at(moved), 0u) << moved;
  EXPECT_GT(s.injected_drops + s.injected_dups, 0u);
  EXPECT_EQ(s.net_resolved, s.net_messages);
  // App-level batches stop with quiet(), so the window mean is exact.
  EXPECT_DOUBLE_EQ(s.avg_batch_bytes,
                   (batchesEnd.sum() - batchesPost.sum()) /
                       double(batchesEnd.count() - batchesPost.count()));

  // Levels read the current value, not a window: the second run opened no
  // destination buffer the first had not, yet the level is nonzero.
  const auto between = [](std::uint64_t got, std::uint64_t a,
                          std::uint64_t b) {
    return std::min(a, b) <= got && got <= std::max(a, b);
  };
  EXPECT_TRUE(between(s.agg_lazy_buffers, levels1.lazy_buffers,
                      levels2.lazy_buffers));
  EXPECT_TRUE(between(s.agg_resident_bytes, levels1.resident_bytes,
                      levels2.resident_bytes));
  EXPECT_TRUE(between(s.agg_staging_bytes_peak, levels1.staging_peak,
                      levels2.staging_peak));
  EXPECT_TRUE(between(s.reorder_peak, levels1.reorder_peak,
                      levels2.reorder_peak));
  EXPECT_GT(s.agg_lazy_buffers, 0u);
}

// --- Graceful degradation (FailurePolicy::kDegrade) ------------------------

net::ReliabilityConfig degradeReliability() {
  net::ReliabilityConfig r = fastReliability();
  r.policy = net::FailurePolicy::kDegrade;
  return r;
}

TEST(Degrade, FailFastLeavesBreakerMachineryInert) {
  // Default policy: no membership, no dead letters, breaker counters zero —
  // the degradation layer must be invisible until asked for.
  ClusterConfig c = base();
  c.reliability.enabled = true;
  Cluster cluster(c);
  EXPECT_EQ(cluster.membership(), nullptr);
  EXPECT_EQ(cluster.deadLetters(), nullptr);
  auto slot = cluster.alloc<std::uint64_t>(1);
  cluster.launchAll(32, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, (n + 1) % kNodes, slot.at(0));
  });
  const ClusterRunStats s = cluster.runStats();
  EXPECT_EQ(s.breaker_trips, 0u);
  EXPECT_EQ(s.probes, 0u);
  EXPECT_EQ(s.stale_data_drops, 0u);
  EXPECT_EQ(s.stale_ack_drops, 0u);
  EXPECT_FALSE(s.degraded.degraded());
  EXPECT_EQ(s.net_resolved, s.net_messages);
}

TEST(Degrade, CrashedNodeCompletesQuietWithExactAccounting) {
  // The acceptance scenario: lose 1 of 8 nodes, finish the run degraded.
  ClusterConfig c = base();
  c.nodes = 8;
  c.reliability = degradeReliability();
  Cluster cluster(c);
  auto slots = cluster.alloc<std::uint64_t>(16);
  // Phase 1: everyone alive, ring traffic, clean quiet.
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, (n + 1) % 8, slots.at(n));
  });
  const ClusterRunStats healthy = cluster.runStats();
  EXPECT_FALSE(healthy.degraded.degraded());
  EXPECT_EQ(healthy.net_resolved, healthy.net_messages);

  cluster.crashNode(7);
  cluster.resetStats();
  // Phase 2: each survivor sends one message per work-item into the dead
  // node and one to a live neighbor. quiet() completes degraded instead of
  // throwing, and every message is accounted: the live half resolves, the
  // dead half dead-letters, nothing is silently lost.
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    const bool live = n != 7;
    cluster.node(n).shmemInc(wi, 7, slots.at(8), live);
    cluster.node(n).shmemInc(wi, (n + 1) % 7, slots.at(9 + n), live);
  });
  const ClusterRunStats s = cluster.runStats();
  ASSERT_EQ(s.degraded.dead_nodes.size(), 1u);
  EXPECT_EQ(s.degraded.dead_nodes[0].node, 7u);
  EXPECT_EQ(s.degraded.dead_nodes[0].epoch, 0u);
  EXPECT_EQ(s.degraded.dead_lettered, 7u * 64u);  // exact: all traffic to 7
  EXPECT_EQ(s.degraded.rejected, 0u);
  EXPECT_EQ(s.degraded.evicted, 0u);
  EXPECT_EQ(s.net_resolved + s.degraded.dead_lettered, s.net_messages);
  // The live half really landed; the dead node's heap was never touched.
  for (std::uint32_t n = 0; n < 7; ++n)
    EXPECT_EQ(cluster.node((n + 1) % 7).heap().loadU64(slots.at(9 + n)), 64u);
  EXPECT_EQ(cluster.node(7).heap().loadU64(slots.at(8)), 0u);
}

TEST(Degrade, PartitionTripsBreakerAndQuietCompletes) {
  // The exact setup that makes fail_fast throw LinkFailureError — under
  // degrade the breaker trips, the loss is accounted and quiet() returns.
  ClusterConfig c = base();
  c.fault.seed = 13;
  c.fault.partitions.push_back(
      {0, 1, std::chrono::microseconds(0), std::chrono::seconds(30)});
  c.reliability = degradeReliability();
  c.reliability.rto_base = std::chrono::microseconds(200);
  c.reliability.rto_max = std::chrono::microseconds(1000);
  c.reliability.max_retries = 4;
  c.reliability.breaker_cooldown = std::chrono::milliseconds(1);
  Cluster cluster(c);
  auto slot = cluster.alloc<std::uint64_t>(1);
  cluster.launchAll(32, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, 1, slot.at(0), n == 0);
  });
  const ClusterRunStats s = cluster.runStats();
  EXPECT_GE(s.breaker_trips, 1u);
  bool found01 = false;
  for (const auto& tl : s.degraded.tripped_links)
    found01 = found01 || (tl.src == 0 && tl.dst == 1);
  EXPECT_TRUE(found01);
  EXPECT_GE(s.degraded.dead_lettered, 1u);
  EXPECT_TRUE(s.degraded.degraded());
  EXPECT_EQ(s.net_resolved + s.degraded.dead_lettered, s.net_messages);
}

TEST(Degrade, RestartRedeliversDeadLettersUnderNewEpoch) {
  ClusterConfig c = base();
  c.reliability = degradeReliability();
  Cluster cluster(c);
  auto slot = cluster.alloc<std::uint64_t>(1);
  cluster.start();
  cluster.crashNode(1);
  cluster.resetStats();
  cluster.launchAll(64, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, 1, slot.at(0), n == 0);
  });
  ClusterRunStats s = cluster.runStats();
  EXPECT_EQ(s.degraded.dead_lettered, 64u);
  EXPECT_EQ(s.degraded.redelivered, 0u);
  EXPECT_EQ(cluster.node(1).heap().loadU64(slot.at(0)), 0u);

  cluster.restartNode(1);
  cluster.quiet();  // drain the redelivery
  s = cluster.runStats();
  EXPECT_EQ(s.degraded.redelivered, 64u);
  EXPECT_EQ(s.degraded.dead_lettered, 64u);
  EXPECT_TRUE(s.degraded.dead_nodes.empty());
  // Redelivered messages count as sent again, so conservation still closes.
  EXPECT_EQ(s.net_resolved + s.degraded.dead_lettered, s.net_messages);
  EXPECT_EQ(cluster.node(1).heap().loadU64(slot.at(0)), 64u);
  ASSERT_NE(cluster.membership(), nullptr);
  EXPECT_EQ(cluster.membership()->epoch(1), 1u);
  EXPECT_FALSE(cluster.membership()->dead(1));
  // The redelivery's ACK progress reconfirms the node (recovered -> alive);
  // give the last in-flight ACK a moment to land.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.membership()->health(1) != NodeHealth::kAlive &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::yield();
  EXPECT_EQ(cluster.membership()->health(1), NodeHealth::kAlive);
}

TEST(Degrade, StaleEraWireTrafficIsRejectedAfterRestart) {
  // Fabric-level determinism: drive ReliableFabric directly so the stale
  // frame's rejection is provable, not probabilistic.
  net::PerfectFabric wire(2);
  Membership members(2);
  net::DeadLetterQueue dlq(2, 64);
  net::ReliabilityConfig rc;
  rc.enabled = true;
  rc.policy = net::FailurePolicy::kDegrade;
  net::ReliableFabric rel(wire, rc);
  rel.attachDegrade(&members, &dlq);

  // A frame of the first incarnation is on the wire when the node dies.
  rel.send(0, 1, {NetMessage::put(1, 0, 7)});
  EXPECT_EQ(rel.pendingCount(), 1u);
  ASSERT_TRUE(members.declareDead(1, "test crash"));
  rel.exciseNode(1, /*receiverStopped=*/true);
  EXPECT_EQ(rel.pendingCount(), 0u);
  EXPECT_EQ(dlq.stats().dead_lettered, 1u);  // the owed copy is accounted
  ASSERT_TRUE(members.restart(1, "test restart"));
  rel.resetNode(1);
  EXPECT_EQ(members.epoch(1), 1u);

  // The era-0 data frame must be rejected, not applied under the new epoch.
  net::Delivery d;
  EXPECT_FALSE(rel.tryReceive(1, d));
  EXPECT_EQ(rel.reliabilityStats().stale_data_drops, 1u);

  // A stale ACK must not erase the new incarnation's unacked state.
  rel.send(0, 1, {NetMessage::put(1, 8, 9)});  // seq 1 under the new era
  wire.send(1, 0, {NetMessage::control(0, ControlKind::kAck, 0, 1, 0, 0)});
  EXPECT_FALSE(rel.tryReceive(0, d));  // absorbs (and rejects) the stale ACK
  EXPECT_EQ(rel.reliabilityStats().stale_ack_drops, 1u);
  EXPECT_EQ(rel.pendingCount(), 1u);  // still owed

  // Redelivery pays the dead-lettered batch back under the new era; both
  // current-era messages arrive exactly once.
  rel.redeliver(1);
  EXPECT_EQ(dlq.stats().stored, 0u);
  std::uint64_t puts = 0;
  while (rel.tryReceive(1, d)) {
    for (const NetMessage& m : d.messages)
      if (m.command() == Command::kPut) ++puts;
    rel.markResolved(1, d);
  }
  EXPECT_EQ(puts, 2u);
  while (rel.tryReceive(0, d)) {
  }  // drain ACKs back to the sender
  EXPECT_TRUE(rel.quiescent());
  EXPECT_EQ(dlq.stats().redelivered, 1u);
  EXPECT_EQ(rel.reliabilityStats().stale_data_drops, 1u);  // no new ones
}

TEST(Degrade, AdmissionControlRejectsWhenDeadDestinationDlqIsFull) {
  ClusterConfig c = base();
  c.reliability = degradeReliability();
  c.reliability.dlq_capacity = 4;
  Cluster cluster(c);
  auto slot = cluster.alloc<std::uint64_t>(1);
  cluster.start();
  cluster.crashNode(1);
  cluster.resetStats();
  // Phase A fills the dead destination's bounded store. How the 16 ops
  // split between dead-letter and enqueue rejection depends on aggregator
  // timing, but the split itself must be exact and the store must saturate
  // at its bound.
  cluster.launchAll(16, 16, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, 1, slot.at(0), n == 0);
  });
  const ClusterRunStats a = cluster.runStats();
  EXPECT_EQ(a.degraded.dead_lettered + a.degraded.rejected, 16u);
  EXPECT_GE(a.degraded.dead_lettered, 4u);
  EXPECT_EQ(cluster.deadLetters()->storedFor(1), 4u);
  EXPECT_EQ(a.net_resolved + a.degraded.dead_lettered, a.net_messages);

  cluster.resetStats();
  // Phase B: the store is full, so every further op toward the dead node is
  // refused at enqueue — pushback, not an unbounded queue.
  cluster.launchAll(16, 16, [&](std::uint32_t n, simt::WorkItem& wi) {
    cluster.node(n).shmemInc(wi, 1, slot.at(0), n == 0);
  });
  const ClusterRunStats b = cluster.runStats();
  EXPECT_EQ(b.degraded.rejected, 16u);
  EXPECT_EQ(b.degraded.dead_lettered, 0u);
  EXPECT_EQ(b.net_messages, 0u);
  EXPECT_EQ(cluster.deadLetters()->storedFor(1), 4u);
}

TEST(Degrade, QuietDeadlinePostMortemSeparatesExcisionFromStall) {
  // A dead node's silence is by design; a live link's stall is the actual
  // problem. The deadline post-mortem must not conflate the two.
  ClusterConfig c = base();
  c.fault.seed = 17;
  c.fault.partitions.push_back(
      {0, 2, std::chrono::microseconds(0), std::chrono::seconds(60)});
  c.reliability = degradeReliability();
  c.reliability.max_retries = 1000000;  // the stalled link never trips
  c.quiet_deadline = std::chrono::milliseconds(1500);
  Cluster cluster(c);
  auto slot = cluster.alloc<std::uint64_t>(1);
  cluster.start();
  cluster.crashNode(3);
  try {
    cluster.launchAll(32, 32, [&](std::uint32_t n, simt::WorkItem& wi) {
      cluster.node(n).shmemInc(wi, 2, slot.at(0), n == 0);
    });
    FAIL() << "quiet() should have hit its deadline";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quiet deadline"), std::string::npos) << what;
    // The live stalled link is reported as a stall...
    EXPECT_NE(what.find("stalled link=0->2"), std::string::npos) << what;
    // ...while the excised node is explicitly a different situation.
    EXPECT_NE(what.find("node 3 excised by failure policy (dead, epoch 0)"),
              std::string::npos)
        << what;
  }
}

TEST(Degrade, FlightRecorderCarriesHealthBreakersAndDeadLetters) {
  ClusterConfig c = base();
  c.reliability = degradeReliability();
  Cluster cluster(c);
  cluster.start();
  cluster.crashNode(2);
  std::ostringstream os;
  cluster.writeFlightRecorder(os, "chaos-inspection");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("\"dead\""), std::string::npos);
  EXPECT_NE(json.find("\"breakers\""), std::string::npos);
  EXPECT_NE(json.find("\"dead_letter\""), std::string::npos);
}

}  // namespace
}  // namespace gravel::rt
