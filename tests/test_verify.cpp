// Model-checking suite: every scenario in verify_scenarios.hpp is explored
// exhaustively under DFS with a preemption bound, plus PCT smoke runs.
//
// The bounds below are empirically exhaustive: each DFS config terminates
// with `exhausted=true` well under its schedule budget, so a pass means the
// full bounded schedule space was covered, not that we ran out of patience.
// If a scenario or protocol change pushes a config past its budget the test
// fails with exhausted=false rather than silently shrinking coverage.

#include <gtest/gtest.h>

#include "verify_scenarios.hpp"

namespace gravel::vtests {
namespace {

ExploreOptions dfs(const char* name, int preemptionBound, long maxSchedules) {
  ExploreOptions o;
  o.name = name;
  o.strategy = verify::Strategy::kDfs;
  o.preemptionBound = preemptionBound;
  o.maxSchedules = maxSchedules;
  o.maxStepsPerRun = 20000;
  return o;
}

ExploreOptions pct(const char* name, int seeds) {
  ExploreOptions o;
  o.name = name;
  o.strategy = verify::Strategy::kPct;
  o.pctSeeds = seeds;
  o.pctDepth = 3;
  o.maxStepsPerRun = 20000;
  return o;
}

TEST(VerifyDfs, SpscRoundTrip) {
  const ExploreResult r = spscRoundTrip(dfs("dfs_spsc", 2, 100000));
  EXPECT_TRUE(r.ok) << r.report("spscRoundTrip");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

TEST(VerifyDfs, MpmcRoundTrip) {
  const ExploreResult r = mpmcRoundTrip(dfs("dfs_mpmc", 1, 200000));
  EXPECT_TRUE(r.ok) << r.report("mpmcRoundTrip");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

TEST(VerifyDfs, GravelRoundTrip) {
  const ExploreResult r = gravelRoundTrip(dfs("dfs_gravel", 1, 100000));
  EXPECT_TRUE(r.ok) << r.report("gravelRoundTrip");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

TEST(VerifyDfs, GravelTwoProducers) {
  const ExploreResult r = gravelTwoProducers(dfs("dfs_gravel2p", 1, 300000));
  EXPECT_TRUE(r.ok) << r.report("gravelTwoProducers");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

// Regression net for the acquireRead stopped/drain ordering: a consumer that
// observes `stopped` must still drain every message published before the
// stop was requested (stop happens-after the final publish in this scenario).
TEST(VerifyDfs, GravelStoppedDrain) {
  const ExploreResult r = gravelStoppedDrain(dfs("dfs_stopped", 1, 200000));
  EXPECT_TRUE(r.ok) << r.report("gravelStoppedDrain");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

// Two consumers race the runtime's claim, tryAcquireRead, across a ring
// wrap. A producer and two looping consumers already branch widely at
// preemption bound 0; the PCT run below reaches past it.
TEST(VerifyDfs, GravelTwoConsumersWrap) {
  const ExploreResult r =
      gravelTwoConsumersWrap(dfs("dfs_gravel2c", 0, 300000));
  EXPECT_TRUE(r.ok) << r.report("gravelTwoConsumersWrap");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

TEST(VerifyDfs, ReliableQuiescentVisibility) {
  const ExploreResult r =
      reliableQuiescentVisibility(dfs("dfs_relquiet", 1, 100000));
  EXPECT_TRUE(r.ok) << r.report("reliableQuiescentVisibility");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

// Exactly-once under an adversarial wire: the fault budget lets the model
// checker branch on drop / duplicate delivery at each send.
TEST(VerifyDfs, ReliableDropRetransmit) {
  const ExploreResult r = reliableDropRetransmit(dfs("dfs_reldrop", 2, 200000));
  EXPECT_TRUE(r.ok) << r.report("reliableDropRetransmit");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

// Slot-batched routing (PR 4): one producer, two SlotRouter drain threads.
// Covers the per-destination lock discipline — decode outside the lock,
// one acquisition per (slot, destination) run, mid-run capacity splits.
TEST(VerifyDfs, SlotRoutedAggregation) {
  const ExploreResult r =
      slotRoutedAggregation(dfs("dfs_slotroute", 1, 400000));
  EXPECT_TRUE(r.ok) << r.report("slotRoutedAggregation");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

// Circuit-breaker trip racing in-flight delivery/ACK traffic (PR 6): the
// poller may trip the link at any point relative to admission and the ACK;
// whatever the schedule picks, the payload applies exactly once and the
// dead-letter conservation invariant closes.
TEST(VerifyDfs, BreakerTripRecover) {
  const ExploreResult r = breakerTripRecover(dfs("dfs_breakertrip", 1, 400000));
  EXPECT_TRUE(r.ok) << r.report("breakerTripRecover");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

// Half-open probe protocol with a deterministic setup-phase trip: the stale
// era-0 frame must be provably rejected, and the probe must walk the breaker
// open -> half-open -> closed and clear the membership suspicion.
TEST(VerifyDfs, BreakerHalfOpenProbe) {
  const ExploreResult r =
      breakerHalfOpenProbe(dfs("dfs_breakerprobe", 2, 400000));
  EXPECT_TRUE(r.ok) << r.report("breakerHalfOpenProbe");
  EXPECT_TRUE(r.exhausted) << "schedule budget too small: " << r.schedules;
}

// PCT randomized-priority smoke runs: cheap probabilistic coverage beyond
// the DFS preemption bound. Seeded deterministically inside explore().
TEST(VerifyPct, SlotRoutedAggregation) {
  const ExploreResult r = slotRoutedAggregation(pct("pct_slotroute", 64));
  EXPECT_TRUE(r.ok) << r.report("slotRoutedAggregation");
}

TEST(VerifyPct, GravelRoundTrip) {
  const ExploreResult r = gravelRoundTrip(pct("pct_gravel", 200));
  EXPECT_TRUE(r.ok) << r.report("gravelRoundTrip[pct]");
  EXPECT_EQ(r.schedules, 200);
}

TEST(VerifyPct, GravelTwoConsumersWrap) {
  const ExploreResult r = gravelTwoConsumersWrap(pct("pct_gravel2c", 200));
  EXPECT_TRUE(r.ok) << r.report("gravelTwoConsumersWrap[pct]");
  EXPECT_EQ(r.schedules, 200);
}

TEST(VerifyPct, MpmcRoundTrip) {
  const ExploreResult r = mpmcRoundTrip(pct("pct_mpmc", 200));
  EXPECT_TRUE(r.ok) << r.report("mpmcRoundTrip[pct]");
}

TEST(VerifyPct, ReliableDropRetransmit) {
  const ExploreResult r = reliableDropRetransmit(pct("pct_reldrop", 200));
  EXPECT_TRUE(r.ok) << r.report("reliableDropRetransmit[pct]");
}

TEST(VerifyPct, BreakerTripRecover) {
  const ExploreResult r = breakerTripRecover(pct("pct_breakertrip", 200));
  EXPECT_TRUE(r.ok) << r.report("breakerTripRecover[pct]");
}

TEST(VerifyPct, BreakerHalfOpenProbe) {
  const ExploreResult r = breakerHalfOpenProbe(pct("pct_breakerprobe", 200));
  EXPECT_TRUE(r.ok) << r.report("breakerHalfOpenProbe[pct]");
}

}  // namespace
}  // namespace gravel::vtests
