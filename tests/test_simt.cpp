// Tests for the SIMT execution engine: fibers, work-group collectives
// (including the paper's Figure 5b reservation idiom), diverged semantics
// (§5.2), fine-grain barriers (§5.3), scratchpad, and deadlock detection.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "simt/device.hpp"
#include "simt/fiber.hpp"

namespace gravel::simt {
namespace {

DeviceConfig smallConfig(std::uint32_t wf = 4, std::uint32_t wg = 16) {
  DeviceConfig c;
  c.wavefront_width = wf;
  c.max_wg_size = wg;
  c.scratchpad_bytes = 4096;
  return c;
}

// Arms `f` with `body`, which must outlive the fiber's run.
template <typename F>
void arm(Fiber& f, F& body) {
  f.reset([](void* p) { (*static_cast<F*>(p))(); }, &body);
}

TEST(Fiber, RunsBodyToCompletion) {
  Fiber f;
  int x = 0;
  auto body = [&] { x = 42; };
  arm(f, body);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  Fiber f;
  std::vector<int> trace;
  auto body = [&] {
    trace.push_back(1);
    f.yield();
    trace.push_back(3);
    f.yield();
    trace.push_back(5);
  };
  arm(f, body);
  f.resume();
  EXPECT_FALSE(f.finished());
  trace.push_back(2);
  f.resume();
  EXPECT_FALSE(f.finished());
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber f;
  auto body = [&] { EXPECT_EQ(Fiber::current(), &f); };
  arm(f, body);
  f.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionsPropagateToResume) {
  Fiber f;
  auto body = [] { throw std::runtime_error("boom"); };
  arm(f, body);
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ReusableAfterFinish) {
  Fiber f;
  int sum = 0;
  for (int i = 0; i < 3; ++i) {
    auto body = [&, i] { sum += i; };
    arm(f, body);
    f.resume();
  }
  EXPECT_EQ(sum, 0 + 1 + 2);
}

// resume() from inside a fiber hands the thread straight to another fiber;
// the scheduler stack regains control only when one of them yields or
// finishes, and an exception from a fiber first entered by a handoff still
// surfaces in the scheduler's resume().
TEST(Fiber, HandoffBypassesTheScheduler) {
  Fiber a;
  Fiber b;
  std::vector<int> trace;
  auto bodyA = [&] {
    trace.push_back(1);
    b.resume();  // b's first entry
    EXPECT_EQ(Fiber::current(), &a);
    trace.push_back(3);
    a.yield();
    trace.push_back(6);
  };
  auto bodyB = [&] {
    EXPECT_EQ(Fiber::current(), &b);
    trace.push_back(2);
    a.resume();  // back to a, not to the scheduler
    trace.push_back(5);
    throw std::runtime_error("from b");
  };
  arm(a, bodyA);
  arm(b, bodyB);
  a.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_FALSE(a.finished());
  EXPECT_FALSE(b.finished());
  trace.push_back(4);
  EXPECT_THROW(b.resume(), std::runtime_error);
  EXPECT_TRUE(b.finished());
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Fiber, DeepCallChainsFitTheStack) {
  Fiber f;
  std::function<int(int)> rec = [&](int n) -> int {
    return n == 0 ? 0 : n + rec(n - 1);
  };
  int out = 0;
  auto body = [&] { out = rec(100); };
  arm(f, body);
  f.resume();
  EXPECT_EQ(out, 5050);
}

TEST(Device, LaunchCoversGridExactlyOnce) {
  Device dev(smallConfig());
  std::vector<int> hits(100, 0);
  dev.launch({100, 16}, [&](WorkItem& wi) { ++hits[wi.globalId()]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(dev.stats().lanes_executed, 100u);
  EXPECT_EQ(dev.stats().workgroups_executed, 7u);  // 6 full + 1 partial(4)
}

TEST(Device, IdentityArithmetic) {
  Device dev(smallConfig(/*wf=*/4, /*wg=*/16));
  dev.launch({32, 16}, [&](WorkItem& wi) {
    EXPECT_EQ(wi.localId(), wi.globalId() % 16);
    EXPECT_EQ(wi.workGroupId(), wi.globalId() / 16);
    EXPECT_EQ(wi.laneId(), wi.localId() % 4);
    EXPECT_EQ(wi.wavefrontId(), wi.localId() / 4);
    EXPECT_EQ(wi.gridSize(), 32u);
  });
}

TEST(Device, BarrierSeparatesPhases) {
  Device dev(smallConfig());
  std::vector<int> data(16, 0);
  std::vector<int> snapshot(16, -1);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    data[wi.localId()] = int(wi.localId());
    wi.wgBarrier();
    // After the barrier every lane must see every other lane's write.
    int sum = std::accumulate(data.begin(), data.end(), 0);
    snapshot[wi.localId()] = sum;
  });
  for (int s : snapshot) EXPECT_EQ(s, 120);  // 0+1+...+15
}

TEST(Device, ReduceOpsMatchSerial) {
  Device dev(smallConfig());
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const std::uint64_t v = wi.localId() * 3 + 1;
    EXPECT_EQ(wi.wgReduceSum(v), 16u * 1 + 3u * 120);
    EXPECT_EQ(wi.wgReduceMax(v), 15u * 3 + 1);
    EXPECT_EQ(wi.wgReduceMin(v), 1u);
  });
}

TEST(Device, PrefixSumIsExclusiveInLaneOrder) {
  Device dev(smallConfig());
  std::vector<std::uint64_t> out(16);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    out[wi.localId()] = wi.wgPrefixSum(wi.localId() + 1);
  });
  std::uint64_t running = 0;
  for (std::uint32_t l = 0; l < 16; ++l) {
    EXPECT_EQ(out[l], running);
    running += l + 1;
  }
}

TEST(Device, BroadcastFromChosenLane) {
  Device dev(smallConfig());
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const std::uint64_t got = wi.wgBroadcast(777, wi.localId() == 5);
    EXPECT_EQ(got, 777u);
  });
}

// The Figure 5b idiom: leader election by reduce-max over lane offsets,
// per-lane offsets by prefix-sum, one fetch-add by the leader, broadcast of
// the base. This is the exact reservation sequence Gravel's device API uses.
TEST(Device, Figure5bReservationIdiom) {
  Device dev(smallConfig(4, 16));
  std::atomic<std::uint64_t> writeIdx{2};  // matches the figure's sample run
  std::vector<std::uint64_t> slot(64, 0);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const std::uint64_t lid = wi.localId();
    const std::uint64_t max = wi.wgReduceMax(lid);
    const std::uint64_t myOff = wi.wgPrefixSum(1);
    std::uint64_t qOff = 0;
    if (lid == max) qOff = writeIdx.fetch_add(myOff + 1);
    const std::uint64_t base = wi.wgReduceSum(qOff);
    slot[base + myOff] = wi.globalId() + 1;
  });
  // All sixteen lanes landed contiguously starting at index 2.
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(slot[2 + i], i + 1);
  EXPECT_EQ(writeIdx.load(), 18u);
}

// §5.2 diverged semantics via software predication: inactive lanes submit
// identities; the result reflects active lanes only.
TEST(Device, DivergedReduceIgnoresInactiveLanes) {
  Device dev(smallConfig());
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const bool active = wi.localId() % 3 == 0;  // lanes 0,3,6,9,12,15
    const std::uint64_t v = wi.localId() + 100;
    const std::uint64_t mx = wi.wgReduceMax(active ? v : 0, active);
    EXPECT_EQ(mx, 115u);
    const std::uint64_t sum = wi.wgReduceSum(active ? v : 0, active);
    EXPECT_EQ(sum, 100u + 103 + 106 + 109 + 112 + 115);
  });
  EXPECT_LT(dev.stats().activeFraction(), 1.0);
}

TEST(Device, DivergedPrefixSumCountsActiveLanesOnly) {
  Device dev(smallConfig());
  std::vector<std::uint64_t> out(16, 999);
  dev.launch({16, 16}, [&](WorkItem& wi) {
    const bool active = wi.localId() >= 8;
    out[wi.localId()] = wi.wgPrefixSum(active ? 1 : 0, active);
  });
  for (std::uint32_t l = 0; l < 8; ++l) EXPECT_EQ(out[l], 0u);
  for (std::uint32_t l = 8; l < 16; ++l) EXPECT_EQ(out[l], l - 8);
}

TEST(Device, MismatchedCollectiveOpsThrow) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            if (wi.localId() % 2 == 0)
                              wi.wgReduceSum(1);
                            else
                              wi.wgReduceMax(1);
                          }),
               Error);
}

TEST(Device, EarlyExitDuringCollectiveDeadlocks) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            if (wi.localId() == 3) return;  // exits early
                            wi.wgBarrier();
                          }),
               DeadlockError);
}

TEST(Device, WgReconvergenceModeCompletesOverLiveLanes) {
  // Same kernel as above, but with §5.3 thread-block-compaction semantics:
  // the exited lane stops participating and the barrier completes.
  auto cfg = smallConfig(4, 4);
  cfg.wg_reconvergence = true;
  Device dev(cfg);
  int completions = 0;
  dev.launch({4, 4}, [&](WorkItem& wi) {
    if (wi.localId() == 3) return;
    wi.wgBarrier();
    ++completions;
  });
  EXPECT_EQ(completions, 3);
}

// Collectives after a §5.3 exit run over the remaining live lanes only: lane
// 5 contributed to the first reduction, exits while the prefix sum is in
// flight, and must not appear in the prefix sum's domain.
TEST(Device, WgReconvergenceDropsExitedLaneFromLaterCollectives) {
  auto cfg = smallConfig(4, 8);
  cfg.wg_reconvergence = true;
  Device dev(cfg);
  std::vector<std::uint64_t> offs(8, 999);
  dev.launch({8, 8}, [&](WorkItem& wi) {
    EXPECT_EQ(wi.wgReduceSum(100), 800u);
    if (wi.localId() == 5) return;
    offs[wi.localId()] = wi.wgPrefixSum(wi.localId());
  });
  EXPECT_EQ(offs, (std::vector<std::uint64_t>{0, 0, 1, 3, 6, 999, 10, 16}));
}

TEST(Device, ScratchpadSharedWithinGroup) {
  Device dev(smallConfig());
  dev.launch({32, 16}, [&](WorkItem& wi) {
    auto* buf = wi.scratchAlloc<std::uint32_t>(16);
    buf[wi.localId()] = std::uint32_t(wi.localId() * 2);
    wi.wgBarrier();
    EXPECT_EQ(buf[(wi.localId() + 1) % 16], ((wi.localId() + 1) % 16) * 2);
  });
  EXPECT_GE(dev.stats().scratchpad_high_water, 16u * 4);
}

TEST(Device, ScratchpadOverflowThrows) {
  Device dev(smallConfig());
  EXPECT_THROW(
      dev.launch({16, 16},
                 [&](WorkItem& wi) { wi.scratchAlloc<std::byte>(1 << 20); }),
      Error);
}

TEST(Device, ScratchpadResetBetweenGroups) {
  Device dev(smallConfig());
  // Each group allocates half the scratchpad; if the arena were not reset
  // per group this would overflow at the second group.
  dev.launch({64, 16},
             [&](WorkItem& wi) { wi.scratchAlloc<std::byte>(2048); });
  EXPECT_EQ(dev.stats().scratchpad_high_water, 2048u);
}

// §5.3 fine-grain barriers: lanes leave as their (unequal) work runs out;
// remaining members keep synchronizing. This is Figure 10c / Figure 11d.
TEST(Device, FbarSupportsShrinkingMembership) {
  Device dev(smallConfig(4, 8));
  std::vector<int> iterations(8, 0);
  dev.launch({8, 8}, [&](WorkItem& wi) {
    auto& fb = wi.fbar();
    wi.fbarJoin(fb);
    const int myWork = int(wi.localId()) + 1;  // lane l does l+1 rounds
    for (int i = 0; i < myWork; ++i) {
      ++iterations[wi.localId()];
      if (i + 1 == myWork) {
        wi.fbarLeave(fb);
      } else {
        wi.fbarBarrier(fb);
      }
    }
  });
  for (std::uint32_t l = 0; l < 8; ++l) EXPECT_EQ(iterations[l], int(l) + 1);
}

TEST(Device, FbarCollectivesUseMembersOnly) {
  Device dev(smallConfig(4, 8));
  dev.launch({8, 8}, [&](WorkItem& wi) {
    auto& fb = wi.fbar(1);
    if (wi.localId() < 4) {
      wi.fbarJoin(fb);
      const std::uint64_t sum = wi.fbarReduceSum(fb, wi.localId());
      EXPECT_EQ(sum, 0u + 1 + 2 + 3);
      const std::uint64_t off = wi.fbarPrefixSum(fb, 1);
      EXPECT_EQ(off, wi.localId());
      wi.fbarLeave(fb);
    }
  });
}

TEST(Device, FbarExitWhileJoinedThrows) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            wi.fbarJoin(wi.fbar());
                            // forgot leavefbar
                          }),
               DeadlockError);
}

TEST(Device, NonMemberFbarCollectiveThrows) {
  Device dev(smallConfig(4, 4));
  EXPECT_THROW(dev.launch({4, 4},
                          [&](WorkItem& wi) {
                            auto& fb = wi.fbar();
                            if (wi.localId() == 0) wi.fbarJoin(fb);
                            wi.fbarBarrier(fb);  // lanes 1..3 never joined
                          }),
               Error);
}

TEST(Device, PartialTrailingGroupConverges) {
  Device dev(smallConfig(4, 16));
  std::vector<std::uint64_t> sums;
  std::mutex m;
  dev.launch({20, 16}, [&](WorkItem& wi) {  // second group has 4 lanes
    const std::uint64_t s = wi.wgReduceSum(1);
    if (wi.localId() == 0) {
      std::scoped_lock lk(m);
      sums.push_back(s);
    }
  });
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], 16u);
  EXPECT_EQ(sums[1], 4u);
}

// Exact counters at the shapes the engine runs: a small barrier + reduce,
// and the four-operation shmem reservation of runtime/node_runtime.cpp
// (reduce-max, prefix-sum, broadcast, barrier) in 256-lane groups with a
// partial active mask (lanes with localId % 3 == 0), full and with a
// partial trailing group.
TEST(Device, StatsCountCollectives) {
  struct Case {
    std::uint32_t wf;
    std::uint32_t wg;
    std::uint64_t grid;
    bool shmemShape;
    DeviceStats want;
  };
  const auto want = [](std::uint64_t wgs, std::uint64_t lanes,
                       std::uint64_t ops, std::uint64_t arrivals,
                       std::uint64_t active) {
    DeviceStats s;
    s.workgroups_executed = wgs;
    s.lanes_executed = lanes;
    s.collective_ops = ops;
    s.collective_arrivals = arrivals;
    s.active_arrivals = active;
    return s;
  };
  const Case cases[] = {
      {4, 16, 16, false, want(1, 16, 2, 32, 32)},
      // 86 active lanes: reduce-max and prefix-sum carry 2 * 86 active
      // arrivals, broadcast and barrier 2 * 256.
      {64, 256, 256, true, want(1, 256, 4, 1024, 2 * 86 + 2 * 256)},
      // Groups of 256, 256 and 40 lanes with 86, 86 and 14 active.
      {64, 256, 552, true,
       want(3, 552, 12, 4 * 552, 2 * (86 + 86 + 14) + 2 * 552)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "wg=" << c.wg << " grid=" << c.grid);
    Device dev(smallConfig(c.wf, c.wg));
    dev.launch({c.grid, c.wg}, [&](WorkItem& wi) {
      if (!c.shmemShape) {
        wi.wgBarrier();
        wi.wgReduceSum(1);
        return;
      }
      const bool active = wi.localId() % 3 == 0;
      const std::uint64_t leader = wi.wgReduceMax(wi.localId(), active);
      const std::uint64_t myOff = wi.wgPrefixSum(active ? 1 : 0, active);
      wi.wgBroadcast(myOff, active && wi.localId() == leader);
      wi.wgBarrier();
    });
    const DeviceStats& got = dev.stats();
    EXPECT_EQ(got.workgroups_executed, c.want.workgroups_executed);
    EXPECT_EQ(got.lanes_executed, c.want.lanes_executed);
    EXPECT_EQ(got.collective_ops, c.want.collective_ops);
    EXPECT_EQ(got.collective_arrivals, c.want.collective_arrivals);
    EXPECT_EQ(got.active_arrivals, c.want.active_arrivals);
  }
}

// Lane 200 throws after every lane passed a barrier, on its way to a second
// collective that lanes 0..199 and 255 already wait at; lane 200 is resumed
// by lane 199's handoff, not by the scheduler. launch() must rethrow, and
// the device, with lanes abandoned mid-kernel and a collective in flight,
// must serve the next launch with exact results and counters.
TEST(Device, ExceptionFromHandedOffLaneLeavesDeviceUsable) {
  Device dev(smallConfig(64, 256));
  EXPECT_THROW(dev.launch({256, 256},
                          [](WorkItem& wi) {
                            wi.wgBarrier();
                            if (wi.localId() == 200)
                              throw std::runtime_error("lane 200");
                            wi.wgReduceSum(1);
                          }),
               std::runtime_error);

  const DeviceStats before = dev.stats();
  std::vector<std::uint64_t> sums(256, 0);
  std::vector<std::uint64_t> offs(256, 0);
  dev.launch({256, 256}, [&](WorkItem& wi) {
    sums[wi.localId()] = wi.wgReduceSum(wi.localId());
    offs[wi.localId()] = wi.wgPrefixSum(1);
  });
  for (std::uint32_t l = 0; l < 256; ++l) {
    EXPECT_EQ(sums[l], 255u * 256 / 2);
    EXPECT_EQ(offs[l], l);
  }
  const DeviceStats& after = dev.stats();
  EXPECT_EQ(after.workgroups_executed - before.workgroups_executed, 1u);
  EXPECT_EQ(after.lanes_executed - before.lanes_executed, 256u);
  EXPECT_EQ(after.collective_ops - before.collective_ops, 2u);
  EXPECT_EQ(after.collective_arrivals - before.collective_arrivals, 512u);
  EXPECT_EQ(after.active_arrivals - before.active_arrivals, 512u);
}

// The queue-full path of GravelQueue::acquireWrite: after a collective, lane
// 0 spins in yieldLane() until the group's last lane sets a flag. Spinning
// lanes stay runnable, so this is progress, not a deadlock.
TEST(Device, YieldLaneSpinWaitsForASibling) {
  Device dev(smallConfig(4, 16));
  bool flag = false;
  int spins = 0;
  dev.launch({16, 16}, [&](WorkItem& wi) {
    wi.wgBarrier();
    if (wi.localId() == 0) {
      while (!flag) {
        ++spins;
        Device::yieldLane();
      }
    }
    if (wi.localId() == 15) {
      while (spins == 0) Device::yieldLane();
      flag = true;
    }
  });
  EXPECT_TRUE(flag);
  EXPECT_GT(spins, 0);
}

// Property sweep: Figure 5b reservation must produce a dense permutation of
// offsets for any mix of active lanes, any wavefront width, any group size.
struct ReserveParam {
  std::uint32_t wf;
  std::uint32_t wg;
  std::uint32_t activeMod;  // lane active iff localId % activeMod == 0
};

class DivergedReserve : public ::testing::TestWithParam<ReserveParam> {};

TEST_P(DivergedReserve, ActiveLanesGetDenseOffsets) {
  const auto p = GetParam();
  DeviceConfig cfg;
  cfg.wavefront_width = p.wf;
  cfg.max_wg_size = p.wg;
  Device dev(cfg);
  std::atomic<std::uint64_t> idx{0};
  std::vector<std::uint64_t> taken(p.wg, ~0ull);
  dev.launch({p.wg, p.wg}, [&](WorkItem& wi) {
    const bool active = wi.localId() % p.activeMod == 0;
    const std::uint64_t lid = wi.localId();
    const std::uint64_t leader = wi.wgReduceMax(lid, active);
    const std::uint64_t myOff = wi.wgPrefixSum(active ? 1 : 0, active);
    const std::uint64_t total = wi.wgReduceSum(active ? 1 : 0, active);
    std::uint64_t qOff = 0;
    if (active && lid == leader) qOff = idx.fetch_add(total);
    const std::uint64_t base = wi.wgReduceSum(qOff);
    if (active) taken[base + myOff] = lid;
  });
  const std::uint64_t expected = (p.wg + p.activeMod - 1) / p.activeMod;
  EXPECT_EQ(idx.load(), expected);
  for (std::uint64_t i = 0; i < expected; ++i) {
    EXPECT_NE(taken[i], ~0ull) << "offset " << i << " unused";
    EXPECT_EQ(taken[i] % p.activeMod, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DivergedReserve,
    ::testing::Values(ReserveParam{4, 16, 1}, ReserveParam{4, 16, 2},
                      ReserveParam{4, 16, 5}, ReserveParam{8, 64, 3},
                      ReserveParam{8, 64, 7}, ReserveParam{16, 64, 1},
                      ReserveParam{64, 256, 9}, ReserveParam{64, 256, 64}));

}  // namespace
}  // namespace gravel::simt
