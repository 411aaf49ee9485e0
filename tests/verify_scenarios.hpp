// Bounded protocol scenarios for the model checker (DESIGN.md §8).
//
// Each scenario builds a verify::RunSpec factory — fresh queue/fabric state
// before every schedule — and hands it to verify::explore(). The same
// scenarios serve two test binaries:
//
//   - test_verify.cpp runs them unmutated and asserts ok (and, for the DFS
//     configs, exhausted: the bounded configuration was proven).
//   - test_verify_mutation.cpp re-runs them with one acquire/release site
//     weakened to relaxed and asserts the checker reports a violation.
//
// Scenario sizing is deliberately tiny (capacity-2 rings, 1-3 messages):
// every protocol feature of interest — wraparound, the full/empty boundary,
// ticket rounds, the stopped-drain exit, drop/dup/retransmit — already
// appears at that scale, and DFS stays enumerable.
//
// Invariant callbacks run in passthrough mode (no schedule points), so they
// may use atomic peeks/loads freely, but must not take gravel::mutex — the
// stepping thread may already hold the real lock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/reliable.hpp"
#include "queue/gravel_queue.hpp"
#include "queue/mpmc_queue.hpp"
#include "queue/spsc_queue.hpp"
#include "runtime/slot_router.hpp"
#include "verify/explore.hpp"

namespace gravel::vtests {

using verify::ExploreOptions;
using verify::ExploreResult;
using verify::RunSpec;

// ---------------------------------------------------------------------------
// SPSC: producer pushes 1..kMsgs through a capacity-2 ring (wraparound at
// message 3), flags stop, consumer drains. FIFO order is checked exactly.
inline ExploreResult spscRoundTrip(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      SpscQueue q{1, 8};  // capacityBytes=1 -> the 2-cell minimum
      atomic<bool> stopped{false};
      std::vector<std::uint64_t> got;
    };
    auto st = std::make_shared<State>();
    constexpr std::uint64_t kMsgs = 3;

    RunSpec spec;
    spec.threads.push_back([st] {
      for (std::uint64_t v = 1; v <= kMsgs; ++v) st->q.push(&v);
      st->stopped.store(true, std::memory_order_release);
    });
    spec.threads.push_back([st] {
      std::uint64_t v = 0;
      while (st->q.pop(&v, st->stopped)) st->got.push_back(v);
    });
    spec.invariant = [st] {
      const std::uint64_t wr = st->q.peekWriteIdx();
      const std::uint64_t rd = st->q.peekReadIdx();
      if (rd > wr) verify::fail("spsc: readIdx overtook writeIdx");
      if (wr - rd > st->q.capacity())
        verify::fail("spsc: ring holds more than its capacity");
    };
    spec.finalCheck = [st]() -> std::string {
      if (st->got.size() != kMsgs)
        return "expected " + std::to_string(kMsgs) + " messages, got " +
               std::to_string(st->got.size());
      for (std::uint64_t i = 0; i < kMsgs; ++i)
        if (st->got[i] != i + 1)
          return "out of order or corrupt at index " + std::to_string(i) +
                 ": " + std::to_string(st->got[i]);
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// MPMC: two producers race 3 messages through a capacity-2 ring (slot 0 is
// reused in round 1); one consumer pops exactly 3. Checks the multiset and,
// per step, that every slot's round counter is monotone (ticket ordering).
inline ExploreResult mpmcRoundTrip(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      MpmcQueue q{1, 8};  // 2 slots
      atomic<bool> stopped{false};  // never set; consumer pops a fixed count
      std::vector<std::uint64_t> got;
      std::vector<std::uint64_t> prevRound;
    };
    auto st = std::make_shared<State>();
    st->prevRound.assign(st->q.capacity(), 0);

    RunSpec spec;
    spec.threads.push_back([st] {
      for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{2}})
        st->q.push(&v);
    });
    spec.threads.push_back([st] {
      const std::uint64_t v = 3;
      st->q.push(&v);
    });
    spec.threads.push_back([st] {
      std::uint64_t v = 0;
      for (int i = 0; i < 3; ++i)
        if (st->q.pop(&v, st->stopped)) st->got.push_back(v);
    });
    spec.invariant = [st] {
      for (std::size_t s = 0; s < st->prevRound.size(); ++s) {
        const std::uint64_t r = st->q.peekSlotRound(s);
        if (r < st->prevRound[s])
          verify::fail("mpmc: slot round went backwards (ticket order)");
        st->prevRound[s] = r;
      }
    };
    spec.finalCheck = [st]() -> std::string {
      std::multiset<std::uint64_t> want{1, 2, 3};
      std::multiset<std::uint64_t> have(st->got.begin(), st->got.end());
      if (have != want) {
        std::string s = "lost/duplicated/corrupt messages:";
        for (std::uint64_t v : st->got) {
          s += ' ';
          s += std::to_string(v);
        }
        return s;
      }
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// GravelQueue, 1 producer / 1 consumer, lanes=1, 2 slots: three slots' worth
// of messages so the ring wraps (slot 0 hosts rounds 0 and 1) and the
// round/full handshake is exercised across the wrap. FIFO checked exactly.
inline ExploreResult gravelRoundTrip(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      // rows=1, lanes=1 -> slotBytes=8; capacity_bytes=16 -> 2 slots.
      GravelQueue q{GravelQueueConfig{16, 1, 1}};
      atomic<bool> stopped{false};
      std::vector<std::uint64_t> got;
    };
    auto st = std::make_shared<State>();
    constexpr std::uint64_t kMsgs = 3;

    RunSpec spec;
    spec.threads.push_back([st] {
      for (std::uint64_t v = 1; v <= kMsgs; ++v) {
        GravelQueue::SlotRef ref = st->q.acquireWrite(1);
        st->q.putWord(ref, 0, 0, v);
        st->q.publish(ref);
      }
      st->stopped.store(true, std::memory_order_release);
    });
    spec.threads.push_back([st] {
      GravelQueue::SlotRef ref;
      while (st->q.acquireRead(ref, st->stopped)) {
        st->got.push_back(st->q.getWord(ref, 0, 0));
        st->q.release(ref);
      }
    });
    spec.invariant = [st] {
      const std::uint64_t wr = st->q.peekWriteIdx();
      const std::uint64_t rd = st->q.peekReadIdx();
      if (rd > wr) verify::fail("gravel: readIdx overtook writeIdx");
      for (std::uint32_t s = 0; s < st->q.slotCount(); ++s)
        if (st->q.peekSlotFull(s) && st->q.peekSlotCount(s) > st->q.lanes())
          verify::fail("gravel: published count exceeds lanes");
    };
    spec.finalCheck = [st]() -> std::string {
      if (st->got.size() != kMsgs)
        return "expected " + std::to_string(kMsgs) + " messages, got " +
               std::to_string(st->got.size());
      for (std::uint64_t i = 0; i < kMsgs; ++i)
        if (st->got[i] != i + 1)
          return "out of order or corrupt at index " + std::to_string(i) +
                 ": " + std::to_string(st->got[i]);
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// GravelQueue, 2 producers / 1 consumer over 2 slots: three reservations, so
// two producers alias the ring across a wrap and the derived write tickets
// must serialize them. Consumer claims a fixed count (no stop protocol).
inline ExploreResult gravelTwoProducers(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      GravelQueue q{GravelQueueConfig{16, 1, 1}};  // 2 slots
      atomic<bool> stopped{false};  // never set
      std::vector<std::uint64_t> got;
      std::vector<std::uint64_t> prevRound;
    };
    auto st = std::make_shared<State>();
    st->prevRound.assign(st->q.slotCount(), 0);

    auto produce = [st](std::initializer_list<std::uint64_t> vals) {
      for (std::uint64_t v : vals) {
        GravelQueue::SlotRef ref = st->q.acquireWrite(1);
        st->q.putWord(ref, 0, 0, v);
        st->q.publish(ref);
      }
    };
    RunSpec spec;
    spec.threads.push_back([=] { produce({1, 2}); });
    spec.threads.push_back([=] { produce({3}); });
    spec.threads.push_back([st] {
      GravelQueue::SlotRef ref;
      for (int i = 0; i < 3; ++i) {
        if (!st->q.acquireRead(ref, st->stopped)) continue;
        st->got.push_back(st->q.getWord(ref, 0, 0));
        st->q.release(ref);
      }
    });
    spec.invariant = [st] {
      for (std::size_t s = 0; s < st->prevRound.size(); ++s) {
        const std::uint64_t r = st->q.peekSlotRound(std::uint32_t(s));
        if (r < st->prevRound[s])
          verify::fail("gravel: slot round went backwards (ticket order)");
        st->prevRound[s] = r;
      }
    };
    spec.finalCheck = [st]() -> std::string {
      std::multiset<std::uint64_t> want{1, 2, 3};
      std::multiset<std::uint64_t> have(st->got.begin(), st->got.end());
      if (have != want) {
        std::string s = "lost/duplicated/corrupt messages:";
        for (std::uint64_t v : st->got) {
          s += ' ';
          s += std::to_string(v);
        }
        return s;
      }
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// The stopped-drain race documented in GravelQueue::acquireRead: a producer
// publishes, a *separate* stopper thread releases `stopped` once it has
// seen the producer finish, and the consumer must never exit with a
// published message unclaimed. Its exit test, `stopped` then drained(),
// sees `stopped` through a thread other than the producer.
inline ExploreResult gravelStoppedDrain(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      GravelQueue q{GravelQueueConfig{16, 1, 1}};
      atomic<bool> producerDone{false};
      atomic<bool> stopped{false};
      std::vector<std::uint64_t> got;
    };
    auto st = std::make_shared<State>();
    constexpr std::uint64_t kMsgs = 2;

    RunSpec spec;
    spec.threads.push_back([st] {  // producer
      for (std::uint64_t v = 1; v <= kMsgs; ++v) {
        GravelQueue::SlotRef ref = st->q.acquireWrite(1);
        st->q.putWord(ref, 0, 0, v);
        st->q.publish(ref);
      }
      st->producerDone.store(true, std::memory_order_release);
    });
    spec.threads.push_back([st] {  // stopper: waits out the producer
      while (!st->producerDone.load(std::memory_order_acquire))
        verify::spinYield();
      st->stopped.store(true, std::memory_order_release);
    });
    spec.threads.push_back([st] {  // consumer
      GravelQueue::SlotRef ref;
      while (st->q.acquireRead(ref, st->stopped)) {
        st->got.push_back(st->q.getWord(ref, 0, 0));
        st->q.release(ref);
      }
    });
    spec.finalCheck = [st]() -> std::string {
      if (st->got.size() != kMsgs)
        return "stopped drain lost messages: expected " +
               std::to_string(kMsgs) + ", got " +
               std::to_string(st->got.size());
      for (std::uint64_t i = 0; i < kMsgs; ++i)
        if (st->got[i] != i + 1)
          return "out of order or corrupt at index " + std::to_string(i);
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// Two consumers race tryAcquireRead (through acquireRead) across a ring
// wrap: setup publishes round 0 of both slots of a 2-slot, 1-lane ring; a
// producer publishes round 1 of slot 0 and sets `stopped`; both consumers
// drain until stopped. The consumer that claims round 1 may not be the one
// that released round 0, so only tryAcquireRead's acquire on the slot's
// round keeps it from reading round 0's stale full flag and claiming the
// slot before the producer has written it. Checked: every message claimed
// exactly once, none left behind at the stopped exit.
inline ExploreResult gravelTwoConsumersWrap(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      GravelQueue q{GravelQueueConfig{16, 1, 1}};  // 2 slots
      atomic<bool> stopped{false};
      std::vector<std::uint64_t> got[2];  // per consumer
    };
    auto st = std::make_shared<State>();
    auto produce = [st](std::uint64_t v) {
      GravelQueue::SlotRef ref = st->q.acquireWrite(1);
      st->q.putWord(ref, 0, 0, v);
      st->q.publish(ref);
    };
    // Setup-phase publish (no schedule points, as in slotRoutedAggregation).
    produce(1);
    produce(2);

    RunSpec spec;
    spec.threads.push_back([=] {  // producer: round 1 of slot 0, then stop
      produce(3);
      st->stopped.store(true, std::memory_order_release);
    });
    for (int c = 0; c < 2; ++c)
      spec.threads.push_back([st, c] {  // consumers
        GravelQueue::SlotRef ref;
        while (st->q.acquireRead(ref, st->stopped)) {
          st->got[c].push_back(st->q.getWord(ref, 0, 0));
          st->q.release(ref);
        }
      });
    spec.finalCheck = [st]() -> std::string {
      std::multiset<std::uint64_t> have(st->got[0].begin(), st->got[0].end());
      have.insert(st->got[1].begin(), st->got[1].end());
      if (have != std::multiset<std::uint64_t>{1, 2, 3}) {
        std::string s = "lost/duplicated/corrupt messages:";
        for (std::uint64_t v : have) {
          s += ' ';
          s += std::to_string(v);
        }
        return s;
      }
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// Scripted wire for the reliability-layer scenarios: delivery order is the
// send order, but while `faultBudget` lasts the adversary (verify::choose)
// may drop a batch on the floor or deliver it twice. With budget 0 the wire
// is perfect and deterministic.
class ScriptedWire : public net::Fabric {
 public:
  ScriptedWire(std::uint32_t nodes, int faultBudget, bool allowDuplicate)
      : nodes_(nodes),
        inboxes_(nodes),
        faultBudget_(faultBudget),
        actions_(allowDuplicate ? 3 : 2) {}

  std::uint32_t nodes() const noexcept override { return nodes_; }

  void send(std::uint32_t src, std::uint32_t dst,
            std::vector<rt::NetMessage>&& batch) override {
    if (batch.empty()) return;
    int action = 0;  // 0 = deliver, 1 = drop, 2 = deliver twice
    if (faultBudget_ > 0) {
      action = verify::choose(actions_);
      if (action != 0) --faultBudget_;
    }
    if (action == 1) return;  // lost on the wire
    Inbox& ib = inboxes_[dst];
    gravel::lock_guard lk(ib.m);
    ib.q.push_back(net::Delivery{src, 0, batch});
    if (action == 2) ib.q.push_back(net::Delivery{src, 0, std::move(batch)});
  }

  bool tryReceive(std::uint32_t dst, net::Delivery& out) override {
    Inbox& ib = inboxes_[dst];
    gravel::lock_guard lk(ib.m);
    if (ib.q.empty()) return false;
    out = std::move(ib.q.front());
    ib.q.pop_front();
    return true;
  }

  // The reliability layer above tracks resolution/quiescence; the wire has
  // no accounting of its own in this harness.
  void markResolved(std::uint32_t, const net::Delivery&) override {}
  bool quiescent() const override { return true; }
  std::string describePending() const override { return "scripted wire"; }
  net::LinkStats link(std::uint32_t, std::uint32_t) const override {
    return {};
  }
  net::LinkStats total() const override { return {}; }
  RunningStat batchSizeBytes() const override { return {}; }

 private:
  struct Inbox {
    gravel::mutex m;
    std::deque<net::Delivery> q;
  };
  std::uint32_t nodes_;
  std::vector<Inbox> inboxes_;
  int faultBudget_;
  const int actions_;
};

inline net::ReliabilityConfig boundedRelConfig() {
  net::ReliabilityConfig cfg;
  cfg.enabled = true;
  // rto 0: `now < nextRetryAt` is false on a monotonic clock, so retransmit
  // eligibility never depends on wall time — decisions stay deterministic.
  cfg.rto_base = std::chrono::microseconds{0};
  cfg.rto_max = std::chrono::microseconds{0};
  cfg.max_retries = 1000;  // the adversary's budget bounds retries, not this
  cfg.reorder_window = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Reliable layer, perfect wire, 3 threads: sender S, receiver R and a
// watcher W that treats quiescent() as a fence — once W sees the cluster
// quiet it reads the payload's side effect with no further synchronization.
// Exactly the contract quiet() gives launchAll() callers. A weakening of
// the outstanding_ accounting orders breaks the fence and the race detector
// objects at W's read.
inline ExploreResult reliableQuiescentVisibility(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      ScriptedWire wire{2, 0, false};  // no faults: deterministic wire
      net::ReliableFabric rel{wire, boundedRelConfig()};
      atomic<bool> sent{false};
      std::uint64_t result = 0;  // the remote side effect, race-checked
    };
    auto st = std::make_shared<State>();

    RunSpec spec;
    spec.threads.push_back([st] {  // S: node 0 sends, then drains ACKs
      st->rel.send(0, 1, {rt::NetMessage::put(1, 0, 7)});
      st->sent.store(true, std::memory_order_release);
      net::Delivery d;
      while (st->rel.pendingCount() > 0)
        if (!st->rel.tryReceive(0, d)) verify::spinYield();
    });
    spec.threads.push_back([st] {  // R: node 1's network thread
      net::Delivery d;
      for (;;) {
        if (!st->rel.tryReceive(1, d)) {
          verify::spinYield();
          continue;
        }
        for (const rt::NetMessage& m : d.messages)
          if (m.command() == rt::Command::kPut) {
            verify::dataStore(&st->result);
            st->result = m.value;
          }
        st->rel.markResolved(1, d);
        return;
      }
    });
    spec.threads.push_back([st] {  // W: quiet()-style fence, then plain read
      while (!st->sent.load(std::memory_order_acquire)) verify::spinYield();
      while (!st->rel.quiescent()) verify::spinYield();
      verify::dataLoad(&st->result);
      if (st->result != 7)
        verify::fail("quiescent() fence let a stale payload through");
    });
    spec.finalCheck = [st]() -> std::string {
      if (!st->rel.quiescent()) return "cluster never quiesced";
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// Reliable layer over a faulty wire: the adversary may drop or duplicate one
// wire transmission (data OR ack); the sender retransmits via poll(). The
// payload must be applied exactly once no matter what the adversary picks.
inline ExploreResult reliableDropRetransmit(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      ScriptedWire wire{2, 1, true};  // one drop-or-duplicate token
      net::ReliableFabric rel{wire, boundedRelConfig()};
      atomic<bool> senderDone{false};
      std::uint64_t result = 0;
      int applied = 0;  // receiver-thread-private application count
    };
    auto st = std::make_shared<State>();

    RunSpec spec;
    spec.threads.push_back([st] {  // S: send, then retransmit until acked
      st->rel.send(0, 1, {rt::NetMessage::put(1, 0, 7)});
      net::Delivery d;
      // rto_base is 0, so every pass retransmits; any single wire fault is
      // repairable by a later retransmit, and the spinYield below bounds
      // how often a pass can run (only after another thread made progress).
      while (!st->rel.quiescent()) {
        const bool got = st->rel.tryReceive(0, d);
        st->rel.poll(0);
        if (!got) verify::spinYield();
      }
      st->senderDone.store(true, std::memory_order_release);
    });
    spec.threads.push_back([st] {  // R: the network thread; serves until the
      // sender is satisfied. (Exiting on !quiescent() would be wrong: a
      // stale read of the quiescence counters may legally say "quiet" while
      // a retransmission is still owed, deserting the sender.)
      net::Delivery d;
      while (!st->senderDone.load(std::memory_order_acquire)) {
        if (!st->rel.tryReceive(1, d)) {
          verify::spinYield();
          continue;
        }
        for (const rt::NetMessage& m : d.messages)
          if (m.command() == rt::Command::kPut) {
            ++st->applied;
            verify::dataStore(&st->result);
            st->result = m.value;
          }
        st->rel.markResolved(1, d);
      }
    });
    spec.finalCheck = [st]() -> std::string {
      if (st->applied != 1)
        return "payload applied " + std::to_string(st->applied) +
               " times (want exactly once)";
      if (st->result != 7) return "payload corrupt";
      if (!st->rel.quiescent()) return "cluster never quiesced";
      if (st->rel.failure()) return "link declared failed";
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// The aggregator's slot-batched routing (DESIGN.md §9): two router threads
// each claim one pre-published slot, bulk-decode it into thread-local
// staging, release the queue slot, then append per-destination runs to the
// shared SlotRouter buffers — one gravel::mutex acquisition per destination
// per slot. Capacity-2 buffers force a mid-run flush split, so the checker
// covers lock handoff between routing, capacity flush and the final
// flushAll under every bounded interleaving. (Publishing happens in setup:
// the producer-side queue protocol is already exhausted by the gravel*
// scenarios above, and keeping it out of the schedule space is what lets
// DFS stay exhaustive here.) Checked: conservation across route -> flush,
// batch sizes <= capacity, and the no-reordering guarantee (a slot's
// same-destination run stays contiguous and lane-ascending in
// per-destination arrival order).
inline ExploreResult slotRoutedAggregation(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      // 2 slots of 2 lanes x 4 rows (NetMessage width).
      GravelQueue q{GravelQueueConfig{128, 2, rt::NetMessage::kRows}};
      atomic<bool> stopped{false};  // never set; claims are exact
      rt::SlotRouter router;
      std::vector<std::vector<std::uint64_t>> flushed;  // per-dest values
      std::size_t maxBatch = 0;
      State()
          // A flush timeout far past the exploration keeps the timer wheel
          // inert: the scenario owns flushing via capacity + flushAll, and
          // with shards defaulting to min(nodes, 64) = 2 the sharded
          // router keeps the historical one-lock-per-destination shape.
          : router(2, /*capacityMsgs=*/2, std::chrono::seconds(3600),
                   [this](std::uint32_t dst,
                          std::vector<rt::NetMessage>&& batch) {
                     // Runs with the destination's shard lock held.
                     maxBatch = std::max(maxBatch, batch.size());
                     for (const rt::NetMessage& m : batch)
                       flushed[dst].push_back(m.value);
                   }),
            flushed(2) {}
    };
    auto st = std::make_shared<State>();

    auto produce = [st](const rt::NetMessage (&msgs)[2]) {
      GravelQueue::SlotRef ref = st->q.acquireWrite(2);
      for (std::uint32_t lane = 0; lane < 2; ++lane) {
        st->q.putWord(ref, 0, lane, msgs[lane].cmd);
        st->q.putWord(ref, 1, lane, msgs[lane].dest);
        st->q.putWord(ref, 2, lane, msgs[lane].addr);
        st->q.putWord(ref, 3, lane, msgs[lane].value);
      }
      st->q.publish(ref);
    };
    auto route = [st] {
      rt::SlotRouter::Staging staging(2);
      GravelQueue::SlotRef ref;
      if (st->q.acquireRead(ref, st->stopped)) {
        st->router.decode(st->q, ref, staging);
        st->q.release(ref);  // slot handed back before any buffer lock
        st->router.routeStaged(staging);
      }
      // Each thread force-flushes after routing; whichever runs last has
      // seen its own appends, so nothing is left buffered at finalCheck.
      st->router.flushAll();
    };

    // Setup-phase publish (runs before the checker registers any thread, so
    // it adds no schedule points). Slot A fans out (one message per
    // destination); slot B is a two-message same-destination run that must
    // stay contiguous.
    produce({rt::NetMessage::put(0, 0, 1), rt::NetMessage::put(1, 0, 2)});
    produce({rt::NetMessage::put(0, 0, 3), rt::NetMessage::put(0, 0, 4)});

    RunSpec spec;
    spec.threads.push_back(route);
    spec.threads.push_back(route);
    spec.finalCheck = [st]() -> std::string {
      const auto& d0 = st->flushed[0];
      const auto& d1 = st->flushed[1];
      if (st->maxBatch > 2)
        return "batch exceeded capacity: " + std::to_string(st->maxBatch);
      if (d1 != std::vector<std::uint64_t>{2})
        return "dest 1 payload lost/duplicated/corrupt";
      if (std::multiset<std::uint64_t>(d0.begin(), d0.end()) !=
          std::multiset<std::uint64_t>{1, 3, 4})
        return "dest 0 payload lost/duplicated/corrupt";
      // Slot B's run {3, 4} must be adjacent and in lane order in dest 0's
      // arrival stream regardless of which thread routed which slot.
      for (std::size_t i = 0; i < d0.size(); ++i) {
        if (d0[i] != 3) continue;
        if (i + 1 >= d0.size() || d0[i + 1] != 4)
          return "same-slot run split or reordered within destination";
      }
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// Degrade-policy configuration for the breaker scenarios: rto 0 keeps
// retransmit eligibility time-independent (as above), and max_retries 0
// means the first poll() that finds an unacked batch trips the link — so
// whether a trip happens at all is decided purely by the schedule (did the
// ACK win the race to the sender before the poll?), which is exactly the
// nondeterminism the checker should own.
inline net::ReliabilityConfig breakerRelConfig() {
  net::ReliabilityConfig cfg = boundedRelConfig();
  cfg.policy = net::FailurePolicy::kDegrade;
  cfg.max_retries = 0;
  cfg.breaker_cooldown = std::chrono::milliseconds{0};  // probes always legal
  cfg.dlq_capacity = 8;
  return cfg;
}

// ---------------------------------------------------------------------------
// Circuit-breaker trip racing in-flight traffic: sender S ships one payload,
// a separate poller P may trip the link (retry budget 0) at any point
// relative to R's admission and the returning ACK, and S redelivers whatever
// was dead-lettered. Depending on the interleaving the batch is (a) ACKed
// before the trip, (b) settled as delivered at re-sync (admitted but the
// stale-era ACK suppressed), or (c) dead-lettered and paid back through a
// half-open probe under the new era. In every case the payload must apply
// exactly once and the conservation invariant delivered + dead_lettered ==
// sent must close.
inline ExploreResult breakerTripRecover(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      ScriptedWire wire{2, 0, false};  // perfect wire; the breaker is the foe
      rt::Membership members{2};
      net::DeadLetterQueue dlq{2, 8};
      net::ReliableFabric rel{wire, breakerRelConfig()};
      atomic<bool> senderDone{false};
      std::uint64_t result = 0;
      int applied = 0;  // receiver-thread-private application count
      State() { rel.attachDegrade(&members, &dlq); }
    };
    auto st = std::make_shared<State>();

    RunSpec spec;
    spec.threads.push_back([st] {  // S: sender + recovery manager
      st->rel.send(0, 1, {rt::NetMessage::put(1, 0, 7)});
      net::Delivery d;
      for (;;) {
        const bool got = st->rel.tryReceive(0, d);  // absorbs ACKs
        // Pay back a dead-lettered batch (at most once: P polls once, so
        // the redelivered probe itself can never be tripped again).
        if (st->dlq.stats().stored > 0) st->rel.redeliver(1);
        if (st->rel.quiescent() && st->dlq.stats().stored == 0) break;
        if (!got) verify::spinYield();
      }
      st->senderDone.store(true, std::memory_order_release);
    });
    spec.threads.push_back([st] {  // P: one retransmit scan — the trip race
      st->rel.poll(0);
    });
    spec.threads.push_back([st] {  // R: node 1's network thread
      net::Delivery d;
      while (!st->senderDone.load(std::memory_order_acquire)) {
        if (!st->rel.tryReceive(1, d)) {
          verify::spinYield();
          continue;
        }
        for (const rt::NetMessage& m : d.messages)
          if (m.command() == rt::Command::kPut) {
            ++st->applied;
            verify::dataStore(&st->result);
            st->result = m.value;
          }
        st->rel.markResolved(1, d);
      }
    });
    spec.finalCheck = [st]() -> std::string {
      if (st->applied > 1)
        return "payload applied " + std::to_string(st->applied) +
               " times across the trip/recovery (want at most once)";
      if (st->applied == 1 && st->result != 7) return "payload corrupt";
      if (!st->rel.quiescent()) return "cluster never quiesced";
      const net::DeadLetterStats d = st->dlq.stats();
      const std::uint64_t sent = st->rel.total().messages;
      if (std::uint64_t(st->applied) + d.dead_lettered != sent)
        return "conservation broken: applied " + std::to_string(st->applied) +
               " + dead_lettered " + std::to_string(d.dead_lettered) +
               " != sent " + std::to_string(sent);
      if (d.redelivered > 0 && st->applied != 1)
        return "redelivered batch never applied";
      if (st->members.dead(0) || st->members.dead(1))
        return "a single link trip must not kill a node (suspect at most)";
      return "";
    };
    return spec;
  });
}

// ---------------------------------------------------------------------------
// Half-open probe protocol, with the trip made deterministic in the setup
// phase: the era-0 data frame is still sitting in the receiver's wire inbox
// when the link re-syncs, so the new incarnation must provably reject it
// (stale_data_drops == 1 — a frame from before the trip can never apply
// under the new era). Recovery then walks the full breaker state machine:
// open -> half-open (the redelivered batch rides as the probe) -> closed on
// the probe's ACK, which also clears the membership suspicion.
inline ExploreResult breakerHalfOpenProbe(const ExploreOptions& opts) {
  return verify::explore(opts, [] {
    struct State {
      ScriptedWire wire{2, 0, false};
      rt::Membership members{2};
      net::DeadLetterQueue dlq{2, 8};
      net::ReliableFabric rel{wire, breakerRelConfig()};
      atomic<bool> senderDone{false};
      std::uint64_t result = 0;
      int applied = 0;
      State() { rel.attachDegrade(&members, &dlq); }
    };
    auto st = std::make_shared<State>();

    // Setup phase (no schedule points registered yet): send, then trip. The
    // era-0 frame is on the wire, its sender-side copy is dead-lettered,
    // the breaker is open and node 1 is suspect.
    st->rel.send(0, 1, {rt::NetMessage::put(1, 0, 7)});
    st->rel.poll(0);  // retry budget 0: trips link 0->1 deterministically

    RunSpec spec;
    spec.threads.push_back([st] {  // S: redeliver (the probe), drain the ACK
      st->rel.redeliver(1);
      net::Delivery d;
      while (!st->rel.quiescent())
        if (!st->rel.tryReceive(0, d)) verify::spinYield();
      st->senderDone.store(true, std::memory_order_release);
    });
    spec.threads.push_back([st] {  // R: sees the stale frame, then the probe
      net::Delivery d;
      while (!st->senderDone.load(std::memory_order_acquire)) {
        if (!st->rel.tryReceive(1, d)) {
          verify::spinYield();
          continue;
        }
        for (const rt::NetMessage& m : d.messages)
          if (m.command() == rt::Command::kPut) {
            ++st->applied;
            verify::dataStore(&st->result);
            st->result = m.value;
          }
        st->rel.markResolved(1, d);
      }
    });
    spec.finalCheck = [st]() -> std::string {
      if (st->applied != 1)
        return "payload applied " + std::to_string(st->applied) +
               " times (want exactly once through the probe)";
      if (st->result != 7) return "payload corrupt";
      if (!st->rel.quiescent()) return "cluster never quiesced";
      const net::ReliabilityStats rs = st->rel.reliabilityStats();
      if (rs.breaker_trips != 1)
        return "expected exactly one breaker trip, saw " +
               std::to_string(rs.breaker_trips);
      if (rs.probes != 1)
        return "expected exactly one half-open probe, saw " +
               std::to_string(rs.probes);
      if (rs.stale_data_drops != 1)
        return "stale era-0 frame was not provably rejected (drops " +
               std::to_string(rs.stale_data_drops) + ")";
      const net::DeadLetterStats d = st->dlq.stats();
      if (d.dead_lettered != 1 || d.redelivered != 1 || d.stored != 0)
        return "dead-letter accounting wrong: lettered " +
               std::to_string(d.dead_lettered) + ", redelivered " +
               std::to_string(d.redelivered) + ", stored " +
               std::to_string(d.stored);
      if (st->members.health(1) != rt::NodeHealth::kAlive)
        return "probe ACK did not clear the suspicion (health " +
               std::string(rt::nodeHealthName(st->members.health(1))) + ")";
      return "";
    };
    return spec;
  });
}

}  // namespace gravel::vtests
