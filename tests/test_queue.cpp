// Tests for the producer/consumer queues of paper §4: Gravel's slotted
// ticket queue plus the CPU-only SPSC/MPMC baselines. Includes concurrent
// stress tests that check the end-to-end multiset of messages survives.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "queue/gravel_queue.hpp"
#include "queue/mpmc_queue.hpp"
#include "queue/spsc_queue.hpp"

namespace gravel {
namespace {

struct TestMsg {
  std::uint64_t cmd;
  std::uint64_t dest;
  std::uint64_t addr;
  std::uint64_t value;
};

/// A TestMsg spans one payload row per field.
constexpr std::uint32_t kMsgRows = sizeof(TestMsg) / 8;

void storeMsg(GravelQueue& q, const GravelQueue::SlotRef& ref,
              std::uint32_t lane, const TestMsg& m) {
  q.putWord(ref, 0, lane, m.cmd);
  q.putWord(ref, 1, lane, m.dest);
  q.putWord(ref, 2, lane, m.addr);
  q.putWord(ref, 3, lane, m.value);
}

TestMsg loadMsg(const GravelQueue& q, const GravelQueue::SlotRef& ref,
                std::uint32_t lane) {
  return TestMsg{q.getWord(ref, 0, lane), q.getWord(ref, 1, lane),
                 q.getWord(ref, 2, lane), q.getWord(ref, 3, lane)};
}

TEST(GravelQueue, GeometryFromConfig) {
  GravelQueue q(GravelQueueConfig{1 << 20, 256, 4});
  // 256 lanes * 4 rows * 8 B = 8 KiB per slot; 1 MiB / 8 KiB = 128 slots.
  EXPECT_EQ(q.slotCount(), 128u);
  EXPECT_EQ(q.lanes(), 256u);
  EXPECT_EQ(q.messageBytes(), 32u);
}

TEST(GravelQueue, MinimumTwoSlots) {
  // A config whose slot would exceed capacity still gets a 2-slot ring.
  GravelQueue q(GravelQueueConfig{1024, 256, 4});
  EXPECT_EQ(q.slotCount(), 2u);
}

TEST(GravelQueue, RejectsBadWriteCounts) {
  GravelQueue q(GravelQueueConfig{1 << 16, 8, 2});
  EXPECT_THROW(q.acquireWrite(0), Error);
  EXPECT_THROW(q.acquireWrite(9), Error);
}

TEST(GravelQueue, CopySlotBulkDecodesRowMajorPayload) {
  // copySlot() must undo the row-major transpose in one pass: lane i of the
  // slot becomes out[i], with each row landing in the message's i-th word.
  GravelQueue q(GravelQueueConfig{1 << 16, 8, 4});
  std::atomic<bool> stopped{false};
  for (std::uint32_t count : {std::uint32_t(8), std::uint32_t(3)}) {
    auto w = q.acquireWrite(count);  // full slot, then a partial one
    for (std::uint32_t row = 0; row < 4; ++row)
      for (std::uint32_t lane = 0; lane < count; ++lane)
        q.wordAt(w, row, lane) = 1000 * row + lane;
    q.publish(w);
    GravelQueue::SlotRef r;
    ASSERT_TRUE(q.acquireRead(r, stopped));
    ASSERT_EQ(r.count, count);
    std::vector<TestMsg> out(count);
    q.copySlot(r, out.data());
    q.release(r);
    for (std::uint32_t lane = 0; lane < count; ++lane) {
      EXPECT_EQ(out[lane].cmd, 0u + lane);
      EXPECT_EQ(out[lane].dest, 1000u + lane);
      EXPECT_EQ(out[lane].addr, 2000u + lane);
      EXPECT_EQ(out[lane].value, 3000u + lane);
    }
  }
}

TEST(GravelQueue, CopySlotRejectsMismatchedMessageWidth) {
  struct Narrow {
    std::uint64_t a, b;  // 16 bytes, but the queue's rows say 32
  };
  GravelQueue q(GravelQueueConfig{1 << 16, 8, 4});
  auto w = q.acquireWrite(2);
  q.publish(w);
  std::atomic<bool> stopped{false};
  GravelQueue::SlotRef r;
  ASSERT_TRUE(q.acquireRead(r, stopped));
  Narrow out[2];
  EXPECT_THROW(q.copySlot(r, out), Error);
  q.release(r);
}

TEST(GravelQueue, SingleSlotRoundTrip) {
  GravelQueue q(GravelQueueConfig{1 << 16, 4, kMsgRows});
  auto w = q.acquireWrite(3);
  for (std::uint32_t lane = 0; lane < 3; ++lane)
    storeMsg(q, w, lane, TestMsg{1, lane, 100 + lane, 1000 + lane});
  q.publish(w);

  std::atomic<bool> stopped{true};
  GravelQueue::SlotRef r;
  ASSERT_TRUE(q.acquireRead(r, stopped));
  EXPECT_EQ(r.count, 3u);
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    TestMsg m = loadMsg(q, r, lane);
    EXPECT_EQ(m.cmd, 1u);
    EXPECT_EQ(m.dest, lane);
    EXPECT_EQ(m.addr, 100 + lane);
    EXPECT_EQ(m.value, 1000 + lane);
  }
  q.release(r);
  EXPECT_TRUE(q.drained());
  EXPECT_FALSE(q.acquireRead(r, stopped));
}

TEST(GravelQueue, RowMajorLayoutIsCoalescingFriendly) {
  // Field f of adjacent lanes must land in adjacent words (one row), which
  // is the memory-coalescing property §4.3 relies on.
  GravelQueue q(GravelQueueConfig{1 << 16, 8, 2});
  auto w = q.acquireWrite(8);
  for (std::uint32_t lane = 0; lane < 8; ++lane) {
    q.wordAt(w, 0, lane) = lane;
    q.wordAt(w, 1, lane) = 100 + lane;
  }
  for (std::uint32_t lane = 0; lane + 1 < 8; ++lane) {
    EXPECT_EQ(&q.wordAt(w, 0, lane) + 1, &q.wordAt(w, 0, lane + 1));
  }
  q.publish(w);
  std::atomic<bool> stopped{true};
  GravelQueue::SlotRef r;
  ASSERT_TRUE(q.acquireRead(r, stopped));
  q.release(r);
}

TEST(GravelQueue, WrapsAroundTheRingManyTimes) {
  GravelQueue q(GravelQueueConfig{1 << 12, 4, kMsgRows});  // tiny ring
  std::atomic<bool> stopped{false};
  std::thread consumer([&] {
    GravelQueue::SlotRef r;
    std::uint64_t expect = 0;
    while (q.acquireRead(r, stopped)) {
      for (std::uint32_t lane = 0; lane < r.count; ++lane) {
        TestMsg m = loadMsg(q, r, lane);
        EXPECT_EQ(m.value, expect++);
      }
      q.release(r);
    }
    EXPECT_EQ(expect, 4000u);
  });
  std::uint64_t v = 0;
  for (int slot = 0; slot < 1000; ++slot) {
    auto w = q.acquireWrite(4);
    for (std::uint32_t lane = 0; lane < 4; ++lane)
      storeMsg(q, w, lane, TestMsg{0, 0, 0, v++});
    q.publish(w);
  }
  stopped.store(true);
  consumer.join();
}

TEST(GravelQueue, AtomicsAmortizedAcrossGroup) {
  // One group reservation = 1 RMW (the Figure 5d point) regardless of the
  // number of messages in the group.
  GravelQueue q(GravelQueueConfig{1 << 16, 256, 4});
  q.resetAtomicRmwCount();
  auto w = q.acquireWrite(256);
  EXPECT_EQ(q.atomicRmwCount(), 1u);
  q.publish(w);
  std::atomic<bool> stopped{true};
  GravelQueue::SlotRef r;
  ASSERT_TRUE(q.acquireRead(r, stopped));
  q.release(r);
  // Consumer adds its claim RMW.
  EXPECT_EQ(q.atomicRmwCount(), 2u);
}

// Multi-producer/multi-consumer stress: the multiset of values sent must
// equal the multiset received, across ring wrap-arounds and slot aliasing.
TEST(GravelQueueStress, ManyProducersManyConsumers) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kGroupsPerProducer = 400;
  constexpr std::uint32_t kLanes = 16;

  // A small ring forces slot reuse.
  GravelQueue q(GravelQueueConfig{1 << 13, kLanes, kMsgRows});
  std::atomic<bool> stopped{false};
  std::mutex sinkMutex;
  std::map<std::uint64_t, int> received;

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      GravelQueue::SlotRef r;
      std::map<std::uint64_t, int> local;
      while (q.acquireRead(r, stopped)) {
        for (std::uint32_t lane = 0; lane < r.count; ++lane)
          ++local[loadMsg(q, r, lane).value];
        q.release(r);
      }
      std::scoped_lock lk(sinkMutex);
      for (auto& [v, n] : local) received[v] += n;
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int g = 0; g < kGroupsPerProducer; ++g) {
        const std::uint32_t count = 1 + (g % kLanes);
        auto w = q.acquireWrite(count);
        for (std::uint32_t lane = 0; lane < count; ++lane) {
          const std::uint64_t v =
              (std::uint64_t(p) << 32) | (std::uint64_t(g) << 8) | lane;
          storeMsg(q, w, lane, TestMsg{0, 0, 0, v});
        }
        q.publish(w);
      }
    });
  }
  for (auto& t : producers) t.join();
  stopped.store(true);
  for (auto& t : consumers) t.join();

  std::uint64_t expectedTotal = 0;
  for (int g = 0; g < kGroupsPerProducer; ++g) expectedTotal += 1 + (g % kLanes);
  expectedTotal *= kProducers;

  std::uint64_t got = 0;
  for (auto& [v, n] : received) {
    EXPECT_EQ(n, 1) << "duplicate value " << v;
    got += n;
  }
  EXPECT_EQ(got, expectedTotal);
}

// Geometry sweep: correctness must hold for any (capacity, lanes, rows)
// shape, including degenerate 2-slot rings and single-lane slots.
struct GeomParam {
  std::size_t capacity;
  std::uint32_t lanes;
  std::uint32_t rows;
};

class QueueGeometry : public ::testing::TestWithParam<GeomParam> {};

TEST_P(QueueGeometry, ConcurrentSumSurvives) {
  const auto p = GetParam();
  GravelQueue q(GravelQueueConfig{p.capacity, p.lanes, p.rows});
  std::atomic<bool> stopped{false};
  std::atomic<std::uint64_t> received{0};
  std::thread consumer([&] {
    GravelQueue::SlotRef r;
    std::uint64_t sum = 0;
    while (q.acquireRead(r, stopped)) {
      for (std::uint32_t l = 0; l < r.count; ++l)
        sum += q.wordAt(r, p.rows - 1, l);
      q.release(r);
    }
    received.store(sum);
  });
  std::uint64_t sent = 0, v = 1;
  for (int g = 0; g < 300; ++g) {
    const std::uint32_t count = 1 + (g % p.lanes);
    auto w = q.acquireWrite(count);
    for (std::uint32_t l = 0; l < count; ++l) {
      q.wordAt(w, p.rows - 1, l) = v;
      sent += v++;
    }
    q.publish(w);
  }
  stopped.store(true);
  consumer.join();
  EXPECT_EQ(received.load(), sent);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QueueGeometry,
    ::testing::Values(GeomParam{1 << 12, 1, 1}, GeomParam{1 << 12, 4, 4},
                      GeomParam{256, 16, 2},   // forced 2-slot ring
                      GeomParam{1 << 16, 256, 4}, GeomParam{1 << 12, 7, 3},
                      GeomParam{1 << 14, 64, 8}));

TEST(SpscQueue, CapacityFromBytes) {
  SpscQueue q(1024, 8);  // 8 B msg -> 64 B padded cell -> 16 cells
  EXPECT_EQ(q.capacity(), 16u);
}

TEST(SpscQueue, FifoOrder) {
  SpscQueue q(4096, sizeof(std::uint64_t));
  std::atomic<bool> stopped{false};
  std::thread consumer([&] {
    std::uint64_t v, expect = 0;
    while (q.pop(&v, stopped)) EXPECT_EQ(v, expect++);
    EXPECT_EQ(expect, 50000u);
  });
  for (std::uint64_t v = 0; v < 50000; ++v) q.push(&v);
  stopped.store(true);
  consumer.join();
}

TEST(SpscQueue, TryPopOnEmpty) {
  SpscQueue q(4096, 8);
  std::uint64_t v;
  EXPECT_FALSE(q.tryPop(&v));
  std::uint64_t in = 42;
  q.push(&in);
  ASSERT_TRUE(q.tryPop(&v));
  EXPECT_EQ(v, 42u);
}

TEST(MpmcQueue, StressPreservesMultiset) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;
  MpmcQueue q(1 << 12, sizeof(std::uint64_t));
  std::atomic<bool> stopped{false};
  std::mutex sinkMutex;
  std::map<std::uint64_t, int> received;

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::map<std::uint64_t, int> local;
      std::uint64_t v;
      while (q.pop(&v, stopped)) ++local[v];
      std::scoped_lock lk(sinkMutex);
      for (auto& [val, n] : local) received[val] += n;
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::uint64_t v = std::uint64_t(p) * kPerProducer + i;
        q.push(&v);
      }
    });
  }
  for (auto& t : producers) t.join();
  stopped.store(true);
  for (auto& t : consumers) t.join();

  std::uint64_t total = 0;
  for (auto& [v, n] : received) {
    EXPECT_EQ(n, 1) << "duplicate " << v;
    total += n;
  }
  EXPECT_EQ(total, std::uint64_t(kProducers) * kPerProducer);
}

// Parameterized padding property: every CPU-baseline cell is a whole number
// of cache lines regardless of message size (the §4.3 overhead argument).
class QueuePadding : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QueuePadding, SpscCellsAreLineMultiples) {
  const std::size_t msg = GetParam();
  SpscQueue q(1 << 16, msg);
  EXPECT_GE(q.capacity(), 2u);
  // capacity * padded cell must not exceed the requested bytes.
  EXPECT_LE(q.capacity() * linesFor(msg) * kCacheLineSize, std::size_t{1} << 16);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QueuePadding,
                         ::testing::Values(8, 16, 32, 64, 65, 128, 200, 1024));

}  // namespace
}  // namespace gravel
