// Unit tests for src/common: cache-line math, RNG determinism and
// distribution sanity, counters/statistics, and the table printer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace gravel {
namespace {

TEST(CacheLine, LinesForRoundsUp) {
  EXPECT_EQ(linesFor(0), 0u);
  EXPECT_EQ(linesFor(1), 1u);
  EXPECT_EQ(linesFor(64), 1u);
  EXPECT_EQ(linesFor(65), 2u);
  EXPECT_EQ(linesFor(128), 2u);
  EXPECT_EQ(linesFor(129), 3u);
}

TEST(CacheLine, CacheAlignedOccupiesWholeLines) {
  EXPECT_EQ(sizeof(CacheAligned<std::uint8_t>), kCacheLineSize);
  EXPECT_EQ(alignof(CacheAligned<std::uint64_t>), kCacheLineSize);
  CacheAligned<int> x(7);
  EXPECT_EQ(*x, 7);
  *x = 9;
  EXPECT_EQ(*x, 9);
}

TEST(Error, CheckThrowsWithLocation) {
  try {
    GRAVEL_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kSamples / kBuckets * 0.9);
    EXPECT_LT(c, kSamples / kBuckets * 1.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stats, CounterAccumulatesAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.get(), 40000u);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(Stats, RunningStatTracksMoments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  RunningStat t;
  t.add(10.0);
  s.merge(t);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(Stats, EmptyRunningStatIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Stats, Pow2HistogramBuckets) {
  Pow2Histogram h;
  h.add(0);  // bucket 0
  h.add(1);  // [1,2) -> bucket 1
  h.add(2);  // [2,4) -> bucket 2
  h.add(3);
  h.add(1024);  // bucket 11
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);
}

TEST(Stats, CounterIsCacheLinePadded) {
  // Counters sit side by side in stats blocks; padding each to a full line
  // is what keeps concurrent add()s from false-sharing.
  static_assert(sizeof(Counter) == kCacheLineSize);
  static_assert(alignof(Counter) == kCacheLineSize);
  Counter c[2];
  const auto a0 = reinterpret_cast<std::uintptr_t>(&c[0]);
  const auto a1 = reinterpret_cast<std::uintptr_t>(&c[1]);
  EXPECT_EQ(a1 - a0, kCacheLineSize);
}

TEST(Stats, ShardedCounterSumsAcrossThreads) {
  ShardedCounter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.get(), 80000u);
  c.add(5);
  EXPECT_EQ(c.get(), 80005u);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(Stats, RunningStatMergeWithEmptySides) {
  RunningStat empty;
  RunningStat full;
  full.add(3.0);
  full.add(7.0);

  RunningStat a = full;
  a.merge(empty);  // empty right side: nothing changes
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);

  RunningStat b;
  b.merge(full);  // empty left side: adopts the other's moments
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
  EXPECT_DOUBLE_EQ(b.min(), 3.0);
  EXPECT_DOUBLE_EQ(b.max(), 7.0);

  RunningStat c;
  c.merge(empty);  // both empty: still reports zeros, not infinities
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.min(), 0.0);
  EXPECT_EQ(c.max(), 0.0);
}

TEST(Stats, Pow2HistogramEdgeCases) {
  Pow2Histogram h;
  h.add(0);  // zero has no leading bit: defined to land in bucket 0
  h.add(1);
  h.add((std::uint64_t(1) << 62));
  h.add(~std::uint64_t(0));  // 2^64-1: beyond kBuckets, saturates to the top
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  // 2^62 has bit index 62 -> raw bucket 63, clamped to kBuckets-1; the max
  // value clamps there too, so saturation accumulates rather than drops.
  EXPECT_EQ(h.bucket(Pow2Histogram::kBuckets - 1), 2u);
}

TEST(Stats, Pow2HistogramQuantileInterpolatesInsideBucket) {
  Pow2Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  for (int i = 0; i < 100; ++i) h.add(8);  // bucket [8,16)
  // All mass in one bucket: the estimate walks linearly across it.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 12.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 16.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Stats, Pow2HistogramQuantileIsMonotonicAcrossBuckets) {
  Pow2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(10);    // [8,16)
  for (int i = 0; i < 9; ++i) h.add(1000);   // [512,1024)
  h.add(100000);                             // [65536,131072)
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // p50 sits in the bulk bucket, p99 in the tail — the property the
  // latency bottleneck attribution depends on.
  EXPECT_LT(h.quantile(0.50), 16.0);
  EXPECT_GE(h.quantile(0.99), 512.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 131072.0);
}

TEST(Stats, Pow2HistogramQuantileWithAllMassInOverflowBucket) {
  // Saturated samples all clamp into the top bucket; the quantile estimate
  // must stay inside that bucket's [2^38, 2^39] span instead of walking off
  // the table or dividing by an empty prefix.
  Pow2Histogram h;
  for (int i = 0; i < 10; ++i) h.add(~std::uint64_t(0));
  const double lo = double(std::uint64_t(1) << (Pow2Histogram::kBuckets - 2));
  const double hi = double(std::uint64_t(1) << (Pow2Histogram::kBuckets - 1));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), lo);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), (lo + hi) / 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), hi);
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    EXPECT_GE(h.quantile(q), prev) << "q=" << q;
    prev = h.quantile(q);
  }
}

TEST(Stats, Pow2HistogramQuantileMatchesPythonReplica) {
  // tools/latency_report.py recomputes quantiles from exported bucket
  // arrays with a hand-replicated copy of Pow2Histogram::quantile. Feed the
  // Python side C++-computed expectations over distributions that cover
  // every branch (bucket 0, interpolation, multi-bucket walk, overflow
  // saturation) so the two implementations cannot drift silently.
  if (std::system("python3 -c \"import sys\" > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not available";

  Pow2Histogram bulk;  // the monotonic test's shape: bulk + tail
  for (int i = 0; i < 90; ++i) bulk.add(10);
  for (int i = 0; i < 9; ++i) bulk.add(1000);
  bulk.add(100000);
  Pow2Histogram zeros;  // mass split across bucket 0 and bucket 1
  for (int i = 0; i < 5; ++i) zeros.add(0);
  for (int i = 0; i < 5; ++i) zeros.add(1);
  Pow2Histogram overflow;  // everything saturates into the top bucket
  for (int i = 0; i < 7; ++i) overflow.add(~std::uint64_t(0));

  const double qs[] = {0.0, 0.25, 0.5, 0.9, 0.99, 1.0};
  const std::string path = ::testing::TempDir() + "pow2_parity_cases.json";
  std::ofstream os(path);
  ASSERT_TRUE(os.is_open());
  os << "{\"cases\":[";
  bool first = true;
  for (const Pow2Histogram* h : {&bulk, &zeros, &overflow}) {
    for (double q : qs) {
      if (!first) os << ",";
      first = false;
      os << "{\"buckets\":[";
      for (int b = 0; b < Pow2Histogram::kBuckets; ++b)
        os << (b ? "," : "") << h->bucket(b);
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", h->quantile(q));
      os << "],\"q\":" << q << ",\"expected\":" << num << "}";
    }
  }
  os << "]}";
  os.close();

  const std::string cmd = std::string("python3 \"") + GRAVEL_REPO_ROOT +
                          "/tools/latency_report.py\" --parity-check \"" +
                          path + "\" > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "Python quantile replica diverged from Pow2Histogram::quantile";
  std::remove(path.c_str());
}

TEST(Table, AlignsColumns) {
  TextTable t({"name", "value"});
  t.addRow({"x", "1"});
  t.addRow({"longer-name", "2.50"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Header and each row end in newline: 2 + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Units, LiteralsAndRates) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_DOUBLE_EQ(gbitsToBytesPerSec(56.0), 7e9);
}

}  // namespace
}  // namespace gravel
