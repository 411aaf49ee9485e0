// Lightweight instrumentation: counters and running statistics.
//
// The evaluation pipeline never times wall-clock for cluster-scale figures;
// it counts events (atomic RMWs, queue slots, per-destination bytes, remote
// vs. local accesses) during the functional run and feeds those counts to the
// cost model in src/perf. These types are that counting layer.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/atomic.hpp"
#include "common/cacheline.hpp"

namespace gravel {

/// A relaxed atomic counter. Relaxed is sufficient: counters are read only
/// after the threads that bump them have been joined.
///
/// Padded to a full cache line: counters sit next to each other in stats
/// blocks, and an unpadded array of them would put several hot atomics on
/// one line — every add() from a different thread then ping-pongs the line
/// (false sharing on the stats path).
class alignas(kCacheLineSize) Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  atomic<std::uint64_t> value_{0};
};

static_assert(sizeof(Counter) == kCacheLineSize);

/// A counter sharded across cache lines so concurrent writers (aggregator
/// worker threads bumping per-message counts) never contend on one line.
/// Each writer thread hashes to a fixed shard; get() sums all shards. The
/// default acquire/release pair makes a summed read at least as fresh as
/// any write that happened-before it — the property the quiet protocol's
/// slots-processed comparison relies on.
class ShardedCounter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1,
           std::memory_order order = std::memory_order_release) noexcept {
    shards_[shardIndex()].value.fetch_add(n, order);
  }

  std::uint64_t get(std::memory_order order =
                        std::memory_order_acquire) const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.value.load(order);
    return total;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    atomic<std::uint64_t> value{0};
  };

  static std::size_t shardIndex() noexcept {
    // One stable shard per thread; hashing the thread id spreads OS-assigned
    // ids (often sequential, often aligned) across the shard array.
    thread_local const std::size_t shard =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
    return shard;
  }

  Shard shards_[kShards];
};

/// Running mean/min/max/total over a stream of samples (e.g. flushed
/// per-node-queue sizes, which produce Table 5's "average message size").
class RunningStat {
 public:
  void add(double sample) noexcept {
    ++count_;
    sum_ += sample;
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  void merge(const RunningStat& o) noexcept {
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? sum_ / count_ : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two bucketed histogram (bucket i counts samples in
/// [2^i, 2^(i+1))), used for message-size distributions.
class Pow2Histogram {
 public:
  void add(std::uint64_t sample) noexcept {
    int bucket = sample == 0 ? 0 : 64 - std::countl_zero(sample);
    if (bucket >= kBuckets) bucket = kBuckets - 1;
    ++buckets_[bucket];
    ++total_;
  }
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t bucket(int i) const noexcept { return buckets_[i]; }
  static constexpr int kBuckets = 40;

  /// Estimated q-quantile (q in [0,1]): find the bucket where the
  /// cumulative count crosses q*total and interpolate linearly inside it.
  /// Bucket 0 holds exactly {0}; bucket i>=1 covers [2^(i-1), 2^i), so the
  /// estimate is within a factor of 2 of the true quantile — the right
  /// fidelity for "which pipeline stage dominates p99", and the same rule
  /// tools/latency_report.py applies to exported bucket arrays.
  double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * double(total_);
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      const double before = double(cum);
      cum += buckets_[i];
      if (double(cum) >= target) {
        const double lo = i == 0 ? 0.0 : double(std::uint64_t{1} << (i - 1));
        const double hi = i == 0 ? 1.0 : double(std::uint64_t{1} << i);
        const double frac = (target - before) / double(buckets_[i]);
        return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
      }
    }
    return double(std::uint64_t{1} << (kBuckets - 1));
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

}  // namespace gravel
