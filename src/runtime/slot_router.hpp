// Slot-granularity message routing (the aggregator's hot path, paper §3.4).
//
// The paper's aggregator is Gravel's throughput bottleneck (§6, §8.1), and
// the original drain loop here made it worse than it had to be: every
// message took its destination buffer's mutex individually, so a hot slot
// paid up to `lanes` (256) lock acquisitions. The SlotRouter restructures
// the loop at slot granularity:
//
//   1. the whole slot is bulk-decoded (GravelQueue::copySlot — one
//      row-major sweep instead of rows x lanes strided reads) into a
//      per-routing-thread Staging area,
//   2. the staged messages are grouped into per-destination runs — plain
//      unlocked writes, the Staging is thread-local by construction,
//   3. the runs are sorted by shard and appended to the shared
//      per-destination buffers with ONE lock acquisition per *shard*
//      touched (<= one per distinct destination) per slot.
//
// Lock acquisitions per slot therefore never exceed the number of distinct
// destinations in the slot (<= min(lanes, nodes)); the bench harness
// records both and the regression check in bench/run_benches.py enforces
// the inequality. With shards >= nodes (every cluster up to the default 64
// shards) the mapping is 1:1 and locks == distinct destinations exactly.
//
// Scalability (DESIGN.md §14): the original router was O(N) per aggregator
// thread in both memory (N eagerly-reserved buffers, N staging runs) and
// time (checkTimeouts took all N locks per cadence tick) — fine at the
// paper's 8 nodes, fatal at the 65536 ClusterConfig admits. This version is
// a two-level tree:
//
//   per-thread Staging (O(lanes) scratch, open-addressed dest->run table)
//     -> per-shard combiner (fixed shard count, default 64)
//       -> lazy per-destination buffers (demand-paged on first touch;
//          cold destinations cost zero bytes and zero locks)
//
// plus a per-shard hashed timer wheel for the 125 us flush rule, so
// checkTimeouts() is O(armed-and-due) instead of O(N). A relaxed per-shard
// non-empty hint lets maintenance passes skip shards with no open buffers
// entirely (one-cadence staleness; never load-bearing for correctness —
// flushAll() and the stats accessors always take every shard lock).
//
// The router is deliberately free of threads, clocks-at-cadence, fabric and
// tracer dependencies so the model checker can drive it directly: all
// shared state lives in the per-shard Shards guarded by gravel::mutex
// (the verify shim arbitrates ownership under GRAVEL_VERIFY=1 — see
// tests/verify_scenarios.hpp slotRoutedAggregation for the bounded
// two-thread scenario over this exact lock discipline).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/atomic.hpp"
#include "common/error.hpp"
#include "queue/gravel_queue.hpp"
#include "runtime/message.hpp"

namespace gravel::rt {

class SlotRouter {
 public:
  /// Sink for a completed batch (buffer full, timed out, or force-flushed).
  /// Invoked with the destination's shard lock held, which is what keeps
  /// per-destination batch order identical to append order end-to-end.
  using FlushFn =
      std::function<void(std::uint32_t dst, std::vector<NetMessage>&& batch)>;

  /// Shards default to min(nodes, 64): enough that clusters at the paper's
  /// scale keep the historical one-lock-per-destination behaviour (shards
  /// == nodes -> dst % shards is injective), while 65536-node clusters pay
  /// a fixed 64-mutex footprint instead of 65536.
  static constexpr std::uint32_t kDefaultShards = 64;

  SlotRouter(std::uint32_t nodes, std::size_t capacityMsgs,
             std::chrono::steady_clock::duration flushTimeout, FlushFn flush,
             std::uint32_t shards = 0)
      : nodes_(nodes),
        capacityMsgs_(capacityMsgs),
        timeout_(flushTimeout),
        flush_(std::move(flush)),
        shardCount_(std::min(nodes, shards == 0 ? kDefaultShards : shards)) {
    GRAVEL_CHECK_MSG(nodes > 0, "router needs at least one destination");
    GRAVEL_CHECK_MSG(capacityMsgs_ > 0,
                     "per-destination buffer capacity must hold >= 1 message "
                     "(pernode_queue_bytes < sizeof(NetMessage)?)");
    // Timer-wheel resolution: timeout/8 (floor 1 ns) gives a 32-slot wheel
    // a horizon of 4x the timeout and bounds detection overshoot from tick
    // rounding at 12.5% of the timeout — well inside the "within a couple
    // of cadence ticks" contract checkTimeouts always had (DESIGN.md §14).
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout_).count();
    resolutionNs_ = std::max<std::int64_t>(1, ns / 8);
    const std::uint64_t nowTick = tickOf(std::chrono::steady_clock::now());
    shards_.reserve(shardCount_);
    for (std::uint32_t s = 0; s < shardCount_; ++s)
      shards_.push_back(std::make_unique<Shard>(nowTick));
  }

  SlotRouter(const SlotRouter&) = delete;
  SlotRouter& operator=(const SlotRouter&) = delete;

  /// Per-routing-thread scratch: the decoded slot plus per-destination run
  /// builders. Each routing thread owns exactly one — nothing in here is
  /// shared, so steps 1 and 2 above take no locks at all.
  ///
  /// Scratch is O(lanes), NOT O(nodes): a slot holds at most `lanes`
  /// messages, hence at most `lanes` distinct destinations, so runs are
  /// allocated per distinct-destination-this-slot and recycled, with an
  /// open-addressed generation-stamped table mapping dest -> run index.
  /// (The previous design kept one run vector per *node* — ~128 MiB of
  /// scratch per routing thread at 65536 nodes; test_scale pins the new
  /// invariant: residentBytes() must not scale with the node count.)
  class Staging {
   public:
    explicit Staging(std::uint32_t lanes)
        : reserve_(std::min(std::max(lanes, 1u), kRunReserveMsgs)) {
      decoded_.reserve(lanes);
      std::uint32_t cap = 8;
      while (cap < 2 * lanes) cap <<= 1;
      table_.assign(cap, TableSlot{});
      mask_ = cap - 1;
    }

    /// Bytes of scratch this staging currently holds (capacity, not size).
    /// The scale regression test routes the same slots at 64 and 65536
    /// nodes and asserts the same bytes.
    std::size_t residentBytes() const {
      std::size_t total = sizeof(*this);
      total += decoded_.capacity() * sizeof(NetMessage);
      for (const auto& r : runs_) total += r.capacity() * sizeof(NetMessage);
      total += runs_.capacity() * sizeof(std::vector<NetMessage>);
      total += runDest_.capacity() * sizeof(std::uint32_t);
      total += order_.capacity() * sizeof(std::uint32_t);
      total += table_.capacity() * sizeof(TableSlot);
      return total;
    }

   private:
    friend class SlotRouter;
    /// Messages each new run builder reserves up front (an allocation hint;
    /// runs grow past it).
    static constexpr std::uint32_t kRunReserveMsgs = 64;
    /// dest -> run-index map entry; `gen` stamps which slot it belongs to,
    /// so clearing the table between slots is a single counter bump.
    struct TableSlot {
      std::uint64_t gen = 0;
      std::uint32_t dest = 0;
      std::uint32_t run = 0;
    };
    std::vector<NetMessage> decoded_;            ///< one slot, bulk-decoded
    std::vector<std::vector<NetMessage>> runs_;  ///< recycled run builders
    std::vector<std::uint32_t> runDest_;         ///< dest of runs_[i]
    std::vector<std::uint32_t> order_;           ///< run indices, shard-sorted
    std::vector<TableSlot> table_;               ///< open-addressed dest map
    std::uint64_t gen_ = 0;
    std::uint32_t mask_ = 0;
    std::uint32_t live_ = 0;  ///< runs in use for the slot being routed
    std::uint32_t reserve_;
  };

  /// Step 1: bulk-decode `ref` into `st`. Returns a view of the decoded
  /// messages (valid until the next decode on the same Staging) so the
  /// caller can trace/inspect them lock-free before routing. The queue slot
  /// may be release()d as soon as this returns — the staging owns a copy.
  std::span<const NetMessage> decode(const GravelQueue& queue,
                                     const GravelQueue::SlotRef& ref,
                                     Staging& st) const {
    st.decoded_.resize(ref.count);
    queue.copySlot(ref, st.decoded_.data());
    return {st.decoded_.data(), st.decoded_.size()};
  }

  /// Steps 2+3: group the staged slot by destination, sort the runs by
  /// shard, and append each shard's runs under one lock acquisition.
  /// Returns the number of distinct destinations this slot touched (>= the
  /// lock acquisitions — equal when shards >= nodes).
  std::uint32_t routeStaged(Staging& st) {
    ++st.gen_;
    st.live_ = 0;
    for (const NetMessage& m : st.decoded_) {
      GRAVEL_CHECK_MSG(m.dest < nodes_,
                       "message destination out of range (corrupt slot?)");
      const auto dest = std::uint32_t(m.dest);
      std::uint32_t h = (dest * 2654435761u) & st.mask_;
      while (st.table_[h].gen == st.gen_ && st.table_[h].dest != dest)
        h = (h + 1) & st.mask_;
      if (st.table_[h].gen != st.gen_) {
        if (st.runs_.size() == st.live_) {
          st.runs_.emplace_back();
          st.runs_.back().reserve(st.reserve_);
          st.runDest_.push_back(0);
        }
        st.runs_[st.live_].clear();
        st.runDest_[st.live_] = dest;
        st.table_[h] = Staging::TableSlot{st.gen_, dest, st.live_};
        ++st.live_;
      }
      st.runs_[st.table_[h].run].push_back(m);
    }
    const std::uint32_t distinct = st.live_;
    if (distinct == 0) return 0;
    st.order_.resize(distinct);
    for (std::uint32_t i = 0; i < distinct; ++i) st.order_[i] = i;
    if (shardCount_ > 1 && distinct > 1)
      std::stable_sort(st.order_.begin(), st.order_.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return shardOf(st.runDest_[a]) <
                                shardOf(st.runDest_[b]);
                       });
    std::uint32_t i = 0;
    while (i < distinct) {
      const std::uint32_t s = shardOf(st.runDest_[st.order_[i]]);
      Shard& sh = *shards_[s];
      gravel::lock_guard lk(sh.mutex);
      ++sh.routeLocks;
      do {
        const std::uint32_t r = st.order_[i];
        appendRunLocked(sh, st.runDest_[r], st.runs_[r]);
        st.runs_[r].clear();
        ++i;
      } while (i < distinct && shardOf(st.runDest_[st.order_[i]]) == s);
    }
    return distinct;
  }

  /// Retire every buffer that has sat open past the flush timeout as of
  /// `now`. Safe from any thread; Aggregator::pump() calls it on an idle
  /// pass and at least every quarter flush timeout on a busy one, so flush
  /// latency stays bounded under sustained load (the paper's 125 us rule).
  ///
  /// O(expired), not O(N): each shard keeps a 32-slot hashed timer wheel of
  /// armed {dest, open-generation} entries, and shards with no open buffers
  /// are skipped outright via the relaxed non-empty hint (advisory: a
  /// stale-by-one-cadence read just defers the scan one tick; flushAll and
  /// quiet() never consult the hint).
  void checkTimeouts(std::chrono::steady_clock::time_point now) {
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      if (sh.nonemptyHint.load(std::memory_order_relaxed) == 0) continue;
      gravel::lock_guard lk(sh.mutex);
      expireLocked(sh, now);
    }
  }

  /// Force every partially-filled buffer out (quiet protocol / shutdown).
  /// Unconditionally takes every shard lock — correctness here must not
  /// depend on the advisory non-empty hint.
  void flushAll() {
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      gravel::lock_guard lk(sh.mutex);
      for (auto& [dst, b] : sh.buffers) flushLocked(sh, dst, b);
    }
  }

  std::uint32_t shardCount() const noexcept { return shardCount_; }

  /// Nonempty buffers with how long they have held messages — the stall
  /// watchdog's backpressure signal. A healthy aggregator never lets a
  /// buffer sit past the flush timeout, so a large age means the flush path
  /// is wedged. Sampler cadence only; shards with no open buffers are
  /// skipped (cold destinations were never allocated, so the sweep is
  /// O(resident), not O(N)).
  void sampleBufferAges(
      const std::function<void(std::uint32_t dst, std::uint64_t fill,
                               std::uint64_t age_ns)>& fn) {
    const auto now = std::chrono::steady_clock::now();
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      if (sh.nonemptyHint.load(std::memory_order_relaxed) == 0) continue;
      gravel::lock_guard lk(sh.mutex);
      for (auto& [dst, b] : sh.buffers) {
        const std::uint64_t fill = b.messages.size();
        if (fill == 0) continue;
        const auto age =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - b.openedAt)
                .count();
        fn(dst, fill,
           std::uint64_t(std::max<std::chrono::nanoseconds::rep>(age, 0)));
      }
    }
  }

  /// Routing-path lock acquisitions (one per touched shard per slot).
  /// Excludes maintenance locking (timeouts, flushAll, gauges) by design:
  /// the regression check compares this against destinations-per-slot.
  /// Sampler/stats cadence only — sums plain per-shard counters under
  /// their locks (shard count is fixed and small, never O(N)).
  std::uint64_t routeLockAcquisitions() {
    std::uint64_t total = 0;
    for (auto& shp : shards_) {
      gravel::lock_guard lk(shp->mutex);
      total += shp->routeLocks;
    }
    return total;
  }

  /// Timer-wheel entries examined by checkTimeouts so far — the evidence
  /// that timeout maintenance is O(expired): the old full-array scan did
  /// N * ticks work; this counter stays proportional to buffer-open events.
  std::uint64_t timeoutScanned() {
    std::uint64_t total = 0;
    for (auto& shp : shards_) {
      gravel::lock_guard lk(shp->mutex);
      total += shp->timeoutScanned;
    }
    return total;
  }

  /// Per-destination buffers demand-paged into existence so far (never
  /// freed while the router lives; resident set tracks traffic, not N).
  std::uint64_t lazyBuffers() {
    std::uint64_t total = 0;
    for (auto& shp : shards_) {
      gravel::lock_guard lk(shp->mutex);
      total += shp->buffers.size();
    }
    return total;
  }

  /// Bytes held by resident per-destination buffers (capacity, not fill).
  /// Cold destinations contribute zero — the scale sweep publishes this to
  /// prove per-thread memory is flat in N.
  std::size_t residentBufferBytes() {
    std::size_t total = 0;
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      gravel::lock_guard lk(sh.mutex);
      for (auto& [dst, b] : sh.buffers)
        total += sizeof(Buffer) + b.messages.capacity() * sizeof(NetMessage);
      for (const auto& bucket : sh.wheel)
        total += bucket.capacity() * sizeof(TimerEntry);
    }
    return total;
  }

 private:
  static constexpr std::uint32_t kWheelSlots = 32;

  /// One per-destination queue; lives in its shard's map, guarded by the
  /// shard's mutex (enforced on every helper via GRAVEL_REQUIRES(sh.mutex)).
  struct Buffer {
    std::vector<NetMessage> messages;
    std::chrono::steady_clock::time_point openedAt{};
    /// Bumped on every empty -> nonempty transition; timer-wheel entries
    /// capture it so a flushed-and-reopened buffer invalidates stale arms.
    std::uint64_t openGen = 0;
  };

  struct TimerEntry {
    std::uint32_t dst;
    std::uint64_t gen;      ///< Buffer::openGen at arm time
    std::uint64_t dueTick;  ///< absolute expiry tick (disambiguates laps)
  };

  /// Fixed-count combiner: multiple routing threads only contend when a
  /// slot routes to the same shard. Everything behind `mutex` is plain on
  /// purpose; the hint is the one atomic and is advisory-relaxed only.
  struct Shard {
    explicit Shard(std::uint64_t nowTick) : cursor(nowTick) {}
    gravel::mutex mutex{"SlotRouter::Shard::mutex"};
    std::unordered_map<std::uint32_t, Buffer> buffers GRAVEL_GUARDED_BY(mutex);
    std::array<std::vector<TimerEntry>, kWheelSlots> wheel
        GRAVEL_GUARDED_BY(mutex);
    std::uint64_t cursor GRAVEL_GUARDED_BY(mutex);  ///< last expired tick
    std::uint64_t routeLocks GRAVEL_GUARDED_BY(mutex) = 0;
    std::uint64_t timeoutScanned GRAVEL_GUARDED_BY(mutex) = 0;
    /// Open (nonempty) buffers in this shard. Relaxed on purpose: readers
    /// use it only to skip cold shards on maintenance cadences, where a
    /// one-cadence-stale zero is harmless; all writers hold `mutex`, so the
    /// count itself never drifts. No pairs-with tag — no ordering is
    /// published through it.
    gravel::atomic<std::uint32_t> nonemptyHint{0};
  };

  std::uint32_t shardOf(std::uint32_t dst) const noexcept {
    return dst % shardCount_;
  }

  std::uint64_t tickOf(std::chrono::steady_clock::time_point tp) const {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             tp.time_since_epoch())
                             .count() /
                         resolutionNs_);
  }

  /// Demand-page the buffer for `dst`. First touch of a destination is the
  /// cold path by definition — everything after the find() miss runs once
  /// per (router, destination) pair.
  Buffer& bufferFor(Shard& sh, std::uint32_t dst) GRAVEL_REQUIRES(sh.mutex) {
    auto it = sh.buffers.find(dst);
    if (it == sh.buffers.end()) {
      // gravel-analyze: cold
      it = sh.buffers.emplace(dst, Buffer{}).first;
    }
    return it->second;
  }

  /// Empty -> nonempty transition: stamp the open time, invalidate stale
  /// timer entries via the generation, arm the wheel, publish the hint.
  void openLocked(Shard& sh, std::uint32_t dst, Buffer& b)
      GRAVEL_REQUIRES(sh.mutex) {
    b.openedAt = std::chrono::steady_clock::now();
    ++b.openGen;
    armLocked(sh, dst, b, sh.cursor);
    sh.nonemptyHint.fetch_add(1, std::memory_order_relaxed);
  }

  /// Arm (or re-arm) the timeout for an open buffer. The bucket is always
  /// strictly after `floorTick` — re-inserting at or before the cursor
  /// would park the entry until the wheel wrapped a full lap.
  void armLocked(Shard& sh, std::uint32_t dst, const Buffer& b,
                 std::uint64_t floorTick) GRAVEL_REQUIRES(sh.mutex) {
    std::uint64_t due = tickOf(b.openedAt + timeout_);
    if (due <= floorTick) due = floorTick + 1;
    sh.wheel[due % kWheelSlots].push_back(TimerEntry{dst, b.openGen, due});
  }

  /// Advance the shard's wheel cursor to `now`, expiring due entries.
  /// Work is proportional to armed entries in the stepped buckets, i.e. to
  /// buffer-open events — never to the cluster size.
  void expireLocked(Shard& sh, std::chrono::steady_clock::time_point now)
      GRAVEL_REQUIRES(sh.mutex) {
    const std::uint64_t nowTick = tickOf(now);
    if (nowTick <= sh.cursor) return;
    // Stepping more than a full lap visits every bucket once; absolute
    // dueTicks keep colliding future-lap entries parked.
    const auto steps =
        std::min<std::uint64_t>(nowTick - sh.cursor, kWheelSlots);
    for (std::uint64_t i = 1; i <= steps; ++i) {
      auto& bucket = sh.wheel[(sh.cursor + i) % kWheelSlots];
      std::size_t keep = 0;
      for (std::size_t e = 0; e < bucket.size(); ++e) {
        const TimerEntry ent = bucket[e];
        ++sh.timeoutScanned;
        if (ent.dueTick > nowTick) {  // a later lap shares this bucket
          bucket[keep++] = ent;
          continue;
        }
        auto it = sh.buffers.find(ent.dst);
        if (it == sh.buffers.end() || it->second.openGen != ent.gen ||
            it->second.messages.empty())
          continue;  // stale arm: buffer was flushed (and maybe reopened)
        if (now - it->second.openedAt >= timeout_)
          flushLocked(sh, ent.dst, it->second);
        else
          // Tick rounding fired us up to one resolution early; push to the
          // true expiry bucket (strictly after nowTick, see armLocked).
          armLocked(sh, ent.dst, it->second, nowTick);
      }
      bucket.resize(keep);
    }
    sh.cursor = nowTick;
  }

  /// Append one slot's run for `dst` under the shard lock the caller
  /// already holds, flushing whenever the buffer reaches capacity mid-run.
  void appendRunLocked(Shard& sh, std::uint32_t dst,
                       std::vector<NetMessage>& run)
      GRAVEL_REQUIRES(sh.mutex) {
    Buffer& b = bufferFor(sh, dst);
    std::size_t consumed = 0;
    while (consumed < run.size()) {
      if (b.messages.empty()) openLocked(sh, dst, b);
      const std::size_t room = capacityMsgs_ - b.messages.size();
      const std::size_t take = std::min(room, run.size() - consumed);
      b.messages.insert(b.messages.end(), run.begin() + long(consumed),
                        run.begin() + long(consumed + take));
      consumed += take;
      if (b.messages.size() >= capacityMsgs_) flushLocked(sh, dst, b);
    }
  }

  // Caller holds the shard's mutex (compiler-enforced). The batch swap
  // deliberately leaves the buffer with zero capacity: resident bytes must
  // track live traffic, not high-water marks, for the flat-memory claim —
  // a hot destination re-grows geometrically within its next batch.
  void flushLocked(Shard& sh, std::uint32_t dst, Buffer& b)
      GRAVEL_REQUIRES(sh.mutex) {
    if (b.messages.empty()) return;
    std::vector<NetMessage> batch;
    batch.swap(b.messages);
    sh.nonemptyHint.fetch_sub(1, std::memory_order_relaxed);
    flush_(dst, std::move(batch));
  }

  std::uint32_t nodes_;
  std::size_t capacityMsgs_;
  std::chrono::steady_clock::duration timeout_;
  FlushFn flush_;
  std::uint32_t shardCount_;
  std::int64_t resolutionNs_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gravel::rt
