// Continuous profiling layer (DESIGN.md §15): where does each runtime
// thread actually spend its cycles?
//
// The sampled tracer (§7) and the latency engine (§10) are message-centric:
// they can name the slowest pipeline *stage* but not the thread-side cost
// structure behind it. The profiler answers the complementary question with
// region-tagged scoped timers: every runtime loop (aggregator slot loop,
// router flush, timer-wheel scan, network receive, reliable retransmit,
// pool pump, monitor tick) brackets its work in a ScopedRegion, and the
// per-thread accumulators attribute wall nanoseconds to the *path* of
// nested regions — a collapsed call stack, exportable straight into
// flamegraph.pl / speedscope via tools/profile_report.py.
//
// Concurrency shape (flight-recorder style, §10): each thread's accumulators
// live in its one observability context (trace.hpp), which the Tracer
// registers and names; the profiler adds no registration of its own.
// enter/exit touch only owner-written plain fields plus relaxed counters
// that a dumper may read concurrently, so there is no CAS, no RMW
// contention, and no locking anywhere on the record path.
//
// Disabled cost: ScopedRegion's constructor is one relaxed bool load and a
// predicted not-taken branch; the destructor tests a plain member. Nothing
// else runs. bench_fig8_queue_tput's profiled column guards the *enabled*
// overhead instead (within 3% of disabled at default settings).
//
// gravel-lint: hot-path
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/atomic.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gravel::obs {

/// The instrumented loops. Values are the bytes of the packed path key, so
/// kNone must stay 0 and everything real must fit in a byte.
enum class Region : std::uint8_t {
  kNone = 0,
  kAggSlot,        // aggregator: one queue slot end to end
  kAggRoute,       // SlotRouter::routeStaged under kAggSlot
  kAggFlush,       // router flush callback: batch seal + fabric send
  kAggTimerScan,   // timer-wheel expiry scan
  kNetRecv,        // network thread: receive + resolve block
  kRelRetransmit,  // reliable-layer poll: ack/retransmit scan
  kPoolPump,       // executor thread running several tasks: one round
  kMonitorTick,    // unified monitor thread: one duty tick
  kIdle,           // backoff/spin with no work claimed
  kBenchSlot,      // bench harness: produce/consume one slot (fig8)
  kCount
};

inline const char* regionName(Region r) noexcept {
  switch (r) {
    case Region::kNone: return "none";
    case Region::kAggSlot: return "agg.slot";
    case Region::kAggRoute: return "agg.route";
    case Region::kAggFlush: return "agg.flush";
    case Region::kAggTimerScan: return "agg.timer_scan";
    case Region::kNetRecv: return "net.recv";
    case Region::kRelRetransmit: return "rel.retransmit";
    case Region::kPoolPump: return "pool.pump";
    case Region::kMonitorTick: return "monitor.tick";
    case Region::kIdle: return "idle";
    case Region::kBenchSlot: return "bench.slot";
    case Region::kCount: break;
  }
  return "?";
}

struct ProfilerConfig {
  /// Master switch. Off by default: ScopedRegion then costs one relaxed
  /// load + one predicted branch and records nothing.
  bool enabled = false;
};

/// Per-thread cycle attribution over nested region paths, accumulated in
/// each thread's RegionTable (trace.hpp): self time (elapsed minus time
/// attributed to children) and entry counts per path; idle-leaf paths fund
/// the idle side of the duty-cycle split, everything else the busy side.
class Profiler {
 public:
  static constexpr int kMaxDepth = RegionTable::kMaxDepth;
  static constexpr int kMaxPaths = RegionTable::kMaxPaths;
  static constexpr std::uint64_t kKeyMask = 0xff;

  /// Profiles into `tracer`'s thread contexts, so a thread's row carries
  /// the name it gave Tracer::nameThread. The tracer must outlive this.
  Profiler(const ProfilerConfig& config, Tracer& tracer) : tracer_(tracer) {
    enabled_.store(config.enabled, std::memory_order_relaxed);
  }

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Flips recording. Regions already on a thread's stack when this turns
  /// on complete normally (their ScopedRegion was a no-op); new ones
  /// record.
  void setEnabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Opens a region on the calling thread's stack. Returns the table so
  /// ScopedRegion's destructor can close without a second TLS lookup.
  RegionTable* enter(Region r) {
    RegionTable& t = tracer_.context().regions;
    if (t.depth < kMaxDepth) {
      t.packed = (t.packed << 8) | std::uint64_t(r);
      t.slot_memo[t.depth] = findSlot(t, t.packed);
      t.child_ns[t.depth] = 0;
      t.start_ns[t.depth] = nowNs();
    } else {
      t.dropped.fetch_add(1, std::memory_order_relaxed);
    }
    ++t.depth;
    return &t;
  }

  /// Closes the innermost region: attributes self time (elapsed minus
  /// children) to the path slot and rolls elapsed up into the parent's
  /// child accumulator.
  static void exit(RegionTable* t) noexcept {
    --t->depth;
    if (t->depth >= kMaxDepth) return;  // was a depth-overflow push
    const std::uint64_t elapsed = nowNs() - t->start_ns[t->depth];
    const int slot = t->slot_memo[t->depth];
    if (slot >= 0) {
      const std::uint64_t self =
          elapsed >= t->child_ns[t->depth] ? elapsed - t->child_ns[t->depth]
                                           : 0;
      t->paths[slot].count.fetch_add(1, std::memory_order_relaxed);
      t->paths[slot].self_ns.fetch_add(self, std::memory_order_relaxed);
    } else {
      t->dropped.fetch_add(1, std::memory_order_relaxed);
    }
    t->packed >>= 8;
    if (t->depth > 0) t->child_ns[t->depth - 1] += elapsed;
  }

  /// One flattened accumulator row for dumpers.
  struct PathSample {
    int depth = 0;
    Region stack[kMaxDepth] = {};  // stack[0] is the outermost region
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
  };

  /// One thread's profile: name, duty split, and its path table.
  struct ThreadSample {
    std::string name;
    std::uint64_t busy_ns = 0;
    std::uint64_t idle_ns = 0;
    std::uint64_t dropped = 0;
    std::vector<PathSample> paths;
  };

  /// Copies the accumulators of every thread that has entered a region,
  /// oldest context first. Safe concurrent with writers: keys are
  /// acquire-read, totals are relaxed monotonic (a row may be one update
  /// stale).
  // gravel-analyze: cold — dump-time walker.
  std::vector<ThreadSample> sample() const {
    std::vector<ThreadSample> out;
    for (const ThreadContext* c : tracer_.contexts()) {
      const RegionTable& t = c->regions;
      ThreadSample s;
      s.dropped = t.dropped.load(std::memory_order_relaxed);
      for (const RegionTable::PathSlot& p : t.paths) {
        // pairs-with: prof.slotkey
        const std::uint64_t key = p.key.load(std::memory_order_acquire);
        if (key == 0) continue;
        PathSample row;
        row.count = p.count.load(std::memory_order_relaxed);
        row.self_ns = p.self_ns.load(std::memory_order_relaxed);
        row.depth = (64 - std::countl_zero(key) + 7) / 8;
        for (int level = 0; level < row.depth; ++level)
          row.stack[level] = Region(
              (key >> (8 * (row.depth - 1 - level))) & kKeyMask);
        const Region leaf = row.stack[row.depth - 1];
        (leaf == Region::kIdle ? s.idle_ns : s.busy_ns) += row.self_ns;
        s.paths.push_back(row);
      }
      // Every entered region claims a row or counts as dropped.
      if (s.paths.empty() && s.dropped == 0) continue;
      s.name = c->name();
      out.push_back(std::move(s));
    }
    return out;
  }

  static std::uint64_t nowNs() noexcept {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
  }

 private:
  /// Find-or-claim the accumulator row for a packed path. Only the owner
  /// thread writes keys into its own table, so the scan reads relaxed; the
  /// claiming store is release so a dumper that sees the key sees a fully
  /// constructed row. Returns -1 when the table is full (counted dropped).
  static int findSlot(RegionTable& t, std::uint64_t packed) noexcept {
    const std::uint64_t h = packed * 0x9e3779b97f4a7c15ull;
    const int start = int(h >> 58) & (kMaxPaths - 1);
    for (int probe = 0; probe < kMaxPaths; ++probe) {
      const int i = (start + probe) & (kMaxPaths - 1);
      const std::uint64_t key = t.paths[i].key.load(std::memory_order_relaxed);
      if (key == packed) return i;
      if (key == 0) {
        // pairs-with: prof.slotkey
        t.paths[i].key.store(packed, std::memory_order_release);
        return i;
      }
    }
    return -1;
  }

  Tracer& tracer_;
  atomic<bool> enabled_{false};
};

/// RAII region bracket. With the profiler off (or absent) the constructor
/// is one relaxed load + predicted branch and the destructor one plain
/// member test.
class ScopedRegion {
 public:
  ScopedRegion(Profiler* p, Region r) {
    if (p != nullptr && p->enabled()) t_ = p->enter(r);
  }
  ~ScopedRegion() {
    if (t_ != nullptr) Profiler::exit(t_);
  }

  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;

 private:
  RegionTable* t_ = nullptr;
};

/// Serializes the profiler plus the process-wide named-mutex contention
/// table as gravel_profile.json / the /profile endpoint:
///   {"kind": "gravel-profile", "schema_version": 1, "enabled": ...,
///    "now_ns": ..., "threads": [{"name", "busy_ns", "idle_ns", "duty",
///    "dropped", "paths": [{"stack": ["agg.slot", ...], "count",
///    "self_ns"}]}], "locks": [{"site", "acquisitions", "contended",
///    "wait_ns_total", "wait_p50_ns", "wait_p99_ns", "wait_hist": [...]}]}
// gravel-analyze: cold
inline void writeProfilerJson(std::ostream& os, const Profiler& prof,
                              std::uint64_t now_ns) {
  JsonWriter w(os);
  w.beginObject();
  w.kv("kind", "gravel-profile");
  w.kv("schema_version", std::uint64_t{1});
  w.kv("enabled", prof.enabled());
  w.kv("lock_profiling", lockprof::enabled());
  w.kv("now_ns", now_ns);
  w.key("threads").beginArray();
  for (const Profiler::ThreadSample& t : prof.sample()) {
    w.beginObject();
    w.kv("name", t.name);
    w.kv("busy_ns", t.busy_ns);
    w.kv("idle_ns", t.idle_ns);
    const std::uint64_t total = t.busy_ns + t.idle_ns;
    w.kv("duty", total == 0 ? 0.0 : double(t.busy_ns) / double(total));
    w.kv("dropped", t.dropped);
    w.key("paths").beginArray();
    for (const Profiler::PathSample& p : t.paths) {
      w.beginObject();
      w.key("stack").beginArray();
      for (int level = 0; level < p.depth; ++level)
        w.value(std::string(regionName(p.stack[level])));
      w.endArray();
      w.kv("count", p.count);
      w.kv("self_ns", p.self_ns);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.key("locks").beginArray();
  lockprof::forEachSite([&w](const lockprof::SiteSample& s) {
    w.beginObject();
    w.kv("site", s.name);
    w.kv("acquisitions", s.acquisitions);
    w.kv("contended", s.contended);
    w.kv("wait_ns_total", s.wait_ns_total);
    w.kv("wait_p50_ns", s.waitQuantileNs(0.50));
    w.kv("wait_p99_ns", s.waitQuantileNs(0.99));
    w.key("wait_hist").beginArray();
    int last = lockprof::kWaitBuckets;
    while (last > 0 && s.wait_hist[last - 1] == 0) --last;
    for (int i = 0; i < last; ++i) w.value(s.wait_hist[i]);
    w.endArray();
    w.endObject();
  });
  w.endArray();
  w.endObject();
}

}  // namespace gravel::obs
