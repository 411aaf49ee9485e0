// In-process cluster fabric: the stand-in for the paper's MPI-over-InfiniBand
// transport (Table 3: 56 Gb/s link).
//
// Functionally, a "network message" here is what the paper sends: a flushed
// per-node queue — a batch of NetMessages bound for one destination. The
// fabric delivers batches to per-node inboxes and counts bytes/messages per
// link; the cost model in src/perf turns those counts into modeled time
// (serialization at 7 GB/s plus a per-message overhead), which is how the
// substitution preserves the aggregation economics the paper measures.
//
// `Fabric` is an interface with three implementations:
//   - PerfectFabric (this file): exactly-once, in-order, instant — the seed
//     behaviour every app/bench runs on by default.
//   - FaultyFabric (fault.hpp): perturbs batches between send() and
//     tryReceive() under a seeded FaultConfig (drop/dup/reorder/delay,
//     partition windows).
//   - ReliableFabric (reliable.hpp): seq/ack/retransmit/dedup sublayer that
//     restores exactly-once in-order delivery on top of either wire.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/atomic.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "runtime/message.hpp"

namespace gravel::net {

/// One in-flight batch (a flushed per-node queue). `seq` is the reliability
/// layer's per-link sequence number of the batch (0 on fabrics without one);
/// the receiver hands it back through markResolved() so cumulative ACKs are
/// emitted only after the payload has actually been applied.
struct Delivery {
  std::uint32_t src = 0;
  std::uint64_t seq = 0;
  std::vector<rt::NetMessage> messages;
  /// Link era the batch was admitted under (reliability layer; 0 elsewhere).
  /// markResolved() refuses to acknowledge a stale-era delivery after the
  /// circuit breaker re-synced the link.
  std::uint32_t era = 0;
};

/// Per-link traffic counters, readable after a run (Table 5, Figure 12-15
/// inputs). The reliability fields stay zero on fabrics without that layer.
struct LinkStats {
  std::uint64_t batches = 0;   ///< network messages (flushed queues)
  std::uint64_t messages = 0;  ///< Gravel messages carried
  std::uint64_t bytes = 0;     ///< payload bytes carried
  std::uint64_t retransmits = 0;  ///< sender-side timeout retransmissions
  std::uint64_t dup_drops = 0;    ///< receiver-side duplicates discarded
  std::uint64_t acks = 0;         ///< ACK parcels applied at the sender
};

/// Fault-injection counters (FaultyFabric); zero elsewhere.
struct FaultStats {
  std::uint64_t drops = 0;            ///< batches discarded at send()
  std::uint64_t duplicates = 0;       ///< extra copies enqueued
  std::uint64_t delays = 0;           ///< batches given a delivery delay
  std::uint64_t reorders = 0;         ///< batches inserted out of order
  std::uint64_t partition_drops = 0;  ///< drops due to a partition window
};

/// Reliability-sublayer counters (ReliableFabric); zero elsewhere.
/// Per-link retransmit/dup/ack counts live in LinkStats.
struct ReliabilityStats {
  std::uint64_t acks_sent = 0;      ///< standalone ACK batches emitted
  std::uint64_t reorder_drops = 0;  ///< out-of-window batches discarded
  std::uint64_t reorder_peak = 0;   ///< deepest receiver reorder buffer seen
  // Circuit breaker / degraded mode (zero under fail_fast).
  std::uint64_t breaker_trips = 0;     ///< links excised by the breaker
  std::uint64_t probes = 0;            ///< half-open probe batches sent
  std::uint64_t stale_data_drops = 0;  ///< stale-era data frames rejected
  std::uint64_t stale_ack_drops = 0;   ///< stale-era cumulative ACKs rejected
};

/// A link whose sender exhausted its retry budget: structured failure info
/// surfaced by quiet() instead of silent loss.
struct LinkFailureInfo {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t oldest_seq = 0;  ///< lowest unacknowledged sequence number
  std::uint32_t retries = 0;     ///< retransmissions attempted for it
};

class LinkFailureError : public Error {
 public:
  explicit LinkFailureError(const LinkFailureInfo& info)
      : Error("link " + std::to_string(info.src) + "->" +
              std::to_string(info.dst) + " failed: seq " +
              std::to_string(info.oldest_seq) + " unacknowledged after " +
              std::to_string(info.retries) + " retransmissions"),
        info_(info) {}
  const LinkFailureInfo& info() const noexcept { return info_; }

 private:
  LinkFailureInfo info_;
};

/// The cluster interconnect. Thread-safe: senders are aggregator threads and
/// the quiet protocol; receivers are per-node network threads.
class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual std::uint32_t nodes() const noexcept = 0;

  /// Ships a batch from `src` to `dst`. Empty batches are dropped.
  virtual void send(std::uint32_t src, std::uint32_t dst,
                    std::vector<rt::NetMessage>&& batch) = 0;

  /// Non-blocking receive for node `dst`.
  virtual bool tryReceive(std::uint32_t dst, Delivery& out) = 0;

  /// Called by node `self`'s network thread after resolving every message of
  /// `d`; completion tracking (the quiet protocol's condition) keys off this.
  virtual void markResolved(std::uint32_t self, const Delivery& d) = 0;

  /// Housekeeping hook driven by node `self`'s network thread while polling
  /// (the reliability layer retransmits timed-out batches here). No-op by
  /// default.
  virtual void poll(std::uint32_t self) { (void)self; }

  /// True when every message handed to send() has been resolved at its
  /// destination (and, with a reliability layer, acknowledged back).
  virtual bool quiescent() const = 0;

  /// Human-readable dump of whatever is still outstanding — per-link unacked
  /// sequence numbers, inbox depths — for the quiet-deadline diagnostic.
  virtual std::string describePending() const = 0;

  /// Latched failure from an exhausted retry budget, if any.
  virtual std::optional<LinkFailureInfo> failure() const { return {}; }

  /// Snapshot of one directed link (src -> dst).
  virtual LinkStats link(std::uint32_t src, std::uint32_t dst) const = 0;

  /// Visits every link that has carried (or retransmitted/acked) traffic.
  /// The default walks the full src x dst matrix via link() — O(N^2), fine
  /// for the dense fault/reliability fabrics that keep per-link state
  /// anyway. Sparse fabrics override it so stats collection at 4096+ nodes
  /// is O(links touched), not O(N^2) (DESIGN.md §14).
  virtual void forEachLink(
      const std::function<void(std::uint32_t src, std::uint32_t dst,
                               const LinkStats&)>& fn) const {
    const std::uint32_t n = nodes();
    for (std::uint32_t src = 0; src < n; ++src)
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        const LinkStats l = link(src, dst);
        if (l.batches == 0 && l.messages == 0 && l.retransmits == 0 &&
            l.dup_drops == 0 && l.acks == 0)
          continue;
        fn(src, dst, l);
      }
  }

  /// Aggregate over all links.
  virtual LinkStats total() const = 0;

  /// Distribution of network-message (batch) sizes in bytes — Table 5's
  /// "average message size" column is mean().
  virtual RunningStat batchSizeBytes() const = 0;

  virtual FaultStats faultStats() const { return {}; }
  virtual ReliabilityStats reliabilityStats() const { return {}; }

  /// Observability hook: when set, the wire records a kWireSend trace event
  /// for every sampled (trace-ID-stamped) message it accepts. Layered
  /// fabrics forward the tracer to the transport they wrap.
  virtual void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Batches handed to send() whose resolution (or acknowledgement) is
  /// still pending — the depth the quiet protocol waits on. Sampled by the
  /// observability gauge thread.
  virtual std::uint64_t pendingCount() const { return 0; }

 protected:
  /// Records wire-send events for every data message of `batch`, all
  /// stamped with one clock read; no-op without a tracer. Control frames
  /// (reliability headers/ACKs) carry no trace ID and are skipped, so an
  /// ACK-only batch reads no clock.
  void traceWireSend(std::uint32_t src, std::uint32_t dst,
                     const std::vector<rt::NetMessage>& batch) {
    // active(), not enabled(): the flight recorder sees every data message
    // crossing the wire (id 0 = unsampled); recordStage keeps unsampled
    // events out of the sampled buffers.
    if (!tracer_ || !tracer_->active()) return;
    std::optional<std::uint64_t> now;
    for (const rt::NetMessage& m : batch) {
      if (m.command() == rt::Command::kControl) continue;
      if (!now) now = tracer_->nowNs();
      tracer_->recordStage(*now, obs::Stage::kWireSend, m.traceId(),
                           std::uint16_t(src), std::uint16_t(dst), m.addr,
                           std::uint8_t(m.command()));
    }
  }

  obs::Tracer* tracer_ = nullptr;
};

/// Exactly-once, in-order, instant delivery — the seed transport.
class PerfectFabric : public Fabric {
 public:
  explicit PerfectFabric(std::uint32_t nodes)
      : nodes_(nodes), inboxes_(nodes) {}

  std::uint32_t nodes() const noexcept override { return nodes_; }

  void send(std::uint32_t src, std::uint32_t dst,
            std::vector<rt::NetMessage>&& batch) override {
    GRAVEL_CHECK_MSG(src < nodes_ && dst < nodes_, "bad fabric endpoint");
    if (batch.empty()) return;
    recordSend(src, dst, batch);
    inFlight_.fetch_add(batch.size(), std::memory_order_relaxed);
    enqueue(dst, Parcel{Delivery{src, 0, std::move(batch)}, {}});
  }

  bool tryReceive(std::uint32_t dst, Delivery& out) override {
    Inbox& inbox = inboxes_[dst];
    gravel::lock_guard lk(inbox.mutex);
    if (inbox.pending.empty()) return false;
    // Delayed parcels (FaultyFabric) are skipped until ready; everything the
    // perfect fabric enqueues is ready immediately.
    const auto now = std::chrono::steady_clock::now();
    for (auto it = inbox.pending.begin(); it != inbox.pending.end(); ++it) {
      if (it->readyAt > now) continue;
      out = std::move(it->delivery);
      inbox.pending.erase(it);
      return true;
    }
    return false;
  }

  /// quiet() waits for the in-flight count to hit zero.
  void markResolved(std::uint32_t self, const Delivery& d) override {
    (void)self;
    inFlight_.fetch_sub(d.messages.size(), std::memory_order_relaxed);
  }

  std::uint64_t inFlight() const noexcept {
    return inFlight_.load(std::memory_order_relaxed);
  }

  bool quiescent() const override { return inFlight() == 0; }

  std::uint64_t pendingCount() const override { return inFlight(); }

  std::string describePending() const override {
    std::ostringstream os;
    os << "wire: " << inFlight() << " message(s) in flight";
    for (std::uint32_t n = 0; n < nodes_; ++n) {
      Inbox& inbox = inboxes_[n];
      gravel::lock_guard lk(inbox.mutex);
      if (inbox.pending.empty()) continue;
      std::uint64_t msgs = 0;
      for (const Parcel& p : inbox.pending) msgs += p.delivery.messages.size();
      os << "; inbox[" << n << "]: " << inbox.pending.size() << " batch(es), "
         << msgs << " message(s)";
    }
    return os.str();
  }

  LinkStats link(std::uint32_t src, std::uint32_t dst) const override {
    gravel::lock_guard lk(linkMutex_);
    const auto it = links_.find(linkKey(src, dst));
    return it == links_.end() ? LinkStats{} : it->second;
  }

  /// Sparse: visits only links traffic actually crossed. Snapshots under
  /// the link mutex, then invokes `fn` outside it, so callbacks may call
  /// back into the fabric freely.
  void forEachLink(
      const std::function<void(std::uint32_t src, std::uint32_t dst,
                               const LinkStats&)>& fn) const override {
    std::vector<std::pair<std::uint64_t, LinkStats>> snapshot;
    {
      gravel::lock_guard lk(linkMutex_);
      snapshot.assign(links_.begin(), links_.end());
    }
    for (const auto& [key, l] : snapshot)
      fn(std::uint32_t(key >> 32), std::uint32_t(key & 0xffffffffu), l);
  }

  LinkStats total() const override {
    gravel::lock_guard lk(linkMutex_);
    LinkStats t;
    for (const auto& kv : links_) {
      t.batches += kv.second.batches;
      t.messages += kv.second.messages;
      t.bytes += kv.second.bytes;
    }
    return t;
  }

  RunningStat batchSizeBytes() const override {
    gravel::lock_guard lk(linkMutex_);
    return batchBytes_;
  }

 protected:
  /// One queued batch; readyAt delays visibility (FaultyFabric's delay
  /// injection). Default-constructed time_point == always ready.
  struct Parcel {
    Delivery delivery;
    std::chrono::steady_clock::time_point readyAt{};
  };

  void recordSend(std::uint32_t src, std::uint32_t dst,
                  const std::vector<rt::NetMessage>& batch) {
    traceWireSend(src, dst, batch);
    gravel::lock_guard lk(linkMutex_);
    LinkStats& link = links_[linkKey(src, dst)];
    ++link.batches;
    link.messages += batch.size();
    link.bytes += batch.size() * sizeof(rt::NetMessage);
    batchBytes_.add(double(batch.size() * sizeof(rt::NetMessage)));
  }

  /// Appends a parcel to `dst`'s inbox, `displace` positions before the tail
  /// (reorder injection; clamped to the current depth).
  void enqueue(std::uint32_t dst, Parcel&& parcel, std::size_t displace = 0) {
    Inbox& inbox = inboxes_[dst];
    gravel::lock_guard lk(inbox.mutex);
    if (displace > inbox.pending.size()) displace = inbox.pending.size();
    inbox.pending.insert(inbox.pending.end() - std::ptrdiff_t(displace),
                         std::move(parcel));
  }

  void addInFlight(std::uint64_t n) {
    inFlight_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  struct Inbox {
    gravel::mutex mutex{"PerfectFabric::Inbox::mutex"};
    std::deque<Parcel> pending GRAVEL_GUARDED_BY(mutex);
  };

  static std::uint64_t linkKey(std::uint32_t src, std::uint32_t dst) noexcept {
    return (std::uint64_t{src} << 32) | dst;
  }

  std::uint32_t nodes_;
  mutable std::vector<Inbox> inboxes_;
  mutable gravel::mutex linkMutex_{"PerfectFabric::linkMutex_"};
  /// Sparse on purpose: a dense N^2 LinkStats matrix is ~400 MiB at 65536
  /// nodes even when the traffic pattern touches a handful of links.
  std::unordered_map<std::uint64_t, LinkStats> links_
      GRAVEL_GUARDED_BY(linkMutex_);
  RunningStat batchBytes_ GRAVEL_GUARDED_BY(linkMutex_);
  atomic<std::uint64_t> inFlight_{0};
};

}  // namespace gravel::net
