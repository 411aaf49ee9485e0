// CPU-baseline single-producer/single-consumer bounded queue (paper §4.3,
// "CPU-only SPSC" series in Figure 8).
//
// This is the textbook bounded-array design: a padded write index, a padded
// read index, and one padded payload cell per message. The padding avoids
// false sharing between producer and consumer, but it is exactly why small
// messages are expensive — an 8-byte send touches three cache lines (read
// index, write index, payload line), which Figure 8 contrasts against
// Gravel's half-byte-per-message amortized overhead.
//
// Model-checked under GRAVEL_VERIFY (tests/test_verify.cpp): wraparound,
// full/empty boundaries, and the acquire/release pairing on both indices.
//
// gravel-lint: hot-path
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/atomic.hpp"
#include "common/cacheline.hpp"
#include "common/error.hpp"

namespace gravel {

/// Bounded SPSC byte-message queue. `messageBytes` is fixed at construction;
/// each cell is padded to a whole number of cache lines.
class SpscQueue {
 public:
  SpscQueue(std::size_t capacityBytes, std::size_t messageBytes)
      : messageBytes_(messageBytes),
        cellBytes_(linesFor(messageBytes) * kCacheLineSize),
        capacity_(std::max<std::size_t>(2, capacityBytes / cellBytes_)),
        payload_(capacity_ * cellBytes_) {
    GRAVEL_CHECK_MSG(messageBytes > 0, "message size must be nonzero");
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t messageBytes() const noexcept { return messageBytes_; }

  /// Blocking push of one message (spins while full).
  void push(const void* msg) {
    const std::uint64_t wr = writeIdx_.value.load(std::memory_order_relaxed);
    // Acquire pairs with tryPop's readIdx release: the consumer's reads of
    // the cell we are about to overwrite happened-before this overwrite.
    // pairs-with: spsc.read-idx
    while (wr - readIdx_.value.load(std::memory_order_acquire) >= capacity_) {
      verify::spinYield();
    }
    std::byte* c = cell(wr);
    verify::dataStore(c);
    std::memcpy(c, msg, messageBytes_);
    // Release pairs with tryPop's writeIdx acquire: the payload copy above
    // is visible to the consumer that observes wr + 1.
    writeIdx_.value.store(wr + 1, std::memory_order_release);  // pairs-with: spsc.write-idx
  }

  /// Non-blocking pop; returns false when empty.
  bool tryPop(void* msg) {
    const std::uint64_t rd = readIdx_.value.load(std::memory_order_relaxed);
    // pairs-with: spsc.write-idx
    if (rd >= writeIdx_.value.load(std::memory_order_acquire)) return false;
    const std::byte* c = cell(rd);
    verify::dataLoad(c);
    std::memcpy(msg, c, messageBytes_);
    // Release pairs with push's readIdx acquire: our cell read completes
    // before the producer may reuse the cell.
    readIdx_.value.store(rd + 1, std::memory_order_release);  // pairs-with: spsc.read-idx
    return true;
  }

  /// Blocking pop; returns false only when empty AND `stopped`.
  bool pop(void* msg, const atomic<bool>& stopped) {
    while (!tryPop(msg)) {
      if (stopped.load(std::memory_order_acquire)) {
        // Re-check after observing stop so no published message is lost.
        return tryPop(msg);
      }
      verify::spinYield();
    }
    return true;
  }

#if defined(GRAVEL_VERIFY) && GRAVEL_VERIFY
  std::uint64_t peekWriteIdx() const noexcept { return writeIdx_.value.peek(); }
  std::uint64_t peekReadIdx() const noexcept { return readIdx_.value.peek(); }
#endif

 private:
  std::byte* cell(std::uint64_t idx) noexcept {
    return payload_.data() + (idx % capacity_) * cellBytes_;
  }
  const std::byte* cell(std::uint64_t idx) const noexcept {
    return payload_.data() + (idx % capacity_) * cellBytes_;
  }

  std::size_t messageBytes_;
  std::size_t cellBytes_;
  std::size_t capacity_;
  std::vector<std::byte> payload_;
  CacheAligned<atomic<std::uint64_t>> writeIdx_{};
  CacheAligned<atomic<std::uint64_t>> readIdx_{};
};

}  // namespace gravel

// gravel-lint: hot-path — lock-free; no mutexes, sleeps, or raw yields.
// (Marker kept at end of file: the memory-order mutation matrix in
// tests/test_verify_mutation.cpp pins line numbers in this header.)
