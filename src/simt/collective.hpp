// The collective rendezvous used by work-group-level operations (paper §4.1)
// and their diverged variants (§5.2).
//
// A CollectiveSite is a reusable rendezvous point for a fixed *domain* of
// lanes (a whole work-group, or the registered members of a fine-grain
// barrier). Lanes arrive with an operation, a value and an active flag;
// the last lane to arrive computes the per-lane results and wakes the rest.
// Inactive lanes participate with the operation's non-interfering identity
// value, which is exactly the paper's software-predication contract: the
// result is as if only active lanes took part.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace gravel::simt {

enum class CollectiveOp : std::uint8_t {
  kBarrier,
  kReduceSum,
  kReduceMax,
  kReduceMin,
  kPrefixSumExclusive,
  kScratchAlloc,  ///< reduce-style arena reservation; see workgroup.hpp
};

/// Non-interfering identity submitted on behalf of inactive lanes (§5.2).
constexpr std::uint64_t identityFor(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kReduceMax:
      return 0;  // lane ids / sizes are unsigned; 0 never wins
    case CollectiveOp::kReduceMin:
      return std::numeric_limits<std::uint64_t>::max();
    default:
      return 0;
  }
}

/// Rendezvous state for one domain. Single-threaded: only the owning
/// device scheduler thread touches it.
class CollectiveSite {
 public:
  explicit CollectiveSite(std::uint32_t maxLanes)
      : submissions_(maxLanes), results_(maxLanes), activeFlags_(maxLanes) {}

  /// Records lane `lane`'s arrival. Returns true when this arrival completed
  /// the instance (caller then invokes complete()).
  bool arrive(std::uint32_t lane, CollectiveOp op, std::uint64_t value,
              bool active, std::uint32_t expected) {
    if (arrived_ == 0) {
      op_ = op;
    } else {
      GRAVEL_CHECK_MSG(op_ == op,
                       "lanes of one work-group reached different "
                       "collective operations (divergent misuse)");
    }
    submissions_[lane] = active ? value : identityFor(op);
    activeFlags_[lane] = active;
    ++arrived_;
    GRAVEL_CHECK_MSG(arrived_ <= expected, "collective over-subscribed");
    return arrived_ == expected;
  }

  /// True while an instance is in flight (some lanes arrived, not complete).
  bool inProgress() const noexcept { return arrived_ != 0; }
  /// Drops an instance left in flight by a work-group whose kernel threw.
  void abandon() noexcept { arrived_ = 0; }
  std::uint32_t arrivedCount() const noexcept { return arrived_; }
  std::uint64_t generation() const noexcept { return generation_; }
  CollectiveOp op() const noexcept { return op_; }

  /// Computes per-lane results over `lanes` (in lane order, which defines
  /// prefix-sum order), resets the instance, and bumps the generation so
  /// parked lanes resume.
  void complete(const std::vector<std::uint32_t>& lanes) {
    switch (op_) {
      case CollectiveOp::kBarrier:
        break;
      case CollectiveOp::kReduceSum: {
        std::uint64_t sum = 0;
        for (auto l : lanes) sum += submissions_[l];
        for (auto l : lanes) results_[l] = sum;
        break;
      }
      // kScratchAlloc reduces to the max requested size; WorkGroupState then
      // converts the max into an arena offset shared by the whole group.
      case CollectiveOp::kScratchAlloc:
      case CollectiveOp::kReduceMax: {
        std::uint64_t best = identityFor(op_);
        for (auto l : lanes) best = std::max(best, submissions_[l]);
        for (auto l : lanes) results_[l] = best;
        break;
      }
      case CollectiveOp::kReduceMin: {
        std::uint64_t best = identityFor(op_);
        for (auto l : lanes) best = std::min(best, submissions_[l]);
        for (auto l : lanes) results_[l] = best;
        break;
      }
      case CollectiveOp::kPrefixSumExclusive: {
        std::uint64_t running = 0;
        for (auto l : lanes) {
          results_[l] = running;
          running += submissions_[l];
        }
        break;
      }
    }
    arrived_ = 0;
    ++generation_;
  }

  std::uint64_t resultFor(std::uint32_t lane) const { return results_[lane]; }
  bool wasActive(std::uint32_t lane) const { return activeFlags_[lane] != 0; }

  /// Replaces the result of every lane in `lanes` (scratch allocation turns
  /// the reduced size into a shared arena offset after the fact).
  void overrideResults(const std::vector<std::uint32_t>& lanes,
                       std::uint64_t value) {
    for (auto l : lanes) results_[l] = value;
  }

 private:
  std::vector<std::uint64_t> submissions_;
  std::vector<std::uint64_t> results_;
  std::vector<std::uint8_t> activeFlags_;
  std::uint32_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  CollectiveOp op_ = CollectiveOp::kBarrier;
};

}  // namespace gravel::simt
