// User-level fibers: each simulated GPU work-item runs on one fiber, so
// work-group collectives can suspend a lane mid-kernel and resume it when all
// participating lanes have arrived (see workgroup.hpp).
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <span>
#include <vector>

namespace gravel::simt {

/// One fiber = one suspendable call stack. Not thread-safe: a fiber is owned
/// and scheduled by exactly one OS thread (the per-device scheduler thread).
/// That thread's own stack is the *scheduler stack*; control moves from it
/// into a fiber, from fiber to fiber, and back to it.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Runs on `stack`, which the fiber's owner (a FiberPool) keeps mapped for
  /// the fiber's lifetime. Destroying a suspended (started, unfinished)
  /// fiber abandons whatever is on its stack, as reset() does.
  explicit Fiber(std::span<std::byte> stack) noexcept : stack_(stack) {}

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Arms the fiber to run `entry(arg)` from the top of its stack on the
  /// next resume(). Must not be the running fiber. A fiber left suspended
  /// (its scheduler gave up on it after an exception) is abandoned: whatever
  /// its stack holds is neither unwound nor destroyed.
  void reset(Entry entry, void* arg);

  /// Switches this thread to the fiber, from the scheduler stack or from
  /// inside another fiber (a handoff, which saves that fiber's continuation
  /// in place of the scheduler's). Returns when control next comes back to
  /// the caller's context. On the scheduler stack that is when any fiber
  /// yields or finishes; an exception that escaped a fiber's entry is
  /// rethrown here.
  void resume();

  /// Switches from inside this fiber back to the scheduler stack.
  void yield();

  bool finished() const noexcept { return finished_; }
  std::span<std::byte> stack() const noexcept { return stack_; }

  /// Fiber currently running on this thread, or nullptr when on the
  /// scheduler stack. Lets library spin-waits (queue acquire) yield the
  /// fiber instead of the OS thread.
  static Fiber* current() noexcept;

 private:
  friend void fiberTrampoline(Fiber* f) noexcept;
  void primeStack();

  std::span<std::byte> stack_;
  void* sp_ = nullptr;  // saved SP while suspended
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  std::exception_ptr pending_;  // escaped the entry, awaiting the scheduler
  bool started_ = false;
  bool finished_ = true;  // no entry yet
};

/// RAII pool of reusable fibers whose stacks share one anonymous mapping
/// (DESIGN.md §3, "Lane scheduler"). Fiber i's stack starts at
/// `i * stride` (stack size rounded up to a page, plus one page) and is
/// `(i % 64) * 64` bytes longer than requested, so consecutive lanes' stack
/// tops fall on distinct cache sets. A destroyed pool returns its mapping to
/// a process-wide cache of at most kCachedBlocks blocks, and the next pool
/// of the same size takes it back: a process that builds one cluster after
/// another runs every device on the same resident pages at the same
/// addresses instead of faulting in fresh stacks.
class FiberPool {
 public:
  /// Blocks the process-wide cache keeps mapped; a block released past
  /// that is unmapped (oldest first). At least the devices of one
  /// perfbench cluster, and far fewer than a 4096-node cluster has.
  static constexpr std::size_t kCachedBlocks = 16;

  FiberPool(std::size_t count, std::size_t stackBytes);

  std::size_t size() const noexcept { return fibers_.size(); }
  Fiber& at(std::size_t i) { return *fibers_[i]; }

  /// Blocks in the process-wide cache right now.
  static std::size_t cachedBlocks();

 private:
  /// The pool's mapping: taken from the cache (or mapped) on construction,
  /// returned to it on destruction.
  class StackBlock {
   public:
    explicit StackBlock(std::size_t bytes);
    ~StackBlock();
    StackBlock(const StackBlock&) = delete;
    StackBlock& operator=(const StackBlock&) = delete;
    std::byte* data() const noexcept { return base_; }

   private:
    std::byte* base_;
    std::size_t bytes_;
  };

  StackBlock block_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

}  // namespace gravel::simt
