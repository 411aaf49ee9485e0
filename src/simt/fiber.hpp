// User-level fibers: each simulated GPU work-item runs on one fiber, so
// work-group collectives can suspend a lane mid-kernel and resume it when all
// participating lanes have arrived (see workgroup.hpp).
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <vector>

namespace gravel::simt {

/// One fiber = one suspendable call stack. Not thread-safe: a fiber is owned
/// and scheduled by exactly one OS thread (the per-device scheduler thread).
/// That thread's own stack is the *scheduler stack*; control moves from it
/// into a fiber, from fiber to fiber, and back to it.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// `stackBytes` is per-fiber; SIMT kernels are shallow, 64 KiB default.
  explicit Fiber(std::size_t stackBytes = 64 * 1024);
  ~Fiber();

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

  /// Fiber currently running on this thread, or nullptr when on the
  /// scheduler stack. Lets library spin-waits (queue acquire) yield the
  /// fiber instead of the OS thread.
  static Fiber* current() noexcept;

 private:
  friend void fiberTrampoline(Fiber* f) noexcept;
  void primeStack();

  std::unique_ptr<std::byte[]> stack_;
  std::size_t stackBytes_;
  void* sp_ = nullptr;  // saved SP while suspended
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  std::exception_ptr pending_;  // escaped the entry, awaiting the scheduler
  bool started_ = false;
  bool finished_ = true;  // no entry yet
};

/// RAII pool of reusable fibers (stacks are the expensive part).
class FiberPool {
 public:
  FiberPool(std::size_t count, std::size_t stackBytes) {
    fibers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      fibers_.push_back(std::make_unique<Fiber>(stackBytes));
  }

  std::size_t size() const noexcept { return fibers_.size(); }
  Fiber& at(std::size_t i) { return *fibers_[i]; }

 private:
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

}  // namespace gravel::simt
