#include "simt/fiber.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/atomic.hpp"
#include "common/error.hpp"
#include "common/mapping.hpp"

// Stack switches must be announced to AddressSanitizer or its stack-bounds
// checks misfire on the foreign stack (google/sanitizers#189). These hooks
// compile to nothing without -fsanitize=address.
#if defined(__SANITIZE_ADDRESS__)
#define GRAVEL_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAVEL_ASAN_FIBERS 1
#endif
#endif
#ifndef GRAVEL_ASAN_FIBERS
#define GRAVEL_ASAN_FIBERS 0
#endif
#if GRAVEL_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

extern "C" {
/// Assembly switch in context.S: saves the current continuation into
/// *save_sp and resumes restore_sp.
void gravel_ctx_swap(void** save_sp, void* restore_sp);
/// Assembly entry shim; transfers control to gravel_fiber_trampoline with
/// the Fiber* as argument.
void gravel_ctx_entry();
}

namespace gravel::simt {

namespace {
/// Switching state of one OS thread. The scheduler stack's continuation and
/// bounds live here rather than in a fiber, so that whichever fiber holds
/// the thread can switch back to it.
struct ThreadContext {
  Fiber* current = nullptr;     // nullptr while on the scheduler stack
  Fiber* failed = nullptr;      // finished fiber whose entry threw
  void* schedulerSp = nullptr;  // scheduler continuation while a fiber runs
  // ASan bookkeeping (unused without -fsanitize=address): the scheduler
  // stack's bounds, destination of every switch back to it.
  const void* schedBottom = nullptr;
  std::size_t schedSize = 0;
};
thread_local ThreadContext tls;

// Wrap the ASan fiber API so every switch site reads the same with and
// without sanitizers. Protocol: the departing context calls startSwitch with
// the *destination* stack's bounds (nullptr fakeSave on a final exit frees
// the fake stack); the first statement executed after arriving calls a
// finishSwitch* with the fakeSave this context stashed before it left.
inline void startSwitch(void** fakeSave, const void* bottom,
                        std::size_t size) {
#if GRAVEL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fakeSave, bottom, size);
#else
  (void)fakeSave;
  (void)bottom;
  (void)size;
#endif
}

/// Arrival on the scheduler stack.
inline void finishSwitchOnScheduler(void* fakeSave) {
#if GRAVEL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fakeSave, nullptr, nullptr);
#else
  (void)fakeSave;
#endif
}

/// Arrival on a fiber stack, from the scheduler or from another fiber. The
/// first arrival on a thread necessarily comes from its scheduler stack, so
/// that is where the scheduler's bounds are learned; a fiber first entered
/// by a handoff must not mistake the previous fiber's stack for them.
inline void finishSwitchOnFiber(void* fakeSave) {
#if GRAVEL_ASAN_FIBERS
  if (tls.schedBottom == nullptr) {
    __sanitizer_finish_switch_fiber(fakeSave, &tls.schedBottom,
                                    &tls.schedSize);
  } else {
    __sanitizer_finish_switch_fiber(fakeSave, nullptr, nullptr);
  }
#else
  (void)fakeSave;
#endif
}
}  // namespace

// The entry path must stay un-instrumented. Under ASan the compiler deduces
// it never returns and would plant __asan_handle_no_return, which tries to
// unpoison "the thread stack" while running on the fiber's heap-allocated
// one. Under TSan its function-entry hooks are never matched by exits, so
// every lane run would leave stale frames on the thread's shadow call stack
// until that overflows.
#define GRAVEL_NO_SANITIZE __attribute__((no_sanitize("address", "thread")))

/// C++ side of the fiber entry path. Runs the entry, parks any exception
/// for the scheduler, and switches back to the scheduler for good. Never
/// returns.
GRAVEL_NO_SANITIZE void fiberTrampoline(Fiber* f) noexcept {
  finishSwitchOnFiber(nullptr);
  try {
    f->entry_(f->arg_);
  } catch (...) {
    f->pending_ = std::current_exception();
    tls.failed = f;
  }
  f->finished_ = true;
  tls.current = nullptr;
  // Final switch out; sp_ is dead after this (nullptr fakeSave tells ASan
  // to release this stack's fake frames).
  startSwitch(nullptr, tls.schedBottom, tls.schedSize);
  gravel_ctx_swap(&f->sp_, tls.schedulerSp);
  // Unreachable: a finished fiber is never resumed (resume() checks).
  std::terminate();
}

extern "C" GRAVEL_NO_SANITIZE void gravel_fiber_trampoline(void* f) {
  fiberTrampoline(static_cast<Fiber*>(f));
}

void Fiber::primeStack() {
  // Build the initial frame the assembly switch will pop:
  //   [r15][r14][r13][r12 = Fiber*][rbx][rbp][return addr = gravel_ctx_entry]
  // After the pops in gravel_ctx_swap, `ret` consumes the entry address and
  // leaves RSP 16-byte aligned at gravel_ctx_entry, whose `call` then
  // produces the standard rsp%16==8 at the trampoline entry.
  std::uintptr_t top =
      reinterpret_cast<std::uintptr_t>(stack_.data()) + stack_.size();
  top &= ~static_cast<std::uintptr_t>(15);  // align the stack top
  // Nine words below the aligned top: 7 frame words plus one spare so that
  // after the 6 pops and the `ret`, RSP % 16 == 0 at gravel_ctx_entry —
  // whose `call` then produces the SysV-required rsp%16==8 at the
  // trampoline entry.
  auto* frame = reinterpret_cast<void**>(top) - 9;
  frame[0] = nullptr;                                 // r15
  frame[1] = nullptr;                                 // r14
  frame[2] = nullptr;                                 // r13
  frame[3] = this;                                    // r12 -> Fiber*
  frame[4] = nullptr;                                 // rbx
  frame[5] = nullptr;                                 // rbp
  frame[6] = reinterpret_cast<void*>(&gravel_ctx_entry);  // ret target
  sp_ = frame;
}

void Fiber::reset(Entry entry, void* arg) {
  GRAVEL_CHECK_MSG(tls.current != this, "cannot reset the running fiber");
  entry_ = entry;
  arg_ = arg;
  pending_ = nullptr;
  started_ = false;
  finished_ = false;
}

void Fiber::resume() {
  Fiber* const from = tls.current;
  GRAVEL_CHECK_MSG(!finished_ && from != this,
                   "cannot resume a finished or running fiber");
  if (!started_) {
    primeStack();
    started_ = true;
  }
  tls.current = this;
  void* fakeSave = nullptr;
  startSwitch(&fakeSave, stack_.data(), stack_.size());
  gravel_ctx_swap(from != nullptr ? &from->sp_ : &tls.schedulerSp, sp_);
  // Back in the caller's context; whoever switched here set tls.current.
  if (from != nullptr) {
    finishSwitchOnFiber(fakeSave);
    return;
  }
  finishSwitchOnScheduler(fakeSave);
  if (Fiber* failed = std::exchange(tls.failed, nullptr))
    std::rethrow_exception(std::exchange(failed->pending_, nullptr));
}

void Fiber::yield() {
  GRAVEL_CHECK_MSG(tls.current == this, "yield() outside the fiber");
  tls.current = nullptr;
  void* fakeSave = nullptr;
  startSwitch(&fakeSave, tls.schedBottom, tls.schedSize);
  gravel_ctx_swap(&sp_, tls.schedulerSp);
  finishSwitchOnFiber(fakeSave);
}

Fiber* Fiber::current() noexcept { return tls.current; }

namespace {
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kColours = 64;      // cache lines per page
constexpr std::size_t kColourBytes = 64;  // one cache line

/// Distance between consecutive stacks of a block: the stack rounded up to
/// a page, plus the page that holds the largest colour offset.
std::size_t stackStride(std::size_t stackBytes) {
  return (stackBytes + kPageBytes - 1) / kPageBytes * kPageBytes + kPageBytes;
}

/// Stack blocks of destroyed pools, most recently released last. A fixed
/// array, so the cache has nothing to destroy at exit and a pool released
/// during static destruction still finds it.
class StackCache {
 public:
  struct Block {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
  };

  /// Removes and returns the most recently released block of `bytes`, or
  /// nullptr when none is cached.
  std::byte* take(std::size_t bytes) GRAVEL_EXCLUDES(mutex_) {
    gravel::lock_guard lk(mutex_);
    for (std::size_t i = count_; i-- > 0;) {
      if (blocks_[i].bytes != bytes) continue;
      std::byte* base = blocks_[i].base;
      std::copy(blocks_ + i + 1, blocks_ + count_, blocks_ + i);
      --count_;
      return base;
    }
    return nullptr;
  }

  /// Caches `block`. When the cache is full, returns the oldest block,
  /// which the caller unmaps; otherwise returns an empty Block.
  Block give(Block block) GRAVEL_EXCLUDES(mutex_) {
    gravel::lock_guard lk(mutex_);
    Block evicted;
    if (count_ == FiberPool::kCachedBlocks) {
      evicted = blocks_[0];
      std::copy(blocks_ + 1, blocks_ + count_, blocks_);
      --count_;
    }
    blocks_[count_++] = block;
    return evicted;
  }

  std::size_t size() GRAVEL_EXCLUDES(mutex_) {
    gravel::lock_guard lk(mutex_);
    return count_;
  }

 private:
  gravel::mutex mutex_{"StackCache::mutex_"};
  Block blocks_[FiberPool::kCachedBlocks] GRAVEL_GUARDED_BY(mutex_);
  std::size_t count_ GRAVEL_GUARDED_BY(mutex_) = 0;
};

StackCache& stackCache() {
  static StackCache cache;
  return cache;
}

/// Clears ASan's poison over a block; a no-op without ASan. A fiber
/// abandoned mid-kernel leaves its frames' redzones poisoned, and neither
/// the next pool on the block nor the next mapping at its address may
/// inherit them.
void unpoison(std::byte* base, std::size_t bytes) {
#if GRAVEL_ASAN_FIBERS
  ASAN_UNPOISON_MEMORY_REGION(base, bytes);
#else
  (void)base;
  (void)bytes;
#endif
}
}  // namespace

FiberPool::StackBlock::StackBlock(std::size_t bytes) : bytes_(bytes) {
  base_ = stackCache().take(bytes);
  if (base_ == nullptr) {
    // No per-stack guard pages: at 4096 nodes x 32 lanes their mprotect
    // splits would exceed vm.max_map_count.
    base_ = mapAnonymous(bytes, MAP_NORESERVE);
  }
  unpoison(base_, bytes_);
}

FiberPool::StackBlock::~StackBlock() {
  const StackCache::Block evicted = stackCache().give({base_, bytes_});
  if (evicted.base != nullptr) {
    unpoison(evicted.base, evicted.bytes);
    Unmap{evicted.bytes}(evicted.base);
  }
}

FiberPool::FiberPool(std::size_t count, std::size_t stackBytes)
    : block_(count * stackStride(stackBytes)) {
  const std::size_t stride = stackStride(stackBytes);
  fibers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    fibers_.push_back(std::make_unique<Fiber>(std::span<std::byte>(
        block_.data() + i * stride,
        stackBytes + (i % kColours) * kColourBytes)));
  }
}

std::size_t FiberPool::cachedBlocks() { return stackCache().size(); }

}  // namespace gravel::simt
