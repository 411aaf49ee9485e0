// The PGAS symmetric heap (paper §1, §6): every node holds a same-sized heap
// and symmetric allocations land at the same offset on every node, so a
// (node, offset) pair names any word in the cluster — the paper's "slice of
// A at the same virtual address on each node".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>

#include <sys/mman.h>

#include "common/error.hpp"

namespace gravel::rt {

/// A typed offset into every node's symmetric heap.
template <typename T>
struct SymAddr {
  std::uint64_t offset = 0;

  /// Byte offset of element `i`.
  std::uint64_t at(std::uint64_t i) const noexcept {
    return offset + i * sizeof(T);
  }
  template <typename U>
  SymAddr<U> cast() const noexcept {
    return SymAddr<U>{offset};
  }
};

/// One node's heap. Resolution of remote atomics happens on the node's
/// network thread while the local GPU reads/writes directly, so word accesses
/// go through std::atomic_ref.
///
/// The heap starts zeroed. Its storage is an anonymous mapping whose pages
/// the kernel zeroes on first touch, so a 64 MiB heap costs only the pages
/// an app writes. calloc does not promise that: when a freed region of the
/// malloc heap is large enough (a previous cluster's fiber stacks), it
/// serves the block from there and clears every byte of it.
class SymmetricHeap {
 public:
  explicit SymmetricHeap(std::size_t bytes)
      : storage_(map(bytes), Unmap{bytes}), size_(bytes) {}

  std::size_t size() const noexcept { return size_; }

  std::uint64_t loadU64(std::uint64_t offset) const {
    return ref(offset).load(std::memory_order_relaxed);
  }
  void storeU64(std::uint64_t offset, std::uint64_t value) {
    ref(offset).store(value, std::memory_order_relaxed);
  }
  std::uint64_t fetchAddU64(std::uint64_t offset, std::uint64_t delta) {
    return ref(offset).fetch_add(delta, std::memory_order_relaxed);
  }

  template <typename T>
  T load(SymAddr<T> addr, std::uint64_t i = 0) const {
    static_assert(sizeof(T) == 8, "heap access is 64-bit grain");
    std::uint64_t w = loadU64(addr.at(i));
    T out;
    std::memcpy(&out, &w, sizeof(T));
    return out;
  }
  template <typename T>
  void store(SymAddr<T> addr, std::uint64_t i, T value) {
    static_assert(sizeof(T) == 8, "heap access is 64-bit grain");
    std::uint64_t w;
    std::memcpy(&w, &value, sizeof(T));
    storeU64(addr.at(i), w);
  }

  /// Raw span for bulk host-side initialization.
  std::byte* data() noexcept { return storage_.get(); }
  const std::byte* data() const noexcept { return storage_.get(); }

 private:
  std::atomic_ref<std::uint64_t> ref(std::uint64_t offset) const {
    GRAVEL_CHECK_MSG(offset % 8 == 0, "unaligned 64-bit heap access");
    GRAVEL_CHECK_MSG(offset + 8 <= size_,
                     "symmetric heap access out of bounds");
    // atomic_ref needs a mutable lvalue; the heap is logically mutable even
    // through const handles (loads only read).
    return std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(storage_.get() + offset));
  }

  static std::byte* map(std::size_t bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<std::byte*>(p);
  }
  struct Unmap {
    std::size_t bytes;
    void operator()(std::byte* p) const noexcept { ::munmap(p, bytes); }
  };
  std::unique_ptr<std::byte[], Unmap> storage_;
  std::size_t size_;
};

/// The symmetric bump allocator shared by all nodes of a cluster; since all
/// nodes allocate through the same instance, offsets are symmetric by
/// construction.
class SymmetricAllocator {
 public:
  explicit SymmetricAllocator(std::size_t heapBytes) : heapBytes_(heapBytes) {}

  template <typename T>
  SymAddr<T> alloc(std::uint64_t count) {
    static_assert(sizeof(T) == 8, "symmetric allocations are 64-bit grain");
    const std::uint64_t bytes = count * sizeof(T);
    GRAVEL_CHECK_MSG(next_ + bytes <= heapBytes_, "symmetric heap exhausted");
    const std::uint64_t offset = next_;
    next_ += bytes;
    return SymAddr<T>{offset};
  }

  std::uint64_t used() const noexcept { return next_; }

 private:
  std::size_t heapBytes_;
  std::uint64_t next_ = 0;
};

}  // namespace gravel::rt
