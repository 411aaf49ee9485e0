// Anonymous private mappings: zero-filled memory the kernel backs page by
// page on first touch, so a large reservation costs resident memory only
// where it is written. The symmetric heap, the fiber stack blocks and the
// tracer's sampled-event buffers all take their storage from here.
#pragma once

#include <cstddef>
#include <new>

#include <sys/mman.h>

namespace gravel {

/// Maps `bytes` (> 0) of zero-filled read/write memory; `flags` adds to
/// MAP_PRIVATE | MAP_ANONYMOUS (e.g. MAP_NORESERVE). Throws std::bad_alloc
/// when the kernel refuses.
inline std::byte* mapAnonymous(std::size_t bytes, int flags = 0) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | flags, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

/// Returns a mapAnonymous() region; usable as a std::unique_ptr deleter.
struct Unmap {
  std::size_t bytes;
  void operator()(void* p) const noexcept { ::munmap(p, bytes); }
};

}  // namespace gravel
