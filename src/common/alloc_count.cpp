#include "common/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <execinfo.h>
#include <unistd.h>

namespace linbound {
namespace {

// Relaxed is enough: the counter and the trap flag order nothing, and the
// readers below are same-thread with the allocations they bracket (run
// segments are serial).
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_trap{false};

}  // namespace

bool alloc_counting_enabled() {
#ifdef COUNT_ALLOCS
  return true;
#else
  return false;
#endif
}

std::uint64_t heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }
void set_alloc_trap(bool on) { g_trap.store(on, std::memory_order_relaxed); }

}  // namespace linbound

#ifdef COUNT_ALLOCS

namespace {

void* counted_alloc(std::size_t size) {
  if (linbound::g_trap.load(std::memory_order_relaxed)) {
    void* frames[32];
    const int n = backtrace(frames, 32);
    backtrace_symbols_fd(frames, n, STDERR_FILENO);
    _exit(42);
  }
  linbound::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  linbound::g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded ? padded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // COUNT_ALLOCS
