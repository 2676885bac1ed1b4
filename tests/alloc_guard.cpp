// Counting global operator new/delete (see alloc_guard.h).  Linking this
// translation unit replaces the allocator for the whole binary.
#include "alloc_guard.h"

#include <atomic>
#include <cstdlib>
#include <execinfo.h>
#include <new>
#include <unistd.h>

// ASan/TSan/MSan install their own operator new/delete interceptors; a
// second global replacement in the same binary either collides at link
// time or hides allocations from the sanitizer runtime.  Under those
// sanitizers the counter stays at zero and the guard tests are skipped
// (alloc_guard_active() reports the state).  UBSan does not touch the
// allocator, so the guard stays live there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MDW_ALLOC_GUARD_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MDW_ALLOC_GUARD_DISABLED 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_new_calls{0};
std::atomic<std::uint64_t> g_new_bytes{0};
std::atomic<bool> g_trace{false};

void trace_alloc() {
  void* bt[24];
  const int n = backtrace(bt, 24);
  backtrace_symbols_fd(bt, n, 2);
  (void)!write(2, "----\n", 5);
}

void note_alloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  note_alloc(size);
  if (g_trace.load(std::memory_order_relaxed)) trace_alloc();
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  note_alloc(size);
  if (g_trace.load(std::memory_order_relaxed)) trace_alloc();
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size) != 0) {
    return nullptr;
  }
  return p;
}

} // namespace

namespace mdw::sim {
std::uint64_t alloc_guard_new_calls() {
  return g_new_calls.load(std::memory_order_relaxed);
}
std::uint64_t alloc_guard_new_bytes() {
  return g_new_bytes.load(std::memory_order_relaxed);
}
void alloc_guard_trace(bool on) {
  g_trace.store(on, std::memory_order_relaxed);
}
bool alloc_guard_active() {
#ifdef MDW_ALLOC_GUARD_DISABLED
  return false;
#else
  return true;
#endif
}
} // namespace mdw::sim

#ifndef MDW_ALLOC_GUARD_DISABLED

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // !MDW_ALLOC_GUARD_DISABLED
