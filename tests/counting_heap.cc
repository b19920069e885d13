#include "counting_heap.h"

#include <cstddef>
#include <cstdlib>
#include <new>

// Counting replacements for the global allocation functions: every form
// (plain, array, aligned, nothrow) requests through malloc/posix_memalign and
// releases through free, so sanitizer builds see matching pairs.
namespace {
bool g_counting = false;
drrs::HeapCount g_count;

void* CountedAlloc(size_t n, size_t align) noexcept {
  if (g_counting) {
    ++g_count.calls;
    g_count.bytes += n;
  }
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  return posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

void* CountedAllocOrThrow(size_t n, size_t align) {
  void* p = CountedAlloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

namespace drrs {

ScopedHeapCount::ScopedHeapCount() {
  g_count = HeapCount{};
  g_counting = true;
}

ScopedHeapCount::~ScopedHeapCount() { g_counting = false; }

HeapCount ScopedHeapCount::count() const { return g_count; }

}  // namespace drrs

void* operator new(size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new[](size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
