#pragma once

#include <cstdint>

// Replacement global allocation functions for tests (counting_heap.cc).
// Linking that file into a test binary routes every `operator new`/`delete`
// form through malloc/posix_memalign/free; a ScopedHeapCount tallies the
// `operator new` calls and requested bytes made while it is alive.
namespace drrs {

struct HeapCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

/// Counts global `operator new` calls from construction to destruction.
/// One scope at a time; the count is single-threaded.
class ScopedHeapCount {
 public:
  ScopedHeapCount();
  ~ScopedHeapCount();
  ScopedHeapCount(const ScopedHeapCount&) = delete;
  ScopedHeapCount& operator=(const ScopedHeapCount&) = delete;

  /// Calls and bytes so far in this scope.
  HeapCount count() const;
};

}  // namespace drrs
