#ifndef DRRS_COMMON_ARENA_H_
#define DRRS_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

// Address-sanitizer poisoning of freed/unused arena regions: use-after-reset
// and use-after-free against the arena become hard ASan errors instead of
// silent corruption. No-ops in non-ASan builds.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DRRS_ARENA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define DRRS_ARENA_ASAN 1
#endif

#if defined(DRRS_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#define DRRS_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DRRS_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DRRS_ARENA_POISON(p, n) ((void)0)
#define DRRS_ARENA_UNPOISON(p, n) ((void)0)
#endif

namespace drrs {

/// \brief Bump-pointer arena with epoch reset and power-of-two block
/// recycling.
///
/// The data-plane allocator: channel queue storage, wire batch buffers and
/// event-callback boxes all draw from an arena instead of the global heap,
/// so the steady-state record path performs no malloc/free at all. Two
/// allocation styles:
///
///  * `Allocate(bytes)` — plain bump allocation, reclaimed only by `Reset()`.
///  * `AllocateBlock(bytes)` / `FreeBlock(...)` — power-of-two size-class
///    blocks with per-class freelists; containers that grow (ring deques)
///    return their old storage for reuse by any other container on the same
///    arena.
///
/// `Reset()` starts a new *epoch*: every chunk is rewound, all freelists are
/// dropped and the whole arena is ASan-poisoned. Pointers from a previous
/// epoch must not be dereferenced; under ASan they trap. Single-threaded by
/// design, like the simulator that owns it.
class Arena {
 public:
  explicit Arena(size_t first_chunk_bytes = kDefaultChunkBytes)
      : first_chunk_bytes_(RoundUpPow2(
            first_chunk_bytes < kMinChunkBytes ? kMinChunkBytes
                                               : first_chunk_bytes)) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (Chunk& c : chunks_) {
      (void)c;  // referenced only when poisoning is compiled in
      DRRS_ARENA_UNPOISON(c.mem.get(), c.cap);
    }
  }

  /// Bump-allocate `bytes` aligned to `align` (power of two). Never freed
  /// individually; reclaimed wholesale by Reset().
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    while (true) {
      if (cur_ < chunks_.size()) {
        Chunk& c = chunks_[cur_];
        size_t aligned = (c.used + (align - 1)) & ~(align - 1);
        if (aligned + bytes <= c.cap) {
          c.used = aligned + bytes;
          bytes_live_ += bytes;
          char* p = c.mem.get() + aligned;
          DRRS_ARENA_UNPOISON(p, bytes);
          return p;
        }
        // Current chunk exhausted; fall through to the next (or a new) one.
        ++cur_;
        continue;
      }
      AddChunk(bytes + align);
    }
  }

  /// Allocate a recyclable block of at least `bytes`, rounded up to a
  /// power-of-two size class. Pair with FreeBlock for reuse.
  void* AllocateBlock(size_t bytes) {
    size_t cls = SizeClass(bytes);
    if (FreeNode* n = free_lists_[cls]) {
      free_lists_[cls] = n->next;
      DRRS_ARENA_UNPOISON(n, size_t{1} << cls);
      return n;
    }
    return Allocate(size_t{1} << cls, kBlockAlign);
  }

  /// Return a block obtained from AllocateBlock (same `bytes`) to its
  /// size-class freelist. The block's interior is poisoned until reuse.
  void FreeBlock(void* p, size_t bytes) {
    if (p == nullptr) return;
    size_t cls = SizeClass(bytes);
    FreeNode* n = static_cast<FreeNode*>(p);
    n->next = free_lists_[cls];
    free_lists_[cls] = n;
    // Keep the link word readable; poison the rest of the block.
    DRRS_ARENA_POISON(static_cast<char*>(p) + sizeof(FreeNode),
                      (size_t{1} << cls) - sizeof(FreeNode));
  }

  /// Start a new epoch: rewind every chunk, drop all freelists, poison the
  /// whole arena. All pointers handed out in previous epochs are dead.
  void Reset() {
    ++epoch_;
    bytes_live_ = 0;
    for (FreeNode*& head : free_lists_) head = nullptr;
    for (Chunk& c : chunks_) {
      c.used = 0;
      DRRS_ARENA_POISON(c.mem.get(), c.cap);
    }
    cur_ = 0;
  }

  /// Monotonic reset counter; containers can assert they do not outlive the
  /// epoch their storage came from.
  uint64_t epoch() const { return epoch_; }

  /// Bytes currently handed out (bump-allocated and not yet Reset).
  size_t bytes_live() const { return bytes_live_; }
  /// Total bytes reserved from the OS across all chunks.
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.cap;
    return total;
  }

  static constexpr size_t kDefaultChunkBytes = size_t{1} << 16;

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct Chunk {
    std::unique_ptr<char[]> mem;
    size_t cap = 0;
    size_t used = 0;
  };

  static constexpr size_t kMinChunkBytes = 1024;
  static constexpr size_t kBlockAlign = alignof(std::max_align_t);
  static constexpr size_t kMinBlockClass = 6;  // 64 bytes: fits a FreeNode
  static constexpr size_t kNumClasses = 40;

  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  static size_t SizeClass(size_t bytes) {
    size_t cls = kMinBlockClass;
    while ((size_t{1} << cls) < bytes) ++cls;
    return cls;
  }

  void AddChunk(size_t at_least) {
    size_t cap = chunks_.empty() ? first_chunk_bytes_
                                 : chunks_.back().cap * 2;
    while (cap < at_least) cap *= 2;
    Chunk c;
    c.mem = std::make_unique<char[]>(cap);
    c.cap = cap;
    DRRS_ARENA_POISON(c.mem.get(), cap);
    cur_ = chunks_.size();
    chunks_.push_back(std::move(c));
  }

  size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t cur_ = 0;
  uint64_t epoch_ = 0;
  size_t bytes_live_ = 0;
  FreeNode* free_lists_[kNumClasses] = {};
};

/// \brief Typed freelist over an Arena: O(1) allocation-free New/Delete for
/// fixed-size objects (event-callback boxes).
///
/// Freed slots are ASan-poisoned (minus the freelist link) until reuse;
/// Arena::Reset() invalidates every outstanding object, so pools must be
/// re-created (or simply not used again) after a reset of their arena.
template <typename T>
class Pool {
 public:
  explicit Pool(Arena* arena) : arena_(arena) {}

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  template <typename... Args>
  T* New(Args&&... args) {
    void* slot;
    if (free_ != nullptr) {
      slot = free_;
      free_ = free_->next;
      DRRS_ARENA_UNPOISON(slot, kSlotBytes);
    } else {
      slot = arena_->Allocate(kSlotBytes, alignof(T));
    }
    return ::new (slot) T(std::forward<Args>(args)...);
  }

  void Delete(T* obj) {
    if (obj == nullptr) return;
    obj->~T();
    Link* link = reinterpret_cast<Link*>(obj);
    link->next = free_;
    free_ = link;
    DRRS_ARENA_POISON(reinterpret_cast<char*>(obj) + sizeof(Link),
                      kSlotBytes - sizeof(Link));
  }

 private:
  struct Link {
    Link* next;
  };
  static constexpr size_t kSlotBytes =
      sizeof(T) < sizeof(Link) ? sizeof(Link) : sizeof(T);

  Arena* arena_;
  Link* free_ = nullptr;
};

}  // namespace drrs

#endif  // DRRS_COMMON_ARENA_H_
