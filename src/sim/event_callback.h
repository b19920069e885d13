#ifndef DRRS_SIM_EVENT_CALLBACK_H_
#define DRRS_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace drrs::sim {

/// Count of EventCallback constructions that had to heap-allocate because the
/// capture set exceeded the inline buffer. The engine's own hot-path events
/// (channel delivery, task scheduling) must keep this at zero; benchmarks and
/// tests assert on it.
uint64_t EventCallbackHeapFallbacks();

namespace internal {
inline uint64_t& HeapFallbackCounter() {
  static uint64_t counter = 0;
  return counter;
}
}  // namespace internal

/// \brief Move-only `void()` callable with small-buffer optimization.
///
/// The replacement for `std::function<void()>` in the event queue. Capture
/// sets up to `kInlineBytes` (sized for every scheduling site in the engine:
/// a couple of pointers plus a few words of arguments) are stored inline, so
/// scheduling an event performs no heap allocation. Larger captures fall back
/// to the heap and bump `EventCallbackHeapFallbacks()` — legal, but a perf
/// bug on a steady-state path.
///
/// Trivially-movable captures (the common `[this]` case) are relocated with
/// `memcpy` during heap sifts; only non-trivial inline captures pay for an
/// indirect relocate call.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); };
      if constexpr (!std::is_trivially_copyable_v<Fn>) {
        relocate_ = [](void* src, void* dst) {
          Fn* f = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*f));
          f->~Fn();
        };
      }
      if constexpr (!std::is_trivially_destructible_v<Fn>) {
        destroy_ = [](void* self) {
          std::launder(reinterpret_cast<Fn*>(self))->~Fn();
        };
      }
    } else {
      ++internal::HeapFallbackCounter();
      Fn* heap = new Fn(std::forward<F>(fn));
      std::memcpy(storage_, &heap, sizeof(heap));
      invoke_ = [](void* self) {
        Fn* f;
        std::memcpy(&f, self, sizeof(f));
        (*f)();
      };
      destroy_ = [](void* self) {
        Fn* f;
        std::memcpy(&f, self, sizeof(f));
        delete f;
      };
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void MoveFrom(EventCallback& other) noexcept {
    if (other.relocate_ != nullptr) {
      other.relocate_(other.storage_, storage_);
    } else {
      // Trivially relocatable capture (or a heap pointer): bytes carry over.
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  void Reset() noexcept {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  /// Non-null only for non-trivially-copyable inline captures; null means
  /// "relocate by memcpy" (heap fallbacks store just a pointer inline, so
  /// they relocate trivially too — `destroy_` owns the deletion).
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

inline uint64_t EventCallbackHeapFallbacks() {
  return internal::HeapFallbackCounter();
}

}  // namespace drrs::sim

#endif  // DRRS_SIM_EVENT_CALLBACK_H_
