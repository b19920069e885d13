#ifndef DRRS_COMMON_RING_DEQUE_H_
#define DRRS_COMMON_RING_DEQUE_H_

#include <cstddef>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

namespace drrs {

/// \brief Indexable double-ended queue over a power-of-two heap ring.
///
/// The channel-queue container: replaces `std::deque<StreamElement>`, whose
/// block churn accounted for the residual ~0.5 heap allocations per record on
/// the channel path. push/pop at both ends are O(1). The ring never shrinks:
/// once grown to the working-set size it reuses its heap buffer, so
/// steady-state traffic performs no malloc at all.
///
/// Middle insert/erase (barrier splicing, record scheduling) shift the
/// shorter side and stay O(n) like the deque they replace. Indexing is O(1).
/// Growth moves every element into a new buffer and middle insert/erase
/// shift elements, so a reference into the ring must not be held across
/// either.
template <typename T>
class RingDeque {
 public:
  RingDeque() = default;

  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;

  RingDeque(RingDeque&& other) noexcept { MoveFrom(other); }
  RingDeque& operator=(RingDeque&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }

  ~RingDeque() { Destroy(); }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  size_t capacity() const { return cap_; }

  T& operator[](size_t i) { return *Slot(i); }
  const T& operator[](size_t i) const { return *Slot(i); }

  T& front() { return *Slot(0); }
  const T& front() const { return *Slot(0); }
  T& back() { return *Slot(count_ - 1); }
  const T& back() const { return *Slot(count_ - 1); }

  void push_back(T value) {
    if (count_ == cap_) Grow();
    ::new (static_cast<void*>(slots_ + ((head_ + count_) & mask_)))
        T(std::move(value));
    ++count_;
  }

  void push_front(T value) {
    if (count_ == cap_) Grow();
    head_ = (head_ + cap_ - 1) & mask_;
    ::new (static_cast<void*>(slots_ + head_)) T(std::move(value));
    ++count_;
  }

  void pop_front() {
    Slot(0)->~T();
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void pop_back() {
    Slot(count_ - 1)->~T();
    --count_;
  }

  /// Insert before position `pos` (so insert(size(), v) == push_back).
  /// Shifts whichever side is shorter.
  void insert(size_t pos, T value) {
    if (pos == count_) {
      push_back(std::move(value));
      return;
    }
    if (pos == 0) {
      push_front(std::move(value));
      return;
    }
    if (count_ == cap_) Grow();
    if (pos * 2 >= count_) {
      // Shift the tail right by one.
      ::new (static_cast<void*>(slots_ + ((head_ + count_) & mask_)))
          T(std::move(*Slot(count_ - 1)));
      for (size_t i = count_ - 1; i > pos; --i) *Slot(i) = std::move(*Slot(i - 1));
      *Slot(pos) = std::move(value);
    } else {
      // Shift the head left by one.
      head_ = (head_ + cap_ - 1) & mask_;
      ::new (static_cast<void*>(slots_ + head_)) T(std::move(*Slot(1)));
      for (size_t i = 1; i < pos; ++i) *Slot(i) = std::move(*Slot(i + 1));
      *Slot(pos) = std::move(value);
    }
    ++count_;
  }

  /// Remove the element at `pos`, preserving relative order of the rest.
  void erase(size_t pos) {
    if (pos * 2 >= count_) {
      for (size_t i = pos; i + 1 < count_; ++i) *Slot(i) = std::move(*Slot(i + 1));
      pop_back();
    } else {
      for (size_t i = pos; i > 0; --i) *Slot(i) = std::move(*Slot(i - 1));
      pop_front();
    }
  }

  /// Drop every element at index >= new_size (the compaction tail used by
  /// Channel::ExtractFromOutput).
  void truncate(size_t new_size) {
    while (count_ > new_size) pop_back();
  }

  void clear() { truncate(0); }

  template <bool Const>
  class Iter {
   public:
    using Parent = std::conditional_t<Const, const RingDeque, RingDeque>;
    using value_type = T;
    using reference = std::conditional_t<Const, const T&, T&>;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iter(Parent* d, size_t i) : d_(d), i_(i) {}
    reference operator*() const { return (*d_)[i_]; }
    pointer operator->() const { return &(*d_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }
    size_t index() const { return i_; }

   private:
    Parent* d_;
    size_t i_;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, count_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, count_); }

 private:
  T* Slot(size_t i) const { return slots_ + ((head_ + i) & mask_); }

  void Grow() {
    size_t next_cap = cap_ == 0 ? kInitialCapacity : cap_ * 2;
    T* next = static_cast<T*>(::operator new(next_cap * sizeof(T), kAlign));
    for (size_t i = 0; i < count_; ++i) {
      ::new (static_cast<void*>(next + i)) T(std::move(*Slot(i)));
      Slot(i)->~T();
    }
    ReleaseSlots();
    slots_ = next;
    cap_ = next_cap;
    mask_ = next_cap - 1;
    head_ = 0;
  }

  void ReleaseSlots() {
    ::operator delete(slots_, kAlign);
    slots_ = nullptr;
  }

  void Destroy() {
    clear();
    ReleaseSlots();
    cap_ = 0;
    mask_ = 0;
    head_ = 0;
  }

  void MoveFrom(RingDeque& other) noexcept {
    slots_ = other.slots_;
    cap_ = other.cap_;
    mask_ = other.mask_;
    head_ = other.head_;
    count_ = other.count_;
    other.slots_ = nullptr;
    other.cap_ = 0;
    other.mask_ = 0;
    other.head_ = 0;
    other.count_ = 0;
  }

  static constexpr size_t kInitialCapacity = 8;
  static constexpr std::align_val_t kAlign{alignof(T) < alignof(std::max_align_t)
                                               ? alignof(std::max_align_t)
                                               : alignof(T)};

  T* slots_ = nullptr;
  size_t cap_ = 0;
  size_t mask_ = 0;
  size_t head_ = 0;
  size_t count_ = 0;
};

}  // namespace drrs

#endif  // DRRS_COMMON_RING_DEQUE_H_
