#ifndef DRRS_SIM_EVENT_QUEUE_H_
#define DRRS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_callback.h"
#include "sim/sim_time.h"

namespace drrs::verify {
class Auditor;
}  // namespace drrs::verify

namespace drrs::sim {

/// \brief Priority queue of timed callbacks, ordered by (time, insertion seq).
///
/// Tie-break rule: events scheduled for the same instant fire in the order
/// they were *scheduled* (FIFO by the monotonically increasing insertion
/// sequence). This is a hard guarantee, not a heap accident — the comparator
/// orders on (time, seq) and seq is unique — so simulations are fully
/// deterministic even when many events share a timestamp. The determinism
/// auditor (verify::Auditor, DRRS_OBSERVE builds) checks the rule on every pop
/// and counts same-time pops as tie-break hazards.
///
/// The heap entry is a 32-byte POD `{time, seq, fn, arg}`: sift moves are
/// plain word copies, and the engine's hot scheduling sites (channel wire
/// events, task re-arms) pass a captureless-lambda function pointer plus a
/// context pointer directly — no callable object at all. General callables
/// still work through `Schedule(at, EventCallback)`: the callback is boxed
/// in a queue-owned heap box and dispatched through a trampoline, with the
/// box recycled on pop. Both paths draw from the same insertion sequence, so
/// mixing them preserves the global FIFO tie-break.
class EventQueue {
 public:
  using Callback = EventCallback;
  /// Hot-path event body: a captureless function taking the context pointer.
  using RawFn = void (*)(void*);

  EventQueue() = default;
  // Boxes point back at their queue, so it stays put.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueue a boxed callback to fire at absolute time `at`.
  void Schedule(SimTime at, Callback cb);

  /// Enqueue a raw (function pointer, context) event — allocation-free.
  void ScheduleRaw(SimTime at, RawFn fn, void* arg) {
    heap_.push_back(Event{at, next_seq_++, fn, arg});
    SiftUp(heap_.size() - 1);
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; kSimTimeMax when empty.
  SimTime PeekTime() const;

  /// A popped event, ready to run: call `fn(arg)`. For boxed callbacks, `fn`
  /// is the unboxing trampoline (the box frees itself before invoking).
  struct Fired {
    SimTime time;
    RawFn fn;
    void* arg;
  };

  /// Pop the earliest event. Caller must check empty() first, then invoke
  /// `fired.fn(fired.arg)` exactly once.
  Fired Pop();

  /// Auditor notified on every pop (DRRS_OBSERVE builds; ignored otherwise).
  void set_auditor(verify::Auditor* auditor) { auditor_ = auditor; }

 private:
  /// 32-byte POD heap entry; sift moves are trivial copies.
  struct Event {
    SimTime time;
    uint64_t seq;
    RawFn fn;
    void* arg;
  };

  /// Home of a boxed EventCallback while its event is pending.
  struct CallbackBox {
    Callback cb;
    EventQueue* owner;
  };

  static void InvokeBox(void* arg);

  // 4-ary heap: half the depth of a binary heap, and the four children of a
  // node share one or two cache lines (32-byte entries), so sift-down does
  // fewer dependent loads. Pop order is unaffected — (time, seq) is a total
  // order, so any valid heap yields the same sequence.
  static constexpr size_t kAryLog2 = 2;
  static constexpr size_t kAry = size_t{1} << kAryLog2;

  bool Later(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  // Explicit binary heap over a vector of POD events. Hand-rolled sifts (vs
  // std::push_heap/pop_heap over move-only payloads) keep every move a
  // 32-byte copy.
  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;  ///< insertion counter: the tie-break sequence
  verify::Auditor* auditor_ = nullptr;
  // Every box ever allocated. Destroying them with the queue releases the
  // captures of events still pending (a run stopped at a horizon).
  std::vector<std::unique_ptr<CallbackBox>> boxes_;
  // Boxes whose event has fired, reused by the next Schedule.
  std::vector<CallbackBox*> free_boxes_;
};

}  // namespace drrs::sim

#endif  // DRRS_SIM_EVENT_QUEUE_H_
