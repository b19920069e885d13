#include "sim/event_queue.h"

#include <utility>

#include "common/logging.h"
#include "observe/observer.h"

namespace drrs::sim {

void EventQueue::Schedule(SimTime at, Callback cb) {
  CallbackBox* box;
  if (free_boxes_.empty()) {
    boxes_.push_back(std::make_unique<CallbackBox>());
    box = boxes_.back().get();
    box->owner = this;
  } else {
    box = free_boxes_.back();
    free_boxes_.pop_back();
  }
  box->cb = std::move(cb);
  ScheduleRaw(at, &EventQueue::InvokeBox, box);
}

void EventQueue::InvokeBox(void* arg) {
  auto* box = static_cast<CallbackBox*>(arg);
  // Move the callback out and recycle the box *before* invoking: the body
  // may schedule new boxed events, which can then reuse the box.
  Callback cb = std::move(box->cb);
  box->owner->free_boxes_.push_back(box);
  cb();
}

SimTime EventQueue::PeekTime() const {
  if (heap_.empty()) return kSimTimeMax;
  return heap_.front().time;
}

EventQueue::Fired EventQueue::Pop() {
  DRRS_CHECK(!heap_.empty());
  Event top = heap_.front();
  DRRS_OBSERVE_ONLY(
      if (auditor_ != nullptr) auditor_->OnEventPopped(top.time, top.seq);)
  Event last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    SiftDown(0);
  }
  ++popped_;
  return Fired{top.time, top.fn, top.arg};
}

void EventQueue::SiftUp(size_t i) {
  Event e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) >> kAryLog2;
    if (!Later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(size_t i) {
  Event e = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t first = (i << kAryLog2) + 1;
    if (first >= n) break;
    size_t last = first + kAry < n ? first + kAry : n;
    size_t child = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Later(heap_[child], heap_[c])) child = c;
    }
    if (!Later(e, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

}  // namespace drrs::sim
