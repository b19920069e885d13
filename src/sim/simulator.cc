#include "sim/simulator.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "trace/trace_hooks.h"
#include "trace/tracer.h"
#include "verify/auditor.h"

namespace drrs::sim {

void Simulator::set_auditor(verify::Auditor* auditor) {
  auditor_ = auditor;
  queue_.set_auditor(auditor);
  if (auditor != nullptr) auditor->AttachSimulator(this);
}

void Simulator::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer != nullptr) tracer->AttachSimulator(this);
}

void Simulator::ScheduleAt(SimTime at, EventQueue::Callback cb) {
  if (at < now_) at = now_;
  queue_.Schedule(at, std::move(cb));
}

void Simulator::ScheduleAfter(SimTime delay, EventQueue::Callback cb) {
  DRRS_CHECK(delay >= 0);
  queue_.Schedule(now_ + delay, std::move(cb));
}

uint64_t Simulator::RunUntil(SimTime horizon) {
  uint64_t n = 0;
  while (!queue_.empty() && queue_.PeekTime() <= horizon) {
    EventQueue::Fired f = queue_.Pop();
    now_ = f.time;
    f.fn(f.arg);
    ++n;
    ++executed_;
    DRRS_TRACE_CALL(tracer_, OnEventExecuted(now_, queue_.size()));
  }
  // The clock does not advance past the last executed event; callers that
  // want now() == horizon after a quiet period schedule a sentinel event.
  return n;
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  EventQueue::Fired f = queue_.Pop();
  now_ = f.time;
  f.fn(f.arg);
  ++executed_;
  DRRS_TRACE_CALL(tracer_, OnEventExecuted(now_, queue_.size()));
  return true;
}

namespace {
// Shared cancellation token: the pending event holds the token by value so a
// destroyed PeriodicProcess never leaves a dangling capture.
struct PeriodicState {
  Simulator* sim;
  SimTime period;
  std::function<void()> body;
  bool cancelled = false;
};

void FirePeriodic(const std::shared_ptr<PeriodicState>& state) {
  if (state->cancelled) {
    // The armed event outlives its cancellation by design (the shared token
    // keeps captures valid); count the no-op fire so audits can see it.
    state->sim->NoteCancelledFire();
    return;
  }
  state->body();
  if (state->cancelled) return;
  state->sim->ScheduleAfter(state->period,
                            [state]() { FirePeriodic(state); });
}
}  // namespace

PeriodicProcess::PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                                 std::function<void()> body) {
  DRRS_CHECK(period > 0);
  auto state = std::make_shared<PeriodicState>();
  state->sim = sim;
  state->period = period;
  state->body = std::move(body);
  cancel_hook_ = [state]() { state->cancelled = true; };
  sim->ScheduleAt(start, [state]() { FirePeriodic(state); });
}

}  // namespace drrs::sim
