#ifndef DRRS_SIM_SIMULATOR_H_
#define DRRS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace drrs::verify {
class Auditor;
}  // namespace drrs::verify

namespace drrs::net {
class FaultPlane;
}  // namespace drrs::net

namespace drrs::trace {
class Tracer;
}  // namespace drrs::trace

namespace drrs::sim {

/// \brief Discrete-event simulation driver.
///
/// Owns the virtual clock and the event queue. Engine entities (tasks,
/// channels, coordinators) schedule callbacks; the simulator executes them in
/// timestamp order, advancing the clock between events. Everything is
/// single-threaded and deterministic.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute simulated time `at` (clamped to now()).
  void ScheduleAt(SimTime at, EventQueue::Callback cb);

  /// Schedule `cb` after a relative delay (>= 0).
  void ScheduleAfter(SimTime delay, EventQueue::Callback cb);

  /// Allocation-free scheduling for engine hot paths: a captureless function
  /// plus a context pointer. Shares the insertion-sequence counter with the
  /// boxed-callback path, so same-time ordering across both is the global
  /// FIFO schedule order.
  void ScheduleRawAt(SimTime at, EventQueue::RawFn fn, void* arg) {
    queue_.ScheduleRaw(at < now_ ? now_ : at, fn, arg);
  }

  /// Run events until the queue is empty or `horizon` is passed. Events at
  /// exactly `horizon` still execute. Returns the number of events executed.
  uint64_t RunUntil(SimTime horizon);

  /// Run until no events remain.
  uint64_t RunUntilIdle() { return RunUntil(kSimTimeMax); }

  /// Execute exactly one event if present. Returns false when idle.
  bool Step();

  uint64_t executed_events() const { return executed_; }

  /// Install (or clear, with nullptr) the invariant auditor. The pointer is
  /// forwarded to the event queue and read by every engine hook site; the
  /// hooks themselves only exist in DRRS_OBSERVE builds (observe/observer.h).
  void set_auditor(verify::Auditor* auditor);
  verify::Auditor* auditor() const { return auditor_; }

  /// Install (or clear, with nullptr) the fault plane consulted by channels.
  /// Null in fault-free runs, so the hot transmit path pays one pointer test.
  void set_fault_plane(net::FaultPlane* plane) { fault_plane_ = plane; }
  net::FaultPlane* fault_plane() const { return fault_plane_; }

  /// Install (or clear, with nullptr) the structured tracer. Like the
  /// auditor, the member exists in every build so layout is identical, but
  /// hook sites that read it only exist in DRRS_OBSERVE builds.
  void set_tracer(trace::Tracer* tracer);
  trace::Tracer* tracer() const { return tracer_; }

 private:
  SimTime now_ = 0;
  uint64_t executed_ = 0;
  EventQueue queue_;
  verify::Auditor* auditor_ = nullptr;
  net::FaultPlane* fault_plane_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
};

/// \brief Helper that re-schedules a callback at a fixed period until
/// cancelled, e.g. metric sampling or planner polling.
class PeriodicProcess {
 public:
  /// Starts firing at `start`, then every `period`. The callback may call
  /// Cancel(). The process must outlive the simulation or be cancelled.
  PeriodicProcess(Simulator* sim, SimTime start, SimTime period,
                  std::function<void()> body);
  ~PeriodicProcess() { Cancel(); }

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void Cancel() {
    if (cancel_hook_) cancel_hook_();
  }

 private:
  // Flips a shared cancellation flag owned by the scheduled event chain, so
  // destroying the process never leaves a dangling capture.
  std::function<void()> cancel_hook_;
};

}  // namespace drrs::sim

#endif  // DRRS_SIM_SIMULATOR_H_
