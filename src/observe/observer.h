#ifndef DRRS_OBSERVE_OBSERVER_H_
#define DRRS_OBSERVE_OBSERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/stream_element.h"
#include "metrics/metrics_hub.h"
#include "sim/sim_time.h"

namespace drrs::observe {

/// \brief The engine's observation vocabulary: every hook the engine reports
/// through, declared once as a virtual no-op.
///
/// The two observers, verify::Auditor and trace::Tracer, derive from this
/// class, are `final`, and override only the hooks they act on. Hook sites
/// call them through their concrete pointers (see DRRS_OBSERVE below), so a
/// hook an observer does not override inlines to nothing, and a signature
/// that drifts from this declaration fails to compile.
class Observer {
 public:
  // ---- simulator (sim::EventQueue, sim::Simulator) ----

  /// Every event popped for execution, before it runs.
  virtual void OnEventPopped(sim::SimTime /*time*/, uint64_t /*seq*/) {}
  /// After each executed event, with the queue depth left behind.
  virtual void OnEventExecuted(sim::SimTime /*now*/, size_t /*queue_depth*/) {
  }

  // ---- channels (net::Channel) ----

  /// Element entering a channel's output cache (Push / PushPriority). May
  /// assign the element's audit identity, hence the mutable pointer.
  virtual void OnElementPushed(dataflow::StreamElement* /*element*/) {}
  /// Element moving from the output cache onto the wire.
  virtual void OnElementTransmitted(
      const dataflow::StreamElement& /*element*/) {}
  /// Element arriving in the receiver's input cache. Depths are post-
  /// delivery; `capacity` is the credit window being enforced.
  virtual void OnElementDelivered(const dataflow::StreamElement& /*element*/,
                                  size_t /*wire_depth*/,
                                  size_t /*input_depth*/, size_t /*capacity*/,
                                  dataflow::InstanceId /*receiver*/) {}
  /// Elements removed from an output cache by ExtractFromOutput[Before].
  virtual void OnElementsExtracted(
      const std::vector<dataflow::StreamElement>& /*extracted*/) {}
  /// The sender's output cache crossed the congestion mark (onset) or fell
  /// back below half of it (release).
  virtual void OnBackpressureOnset(dataflow::InstanceId /*from*/,
                                   dataflow::InstanceId /*to*/) {}
  virtual void OnBackpressureRelease(dataflow::InstanceId /*from*/,
                                     dataflow::InstanceId /*to*/) {}
  /// A state chunk left the serializer: it is on the wire over
  /// [depart, arrival].
  virtual void OnChunkWireFlight(const dataflow::StreamElement& /*chunk*/,
                                 dataflow::InstanceId /*from*/,
                                 dataflow::InstanceId /*to*/,
                                 sim::SimTime /*depart*/,
                                 sim::SimTime /*arrival*/) {}
  /// A chunk was dropped on the wire by the fault plane. The sender's
  /// retransmission (or abort roll-forward) must cover it.
  virtual void OnChunkWireDropped(const dataflow::StreamElement& /*chunk*/) {}

  // ---- tasks (runtime::Task) ----

  /// A data record reaching the operator (or sink), after any intercept.
  virtual void OnRecordProcessed(const dataflow::StreamElement& /*record*/,
                                 dataflow::OperatorId /*op*/,
                                 dataflow::InstanceId /*instance*/) {}
  /// A completed stall interval [begin, end) with its reason.
  virtual void OnTaskStall(dataflow::InstanceId /*instance*/,
                           dataflow::OperatorId /*op*/,
                           metrics::StallReason /*reason*/,
                           sim::SimTime /*begin*/, sim::SimTime /*end*/) {}
  virtual void OnTaskCrashed(dataflow::InstanceId /*instance*/) {}
  virtual void OnTaskRecovered(dataflow::InstanceId /*instance*/,
                               uint64_t /*replayed*/) {}

  // ---- overload control (overload::OverloadController, ScaleService) ----

  /// One data record deliberately removed from `instance`'s input cache by
  /// load shedding, while it is still in the cache.
  virtual void OnRecordShed(const dataflow::StreamElement& /*record*/,
                            dataflow::OperatorId /*op*/,
                            dataflow::InstanceId /*instance*/) {}
  /// `count` records shed from `instance`'s input in one delivery batch.
  /// `policy` is the overload::ShedPolicy ordinal.
  virtual void OnRecordsShed(dataflow::InstanceId /*instance*/,
                             dataflow::OperatorId /*op*/, int /*policy*/,
                             uint64_t /*count*/) {}
  /// Pressure-level transition at the monitored operator. Levels are the
  /// overload::PressureLevel ordinals (0 ok .. 3 throttled).
  virtual void OnPressureChange(dataflow::OperatorId /*op*/,
                                int /*from_level*/, int /*to_level*/,
                                uint64_t /*backlog*/) {}
  /// The source throttle was enabled (rate_per_sec > 0) or lifted (0).
  virtual void OnThrottleChange(dataflow::InstanceId /*instance*/,
                                int64_t /*rate_per_sec*/) {}
  /// Scale-admission circuit breaker transition; states are the
  /// overload::CircuitBreaker::State ordinals (0 closed, 1 open, 2 half-open).
  virtual void OnBreakerTransition(dataflow::OperatorId /*op*/,
                                   int /*from_state*/, int /*to_state*/) {}

  // ---- scaling (scaling/core, ScaleService) ----

  virtual void OnScaleBegin(dataflow::ScaleId /*scale*/) {}
  /// `open_subscales` / `in_flight` are the ScaleContext's own view at
  /// EndScale; both must be zero for a leak-free teardown.
  virtual void OnScaleEnd(dataflow::ScaleId /*scale*/,
                          size_t /*open_subscales*/, size_t /*in_flight*/) {}
  virtual void OnScaleAborted(dataflow::ScaleId /*scale*/) {}
  virtual void OnSubscaleOpen(dataflow::ScaleId /*scale*/,
                              dataflow::SubscaleId /*subscale*/) {}
  virtual void OnSubscaleClose(dataflow::ScaleId /*scale*/,
                               dataflow::SubscaleId /*subscale*/) {}
  /// `shape`: 0 coupled, 1 integrated-with-checkpoint, 2 decoupled.
  virtual void OnBarrierInjected(dataflow::ScaleId /*scale*/,
                                 dataflow::SubscaleId /*subscale*/,
                                 dataflow::InstanceId /*from*/,
                                 int /*shape*/) {}
  /// A state chunk was staged for `from -> to`; its transfer id is
  /// `chunk.seq`.
  virtual void OnChunkEnqueued(const dataflow::StreamElement& /*chunk*/,
                               dataflow::InstanceId /*from*/,
                               dataflow::InstanceId /*to*/) {}
  virtual void OnChunkInstalled(const dataflow::StreamElement& /*chunk*/,
                                dataflow::InstanceId /*to*/) {}
  /// The sender retransmitted `transfer_id` after an ack timeout; `attempt`
  /// counts retransmissions so far.
  virtual void OnChunkRetransmitted(uint64_t /*transfer_id*/,
                                    uint32_t /*attempt*/) {}
  /// Abort roll-forward installed the registry copy of `transfer_id`
  /// directly at its planned receiver, bypassing the wire.
  virtual void OnChunkForceInstalled(uint64_t /*transfer_id*/,
                                     dataflow::InstanceId /*to*/) {}
  virtual void OnChunkAborted(uint64_t /*transfer_id*/) {}
  /// The receiver suppressed a duplicate install (idempotent retry path).
  virtual void OnChunkDuplicateSuppressed(
      const dataflow::StreamElement& /*chunk*/) {}
  /// A chunk of an aborted scale arrived and was dropped instead of
  /// installed.
  virtual void OnChunkDroppedAborted(const dataflow::StreamElement& /*chunk*/) {
  }
  virtual void OnCompleteSent(dataflow::ScaleId /*scale*/,
                              dataflow::SubscaleId /*subscale*/,
                              dataflow::InstanceId /*from*/,
                              dataflow::InstanceId /*to*/) {}
  virtual void OnRailSeeded(dataflow::InstanceId /*from*/,
                            dataflow::InstanceId /*to*/) {}
  virtual void OnRailReleased(dataflow::InstanceId /*from*/,
                              dataflow::InstanceId /*to*/) {}
  /// ScaleService watchdog fired: `cancelled` distinguishes a final
  /// cancellation from an abort-and-retry.
  virtual void OnScaleWatchdog(dataflow::OperatorId /*op*/,
                               uint32_t /*attempt*/, bool /*cancelled*/) {}

  // ---- telemetry (telemetry::TelemetryRegistry) ----

  /// One sampled value of `op`'s series. `series` must be a static string
  /// (a SeriesName() literal); `ts` is the sampler's simulated time.
  virtual void OnTelemetrySample(dataflow::OperatorId /*op*/,
                                 const std::string& /*op_name*/,
                                 const char* /*series*/, sim::SimTime /*ts*/,
                                 int64_t /*value*/) {}

  // ---- faults (fault::FaultInjector) ----

  /// `kind` is a static string: chunk_drop, chunk_duplicate or chunk_delay.
  virtual void OnChunkFault(const char* /*kind*/,
                            const dataflow::StreamElement& /*chunk*/) {}
  virtual void OnLinkPartitioned(dataflow::InstanceId /*from*/,
                                 dataflow::InstanceId /*to*/) {}
  virtual void OnLinksHealed(uint64_t /*poked_channels*/) {}
  virtual void OnCrashInjected(dataflow::OperatorId /*op*/,
                               uint32_t /*subtask*/) {}
  /// `action` is a static string naming the recovery step.
  virtual void OnRecoveryAction(const char* /*action*/,
                                dataflow::InstanceId /*instance*/,
                                uint64_t /*detail*/) {}

 protected:
  /// Observers are owned, and destroyed, through their concrete types.
  ~Observer() = default;
};

}  // namespace drrs::observe

// ---- hook-site glue -------------------------------------------------------
//
// The CMake option DRRS_OBSERVE defines DRRS_OBSERVE_BUILD to 1. The
// observer classes compile in every build (their unit tests always run);
// only the hook sites below vanish when the option is off, so a default
// build carries no observation cost and produces bit-identical output.
#ifndef DRRS_OBSERVE_BUILD
#define DRRS_OBSERVE_BUILD 0
#endif

#if DRRS_OBSERVE_BUILD

// The observers derive from Observer, so they are included after it.
#include "sim/simulator.h"
#include "trace/tracer.h"
#include "verify/auditor.h"

/// Invoke the hook `call` (e.g. `OnScaleBegin(id)`) on every observer the
/// simulator `sim_expr` holds: the Auditor first, then the Tracer. `call` is
/// expanded once per observer, so its arguments must be free of side effects.
#define DRRS_OBSERVE(sim_expr, call)                                  \
  do {                                                                \
    const ::drrs::sim::Simulator* drrs_obs_sim = (sim_expr);          \
    if (::drrs::verify::Auditor* drrs_obs_a = drrs_obs_sim->auditor()) \
      drrs_obs_a->call;                                               \
    if (::drrs::trace::Tracer* drrs_obs_t = drrs_obs_sim->tracer())   \
      drrs_obs_t->call;                                               \
  } while (0)

/// Emit `stmt` only in observe builds (for glue that is not a single hook).
#define DRRS_OBSERVE_ONLY(stmt) stmt

#else

#define DRRS_OBSERVE(sim_expr, call) \
  do {                               \
  } while (0)

#define DRRS_OBSERVE_ONLY(stmt)

#endif  // DRRS_OBSERVE_BUILD

#endif  // DRRS_OBSERVE_OBSERVER_H_
