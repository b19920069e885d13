#ifndef DRRS_TRACE_TRACER_H_
#define DRRS_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/stream_element.h"
#include "metrics/histogram.h"
#include "metrics/metrics_hub.h"
#include "sim/sim_time.h"

namespace drrs::sim {
class Simulator;
}  // namespace drrs::sim

namespace drrs::trace {

/// Event categories, used both to filter hook sites at runtime (a disabled
/// category costs one branch) and as the `cat` field of the exported trace.
/// The three firehose categories (per simulator event, per network element,
/// per processed record) are off by default: they multiply trace volume by
/// the record rate and are only needed for microscopic debugging.
enum Category : uint32_t {
  kScale = 1u << 0,          ///< scale/subscale lifecycle, chunks, rails
  kNet = 1u << 1,            ///< chunk wire flights, backpressure intervals
  kRuntime = 1u << 2,        ///< task stall spans
  kFault = 1u << 3,          ///< injected faults and recovery actions
  kSimQueue = 1u << 4,       ///< event-queue depth counter samples
  kSimEvent = 1u << 5,       ///< firehose: one instant per executed event
  kNetElement = 1u << 6,     ///< firehose: per-element send/receive
  kRuntimeRecord = 1u << 7,  ///< firehose: per-record processing spans
  kTelemetry = 1u << 8,      ///< telemetry sampler counter tracks
};

constexpr uint32_t kDefaultCategories =
    kScale | kNet | kRuntime | kFault | kSimQueue | kTelemetry;

const char* CategoryName(Category category);

/// One recorded event. Names and argument keys are static strings (string
/// literals at the hook sites), so recording allocates nothing and the
/// flight-recorder ring stays trivially copyable.
struct TraceEvent {
  /// Chrome trace_event phases (the subset we emit).
  enum class Phase : char {
    kComplete = 'X',     ///< span with ts + dur
    kBegin = 'B',        ///< long-lived span open (scale op)
    kEnd = 'E',          ///< long-lived span close
    kAsyncBegin = 'b',   ///< overlapping flight open (keyed by id)
    kAsyncEnd = 'e',     ///< overlapping flight close
    kInstant = 'i',      ///< point event
    kCounter = 'C',      ///< sampled value (queue depth)
  };
  struct Arg {
    const char* key = nullptr;
    int64_t value = 0;
  };

  Phase phase = Phase::kInstant;
  Category category = kScale;
  const char* name = nullptr;
  uint64_t track = 0;      ///< exported as tid
  sim::SimTime ts = 0;     ///< simulated microseconds (trace ts unit)
  sim::SimTime dur = 0;    ///< kComplete only
  uint64_t id = 0;         ///< async correlation id
  Arg args[4];
  int num_args = 0;
};

/// \brief Structured simulated-time tracer with Chrome/Perfetto JSON export
/// and a bounded flight recorder.
///
/// Installed on a Simulator (`sim.set_tracer(&t)`); the engine's hook sites
/// — simulator loop, channels, tasks, scaling/core and the fault injector —
/// then report spans and instants through the DRRS_TRACE_CALL macro (see
/// trace/trace_hooks.h). In non-trace builds those call sites compile to
/// nothing, so the tracer costs zero when off and default builds stay
/// bit-identical. Observing a run never alters it: the tracer only reads
/// simulated time and never schedules events.
///
/// Every event also lands in a fixed-capacity ring (the flight recorder);
/// DumpFlightRecorder() writes the last `ring_capacity` events as a trace
/// JSON, and the harness wires it to fire on verify::Auditor violations and
/// ScaleService scale-aborts so failures carry their immediate history.
///
/// Track layout (exported as one process with named threads):
///   1 control-plane (scale lifecycle, barriers, chunks, rails)
///   2 network       (wire flights, backpressure intervals)
///   3 fault-plane   (injected faults, recovery actions)
///   4 simulator     (queue depth, per-event firehose)
///   16+i            task instance i (stall + processing spans)
///   4096+op         telemetry counters for operator op (sampler series)
class Tracer {
 public:
  struct Options {
    uint32_t categories = kDefaultCategories;
    /// Keep only the flight-recorder ring (no full event log). The mode for
    /// always-on capture: memory is bounded by `ring_capacity` alone.
    bool ring_only = false;
    size_t ring_capacity = 4096;
    /// Where DumpFlightRecorder writes. Empty disables dumping.
    std::string flight_dump_path = "drrs_flight.json";
    /// Minimum simulated time between queue-depth counter samples.
    sim::SimTime queue_sample_interval = sim::Millis(100);
  };

  Tracer() : Tracer(Options{}) {}
  explicit Tracer(const Options& options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Called by Simulator::set_tracer so events carry simulated time.
  void AttachSimulator(const sim::Simulator* sim) { sim_ = sim; }

  bool enabled(Category category) const {
    return (options_.categories & category) != 0;
  }

  // ---- simulator hooks (sim::Simulator) ----

  /// After each executed event: samples the queue-depth counter (rate-
  /// limited by `queue_sample_interval`) and, under kSimEvent, emits one
  /// instant per event.
  void OnEventExecuted(sim::SimTime now, size_t queue_depth);

  // ---- channel hooks (net::Channel) ----

  void OnBackpressureOnset(dataflow::InstanceId from, dataflow::InstanceId to);
  void OnBackpressureRelease(dataflow::InstanceId from,
                             dataflow::InstanceId to);
  /// A state chunk left the serializer: span [depart, arrival] on the wire.
  void OnChunkWireFlight(const dataflow::StreamElement& chunk,
                         dataflow::InstanceId from, dataflow::InstanceId to,
                         sim::SimTime depart, sim::SimTime arrival);
  void OnElementTransmitted(const dataflow::StreamElement& element,
                            dataflow::InstanceId from,
                            dataflow::InstanceId to);
  void OnElementDelivered(const dataflow::StreamElement& element,
                          dataflow::InstanceId to, size_t input_depth);
  /// One wire-batch flush: `batch_size` elements shared a deliverable window
  /// and reached `to` in a single armed event.
  void OnBatchDelivered(dataflow::InstanceId to, size_t batch_size);

  // ---- task hooks (runtime::Task) ----

  /// A completed stall interval [begin, end) with its reason.
  void OnTaskStall(dataflow::InstanceId instance, dataflow::OperatorId op,
                   metrics::StallReason reason, sim::SimTime begin,
                   sim::SimTime end);
  void OnRecordProcessed(dataflow::InstanceId instance,
                         dataflow::OperatorId op, sim::SimTime cost);
  void OnTaskCrashed(dataflow::InstanceId instance);
  void OnTaskRecovered(dataflow::InstanceId instance, uint64_t replayed);

  // ---- overload hooks (overload::OverloadController, ScaleService) ----

  /// Pressure-level transition at the monitored operator. Levels are the
  /// overload::PressureLevel ordinals (0 ok .. 3 throttled).
  void OnPressureChange(dataflow::OperatorId op, int from_level, int to_level,
                        uint64_t backlog);
  /// `count` records shed from `instance`'s input in one delivery batch.
  /// `policy` is the overload::ShedPolicy ordinal.
  void OnRecordsShed(dataflow::InstanceId instance, dataflow::OperatorId op,
                     int policy, uint64_t count);
  /// The source throttle was enabled (rate_per_sec > 0) or lifted (0).
  void OnThrottleChange(dataflow::InstanceId instance, int64_t rate_per_sec);
  /// Scale-admission circuit breaker transition; states are the
  /// overload::CircuitBreaker::State ordinals (0 closed, 1 open, 2 half-open).
  void OnBreakerTransition(dataflow::OperatorId op, int from_state,
                           int to_state);

  // ---- scaling/core hooks ----

  void OnScaleBegin(dataflow::ScaleId scale);
  void OnScaleEnd(dataflow::ScaleId scale);
  void OnScaleAborted(dataflow::ScaleId scale);
  void OnSubscaleOpen(dataflow::ScaleId scale, dataflow::SubscaleId subscale);
  void OnSubscaleClose(dataflow::ScaleId scale, dataflow::SubscaleId subscale);
  /// `shape`: 0 coupled, 1 integrated-with-checkpoint, 2 decoupled.
  void OnBarrierInjected(dataflow::ScaleId scale,
                         dataflow::SubscaleId subscale,
                         dataflow::InstanceId from, int shape);
  void OnChunkEnqueued(uint64_t transfer, const dataflow::StreamElement& chunk,
                       dataflow::InstanceId from, dataflow::InstanceId to);
  void OnChunkInstalled(uint64_t transfer, dataflow::InstanceId to);
  void OnChunkRetransmitted(uint64_t transfer, uint32_t attempt);
  void OnChunkForceInstalled(uint64_t transfer, dataflow::InstanceId to);
  void OnChunkAborted(uint64_t transfer);
  void OnRailSeeded(dataflow::InstanceId from, dataflow::InstanceId to);
  void OnRailReleased(dataflow::InstanceId from, dataflow::InstanceId to);
  void OnCompleteSent(dataflow::ScaleId scale, dataflow::SubscaleId subscale,
                      dataflow::InstanceId from, dataflow::InstanceId to);
  /// ScaleService watchdog fired: `cancelled` distinguishes a final
  /// cancellation from an abort-and-retry.
  void OnScaleWatchdog(dataflow::OperatorId op, uint32_t attempt,
                       bool cancelled);
  /// Watchdog re-armed without abort: the operation advanced from stage
  /// `from_stage` to `to_stage` (scaling::ScaleStage ordinals) within its
  /// budget.
  void OnScaleStageProgress(dataflow::OperatorId op, int from_stage,
                            int to_stage);

  // ---- telemetry hooks (telemetry::TelemetryRegistry) ----

  /// One sampled counter value for `op`'s telemetry track. `series` and the
  /// arg key must be static strings (the registry passes SeriesName()
  /// literals); `ts` is the sampler's simulated time, passed explicitly
  /// because the registry samples at a barrier, not inside an event body.
  void OnTelemetrySample(dataflow::OperatorId op, const std::string& op_name,
                         const char* series, sim::SimTime ts, int64_t value);

  // ---- fault hooks (fault::FaultInjector) ----

  void OnChunkFault(const char* kind, const dataflow::StreamElement& chunk);
  void OnLinkPartitioned(dataflow::InstanceId from, dataflow::InstanceId to);
  void OnLinksHealed(uint64_t poked_channels);
  void OnCrashInjected(dataflow::OperatorId op, uint32_t subtask);
  void OnRecoveryAction(const char* action, dataflow::InstanceId instance,
                        uint64_t detail);

  // ---- export / inspection ----

  /// Write the full event log (plus histogram sidecar) as Chrome trace_event
  /// JSON loadable in ui.perfetto.dev / chrome://tracing. Fails in
  /// ring-only mode (use DumpFlightRecorder) or on I/O errors.
  Status ExportJson(const std::string& path) const;

  /// Write the last `ring_capacity` events to `options.flight_dump_path`,
  /// with `reason` attached as trace metadata. Each call overwrites the
  /// file (the latest failure wins); `flight_dumps()` counts invocations.
  /// No-op (counting only) when the path is empty.
  void DumpFlightRecorder(const std::string& reason);

  uint64_t event_count() const { return total_events_; }
  uint64_t dropped_events() const { return dropped_events_; }
  uint64_t flight_dumps() const { return flight_dumps_; }
  const std::vector<TraceEvent>& events() const { return events_; }
  /// Last-N view in emission order (oldest first).
  std::vector<TraceEvent> FlightRecorderSnapshot() const;

  /// Per-operator stall-duration distribution (ms) and chunk flight times
  /// (ms), accumulated from hook events — the trace-side histograms.
  const std::map<dataflow::OperatorId, metrics::LogHistogram>&
  stall_histograms() const {
    return stall_hist_;
  }
  const metrics::LogHistogram& chunk_flight_histogram() const {
    return chunk_hist_;
  }

 private:
  void Emit(TraceEvent event);
  sim::SimTime Now() const;
  void WriteEvents(std::string* out, const std::vector<TraceEvent>& events,
                   const std::string& reason) const;

  Options options_;
  const sim::Simulator* sim_ = nullptr;

  std::vector<TraceEvent> events_;  ///< full log (empty in ring-only mode)
  std::vector<TraceEvent> ring_;    ///< flight recorder, ring_capacity slots
  size_t ring_next_ = 0;
  bool ring_wrapped_ = false;
  uint64_t total_events_ = 0;
  uint64_t dropped_events_ = 0;
  uint64_t flight_dumps_ = 0;

  sim::SimTime next_queue_sample_ = 0;
  /// Backpressure onset time per directed link, to emit the interval as one
  /// span at release. Keyed by (from << 32 | to): integer order, not
  /// pointers, so iteration (export only) is deterministic.
  std::map<uint64_t, sim::SimTime> backpressure_since_;
  /// Chunk enqueue time per transfer id (flight-duration histogram).
  std::map<uint64_t, sim::SimTime> chunk_sent_at_;
  /// Track names registered lazily (task tracks carry operator ids).
  std::map<uint64_t, std::string> track_names_;

  std::map<dataflow::OperatorId, metrics::LogHistogram> stall_hist_;
  metrics::LogHistogram chunk_hist_;
};

}  // namespace drrs::trace

#endif  // DRRS_TRACE_TRACER_H_
