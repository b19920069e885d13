#ifndef DRRS_SRC_TRACE_TRACER_H_
#define DRRS_SRC_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/stream_element.h"
#include "metrics/histogram.h"
#include "metrics/metrics_hub.h"
#include "observe/observer.h"
#include "sim/sim_time.h"

namespace drrs::sim {
class Simulator;
}  // namespace drrs::sim

namespace drrs::trace {

/// Event categories: the `cat` field of the exported trace.
enum Category : uint8_t {
  kScale,      ///< scale/subscale lifecycle, chunks, rails
  kNet,        ///< chunk wire flights, backpressure intervals
  kRuntime,    ///< task stall spans, overload actions
  kFault,      ///< injected faults and recovery actions
  kSimQueue,   ///< event-queue depth counter samples
  kTelemetry,  ///< telemetry sampler counter tracks
};

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
/// then report spans and instants through the DRRS_OBSERVE macro (see
/// observe/observer.h). In default builds those call sites compile to
/// nothing, so the tracer costs zero when off and default builds stay
/// bit-identical. Observing a run never alters it: the tracer only reads
/// simulated time and never schedules events.
///
/// Every event also lands in a fixed-capacity ring (the flight recorder);
/// DumpFlightRecorder() writes the last kRingCapacity events as a trace
/// JSON. The harness wires it to fire on verify::Auditor violations, and
/// the ScaleService watchdog hook fires it on scale aborts, so failures
/// carry their immediate history.
///
/// Track layout (exported as one process with named threads):
///   1 control-plane (scale lifecycle, barriers, chunks, rails)
///   2 network       (wire flights, backpressure intervals)
///   3 fault-plane   (injected faults, recovery actions)
///   4 simulator     (queue depth)
///   16+i            task instance i (stall spans)
///   4096+op         telemetry counters for operator op (sampler series)
class Tracer final : public observe::Observer {
 public:
  /// Flight-recorder slots: the last events any dump can show.
  static constexpr size_t kRingCapacity = 4096;
  /// Minimum simulated time between queue-depth counter samples.
  static constexpr sim::SimTime kQueueSampleInterval = sim::Millis(100);

  struct Options {
    /// Keep only the flight-recorder ring (no full event log). The mode for
    /// always-on capture: memory is bounded by kRingCapacity alone.
    bool ring_only = false;
    /// Where DumpFlightRecorder writes. Empty disables dumping.
    std::string flight_dump_path = "drrs_flight.json";
  };

  Tracer() : Tracer(Options{}) {}
  explicit Tracer(const Options& options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Called by Simulator::set_tracer so events carry simulated time.
  void AttachSimulator(const sim::Simulator* sim) { sim_ = sim; }

  // ---- hooks (documented in observe::Observer) ----

  /// Samples the queue-depth counter, at most once per kQueueSampleInterval.
  void OnEventExecuted(sim::SimTime now, size_t queue_depth) override;
  /// Onset is buffered; the interval is emitted as one span at release.
  void OnBackpressureOnset(dataflow::InstanceId from,
                           dataflow::InstanceId to) override;
  void OnBackpressureRelease(dataflow::InstanceId from,
                             dataflow::InstanceId to) override;
  void OnChunkWireFlight(const dataflow::StreamElement& chunk,
                         dataflow::InstanceId from, dataflow::InstanceId to,
                         sim::SimTime depart, sim::SimTime arrival) override;
  void OnTaskStall(dataflow::InstanceId instance, dataflow::OperatorId op,
                   metrics::StallReason reason, sim::SimTime begin,
                   sim::SimTime end) override;
  void OnTaskCrashed(dataflow::InstanceId instance) override;
  void OnTaskRecovered(dataflow::InstanceId instance,
                       uint64_t replayed) override;
  void OnPressureChange(dataflow::OperatorId op, int from_level, int to_level,
                        uint64_t backlog) override;
  void OnRecordsShed(dataflow::InstanceId instance, dataflow::OperatorId op,
                     int policy, uint64_t count) override;
  void OnThrottleChange(dataflow::InstanceId instance,
                        int64_t rate_per_sec) override;
  void OnBreakerTransition(dataflow::OperatorId op, int from_state,
                           int to_state) override;
  void OnScaleBegin(dataflow::ScaleId scale) override;
  void OnScaleEnd(dataflow::ScaleId scale, size_t open_subscales,
                  size_t in_flight) override;
  void OnScaleAborted(dataflow::ScaleId scale) override;
  void OnSubscaleOpen(dataflow::ScaleId scale,
                      dataflow::SubscaleId subscale) override;
  void OnSubscaleClose(dataflow::ScaleId scale,
                       dataflow::SubscaleId subscale) override;
  void OnBarrierInjected(dataflow::ScaleId scale,
                         dataflow::SubscaleId subscale,
                         dataflow::InstanceId from, int shape) override;
  void OnChunkEnqueued(const dataflow::StreamElement& chunk,
                       dataflow::InstanceId from,
                       dataflow::InstanceId to) override;
  void OnChunkInstalled(const dataflow::StreamElement& chunk,
                        dataflow::InstanceId to) override;
  void OnChunkRetransmitted(uint64_t transfer_id, uint32_t attempt) override;
  void OnChunkForceInstalled(uint64_t transfer_id,
                             dataflow::InstanceId to) override;
  void OnChunkAborted(uint64_t transfer_id) override;
  void OnRailSeeded(dataflow::InstanceId from,
                    dataflow::InstanceId to) override;
  void OnRailReleased(dataflow::InstanceId from,
                      dataflow::InstanceId to) override;
  void OnCompleteSent(dataflow::ScaleId scale, dataflow::SubscaleId subscale,
                      dataflow::InstanceId from,
                      dataflow::InstanceId to) override;
  /// Also dumps the flight recorder: every watchdog abort is a failure
  /// worth its history.
  void OnScaleWatchdog(dataflow::OperatorId op, uint32_t attempt,
                       bool cancelled) override;
  void OnTelemetrySample(dataflow::OperatorId op, const std::string& op_name,
                         const char* series, sim::SimTime ts,
                         int64_t value) override;
  void OnChunkFault(const char* kind,
                    const dataflow::StreamElement& chunk) override;
  void OnLinkPartitioned(dataflow::InstanceId from,
                         dataflow::InstanceId to) override;
  void OnLinksHealed(uint64_t poked_channels) override;
  void OnCrashInjected(dataflow::OperatorId op, uint32_t subtask) override;
  void OnRecoveryAction(const char* action, dataflow::InstanceId instance,
                        uint64_t detail) override;

  // ---- export / inspection ----

  /// Write the full event log (plus histogram sidecar) as Chrome trace_event
  /// JSON loadable in ui.perfetto.dev / chrome://tracing. Fails in
  /// ring-only mode (use DumpFlightRecorder) or on I/O errors.
  Status ExportJson(const std::string& path) const;

  /// Write the last kRingCapacity events to `options.flight_dump_path`,
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
  std::vector<TraceEvent> ring_;    ///< flight recorder, kRingCapacity slots
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

#endif  // DRRS_SRC_TRACE_TRACER_H_
