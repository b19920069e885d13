#include "trace/tracer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/export.h"
#include "sim/simulator.h"

namespace drrs::trace {

namespace {

constexpr uint64_t kTrackControl = 1;
constexpr uint64_t kTrackNet = 2;
constexpr uint64_t kTrackFault = 3;
constexpr uint64_t kTrackSim = 4;
constexpr uint64_t kTaskTrackBase = 16;
constexpr uint64_t kTelemetryTrackBase = 4096;

uint64_t TaskTrack(dataflow::InstanceId instance) {
  return kTaskTrackBase + instance;
}

uint64_t LinkKey(dataflow::InstanceId from, dataflow::InstanceId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

const char* StallReasonName(metrics::StallReason reason) {
  switch (reason) {
    case metrics::StallReason::kAwaitingState:
      return "stall.awaiting_state";
    case metrics::StallReason::kAlignment:
      return "stall.alignment";
    case metrics::StallReason::kBackpressure:
      return "stall.backpressure";
    case metrics::StallReason::kThrottled:
      return "stall.throttled";
  }
  return "stall.unknown";
}

}  // namespace

const char* CategoryName(Category category) {
  switch (category) {
    case kScale:
      return "scale";
    case kNet:
      return "net";
    case kRuntime:
      return "runtime";
    case kFault:
      return "fault";
    case kSimQueue:
      return "sim.queue";
    case kTelemetry:
      return "telemetry";
  }
  return "unknown";
}

Tracer::Tracer(const Options& options)
    : options_(options), ring_(kRingCapacity) {
  track_names_[kTrackControl] = "control-plane";
  track_names_[kTrackNet] = "network";
  track_names_[kTrackFault] = "fault-plane";
  track_names_[kTrackSim] = "simulator";
}

sim::SimTime Tracer::Now() const { return sim_ != nullptr ? sim_->now() : 0; }

void Tracer::Emit(TraceEvent event) {
  ++total_events_;
  ring_[ring_next_] = event;
  ring_next_ = (ring_next_ + 1) % ring_.size();
  if (ring_next_ == 0) ring_wrapped_ = true;
  if (options_.ring_only) {
    ++dropped_events_;  // not retained in the full log
    return;
  }
  events_.push_back(event);
}

std::vector<TraceEvent> Tracer::FlightRecorderSnapshot() const {
  std::vector<TraceEvent> out;
  size_t n = ring_wrapped_ ? ring_.size() : ring_next_;
  out.reserve(n);
  size_t start = ring_wrapped_ ? ring_next_ : 0;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

// ---- simulator hooks ----

void Tracer::OnEventExecuted(sim::SimTime now, size_t queue_depth) {
  if (now < next_queue_sample_) return;
  next_queue_sample_ = now + kQueueSampleInterval;
  TraceEvent e;
  e.phase = TraceEvent::Phase::kCounter;
  e.category = kSimQueue;
  e.name = "event_queue_depth";
  e.track = kTrackSim;
  e.ts = now;
  e.args[0] = {"depth", static_cast<int64_t>(queue_depth)};
  e.num_args = 1;
  Emit(e);
}

// ---- channel hooks ----

void Tracer::OnBackpressureOnset(dataflow::InstanceId from,
                                 dataflow::InstanceId to) {
  backpressure_since_[LinkKey(from, to)] = Now();
}

void Tracer::OnBackpressureRelease(dataflow::InstanceId from,
                                   dataflow::InstanceId to) {
  auto it = backpressure_since_.find(LinkKey(from, to));
  if (it == backpressure_since_.end()) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.category = kNet;
  e.name = "backpressure";
  e.track = kTrackNet;
  e.ts = it->second;
  e.dur = Now() - it->second;
  e.args[0] = {"from", from};
  e.args[1] = {"to", to};
  e.num_args = 2;
  backpressure_since_.erase(it);
  Emit(e);
}

void Tracer::OnChunkWireFlight(const dataflow::StreamElement& chunk,
                               dataflow::InstanceId from,
                               dataflow::InstanceId to, sim::SimTime depart,
                               sim::SimTime arrival) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.category = kNet;
  e.name = "chunk_wire";
  e.track = kTrackNet;
  e.ts = depart;
  e.dur = arrival - depart;
  e.args[0] = {"kg", chunk.key_group};
  e.args[1] = {"bytes", static_cast<int64_t>(chunk.chunk_bytes)};
  e.args[2] = {"from", from};
  e.args[3] = {"to", to};
  e.num_args = 4;
  Emit(e);
}

// ---- task hooks ----

void Tracer::OnTaskStall(dataflow::InstanceId instance,
                         dataflow::OperatorId op, metrics::StallReason reason,
                         sim::SimTime begin, sim::SimTime end) {
  if (end <= begin) return;
  stall_hist_[op].Record(sim::ToMillis(end - begin));
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.category = kRuntime;
  e.name = StallReasonName(reason);
  e.track = TaskTrack(instance);
  e.ts = begin;
  e.dur = end - begin;
  e.args[0] = {"op", op};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnTaskCrashed(dataflow::InstanceId instance) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kFault;
  e.name = "task_crashed";
  e.track = TaskTrack(instance);
  e.ts = Now();
  Emit(e);
}

void Tracer::OnTaskRecovered(dataflow::InstanceId instance,
                             uint64_t replayed) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kFault;
  e.name = "task_recovered";
  e.track = TaskTrack(instance);
  e.ts = Now();
  e.args[0] = {"replayed", static_cast<int64_t>(replayed)};
  e.num_args = 1;
  Emit(e);
}

// ---- overload hooks ----

void Tracer::OnPressureChange(dataflow::OperatorId op, int from_level,
                              int to_level, uint64_t backlog) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kRuntime;
  e.name = "pressure_change";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"op", op};
  e.args[1] = {"from", from_level};
  e.args[2] = {"to", to_level};
  e.args[3] = {"backlog", static_cast<int64_t>(backlog)};
  e.num_args = 4;
  Emit(e);
}

void Tracer::OnRecordsShed(dataflow::InstanceId instance,
                           dataflow::OperatorId op, int policy,
                           uint64_t count) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kRuntime;
  e.name = "records_shed";
  e.track = TaskTrack(instance);
  e.ts = Now();
  e.args[0] = {"op", op};
  e.args[1] = {"policy", policy};
  e.args[2] = {"count", static_cast<int64_t>(count)};
  e.num_args = 3;
  Emit(e);
}

void Tracer::OnThrottleChange(dataflow::InstanceId instance,
                              int64_t rate_per_sec) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kRuntime;
  e.name = "source_throttle";
  e.track = TaskTrack(instance);
  e.ts = Now();
  e.args[0] = {"rate_per_sec", rate_per_sec};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnBreakerTransition(dataflow::OperatorId op, int from_state,
                                 int to_state) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = "scale_breaker";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"op", op};
  e.args[1] = {"from", from_state};
  e.args[2] = {"to", to_state};
  e.num_args = 3;
  Emit(e);
}

// ---- scaling/core hooks ----

void Tracer::OnScaleBegin(dataflow::ScaleId scale) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kBegin;
  e.category = kScale;
  e.name = "scale_op";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = scale;
  e.args[0] = {"scale", static_cast<int64_t>(scale)};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnScaleEnd(dataflow::ScaleId scale, size_t /*open_subscales*/,
                        size_t /*in_flight*/) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kEnd;
  e.category = kScale;
  e.name = "scale_op";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = scale;
  Emit(e);
}

void Tracer::OnScaleAborted(dataflow::ScaleId scale) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = "scale_aborted";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"scale", static_cast<int64_t>(scale)};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnSubscaleOpen(dataflow::ScaleId scale,
                            dataflow::SubscaleId subscale) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kAsyncBegin;
  e.category = kScale;
  e.name = "subscale";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = (scale << 16) | subscale;
  e.args[0] = {"scale", static_cast<int64_t>(scale)};
  e.args[1] = {"subscale", subscale};
  e.num_args = 2;
  Emit(e);
}

void Tracer::OnSubscaleClose(dataflow::ScaleId scale,
                             dataflow::SubscaleId subscale) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kAsyncEnd;
  e.category = kScale;
  e.name = "subscale";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = (scale << 16) | subscale;
  Emit(e);
}

void Tracer::OnBarrierInjected(dataflow::ScaleId scale,
                               dataflow::SubscaleId subscale,
                               dataflow::InstanceId from, int shape) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = "barrier_injected";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"scale", static_cast<int64_t>(scale)};
  e.args[1] = {"subscale", subscale};
  e.args[2] = {"from", from};
  e.args[3] = {"shape", shape};
  e.num_args = 4;
  Emit(e);
}

void Tracer::OnChunkEnqueued(const dataflow::StreamElement& chunk,
                             dataflow::InstanceId from,
                             dataflow::InstanceId to) {
  chunk_sent_at_[chunk.seq] = Now();
  TraceEvent e;
  e.phase = TraceEvent::Phase::kAsyncBegin;
  e.category = kScale;
  e.name = "chunk_transfer";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = chunk.seq;
  e.args[0] = {"kg", chunk.key_group};
  e.args[1] = {"bytes", static_cast<int64_t>(chunk.chunk_bytes)};
  e.args[2] = {"from", from};
  e.args[3] = {"to", to};
  e.num_args = 4;
  Emit(e);
}

void Tracer::OnChunkInstalled(const dataflow::StreamElement& chunk,
                              dataflow::InstanceId to) {
  auto it = chunk_sent_at_.find(chunk.seq);
  if (it != chunk_sent_at_.end()) {
    chunk_hist_.Record(sim::ToMillis(Now() - it->second));
    chunk_sent_at_.erase(it);
  }
  TraceEvent e;
  e.phase = TraceEvent::Phase::kAsyncEnd;
  e.category = kScale;
  e.name = "chunk_transfer";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = chunk.seq;
  e.args[0] = {"to", to};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnChunkRetransmitted(uint64_t transfer_id, uint32_t attempt) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = "chunk_retransmit";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = transfer_id;
  e.args[0] = {"attempt", attempt};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnChunkForceInstalled(uint64_t transfer_id,
                                   dataflow::InstanceId to) {
  chunk_sent_at_.erase(transfer_id);
  TraceEvent e;
  e.phase = TraceEvent::Phase::kAsyncEnd;
  e.category = kScale;
  e.name = "chunk_transfer";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = transfer_id;
  e.args[0] = {"to", to};
  e.args[1] = {"forced", 1};
  e.num_args = 2;
  Emit(e);
}

void Tracer::OnChunkAborted(uint64_t transfer_id) {
  chunk_sent_at_.erase(transfer_id);
  TraceEvent e;
  e.phase = TraceEvent::Phase::kAsyncEnd;
  e.category = kScale;
  e.name = "chunk_transfer";
  e.track = kTrackControl;
  e.ts = Now();
  e.id = transfer_id;
  e.args[0] = {"aborted", 1};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnRailSeeded(dataflow::InstanceId from, dataflow::InstanceId to) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = "rail_seeded";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"from", from};
  e.args[1] = {"to", to};
  e.num_args = 2;
  Emit(e);
}

void Tracer::OnRailReleased(dataflow::InstanceId from,
                            dataflow::InstanceId to) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = "rail_released";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"from", from};
  e.args[1] = {"to", to};
  e.num_args = 2;
  Emit(e);
}

void Tracer::OnCompleteSent(dataflow::ScaleId scale,
                            dataflow::SubscaleId subscale,
                            dataflow::InstanceId from,
                            dataflow::InstanceId to) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = "scale_complete_sent";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"scale", static_cast<int64_t>(scale)};
  e.args[1] = {"subscale", subscale};
  e.args[2] = {"from", from};
  e.args[3] = {"to", to};
  e.num_args = 4;
  Emit(e);
}

void Tracer::OnScaleWatchdog(dataflow::OperatorId op, uint32_t attempt,
                             bool cancelled) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kScale;
  e.name = cancelled ? "scale_cancelled" : "scale_watchdog_abort";
  e.track = kTrackControl;
  e.ts = Now();
  e.args[0] = {"op", op};
  e.args[1] = {"attempt", attempt};
  e.num_args = 2;
  Emit(e);
  DumpFlightRecorder(cancelled ? "scale cancelled: deadline budget exhausted"
                               : "scale aborted: missed progress deadline");
}

// ---- telemetry hooks ----

void Tracer::OnTelemetrySample(dataflow::OperatorId op,
                               const std::string& op_name, const char* series,
                               sim::SimTime ts, int64_t value) {
  const uint64_t track = kTelemetryTrackBase + op;
  if (track_names_.find(track) == track_names_.end()) {
    track_names_[track] = "telemetry " + op_name;
  }
  TraceEvent e;
  e.phase = TraceEvent::Phase::kCounter;
  e.category = kTelemetry;
  e.name = series;
  e.track = track;
  e.ts = ts;
  e.args[0] = {"value", value};
  e.num_args = 1;
  Emit(e);
}

// ---- fault hooks ----

void Tracer::OnChunkFault(const char* kind,
                          const dataflow::StreamElement& chunk) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kFault;
  e.name = kind;
  e.track = kTrackFault;
  e.ts = Now();
  e.args[0] = {"kg", chunk.key_group};
  e.args[1] = {"scale", static_cast<int64_t>(chunk.scale_id)};
  e.num_args = 2;
  Emit(e);
}

void Tracer::OnLinkPartitioned(dataflow::InstanceId from,
                               dataflow::InstanceId to) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kFault;
  e.name = "link_partitioned";
  e.track = kTrackFault;
  e.ts = Now();
  e.args[0] = {"from", from};
  e.args[1] = {"to", to};
  e.num_args = 2;
  Emit(e);
}

void Tracer::OnLinksHealed(uint64_t poked_channels) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kFault;
  e.name = "links_healed";
  e.track = kTrackFault;
  e.ts = Now();
  e.args[0] = {"poked_channels", static_cast<int64_t>(poked_channels)};
  e.num_args = 1;
  Emit(e);
}

void Tracer::OnCrashInjected(dataflow::OperatorId op, uint32_t subtask) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kFault;
  e.name = "crash_injected";
  e.track = kTrackFault;
  e.ts = Now();
  e.args[0] = {"op", op};
  e.args[1] = {"subtask", subtask};
  e.num_args = 2;
  Emit(e);
}

void Tracer::OnRecoveryAction(const char* action,
                              dataflow::InstanceId instance, uint64_t detail) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = kFault;
  e.name = action;
  e.track = kTrackFault;
  e.ts = Now();
  e.args[0] = {"instance", instance};
  e.args[1] = {"detail", static_cast<int64_t>(detail)};
  e.num_args = 2;
  Emit(e);
}

// ---- export ----

void Tracer::WriteEvents(std::string* out,
                         const std::vector<TraceEvent>& events,
                         const std::string& reason) const {
  *out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata: name each track so Perfetto shows readable lanes. Task tracks
  // are registered lazily; anything unnamed falls back to its numeric tid.
  for (const auto& [track, name] : track_names_) {
    if (!first) *out += ",";
    first = false;
    // 128, not 64: the fixed part is 61 chars, so a 3+-digit tid (task
    // instance >= 84, every telemetry track) would truncate mid-key.
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%" PRIu64
                  ",\"name\":\"thread_name\",\"args\":{\"name\":",
                  track);
    *out += buf;
    AppendJsonString(out, name);
    *out += "}}";
  }
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    if (!first) *out += ",";
    first = false;
    char buf[128];
    *out += "{\"ph\":\"";
    out->push_back(static_cast<char>(e.phase));
    *out += "\",\"cat\":\"";
    *out += CategoryName(e.category);
    *out += "\",\"name\":";
    AppendJsonString(out, e.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"pid\":1,\"tid\":%" PRIu64 ",\"ts\":%" PRId64, e.track,
                  e.ts);
    *out += buf;
    if (e.phase == TraceEvent::Phase::kComplete) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%" PRId64, e.dur);
      *out += buf;
    }
    if (e.phase == TraceEvent::Phase::kAsyncBegin ||
        e.phase == TraceEvent::Phase::kAsyncEnd) {
      std::snprintf(buf, sizeof(buf), ",\"id\":%" PRIu64, e.id);
      *out += buf;
    }
    if (e.phase == TraceEvent::Phase::kInstant) {
      *out += ",\"s\":\"t\"";
    }
    if (e.num_args > 0) {
      *out += ",\"args\":{";
      for (int i = 0; i < e.num_args; ++i) {
        if (i > 0) *out += ",";
        AppendJsonString(out, e.args[i].key);
        std::snprintf(buf, sizeof(buf), ":%" PRId64, e.args[i].value);
        *out += buf;
      }
      *out += "}";
    } else if (e.phase == TraceEvent::Phase::kCounter) {
      *out += ",\"args\":{}";
    }
    *out += "}";
  }
  *out += "],\"drrsHistograms\":{\"chunk_flight_ms\":";
  chunk_hist_.AppendJson(out);
  *out += ",\"stall_ms_by_operator\":{";
  bool first_op = true;
  for (const auto& [op, hist] : stall_hist_) {
    if (!first_op) *out += ",";
    first_op = false;
    char key[32];
    std::snprintf(key, sizeof(key), "\"%u\":", op);
    *out += key;
    hist.AppendJson(out);
  }
  *out += "}}";
  if (!reason.empty()) {
    *out += ",\"drrsFlightReason\":";
    AppendJsonString(out, reason);
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                ",\"drrsTotalEvents\":%" PRIu64 ",\"drrsDroppedEvents\":%" PRIu64
                "}\n",
                total_events_, dropped_events_);
  *out += tail;
}

Status Tracer::ExportJson(const std::string& path) const {
  if (options_.ring_only) {
    return Status::FailedPrecondition(
        "tracer is in ring-only mode; use DumpFlightRecorder()");
  }
  std::string out;
  out.reserve(events_.size() * 128 + 1024);
  WriteEvents(&out, events_, /*reason=*/"");
  return WriteFile(path, out, "trace output");
}

void Tracer::DumpFlightRecorder(const std::string& reason) {
  ++flight_dumps_;
  if (options_.flight_dump_path.empty()) return;
  std::string out;
  std::vector<TraceEvent> snapshot = FlightRecorderSnapshot();
  out.reserve(snapshot.size() * 128 + 1024);
  WriteEvents(&out, snapshot, reason);
  // Best-effort: a failed dump must not mask the violation being reported.
  Status st = WriteFile(options_.flight_dump_path, out, "trace output");
  if (!st.ok()) {
    std::fprintf(stderr, "[trace] flight-recorder dump failed: %s\n",
                 st.ToString().c_str());
  }
}

}  // namespace drrs::trace
