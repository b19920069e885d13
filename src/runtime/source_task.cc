#include "runtime/source_task.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "runtime/checkpoint.h"

namespace drrs::runtime {

using dataflow::StreamElement;

namespace {
/// Watermark emission period.
constexpr sim::SimTime kWatermarkInterval = sim::Millis(200);
/// Latency-marker insertion period.
constexpr sim::SimTime kMarkerInterval = sim::Millis(250);
}  // namespace

SourceTask::SourceTask(sim::Simulator* sim, const dataflow::OperatorSpec& spec,
                       dataflow::InstanceId id, dataflow::OperatorId op,
                       uint32_t subtask, const dataflow::KeySpace* key_space,
                       metrics::MetricsHub* hub, bool check_invariants,
                       std::unique_ptr<dataflow::SourceGenerator> generator)
    : Task(sim, spec, id, op, subtask, key_space, hub, check_invariants),
      generator_(std::move(generator)),
      next_marker_(kMarkerInterval) {}

sim::SimTime SourceTask::current_lag() const {
  if (!has_pending_) return 0;
  return std::max<sim::SimTime>(0, sim_->now() - pending_arrival_);
}

void SourceTask::InjectCheckpointBarrier(uint64_t checkpoint_id) {
  BroadcastControl(dataflow::MakeCheckpointBarrier(checkpoint_id));
}

void SourceTask::RunOnce() {
  if (frozen_) return;
  if (AnyOutputCongested()) {
    EnterStall(metrics::StallReason::kBackpressure);
    return;  // decongest listener re-arms
  }
  ExitStall();
  if (!has_pending_) {
    if (exhausted_ || generator_ == nullptr ||
        !generator_->Next(&pending_, &pending_arrival_)) {
      exhausted_ = true;
      return;
    }
    has_pending_ = true;
  }
  sim::SimTime now = sim_->now();
  if (pending_arrival_ > now) {
    if (!arrival_wakeup_scheduled_) {
      arrival_wakeup_scheduled_ = true;
      sim_->ScheduleRawAt(
          pending_arrival_,
          [](void* arg) {
            auto* self = static_cast<SourceTask*>(arg);
            self->arrival_wakeup_scheduled_ = false;
            self->MaybeSchedule();
          },
          this);
    }
    return;
  }

  // A latency marker due before this record's arrival goes out first, with
  // its creation stamped at the due time so it accrues any backlog delay.
  if (next_marker_ <= pending_arrival_) {
    StreamElement marker = dataflow::MakeLatencyMarker(next_marker_);
    next_marker_ += kMarkerInterval;
    busy_until_ = now + spec_.record_cost;
    ForwardMarker(marker);
    MaybeSchedule();
    return;
  }

  // Overload throttling (token bucket): a denied record stays pending with
  // its feed-arrival time intact, so its eventual emission still accrues the
  // full queueing delay — shedding latency honesty onto the throttle would
  // hide the very overload it mitigates.
  if (throttle_ != nullptr) {
    sim::SimTime retry_at = now;
    if (!throttle_->AdmitRecord(now, &retry_at)) {
      EnterStall(metrics::StallReason::kThrottled);
      if (!throttle_wakeup_scheduled_) {
        throttle_wakeup_scheduled_ = true;
        sim_->ScheduleRawAt(
            std::max(retry_at, now),
            [](void* arg) {
              auto* self = static_cast<SourceTask*>(arg);
              self->throttle_wakeup_scheduled_ = false;
              self->MaybeSchedule();
            },
            this);
      }
      return;
    }
  }

  StreamElement e = pending_;
  has_pending_ = false;
  e.create_time = pending_arrival_;
  max_event_time_ = std::max(max_event_time_, e.event_time);
  busy_until_ = now + spec_.record_cost;
  Emit(e);
  hub_->RecordSourceEmit(now);

  if (now >= last_watermark_emit_ + kWatermarkInterval) {
    last_watermark_emit_ = now;
    StreamElement w = dataflow::MakeWatermark(max_event_time_);
    BroadcastControl(w);
  }
  MaybeSchedule();
}

}  // namespace drrs::runtime
