#ifndef DRRS_RUNTIME_SOURCE_TASK_H_
#define DRRS_RUNTIME_SOURCE_TASK_H_

#include <memory>

#include "dataflow/source_generator.h"
#include "runtime/task.h"

namespace drrs::runtime {

/// Admission control over source emission (overload throttling). Installed
/// by the overload controller; consulted once per data record. Markers,
/// watermarks and control elements are exempt — throttling slows the data
/// feed, it never stalls progress signals.
class SourceThrottle {
 public:
  virtual ~SourceThrottle() = default;
  /// True to emit now (consuming whatever budget the throttle tracks);
  /// false to defer, with `*retry_at` set to the earliest simulated time
  /// admission can succeed.
  virtual bool AdmitRecord(sim::SimTime now, sim::SimTime* retry_at) = 0;
};

/// \brief Rate-controlled source: drains a SourceGenerator feed, subject to
/// downstream backpressure, interleaving watermarks and latency markers.
///
/// Records are never emitted before their feed arrival time; when
/// backpressured they are emitted late, with `create_time` fixed at the feed
/// arrival — so end-to-end marker latency includes feed queueing delay
/// exactly like the paper's Kafka-based measurement (Section V-A).
class SourceTask : public Task {
 public:
  SourceTask(sim::Simulator* sim, const dataflow::OperatorSpec& spec,
             dataflow::InstanceId id, dataflow::OperatorId op,
             uint32_t subtask, const dataflow::KeySpace* key_space,
             metrics::MetricsHub* hub, bool check_invariants,
             std::unique_ptr<dataflow::SourceGenerator> generator);

  /// Begin pumping the generator.
  void Start() { MaybeSchedule(); }

  /// Inject an aligned-checkpoint barrier into the output stream (called by
  /// CheckpointCoordinator).
  void InjectCheckpointBarrier(uint64_t checkpoint_id);

  bool exhausted() const { return exhausted_; }

  /// Install (or clear, with nullptr) the overload source throttle. Null
  /// when overload control is off: the emission path pays one pointer test.
  void set_throttle(SourceThrottle* throttle) { throttle_ = throttle; }
  SourceThrottle* throttle() const { return throttle_; }

  /// Feed backlog proxy: how far the pending element's arrival lags now().
  sim::SimTime current_lag() const;

 protected:
  void RunOnce() override;

 private:
  std::unique_ptr<dataflow::SourceGenerator> generator_;

  dataflow::StreamElement pending_;
  sim::SimTime pending_arrival_ = 0;
  bool has_pending_ = false;
  bool exhausted_ = false;
  bool arrival_wakeup_scheduled_ = false;
  bool throttle_wakeup_scheduled_ = false;
  SourceThrottle* throttle_ = nullptr;

  sim::SimTime next_marker_ = 0;
  sim::SimTime last_watermark_emit_ = -1;
  sim::SimTime max_event_time_ = 0;
};

}  // namespace drrs::runtime

#endif  // DRRS_RUNTIME_SOURCE_TASK_H_
