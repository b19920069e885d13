#ifndef DRRS_OVERLOAD_OVERLOAD_CONTROLLER_H_
#define DRRS_OVERLOAD_OVERLOAD_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "dataflow/stream_element.h"
#include "net/channel.h"
#include "overload/token_bucket.h"
#include "runtime/execution_graph.h"
#include "runtime/source_task.h"
#include "runtime/task.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

namespace drrs::overload {

/// Escalation ladder of the overload controller. Levels are ordered: each
/// one includes the mechanisms of the levels below it.
enum class PressureLevel : uint8_t {
  kOk = 0,            ///< backlog below every threshold
  kBackpressured,     ///< organic channel backpressure is doing the work
  kShedding,          ///< arrival gates drop records to bound input queues
  kThrottled,         ///< source token buckets cap the ingest rate too
};

const char* PressureLevelName(PressureLevel level);

/// Which records the arrival gates drop while at >= kShedding.
enum class ShedPolicy : uint8_t {
  kNone = 0,       ///< never shed (escalation observes but gates pass all)
  kDropTail,       ///< newest arrivals beyond the queue bound
  kSeededRandom,   ///< seeded coin flip, probability grows with overshoot
  kColdestKeys,    ///< keys below the heat quantile shed first
};

const char* ShedPolicyName(ShedPolicy policy);

struct OverloadOptions {
  /// Master switch. False (the default) means the controller is never
  /// constructed: no gates, no buckets, no sampler events — an all-defaults
  /// build is bit-identical to one without the subsystem.
  bool enabled = false;

  /// Pressure thresholds over the summed input-cache depth of the monitored
  /// operator's instances. Must be nondecreasing.
  uint64_t backpressure_threshold = 96;
  uint64_t shed_threshold = 256;
  uint64_t throttle_threshold = 512;

  ShedPolicy shed_policy = ShedPolicy::kDropTail;
  /// Per-channel input-cache bound enforced while shedding. Policies other
  /// than drop-tail get a hard cap at twice this bound so every policy keeps
  /// queues bounded even when its own criterion declines to shed.
  size_t queue_bound = 48;

  /// Aggregate source ingest cap while at kThrottled, split evenly across
  /// sources. <= 0 disables the throttle rung (shedding still applies).
  double throttle_rate_per_sec = 0;

  /// Seed for the kSeededRandom coin. Draws happen in event order, so shed
  /// decisions are bit-identical across runs of the same seed.
  uint64_t seed = 0x5eed;

  /// Capture a (instance, key, seq) log of every shed record — the
  /// determinism tests byte-compare it.
  bool record_shed_log = false;
};

/// One shed record, for determinism tests and post-run analysis.
struct ShedLogEntry {
  dataflow::InstanceId instance = 0;
  dataflow::KeyT key = 0;
  uint64_t seq = 0;

  bool operator==(const ShedLogEntry& o) const {
    return instance == o.instance && key == o.key && seq == o.seq;
  }
};

/// \brief Per-operator overload controller: watches one operator's input
/// backlog and walks the escalation ladder (paper Section V-C runs DRRS
/// under flash crowds; this subsystem is how the engine degrades gracefully
/// instead of growing queues without bound).
///
/// Mechanisms, by escalation level:
///   1. kBackpressured — nothing active; the credit-gated channels already
///      push back. The level exists so traces show when pressure started.
///   2. kShedding — the controller installs itself as the ArrivalGate on
///      every instance of the monitored operator and drops freshly
///      delivered records per `shed_policy`, keeping input caches bounded.
///      Every shed record is terminal in the conservation audit
///      (verify::Auditor::OnRecordShed) and visible in traces/metrics.
///   3. kThrottled — source token buckets additionally cap the ingest rate.
///
/// Everything runs in simulated time on the run's one simulator, so
/// decisions are a pure function of the workload and seed.
class OverloadController : public runtime::ArrivalGate {
 public:
  /// `op` is the monitored (and gated) operator. Call Arm() after
  /// ExecutionGraph::Start() wiring is in place.
  OverloadController(runtime::ExecutionGraph* graph, dataflow::OperatorId op,
                     const OverloadOptions& options);
  ~OverloadController() override;

  OverloadController(const OverloadController&) = delete;
  OverloadController& operator=(const OverloadController&) = delete;

  /// Install gates + source buckets and start the backlog sampler. The
  /// sampler self-cancels once the sources dry up and the backlog drains,
  /// so run-to-completion experiments still terminate.
  void Arm();

  PressureLevel level() const { return level_; }
  /// Summed input-cache depth over the monitored operator's instances.
  uint64_t MonitoredBacklog() const;

  const OverloadOptions& options() const { return options_; }
  const std::vector<ShedLogEntry>& shed_log() const { return shed_log_; }
  uint64_t records_shed() const { return records_shed_; }

  // ---- runtime::ArrivalGate ----
  size_t OnArrivals(runtime::Task* task, net::Channel* channel,
                    size_t appended) override;

 private:
  void Sample();
  /// Next level for `backlog` given the current level and hysteresis.
  PressureLevel NextLevel(uint64_t backlog) const;
  uint64_t ThresholdFor(PressureLevel level) const;
  void ApplyLevel(PressureLevel next, uint64_t backlog);
  /// Per-tick throttle actuation: engage at kThrottled, release once the
  /// level is back at kOk and no source still lags behind its feed.
  void UpdateThrottle();
  /// (Re-)install this gate on every instance of the monitored operator —
  /// runs every sample tick so instances added by a scale-out are covered.
  void InstallGates();
  void RecomputeColdThreshold();
  bool AllSourcesExhausted() const;

  runtime::ExecutionGraph* graph_;
  dataflow::OperatorId op_;
  OverloadOptions options_;
  Rng rng_;

  PressureLevel level_ = PressureLevel::kOk;
  std::unique_ptr<sim::PeriodicProcess> sampler_;

  /// One bucket per source, installed at Arm(); rate 0 (inactive) until the
  /// ladder reaches kThrottled.
  std::vector<runtime::SourceTask*> sources_;
  std::vector<std::unique_ptr<TokenBucket>> buckets_;
  /// Actuator hysteresis: the buckets engage at kThrottled but release only
  /// back at kOk. Releasing mid-ladder would let a source sitting on a
  /// dammed-up feed burst its whole catch-up backlog into the queues the
  /// throttle just drained.
  bool throttle_engaged_ = false;

  /// kColdestKeys bookkeeping: per-key arrival heat, halved every sample
  /// tick (recency-weighted), and the current cold/hot boundary. Ordered
  /// map: the quantile scan iterates it deterministically.
  std::map<dataflow::KeyT, uint64_t> key_heat_;
  uint64_t cold_threshold_ = 0;

  std::vector<ShedLogEntry> shed_log_;
  uint64_t records_shed_ = 0;
};

}  // namespace drrs::overload

#endif  // DRRS_OVERLOAD_OVERLOAD_CONTROLLER_H_
