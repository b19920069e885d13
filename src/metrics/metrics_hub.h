#ifndef DRRS_METRICS_METRICS_HUB_H_
#define DRRS_METRICS_METRICS_HUB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataflow/stream_element.h"
#include "metrics/histogram.h"
#include "metrics/timeseries.h"
#include "sim/sim_time.h"
#include "verify/invariants.h"

namespace drrs::metrics {

/// Why a task stopped pulling input. Only scaling-related reasons count
/// towards the paper's suspension metric L_s (Fig 13); backpressure and idle
/// time are tracked separately.
enum class StallReason : uint8_t {
  kAwaitingState = 0,   ///< head record's state not locally available
  kAlignment,           ///< blocked for barrier alignment
  kBackpressure,        ///< downstream output cache congested
  kThrottled,           ///< source emission denied by the overload throttle
};

inline constexpr size_t kStallReasonCount = 4;

/// \brief Records per-scaling-operation events to compute the paper's three
/// overhead factors: propagation delay L_p, suspension L_s, dependency L_d
/// (Section II-B and Fig 12/13).
class ScalingMetrics {
 public:
  // -- signal lifecycle (one "signal" = one subscale / migration unit) --
  void RecordSignalInjection(dataflow::SubscaleId signal, sim::SimTime t);
  void RecordFirstMigration(dataflow::SubscaleId signal, sim::SimTime t);
  /// Migration start (state leaves the source instance) of one key-group.
  void RecordStateMigrated(dataflow::SubscaleId signal, dataflow::KeyGroupId kg,
                           sim::SimTime t);
  /// Counts a transfer of a migration unit (Meces back-and-forth tracking).
  void RecordUnitTransfer(dataflow::KeyGroupId kg, uint32_t sub_key_group);

  /// Keeps the first start: a watchdog retry or superseding operation
  /// begins a new ScaleContext scale, but the mechanism's span still runs
  /// from the first attempt to the last end.
  void RecordScaleStart(sim::SimTime t) {
    if (scale_start_ < 0) scale_start_ = t;
  }
  void RecordScaleEnd(sim::SimTime t) { scale_end_ = t; }

  // -- suspension --
  void RecordStall(StallReason reason, sim::SimTime begin, sim::SimTime end);

  /// Stall-duration distribution (ms) per reason. Fed by every RecordStall;
  /// summaries surface only in the JSON emitters, so the Fig 12/13 exact
  /// aggregates are untouched.
  const LogHistogram& StallHistogram(StallReason reason) const {
    return stall_hists_[static_cast<size_t>(reason)];
  }

  // -- derived metrics --
  /// Sum over signals of (first migration - injection). Paper Fig 12 left.
  sim::SimTime CumulativePropagationDelay() const;
  /// Mean over migrated states of (migration - injection). Paper Fig 12 right.
  double AverageDependencyOverheadUs() const;
  /// Total scaling-relevant suspension time (µs). Paper Fig 13 final value.
  sim::SimTime CumulativeSuspension() const;
  /// Suspension accumulation over time: (t, cumulative µs). Paper Fig 13.
  TimeSeries SuspensionSeries() const;
  sim::SimTime BackpressureTime() const { return backpressure_total_; }
  /// Total time sources spent denied by the overload throttle. Like
  /// backpressure, deliberately outside CumulativeSuspension: throttling is
  /// a policy choice, not scaling overhead, so Fig 13 stays comparable.
  sim::SimTime ThrottledTime() const { return throttled_total_; }

  sim::SimTime scale_start() const { return scale_start_; }
  sim::SimTime scale_end() const { return scale_end_; }

  /// Back-and-forth stats over migration units (Meces analysis, Section V-B):
  /// returns {units_transferred, average transfers per unit, max transfers}.
  struct TransferStats {
    uint64_t units = 0;
    double avg_transfers = 0;
    uint64_t max_transfers = 0;
    uint64_t total_transfers = 0;
  };
  TransferStats UnitTransferStats() const;

 private:
  struct SignalTimes {
    sim::SimTime injection = -1;
    sim::SimTime first_migration = -1;
  };
  std::map<dataflow::SubscaleId, SignalTimes> signals_;
  std::vector<sim::SimTime> dependency_deltas_;
  struct Stall {
    StallReason reason;
    sim::SimTime begin;
    sim::SimTime end;
  };
  std::vector<Stall> stalls_;
  LogHistogram stall_hists_[kStallReasonCount];  ///< indexed by StallReason
  sim::SimTime backpressure_total_ = 0;
  sim::SimTime throttled_total_ = 0;
  std::map<std::pair<dataflow::KeyGroupId, uint32_t>, uint64_t> unit_transfers_;
  sim::SimTime scale_start_ = -1;
  sim::SimTime scale_end_ = -1;
};

/// \brief Retry/recovery counters bumped by the fault-tolerance machinery:
/// chunk retransmission (StateTransfer), scale abort-and-retry (ScaleService)
/// and task crash/recovery (FaultInjector + Task). All zero in fault-free
/// runs; surfaced in the harness per-run summary.
struct RecoveryMetrics {
  uint64_t chunk_retransmits = 0;           ///< ack-timeout re-sends
  uint64_t chunks_dropped = 0;              ///< injected wire drops
  uint64_t chunks_duplicated = 0;           ///< injected duplicate deliveries
  uint64_t chunks_delayed = 0;              ///< injected chunk delays
  uint64_t duplicate_installs_suppressed = 0;
  uint64_t forced_chunk_installs = 0;       ///< abort roll-forward installs
  uint64_t scale_aborts = 0;                ///< deadline-triggered aborts
  uint64_t scale_retries = 0;               ///< re-admissions after abort
  uint64_t scale_cancellations = 0;         ///< attempt budget exhausted
  uint64_t crashes_injected = 0;
  uint64_t crash_recoveries = 0;
  uint64_t replayed_elements = 0;           ///< in-flight records replayed
  uint64_t links_partitioned = 0;
  uint64_t links_healed = 0;

  bool any() const {
    return chunk_retransmits + chunks_dropped + chunks_duplicated +
               chunks_delayed + duplicate_installs_suppressed +
               forced_chunk_installs + scale_aborts + scale_retries +
               scale_cancellations + crashes_injected + crash_recoveries +
               replayed_elements + links_partitioned + links_healed >
           0;
  }
};

/// \brief Overload-control counters bumped by the graceful-degradation
/// machinery: load shedding (OverloadController via ArrivalGate), source
/// throttling (SourceTask + TokenBucket) and the scale-admission circuit
/// breaker (ScaleService). All zero when overload control is off; surfaced
/// in the harness per-run summary and the JSON summaries.
struct OverloadMetrics {
  uint64_t records_shed = 0;            ///< data records removed at inputs
  uint64_t shed_drop_tail = 0;          ///< by the drop-tail policy
  uint64_t shed_random = 0;             ///< by the seeded-random policy
  uint64_t shed_cold_key = 0;           ///< by the coldest-keys policy
  uint64_t throttle_activations = 0;    ///< distinct source-throttle episodes
  uint64_t pressure_transitions = 0;    ///< detector level changes
  uint64_t breaker_opens = 0;           ///< circuit-breaker Closed/HalfOpen->Open
  uint64_t breaker_probes = 0;          ///< half-open probe admissions
  uint64_t breaker_rejections = 0;      ///< scale requests rejected while open
  uint64_t peak_input_backlog = 0;      ///< max sampled input-queue sum
  uint64_t last_input_backlog = 0;      ///< final sampled input-queue sum

  bool any() const {
    return records_shed + throttle_activations + pressure_transitions +
               breaker_opens + breaker_probes + breaker_rejections >
           0;
  }
};

/// \brief Central sink for all measurements of one simulated run.
class MetricsHub {
 public:
  explicit MetricsHub(sim::SimTime throughput_bucket = sim::Seconds(1))
      : source_rate_(throughput_bucket), sink_rate_(throughput_bucket) {}

  // -- latency (end-to-end markers, Section V-A) --
  void RecordMarkerLatency(sim::SimTime sink_time, sim::SimTime created) {
    latency_.Push(sink_time, sim::ToMillis(sink_time - created));
    latency_hist_.Record(sim::ToMillis(sink_time - created));
  }
  const TimeSeries& latency_ms() const { return latency_; }
  /// Full-run latency distribution (ms, log-bucketed). The per-window exact
  /// scalars above stay authoritative for the figure aggregates; this feeds
  /// the p50/p90/p99/p999 fields of the JSON summary and trace export.
  const LogHistogram& latency_histogram() const { return latency_hist_; }

  // -- throughput (source output rate, Section V-A) --
  void RecordSourceEmit(sim::SimTime t, uint64_t n = 1) {
    source_rate_.Add(t, n);
  }
  void RecordSinkArrival(sim::SimTime t, uint64_t n = 1) {
    sink_rate_.Add(t, n);
  }
  const RateCounter& source_rate() const { return source_rate_; }
  const RateCounter& sink_rate() const { return sink_rate_; }

  // -- total keyed-state footprint (periodic samples; each sample sums the
  //    cells' nominal_bytes of every backend when it is taken)
  void RecordStateBytes(sim::SimTime t, uint64_t bytes) {
    state_bytes_.Push(t, static_cast<double>(bytes));
  }
  const TimeSeries& state_bytes() const { return state_bytes_; }

  ScalingMetrics& scaling() { return scaling_; }
  const ScalingMetrics& scaling() const { return scaling_; }
  verify::InvariantMonitor& invariants() { return invariants_; }
  const verify::InvariantMonitor& invariants() const { return invariants_; }
  RecoveryMetrics& recovery() { return recovery_; }
  const RecoveryMetrics& recovery() const { return recovery_; }
  OverloadMetrics& overload() { return overload_; }
  const OverloadMetrics& overload() const { return overload_; }

 private:
  TimeSeries latency_;
  LogHistogram latency_hist_;
  TimeSeries state_bytes_;
  RateCounter source_rate_;
  RateCounter sink_rate_;
  ScalingMetrics scaling_;
  verify::InvariantMonitor invariants_;
  RecoveryMetrics recovery_;
  OverloadMetrics overload_;
};

/// Detects the end of the scaling period per the paper's rule: the first
/// time after `scale_start` at which latency stays below `threshold_ms`
/// (typically 110% of the pre-scaling level, plus a small absolute slack to
/// absorb measurement noise) for `hold` time (the paper uses 100 s).
/// Returns scale_start when the series never destabilized, or the last
/// sample time when it never restabilizes.
sim::SimTime DetectRestabilization(const TimeSeries& latency_ms,
                                   sim::SimTime scale_start,
                                   double threshold_ms, sim::SimTime hold);

}  // namespace drrs::metrics

#endif  // DRRS_METRICS_METRICS_HUB_H_
