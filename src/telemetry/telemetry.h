#ifndef DRRS_TELEMETRY_TELEMETRY_H_
#define DRRS_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/stream_element.h"
#include "metrics/timeseries.h"
#include "sim/sim_time.h"

namespace drrs::runtime {
class ExecutionGraph;
}  // namespace drrs::runtime
namespace drrs::overload {
class OverloadController;
}  // namespace drrs::overload
namespace drrs::scaling {
class ScalingStrategy;
}  // namespace drrs::scaling

namespace drrs::telemetry {

/// The per-operator signals the registry samples on every tick. The ordinal
/// is part of the CSV/export contract — append only.
enum class SeriesKind : uint8_t {
  kInputRate = 0,    ///< records/s delivered into the operator's inputs
  kOutputRate,       ///< records/s delivered onto the operator's outputs
  kServiceRate,      ///< records/s processed (completed) by the operator
  kBacklog,          ///< summed input-queue depth across instances (records)
  kUtilization,      ///< busy time / (wall * instances), 0..~1
  kPressure,         ///< overload::PressureLevel ordinal (monitored op only)
  kMigrationBytes,   ///< state-transfer bytes staged in flight (scaled op)
};
inline constexpr size_t kSeriesKindCount = 7;

const char* SeriesName(SeriesKind kind);

/// \brief Online per-operator capacity estimate: the maximum sustainable
/// service rate observed so far, EWMA-smoothed (the Daedalus-style profile a
/// policy engine scales against).
///
/// Each sample with utilization >= min_utilization contributes the candidate
/// rate service_rate / utilization (the extrapolated full-busy rate); the
/// candidate stream is smoothed with EWMA(alpha) and the estimate is the
/// peak of the smoothed curve. Low-utilization samples are skipped: an idle
/// operator's service rate says nothing about its ceiling.
struct CapacityEstimate {
  double rate_per_sec = 0;       ///< peak of the smoothed candidate curve
  double smoothed = 0;           ///< current EWMA value
  uint64_t samples = 0;          ///< candidates folded in so far
  sim::SimTime last_update = 0;  ///< time of the latest contributing sample
};

/// Sampling cadence (simulated time). Samples ride the deterministic event
/// order of the run's simulator, so the sampled values are a pure function
/// of the workload and seed.
inline constexpr sim::SimTime kSamplePeriod = sim::Millis(500);
/// EWMA smoothing factor for the capacity estimator.
inline constexpr double kCapacityAlpha = 0.2;
/// Minimum utilization for a sample to update the capacity estimate.
inline constexpr double kCapacityMinUtilization = 0.5;

struct TelemetryOptions {
  /// Master switch. Default off: the harness constructs nothing and every
  /// run stays bit-identical to a build without the subsystem.
  bool enabled = false;
  /// Write the full sampled series as CSV after the run (empty disables).
  std::string csv_path;
};

/// \brief Simulated-time telemetry sampler: per-operator series plus
/// latency-quantile snapshots and online capacity estimates.
///
/// Owned by the harness. RunExperiment drives Sample() on the deterministic
/// cadence of kSamplePeriod through a sim::PeriodicProcess, like the
/// state-bytes sampler, so every value is byte-identical across runs of the
/// same seed. In DRRS_OBSERVE builds each sample is also reported to the
/// simulator's observers (the tracer draws it as Perfetto counter tracks).
///
/// Rates are derived from the engine's cumulative counters (channel
/// delivered-element counts, task processed-record and busy-time counters)
/// by differencing consecutive samples, so a sample costs O(instances +
/// channels) reads and no per-record hook exists: telemetry OFF touches
/// nothing on the data path. Every series is a metrics::TimeSeries holding
/// the whole run, one sample per tick, like the hub's state-bytes and
/// latency series.
class TelemetryRegistry {
 public:
  explicit TelemetryRegistry(runtime::ExecutionGraph* graph);

  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// Optional signal providers; absent ones sample as 0. The controller does
  /// not know which operator it watches, so the harness passes that along.
  void set_overload(const overload::OverloadController* ctl,
                    dataflow::OperatorId monitored_op) {
    overload_ = ctl;
    overload_op_ = monitored_op;
  }
  void set_strategy(const scaling::ScalingStrategy* strategy,
                    dataflow::OperatorId scaled_op) {
    strategy_ = strategy;
    scaled_op_ = scaled_op;
  }
  /// Take one sample of every operator at simulated time `t`.
  void Sample(sim::SimTime t);

  /// Current capacity estimate for `op` (zeros before any qualifying sample).
  const CapacityEstimate& Capacity(dataflow::OperatorId op) const {
    return capacity_[op];
  }

  const metrics::TimeSeries& series(dataflow::OperatorId op,
                                    SeriesKind kind) const {
    return series_[op][static_cast<size_t>(kind)];
  }
  /// Job-level end-to-end latency quantile snapshots (ms), taken from the
  /// hub's LogHistogram at each sample. Cumulative-to-date
  /// quantiles, not per-window: the histogram has no decay.
  const metrics::TimeSeries& latency_p50_ms() const { return latency_p50_; }
  const metrics::TimeSeries& latency_p99_ms() const { return latency_p99_; }

  /// Samples taken so far: the length of every series.
  uint64_t sample_count() const { return latency_p50_.size(); }
  sim::SimTime last_sample_time() const { return last_time_; }
  size_t operator_count() const { return series_.size(); }
  const std::string& operator_name(dataflow::OperatorId op) const {
    return op_names_[op];
  }

  /// Write every sample as CSV (time_us,op,operator,series,value;
  /// rows ordered by time, then operator, then series ordinal — a pure
  /// function of the sampled values, so byte-identical across runs of the
  /// same seed).
  Status WriteCsv(const std::string& path) const;

 private:
  struct OpCounters {
    uint64_t input_elements = 0;
    uint64_t output_elements = 0;
    uint64_t processed = 0;
    sim::SimTime busy = 0;
  };
  OpCounters ReadCounters(dataflow::OperatorId op) const;

  runtime::ExecutionGraph* graph_;
  const overload::OverloadController* overload_ = nullptr;
  dataflow::OperatorId overload_op_ = 0;
  const scaling::ScalingStrategy* strategy_ = nullptr;
  dataflow::OperatorId scaled_op_ = 0;

  std::vector<std::string> op_names_;                     // by OperatorId
  std::vector<std::vector<metrics::TimeSeries>> series_;  // [op][SeriesKind]
  std::vector<OpCounters> prev_;                          // by OperatorId
  std::vector<CapacityEstimate> capacity_;                // by OperatorId
  metrics::TimeSeries latency_p50_;
  metrics::TimeSeries latency_p99_;
  sim::SimTime last_time_ = 0;
};

}  // namespace drrs::telemetry

#endif  // DRRS_TELEMETRY_TELEMETRY_H_
