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

/// \brief Fixed-capacity ring of (time, value) samples: the retention unit
/// of the telemetry layer. Push evicts the oldest sample once full; windowed
/// queries see whatever the ring still holds. Bounded memory is the point —
/// an always-on sampler must not grow with run length.
class RingSeries {
 public:
  explicit RingSeries(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  void Push(sim::SimTime t, double v);

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  uint64_t total_pushed() const { return total_pushed_; }
  size_t capacity() const { return capacity_; }

  /// Samples oldest-first (materializes the ring in push order).
  std::vector<metrics::Sample> Snapshot() const;

  /// Mean of samples with time in [begin, end]; 0 when none retained.
  double MeanIn(sim::SimTime begin, sim::SimTime end) const;
  /// Max of samples with time in [begin, end]; 0 when none retained.
  double MaxIn(sim::SimTime begin, sim::SimTime end) const;
  /// p-quantile (0..1, nearest-rank over the sorted window); 0 when empty.
  double QuantileIn(double q, sim::SimTime begin, sim::SimTime end) const;
  /// Last pushed value (0 when empty) — the "current" reading.
  double Last() const;

 private:
  size_t capacity_;
  std::vector<metrics::Sample> samples_;  ///< ring storage, wraps at capacity_
  size_t next_ = 0;                       ///< insertion slot once wrapped
  bool wrapped_ = false;
  uint64_t total_pushed_ = 0;
};

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
/// Per-series retention (samples). 4096 at kSamplePeriod covers a ~34-minute
/// window, far beyond any bench horizon.
inline constexpr size_t kRingCapacity = 4096;
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

/// \brief Simulated-time telemetry sampler: ring-buffered per-operator
/// series plus latency-quantile snapshots and online capacity estimates,
/// with a windowed query API shaped for a future autoscaling policy engine.
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
/// nothing on the data path.
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

  // ---- windowed query API (the future policy engine's poll surface) ----

  /// Mean of `kind` over samples in [begin, end] for `op`.
  double RateIn(dataflow::OperatorId op, SeriesKind kind, sim::SimTime begin,
                sim::SimTime end) const;
  /// p-quantile (0..1) of `kind` over samples in [begin, end] for `op`.
  double QuantileIn(dataflow::OperatorId op, SeriesKind kind, double q,
                    sim::SimTime begin, sim::SimTime end) const;
  /// Current capacity estimate for `op` (zeros before any qualifying sample).
  const CapacityEstimate& Capacity(dataflow::OperatorId op) const {
    return capacity_[op];
  }

  const RingSeries& series(dataflow::OperatorId op, SeriesKind kind) const {
    return series_[op][static_cast<size_t>(kind)];
  }
  /// Job-level end-to-end latency quantile snapshots (ms), taken from the
  /// hub's LogHistogram at each sample. Cumulative-to-date
  /// quantiles, not per-window: the histogram has no decay.
  const RingSeries& latency_p50_ms() const { return latency_p50_; }
  const RingSeries& latency_p99_ms() const { return latency_p99_; }

  uint64_t sample_count() const { return sample_count_; }
  sim::SimTime last_sample_time() const { return last_time_; }
  size_t operator_count() const { return series_.size(); }
  const std::string& operator_name(dataflow::OperatorId op) const {
    return op_names_[op];
  }

  /// Write every retained sample as CSV (time_us,op,operator,series,value;
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

  std::vector<std::string> op_names_;                 // by OperatorId
  std::vector<std::vector<RingSeries>> series_;       // [op][SeriesKind]
  std::vector<OpCounters> prev_;                      // by OperatorId
  std::vector<CapacityEstimate> capacity_;            // by OperatorId
  RingSeries latency_p50_;
  RingSeries latency_p99_;
  sim::SimTime last_time_ = 0;
  uint64_t sample_count_ = 0;
};

}  // namespace drrs::telemetry

#endif  // DRRS_TELEMETRY_TELEMETRY_H_
