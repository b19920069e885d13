#ifndef DRRS_HARNESS_EXPERIMENT_H_
#define DRRS_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "metrics/metrics_hub.h"
#include "overload/overload_controller.h"
#include "runtime/execution_graph.h"
#include "scaling/scale_service.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "verify/auditor.h"
#include "workloads/workloads.h"

namespace drrs::harness {

/// The systems under evaluation.
enum class SystemKind {
  kNoScale = 0,      ///< reference: no scaling operation
  kDrrs,             ///< full DRRS
  kDrrsDR,           ///< Fig 14 ablation: Decoupling & Re-routing only
  kDrrsSchedule,     ///< Fig 14 ablation: Record Scheduling only
  kDrrsSubscale,     ///< Fig 14 ablation: Subscale Division only
  kMegaphone,        ///< Megaphone port (Section V-A)
  kMeces,            ///< Meces port (Section V-A)
  kOtfsFluid,        ///< generalized OTFS with fluid migration (Fig 1c/2)
  kOtfsAllAtOnce,    ///< generalized OTFS with all-at-once migration (Fig 1b)
  kUnbound,          ///< correctness-free probe (Fig 2)
  kStopRestart,      ///< Stop-Checkpoint-Restart
};

const char* SystemName(SystemKind kind);

/// The scaling::Mechanism behind `kind`. Must not be called with kNoScale,
/// which has no mechanism.
scaling::Mechanism MechanismFor(SystemKind kind);

/// Build a standalone strategy for `kind` over `graph` (null for kNoScale).
/// RunExperiment itself drives the mechanism through a ScaleService; this
/// factory exists for tests that exercise a strategy directly.
std::unique_ptr<scaling::ScalingStrategy> MakeStrategy(
    SystemKind kind, runtime::ExecutionGraph* graph);

/// Restabilization detection: the run has restabilized once latency stays
/// within kRestabTolerance x baseline + kRestabSlackMs for `restab_hold`
/// (the paper uses 110% for 100 s; scaled-down runs use a shorter hold, and
/// the small absolute slack absorbs measurement noise on very low
/// baselines).
inline constexpr double kRestabTolerance = 1.10;
inline constexpr double kRestabSlackMs = 20.0;
/// Period of total-state-bytes sampling into MetricsHub::state_bytes().
/// Sampling stops once all sources are exhausted so run-to-completion
/// experiments still drain the event queue.
inline constexpr sim::SimTime kStateSamplePeriod = sim::Seconds(1);

/// One experiment: run a workload, trigger one rescaling of the workload's
/// scaled operator at `scale_at`, and measure.
struct ExperimentConfig {
  SystemKind system = SystemKind::kDrrs;
  uint32_t target_parallelism = 12;
  sim::SimTime scale_at = sim::Seconds(30);
  /// Simulation horizon; defaults (<=0) to workload duration + 30 s.
  sim::SimTime horizon = 0;
  runtime::EngineConfig engine;
  /// How long latency must stay within the restabilization bound.
  sim::SimTime restab_hold = sim::Seconds(20);
  /// Deterministic fault schedule. All-defaults (`faults.any() == false`)
  /// arms nothing and keeps the run bit-identical to a fault-free build.
  /// Schedules with crashes or checkpoints get a CheckpointCoordinator.
  fault::FaultSchedule faults;
  /// Per-chunk ack/retransmission for state transfers (off by default).
  scaling::ChunkRetryPolicy chunk_retry;
  /// Scale-abort-and-retry watchdog for the control plane (off by default).
  scaling::ScaleService::Options::RetryPolicy scale_retry;
  /// Circuit breaker over scale admission (off by default).
  overload::CircuitBreaker::Policy scale_breaker;
  /// Overload control for the workload's scaled operator: backpressure
  /// escalation, deterministic load shedding and source throttling. The
  /// all-defaults value (`enabled == false`) constructs nothing and keeps
  /// the run bit-identical to a build without the subsystem.
  overload::OverloadOptions overload;
  /// Export a Chrome/Perfetto trace of the run to this path, with flight
  /// dumps next to it as `<trace_path>.flight.json`. Only effective in
  /// DRRS_OBSERVE builds; elsewhere no hook sites exist and the field is
  /// ignored, so benches can parse --trace unconditionally. Empty keeps the
  /// tracer in ring-only mode (flight recorder armed, no full log).
  std::string trace_path;
  /// Telemetry sampler (off by default). Unlike tracing this is a runtime
  /// switch, not a compile gate: when `telemetry.enabled` is false the
  /// harness constructs nothing and the run is bit-identical to a build
  /// without the subsystem. Samples ride the same deterministic timer grid
  /// as the state sampler.
  telemetry::TelemetryOptions telemetry;
};

struct ExperimentResult {
  std::string system;
  std::string workload;

  // Latency summary (ms). Peak/avg are over the analysis window
  // [scale_at, scale_at + analysis_span]; the bench re-derives them over the
  // longest scaling period across systems, per the paper's methodology.
  double baseline_latency_ms = 0;
  double peak_latency_ms = 0;
  double avg_latency_ms = 0;

  sim::SimTime scale_at = 0;
  sim::SimTime scaling_period = 0;       ///< latency-based (110% rule)
  sim::SimTime mechanism_duration = 0;   ///< scale_end - scale_start

  // The paper's three overhead factors (Fig 12/13).
  sim::SimTime cumulative_propagation = 0;
  double avg_dependency_us = 0;
  sim::SimTime cumulative_suspension = 0;

  metrics::ScalingMetrics::TransferStats transfers;  ///< Meces analysis
  metrics::InvariantCounts invariants;
  /// Invariant-audit findings (enabled=false unless built with DRRS_OBSERVE;
  /// finalized only for run-to-completion runs).
  verify::AuditReport audit;

  uint64_t source_records = 0;
  uint64_t sink_records = 0;
  uint64_t executed_events = 0;
  /// Wire-delivery totals across all channels: batched delivery compresses
  /// `delivered_elements` records into `delivered_batches` receiver
  /// notifications (batches <= elements; the ratio is the mean batch size).
  uint64_t delivered_elements = 0;
  uint64_t delivered_batches = 0;

  /// Fault/recovery counters of the run (all zero in fault-free runs).
  metrics::RecoveryMetrics recovery;

  /// Overload-control counters (all zero when the subsystem is off).
  metrics::OverloadMetrics overload;
  /// Per-record shed log (only when config.overload.record_shed_log).
  std::vector<overload::ShedLogEntry> shed_log;
  /// Pressure level at the end of the run (kOk when overload is off).
  overload::PressureLevel final_pressure = overload::PressureLevel::kOk;

  /// Tracer activity (0 unless built with DRRS_OBSERVE).
  uint64_t trace_events = 0;
  uint64_t flight_dumps = 0;

  /// Simulated end time of the run (the simulator clock after the event
  /// queue drained or the horizon hit) — the denominator for records/s.
  sim::SimTime sim_end = 0;

  /// Telemetry series of the run (null unless config.telemetry.enabled).
  std::unique_ptr<telemetry::TelemetryRegistry> telemetry;

  /// Full measurement data for series printing / custom analysis.
  std::unique_ptr<metrics::MetricsHub> hub;

  /// Peak/mean latency over an arbitrary window (for cross-system windows).
  double PeakIn(sim::SimTime begin, sim::SimTime end) const {
    return hub->latency_ms().MaxIn(begin, end);
  }
  double MeanIn(sim::SimTime begin, sim::SimTime end) const {
    return hub->latency_ms().MeanIn(begin, end);
  }
};

/// Run one experiment (fresh simulator/graph per call; deterministic).
ExperimentResult RunExperiment(const workloads::WorkloadSpec& workload,
                               const ExperimentConfig& config);

// ---- printing helpers shared by the per-figure bench binaries ----

/// Print "t_seconds value" series, bucketed.
void PrintSeries(const std::string& label, const metrics::TimeSeries& series,
                 sim::SimTime bucket, bool use_max = false);

/// Print a throughput series (records/s per 1 s bucket).
void PrintRateSeries(const std::string& label, const metrics::RateCounter& rc);

/// Print the per-run headline summary: records, latency, scaling duration,
/// plus the retry/recovery counters whenever any fault machinery fired.
void PrintRunSummary(const ExperimentResult& result);

}  // namespace drrs::harness

#endif  // DRRS_HARNESS_EXPERIMENT_H_
