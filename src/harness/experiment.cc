#include "harness/experiment.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "observe/observer.h"
#include "runtime/checkpoint.h"
#include "scaling/scale_service.h"
#include "trace/tracer.h"

namespace drrs::harness {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNoScale:
      return "no-scale";
    case SystemKind::kDrrs:
      return "drrs";
    case SystemKind::kDrrsDR:
      return "drrs-dr";
    case SystemKind::kDrrsSchedule:
      return "drrs-schedule";
    case SystemKind::kDrrsSubscale:
      return "drrs-subscale";
    case SystemKind::kMegaphone:
      return "megaphone";
    case SystemKind::kMeces:
      return "meces";
    case SystemKind::kOtfsFluid:
      return "otfs-fluid";
    case SystemKind::kOtfsAllAtOnce:
      return "otfs-all-at-once";
    case SystemKind::kUnbound:
      return "unbound";
    case SystemKind::kStopRestart:
      return "stop-restart";
  }
  return "?";
}

scaling::Mechanism MechanismFor(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNoScale:
      break;  // no mechanism; callers must not ask
    case SystemKind::kDrrs:
      return scaling::Mechanism::kDrrs;
    case SystemKind::kDrrsDR:
      return scaling::Mechanism::kDrrsDR;
    case SystemKind::kDrrsSchedule:
      return scaling::Mechanism::kDrrsSchedule;
    case SystemKind::kDrrsSubscale:
      return scaling::Mechanism::kDrrsSubscale;
    case SystemKind::kMegaphone:
      return scaling::Mechanism::kMegaphone;
    case SystemKind::kMeces:
      return scaling::Mechanism::kMeces;
    case SystemKind::kOtfsFluid:
      return scaling::Mechanism::kOtfsFluid;
    case SystemKind::kOtfsAllAtOnce:
      return scaling::Mechanism::kOtfsAllAtOnce;
    case SystemKind::kUnbound:
      return scaling::Mechanism::kUnbound;
    case SystemKind::kStopRestart:
      return scaling::Mechanism::kStopRestart;
  }
  DRRS_CHECK(false) << "no mechanism for system kind";
  return scaling::Mechanism::kDrrs;
}

std::unique_ptr<scaling::ScalingStrategy> MakeStrategy(
    SystemKind kind, runtime::ExecutionGraph* graph) {
  if (kind == SystemKind::kNoScale) return nullptr;
  return scaling::MakeMechanismStrategy(MechanismFor(kind), graph);
}

ExperimentResult RunExperiment(const workloads::WorkloadSpec& workload,
                               const ExperimentConfig& config) {
  sim::Simulator sim;
  auto hub = std::make_unique<metrics::MetricsHub>();
  runtime::ExecutionGraph graph(&sim, workload.graph, config.engine,
                                hub.get());
  Status st = graph.Build();
  DRRS_CHECK(st.ok()) << st.ToString();

  // Observers install after Build, which emits no hook events. Without a
  // trace path the tracer runs ring-only, so the flight recorder is armed at
  // bounded cost.
#if DRRS_OBSERVE_BUILD
  verify::Auditor auditor;
  sim.set_auditor(&auditor);
  trace::Tracer::Options trace_options;
  if (config.trace_path.empty()) {
    trace_options.ring_only = true;
  } else {
    trace_options.flight_dump_path = config.trace_path + ".flight.json";
  }
  trace::Tracer tracer(trace_options);
  sim.set_tracer(&tracer);
  auditor.set_on_violation([&tracer](const verify::Violation& v) {
    tracer.DumpFlightRecorder("audit violation: " + v.message);
  });
#endif

  // Fault machinery: a checkpoint coordinator whenever the schedule needs
  // recovery points, and the injector itself when any fault is declared.
  std::optional<runtime::CheckpointCoordinator> checkpoints;
  if (!config.faults.checkpoints.empty() || !config.faults.crashes.empty()) {
    checkpoints.emplace(&graph);
  }
  std::optional<fault::FaultInjector> injector;
  if (config.faults.any()) {
    injector.emplace(&graph, config.faults);
    Status fault_st = injector->Arm();
    DRRS_CHECK(fault_st.ok()) << "invalid fault schedule: "
                              << fault_st.ToString();
  }

  // Every mechanism runs behind the same control plane (ScaleService).
  std::optional<scaling::ScaleService> service;
  scaling::ScalingStrategy* strategy = nullptr;
  dataflow::OperatorId op = workload.scaled_op;
  if (config.system != SystemKind::kNoScale) {
    scaling::ScaleService::Options service_options;
    service_options.mechanism = MechanismFor(config.system);
    service_options.retry = config.scale_retry;
    service_options.chunk_retry = config.chunk_retry;
    service_options.breaker = config.scale_breaker;
    service.emplace(&graph, service_options);
    strategy = service->Prepare(op);
    DRRS_CHECK(strategy != nullptr) << "workload scaled_op not rescalable";
    sim.ScheduleAt(config.scale_at, [&service, op, &config]() {
      Status s = service->RequestRescale(op, config.target_parallelism);
      if (!s.ok()) {
        DRRS_LOG(Error) << "RequestRescale failed: " << s.ToString();
      }
    });
  }

  // Overload control for the scaled operator.
  std::optional<overload::OverloadController> overload_ctl;
  if (config.overload.enabled) {
    overload_ctl.emplace(&graph, op, config.overload);
    overload_ctl->Arm();
    if (service) {
      service->set_pressure_provider(
          [&overload_ctl]() { return static_cast<int>(overload_ctl->level()); });
    }
  }

  // Telemetry sampler (runtime-gated, default off). Constructed before
  // Start() so the first sample's deltas are against true zeros.
  std::unique_ptr<telemetry::TelemetryRegistry> telemetry_reg;
  if (config.telemetry.enabled) {
    telemetry_reg = std::make_unique<telemetry::TelemetryRegistry>(&graph);
    if (overload_ctl) telemetry_reg->set_overload(&*overload_ctl, op);
    if (strategy != nullptr) telemetry_reg->set_strategy(strategy, op);
  }

  graph.Start();

  // Samplers fire every `period` from t = period and cancel themselves once
  // every source is exhausted, so a run-to-completion horizon still drains
  // the event queue. Registration order is the same-instant firing order:
  // the state sampler registers first (DESIGN.md §12).
  std::vector<std::unique_ptr<sim::PeriodicProcess>> samplers;
  auto add_sampler = [&](sim::SimTime period, std::function<void()> sample) {
    const size_t self = samplers.size();
    samplers.push_back(std::make_unique<sim::PeriodicProcess>(
        &sim, period, period, [&, self, sample = std::move(sample)]() {
          sample();
          for (runtime::SourceTask* s : graph.sources()) {
            if (!s->exhausted()) return;
          }
          samplers[self]->Cancel();
        }));
  };
  add_sampler(kStateSamplePeriod, [&]() {
    hub->RecordStateBytes(sim.now(), graph.TotalStateBytes());
  });
  if (telemetry_reg) {
    telemetry::TelemetryRegistry* reg = telemetry_reg.get();
    add_sampler(telemetry::kSamplePeriod,
                [&sim, reg]() { reg->Sample(sim.now()); });
  }

  sim::SimTime horizon = config.horizon;
  if (horizon <= 0) horizon = sim::kSimTimeMax;  // run to completion
  sim.RunUntil(horizon);

  ExperimentResult result;
#if DRRS_OBSERVE_BUILD
  // Leak checks only make sense once the event queue fully drained.
  if (horizon == sim::kSimTimeMax) auditor.Finalize();
  result.audit = auditor.Report();
  result.trace_events = tracer.event_count();
  result.flight_dumps = tracer.flight_dumps();
  if (!config.trace_path.empty()) {
    Status trace_st = tracer.ExportJson(config.trace_path);
    if (!trace_st.ok()) {
      DRRS_LOG(Error) << "trace export failed: " << trace_st.ToString();
    }
  }
#endif
  result.system = strategy ? strategy->name() : SystemName(config.system);
  result.workload = workload.name;
  result.scale_at = config.scale_at;

  const metrics::TimeSeries& latency = hub->latency_ms();
  sim::SimTime baseline_from =
      std::max<sim::SimTime>(0, config.scale_at - sim::Seconds(60));
  result.baseline_latency_ms =
      latency.MeanIn(baseline_from, config.scale_at - 1);

  if (strategy != nullptr) {
    sim::SimTime restab = metrics::DetectRestabilization(
        latency, config.scale_at,
        result.baseline_latency_ms * kRestabTolerance + kRestabSlackMs,
        config.restab_hold);
    result.scaling_period = restab - config.scale_at;
    const metrics::ScalingMetrics& sm = hub->scaling();
    if (sm.scale_end() >= 0 && sm.scale_start() >= 0) {
      result.mechanism_duration = sm.scale_end() - sm.scale_start();
    }
    result.cumulative_propagation = sm.CumulativePropagationDelay();
    result.avg_dependency_us = sm.AverageDependencyOverheadUs();
    result.cumulative_suspension = sm.CumulativeSuspension();
    result.transfers = sm.UnitTransferStats();
    // Statistics over the scaling period; when the run never destabilized
    // (period 0) fall back to the hold window so peak/avg stay meaningful.
    sim::SimTime stats_window =
        std::max(result.scaling_period, config.restab_hold);
    result.peak_latency_ms =
        latency.MaxIn(config.scale_at, config.scale_at + stats_window);
    result.avg_latency_ms =
        latency.MeanIn(config.scale_at, config.scale_at + stats_window);
  } else {
    result.peak_latency_ms = latency.MaxIn(config.scale_at, sim::kSimTimeMax);
    result.avg_latency_ms = latency.MeanIn(config.scale_at, sim::kSimTimeMax);
  }
  // Counters only: the monitor's stream table stays with the hub.
  static_assert(std::is_trivially_copyable_v<decltype(result.invariants)>);
  result.invariants = hub->invariants().counts();
  result.source_records = hub->source_rate().total();
  result.sink_records = hub->sink_rate().total();
  result.executed_events = sim.executed_events();
  runtime::ExecutionGraph::DeliveryStats delivery = graph.TotalDeliveryStats();
  result.delivered_elements = delivery.elements;
  result.delivered_batches = delivery.batches;
  result.recovery = hub->recovery();
  result.overload = hub->overload();
  if (overload_ctl) {
    result.shed_log = overload_ctl->shed_log();
    result.final_pressure = overload_ctl->level();
  }
  result.sim_end = sim.now();
  if (telemetry_reg) {
    if (!config.telemetry.csv_path.empty()) {
      Status csv_st = telemetry_reg->WriteCsv(config.telemetry.csv_path);
      if (!csv_st.ok()) {
        DRRS_LOG(Error) << "telemetry csv export failed: " << csv_st.ToString();
      }
    }
    result.telemetry = std::move(telemetry_reg);
  }
  result.hub = std::move(hub);
  return result;
}

void PrintSeries(const std::string& label, const metrics::TimeSeries& series,
                 sim::SimTime bucket, bool use_max) {
  std::printf("# series: %s (t_seconds value)\n", label.c_str());
  for (const metrics::Sample& s : series.Bucketed(bucket, use_max)) {
    std::printf("%8.1f  %12.2f\n", sim::ToSeconds(s.time), s.value);
  }
}

void PrintRateSeries(const std::string& label,
                     const metrics::RateCounter& rc) {
  PrintSeries(label, rc.ToRateSeries(), rc.bucket_width());
}

void PrintRunSummary(const ExperimentResult& result) {
  std::printf("# run: %s / %s\n", result.system.c_str(),
              result.workload.c_str());
  std::printf("#   records            %llu -> %llu (sink)\n",
              static_cast<unsigned long long>(result.source_records),
              static_cast<unsigned long long>(result.sink_records));
  std::printf("#   latency ms         base %.2f  peak %.2f  avg %.2f\n",
              result.baseline_latency_ms, result.peak_latency_ms,
              result.avg_latency_ms);
  std::printf("#   scaling period     %.2f s (mechanism %.2f s)\n",
              sim::ToSeconds(result.scaling_period),
              sim::ToSeconds(result.mechanism_duration));
  const metrics::RecoveryMetrics& r = result.recovery;
  if (r.any()) {
    std::printf(
        "#   faults             chunks dropped %llu dup %llu delayed %llu\n",
        static_cast<unsigned long long>(r.chunks_dropped),
        static_cast<unsigned long long>(r.chunks_duplicated),
        static_cast<unsigned long long>(r.chunks_delayed));
    std::printf(
        "#   recovery           retransmits %llu  dup-suppressed %llu  "
        "forced-installs %llu\n",
        static_cast<unsigned long long>(r.chunk_retransmits),
        static_cast<unsigned long long>(r.duplicate_installs_suppressed),
        static_cast<unsigned long long>(r.forced_chunk_installs));
    std::printf(
        "#   scale-retry        aborts %llu  retries %llu  cancellations "
        "%llu\n",
        static_cast<unsigned long long>(r.scale_aborts),
        static_cast<unsigned long long>(r.scale_retries),
        static_cast<unsigned long long>(r.scale_cancellations));
    std::printf(
        "#   crash/link         crashes %llu  recoveries %llu  replayed "
        "%llu  partitions %llu healed %llu\n",
        static_cast<unsigned long long>(r.crashes_injected),
        static_cast<unsigned long long>(r.crash_recoveries),
        static_cast<unsigned long long>(r.replayed_elements),
        static_cast<unsigned long long>(r.links_partitioned),
        static_cast<unsigned long long>(r.links_healed));
  }
  const metrics::OverloadMetrics& o = result.overload;
  if (o.any()) {
    std::printf(
        "#   overload           shed %llu (tail %llu rand %llu cold %llu)  "
        "transitions %llu\n",
        static_cast<unsigned long long>(o.records_shed),
        static_cast<unsigned long long>(o.shed_drop_tail),
        static_cast<unsigned long long>(o.shed_random),
        static_cast<unsigned long long>(o.shed_cold_key),
        static_cast<unsigned long long>(o.pressure_transitions));
    std::printf(
        "#   backlog/throttle   peak %llu  last %llu  throttle-episodes "
        "%llu\n",
        static_cast<unsigned long long>(o.peak_input_backlog),
        static_cast<unsigned long long>(o.last_input_backlog),
        static_cast<unsigned long long>(o.throttle_activations));
    std::printf(
        "#   breaker            opens %llu  probes %llu  rejections %llu\n",
        static_cast<unsigned long long>(o.breaker_opens),
        static_cast<unsigned long long>(o.breaker_probes),
        static_cast<unsigned long long>(o.breaker_rejections));
  }
}

}  // namespace drrs::harness
