#include "telemetry/telemetry.h"

#include <cstdio>
#include <string_view>

#include "common/export.h"
#include "metrics/histogram.h"
#include "metrics/metrics_hub.h"
#include "net/channel.h"
#include "observe/observer.h"
#include "overload/overload_controller.h"
#include "runtime/execution_graph.h"
#include "runtime/task.h"
#include "scaling/strategy.h"

namespace drrs::telemetry {

const char* SeriesName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kInputRate:
      return "input_rate";
    case SeriesKind::kOutputRate:
      return "output_rate";
    case SeriesKind::kServiceRate:
      return "service_rate";
    case SeriesKind::kBacklog:
      return "backlog";
    case SeriesKind::kUtilization:
      return "utilization";
    case SeriesKind::kPressure:
      return "pressure";
    case SeriesKind::kMigrationBytes:
      return "migration_bytes";
  }
  return "?";
}

// ---- TelemetryRegistry -----------------------------------------------------

TelemetryRegistry::TelemetryRegistry(runtime::ExecutionGraph* graph)
    : graph_(graph) {
  const size_t ops = graph->job().operators().size();
  op_names_.reserve(ops);
  series_.assign(ops, std::vector<metrics::TimeSeries>(kSeriesKindCount));
  prev_.resize(ops);
  capacity_.resize(ops);
  for (size_t op = 0; op < ops; ++op) {
    op_names_.push_back(graph->job().operators()[op].name);
  }
}

TelemetryRegistry::OpCounters TelemetryRegistry::ReadCounters(
    dataflow::OperatorId op) const {
  OpCounters c;
  for (runtime::Task* t : graph_->instances_of(op)) {
    c.processed += t->processed_records();
    c.busy += t->busy_time();
    for (const net::Channel* ch : t->input_channels()) {
      c.input_elements += ch->delivered_elements();
    }
    for (runtime::OutputEdge& edge : t->output_edges()) {
      for (const net::Channel* ch : edge.channels) {
        c.output_elements += ch->delivered_elements();
      }
    }
  }
  return c;
}

void TelemetryRegistry::Sample(sim::SimTime t) {
  const double dt = sim::ToSeconds(t - last_time_);
  const size_t ops = series_.size();
  for (size_t op = 0; op < ops; ++op) {
    const auto id = static_cast<dataflow::OperatorId>(op);
    const OpCounters cur = ReadCounters(id);
    const OpCounters& prev = prev_[op];
    const auto& instances = graph_->instances_of(id);

    double in_rate = 0, out_rate = 0, svc_rate = 0, util = 0;
    if (dt > 0) {
      in_rate = static_cast<double>(cur.input_elements - prev.input_elements) /
                dt;
      out_rate =
          static_cast<double>(cur.output_elements - prev.output_elements) / dt;
      svc_rate = static_cast<double>(cur.processed - prev.processed) / dt;
      if (!instances.empty()) {
        util = sim::ToSeconds(cur.busy - prev.busy) /
               (dt * static_cast<double>(instances.size()));
      }
    }
    uint64_t backlog = 0;
    for (runtime::Task* task : instances) {
      for (const net::Channel* ch : task->input_channels()) {
        backlog += ch->input_queue_size();
      }
    }
    double pressure = 0;
    if (overload_ != nullptr && id == overload_op_) {
      pressure = static_cast<double>(overload_->level());
    }
    double migration = 0;
    if (strategy_ != nullptr && id == scaled_op_) {
      migration = static_cast<double>(strategy_->staging_bytes());
    }

    std::vector<metrics::TimeSeries>& s = series_[op];
    s[static_cast<size_t>(SeriesKind::kInputRate)].Push(t, in_rate);
    s[static_cast<size_t>(SeriesKind::kOutputRate)].Push(t, out_rate);
    s[static_cast<size_t>(SeriesKind::kServiceRate)].Push(t, svc_rate);
    s[static_cast<size_t>(SeriesKind::kBacklog)].Push(
        t, static_cast<double>(backlog));
    s[static_cast<size_t>(SeriesKind::kUtilization)].Push(t, util);
    s[static_cast<size_t>(SeriesKind::kPressure)].Push(t, pressure);
    s[static_cast<size_t>(SeriesKind::kMigrationBytes)].Push(t, migration);

    // Capacity estimator: only samples where the operator was meaningfully
    // busy say anything about its ceiling; the candidate is the observed
    // service rate extrapolated to full utilization.
    if (dt > 0 && util >= kCapacityMinUtilization) {
      double candidate = svc_rate / util;
      CapacityEstimate& cap = capacity_[op];
      cap.smoothed = cap.samples == 0
                         ? candidate
                         : kCapacityAlpha * candidate +
                               (1.0 - kCapacityAlpha) * cap.smoothed;
      ++cap.samples;
      cap.last_update = t;
      if (cap.smoothed > cap.rate_per_sec) cap.rate_per_sec = cap.smoothed;
    }

    prev_[op] = cur;

    DRRS_OBSERVE(graph_->sim(),
                 OnTelemetrySample(id, op_names_[op],
                                   SeriesName(SeriesKind::kBacklog), t,
                                   static_cast<int64_t>(backlog)));
    DRRS_OBSERVE(graph_->sim(),
                 OnTelemetrySample(id, op_names_[op],
                                   SeriesName(SeriesKind::kServiceRate), t,
                                   static_cast<int64_t>(svc_rate)));
    // Percent: counter values are integers.
    DRRS_OBSERVE(graph_->sim(),
                 OnTelemetrySample(id, op_names_[op],
                                   SeriesName(SeriesKind::kUtilization), t,
                                   static_cast<int64_t>(util * 100.0)));
    if (migration > 0) {
      DRRS_OBSERVE(graph_->sim(),
                   OnTelemetrySample(id, op_names_[op],
                                     SeriesName(SeriesKind::kMigrationBytes),
                                     t, static_cast<int64_t>(migration)));
    }
  }

  // Job-level latency quantile snapshots (cumulative-to-date; the histogram
  // has no decay).
  const metrics::LogHistogram& latency = graph_->hub()->latency_histogram();
  latency_p50_.Push(t, latency.Quantile(0.50));
  latency_p99_.Push(t, latency.Quantile(0.99));

  last_time_ = t;
}

Status TelemetryRegistry::WriteCsv(const std::string& path) const {
  std::string out = "time_us,op,operator,series,value\n";
  auto append_row = [&out](const metrics::Sample& s, std::string_view op,
                           std::string_view name, std::string_view series) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%lld,", static_cast<long long>(s.time));
    out += buf;
    out += op;
    out += ',';
    out += name;
    out += ',';
    out += series;
    std::snprintf(buf, sizeof(buf), ",%.6g\n", s.value);
    out += buf;
  };
  // Every series holds one sample per tick on the shared sampler grid, so
  // emitting sample-index-major with a fixed (op, series) inner order yields
  // rows sorted by time, then operator, then series ordinal.
  for (size_t i = 0; i < sample_count(); ++i) {
    for (size_t op = 0; op < series_.size(); ++op) {
      const std::string op_id = std::to_string(op);
      for (size_t k = 0; k < kSeriesKindCount; ++k) {
        append_row(series_[op][k].samples()[i], op_id, op_names_[op],
                   SeriesName(static_cast<SeriesKind>(k)));
      }
    }
    append_row(latency_p50_.samples()[i], "-1", "job", "latency_p50_ms");
    append_row(latency_p99_.samples()[i], "-1", "job", "latency_p99_ms");
  }
  return WriteFile(path, out, "telemetry csv");
}

}  // namespace drrs::telemetry
