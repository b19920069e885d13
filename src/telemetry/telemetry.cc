#include "telemetry/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "metrics/histogram.h"
#include "metrics/metrics_hub.h"
#include "net/channel.h"
#include "overload/overload_controller.h"
#include "runtime/execution_graph.h"
#include "runtime/task.h"
#include "scaling/strategy.h"
#include "trace/tracer.h"

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

// ---- RingSeries ------------------------------------------------------------

void RingSeries::Push(sim::SimTime t, double v) {
  if (samples_.size() < capacity_) {
    samples_.push_back({t, v});
  } else {
    samples_[next_] = {t, v};
    next_ = (next_ + 1) % capacity_;
    wrapped_ = true;
  }
  ++total_pushed_;
}

std::vector<metrics::Sample> RingSeries::Snapshot() const {
  if (!wrapped_) return samples_;
  std::vector<metrics::Sample> out;
  out.reserve(samples_.size());
  for (size_t i = 0; i < samples_.size(); ++i) {
    out.push_back(samples_[(next_ + i) % samples_.size()]);
  }
  return out;
}

double RingSeries::MeanIn(sim::SimTime begin, sim::SimTime end) const {
  double sum = 0;
  uint64_t n = 0;
  for (const metrics::Sample& s : samples_) {
    if (s.time < begin || s.time > end) continue;
    sum += s.value;
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

double RingSeries::MaxIn(sim::SimTime begin, sim::SimTime end) const {
  double best = 0;
  bool any = false;
  for (const metrics::Sample& s : samples_) {
    if (s.time < begin || s.time > end) continue;
    if (!any || s.value > best) best = s.value;
    any = true;
  }
  return any ? best : 0;
}

double RingSeries::QuantileIn(double q, sim::SimTime begin,
                              sim::SimTime end) const {
  std::vector<double> values;
  for (const metrics::Sample& s : samples_) {
    if (s.time >= begin && s.time <= end) values.push_back(s.value);
  }
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  size_t idx = static_cast<size_t>(q * static_cast<double>(values.size() - 1) +
                                   0.5);
  return values[idx];
}

double RingSeries::Last() const {
  if (samples_.empty()) return 0;
  if (!wrapped_) return samples_.back().value;
  return samples_[(next_ + samples_.size() - 1) % samples_.size()].value;
}

// ---- TelemetryRegistry -----------------------------------------------------

TelemetryRegistry::TelemetryRegistry(runtime::ExecutionGraph* graph,
                                     const TelemetryOptions& options)
    : graph_(graph),
      options_(options),
      latency_p50_(options.ring_capacity),
      latency_p99_(options.ring_capacity) {
  const size_t ops = graph->job().operators().size();
  op_names_.reserve(ops);
  series_.reserve(ops);
  prev_.resize(ops);
  capacity_.resize(ops);
  for (size_t op = 0; op < ops; ++op) {
    op_names_.push_back(graph->job().operators()[op].name);
    std::vector<RingSeries> per_kind;
    per_kind.reserve(kSeriesKindCount);
    for (size_t k = 0; k < kSeriesKindCount; ++k) {
      per_kind.emplace_back(options_.ring_capacity);
    }
    series_.push_back(std::move(per_kind));
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
    const OpCounters cur = ReadCounters(static_cast<dataflow::OperatorId>(op));
    const OpCounters& prev = prev_[op];
    const auto& instances =
        graph_->instances_of(static_cast<dataflow::OperatorId>(op));

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
    if (overload_ != nullptr &&
        static_cast<dataflow::OperatorId>(op) == overload_op_) {
      pressure = static_cast<double>(overload_->level());
    }
    double migration = 0;
    if (strategy_ != nullptr &&
        static_cast<dataflow::OperatorId>(op) == scaled_op_) {
      migration = static_cast<double>(strategy_->staging_bytes());
    }

    std::vector<RingSeries>& s = series_[op];
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
    if (dt > 0 && util >= options_.capacity_min_utilization) {
      double candidate = svc_rate / util;
      CapacityEstimate& cap = capacity_[op];
      cap.smoothed = cap.samples == 0
                         ? candidate
                         : options_.capacity_alpha * candidate +
                               (1.0 - options_.capacity_alpha) * cap.smoothed;
      ++cap.samples;
      cap.last_update = t;
      if (cap.smoothed > cap.rate_per_sec) cap.rate_per_sec = cap.smoothed;
    }

    prev_[op] = cur;

    if (tracer_ != nullptr) {
      tracer_->OnTelemetrySample(static_cast<dataflow::OperatorId>(op),
                                 op_names_[op], SeriesName(SeriesKind::kBacklog),
                                 t, static_cast<int64_t>(backlog));
      tracer_->OnTelemetrySample(
          static_cast<dataflow::OperatorId>(op), op_names_[op],
          SeriesName(SeriesKind::kServiceRate), t,
          static_cast<int64_t>(svc_rate));
      tracer_->OnTelemetrySample(
          static_cast<dataflow::OperatorId>(op), op_names_[op],
          SeriesName(SeriesKind::kUtilization), t,
          static_cast<int64_t>(util * 100.0));  // percent: counters are i64
      if (migration > 0) {
        tracer_->OnTelemetrySample(
            static_cast<dataflow::OperatorId>(op), op_names_[op],
            SeriesName(SeriesKind::kMigrationBytes), t,
            static_cast<int64_t>(migration));
      }
    }
  }

  // Job-level latency quantile snapshots (cumulative-to-date; the histogram
  // has no decay).
  const metrics::LogHistogram& latency = graph_->hub()->latency_histogram();
  latency_p50_.Push(t, latency.Quantile(0.50));
  latency_p99_.Push(t, latency.Quantile(0.99));

  last_time_ = t;
  ++sample_count_;
}

double TelemetryRegistry::RateIn(dataflow::OperatorId op, SeriesKind kind,
                                 sim::SimTime begin, sim::SimTime end) const {
  return series(op, kind).MeanIn(begin, end);
}

double TelemetryRegistry::QuantileIn(dataflow::OperatorId op, SeriesKind kind,
                                     double q, sim::SimTime begin,
                                     sim::SimTime end) const {
  return series(op, kind).QuantileIn(q, begin, end);
}

Status TelemetryRegistry::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open telemetry csv file: " + path);
  }
  std::fprintf(f, "time_us,op,operator,series,value\n");
  // All series share the sampler grid, so emitting sample-index-major with a
  // fixed (op, series) inner order yields rows sorted by time, then
  // operator, then series ordinal.
  std::vector<std::vector<std::vector<metrics::Sample>>> snaps(series_.size());
  for (size_t op = 0; op < series_.size(); ++op) {
    for (size_t k = 0; k < kSeriesKindCount; ++k) {
      snaps[op].push_back(series_[op][k].Snapshot());
    }
  }
  std::vector<metrics::Sample> p50 = latency_p50_.Snapshot();
  std::vector<metrics::Sample> p99 = latency_p99_.Snapshot();
  const size_t rows = p50.size();  // == every series' retained length
  bool ok = true;
  for (size_t i = 0; i < rows && ok; ++i) {
    for (size_t op = 0; op < snaps.size() && ok; ++op) {
      for (size_t k = 0; k < kSeriesKindCount && ok; ++k) {
        if (i >= snaps[op][k].size()) continue;
        const metrics::Sample& s = snaps[op][k][i];
        ok = std::fprintf(f, "%lld,%zu,%s,%s,%.6g\n",
                          static_cast<long long>(s.time), op,
                          op_names_[op].c_str(),
                          SeriesName(static_cast<SeriesKind>(k)),
                          s.value) >= 0;
      }
    }
    if (ok && i < p50.size()) {
      ok = std::fprintf(f, "%lld,-1,job,latency_p50_ms,%.6g\n",
                        static_cast<long long>(p50[i].time),
                        p50[i].value) >= 0;
    }
    if (ok && i < p99.size()) {
      ok = std::fprintf(f, "%lld,-1,job,latency_p99_ms,%.6g\n",
                        static_cast<long long>(p99[i].time),
                        p99[i].value) >= 0;
    }
  }
  if (std::fclose(f) != 0 || !ok) {
    return Status::Internal("short write to telemetry csv file: " + path);
  }
  return Status::OK();
}

}  // namespace drrs::telemetry
