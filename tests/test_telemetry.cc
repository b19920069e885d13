// Telemetry layer: LogHistogram quantile edge cases (the sampler's latency
// snapshots lean on them), the sampler cadence and capacity estimator, and
// the exports — every sampled value, the CSV and the JSON summary are
// byte-identical across runs of the same seed and to the committed goldens.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "harness/json_summary.h"
#include "metrics/histogram.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"
#include "workloads/workloads.h"

namespace drrs {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram quantile edge cases
// ---------------------------------------------------------------------------

TEST(LogHistogramQuantiles, EmptyHistogramIsAllZeros) {
  metrics::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(LogHistogramQuantiles, SingleSampleClampsEveryQuantileToIt) {
  metrics::LogHistogram h;
  h.Record(7.25);
  EXPECT_EQ(h.count(), 1u);
  // Bucket midpoints are clamped to the observed [min, max], which collapse
  // to the sample itself — so every quantile is exact, not ~6% off.
  EXPECT_EQ(h.Quantile(0.0), 7.25);
  EXPECT_EQ(h.Quantile(0.5), 7.25);
  EXPECT_EQ(h.Quantile(0.999), 7.25);
  EXPECT_EQ(h.Quantile(1.0), 7.25);
  EXPECT_EQ(h.mean(), 7.25);
}

TEST(LogHistogramQuantiles, SubResolutionValuesShareBucketZero) {
  metrics::LogHistogram h;
  h.Record(0.0);
  h.Record(1e-9);  // below the ~0.001 resolution floor
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // clamped to min
  EXPECT_LE(h.Quantile(1.0), 1e-9);
}

// ---------------------------------------------------------------------------
// Sampler end-to-end (single-partition): cadence, rates, capacity estimator
// ---------------------------------------------------------------------------

workloads::WorkloadSpec BusyCustom() {
  workloads::CustomParams p;
  p.events_per_second = 3000;
  p.num_keys = 500;
  p.skew = 0.3;
  p.duration = sim::Seconds(15);
  p.record_cost = sim::Micros(900);  // ~0.9 load/instance: capacity-eligible
  p.agg_parallelism = 3;
  p.num_key_groups = 24;
  return workloads::BuildCustomWorkload(p);
}

harness::ExperimentConfig TelemetryConfig() {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  c.telemetry.enabled = true;
  return c;
}

TEST(TelemetrySampler, SamplesOnTheConfiguredCadence) {
  auto result = harness::RunExperiment(BusyCustom(), TelemetryConfig());
  ASSERT_NE(result.telemetry, nullptr);
  const auto& t = *result.telemetry;
  // One sample per 500 ms until the sources dry up at 15 s.
  EXPECT_GE(t.sample_count(), 28u);
  EXPECT_LE(t.sample_count(), 31u);
  EXPECT_EQ(t.last_sample_time() % telemetry::kSamplePeriod, 0u);
  ASSERT_GT(t.operator_count(), 0u);
  // The aggregator saw real traffic: service rate near the offered rate.
  dataflow::OperatorId agg = 1;
  EXPECT_EQ(t.operator_name(agg).substr(0, 3), "agg");
  double svc = t.series(agg, telemetry::SeriesKind::kServiceRate)
                   .MeanIn(0, sim::kSimTimeMax);
  EXPECT_GT(svc, 2000.0);
  EXPECT_LT(svc, 4000.0);
  double util = t.series(agg, telemetry::SeriesKind::kUtilization)
                    .MeanIn(0, sim::kSimTimeMax);
  EXPECT_GT(util, 0.5);
  EXPECT_LE(util, 1.05);
  // Every series holds exactly one sample per tick.
  EXPECT_EQ(t.latency_p99_ms().size(), t.sample_count());
  EXPECT_EQ(t.series(agg, telemetry::SeriesKind::kBacklog).size(),
            t.sample_count());
  EXPECT_GE(t.latency_p99_ms().samples().back().value,
            t.latency_p50_ms().samples().back().value);
}

TEST(TelemetrySampler, CapacityEstimatorTracksBusyOperator) {
  auto result = harness::RunExperiment(BusyCustom(), TelemetryConfig());
  ASSERT_NE(result.telemetry, nullptr);
  const auto& cap = result.telemetry->Capacity(1);
  // Utilization ~0.9 clears the 0.5 floor, so candidates accumulated and
  // the extrapolated ceiling sits above the observed service rate.
  EXPECT_GT(cap.samples, 0u);
  EXPECT_GT(cap.rate_per_sec, 2500.0);
  EXPECT_GE(cap.rate_per_sec, cap.smoothed * 0.999);
  EXPECT_GT(cap.last_update, 0u);
}

TEST(TelemetrySampler, DisabledLeavesResultEmpty) {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  auto result = harness::RunExperiment(BusyCustom(), c);
  EXPECT_EQ(result.telemetry, nullptr);
}

// ---------------------------------------------------------------------------
// Determinism and goldens: telemetry (including the CSV artifact) is
// byte-identical across two runs of the same seed, through a DRRS rescale,
// and the CSV and JSON summary of that run match the committed goldens. Runs
// under whatever DRRS_OBSERVE setting this binary was compiled with — CI
// exercises both the OFF (default) and ON (audit and tracing jobs)
// configurations.
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

harness::ExperimentResult RescaleRun(const std::string& csv) {
  harness::ExperimentConfig c = TelemetryConfig();
  c.system = harness::SystemKind::kDrrs;
  c.target_parallelism = 4;
  c.scale_at = sim::Seconds(4);
  c.restab_hold = sim::Seconds(3);
  c.telemetry.csv_path = csv;
  return harness::RunExperiment(BusyCustom(), c);
}

TEST(TelemetryDeterminism, CsvIsByteIdenticalAcrossSameSeedRuns) {
  const std::string dir = ::testing::TempDir();
  auto a = RescaleRun(dir + "telemetry_a.csv");
  auto b = RescaleRun(dir + "telemetry_b.csv");

  ASSERT_NE(a.telemetry, nullptr);
  ASSERT_NE(b.telemetry, nullptr);
  EXPECT_GT(a.source_records, 0u);
  EXPECT_EQ(a.telemetry->sample_count(), b.telemetry->sample_count());

  const std::string csv_a = ReadFile(dir + "telemetry_a.csv");
  ASSERT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, ReadFile(dir + "telemetry_b.csv"));

  // Spot-check the series themselves, not just the serialization.
  for (dataflow::OperatorId op = 0; op < a.telemetry->operator_count(); ++op) {
    for (size_t k = 0; k < telemetry::kSeriesKindCount; ++k) {
      auto kind = static_cast<telemetry::SeriesKind>(k);
      const auto& sa = a.telemetry->series(op, kind).samples();
      const auto& sb = b.telemetry->series(op, kind).samples();
      ASSERT_EQ(sa.size(), sb.size()) << "op " << op << " kind " << k;
      for (size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i].time, sb[i].time) << "op " << op << " kind " << k;
        ASSERT_EQ(sa[i].value, sb[i].value) << "op " << op << " kind " << k;
      }
    }
  }
}

/// Empty the summary's "audit" and "trace" blocks: observe builds fill them,
/// and every other byte must match the default build's text.
std::string BlankObserverBlocks(std::string json) {
  for (const char* key : {"\"audit\":{", "\"trace\":{"}) {
    size_t open = json.find(key);
    if (open == std::string::npos) continue;
    open += std::strlen(key);
    json.erase(open, json.find('}', open) - open);
  }
  return json;
}

TEST(TelemetryGolden, CsvAndSummaryMatchGoldens) {
  const std::string csv = ::testing::TempDir() + "telemetry_golden.csv";
  auto r = RescaleRun(csv);
  ASSERT_NE(r.telemetry, nullptr);
  const std::string golden = DRRS_GOLDEN_DIR "/telemetry_busy_custom_drrs";
  const std::string want_csv = ReadFile(golden + ".csv");
  ASSERT_FALSE(want_csv.empty()) << "missing " << golden << ".csv";
  EXPECT_EQ(ReadFile(csv), want_csv);
  const std::string want_json = ReadFile(golden + ".summary.json");
  ASSERT_FALSE(want_json.empty()) << "missing " << golden << ".summary.json";
  EXPECT_EQ(BlankObserverBlocks(harness::JsonSummary(r)),
            BlankObserverBlocks(want_json));
}

TEST(TelemetryExport, UnwritablePathsFailForEveryWriter) {
  auto r = harness::RunExperiment(BusyCustom(), TelemetryConfig());
  ASSERT_NE(r.telemetry, nullptr);
  const std::string bad = "/nonexistent-dir/x";
  EXPECT_FALSE(r.telemetry->WriteCsv(bad + ".csv").ok());
  EXPECT_FALSE(harness::WriteJsonSummary(r, bad + ".json").ok());
  trace::Tracer::Options opt;
  opt.flight_dump_path.clear();
  trace::Tracer tracer(opt);
  EXPECT_FALSE(tracer.ExportJson(bad + ".trace.json").ok());
}

}  // namespace
}  // namespace drrs
