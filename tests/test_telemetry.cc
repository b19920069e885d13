// Telemetry layer: LogHistogram quantile edge cases (the sampler's latency
// snapshots lean on them), RingSeries retention and windowed queries, the
// capacity estimator, and determinism — every sampled value, including the
// CSV export, is byte-identical across runs of the same seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "metrics/histogram.h"
#include "telemetry/telemetry.h"
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
// RingSeries retention + windowed queries
// ---------------------------------------------------------------------------

TEST(RingSeries, EvictsOldestOnceFull) {
  telemetry::RingSeries s(3);
  for (int i = 0; i < 5; ++i) s.Push(sim::Seconds(i), i);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.total_pushed(), 5u);
  auto snap = s.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].time, sim::Seconds(2));  // 0 and 1 evicted
  EXPECT_EQ(snap[2].time, sim::Seconds(4));
  EXPECT_EQ(s.Last(), 4.0);
}

TEST(RingSeries, WindowedQueriesSeeOnlyTheWindow) {
  telemetry::RingSeries s(16);
  for (int i = 0; i < 10; ++i) s.Push(sim::Seconds(i), i);
  EXPECT_EQ(s.MeanIn(sim::Seconds(2), sim::Seconds(4)), 3.0);
  EXPECT_EQ(s.MaxIn(sim::Seconds(2), sim::Seconds(4)), 4.0);
  EXPECT_EQ(s.QuantileIn(0.0, sim::Seconds(2), sim::Seconds(4)), 2.0);
  EXPECT_EQ(s.QuantileIn(1.0, sim::Seconds(2), sim::Seconds(4)), 4.0);
  // An empty window (nothing retained in range) reads as 0.
  EXPECT_EQ(s.MeanIn(sim::Seconds(100), sim::Seconds(200)), 0.0);
  EXPECT_EQ(s.QuantileIn(0.5, sim::Seconds(100), sim::Seconds(200)), 0.0);
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
  double svc = t.RateIn(agg, telemetry::SeriesKind::kServiceRate, 0,
                        sim::kSimTimeMax);
  EXPECT_GT(svc, 2000.0);
  EXPECT_LT(svc, 4000.0);
  double util = t.RateIn(agg, telemetry::SeriesKind::kUtilization, 0,
                         sim::kSimTimeMax);
  EXPECT_GT(util, 0.5);
  EXPECT_LE(util, 1.05);
  EXPECT_FALSE(t.latency_p99_ms().empty());
  EXPECT_GE(t.latency_p99_ms().Last(), t.latency_p50_ms().Last());
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
// Determinism: telemetry (including the CSV artifact) is byte-identical across
// two runs of the same seed, through a DRRS rescale. Runs under whatever
// DRRS_OBSERVE setting this binary was compiled with — CI exercises both the
// OFF (default) and ON (audit and tracing jobs) configurations.
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TelemetryDeterminism, CsvIsByteIdenticalAcrossSameSeedRuns) {
  auto run = [](const std::string& csv) {
    harness::ExperimentConfig c = TelemetryConfig();
    c.system = harness::SystemKind::kDrrs;
    c.target_parallelism = 4;
    c.scale_at = sim::Seconds(4);
    c.restab_hold = sim::Seconds(3);
    c.telemetry.csv_path = csv;
    return harness::RunExperiment(BusyCustom(), c);
  };
  const std::string dir = ::testing::TempDir();
  auto a = run(dir + "telemetry_a.csv");
  auto b = run(dir + "telemetry_b.csv");

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
      auto sa = a.telemetry->series(op, kind).Snapshot();
      auto sb = b.telemetry->series(op, kind).Snapshot();
      ASSERT_EQ(sa.size(), sb.size()) << "op " << op << " kind " << k;
      for (size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i].time, sb[i].time) << "op " << op << " kind " << k;
        ASSERT_EQ(sa[i].value, sb[i].value) << "op " << op << " kind " << k;
      }
    }
  }
}

}  // namespace
}  // namespace drrs
