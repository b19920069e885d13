#include <gtest/gtest.h>

#include <string>

#include "metrics/histogram.h"
#include "metrics/metrics_hub.h"
#include "metrics/timeseries.h"

namespace drrs::metrics {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeries, RangeAggregates) {
  TimeSeries ts;
  ts.Push(10, 1.0);
  ts.Push(20, 5.0);
  ts.Push(30, 3.0);
  EXPECT_DOUBLE_EQ(ts.MaxIn(0, 100), 5.0);
  EXPECT_DOUBLE_EQ(ts.MeanIn(0, 100), 3.0);
  EXPECT_DOUBLE_EQ(ts.MaxIn(25, 100), 3.0);
  EXPECT_DOUBLE_EQ(ts.MeanIn(15, 25), 5.0);
  EXPECT_DOUBLE_EQ(ts.MaxIn(40, 100), 0.0);  // empty window
}

TEST(TimeSeries, BoundsAreInclusive) {
  TimeSeries ts;
  ts.Push(10, 2.0);
  EXPECT_DOUBLE_EQ(ts.MaxIn(10, 10), 2.0);
}

TEST(TimeSeries, BucketedMean) {
  TimeSeries ts;
  ts.Push(0, 1);
  ts.Push(50, 3);
  ts.Push(100, 10);
  auto buckets = ts.Bucketed(100);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].value, 2.0);   // mean of 1,3
  EXPECT_DOUBLE_EQ(buckets[1].value, 10.0);
}

TEST(TimeSeries, StatsInMatchesScalarAggregates) {
  TimeSeries ts;
  ts.Push(10, 4.0);
  ts.Push(20, 1.0);
  ts.Push(30, 7.0);
  auto stats = ts.StatsIn(0, 100);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, ts.MaxIn(0, 100));
  EXPECT_DOUBLE_EQ(stats.sum, 12.0);
  EXPECT_DOUBLE_EQ(stats.mean(), ts.MeanIn(0, 100));
  // Bounds are inclusive, like MaxIn/MeanIn.
  EXPECT_EQ(ts.StatsIn(20, 20).count, 1u);
  // Empty window: everything reads 0.
  auto empty = ts.StatsIn(40, 100);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(TimeSeries, MeanAbsDeviation) {
  TimeSeries ts;
  ts.Push(10, 8.0);   // |8-10| = 2
  ts.Push(20, 13.0);  // |13-10| = 3
  ts.Push(30, 10.0);  // 0
  EXPECT_DOUBLE_EQ(ts.MeanAbsDeviationIn(10.0, 0, 100), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(ts.MeanAbsDeviationIn(10.0, 25, 100), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanAbsDeviationIn(10.0, 40, 100), 0.0);  // empty
}

TEST(TimeSeries, BucketedMax) {
  TimeSeries ts;
  ts.Push(0, 1);
  ts.Push(50, 3);
  auto buckets = ts.Bucketed(100, /*use_max=*/true);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(buckets[0].value, 3.0);
}

TEST(RateCounter, RatesPerSecond) {
  RateCounter rc(sim::Seconds(1));
  for (int i = 0; i < 500; ++i) rc.Add(sim::Millis(i));           // bucket 0
  for (int i = 0; i < 100; ++i) rc.Add(sim::Seconds(1) + i * 10); // bucket 1
  EXPECT_EQ(rc.total(), 600u);
  TimeSeries rates = rc.ToRateSeries();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates.samples()[0].value, 500.0);
  EXPECT_DOUBLE_EQ(rates.samples()[1].value, 100.0);
}

// ---------------------------------------------------------------------------
// ScalingMetrics
// ---------------------------------------------------------------------------

TEST(ScalingMetrics, PropagationDelayPerSignal) {
  ScalingMetrics sm;
  sm.RecordSignalInjection(0, 100);
  sm.RecordFirstMigration(0, 150);
  sm.RecordSignalInjection(1, 200);
  sm.RecordFirstMigration(1, 500);
  EXPECT_EQ(sm.CumulativePropagationDelay(), 50 + 300);
}

TEST(ScalingMetrics, FirstMigrationOnlyCountsOnce) {
  ScalingMetrics sm;
  sm.RecordSignalInjection(0, 100);
  sm.RecordFirstMigration(0, 150);
  sm.RecordFirstMigration(0, 900);  // later migrations don't move the mark
  EXPECT_EQ(sm.CumulativePropagationDelay(), 50);
}

TEST(ScalingMetrics, DependencyOverheadAveragesPerState) {
  ScalingMetrics sm;
  sm.RecordSignalInjection(0, 100);
  sm.RecordStateMigrated(0, 1, 200);  // delta 100
  sm.RecordStateMigrated(0, 2, 400);  // delta 300
  EXPECT_DOUBLE_EQ(sm.AverageDependencyOverheadUs(), 200.0);
}

TEST(ScalingMetrics, DependencyFallsBackToScaleStart) {
  ScalingMetrics sm;
  sm.RecordScaleStart(50);
  sm.RecordStateMigrated(7, 1, 150);  // unknown signal: measured from start
  EXPECT_DOUBLE_EQ(sm.AverageDependencyOverheadUs(), 100.0);
}

TEST(ScalingMetrics, SuspensionAccumulates) {
  ScalingMetrics sm;
  sm.RecordStall(StallReason::kAwaitingState, 100, 150);
  sm.RecordStall(StallReason::kAlignment, 200, 230);
  sm.RecordStall(StallReason::kBackpressure, 0, 1000);  // tracked separately
  EXPECT_EQ(sm.CumulativeSuspension(), 80);
  EXPECT_EQ(sm.BackpressureTime(), 1000);
  TimeSeries series = sm.SuspensionSeries();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.samples().back().value, 0.08);  // 80us in ms
}

TEST(ScalingMetrics, ZeroLengthStallsIgnored) {
  ScalingMetrics sm;
  sm.RecordStall(StallReason::kAwaitingState, 100, 100);
  EXPECT_EQ(sm.CumulativeSuspension(), 0);
}

// Regression (ISSUE PR-5): stall accounting is pure interval summation.
// Overlapping and adjacent stalls from different subtasks each contribute
// their full duration — RecordStall does not merge intervals, matching the
// paper's per-instance L_s definition.
TEST(ScalingMetrics, OverlappingStallsSumPerReason) {
  ScalingMetrics sm;
  sm.RecordStall(StallReason::kAwaitingState, 100, 200);  // 100
  sm.RecordStall(StallReason::kAwaitingState, 150, 250);  // overlaps: +100
  sm.RecordStall(StallReason::kAlignment, 250, 300);      // adjacent: +50
  EXPECT_EQ(sm.CumulativeSuspension(), 250);
  // One SuspensionSeries point per recorded stall, cumulative in ms.
  TimeSeries series = sm.SuspensionSeries();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.samples()[0].value, 0.1);
  EXPECT_DOUBLE_EQ(series.samples()[2].value, 0.25);
}

TEST(ScalingMetrics, NegativeAndZeroStallsIgnoredEverywhere) {
  ScalingMetrics sm;
  sm.RecordStall(StallReason::kAwaitingState, 100, 100);  // zero length
  sm.RecordStall(StallReason::kAlignment, 200, 150);      // end < begin
  sm.RecordStall(StallReason::kBackpressure, 300, 300);
  EXPECT_EQ(sm.CumulativeSuspension(), 0);
  EXPECT_EQ(sm.BackpressureTime(), 0);
  EXPECT_EQ(sm.SuspensionSeries().size(), 0u);
  EXPECT_EQ(sm.StallHistogram(StallReason::kAwaitingState).count(), 0u);
  EXPECT_EQ(sm.StallHistogram(StallReason::kAlignment).count(), 0u);
}

// Regression (ISSUE PR-5): backpressure stalls are charged to
// BackpressureTime only — they must never leak into the paper's L_s
// (CumulativeSuspension) or its time series, because backpressure exists in
// steady state and is not a scaling cost.
TEST(ScalingMetrics, BackpressureExcludedFromSuspension) {
  ScalingMetrics sm;
  sm.RecordStall(StallReason::kBackpressure, 0, 500);
  sm.RecordStall(StallReason::kBackpressure, 600, 700);
  sm.RecordStall(StallReason::kAwaitingState, 1000, 1100);
  EXPECT_EQ(sm.BackpressureTime(), 600);
  EXPECT_EQ(sm.CumulativeSuspension(), 100);
  TimeSeries series = sm.SuspensionSeries();
  ASSERT_EQ(series.size(), 1u);  // only the awaiting-state stall
  EXPECT_EQ(series.samples()[0].time, 1100);
}

TEST(ScalingMetrics, StallHistogramsFedPerReason) {
  ScalingMetrics sm;
  sm.RecordStall(StallReason::kAwaitingState, 0, sim::Millis(10));
  sm.RecordStall(StallReason::kAwaitingState, 0, sim::Millis(30));
  sm.RecordStall(StallReason::kBackpressure, 0, sim::Millis(500));
  EXPECT_EQ(sm.StallHistogram(StallReason::kAwaitingState).count(), 2u);
  EXPECT_EQ(sm.StallHistogram(StallReason::kAlignment).count(), 0u);
  // Backpressure still gets a distribution even though it is excluded from
  // the L_s aggregate.
  EXPECT_EQ(sm.StallHistogram(StallReason::kBackpressure).count(), 1u);
  EXPECT_NEAR(sm.StallHistogram(StallReason::kAwaitingState).mean(), 20.0,
              1.5);
}

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, EmptyReadsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(LogHistogram, ExactMomentsApproximateQuantiles) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);  // sum/count is exact
  // Log-bucketed quantiles carry ~6% relative error.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 500.0 * 0.08);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 990.0 * 0.08);
  auto s = h.Summarize();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
}

TEST(LogHistogram, QuantilesClampToObservedRange) {
  LogHistogram h;
  h.Record(42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 42.0);
}

TEST(LogHistogram, AppendJsonText) {
  LogHistogram h;
  std::string empty;
  h.AppendJson(&empty);
  EXPECT_EQ(empty,
            "{\"count\":0,\"mean\":0,\"p50\":0,\"p90\":0,\"p99\":0,"
            "\"p999\":0,\"max\":0}");
  h.Record(7.25);
  std::string one = "x:";
  h.AppendJson(&one);
  EXPECT_EQ(one,
            "x:{\"count\":1,\"mean\":7.25,\"p50\":7.25,\"p90\":7.25,"
            "\"p99\":7.25,\"p999\":7.25,\"max\":7.25}");
}

TEST(LogHistogram, HandlesExtremesWithoutOverflow) {
  LogHistogram h;
  h.Record(0.0);
  h.Record(-5.0);    // clamped into the smallest bucket
  h.Record(1e30);    // far beyond kMaxExp's octave midpoint
  h.Record(1e-12);   // below the resolution floor
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_LE(h.Quantile(1.0), 1e30);
}

TEST(MetricsHub, LatencyHistogramTracksMarkers) {
  MetricsHub hub;
  hub.RecordMarkerLatency(sim::Millis(150), sim::Millis(100));  // 50 ms
  hub.RecordMarkerLatency(sim::Millis(300), sim::Millis(100));  // 200 ms
  EXPECT_EQ(hub.latency_histogram().count(), 2u);
  EXPECT_DOUBLE_EQ(hub.latency_histogram().mean(), 125.0);
  // The exact series is untouched by the histogram feed.
  EXPECT_EQ(hub.latency_ms().size(), 2u);
}

TEST(ScalingMetrics, UnitTransferStats) {
  ScalingMetrics sm;
  sm.RecordUnitTransfer(1, 0);
  sm.RecordUnitTransfer(1, 0);
  sm.RecordUnitTransfer(1, 0);
  sm.RecordUnitTransfer(2, 1);
  auto stats = sm.UnitTransferStats();
  EXPECT_EQ(stats.units, 2u);
  EXPECT_EQ(stats.total_transfers, 4u);
  EXPECT_EQ(stats.max_transfers, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_transfers, 2.0);
}

// ---------------------------------------------------------------------------
// Restabilization detection (the paper's 110%-for-100s rule)
// ---------------------------------------------------------------------------

TEST(Restabilization, FindsRecoveryPoint) {
  TimeSeries lat;
  // Baseline 10ms until t=100s; spike to 100ms until 150s; then 10ms again.
  for (int t = 0; t < 300; ++t) {
    double v = (t >= 100 && t < 150) ? 100.0 : 10.0;
    lat.Push(sim::Seconds(t), v);
  }
  sim::SimTime restab = DetectRestabilization(
      lat, sim::Seconds(100), 11.0, sim::Seconds(100));
  EXPECT_EQ(restab, sim::Seconds(149));
}

TEST(Restabilization, NeverDestabilizedReturnsScaleStart) {
  TimeSeries lat;
  for (int t = 0; t < 300; ++t) lat.Push(sim::Seconds(t), 10.0);
  sim::SimTime restab = DetectRestabilization(
      lat, sim::Seconds(100), 11.0, sim::Seconds(50));
  EXPECT_EQ(restab, sim::Seconds(100));
}

TEST(Restabilization, NeverRecoveredReturnsLastSample) {
  TimeSeries lat;
  for (int t = 0; t < 200; ++t) {
    lat.Push(sim::Seconds(t), t < 100 ? 10.0 : 100.0);
  }
  sim::SimTime restab = DetectRestabilization(
      lat, sim::Seconds(100), 11.0, sim::Seconds(50));
  EXPECT_EQ(restab, sim::Seconds(199));
}

TEST(Restabilization, HoldWindowMustBeQuiet) {
  TimeSeries lat;
  // Recovers at 150 but blips at 170; with a 100s hold the blip defers
  // restabilization to 170.
  for (int t = 0; t < 400; ++t) {
    double v = 10.0;
    if (t >= 100 && t < 150) v = 100.0;
    if (t == 170) v = 50.0;
    lat.Push(sim::Seconds(t), v);
  }
  sim::SimTime restab = DetectRestabilization(
      lat, sim::Seconds(100), 11.0, sim::Seconds(100));
  EXPECT_EQ(restab, sim::Seconds(170));
}

}  // namespace
}  // namespace drrs::metrics
