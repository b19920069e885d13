#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/experiment.h"
#include "workloads/workloads.h"

namespace drrs::harness {
namespace {

using scaling::MakeMechanismStrategy;

workloads::WorkloadSpec TinyWorkload() {
  workloads::CustomParams p;
  p.events_per_second = 1000;
  p.num_keys = 200;
  p.duration = sim::Seconds(15);
  p.record_cost = sim::Micros(200);
  p.agg_parallelism = 3;
  p.num_key_groups = 24;
  return workloads::BuildCustomWorkload(p);
}

TEST(Harness, SystemNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (SystemKind kind :
       {SystemKind::kNoScale, SystemKind::kDrrs, SystemKind::kDrrsDR,
        SystemKind::kDrrsSchedule, SystemKind::kDrrsSubscale,
        SystemKind::kMegaphone, SystemKind::kMeces, SystemKind::kOtfsFluid,
        SystemKind::kOtfsAllAtOnce, SystemKind::kUnbound,
        SystemKind::kStopRestart}) {
    std::string name = SystemName(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name << " duplicated";
  }
  EXPECT_STREQ(SystemName(SystemKind::kDrrs), "drrs");
}

TEST(Harness, MakeMechanismStrategyCoversAllSystems) {
  auto w = TinyWorkload();
  sim::Simulator sim;
  metrics::MetricsHub hub;
  runtime::ExecutionGraph graph(&sim, w.graph, runtime::EngineConfig{}, &hub);
  ASSERT_TRUE(graph.Build().ok());
  EXPECT_EQ(MakeMechanismStrategy(SystemKind::kNoScale, &graph), nullptr);
  for (SystemKind kind :
       {SystemKind::kDrrs, SystemKind::kDrrsDR, SystemKind::kDrrsSchedule,
        SystemKind::kDrrsSubscale, SystemKind::kMegaphone, SystemKind::kMeces,
        SystemKind::kOtfsFluid, SystemKind::kOtfsAllAtOnce,
        SystemKind::kUnbound, SystemKind::kStopRestart}) {
    auto strategy = MakeMechanismStrategy(kind, &graph);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), SystemName(kind));
    EXPECT_TRUE(strategy->done());
  }
}

TEST(Harness, NoScaleRunPopulatesResult) {
  ExperimentConfig c;
  c.system = SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  auto r = RunExperiment(TinyWorkload(), c);
  EXPECT_EQ(r.system, "no-scale");
  EXPECT_EQ(r.workload, "custom");
  EXPECT_GT(r.source_records, 10000u);
  EXPECT_EQ(r.sink_records, r.source_records);
  EXPECT_GT(r.executed_events, r.source_records);
  EXPECT_GT(r.baseline_latency_ms, 0.0);
  EXPECT_EQ(r.mechanism_duration, 0);
  ASSERT_NE(r.hub, nullptr);
  EXPECT_FALSE(r.hub->latency_ms().empty());
}

TEST(Harness, ScaledRunMeasuresMechanism) {
  ExperimentConfig c;
  c.system = SystemKind::kDrrs;
  c.target_parallelism = 5;
  c.scale_at = sim::Seconds(5);
  c.restab_hold = sim::Seconds(3);
  auto r = RunExperiment(TinyWorkload(), c);
  EXPECT_GT(r.mechanism_duration, 0);
  EXPECT_GE(r.scaling_period, 0);
  EXPECT_GE(r.peak_latency_ms, r.avg_latency_ms);
  EXPECT_TRUE(r.invariants.Clean());
}

TEST(Harness, DeterministicAcrossRuns) {
  ExperimentConfig c;
  c.system = SystemKind::kDrrs;
  c.target_parallelism = 5;
  c.scale_at = sim::Seconds(5);
  auto a = RunExperiment(TinyWorkload(), c);
  auto b = RunExperiment(TinyWorkload(), c);
  EXPECT_EQ(a.source_records, b.source_records);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.mechanism_duration, b.mechanism_duration);
  EXPECT_DOUBLE_EQ(a.peak_latency_ms, b.peak_latency_ms);
  EXPECT_DOUBLE_EQ(a.avg_latency_ms, b.avg_latency_ms);
}

TEST(Harness, WindowHelpersMatchSeries) {
  ExperimentConfig c;
  c.system = SystemKind::kNoScale;
  c.scale_at = sim::Seconds(5);
  auto r = RunExperiment(TinyWorkload(), c);
  EXPECT_DOUBLE_EQ(r.PeakIn(0, sim::kSimTimeMax),
                   r.hub->latency_ms().MaxIn(0, sim::kSimTimeMax));
  EXPECT_DOUBLE_EQ(r.MeanIn(0, sim::kSimTimeMax),
                   r.hub->latency_ms().MeanIn(0, sim::kSimTimeMax));
}

}  // namespace
}  // namespace drrs::harness
