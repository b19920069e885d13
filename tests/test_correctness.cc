#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "runtime/execution_graph.h"
#include "scaling/scale_service.h"
#include "scaling/strategy.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace drrs {
namespace {

using scaling::MakeMechanismStrategy;
using harness::SystemKind;
using workloads::BuildCustomWorkload;
using workloads::CustomParams;

/// Collects per-key output value sequences at the sink.
class PerKeyCollector : public runtime::SinkCollector {
 public:
  void OnRecord(sim::SimTime /*t*/,
                const dataflow::StreamElement& record) override {
    outputs_[record.key].push_back(record.value);
  }
  std::map<dataflow::KeyT, std::vector<int64_t>> outputs_;

  /// Sorted copy (per-key multiset view, order-insensitive).
  std::map<dataflow::KeyT, std::vector<int64_t>> Sorted() const {
    auto out = outputs_;
    for (auto& [key, vals] : out) std::sort(vals.begin(), vals.end());
    return out;
  }
};

/// Final per-key (counter, sum) of the scaled operator across all instances.
std::map<dataflow::KeyT, std::pair<int64_t, int64_t>> FinalState(
    runtime::ExecutionGraph* graph, dataflow::OperatorId op) {
  std::map<dataflow::KeyT, std::pair<int64_t, int64_t>> out;
  for (runtime::Task* t : graph->instances_of(op)) {
    for (dataflow::KeyGroupId kg : t->state()->owned_key_groups()) {
      t->state()->ForEachKey(kg, [&](dataflow::KeyT key) {
        const state::StateCell* cell = t->state()->Get(kg, key);
        out[key] = {cell->counter, cell->sum};
      });
    }
  }
  return out;
}

struct RunOutput {
  std::map<dataflow::KeyT, std::vector<int64_t>> sink_sorted;
  std::map<dataflow::KeyT, std::pair<int64_t, int64_t>> final_state;
  uint64_t source_records = 0;
  uint64_t sink_records = 0;
  verify::InvariantCounts invariants;
};

RunOutput RunOnce(const CustomParams& params, SystemKind kind,
                  uint32_t target_parallelism) {
  auto workload = BuildCustomWorkload(params);
  sim::Simulator sim;
  metrics::MetricsHub hub;
  runtime::ExecutionGraph graph(&sim, workload.graph, runtime::EngineConfig{},
                                &hub);
  EXPECT_TRUE(graph.Build().ok());
  PerKeyCollector collector;
  for (runtime::Task* t : graph.instances_of(graph.OperatorByName("sink"))) {
    t->set_sink_collector(&collector);
  }
  auto strategy = MakeMechanismStrategy(kind, &graph);
  if (strategy != nullptr) {
    sim.ScheduleAt(sim::Seconds(8), [&] {
      EXPECT_TRUE(strategy
                      ->StartScale(scaling::PlanRescale(
                          &graph, workload.scaled_op, target_parallelism))
                      .ok());
    });
  }
  graph.Start();
  sim.RunUntilIdle();
  if (strategy != nullptr) {
    EXPECT_TRUE(strategy->done());
  }

  RunOutput out;
  out.sink_sorted = collector.Sorted();
  out.final_state = FinalState(&graph, workload.scaled_op);
  out.source_records = hub.source_rate().total();
  out.sink_records = hub.sink_rate().total();
  out.invariants = hub.invariants().counts();
  return out;
}

// ---------------------------------------------------------------------------
// Property: scaled output == non-scaled output (paper Section I: "output is
// identical to that of a non-scaling execution for deterministic operators")
// ---------------------------------------------------------------------------

struct Case {
  SystemKind kind;
  uint64_t seed;
  double skew;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = harness::SystemName(info.param.kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed) + "_skew" +
         std::to_string(static_cast<int>(info.param.skew * 10));
}

class ScalingEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(ScalingEquivalence, MatchesNoScaleRun) {
  const Case& c = GetParam();
  CustomParams p;
  p.events_per_second = 1500;
  p.num_keys = 600;
  p.duration = sim::Seconds(20);
  p.record_cost = sim::Micros(300);  // mild pressure during migration
  // Single source: per-key input order is then fully deterministic, so the
  // per-key output value sequences must match the reference exactly. (With
  // multiple sources, only per-(sender, key) order is defined; cross-sender
  // merges may differ between runs, which is checked by the final-state
  // equality in the multi-source suites instead.)
  p.source_parallelism = 1;
  p.agg_parallelism = 3;
  p.sink_parallelism = 1;
  p.num_key_groups = 24;
  p.state_bytes_per_key = 4096;
  p.seed = c.seed;
  p.skew = c.skew;

  RunOutput scaled = RunOnce(p, c.kind, 5);
  RunOutput reference = RunOnce(p, SystemKind::kNoScale, 0);

  // The generator is deterministic, so the reference consumed the same
  // input stream.
  ASSERT_EQ(scaled.source_records, reference.source_records);

  // Exactly-once end to end.
  EXPECT_EQ(scaled.sink_records, scaled.source_records);

  // Engine invariants (Meces intentionally relaxes execution order and is
  // exercised separately below).
  EXPECT_EQ(scaled.invariants.order_violations, 0u);
  EXPECT_EQ(scaled.invariants.duplicate_processing, 0u);
  EXPECT_EQ(scaled.invariants.state_miss_processing, 0u);

  // Final keyed state identical, key by key.
  EXPECT_EQ(scaled.final_state, reference.final_state);

  // Sink outputs identical as per-key multisets (cross-key interleaving is
  // inherently non-deterministic; per-key content is not).
  EXPECT_EQ(scaled.sink_sorted, reference.sink_sorted);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesSeedsSkews, ScalingEquivalence,
    ::testing::Values(
        Case{SystemKind::kDrrs, 1, 0.0}, Case{SystemKind::kDrrs, 2, 0.0},
        Case{SystemKind::kDrrs, 3, 1.0}, Case{SystemKind::kDrrs, 4, 1.5},
        Case{SystemKind::kDrrsDR, 1, 0.0}, Case{SystemKind::kDrrsDR, 3, 1.0},
        Case{SystemKind::kDrrsSchedule, 1, 0.0},
        Case{SystemKind::kDrrsSchedule, 3, 1.0},
        Case{SystemKind::kDrrsSubscale, 1, 0.0},
        Case{SystemKind::kDrrsSubscale, 3, 1.0},
        Case{SystemKind::kMegaphone, 1, 0.0},
        Case{SystemKind::kMegaphone, 3, 1.0},
        Case{SystemKind::kOtfsFluid, 1, 0.0},
        Case{SystemKind::kOtfsFluid, 3, 1.0},
        Case{SystemKind::kOtfsAllAtOnce, 1, 0.0},
        Case{SystemKind::kOtfsAllAtOnce, 3, 1.0},
        Case{SystemKind::kStopRestart, 1, 0.0},
        Case{SystemKind::kStopRestart, 3, 1.0}),
    CaseName);

// ---------------------------------------------------------------------------
// Meces: exactly-once holds; final state converges despite order relaxation
// ---------------------------------------------------------------------------

class MecesEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MecesEquivalence, FinalStateConvergesWithExactlyOnce) {
  CustomParams p;
  p.events_per_second = 1500;
  p.num_keys = 600;
  p.duration = sim::Seconds(20);
  p.record_cost = sim::Micros(300);
  p.source_parallelism = 2;
  p.agg_parallelism = 3;
  p.sink_parallelism = 1;
  p.num_key_groups = 24;
  p.seed = GetParam();

  RunOutput scaled = RunOnce(p, SystemKind::kMeces, 5);
  RunOutput reference = RunOnce(p, SystemKind::kNoScale, 0);
  EXPECT_EQ(scaled.sink_records, scaled.source_records);
  EXPECT_EQ(scaled.invariants.duplicate_processing, 0u);
  // Sums and counters are order-insensitive: they must converge exactly.
  EXPECT_EQ(scaled.final_state, reference.final_state);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MecesEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// DRRS under stress: saturation + skew + many subscales, several seeds
// ---------------------------------------------------------------------------

class DrrsStress : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(DrrsStress, CorrectUnderOverload) {
  auto [seed, skew] = GetParam();
  CustomParams p;
  p.events_per_second = 1500;
  p.num_keys = 600;
  p.duration = sim::Seconds(20);
  p.record_cost = sim::Micros(2200);  // overloaded before scaling
  p.source_parallelism = 1;           // see ScalingEquivalence note
  p.agg_parallelism = 3;
  p.sink_parallelism = 1;
  p.num_key_groups = 24;
  p.state_bytes_per_key = 8192;
  p.seed = seed;
  p.skew = skew;
  RunOutput scaled = RunOnce(p, SystemKind::kDrrs, 6);
  RunOutput reference = RunOnce(p, SystemKind::kNoScale, 0);
  ASSERT_EQ(scaled.source_records, reference.source_records);
  EXPECT_EQ(scaled.sink_records, scaled.source_records);
  EXPECT_EQ(scaled.invariants.order_violations, 0u);
  EXPECT_EQ(scaled.invariants.duplicate_processing, 0u);
  EXPECT_EQ(scaled.invariants.state_miss_processing, 0u);
  EXPECT_EQ(scaled.final_state, reference.final_state);
  EXPECT_EQ(scaled.sink_sorted, reference.sink_sorted);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSkews, DrrsStress,
    ::testing::Combine(::testing::Values(11, 12, 13),
                       ::testing::Values(0.0, 1.0, 1.5)));

}  // namespace
}  // namespace drrs
