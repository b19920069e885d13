// Validates the paper's methodological remark (Section V-A): "we use Sliding
// Window operators instead of Tumbling Window operators, as the latter can
// introduce significant instability in scaling performance due to their
// periodic state accumulation and batch processing nature."
//
// We run the same DRRS rescale at five trigger phases within the window
// period, for a tumbling (10 s / 10 s) and a sliding (10 s / 500 ms) Q7
// variant with list-like pane contents, and compare how the volume of state
// that must migrate — and with it the mechanism time — depends on where in
// the period the trigger lands. A tumbling pane accumulates a full period
// of records and is released at once, so the migrating volume swings with
// the phase; sliding panes drain every 500 ms, keeping it steady.

#include <algorithm>
#include <cstdio>
#include <vector>

#include <memory>

#include "bench/figures.h"
#include "scaling/drrs/drrs.h"
#include "scaling/strategy.h"
#include "workloads/operators.h"

namespace {

using drrs::harness::ExperimentConfig;
using drrs::harness::RunExperiment;
using drrs::harness::SystemKind;
namespace sim = drrs::sim;

struct PhaseResult {
  double migrated_mb;
  double mech_seconds;
};

PhaseResult RunPhase(bool tumbling, sim::SimTime phase) {
  drrs::workloads::NexmarkParams p = drrs::bench::BenchSetups::Q7();
  p.events_per_second = 3000;
  p.record_cost = sim::Micros(2200);
  p.duration = sim::Seconds(120);
  p.state_padding_bytes = 0;  // pane contents dominate the state volume
  auto spec = drrs::workloads::BuildNexmarkWorkload(p);
  // Both variants keep list-like pane contents (4 KB per contained record)
  // so state volume tracks window occupancy; only the slide differs.
  auto* op = spec.graph.mutable_operator(spec.scaled_op);
  sim::SimTime slide = tumbling ? sim::Seconds(10) : sim::Millis(500);
  op->factory = [slide]() {
    return std::make_unique<drrs::workloads::SlidingWindowOperator>(
        sim::Seconds(10), slide, drrs::workloads::AggFn::kCount,
        /*state_padding_bytes=*/0, sim::Seconds(1),
        /*bytes_per_element=*/4096);
  };
  sim::Simulator sim;
  drrs::metrics::MetricsHub hub;
  drrs::runtime::EngineConfig engine;
  engine.check_invariants = false;
  drrs::runtime::ExecutionGraph graph(&sim, spec.graph, engine, &hub);
  if (!graph.Build().ok()) std::abort();
  drrs::scaling::DrrsStrategy strategy(&graph,
                                       drrs::scaling::FullDrrsOptions());
  PhaseResult out{0, 0};
  sim.ScheduleAt(sim::Seconds(60) + phase, [&] {
    auto plan = drrs::scaling::PlanRescale(&graph, spec.scaled_op, 12);
    // Volume that will migrate, at this exact phase of the window period.
    uint64_t bytes = 0;
    for (const auto& m : plan.migrations) {
      bytes += graph.instance(spec.scaled_op, m.from)
                   ->state()
                   ->KeyGroupBytes(m.key_group);
    }
    out.migrated_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    if (!strategy.StartScale(plan).ok()) std::abort();
  });
  graph.Start();
  sim.RunUntilIdle();
  out.mech_seconds = sim::ToSeconds(hub.scaling().scale_end() -
                                    hub.scaling().scale_start());
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Tumbling vs sliding windows under the same DRRS rescale, five trigger "
      "phases within the 10 s window period (Section V-A remark)\n\n");
  const sim::SimTime phases[] = {sim::Millis(0), sim::Millis(2500),
                                 sim::Millis(5000), sim::Millis(7500),
                                 sim::Millis(9500)};
  for (bool tumbling : {false, true}) {
    std::vector<double> volumes;
    std::printf("%-9s migrated state (MB) by phase:", tumbling ? "tumbling"
                                                               : "sliding");
    double mech_min = 1e18, mech_max = 0;
    for (sim::SimTime phase : phases) {
      PhaseResult r = RunPhase(tumbling, phase);
      volumes.push_back(r.migrated_mb);
      mech_min = std::min(mech_min, r.mech_seconds);
      mech_max = std::max(mech_max, r.mech_seconds);
      std::printf(" %8.1f", r.migrated_mb);
      std::fflush(stdout);
    }
    double mn = *std::min_element(volumes.begin(), volumes.end());
    double mx = *std::max_element(volumes.begin(), volumes.end());
    std::printf("   volume spread %.2fx, mechanism %.2f-%.2f s\n",
                mn > 0 ? mx / mn : 0.0, mech_min, mech_max);
  }
  std::printf(
      "\nA larger tumbling spread confirms why the paper's evaluation uses "
      "sliding windows for consistent scaling behaviour.\n");
  return 0;
}
