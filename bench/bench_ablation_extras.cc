// Ablations beyond the paper's Fig 14, for the design choices DESIGN.md
// calls out: subscale granularity, the Re-route Manager policy (Section
// IV-A, B4), record-scheduling depth, and the load-aware planner extension.
// All runs use the saturated custom workload so the mechanisms matter.

#include <cstdio>

#include "harness/experiment.h"
#include "scaling/drrs/drrs.h"
#include "scaling/strategy.h"
#include "workloads/workloads.h"

namespace {

using drrs::harness::SystemKind;
namespace sim = drrs::sim;
namespace scaling = drrs::scaling;

drrs::workloads::CustomParams Saturated() {
  drrs::workloads::CustomParams p;
  p.events_per_second = 3000;
  p.num_keys = 3000;
  p.skew = 0.6;
  p.state_bytes_per_key = 65536;
  p.duration = sim::Seconds(120);
  p.record_cost = sim::Micros(2800);  // ~1.05 load at 8: genuine bottleneck
  p.agg_parallelism = 8;
  p.num_key_groups = 128;
  return p;
}

struct Row {
  double peak_ms;
  double avg_ms;
  sim::SimTime duration;
  sim::SimTime suspension;
  double dependency_ms;
};

Row RunWith(const scaling::DrrsOptions& options, bool balanced_plan = false) {
  auto workload = drrs::workloads::BuildCustomWorkload(Saturated());
  sim::Simulator sim;
  drrs::metrics::MetricsHub hub;
  drrs::runtime::EngineConfig engine;
  engine.check_invariants = false;
  drrs::runtime::ExecutionGraph graph(&sim, workload.graph, engine, &hub);
  drrs::Status st = graph.Build();
  if (!st.ok()) std::abort();
  scaling::DrrsStrategy strategy(&graph, options);
  sim::SimTime scale_at = sim::Seconds(40);
  sim.ScheduleAt(scale_at, [&] {
    scaling::ScalePlan plan =
        balanced_plan
            ? scaling::PlanBalancedRescale(&graph, workload.scaled_op, 12)
            : scaling::PlanRescale(&graph, workload.scaled_op, 12);
    drrs::Status s = strategy.StartScale(plan);
    if (!s.ok()) std::abort();
  });
  graph.Start();
  sim.RunUntilIdle();

  const auto& sm = hub.scaling();
  sim::SimTime restab = drrs::metrics::DetectRestabilization(
      hub.latency_ms(), scale_at,
      hub.latency_ms().MeanIn(0, scale_at - 1) * 1.10 + 20.0,
      sim::Seconds(15));
  Row row;
  row.peak_ms = hub.latency_ms().MaxIn(scale_at, restab);
  row.avg_ms = hub.latency_ms().MeanIn(scale_at, restab);
  row.duration = sm.scale_end() - sm.scale_start();
  row.suspension = sm.CumulativeSuspension();
  row.dependency_ms = sm.AverageDependencyOverheadUs() / 1000.0;
  return row;
}

void Print(const char* label, const Row& r) {
  std::printf("%-28s peak %9.1f ms | avg %8.1f ms | mech %6.2f s | "
              "suspension %8.1f ms | dependency %8.1f ms\n",
              label, r.peak_ms, r.avg_ms, sim::ToSeconds(r.duration),
              sim::ToMillis(r.suspension), r.dependency_ms);
}

}  // namespace

int main() {
  std::printf("DRRS extra ablations (saturated custom workload, 8 -> 12)\n");

  std::printf("\n--- subscale granularity (max key-groups per subscale) ---\n");
  for (uint32_t size : {1u, 4u, 8u, 16u, 64u}) {
    scaling::DrrsOptions o = scaling::FullDrrsOptions();
    o.max_key_groups_per_subscale = size;
    char label[64];
    std::snprintf(label, sizeof(label), "subscale size %u", size);
    Print(label, RunWith(o));
  }

  std::printf("\n--- per-instance subscale concurrency threshold ---\n");
  for (uint32_t limit : {1u, 2u, 4u}) {
    scaling::DrrsOptions o = scaling::FullDrrsOptions();
    o.max_concurrent_per_instance = limit;
    char label[64];
    std::snprintf(label, sizeof(label), "concurrency %u", limit);
    Print(label, RunWith(o));
  }

  std::printf("\n--- re-route manager policy (Section IV-A, B4) ---\n");
  for (uint32_t capacity : {1u, 16u, 64u}) {
    scaling::DrrsOptions o = scaling::FullDrrsOptions();
    o.reroute_batch_capacity = capacity;
    char label[64];
    std::snprintf(label, sizeof(label), "reroute batch %u", capacity);
    Print(label, RunWith(o));
  }

  std::printf("\n--- record scheduling depth ---\n");
  {
    scaling::DrrsOptions o = scaling::FullDrrsOptions();
    o.scheduling = scaling::Scheduling::kNone;
    Print("no scheduling", RunWith(o));
    o.scheduling = scaling::Scheduling::kInterChannel;
    Print("inter-channel only", RunWith(o));
    o.scheduling = scaling::Scheduling::kInterIntra;
    Print("inter + intra (200)", RunWith(o));
  }

  std::printf("\n--- planner: uniform vs load-aware (skewed keys) ---\n");
  Print("uniform repartitioning", RunWith(scaling::FullDrrsOptions(), false));
  Print("balanced repartitioning",
        RunWith(scaling::FullDrrsOptions(), true));
  return 0;
}
