// Overload-control demonstration: a flash crowd drives the aggregator to
// ~2x capacity for a 10 s window. One cell per mechanism shows the
// escalation ladder reaching a steady degraded state — bounded input
// backlog, reported shed rate, bounded latency for the records that are
// kept — while the monitor-only cell shows the unbounded backlog growth
// the controls prevent. The breaker cell adds a mid-surge rescale request
// that the admission pressure gate rejects.
//
//   --mechanism=<name>   run one cell (disabled, drop_tail, random,
//                        coldest, throttle, breaker); default: all
//   --json-summary=<p>   machine-readable per-cell summaries (tagged path)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_workloads.h"
#include "harness/json_summary.h"

namespace {

using drrs::harness::ExperimentConfig;
using drrs::harness::ExperimentResult;
using drrs::harness::RunExperiment;
using drrs::harness::SystemKind;
using drrs::bench::BenchArgs;
using drrs::overload::OverloadOptions;
using drrs::overload::PressureLevelName;
using drrs::overload::ShedPolicy;
namespace sim = drrs::sim;

// The aggregator consumes 5000 rec/s (2 instances x 400 us); the surge
// window [5 s, 15 s) delivers 10000 rec/s. Controls-off, the input backlog
// grows by ~5000 records per surge second.
drrs::workloads::FlashCrowdParams CrowdParams(double scale) {
  drrs::workloads::FlashCrowdParams p;
  p.events_per_second = 2000 * scale;
  p.surge_factor = 5.0;
  return p;
}

// Thresholds sized to the crowd: shedding caps the backlog near
// 2 x queue_bound; the throttle rung caps input at operator capacity.
OverloadOptions ControlledOptions() {
  OverloadOptions o;
  o.enabled = true;
  o.backpressure_threshold = 1500;
  o.shed_threshold = 3000;
  o.throttle_threshold = 6000;
  o.queue_bound = 1500;
  o.record_shed_log = false;
  return o;
}

struct Cell {
  const char* name;
  ExperimentConfig config;
};

std::vector<Cell> BuildCells(const BenchArgs& args) {
  std::vector<Cell> cells;

  auto base = [&args]() {
    ExperimentConfig c;
    c.system = SystemKind::kNoScale;
    c.engine.check_invariants = false;
    // Let the backlog live at the operator input (one queue to monitor and
    // shed from) instead of distributing it over credit-starved senders.
    c.engine.net.input_buffer_capacity = 1u << 20;
    return c;
  };

  {  // Monitor-only: the controller samples the backlog but never acts.
    ExperimentConfig c = base();
    c.overload = ControlledOptions();
    c.overload.backpressure_threshold = 1u << 30;
    c.overload.shed_threshold = 1u << 30;
    c.overload.throttle_threshold = 1u << 30;
    c.overload.shed_policy = ShedPolicy::kNone;
    cells.push_back({"disabled", std::move(c)});
  }
  for (auto [name, policy] : {std::pair{"drop_tail", ShedPolicy::kDropTail},
                              std::pair{"random", ShedPolicy::kSeededRandom},
                              std::pair{"coldest", ShedPolicy::kColdestKeys}}) {
    ExperimentConfig c = base();
    c.overload = ControlledOptions();
    c.overload.shed_policy = policy;
    cells.push_back({name, std::move(c)});
  }
  {  // Throttle rung alone: no shedding, sources capped below capacity.
     // The cap leaves headroom for the hot-key skew — at exactly 5000/s
     // aggregate the hottest instance still receives more than its share.
    ExperimentConfig c = base();
    c.overload = ControlledOptions();
    c.overload.shed_policy = ShedPolicy::kNone;
    c.overload.throttle_rate_per_sec = 3000;
    cells.push_back({"throttle", std::move(c)});
  }
  {  // Breaker: a rescale requested mid-surge is rejected by the pressure
     // gate; the operation waits for the crowd to pass instead of moving
     // state through a melting-down operator.
    ExperimentConfig c = base();
    c.overload = ControlledOptions();
    c.overload.shed_policy = ShedPolicy::kNone;
    c.overload.throttle_rate_per_sec = 3000;
    c.system = SystemKind::kDrrs;
    c.scale_at = sim::Seconds(9);
    c.target_parallelism = 3;
    c.scale_breaker.enabled = true;
    cells.push_back({"breaker", std::move(c)});
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mechanism=", 12) == 0) only = argv[i] + 12;
  }

  std::printf("DRRS overload control — flash crowd at 2x capacity\n");
  std::printf("%-10s %9s %9s %12s %10s %9s %8s %12s\n", "cell", "shed",
              "peak-queue", "p99-kept(ms)", "sink-recs", "throttles",
              "breaker", "final-level");

  drrs::bench::TagSet tags;
  for (Cell& cell : BuildCells(args)) {
    if (!only.empty() && only != cell.name) continue;
    const std::string tag = tags.Unique(std::string("flash-crowd.") +
                                        cell.name);
    args.ApplyTelemetry(cell.config, tag);
    ExperimentResult r =
        RunExperiment(drrs::workloads::BuildFlashCrowdWorkload(
                          CrowdParams(args.scale)),
                      cell.config);
    double p99 = r.hub->latency_histogram().Summarize().p99;
    std::printf("%-10s %9llu %9llu %12.1f %10llu %9llu %8llu %12s\n",
                cell.name,
                static_cast<unsigned long long>(r.overload.records_shed),
                static_cast<unsigned long long>(r.overload.peak_input_backlog),
                p99, static_cast<unsigned long long>(r.sink_records),
                static_cast<unsigned long long>(r.overload.throttle_activations),
                static_cast<unsigned long long>(
                    r.overload.breaker_rejections + r.overload.breaker_opens),
                PressureLevelName(r.final_pressure));
    if (!args.json_summary.empty()) {
      drrs::Status js = drrs::harness::WriteJsonSummary(
          r, drrs::bench::TaggedPath(args.json_summary, tag));
      if (!js.ok()) std::fprintf(stderr, "%s\n", js.ToString().c_str());
    }
  }
  return 0;
}
