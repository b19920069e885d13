// Reproduces Fig 14: isolation test on the Twitch workload quantifying each
// DRRS mechanism's contribution. Four variants: full DRRS, Decoupling &
// Re-routing only (DR), Record Scheduling only (Schedule), Subscale Division
// only (Subscale).
//
// Paper findings (Section V-C): the integrated system is best; in isolation
// DR degrades most (+30% peak / +22% avg vs full DRRS), Schedule +18%/+15%,
// Subscale +23%/+18% with the largest fluctuations (its coupled signals
// interfere, Fig 7a).

#include <cstdio>
#include <vector>

#include "bench/bench_workloads.h"
#include "harness/json_summary.h"

namespace {

using drrs::harness::ExperimentResult;
using drrs::harness::RunExperiment;
using drrs::harness::SystemKind;
using drrs::bench::BenchArgs;
using drrs::bench::BenchSetups;
using drrs::bench::BuildByName;
namespace sim = drrs::sim;

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::printf("DRRS reproduction — Fig 14 (mechanism ablation, Twitch)\n\n");

  const SystemKind systems[] = {SystemKind::kDrrs, SystemKind::kDrrsDR,
                                SystemKind::kDrrsSchedule,
                                SystemKind::kDrrsSubscale};
  std::vector<ExperimentResult> results;
  drrs::bench::TagSet tags;
  for (SystemKind kind : systems) {
    auto spec = BuildByName("twitch", args.scale);
    auto config = BenchSetups::Config(kind);
    const std::string tag = tags.Unique(drrs::harness::SystemName(kind));
    args.ApplyTelemetry(config, tag);
    if (!args.trace.empty()) {
      config.trace_path = drrs::bench::TaggedPath(args.trace, tag);
    }
    results.push_back(RunExperiment(spec, config));
    if (!args.json_summary.empty()) {
      drrs::Status js = drrs::harness::WriteJsonSummary(
          results.back(), drrs::bench::TaggedPath(args.json_summary, tag));
      if (!js.ok()) std::fprintf(stderr, "%s\n", js.ToString().c_str());
    }
  }

  sim::SimTime longest = 0;
  for (const auto& r : results) longest = std::max(longest, r.scaling_period);
  sim::SimTime from = BenchSetups::ScaleAt();
  sim::SimTime to = from + longest;

  const ExperimentResult& full = results[0];
  double full_peak = full.PeakIn(from, to);
  double full_avg = full.MeanIn(from, to);
  std::printf("%-16s %12s %12s %14s %14s %16s\n", "variant", "peak(ms)",
              "avg(ms)", "peak vs full", "avg vs full", "suspension(ms)");
  for (const auto& r : results) {
    double peak = r.PeakIn(from, to);
    double avg = r.MeanIn(from, to);
    std::printf("%-16s %12.1f %12.1f %+13.1f%% %+13.1f%% %16.1f\n",
                r.system.c_str(), peak, avg,
                full_peak > 0 ? (peak / full_peak - 1.0) * 100.0 : 0.0,
                full_avg > 0 ? (avg / full_avg - 1.0) * 100.0 : 0.0,
                sim::ToMillis(r.cumulative_suspension));
  }
  std::printf(
      "\npaper: DR +30%%/+22%%, Schedule +18%%/+15%%, Subscale +23%%/+18%% "
      "(peak/avg vs full DRRS)\n");

  if (args.series) {
    for (const auto& r : results) {
      drrs::harness::PrintSeries("fig14-" + r.system + " latency_ms",
                                 r.hub->latency_ms(), sim::Seconds(2),
                                 /*use_max=*/true);
    }
  }
  return 0;
}
