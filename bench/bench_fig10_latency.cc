// Reproduces Fig 10: end-to-end latency over time while rescaling the
// bottleneck operator from 8 to 12 instances (111/128 key-groups migrate),
// for DRRS vs Megaphone vs Meces on NEXMark Q7, Q8 and the Twitch pipeline,
// plus the peak/average-latency and scaling-duration reductions quoted in
// Section V-B.

#include <cstdio>
#include <string>
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

void RunWorkload(const std::string& workload, const BenchArgs& args,
                 drrs::bench::TagSet& tags) {
  std::printf("\n=== Fig 10 (%s): end-to-end latency during 8->12 rescale ===\n",
              workload.c_str());
  const SystemKind systems[] = {SystemKind::kDrrs, SystemKind::kMegaphone,
                                SystemKind::kMeces};
  std::vector<ExperimentResult> results;
  for (SystemKind kind : systems) {
    auto spec = BuildByName(workload, args.scale);
    auto config = BenchSetups::Config(kind);
    const std::string tag =
        tags.Unique(workload + "." + drrs::harness::SystemName(kind));
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

  // Paper methodology: statistics over the longest observed scaling period.
  sim::SimTime longest = 0;
  for (const auto& r : results) {
    longest = std::max(longest, r.scaling_period);
  }
  sim::SimTime from = BenchSetups::ScaleAt();
  sim::SimTime to = from + longest;

  std::printf("%-12s %14s %14s %14s %16s %16s\n", "system", "baseline(ms)",
              "peak(ms)", "avg(ms)", "scaling-period(s)", "mech-duration(s)");
  for (const auto& r : results) {
    std::printf("%-12s %14.1f %14.1f %14.1f %16.1f %16.1f\n",
                r.system.c_str(), r.baseline_latency_ms, r.PeakIn(from, to),
                r.MeanIn(from, to), sim::ToSeconds(r.scaling_period),
                sim::ToSeconds(r.mechanism_duration));
  }

  const ExperimentResult& drrs = results[0];
  for (size_t i = 1; i < results.size(); ++i) {
    const ExperimentResult& base = results[i];
    auto pct = [](double ours, double theirs) {
      return theirs <= 0 ? 0.0 : (1.0 - ours / theirs) * 100.0;
    };
    std::printf(
        "drrs vs %-10s: peak -%.1f%%  avg -%.1f%%  scaling time -%.1f%%\n",
        base.system.c_str(), pct(drrs.PeakIn(from, to), base.PeakIn(from, to)),
        pct(drrs.MeanIn(from, to), base.MeanIn(from, to)),
        pct(static_cast<double>(drrs.scaling_period),
            static_cast<double>(base.scaling_period)));
  }

  if (args.series) {
    for (const auto& r : results) {
      drrs::harness::PrintSeries("fig10-" + workload + "-" + r.system +
                                     " latency_ms",
                                 r.hub->latency_ms(), sim::Seconds(2),
                                 /*use_max=*/true);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::printf("DRRS reproduction — Fig 10 (latency comparison)\n");
  drrs::bench::TagSet tags;
  for (const char* w : {"q7", "q8", "twitch"}) {
    RunWorkload(w, args, tags);
  }
  return 0;
}
