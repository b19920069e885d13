// Reproduces Fig 11: source-output throughput over time for the same runs as
// Fig 10 (DRRS vs Megaphone vs Meces on Q7/Q8/Twitch). The expected pattern
// (Section V-B): throughput drops when scaling begins, then overshoots above
// the input rate while the backlog flushes, and finally restabilizes — with
// DRRS showing the smallest dip and the fastest return.

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

double InputRate(const std::string& workload, double scale) {
  if (workload == "q7") return BenchSetups::Q7(scale).events_per_second;
  if (workload == "q8") return BenchSetups::Q8(scale).events_per_second;
  return BenchSetups::Twitch(scale).events_per_second;
}

void RunWorkload(const std::string& workload, const BenchArgs& args,
                 drrs::bench::TagSet& tags) {
  std::printf("\n=== Fig 11 (%s): throughput during 8->12 rescale ===\n",
              workload.c_str());
  double input_rate = InputRate(workload, args.scale);
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

  sim::SimTime from = BenchSetups::ScaleAt();
  std::printf("input rate: %.0f rec/s\n", input_rate);
  std::printf("%-12s %14s %14s %18s %22s\n", "system", "min-tput(r/s)",
              "max-tput(r/s)", "drop-below-input", "mean-|dev|-during-scale");
  for (const auto& r : results) {
    auto rates = r.hub->source_rate().ToRateSeries();
    sim::SimTime to = from + std::max<sim::SimTime>(r.scaling_period,
                                                    sim::Seconds(10));
    auto stats = rates.StatsIn(from, to);
    double dev = rates.MeanAbsDeviationIn(input_rate, from, to);
    std::printf("%-12s %14.0f %14.0f %17.1f%% %20.0f r/s\n", r.system.c_str(),
                stats.min, stats.max, (1.0 - stats.min / input_rate) * 100.0,
                dev);
  }

  if (args.series) {
    for (const auto& r : results) {
      drrs::harness::PrintRateSeries(
          "fig11-" + workload + "-" + r.system + " throughput_rec_per_s",
          r.hub->source_rate());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::printf("DRRS reproduction — Fig 11 (throughput comparison)\n");
  drrs::bench::TagSet tags;
  for (const char* w : {"q7", "q8", "twitch"}) {
    RunWorkload(w, args, tags);
  }
  return 0;
}
