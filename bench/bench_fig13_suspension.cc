// Reproduces Fig 13: cumulative suspension time over the scaling period for
// DRRS vs Megaphone vs Meces on Q7/Q8/Twitch, plus the Meces back-and-forth
// migration statistics the paper quotes for Q7 (55 sub-key-groups fetched,
// 6.25 transfers on average, up to 46).
//
// Expected shape (Section V-B): Meces's fetch-on-demand conflicts dominate;
// Megaphone grows slowly; DRRS stays lowest thanks to Record Scheduling.

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

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::printf("DRRS reproduction — Fig 13 (cumulative suspension time)\n\n");
  const std::string workloads[] = {"q7", "q8", "twitch"};
  drrs::bench::TagSet tags;
  for (const std::string& w : workloads) {
    std::printf("=== %s ===\n", w.c_str());
    std::printf("%-12s %22s %28s\n", "system", "cum-suspension(ms)",
                "unit transfers (avg/max)");
    std::vector<ExperimentResult> results;
    for (SystemKind kind :
         {SystemKind::kDrrs, SystemKind::kMegaphone, SystemKind::kMeces}) {
      auto spec = BuildByName(w, args.scale);
      auto config = BenchSetups::Config(kind);
      const std::string tag =
          tags.Unique(w + "." + drrs::harness::SystemName(kind));
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
      const auto& r = results.back();
      std::printf("%-12s %22.1f %15.2f / %-8llu\n", r.system.c_str(),
                  sim::ToMillis(r.cumulative_suspension),
                  r.transfers.avg_transfers,
                  static_cast<unsigned long long>(r.transfers.max_transfers));
    }
    if (w == "q7") {
      const auto& meces = results.back();
      std::printf(
          "paper (Q7, Meces): 55 sub-key-groups fetched, avg 6.25 transfers, "
          "max 46 — measured: %llu units, avg %.2f, max %llu\n",
          static_cast<unsigned long long>(meces.transfers.units),
          meces.transfers.avg_transfers,
          static_cast<unsigned long long>(meces.transfers.max_transfers));
    }
    if (args.series) {
      for (const auto& r : results) {
        drrs::harness::PrintSeries(
            "fig13-" + w + "-" + r.system + " cumulative_suspension_ms",
            r.hub->scaling().SuspensionSeries(), sim::Seconds(2),
            /*use_max=*/true);
      }
    }
    std::printf("\n");
  }
  return 0;
}
