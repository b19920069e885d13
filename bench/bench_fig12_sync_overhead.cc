// Reproduces Fig 12: cumulative propagation delay (sum over scaling signals
// of the interval between injection and first triggered state migration) and
// average dependency-related overhead (mean interval from a state unit's
// signal injection to its migration start), for DRRS vs Megaphone vs Meces
// on Q7/Q8/Twitch.
//
// Expected shape (Section V-B): Megaphone's timestamp-driven sequential
// units give it by far the largest values on both metrics; Meces's single
// synchronization gives it the lowest propagation; DRRS sits low on both.

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
  std::printf(
      "DRRS reproduction — Fig 12 (cumulative propagation delay & average "
      "dependency-related overhead)\n\n");
  std::printf("%-8s %-12s %26s %26s\n", "workload", "system",
              "cum-propagation(ms)", "avg-dependency(ms)");
  drrs::bench::TagSet tags;
  for (const char* w : {"q7", "q8", "twitch"}) {
    for (SystemKind kind :
         {SystemKind::kDrrs, SystemKind::kMegaphone, SystemKind::kMeces}) {
      auto spec = BuildByName(w, args.scale);
      auto config = BenchSetups::Config(kind);
      const std::string tag = tags.Unique(
          std::string(w) + "." + drrs::harness::SystemName(kind));
      args.ApplyTelemetry(config, tag);
      if (!args.trace.empty()) {
        config.trace_path = drrs::bench::TaggedPath(args.trace, tag);
      }
      auto r = RunExperiment(spec, config);
      if (!args.json_summary.empty()) {
        drrs::Status js = drrs::harness::WriteJsonSummary(
            r, drrs::bench::TaggedPath(args.json_summary, tag));
        if (!js.ok()) std::fprintf(stderr, "%s\n", js.ToString().c_str());
      }
      std::printf("%-8s %-12s %26.1f %26.1f\n", w, r.system.c_str(),
                  sim::ToMillis(r.cumulative_propagation),
                  r.avg_dependency_us / 1000.0);
    }
    std::printf("\n");
  }
  return 0;
}
