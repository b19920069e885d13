#ifndef DRRS_BENCH_BENCH_WORKLOADS_H_
#define DRRS_BENCH_BENCH_WORKLOADS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "harness/experiment.h"
#include "workloads/workloads.h"

namespace drrs::bench {

/// Scaled-down mirrors of the paper's evaluation setups (Section V-A/V-B).
///
/// The paper runs 20k/1k tps for 10+ minutes with 0.5-3 GB of state on a
/// physical cluster; the simulator preserves every ratio that matters for
/// the mechanisms (bottleneck load factor ~0.9 at the old parallelism,
/// state-transfer time versus input rates, 8 -> 12 instances migrating
/// 111/128 key-groups) at ~1/4 of the rate and ~1/10 of the state so each
/// figure regenerates in about a minute on one core. `scale=1.0` keeps the
/// scaled-down defaults; larger values approach paper scale linearly.
struct BenchSetups {
  static constexpr uint32_t kOldParallelism = 8;
  static constexpr uint32_t kNewParallelism = 12;
  static constexpr uint32_t kKeyGroups = 128;

  /// Warm-up before the scaling request (paper: 300 s).
  static sim::SimTime ScaleAt() { return sim::Seconds(60); }
  static sim::SimTime Horizon() { return 0; }  // run to stream end

  static workloads::NexmarkParams Q7(double scale = 1.0) {
    workloads::NexmarkParams p;
    p.query = 7;
    p.events_per_second = 5000 * scale;
    p.num_auctions = 4000;
    p.auction_skew = 0.6;
    p.duration = sim::Seconds(180);
    p.state_padding_bytes = 200 * 1024;  // ~800 MB total, as in the paper
    p.source_parallelism = 2;
    p.window_parallelism = kOldParallelism;
    p.num_key_groups = kKeyGroups;
    p.record_cost = sim::Micros(1500);  // ~94% load at parallelism 8
    p.seed = 20250705;
    return p;
  }

  static workloads::NexmarkParams Q8(double scale = 1.0) {
    workloads::NexmarkParams p;
    p.query = 8;
    p.events_per_second = 1250 * scale;
    p.num_auctions = 4000;
    p.auction_skew = 0.6;
    p.duration = sim::Seconds(180);
    p.state_padding_bytes = 768 * 1024;  // ~3 GB total, as in the paper
    p.source_parallelism = 2;
    p.window_parallelism = kOldParallelism;
    p.num_key_groups = kKeyGroups;
    p.record_cost = sim::Micros(5000);  // ~78% load at parallelism 8
    p.seed = 20250705;
    return p;
  }

  static workloads::TwitchParams Twitch(double scale = 1.0) {
    workloads::TwitchParams p;
    p.events_per_second = 4000 * scale;
    p.num_users = 20000;
    p.user_skew = 0.8;
    p.duration = sim::Seconds(180);
    p.state_padding_bytes = 25 * 1024;  // ~500 MB total, as in the paper
    p.source_parallelism = 2;
    p.session_parallelism = 4;
    p.loyalty_parallelism = kOldParallelism;
    p.num_key_groups = kKeyGroups;
    p.record_cost = sim::Micros(1500);  // ~0.75 avg load; the hottest
    // instance stays just under 1 despite the Zipf skew, so the pre-scale
    // baseline is stable while scaling disruption remains visible
    p.seed = 20250705;
    return p;
  }

  static harness::ExperimentConfig Config(harness::SystemKind kind) {
    harness::ExperimentConfig c;
    c.system = kind;
    c.target_parallelism = kNewParallelism;
    c.scale_at = ScaleAt();
    c.restab_hold = sim::Seconds(20);  // paper: 100 s at full scale
    c.engine.check_invariants = false;  // measurement runs
    return c;
  }
};

inline workloads::WorkloadSpec BuildByName(const std::string& name,
                                           double scale = 1.0) {
  if (name == "q7") return workloads::BuildNexmarkWorkload(BenchSetups::Q7(scale));
  if (name == "q8") return workloads::BuildNexmarkWorkload(BenchSetups::Q8(scale));
  if (name == "twitch") {
    return workloads::BuildTwitchWorkload(BenchSetups::Twitch(scale));
  }
  std::fprintf(stderr, "unknown workload %s\n", name.c_str());
  std::abort();
}

/// Common CLI: every figure binary accepts `--scale <f>` (workload scale
/// factor) and `--series` (print the full time series, off by default to
/// keep `for b in bench/*; do $b; done` output compact). `--faults` arms
/// the canonical chunk-loss schedule (see FaultConfig) on binaries that
/// support it, for recovery-latency comparisons against the clean run.
/// `--trace=<path>` exports a Chrome/Perfetto trace per run (DRRS_OBSERVE
/// builds only; parsed but inert elsewhere) and `--json-summary=<path>`
/// writes the machine-readable run summary; binaries that run several
/// systems tag the path per run (see TaggedPath).
struct BenchArgs {
  double scale = 1.0;
  bool series = true;
  bool faults = false;
  std::string trace;
  std::string json_summary;
  /// `--telemetry` turns the sampler on; `--telemetry=<path>` additionally
  /// writes the sampled series as CSV (tagged per run like --json-summary).
  bool telemetry = false;
  std::string telemetry_csv;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
        args.scale = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--no-series") == 0) {
        args.series = false;
      } else if (std::strcmp(argv[i], "--faults") == 0) {
        args.faults = true;
      } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
        args.trace = argv[i] + 8;
      } else if (std::strncmp(argv[i], "--json-summary=", 15) == 0) {
        args.json_summary = argv[i] + 15;
      } else if (std::strcmp(argv[i], "--telemetry") == 0) {
        args.telemetry = true;
      } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
        args.telemetry = true;
        args.telemetry_csv = argv[i] + 12;
      }
    }
    return args;
  }

  /// Fold the telemetry flags into an experiment config; `tag` distinguishes
  /// per-run CSV files the same way TaggedPath tags summaries.
  void ApplyTelemetry(harness::ExperimentConfig& c,
                      const std::string& tag) const {
    if (!telemetry) return;
    c.telemetry.enabled = true;
    if (!telemetry_csv.empty()) {
      c.telemetry.csv_path = telemetry_csv;
      const std::string ext = ".csv";
      if (c.telemetry.csv_path.size() >= ext.size() &&
          c.telemetry.csv_path.compare(c.telemetry.csv_path.size() - ext.size(),
                                       ext.size(), ext) == 0) {
        c.telemetry.csv_path.insert(c.telemetry.csv_path.size() - ext.size(),
                                    "." + tag);
      } else {
        c.telemetry.csv_path += "." + tag;
      }
    }
  }
};

/// "out.json" + "drrs" -> "out.drrs.json" (tag lands before a trailing
/// .json so the files still open in trace viewers; appended otherwise).
inline std::string TaggedPath(std::string base, const std::string& tag) {
  const std::string ext = ".json";
  if (base.size() >= ext.size() &&
      base.compare(base.size() - ext.size(), ext.size(), ext) == 0) {
    base.insert(base.size() - ext.size(), "." + tag);
  } else {
    base += "." + tag;
  }
  return base;
}

/// \brief Collision-safe tagging for binaries that run several cells. A bare
/// TaggedPath silently overwrites when two cells share a system name (e.g.
/// the same mechanism at two grid points); TagSet disambiguates repeats with
/// an ordinal suffix ("drrs", "drrs-2", "drrs-3", ...) and aborts with a
/// structured error if a disambiguated tag still collides (only possible
/// when a caller passes conflicting explicit tags like "drrs-2").
class TagSet {
 public:
  /// A unique tag for this use: `tag` the first time, "tag-N" on repeats.
  std::string Unique(const std::string& tag) {
    int& count = counts_[tag];
    ++count;
    std::string unique = tag;
    if (count > 1) {
      unique.push_back('-');
      unique += std::to_string(count);
    }
    if (!emitted_.insert(unique).second) {
      std::fprintf(stderr,
                   "{\"error\":\"tag_collision\",\"tag\":\"%s\","
                   "\"resolved\":\"%s\"}\n",
                   tag.c_str(), unique.c_str());
      std::abort();
    }
    return unique;
  }

  /// TaggedPath with collision handling: repeats of `tag` get distinct
  /// suffixes instead of overwriting the earlier file.
  std::string Path(const std::string& base, const std::string& tag) {
    return TaggedPath(base, Unique(tag));
  }

 private:
  std::map<std::string, int> counts_;
  std::set<std::string> emitted_;
};

/// The canonical `--faults` schedule: drop a quarter of the state chunks
/// (capped) around the migration and recover them via per-chunk
/// ack/retransmission. Chunk faults only fire on kStateChunk transmissions,
/// so a no-scale reference run is naturally unaffected.
inline void ApplyFaultConfig(harness::ExperimentConfig& c) {
  c.faults.seed = 20250705;
  c.faults.chunk.drop_rate = 0.25;
  c.faults.chunk.max_drops = 16;
  c.chunk_retry.enabled = true;
}

}  // namespace drrs::bench

#endif  // DRRS_BENCH_BENCH_WORKLOADS_H_
