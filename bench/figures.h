#ifndef DRRS_BENCH_FIGURES_H_
#define DRRS_BENCH_FIGURES_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
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

/// \brief One simulated run of a figure: a globally unique id, the workload
/// it runs (built at the run's scale factor) and its experiment config with
/// the cell's overrides applied. Figures that show the same run share the
/// cell, so it is simulated once however many figures print it.
struct Cell {
  std::string id;
  std::function<workloads::WorkloadSpec(double scale)> workload;
  harness::ExperimentConfig config;
};

/// One figure label and the result of the cell it reads.
struct Run {
  std::string label;
  const harness::ExperimentResult* r;
};

/// A figure's runs, one per label in the order of the figure's labels.
using Runs = std::vector<Run>;

/// What a reducer needs besides the results: the scale the cells ran at and
/// whether to print the full time series.
struct ReduceOptions {
  double scale = 1.0;
  bool series = true;
};

/// \brief One paper figure: its figure-local labels (the keys of its
/// trajectory rows), the cell each label reads, and the reducer that prints
/// the figure's section of stdout from those cells' results. The labels are
/// the only place a figure names its cells: the reducer reads its runs by
/// position, in label order.
struct Figure {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  ///< label, cell
  std::function<void(const Runs&, const ReduceOptions&)> reduce;
};

/// \brief The cell registry: every cell once, and the figures over them.
struct Registry {
  std::map<std::string, Cell> cells;
  std::vector<Figure> figures;  ///< in the order they print

  /// AlreadyExists when a cell with the same id is registered.
  Status AddCell(Cell cell);
};

/// Figs 2 and 10-15 and the flash-crowd overload demonstration.
Registry BuildFigureRegistry();

}  // namespace drrs::bench

#endif  // DRRS_BENCH_FIGURES_H_
