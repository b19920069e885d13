// Figure-cell benchmark: what this simulator costs to produce paper figure
// cells, whether the scaled cells' output equals the no-scale reference, and
// (traced) where the wall time goes, layer by layer.
//
//   perfbench_cells --workload <q7-window|q8-migrate|twitch-observed>
//                   [--seed N] [--seconds S] [--trace 0|1]
//   perfbench_cells --list-metrics
//
// Every cell runs through the public harness::RunExperiment path on one
// thread, to the end of its stream. A run:
//   1. runs every cell unwrapped: the first timed round, and the counts
//      every later run of the cell must repeat (no-perturbation check);
//   2. runs every cell wrapped once, capturing what reaches the sink, and
//      compares each scaled cell's results with the no-scale cell's (the
//      oracle); a second no-scale run must emit the identical multiset;
//   3. repeats unwrapped rounds until S seconds of rounds have run (at least
//      kMinRounds); `--trace 1` adds one traced round after the second.
//      Set-up alone is timed kSetupProbes times before each unwrapped run.
// End-to-end figures come from the unwrapped rounds only. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "oracle.h"
#include "probe.h"
#include "workloads/workloads.h"

namespace {

using drrs::harness::ExperimentConfig;
using drrs::harness::ExperimentResult;
using drrs::harness::SystemKind;
using drrs::harness::SystemName;
namespace sim = drrs::sim;
namespace workloads = drrs::workloads;
using perfbench::CellProbe;
using perfbench::Divergence;
using perfbench::NowNs;
using perfbench::ResultMultiset;

/// The figures' workload seed, and the seed held out from tuning to confirm
/// performance claims on inputs no change was written against.
constexpr uint64_t kFigureSeed = 20250705;
constexpr uint64_t kHeldOutSeed = 20251016;

/// Set-up-only runs (simulated horizon of 1 us) before each timed run of a
/// cell; setup_s sums the per-cell medians of these. Spreading them over the
/// run lets host drift average out as it does for the rounds.
constexpr int kSetupProbes = 8;
/// Timed rounds per run, at least: each cell's median rests on this many.
constexpr size_t kMinRounds = 2;
/// No new round starts after this many wall seconds, whatever --seconds says.
constexpr double kRoundCutoffS = 100;

// ---- workloads
//
// The setups are the paper-figure ones (fig 10 for NEXMark, fig 2 for
// Twitch) at scale 1.0, copied here so the benchmark's inputs stay fixed
// when a figure is retuned.

struct Workload {
  const char* name;
  std::vector<SystemKind> cells;  ///< cells[0] is the no-scale reference
  std::function<workloads::WorkloadSpec(uint64_t seed)> build;
  bool observed;  ///< invariant checks and telemetry on, as fig 2 runs them
};

workloads::NexmarkParams Nexmark(int query, uint64_t seed) {
  workloads::NexmarkParams p;
  p.query = query;
  p.events_per_second = query == 7 ? 5000 : 1250;
  p.num_auctions = 4000;
  p.auction_skew = 0.6;
  p.duration = sim::Seconds(180);
  p.state_padding_bytes = (query == 7 ? 200 : 768) * 1024;
  p.source_parallelism = 2;
  p.window_parallelism = 8;
  p.num_key_groups = 128;
  p.record_cost = sim::Micros(query == 7 ? 1500 : 5000);
  p.seed = seed;
  return p;
}

workloads::WorkloadSpec TwitchFig02(uint64_t seed) {
  workloads::TwitchParams p;
  p.events_per_second = 4000;
  p.num_users = 20000;
  p.user_skew = 0.5;
  p.duration = sim::Seconds(180);
  p.state_padding_bytes = 25 * 1024;
  p.source_parallelism = 2;
  p.session_parallelism = 4;
  p.loyalty_parallelism = 8;
  p.num_key_groups = 128;
  p.record_cost = sim::Micros(1600);
  p.seed = seed;
  p.deterministic_gaps = true;
  return workloads::BuildTwitchWorkload(p);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"q7-window",
       {SystemKind::kNoScale, SystemKind::kDrrs, SystemKind::kMegaphone,
        SystemKind::kMeces},
       [](uint64_t seed) {
         return workloads::BuildNexmarkWorkload(Nexmark(7, seed));
       },
       false},
      {"q8-migrate",
       {SystemKind::kNoScale, SystemKind::kDrrs, SystemKind::kMegaphone,
        SystemKind::kMeces, SystemKind::kStopRestart},
       [](uint64_t seed) {
         return workloads::BuildNexmarkWorkload(Nexmark(8, seed));
       },
       false},
      {"twitch-observed",
       {SystemKind::kNoScale, SystemKind::kUnbound, SystemKind::kOtfsFluid,
        SystemKind::kDrrs},
       TwitchFig02, true},
  };
  return kWorkloads;
}

ExperimentConfig CellConfig(const Workload& w, SystemKind kind) {
  ExperimentConfig c;
  c.system = kind;
  c.target_parallelism = 12;
  c.scale_at = sim::Seconds(60);
  c.restab_hold = sim::Seconds(20);
  c.engine.check_invariants = w.observed;
  c.telemetry.enabled = w.observed;
  return c;
}

// ---- process memory

/// Returns freed heap to the OS and restarts the kernel's peak-RSS mark, so
/// the next VmHWM reading is the peak of what runs in between.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- one cell

enum class Mode {
  kBare,        ///< unwrapped: the program alone
  kWrapped,     ///< wrappers count calls and capture results
  kTraced,      ///< wrappers also time every call
  kSetupProbe,  ///< wrapped, stopped at 1 us simulated: set-up only
};

struct CellRun {
  SystemKind kind = SystemKind::kNoScale;
  double wall_s = 0;   ///< workload build through RunExperiment's return
  double setup_s = 0;  ///< workload build through the first source Next()
  double rss_mb = 0;   ///< peak RSS while the cell ran
  uint64_t source_records = 0;
  uint64_t sink_records = 0;
  uint64_t executed_events = 0;
  uint64_t delivered_elements = 0;
  uint64_t delivered_batches = 0;
  uint64_t state_miss = 0;
  uint64_t transfers = 0;
  double mechanism_sim_s = 0;
  double state_peak_bytes = 0;
  /// State-size samples at or above 2^63: the modelled byte total wrapped
  /// below zero, so they are left out of state_peak_bytes.
  uint64_t state_wrapped_samples = 0;
  std::unique_ptr<CellProbe> probe;  ///< null for a bare run
};

CellRun RunCell(const Workload& w, SystemKind kind, uint64_t seed, Mode mode,
                bool check_invariants = true) {
  CellRun run;
  run.kind = kind;
  if (mode != Mode::kBare) {
    run.probe = std::make_unique<CellProbe>(mode == Mode::kTraced);
  }
  // Set-up probes keep the warm heap: they time set-up work, not the page
  // faults of a heap just handed back to the kernel.
  if (mode != Mode::kSetupProbe) ResetPeakRss();
  const int64_t start = NowNs();
  workloads::WorkloadSpec spec = w.build(seed);
  if (run.probe) perfbench::Instrument(&spec.graph, run.probe.get());
  ExperimentConfig config = CellConfig(w, kind);
  if (mode == Mode::kSetupProbe) config.horizon = 1;
  config.engine.check_invariants = config.engine.check_invariants &&
                                   check_invariants;
  ExperimentResult r = drrs::harness::RunExperiment(spec, config);
  const int64_t end = NowNs();
  run.wall_s = (end - start) / 1e9;
  run.rss_mb = PeakRssMb();
  if (run.probe && run.probe->first_next_ns >= 0) {
    run.setup_s = (run.probe->first_next_ns - start) / 1e9;
  }
  run.source_records = r.source_records;
  run.sink_records = r.sink_records;
  run.executed_events = r.executed_events;
  run.delivered_elements = r.delivered_elements;
  run.delivered_batches = r.delivered_batches;
  run.state_miss = r.invariants.state_miss_processing;
  run.transfers = r.transfers.total_transfers;
  run.mechanism_sim_s = sim::ToSeconds(r.mechanism_duration);
  for (const drrs::metrics::Sample& sample : r.hub->state_bytes().samples()) {
    if (sample.value >= 0x1p63) {
      ++run.state_wrapped_samples;
    } else {
      run.state_peak_bytes = std::max(run.state_peak_bytes, sample.value);
    }
  }
  return run;
}

// ---- statistics and output

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Metrics of one run, by name, with their units.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_[name] = {std::isfinite(value) ? value : 0.0, unit};
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const { return values_.at(name).first; }
  const std::map<std::string, std::pair<double, const char*>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, const char*>> values_;
};

struct MetricDef {
  std::string name;
  const char* unit;
};

const char* const kOperators[] = {"q7-window", "q8-window", "parse", "filter",
                                  "sessionize", "loyalty", "normalize"};
const SystemKind kMechanisms[] = {
    SystemKind::kDrrs,      SystemKind::kMegaphone, SystemKind::kMeces,
    SystemKind::kStopRestart, SystemKind::kUnbound, SystemKind::kOtfsFluid};

bool IsOracleCell(SystemKind kind) {
  // Unbound drops state on purpose (it is the correctness-free probe), so
  // its divergence is reported apart and never counted as result loss.
  return kind != SystemKind::kNoScale && kind != SystemKind::kUnbound;
}

std::vector<MetricDef> EndToEndMetrics() {
  return {{"wall_s", "s"}, {"records_per_s", "1/s"}, {"setup_s", "s"}};
}

/// The per-layer catalogue is the same for every workload, so a metric that
/// does not apply to a workload (an operator or mechanism it lacks) reads 0.
std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> m = {{"peak_rss_mb", "MB"},
                              {"workloads.source_calls", "count"},
                              {"workloads.source_s", "s"}};
  for (const char* op : kOperators) {
    const std::string base = std::string("workloads.op.") + op;
    m.push_back({base + ".records", "count"});
    m.push_back({base + ".watermarks", "count"});
    m.push_back({base + ".self_s", "s"});
    m.push_back({base + ".fire_s", "s"});
  }
  const MetricDef rest[] = {{"runtime.emit_calls", "count"},
                            {"runtime.emit_s", "s"},
                            {"sim.events", "count"},
                            {"sim.events_per_record", "ratio"},
                            {"sim.residual_s", "s"},
                            {"net.delivered_elements", "count"},
                            {"net.delivered_batches", "count"},
                            {"net.mean_batch", "ratio"},
                            {"state.peak_bytes", "bytes"},
                            {"state.wrapped_samples", "count"}};
  m.insert(m.end(), std::begin(rest), std::end(rest));
  for (SystemKind kind : kMechanisms) {
    const std::string base = std::string("scaling.") + SystemName(kind);
    m.push_back({base + ".overhead_s", "s"});
    m.push_back({base + ".rss_mb", "MB"});
    m.push_back({base + ".mechanism_sim_s", "s"});
    m.push_back({base + ".transfers", "count"});
  }
  m.push_back({"metrics.invariant_overhead_s", "s"});
  m.push_back({"metrics.state_miss", "count"});
  m.push_back({"harness.results_expected", "count"});
  m.push_back({"harness.results_failed", "count"});
  m.push_back({"harness.result_loss", "ratio"});
  for (SystemKind kind : kMechanisms) {
    if (!IsOracleCell(kind)) continue;
    const std::string base = std::string("harness.") + SystemName(kind);
    m.push_back({base + ".results_missing", "count"});
    m.push_back({base + ".results_extra", "count"});
  }
  m.push_back({"harness.unbound_divergent_results", "count"});
  m.push_back({"trace.wall_s", "s"});
  m.push_back({"trace.setup_s", "s"});
  m.push_back({"trace.capture_s", "s"});
  m.push_back({"trace.overhead_s", "s"});
  return m;
}

void PrintJsonLine(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<MetricDef>& defs, const MetricSet& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < defs.size(); ++i) {
    const double v = ms.Has(defs[i].name) ? ms.Get(defs[i].name) : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name.c_str(), v, defs[i].unit);
  }
  std::printf("}}\n");
}

// ---- provenance

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintProvenance(const Workload& w, uint64_t seed, int seconds,
                     bool trace) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("# perfbench workload=%s seed=%llu%s seconds=%d trace=%d\n",
              w.name, static_cast<unsigned long long>(seed),
              seed == kFigureSeed    ? " (figure seed)"
              : seed == kHeldOutSeed ? " (held-out seed)"
                                     : "",
              seconds, trace ? 1 : 0);
  std::printf("# host nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), __VERSION__,
              PERFBENCH_BUILD_TYPE, optimized ? "" : " (NOT OPTIMISED)");
  std::printf("# cells:");
  for (SystemKind kind : w.cells) std::printf(" %s", SystemName(kind));
  std::printf("  (threads=1, run to stream end)\n");
}

// ---- the run

struct Args {
  std::string workload;
  uint64_t seed = kFigureSeed;
  int seconds = 12;
  bool trace = false;
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args->list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return true;
}

/// What the oracle and the no-perturbation check saw of one cell.
struct CellTruth {
  bool have_counts = false;
  uint64_t executed_events = 0;
  uint64_t source_records = 0;
  uint64_t sink_records = 0;
  bool have_digest = false;
  uint64_t digest = 0;
  Divergence divergence;
};

class Bench {
 public:
  Bench(const Workload& w, const Args& args) : w_(w), args_(args) {}

  int Run() {
    const int64_t t0 = NowNs();
    PrintProvenance(w_, args_.seed, args_.seconds, args_.trace);

    // Timed rounds run every cell unwrapped, so the end-to-end figures are
    // the program's own. The first also warms up and fixes the counts every
    // other run of the cell must reproduce.
    BareRound();
    // One wrapped round feeds the oracle; a second wrapped no-scale run
    // checks that the reference itself is deterministic.
    for (SystemKind kind : w_.cells) {
      CellRun run = RunCell(w_, kind, args_.seed, Mode::kWrapped);
      Check(&run, "wrapped");
    }
    CellRun again =
        RunCell(w_, SystemKind::kNoScale, args_.seed, Mode::kWrapped);
    Check(&again, "repeated");
    // Later runs compare by digest; dropping the reference keeps it out of
    // the peak RSS of the timed rounds.
    reference_ = ResultMultiset();

    for (;;) {
      const bool enough = measured_s_ >= args_.seconds &&
                          round_wall_.size() >= kMinRounds &&
                          (!args_.trace || traced_.has_value());
      if (enough || (NowNs() - t0) / 1e9 >= kRoundCutoffS) break;
      BareRound();
      if (args_.trace && !traced_) TracedRound();
    }
    PrintOracle();
    MetricSet ms = EndToEnd();
    if (args_.trace) PerLayer(&ms);
    PrintMetrics(ms);
    PrintJsonLine(correct_, attempted_, failed_,
                  args_.trace ? PerLayerMetrics() : EndToEndMetrics(), ms);
    return 0;
  }

 private:
  void Fail(const std::string& why) {
    std::printf("# CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }

  /// Every cell run: it must produce output and repeat the counts of the
  /// cell's first unwrapped run.
  void CheckCounts(const CellRun& run, const char* label) {
    const std::string what =
        std::string(SystemName(run.kind)) + " " + label + " run";
    CellTruth& t = truth_[run.kind];
    ++attempted_;
    if (run.source_records == 0 || run.sink_records == 0) {
      ++failed_;
      Fail(what + " produced no output");
    }
    if (!t.have_counts) {
      t.have_counts = true;
      t.executed_events = run.executed_events;
      t.source_records = run.source_records;
      t.sink_records = run.sink_records;
    } else if (run.executed_events != t.executed_events ||
               run.source_records != t.source_records ||
               run.sink_records != t.sink_records) {
      Fail(what + " differs from the first unwrapped run in executed "
                  "events, source or sink records: the figures are void");
    }
  }

  /// No-perturbation check on a wrapped run, then the oracle on its results.
  void Check(CellRun* run, const char* label) {
    const std::string what =
        std::string(SystemName(run->kind)) + " " + label + " run";
    CellTruth& t = truth_[run->kind];
    CheckCounts(*run, label);
    std::vector<perfbench::Result> captured = std::move(run->probe->results);
    if (captured.size() != run->sink_records) {
      Fail(what + " captured " + std::to_string(captured.size()) +
           " results but the sink got " + std::to_string(run->sink_records));
    }
    ResultMultiset results(std::move(captured));
    const uint64_t digest = results.Digest();
    if (t.have_digest && digest != t.digest) {
      Fail(what + " emitted another result multiset than an earlier run of "
                  "the same seed");
    }
    if (run->kind == SystemKind::kNoScale) {
      if (!t.have_digest) {
        reference_ = std::move(results);
        reference_size_ = reference_.size();
      } else if (reference_.size() > 0 &&
                 perfbench::Compare(reference_, results).failed() != 0) {
        Fail(what + " diverges from the first no-scale run");
      }
    } else if (!t.have_digest) {
      t.divergence = perfbench::Compare(reference_, results);
    }
    t.have_digest = true;
    t.digest = digest;
  }

  void BareRound() {
    double wall = 0;
    std::printf("# round %zu unwrapped", round_wall_.size() + 1);
    for (SystemKind kind : w_.cells) {
      for (int i = 0; i < kSetupProbes; ++i) {
        const CellRun probe = RunCell(w_, kind, args_.seed, Mode::kSetupProbe);
        if (probe.probe->first_next_ns < 0) {
          Fail(std::string("set-up probe of ") + SystemName(kind) +
               " never reached a source");
        }
        setup_samples_[kind].push_back(probe.setup_s);
      }
      const CellRun r = RunCell(w_, kind, args_.seed, Mode::kBare);
      CheckCounts(r, "unwrapped");
      peak_rss_mb_ = std::max(peak_rss_mb_, r.rss_mb);
      cell_rss_[kind] = std::max(cell_rss_[kind], r.rss_mb);
      cell_wall_[kind].push_back(r.wall_s);
      cell_records_[kind] = r.source_records;
      wall += r.wall_s;
      std::printf("  %s %.3f s %.0f MB", SystemName(kind), r.wall_s,
                  r.rss_mb);
    }
    round_wall_.push_back(wall);
    measured_s_ += wall;
    std::printf("  = %.3f s\n", wall);
  }

  void TracedRound() {
    MetricSet m;
    double wall = 0;
    double setup = 0;
    double spans = 0;
    double capture = 0;
    double source_s = 0;
    double emit_s = 0;
    uint64_t source_calls = 0;
    uint64_t emit_calls = 0;
    uint64_t events = 0;
    uint64_t records = 0;
    uint64_t elements = 0;
    uint64_t batches = 0;
    uint64_t state_miss = 0;
    double state_peak = 0;
    uint64_t state_wrapped = 0;
    double noscale_wall = 0;
    std::map<std::string, perfbench::OperatorCounters> ops;
    for (SystemKind kind : w_.cells) {
      CellRun run = RunCell(w_, kind, args_.seed, Mode::kTraced);
      const CellProbe& p = *run.probe;
      wall += run.wall_s;
      setup += run.setup_s;
      source_s += p.source.self_ns / 1e9;
      emit_s += p.emit.self_ns / 1e9;
      capture += p.capture.self_ns / 1e9;
      source_calls += p.source.calls;
      emit_calls += p.emit.calls;
      for (const auto& [name, c] : p.ops) ops[name].Add(c);
      events += run.executed_events;
      records += run.source_records;
      elements += run.delivered_elements;
      batches += run.delivered_batches;
      state_miss += run.state_miss;
      state_peak = std::max(state_peak, run.state_peak_bytes);
      state_wrapped += run.state_wrapped_samples;
      std::printf("#   traced %-13s wall %.3f s  events %llu  rss %.1f MB  "
                  "state peak %.0f B%s\n",
                  SystemName(kind), run.wall_s,
                  static_cast<unsigned long long>(run.executed_events),
                  run.rss_mb, run.state_peak_bytes,
                  run.state_wrapped_samples == 0
                      ? ""
                      : "  (state-byte total wrapped below zero)");
      if (kind == SystemKind::kNoScale) {
        noscale_wall = run.wall_s;
      } else {
        const std::string base = std::string("scaling.") + SystemName(kind);
        m.Set(base + ".mechanism_sim_s", run.mechanism_sim_s, "s");
        m.Set(base + ".transfers", static_cast<double>(run.transfers),
              "count");
      }
      Check(&run, "traced");
    }
    spans += source_s + emit_s + capture;
    m.Set("workloads.source_calls", static_cast<double>(source_calls),
          "count");
    m.Set("workloads.source_s", source_s, "s");
    for (const auto& [name, c] : ops) {
      const std::string base = "workloads.op." + name;
      const double self = (c.record.self_ns + c.watermark.self_ns) / 1e9;
      spans += self;
      m.Set(base + ".records", static_cast<double>(c.record.calls), "count");
      m.Set(base + ".watermarks", static_cast<double>(c.watermark.calls),
            "count");
      m.Set(base + ".self_s", self, "s");
      m.Set(base + ".fire_s", c.watermark.self_ns / 1e9, "s");
    }
    m.Set("runtime.emit_calls", static_cast<double>(emit_calls), "count");
    m.Set("runtime.emit_s", emit_s, "s");
    m.Set("sim.events", static_cast<double>(events), "count");
    m.Set("sim.events_per_record",
          records == 0 ? 0 : static_cast<double>(events) / records, "ratio");
    m.Set("sim.residual_s", wall - setup - spans, "s");
    m.Set("net.delivered_elements", static_cast<double>(elements), "count");
    m.Set("net.delivered_batches", static_cast<double>(batches), "count");
    m.Set("net.mean_batch",
          batches == 0 ? 0 : static_cast<double>(elements) / batches, "ratio");
    m.Set("state.peak_bytes", state_peak, "bytes");
    m.Set("state.wrapped_samples", static_cast<double>(state_wrapped),
          "count");
    m.Set("metrics.state_miss", static_cast<double>(state_miss), "count");
    m.Set("trace.wall_s", wall, "s");
    m.Set("trace.setup_s", setup, "s");
    m.Set("trace.capture_s", capture, "s");
    m.Set("trace.overhead_s", wall - Median(round_wall_), "s");
    measured_s_ += wall;

    // The same no-scale cell with invariant checks off: what the checks
    // cost. Identical to the no-scale cell on workloads that run unchecked.
    CellRun unchecked = RunCell(w_, SystemKind::kNoScale, args_.seed,
                                Mode::kTraced, /*check_invariants=*/false);
    m.Set("metrics.invariant_overhead_s", noscale_wall - unchecked.wall_s,
          "s");
    traced_ = std::move(m);
    std::printf("# traced round wall %.3f s = setup %.4f + spans %.3f + "
                "residual %.3f\n",
                wall, setup, spans, wall - setup - spans);
  }

  MetricSet EndToEnd() const {
    MetricSet ms;
    // Sums of per-cell medians: a burst of host noise then spoils one
    // sample of one cell, not a whole round.
    double wall = 0;
    double setup = 0;
    uint64_t records = 0;
    for (SystemKind kind : w_.cells) {
      wall += Median(cell_wall_.at(kind));
      setup += Median(setup_samples_.at(kind));
      records += cell_records_.at(kind);
    }
    ms.Set("wall_s", wall, "s");
    ms.Set("records_per_s", records / wall, "1/s");
    ms.Set("setup_s", setup, "s");
    return ms;
  }

  void PerLayer(MetricSet* ms) const {
    // Peak RSS moves in steps (arena chunks double), so across seeds it is
    // too bimodal to gate on; it is reported here, per run and per cell.
    ms->Set("peak_rss_mb", peak_rss_mb_, "MB");
    for (const auto& [name, vu] : traced_->values()) {
      ms->Set(name, vu.first, vu.second);
    }

    const double noscale = Median(cell_wall_.at(SystemKind::kNoScale));
    for (SystemKind kind : w_.cells) {
      if (kind == SystemKind::kNoScale) continue;
      const std::string name = SystemName(kind);
      ms->Set("scaling." + name + ".overhead_s",
              Median(cell_wall_.at(kind)) - noscale, "s");
      ms->Set("scaling." + name + ".rss_mb", cell_rss_.at(kind), "MB");
      const Divergence& d = truth_.at(kind).divergence;
      if (IsOracleCell(kind)) {
        ms->Set("harness." + name + ".results_missing",
                static_cast<double>(d.missing), "count");
        ms->Set("harness." + name + ".results_extra",
                static_cast<double>(d.extra), "count");
      } else {
        ms->Set("harness.unbound_divergent_results",
                static_cast<double>(d.failed()), "count");
      }
    }
    const Divergence loss = Loss();
    ms->Set("harness.results_expected", static_cast<double>(loss.expected),
            "count");
    ms->Set("harness.results_failed", static_cast<double>(loss.failed()),
            "count");
    ms->Set("harness.result_loss", LossShare(loss), "ratio");
  }

  /// The oracle cells' divergence from the reference, summed: `expected`
  /// counts the reference once for each cell compared with it.
  Divergence Loss() const {
    Divergence sum;
    for (SystemKind kind : w_.cells) {
      if (!IsOracleCell(kind)) continue;
      const Divergence& d = truth_.at(kind).divergence;
      sum.expected += d.expected;
      sum.missing += d.missing;
      sum.extra += d.extra;
    }
    return sum;
  }

  static double LossShare(const Divergence& loss) {
    return loss.expected == 0
               ? 0
               : static_cast<double>(loss.failed()) / loss.expected;
  }

  void PrintOracle() const {
    std::printf("# oracle: no-scale reference holds %llu results\n",
                static_cast<unsigned long long>(reference_size_));
    for (SystemKind kind : w_.cells) {
      if (kind == SystemKind::kNoScale) continue;
      const Divergence& d = truth_.at(kind).divergence;
      std::printf("#   %-13s expected %9llu  missing %8llu  extra %8llu%s\n",
                  SystemName(kind),
                  static_cast<unsigned long long>(d.expected),
                  static_cast<unsigned long long>(d.missing),
                  static_cast<unsigned long long>(d.extra),
                  IsOracleCell(kind) ? "" : "  (by design; not counted)");
    }
    const Divergence loss = Loss();
    std::printf("# result_loss %.6f (%llu of %llu)\n", LossShare(loss),
                static_cast<unsigned long long>(loss.failed()),
                static_cast<unsigned long long>(loss.expected));
    std::printf("# checks: no-scale deterministic, wrappers unperturbing: %s\n",
                correct_ ? "ok" : "FAILED");
  }

  void PrintMetrics(const MetricSet& ms) const {
    for (const auto& [name, vu] : ms.values()) {
      std::printf("%-44s %16.6f %s\n", name.c_str(), vu.first, vu.second);
    }
  }

  const Workload& w_;
  const Args& args_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double measured_s_ = 0;  ///< wall time of the timed rounds so far
  double peak_rss_mb_ = 0;
  ResultMultiset reference_;
  uint64_t reference_size_ = 0;
  std::map<SystemKind, CellTruth> truth_;
  std::map<SystemKind, std::vector<double>> setup_samples_;
  std::map<SystemKind, std::vector<double>> cell_wall_;
  std::map<SystemKind, double> cell_rss_;
  std::map<SystemKind, uint64_t> cell_records_;
  std::vector<double> round_wall_;
  std::optional<MetricSet> traced_;  ///< per-layer figures of the traced round
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_cells --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] | --list-metrics\n");
    return 2;
  }
  if (args.list_metrics) {
    for (const MetricDef& m : EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit);
    }
    for (const MetricDef& m : PerLayerMetrics()) {
      std::printf("per_layer %s %s\n", m.name.c_str(), m.unit);
    }
    return 0;
  }
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) return Bench(w, args).Run();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
