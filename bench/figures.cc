// The figure registry: every cell of the paper reproduction (Figs 2 and
// 10-15) and of the flash-crowd overload demonstration, registered once,
// and one reducer per figure that prints the figure's table from the
// results of its cells.

#include "bench/figures.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace drrs::bench {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::SystemKind;
using harness::SystemName;

Status Registry::AddCell(Cell cell) {
  std::string id = cell.id;
  if (!cells.emplace(id, std::move(cell)).second) {
    return Status::AlreadyExists("cell '" + id + "' is already registered");
  }
  return Status::OK();
}

namespace {

// The registry is built from constants in this file, so a rejected
// registration is a programming error.
void Must(const Status& s) {
  if (s.ok()) return;
  std::fprintf(stderr, "figure registry: %s\n", s.ToString().c_str());
  std::abort();
}

std::string CellId(const std::string& workload, SystemKind kind) {
  return workload + "." + SystemName(kind);
}

const char* const kPaperWorkloads[] = {"q7", "q8", "twitch"};
using Systems = std::vector<SystemKind>;

workloads::WorkloadSpec BuildByName(const std::string& name, double scale) {
  if (name == "q7") {
    return workloads::BuildNexmarkWorkload(BenchSetups::Q7(scale));
  }
  if (name == "q8") {
    return workloads::BuildNexmarkWorkload(BenchSetups::Q8(scale));
  }
  return workloads::BuildTwitchWorkload(BenchSetups::Twitch(scale));
}

double InputRate(const std::string& workload, double scale) {
  if (workload == "q7") return BenchSetups::Q7(scale).events_per_second;
  if (workload == "q8") return BenchSetups::Q8(scale).events_per_second;
  return BenchSetups::Twitch(scale).events_per_second;
}

// The paper's methodology for comparing systems (Figs 10 and 14):
// statistics over the longest observed scaling period among the compared
// runs, from the scaling request on.
std::pair<sim::SimTime, sim::SimTime> LongestScalingWindow(
    const Runs& runs) {
  sim::SimTime longest = 0;
  for (const auto& [label, r] : runs) {
    longest = std::max(longest, r->scaling_period);
  }
  return {BenchSetups::ScaleAt(), BenchSetups::ScaleAt() + longest};
}

void PrintLatencySeries(const std::string& label, const ExperimentResult& r) {
  harness::PrintSeries(label + " latency_ms", r.hub->latency_ms(),
                       sim::Seconds(2), /*use_max=*/true);
}

// Fig 2: latency over time for Unbound (the correctness-free probe),
// generalized OTFS with fluid migration, and No Scale, on the Twitch
// workload at a fixed input rate. The motivating observation (Section
// II-B): Unbound, which eliminates L_p and L_s and bypasses L_d, performs
// close to No Scale, while OTFS degrades severely — confirming that those
// three factors dominate on-the-fly scaling overhead.

const Systems kFig02Systems = {SystemKind::kUnbound, SystemKind::kOtfsFluid,
                               SystemKind::kNoScale};

// Fig 2's premise is an *adequately provisioned* pipeline under a fixed
// input rate: No Scale is the ideal (stable latency) and any scaling
// overhead is pure disruption. Twitch at ~0.8 average load with milder
// skew keeps the hottest instance stable while queues are deep enough that
// suspensions are visible in end-to-end latency.
workloads::WorkloadSpec PacedTwitch(double scale) {
  auto params = BenchSetups::Twitch(scale);
  params.record_cost = sim::Micros(1600);
  params.user_skew = 0.5;
  // A perfectly paced feed: the No Scale latency stays flat, so every spike
  // in the other curves is attributable to the scaling mechanism.
  params.deterministic_gaps = true;
  return workloads::BuildTwitchWorkload(params);
}

void ReduceFig02(const Runs& runs, const ReduceOptions& o) {
  std::printf("DRRS reproduction — Fig 2 (Unbound vs OTFS vs No Scale)\n");
  const ExperimentResult& noscale = *runs[2].r;
  // Each scaled system is measured over its *own* disruption window (its
  // scaling period); the No Scale reference uses the steady-state level
  // over the same horizon. Measuring everyone over one long window would
  // credit the scaled runs for their added capacity instead of charging
  // them for disruption.
  sim::SimTime from = BenchSetups::ScaleAt();
  double ns_avg = noscale.MeanIn(from, from + sim::Seconds(30));
  double ns_peak = noscale.PeakIn(from, from + sim::Seconds(30));

  std::printf("%-12s %12s %12s %14s %14s %20s\n", "system", "avg(ms)",
              "peak(ms)", "avg/no-scale", "peak/no-scale",
              "state-miss-records");
  for (const auto& [label, r] : runs) {
    sim::SimTime to =
        from + std::max<sim::SimTime>(r->scaling_period, sim::Seconds(5));
    if (r == &noscale) to = from + sim::Seconds(30);
    std::printf("%-12s %12.1f %12.1f %14.2fx %14.2fx %20llu\n",
                r->system.c_str(), r->MeanIn(from, to), r->PeakIn(from, to),
                ns_avg > 0 ? r->MeanIn(from, to) / ns_avg : 0,
                ns_peak > 0 ? r->PeakIn(from, to) / ns_peak : 0,
                static_cast<unsigned long long>(
                    r->invariants.state_miss_processing));
  }
  std::printf(
      "\npaper (Twitch): OTFS 3.47x avg / 4.8x peak of No Scale;"
      " Unbound 1.25x avg / 1.14x peak.\n"
      "Unbound trades correctness for this: its state-miss count above is"
      " nonzero by design.\n");

  std::printf("\n");
  for (const auto& [label, r] : runs) harness::PrintRunSummary(*r);

  if (o.series) {
    for (const auto& [label, r] : runs) {
      PrintLatencySeries("fig02-" + r->system, *r);
    }
  }
}

// Figs 10-13 are four views of the same runs: DRRS vs Megaphone vs Meces
// rescaling the bottleneck operator from 8 to 12 instances (111/128
// key-groups migrate) on NEXMark Q7, Q8 and the Twitch pipeline.

const Systems kPaperSystems = {SystemKind::kDrrs, SystemKind::kMegaphone,
                               SystemKind::kMeces};

// Figs 10-13 label kPaperWorkloads x kPaperSystems, workload-major: the
// runs of the `i`-th workload.
Runs WorkloadRuns(const Runs& runs, size_t i) {
  const size_t n = kPaperSystems.size();
  return Runs(runs.begin() + i * n, runs.begin() + (i + 1) * n);
}

// Fig 10: end-to-end latency over time, plus the peak/average-latency and
// scaling-duration reductions quoted in Section V-B.
void ReduceFig10(const Runs& all, const ReduceOptions& o) {
  std::printf("DRRS reproduction — Fig 10 (latency comparison)\n");
  for (size_t i = 0; i < std::size(kPaperWorkloads); ++i) {
    const std::string w = kPaperWorkloads[i];
    std::printf(
        "\n=== Fig 10 (%s): end-to-end latency during 8->12 rescale ===\n",
        w.c_str());
    const Runs runs = WorkloadRuns(all, i);
    const auto [from, to] = LongestScalingWindow(runs);

    std::printf("%-12s %14s %14s %14s %16s %16s\n", "system", "baseline(ms)",
                "peak(ms)", "avg(ms)", "scaling-period(s)",
                "mech-duration(s)");
    for (const auto& [label, r] : runs) {
      std::printf("%-12s %14.1f %14.1f %14.1f %16.1f %16.1f\n",
                  r->system.c_str(), r->baseline_latency_ms,
                  r->PeakIn(from, to), r->MeanIn(from, to),
                  sim::ToSeconds(r->scaling_period),
                  sim::ToSeconds(r->mechanism_duration));
    }

    const ExperimentResult& drrs = *runs[0].r;
    for (size_t j = 1; j < runs.size(); ++j) {
      const ExperimentResult& base = *runs[j].r;
      auto pct = [](double ours, double theirs) {
        return theirs <= 0 ? 0.0 : (1.0 - ours / theirs) * 100.0;
      };
      std::printf(
          "drrs vs %-10s: peak -%.1f%%  avg -%.1f%%  scaling time -%.1f%%\n",
          base.system.c_str(),
          pct(drrs.PeakIn(from, to), base.PeakIn(from, to)),
          pct(drrs.MeanIn(from, to), base.MeanIn(from, to)),
          pct(static_cast<double>(drrs.scaling_period),
              static_cast<double>(base.scaling_period)));
    }

    if (o.series) {
      for (const auto& [label, r] : runs) {
        PrintLatencySeries("fig10-" + w + "-" + r->system, *r);
      }
    }
  }
}

// Fig 11: source-output throughput over time. The expected pattern
// (Section V-B): throughput drops when scaling begins, then overshoots
// above the input rate while the backlog flushes, and finally
// restabilizes — with DRRS showing the smallest dip and the fastest return.
void ReduceFig11(const Runs& all, const ReduceOptions& o) {
  std::printf("DRRS reproduction — Fig 11 (throughput comparison)\n");
  for (size_t i = 0; i < std::size(kPaperWorkloads); ++i) {
    const std::string w = kPaperWorkloads[i];
    std::printf("\n=== Fig 11 (%s): throughput during 8->12 rescale ===\n",
                w.c_str());
    double input_rate = InputRate(w, o.scale);
    sim::SimTime from = BenchSetups::ScaleAt();
    std::printf("input rate: %.0f rec/s\n", input_rate);
    std::printf("%-12s %14s %14s %18s %22s\n", "system", "min-tput(r/s)",
                "max-tput(r/s)", "drop-below-input",
                "mean-|dev|-during-scale");
    const Runs runs = WorkloadRuns(all, i);
    for (const auto& [label, r] : runs) {
      auto rates = r->hub->source_rate().ToRateSeries();
      sim::SimTime to = from + std::max<sim::SimTime>(r->scaling_period,
                                                      sim::Seconds(10));
      auto stats = rates.StatsIn(from, to);
      double dev = rates.MeanAbsDeviationIn(input_rate, from, to);
      std::printf("%-12s %14.0f %14.0f %17.1f%% %20.0f r/s\n",
                  r->system.c_str(), stats.min, stats.max,
                  (1.0 - stats.min / input_rate) * 100.0, dev);
    }

    if (o.series) {
      for (const auto& [label, r] : runs) {
        harness::PrintRateSeries(
            "fig11-" + w + "-" + r->system + " throughput_rec_per_s",
            r->hub->source_rate());
      }
    }
  }
}

// Fig 12: cumulative propagation delay (sum over scaling signals of the
// interval between injection and first triggered state migration) and
// average dependency-related overhead (mean interval from a state unit's
// signal injection to its migration start). Expected shape (Section V-B):
// Megaphone's timestamp-driven sequential units give it by far the largest
// values on both metrics; Meces's single synchronization gives it the
// lowest propagation; DRRS sits low on both.
void ReduceFig12(const Runs& all, const ReduceOptions&) {
  std::printf(
      "DRRS reproduction — Fig 12 (cumulative propagation delay & average "
      "dependency-related overhead)\n\n");
  std::printf("%-8s %-12s %26s %26s\n", "workload", "system",
              "cum-propagation(ms)", "avg-dependency(ms)");
  for (size_t i = 0; i < std::size(kPaperWorkloads); ++i) {
    for (const auto& [label, r] : WorkloadRuns(all, i)) {
      std::printf("%-8s %-12s %26.1f %26.1f\n", kPaperWorkloads[i],
                  r->system.c_str(),
                  sim::ToMillis(r->cumulative_propagation),
                  r->avg_dependency_us / 1000.0);
    }
    std::printf("\n");
  }
}

// Fig 13: cumulative suspension time over the scaling period, plus the
// Meces back-and-forth migration statistics the paper quotes for Q7 (55
// sub-key-groups fetched, 6.25 transfers on average, up to 46). Expected
// shape (Section V-B): Meces's fetch-on-demand conflicts dominate;
// Megaphone grows slowly; DRRS stays lowest thanks to Record Scheduling.
void ReduceFig13(const Runs& all, const ReduceOptions& o) {
  std::printf("DRRS reproduction — Fig 13 (cumulative suspension time)\n\n");
  for (size_t i = 0; i < std::size(kPaperWorkloads); ++i) {
    const std::string w = kPaperWorkloads[i];
    std::printf("=== %s ===\n", w.c_str());
    std::printf("%-12s %22s %28s\n", "system", "cum-suspension(ms)",
                "unit transfers (avg/max)");
    const Runs runs = WorkloadRuns(all, i);
    for (const auto& [label, r] : runs) {
      std::printf("%-12s %22.1f %15.2f / %-8llu\n", r->system.c_str(),
                  sim::ToMillis(r->cumulative_suspension),
                  r->transfers.avg_transfers,
                  static_cast<unsigned long long>(r->transfers.max_transfers));
    }
    if (w == "q7") {
      const ExperimentResult& meces = *runs.back().r;
      std::printf(
          "paper (Q7, Meces): 55 sub-key-groups fetched, avg 6.25 transfers, "
          "max 46 — measured: %llu units, avg %.2f, max %llu\n",
          static_cast<unsigned long long>(meces.transfers.units),
          meces.transfers.avg_transfers,
          static_cast<unsigned long long>(meces.transfers.max_transfers));
    }
    if (o.series) {
      for (const auto& [label, r] : runs) {
        harness::PrintSeries(
            "fig13-" + w + "-" + r->system + " cumulative_suspension_ms",
            r->hub->scaling().SuspensionSeries(), sim::Seconds(2),
            /*use_max=*/true);
      }
    }
    std::printf("\n");
  }
}

// Fig 14: isolation test on the Twitch workload quantifying each DRRS
// mechanism's contribution: full DRRS (Fig 10's Twitch cell), Decoupling &
// Re-routing only (DR), Record Scheduling only (Schedule), Subscale
// Division only (Subscale). Paper findings (Section V-C): the integrated
// system is best; in isolation DR degrades most (+30% peak / +22% avg vs
// full DRRS), Schedule +18%/+15%, Subscale +23%/+18% with the largest
// fluctuations (its coupled signals interfere, Fig 7a).

const Systems kFig14Systems = {SystemKind::kDrrs, SystemKind::kDrrsDR,
                               SystemKind::kDrrsSchedule,
                               SystemKind::kDrrsSubscale};

void ReduceFig14(const Runs& runs, const ReduceOptions& o) {
  std::printf("DRRS reproduction — Fig 14 (mechanism ablation, Twitch)\n\n");
  const auto [from, to] = LongestScalingWindow(runs);

  const ExperimentResult& full = *runs[0].r;
  double full_peak = full.PeakIn(from, to);
  double full_avg = full.MeanIn(from, to);
  std::printf("%-16s %12s %12s %14s %14s %16s\n", "variant", "peak(ms)",
              "avg(ms)", "peak vs full", "avg vs full", "suspension(ms)");
  for (const auto& [label, r] : runs) {
    double peak = r->PeakIn(from, to);
    double avg = r->MeanIn(from, to);
    std::printf("%-16s %12.1f %12.1f %+13.1f%% %+13.1f%% %16.1f\n",
                r->system.c_str(), peak, avg,
                full_peak > 0 ? (peak / full_peak - 1.0) * 100.0 : 0.0,
                full_avg > 0 ? (avg / full_avg - 1.0) * 100.0 : 0.0,
                sim::ToMillis(r->cumulative_suspension));
  }
  std::printf(
      "\npaper: DR +30%%/+22%%, Schedule +18%%/+15%%, Subscale +23%%/+18%% "
      "(peak/avg vs full DRRS)\n");

  if (o.series) {
    for (const auto& [label, r] : runs) {
      PrintLatencySeries("fig14-" + r->system, *r);
    }
  }
}

// Fig 15: sensitivity analysis of throughput deviation under cluster-like
// conditions (Section V-D). The custom 3-operator workload runs with 256
// key-groups, scaling 25 -> 30 instances (229 key-groups migrate), sweeping
// input rate x total state size x Zipf skewness for DRRS, Megaphone and
// Meces. The metric is the mean absolute deviation of source throughput
// from the input rate over the measurement period, as a percentage of the
// input rate (lower = better). Expected shape: deviation grows with rate,
// state size and skew; DRRS stays lowest everywhere, with the largest
// margins at the heaviest configuration (paper: up to 89% better
// throughput at <20k tps, 30 GB>).

// Scaled-down grid: the paper's 5k-20k tps and 5-30 GB become per-run rates
// and per-key state sizes that preserve the load factor and the
// migration-time-to-input-rate ratio on one simulated core. The top rate is
// a genuine pre-scale bottleneck (load 1.04 at 25 instances, 0.87 at 30) —
// the situation that motivates the rescale.
constexpr double kRates[] = {1250, 2500, 5000};
constexpr uint64_t kStateBytesPerKey[] = {4096, 16384, 32768};
constexpr double kSkews[] = {0.0, 0.5, 1.0, 1.5};
const sim::SimTime kFig15ScaleAt = sim::Seconds(30);

// The grid point is the figure label; the cell id adds the workload.
Cell GridCell(const std::string& label, double rate, uint64_t state_bytes,
              double skew, SystemKind kind) {
  ExperimentConfig c;
  c.system = kind;
  c.target_parallelism = 30;
  c.scale_at = kFig15ScaleAt;
  c.restab_hold = sim::Seconds(15);
  c.engine.check_invariants = false;
  auto workload = [rate, state_bytes, skew](double scale) {
    workloads::CustomParams p;
    p.events_per_second = rate * scale;
    p.num_keys = 5000;
    p.skew = skew;
    p.state_bytes_per_key = state_bytes;
    p.duration = sim::Seconds(120);
    p.record_cost = sim::Micros(5200);  // ~0.87 load at 25 instances, 4k tps
    p.source_parallelism = 2;
    p.agg_parallelism = 25;
    p.sink_parallelism = 2;
    p.num_key_groups = 256;
    p.seed = 99;
    return workloads::BuildCustomWorkload(p);
  };
  return {"custom." + label, workload, std::move(c)};
}

// Labels run skew x rate x state size x system, in the order printed.
void ReduceFig15(const Runs& runs, const ReduceOptions& o) {
  size_t next = 0;
  std::printf(
      "DRRS reproduction — Fig 15 (throughput-deviation sensitivity, 25->30 "
      "instances, 256 key-groups)\n\n");
  for (double skew : kSkews) {
    std::printf("=== skew %.1f ===\n", skew);
    std::printf("%-8s %-12s", "rate", "state/key");
    for (SystemKind kind : kPaperSystems) {
      std::printf(" %14s", SystemName(kind));
    }
    std::printf("   (mean |tput deviation| %% of input)\n");
    for (double rate : kRates) {
      for (uint64_t bytes : kStateBytesPerKey) {
        std::printf("%-8.0f %-12llu", rate,
                    static_cast<unsigned long long>(bytes));
        for (size_t k = 0; k < kPaperSystems.size(); ++k) {
          const ExperimentResult& r = *runs[next++].r;
          // Mean |throughput - input| over the measurement window after the
          // scaling request, as % of the input rate.
          auto series = r.hub->source_rate().ToRateSeries();
          double dev = series.MeanAbsDeviationIn(
              rate * o.scale, kFig15ScaleAt,
              kFig15ScaleAt + sim::Seconds(80));
          std::printf(" %13.1f%%", dev / (rate * o.scale) * 100.0);
        }
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
}

// Overload control: a flash crowd drives the aggregator to ~2x capacity for
// a 10 s window. One cell per mechanism shows the escalation ladder
// reaching a steady degraded state — bounded input backlog, reported shed
// rate, bounded latency for the records that are kept — while the
// monitor-only cell shows the unbounded backlog growth the controls
// prevent. The breaker cell adds a mid-surge rescale request that the
// admission pressure gate rejects.

// The aggregator consumes 5000 rec/s (2 instances x 400 us); the surge
// window [5 s, 15 s) delivers 10000 rec/s. Controls-off, the input backlog
// grows by ~5000 records per surge second.
workloads::WorkloadSpec FlashCrowd(double scale) {
  workloads::FlashCrowdParams p;
  p.events_per_second = 2000 * scale;
  p.surge_factor = 5.0;
  return workloads::BuildFlashCrowdWorkload(p);
}

// Thresholds sized to the crowd: shedding caps the backlog near
// 2 x queue_bound; the throttle rung caps input at operator capacity.
ExperimentConfig FlashCrowdConfig() {
  ExperimentConfig c;
  c.system = SystemKind::kNoScale;
  c.engine.check_invariants = false;
  // Let the backlog live at the operator input (one queue to monitor and
  // shed from) instead of distributing it over credit-starved senders.
  c.engine.net.input_buffer_capacity = 1u << 20;
  c.overload.enabled = true;
  c.overload.backpressure_threshold = 1500;
  c.overload.shed_threshold = 3000;
  c.overload.throttle_threshold = 6000;
  c.overload.queue_bound = 1500;
  c.overload.record_shed_log = false;
  return c;
}

// One cell per mechanism, labelled by the mechanism's name.
void AddFlashCrowdCells(Registry& reg, Figure& fig) {
  using overload::ShedPolicy;
  auto add = [&reg, &fig](const char* name, ExperimentConfig c) {
    std::string id = std::string("flash-crowd.") + name;
    fig.labels.emplace_back(name, id);
    Must(reg.AddCell({std::move(id), FlashCrowd, std::move(c)}));
  };
  {  // Monitor-only: the controller samples the backlog but never acts.
    ExperimentConfig c = FlashCrowdConfig();
    c.overload.backpressure_threshold = 1u << 30;
    c.overload.shed_threshold = 1u << 30;
    c.overload.throttle_threshold = 1u << 30;
    c.overload.shed_policy = ShedPolicy::kNone;
    add("disabled", std::move(c));
  }
  for (auto [name, policy] : {std::pair{"drop_tail", ShedPolicy::kDropTail},
                              std::pair{"random", ShedPolicy::kSeededRandom},
                              std::pair{"coldest", ShedPolicy::kColdestKeys}}) {
    ExperimentConfig c = FlashCrowdConfig();
    c.overload.shed_policy = policy;
    add(name, std::move(c));
  }
  {  // Throttle rung alone: no shedding, sources capped below capacity.
     // The cap leaves headroom for the hot-key skew — at exactly 5000/s
     // aggregate the hottest instance still receives more than its share.
    ExperimentConfig c = FlashCrowdConfig();
    c.overload.shed_policy = ShedPolicy::kNone;
    c.overload.throttle_rate_per_sec = 3000;
    add("throttle", std::move(c));
  }
  {  // Breaker: a rescale requested mid-surge is rejected by the pressure
     // gate; the operation waits for the crowd to pass instead of moving
     // state through a melting-down operator.
    ExperimentConfig c = FlashCrowdConfig();
    c.overload.shed_policy = ShedPolicy::kNone;
    c.overload.throttle_rate_per_sec = 3000;
    c.system = SystemKind::kDrrs;
    c.scale_at = sim::Seconds(9);
    c.target_parallelism = 3;
    c.scale_breaker.enabled = true;
    add("breaker", std::move(c));
  }
}

void ReduceFlashCrowd(const Runs& runs, const ReduceOptions&) {
  std::printf("DRRS overload control — flash crowd at 2x capacity\n");
  std::printf("%-10s %9s %9s %12s %10s %9s %8s %12s\n", "cell", "shed",
              "peak-queue", "p99-kept(ms)", "sink-recs", "throttles",
              "breaker", "final-level");
  for (const auto& [label, r] : runs) {
    double p99 = r->hub->latency_histogram().Summarize().p99;
    std::printf("%-10s %9llu %9llu %12.1f %10llu %9llu %8llu %12s\n",
                label.c_str(),
                static_cast<unsigned long long>(r->overload.records_shed),
                static_cast<unsigned long long>(r->overload.peak_input_backlog),
                p99, static_cast<unsigned long long>(r->sink_records),
                static_cast<unsigned long long>(r->overload.throttle_activations),
                static_cast<unsigned long long>(r->overload.breaker_rejections +
                                                r->overload.breaker_opens),
                overload::PressureLevelName(r->final_pressure));
  }
}

}  // namespace

Registry BuildFigureRegistry() {
  Registry reg;
  Figure fig02{"fig02", {}, ReduceFig02};
  for (SystemKind kind : kFig02Systems) {
    ExperimentConfig c = BenchSetups::Config(kind);
    // Keep the invariant counters armed: Unbound's correctness sacrifice is
    // part of what this figure demonstrates.
    c.engine.check_invariants = true;
    Must(reg.AddCell({CellId("twitch-paced", kind), PacedTwitch, c}));
    fig02.labels.emplace_back(SystemName(kind),
                              CellId("twitch-paced", kind));
  }

  std::vector<std::pair<std::string, std::string>> paper_cells;
  auto paper_workload = [](const std::string& w) {
    return [w](double scale) { return BuildByName(w, scale); };
  };
  for (const std::string w : kPaperWorkloads) {
    for (SystemKind kind : kPaperSystems) {
      Must(reg.AddCell(
          {CellId(w, kind), paper_workload(w), BenchSetups::Config(kind)}));
      paper_cells.emplace_back(CellId(w, kind), CellId(w, kind));
    }
  }
  Figure fig14{"fig14", {}, ReduceFig14};
  for (SystemKind kind : kFig14Systems) {
    // Full DRRS is Fig 10's Twitch cell; only the ablations are new runs.
    if (kind != SystemKind::kDrrs) {
      Must(reg.AddCell({CellId("twitch", kind), paper_workload("twitch"),
                        BenchSetups::Config(kind)}));
    }
    fig14.labels.emplace_back(SystemName(kind), CellId("twitch", kind));
  }

  Figure fig15{"fig15", {}, ReduceFig15};
  for (double skew : kSkews) {
    for (double rate : kRates) {
      for (uint64_t bytes : kStateBytesPerKey) {
        for (SystemKind kind : kPaperSystems) {
          char label[96];
          std::snprintf(label, sizeof(label), "r%.0f.b%llu.k%.1f.%s", rate,
                        static_cast<unsigned long long>(bytes), skew,
                        SystemName(kind));
          Cell cell = GridCell(label, rate, bytes, skew, kind);
          fig15.labels.emplace_back(label, cell.id);
          Must(reg.AddCell(std::move(cell)));
        }
      }
    }
  }

  Figure flash{"flash_crowd", {}, ReduceFlashCrowd};
  AddFlashCrowdCells(reg, flash);

  reg.figures = {std::move(fig02),
                 {"fig10", paper_cells, ReduceFig10},
                 {"fig11", paper_cells, ReduceFig11},
                 {"fig12", paper_cells, ReduceFig12},
                 {"fig13", paper_cells, ReduceFig13},
                 std::move(fig14),
                 std::move(fig15),
                 std::move(flash)};
  return reg;
}

}  // namespace drrs::bench
