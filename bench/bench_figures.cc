// Reproduces the paper's figures (Figs 2 and 10-15) and the flash-crowd
// overload demonstration from one cell registry (bench/figures.cc): the
// requested figures' cells run once each, then each figure's reducer prints
// its table.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figures.h"
#include "harness/json_summary.h"

namespace {

using drrs::bench::Cell;
using drrs::bench::Figure;
using drrs::bench::Registry;
using drrs::harness::ExperimentConfig;
using drrs::harness::ExperimentResult;

constexpr char kUsage[] =
    "usage: bench_figures [--figures=<fig>[,<fig>...] | --cell=<id> | --list]\n"
    "                     [--scale <f>] [--no-series] [--faults]\n"
    "                     [--json-summary=<path>] [--telemetry[=<path>]]\n"
    "                     [--trace=<path>]\n"
    "\n"
    "  --figures=<list>     run the cells of these figures once each, then\n"
    "                       print each figure (default: every figure)\n"
    "  --cell=<id>          run one cell and print its run summary\n"
    "  --list               print 'figure label cell' per figure label\n"
    "  --scale <f>          workload scale factor, > 0 (default 1)\n"
    "  --no-series          omit the time series after the figure tables\n"
    "  --faults             arm the canonical chunk-loss schedule: a quarter\n"
    "                       of the state chunks (at most 16) drop and are\n"
    "                       recovered by per-chunk retransmission\n"
    "  --json-summary=<p>   write each cell's run summary to <p> tagged with\n"
    "                       the cell id (out.json -> out.<cell>.json)\n"
    "  --telemetry[=<p>]    sample telemetry; with <p>, write each cell's\n"
    "                       series as CSV (out.csv -> out.<cell>.csv)\n"
    "  --trace=<p>          export a Perfetto trace per cell (DRRS_OBSERVE\n"
    "                       builds only; inert elsewhere)\n";

struct Args {
  std::vector<const Figure*> figures;
  const Cell* cell = nullptr;
  bool list = false;
  double scale = 1.0;
  bool series = true;
  bool faults = false;
  std::string json_summary;
  bool telemetry = false;
  std::string telemetry_csv;
  std::string trace;
};

bool Fail(const std::string& why) {
  std::fprintf(stderr, "bench_figures: %s\n%s", why.c_str(), kUsage);
  return false;
}

bool StartsWith(const char* arg, const char* prefix, std::string* value) {
  size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *value = arg + n;
  return true;
}

bool Parse(int argc, char** argv, const Registry& registry, Args* args) {
  std::string figures;
  bool figures_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--scale") == 0) {
      if (i + 1 == argc) return Fail("--scale needs a value");
      char* end = nullptr;
      args->scale = std::strtod(argv[++i], &end);
      if (*argv[i] == '\0' || *end != '\0' || !std::isfinite(args->scale) ||
          args->scale <= 0) {
        return Fail(std::string("--scale wants a positive number, got '") +
                    argv[i] + "'");
      }
    } else if (std::strcmp(arg, "--no-series") == 0) {
      args->series = false;
    } else if (std::strcmp(arg, "--faults") == 0) {
      args->faults = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      args->list = true;
    } else if (std::strcmp(arg, "--telemetry") == 0) {
      args->telemetry = true;
    } else if (StartsWith(arg, "--figures=", &figures)) {
      figures_given = true;
    } else if (StartsWith(arg, "--cell=", &value)) {
      auto it = registry.cells.find(value);
      if (it == registry.cells.end()) {
        return Fail("unknown cell '" + value + "'");
      }
      args->cell = &it->second;
    } else if (StartsWith(arg, "--json-summary=", &args->json_summary) ||
               StartsWith(arg, "--telemetry=", &args->telemetry_csv) ||
               StartsWith(arg, "--trace=", &args->trace)) {
      if (arg[std::strlen(arg) - 1] == '=') {
        return Fail(std::string(arg) + " needs a path");
      }
    } else {
      return Fail(std::string("unknown option '") + arg + "'");
    }
  }
  if (!args->telemetry_csv.empty()) args->telemetry = true;
  if (figures_given + (args->cell != nullptr) + args->list > 1) {
    return Fail("--figures, --cell and --list are exclusive");
  }
  // Figures print in registry order, each once.
  std::set<std::string> wanted;
  std::istringstream list(figures);
  for (std::string name; std::getline(list, name, ',');) wanted.insert(name);
  for (const Figure& f : registry.figures) {
    if (!figures_given || wanted.erase(f.name)) args->figures.push_back(&f);
  }
  if (!wanted.empty()) return Fail("unknown figure '" + *wanted.begin() + "'");
  if (args->figures.empty()) return Fail("--figures needs a value");
  return true;
}

/// "out.json" + "q7.drrs" -> "out.q7.drrs.json" (the tag lands before the
/// extension so the files still open in their viewers; appended otherwise).
std::string TaggedPath(std::string base, const std::string& tag,
                       const std::string& ext) {
  if (base.size() >= ext.size() &&
      base.compare(base.size() - ext.size(), ext.size(), ext) == 0) {
    base.insert(base.size() - ext.size(), "." + tag);
  } else {
    base += "." + tag;
  }
  return base;
}

ExperimentResult RunCell(const Cell& cell, const Args& args) {
  ExperimentConfig config = cell.config;
  if (args.faults) {
    // Chunk faults only fire on kStateChunk transmissions, so no-scale
    // cells are naturally unaffected.
    config.faults.seed = 20250705;
    config.faults.chunk.drop_rate = 0.25;
    config.faults.chunk.max_drops = 16;
    config.chunk_retry.enabled = true;
  }
  if (args.telemetry) {
    config.telemetry.enabled = true;
    if (!args.telemetry_csv.empty()) {
      config.telemetry.csv_path =
          TaggedPath(args.telemetry_csv, cell.id, ".csv");
    }
  }
  if (!args.trace.empty()) {
    config.trace_path = TaggedPath(args.trace, cell.id, ".json");
  }
  ExperimentResult r =
      drrs::harness::RunExperiment(cell.workload(args.scale), config);
  if (!args.json_summary.empty()) {
    drrs::Status s = drrs::harness::WriteJsonSummary(
        r, TaggedPath(args.json_summary, cell.id, ".json"));
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Registry registry = drrs::bench::BuildFigureRegistry();
  Args args;
  if (!Parse(argc, argv, registry, &args)) return 2;

  if (args.list) {
    for (const Figure& f : registry.figures) {
      for (const auto& [label, cell] : f.labels) {
        std::printf("%s %s %s\n", f.name.c_str(), label.c_str(),
                    cell.c_str());
      }
    }
    return 0;
  }
  if (args.cell != nullptr) {
    drrs::harness::PrintRunSummary(RunCell(*args.cell, args));
    return 0;
  }

  // Each distinct cell runs once, however many requested figures read it;
  // each reducer then gets its runs in the order of its figure's labels.
  std::map<std::string, ExperimentResult> results;
  for (const Figure* f : args.figures) {
    for (const auto& [label, id] : f->labels) {
      if (results.count(id) == 0) {
        results.emplace(id, RunCell(registry.cells.at(id), args));
      }
    }
  }
  for (const Figure* f : args.figures) {
    drrs::bench::Runs runs;
    for (const auto& [label, id] : f->labels) {
      runs.push_back({label, &results.at(id)});
    }
    f->reduce(runs, {args.scale, args.series});
  }
  return 0;
}
