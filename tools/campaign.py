#!/usr/bin/env python3
"""Campaign runner: the figure cells of bench_figures, one process each.

`bench_figures --list` names, for every figure of the paper reproduction,
its labels and the cell each label reads; figures that show the same runs
share cells (Figs 10-13 read the same nine, Fig 14's full DRRS is Fig 10's
Twitch cell). This tool runs the distinct cells of the requested figures
once each, `--jobs` processes at a time (`bench_figures --cell=<id>
--json-summary=...`), reduces each cell's schema-v2 summary to the
figure-level metrics the perf gate tracks (records/s, mechanism time, p99
latency, ...) and appends one history row per figure, keyed by the
figure's labels, to `BENCH_<fig>.json` at the repo root — the committed
perf-trajectory files that `tools/perf_gate.py` diffs against.

Usage:
    campaign.py --bench-dir build/bench                  # fig02, fig10, fig11
    campaign.py --figures fig02 --scale 0.05 --no-update # CI smoke
    campaign.py --figures all --jobs 4 --row v10

    --out-dir DIR     where raw per-cell summaries and logs land
                      (default: a temp dir)
    --emit-dir DIR    where BENCH_fig*.json live (default: repo root)
    --row LABEL       history row label (default: "r<N>" = next index)
    --no-update       write candidate files as BENCH_<fig>.candidate.json
                      instead of appending to the committed history (gating)
    --telemetry       run the cells with the telemetry sampler on
    --trace DIR       also export Perfetto traces per cell into DIR
    --check FILE...   validate trajectory files against figure_schema.json
                      and exit (runs nothing; used by the CI smoke job)

Pure standard library; no third-party packages.

Exit status: 0 ok, 1 a cell failed, 2 usage error.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile

DEFAULT_FIGURES = ["fig02", "fig10", "fig11"]
BINARY = "bench_figures"


def list_figures(binary):
    """`bench_figures --list` -> {figure: [(label, cell), ...]} in order."""
    out = subprocess.run([binary, "--list"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    figures = {}
    for line in out.splitlines():
        fig, label, cell = line.split()
        figures.setdefault(fig, []).append((label, cell))
    return figures


def reduce_summary(doc):
    """One schema-v2 --json-summary document -> figure-level metrics (the
    cell_metrics of tools/figure_schema.json, which perf_gate.py gates)."""
    version = doc.get("schema_version", 0)
    if version < 2:
        raise ValueError(f"schema_version {version} < 2 — rebuild "
                         f"{BINARY} (records/s needs the sim_end_us field)")
    sim_end_s = doc["sim_end_us"] / 1e6
    hist = doc.get("latency", {}).get("histogram_ms", {})
    return {
        "records_per_sec": (doc["source_records"] / sim_end_s
                            if sim_end_s > 0 else 0.0),
        "source_records": doc["source_records"],
        "sink_records": doc["sink_records"],
        "mechanism_duration_us": doc["mechanism_duration_us"],
        "scaling_period_us": doc["scaling_period_us"],
        "p99_latency_ms": hist.get("p99", 0.0),
        "peak_latency_ms": doc["latency"]["peak_ms"],
        "avg_latency_ms": doc["latency"]["avg_ms"],
        "system": doc.get("system", ""),
        "workload": doc.get("workload", ""),
    }


def run_cell(cell, binary, args, out_dir):
    """Run one cell in its own process, harvest its summary."""
    summary_base = os.path.join(out_dir, "cell.json")
    cmd = [binary, f"--cell={cell}", f"--json-summary={summary_base}"]
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    if args.telemetry:
        cmd.append("--telemetry")
    if args.trace:
        cmd.append(f"--trace={os.path.join(args.trace, 'cell.json')}")
    print(f"campaign: [{cell}] {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    log_path = os.path.join(out_dir, f"{cell}.log")
    with open(log_path, "w", encoding="utf-8") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        return cell, None, (f"{BINARY} --cell={cell} exited "
                            f"{proc.returncode} (log: {log_path})")
    path = os.path.join(out_dir, f"cell.{cell}.json")
    try:
        with open(path, encoding="utf-8") as f:
            return cell, reduce_summary(json.load(f)), None
    except (OSError, ValueError, KeyError) as e:
        return cell, None, f"bad summary {path}: {e}"


def emit_trajectory(fig, labels, cells, args):
    """Append a history row to BENCH_<fig>.json (or write a candidate)."""
    committed = os.path.join(args.emit_dir, f"BENCH_{fig}.json")
    doc = {"figure": fig, "bench": BINARY, "sweep": dict(labels),
           "history": []}
    if os.path.exists(committed):
        with open(committed, encoding="utf-8") as f:
            prev = json.load(f)
        if prev.get("figure") == fig and isinstance(prev.get("history"), list):
            doc["history"] = prev["history"]
    row_label = args.row or f"r{len(doc['history'])}"
    doc["history"].append({
        "row": row_label,
        "scale": args.scale,
        "cells": {label: cells[cell] for label, cell in labels},
    })
    out_path = committed
    if args.no_update:
        out_path = os.path.join(args.emit_dir, f"BENCH_{fig}.candidate.json")
        # A candidate carries only the fresh row: the gate compares it
        # against the committed history, never against itself.
        doc["history"] = doc["history"][-1:]
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"campaign: [{fig}] {len(labels)} cells -> {out_path} "
          f"(row '{row_label}')")
    return out_path


def check_files(paths, schema_path):
    """Validate BENCH_fig*.json files against tools/figure_schema.json."""
    with open(schema_path, encoding="utf-8") as f:
        schema = json.load(f)
    findings = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            findings.append(f"{path}: unreadable or invalid JSON: {e}")
            continue
        for key in schema["top_level_required"]:
            if key not in doc:
                findings.append(f"{path}: missing top-level key '{key}'")
        history = doc.get("history")
        if not isinstance(history, list) or not history:
            findings.append(f"{path}: history is missing or empty")
            continue
        for i, row in enumerate(history):
            where = f"{path}: history[{i}]"
            for key in schema["row_required"]:
                if key not in row:
                    findings.append(f"{where}: missing '{key}'")
            cells = row.get("cells")
            if not isinstance(cells, dict) or not cells:
                findings.append(f"{where}: cells is missing or empty")
                continue
            for tag, cell in cells.items():
                for metric in schema["cell_metrics"]:
                    if metric not in cell:
                        findings.append(
                            f"{where}: cell '{tag}' missing '{metric}'")
                    elif not isinstance(cell[metric], (int, float)):
                        findings.append(
                            f"{where}: cell '{tag}' metric '{metric}' "
                            "is not numeric")
    for f in findings:
        print(f"campaign: {f}", file=sys.stderr)
    if findings:
        return 1
    print(f"campaign: check OK ({len(paths)} file(s))")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--figures", default=",".join(DEFAULT_FIGURES),
                        help="comma-separated figure list, or 'all' "
                             f"(default: {','.join(DEFAULT_FIGURES)})")
    parser.add_argument("--bench-dir", default="build/bench",
                        help=f"directory with the {BINARY} binary")
    parser.add_argument("--out-dir", default=None,
                        help="raw summary/log directory (default: temp dir)")
    parser.add_argument("--emit-dir", default=".",
                        help="where BENCH_fig*.json live (default: .)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2,
                        help="cells run in parallel (default: cores)")
    parser.add_argument("--row", default=None,
                        help="history row label (default: next index)")
    parser.add_argument("--no-update", action="store_true",
                        help="emit BENCH_<fig>.candidate.json instead of "
                             "appending to the committed trajectory")
    parser.add_argument("--telemetry", action="store_true",
                        help="run the cells with the telemetry sampler on")
    parser.add_argument("--trace", default=None,
                        help="directory for per-cell Perfetto traces")
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="validate trajectory files against "
                             "figure_schema.json and exit")
    parser.add_argument(
        "--schema",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "figure_schema.json"))
    args = parser.parse_args()

    if args.check:
        return check_files(args.check, args.schema)

    binary = os.path.join(args.bench_dir, BINARY)
    if not os.path.exists(binary):
        print(f"campaign: binary not found: {binary}", file=sys.stderr)
        return 2
    figures = list_figures(binary)
    names = (list(figures) if args.figures == "all"
             else [f.strip() for f in args.figures.split(",") if f.strip()])
    for fig in names:
        if fig not in figures:
            print(f"campaign: unknown figure '{fig}' "
                  f"(known: {', '.join(figures)})", file=sys.stderr)
            return 2

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="drrs_campaign_")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(args.emit_dir, exist_ok=True)
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)

    # Each distinct cell runs once, however many requested figures read it.
    cells = list(dict.fromkeys(cell for fig in names
                               for _, cell in figures[fig]))
    failures = []
    results = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as ex:
        futures = [ex.submit(run_cell, cell, binary, args, out_dir)
                   for cell in cells]
        for fut in concurrent.futures.as_completed(futures):
            cell, metrics, err = fut.result()
            if err:
                failures.append(f"{cell}: {err}")
            else:
                results[cell] = metrics

    emitted = 0
    for fig in names:
        if all(cell in results for _, cell in figures[fig]):
            emit_trajectory(fig, figures[fig], results, args)
            emitted += 1

    if failures:
        print(f"campaign: {len(failures)} cell(s) failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"campaign: OK ({emitted} figure(s) from {len(cells)} cells, "
          f"summaries in {out_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
