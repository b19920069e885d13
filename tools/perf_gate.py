#!/usr/bin/env python3
"""Performance gate for figure campaigns.

Both candidate and baseline are BENCH_fig*.json trajectory files written by
tools/campaign.py; the gate diffs the last history row of each, per cell.
Figure metrics come out of the deterministic simulator — they move only when
the *modeled* behavior changes — so the band (FIG_TOL, 10%) is a real
contract, not noise headroom:

  * records_per_sec — floor: baseline * (1 - FIG_TOL)
  * mechanism_duration_us — ceiling: baseline * (1 + FIG_TOL) + 1000 us abs
  * p99_latency_ms — ceiling: baseline * (1 + FIG_TOL) + 0.5 ms abs

Cells present in the candidate but not in the baseline are reported and
skipped (they gate from the row that first records them). Cells present in
the baseline but missing from the candidate FAIL — losing coverage silently
is itself a regression.

Allocations per record are gated elsewhere: tests/test_figures.cc bounds the
marginal heap allocations per source record of real figure cells in ctest.

Exit status: 0 pass, 1 regression, 2 usage/format error.
"""

import argparse
import json
import sys

FIG_TOL = 0.10


def last_figure_row(path):
    """Return (figure, cells, row_label) from a BENCH_fig*.json trajectory."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    history = doc.get("history")
    if not isinstance(history, list) or not history:
        print(f"error: {path}: no history rows (not a campaign.py trajectory "
              "file?)", file=sys.stderr)
        sys.exit(2)
    row = history[-1]
    if "cells" not in row:
        print(f"error: {path}: last history row has no 'cells' table",
              file=sys.stderr)
        sys.exit(2)
    return doc.get("figure", "<unknown>"), row["cells"], \
        row.get("row", "<unlabeled>")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate",
                        help="BENCH_fig*.json written by tools/campaign.py")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_fig*.json trajectory")
    args = parser.parse_args()

    fig_c, cand_cells, row_c = last_figure_row(args.candidate)
    fig_b, base_cells, row_b = last_figure_row(args.baseline)
    if fig_c != fig_b:
        print(f"error: figure mismatch: candidate is '{fig_c}', baseline is "
              f"'{fig_b}'", file=sys.stderr)
        sys.exit(2)

    print(f"perf_gate: figure '{fig_b}', baseline row '{row_b}' vs "
          f"candidate row '{row_c}' (tol {FIG_TOL:.0%})")
    failures = []
    # (metric, direction, relative tol factor, absolute slack)
    gates = [
        ("records_per_sec", "floor", 1 - FIG_TOL, 0.0),
        ("mechanism_duration_us", "ceiling", 1 + FIG_TOL, 1000.0),
        ("p99_latency_ms", "ceiling", 1 + FIG_TOL, 0.5),
    ]
    for cell in sorted(base_cells):
        if cell not in cand_cells:
            failures.append(f"{cell}: present in baseline but missing from "
                            "the candidate run")
            continue
        base, cand = base_cells[cell], cand_cells[cell]
        for metric, kind, factor, slack in gates:
            for side, table in (("baseline", base), ("candidate", cand)):
                if metric not in table:
                    print(f"error: cell '{cell}': {side} row has no "
                          f"'{metric}' field — regenerate with "
                          "tools/campaign.py", file=sys.stderr)
                    sys.exit(2)
            if kind == "floor":
                bound = base[metric] * factor - slack
                ok = cand[metric] >= bound
            else:
                bound = base[metric] * factor + slack
                ok = cand[metric] <= bound
            print(f"  {cell:<24} {metric:<22} {cand[metric]:>14.4g} "
                  f"({kind} {bound:>14.4g}) {'OK' if ok else 'FAIL'}")
            if not ok:
                failures.append(
                    f"{cell}: {metric} {cand[metric]:.6g} vs {kind} "
                    f"{bound:.6g} (baseline {base[metric]:.6g})")
    for cell in sorted(set(cand_cells) - set(base_cells)):
        print(f"  {cell:<24} new cell, no baseline yet — skipped")

    if failures:
        print(f"\nperf_gate: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
