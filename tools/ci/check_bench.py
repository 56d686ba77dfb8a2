#!/usr/bin/env python3
"""Perf-regression gate: compare BENCH_*.json artifacts against baselines.

Every bench emits ``BENCH_<name>.json`` (see bench/bench_common.hpp) with a
flat ``metrics`` list of ``{name, value, unit}``. Baselines live in
``bench/baselines/<name>.json`` and name the subset of metrics that is
stable enough to gate on (verdicts and simulated-time results — never raw
wall-clock ops/sec, which vary with runner hardware; see
bench/baselines/README.md for the tolerance policy).

Baseline schema::

    {
      "artifact": "BENCH_hotpath.json",
      "checks": [
        {"metric": "verdict/ledger_exact",
         "value": 1.0,          # expected value
         "direction": "min",    # "min" | "max" | "eq"
         "rel_tol": 0.0}        # relative tolerance on the bound
      ]
    }

Directions: ``min`` fails when measured < value*(1-rel_tol); ``max`` fails
when measured > value*(1+rel_tol); ``eq`` fails outside value*(1±rel_tol).

Usage: ``check_bench.py [--baselines DIR] [--artifacts DIR]``. Prints a
delta table (also appended to ``$GITHUB_STEP_SUMMARY`` when set) and exits
nonzero on any regression or missing metric/artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_metrics(artifact: Path) -> dict[str, float]:
    data = json.loads(artifact.read_text())
    return {m["name"]: float(m["value"]) for m in data.get("metrics", [])}


def check_one(check: dict, metrics: dict[str, float]) -> tuple[str, str, str]:
    """Returns (status, measured_str, bound_str) for one baseline check."""
    metric = check["metric"]
    expected = float(check["value"])
    direction = check.get("direction", "eq")
    rel_tol = float(check.get("rel_tol", 0.0))
    if metric not in metrics:
        return "MISSING", "-", f"{direction} {expected:g}"
    measured = metrics[metric]
    lo = expected - abs(expected) * rel_tol
    hi = expected + abs(expected) * rel_tol
    if direction == "min":
        ok, bound = measured >= lo, f">= {lo:g}"
    elif direction == "max":
        ok, bound = measured <= hi, f"<= {hi:g}"
    elif direction == "eq":
        ok, bound = lo <= measured <= hi, f"in [{lo:g}, {hi:g}]"
    else:
        return "BADDIR", f"{measured:g}", direction
    return ("OK" if ok else "FAIL"), f"{measured:g}", bound


def render_table(rows: list[tuple[str, ...]]) -> str:
    headers = ("bench", "metric", "measured", "required", "status")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt_row(row: tuple[str, ...]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt_row(headers), fmt_row(tuple("-" * w for w in widths))]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)


def render_markdown(rows: list[tuple[str, ...]]) -> str:
    lines = [
        "### Perf gate",
        "",
        "| bench | metric | measured | required | status |",
        "| --- | --- | --- | --- | --- |",
    ]
    for bench, metric, measured, bound, status in rows:
        icon = "✅" if status == "OK" else "❌"
        lines.append(
            f"| {bench} | `{metric}` | {measured} | {bound} | {icon} {status} |")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", type=Path,
                        default=REPO_ROOT / "bench" / "baselines")
    parser.add_argument("--artifacts", type=Path, default=Path("."),
                        help="directory holding the freshly-run BENCH_*.json")
    args = parser.parse_args()

    baselines = sorted(p for p in args.baselines.glob("*.json"))
    if not baselines:
        print(f"error: no baselines found under {args.baselines}",
              file=sys.stderr)
        return 1

    rows: list[tuple[str, ...]] = []
    failures = 0
    for baseline_path in baselines:
        baseline = json.loads(baseline_path.read_text())
        artifact = args.artifacts / baseline["artifact"]
        bench = baseline_path.stem
        if not artifact.exists():
            rows.append((bench, "(artifact)", "-", baseline["artifact"],
                         "MISSING"))
            failures += 1
            continue
        metrics = load_metrics(artifact)
        for check in baseline.get("checks", []):
            status, measured, bound = check_one(check, metrics)
            rows.append((bench, check["metric"], measured, bound, status))
            failures += status != "OK"

    print(render_table(rows))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(render_markdown(rows) + "\n")

    if failures:
        print(f"\nperf gate: {failures} check(s) failed", file=sys.stderr)
        return 1
    print(f"\nperf gate: all {len(rows)} check(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
