"""Summarize paired benchmark runs of a parent and a change into one BENCH_<label>.json.

    python3 scripts/bench_summary.py --parent P/cgbbench-out --change C/cgbbench-out \
        --label pr7 [--out BENCH_pr7.json]

Each directory holds the reports that ``python3 cgbbench/run.py --workload W
--seed N --seconds S --trace T`` writes as ``<W>-seed<N>-trace<T>.json`` in
the checkout it runs from.  Per workload the summary gives, for the parent
and the change:

* each end-to-end metric of ``BENCHMARK.json`` (``--trace 0`` reports) as the
  median and quartiles over runs, with the number of seeds run on both sides
  on which the change was better;
* the median time of each operation;
* the median of each per-layer metric, where ``--trace 1`` reports exist;
* failed and attempted operations, summed over runs.

It also records the environment it runs in and the git commit of each
checkout (the parent directory of each report directory), or null where
that is not a git checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REPORT = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_reports(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> report."""
    reports: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        match = REPORT.match(path.name)
        if match:
            key = (match["workload"], int(match["trace"]))
            reports.setdefault(key, {})[int(match["seed"])] = json.loads(path.read_text())
    return reports


def spread(values: list[float]) -> dict:
    """Median, quartiles and their distance over runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def git_commit(checkout: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def environment(parent: Path, change: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": {side: git_commit(d.resolve().parent) for side, d in (("parent", parent), ("change", change))},
    }


def end_to_end(parent: dict[int, dict], change: dict[int, dict], declared: list[dict]) -> dict:
    out = {}
    seeds = sorted(set(parent) & set(change))
    for metric in declared:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0

        def value(report: dict) -> float:
            return _value(report["metrics"][name])

        wins = sum(sign * value(change[s]) < sign * value(parent[s]) for s in seeds)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": spread([value(r) for r in parent.values()]),
            "change": spread([value(r) for r in change.values()]),
            "paired_seeds": len(seeds),
            "change_better_pairs": wins,
        }
    return out


def _value(entry) -> float:
    """A report entry: a number, or [value, unit]."""
    return entry[0] if isinstance(entry, list) else entry


def medians(runs: dict[int, dict], key: str) -> dict[str, float]:
    """Median over runs of each entry of report[key]."""
    names = sorted({name for r in runs.values() for name in r[key]})
    return {name: statistics.median(_value(r[key][name]) for r in runs.values() if name in r[key]) for name in names}


def summarize(parent_dir: Path, change_dir: Path, label: str) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_reports(parent_dir), load_reports(change_dir)
    workloads = {}
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        entry = {}
        sides = {"parent": parent, "change": change}
        timed = {side: reports.get((workload, 0), {}) for side, reports in sides.items()}
        if all(timed.values()):
            entry["end_to_end"] = end_to_end(timed["parent"], timed["change"], declared)
            entry["operations_s"] = {side: medians(runs, "operations_s") for side, runs in timed.items()}
        traced = {side: reports.get((workload, 1), {}) for side, reports in sides.items()}
        if any(traced.values()):
            entry["per_layer"] = {side: medians(runs, "metrics") for side, runs in traced.items() if runs}
        entry["operations"] = {}
        for side, reports in sides.items():
            runs = [r for t in (0, 1) for r in reports.get((workload, t), {}).values()]
            entry["operations"][side] = {key: sum(r[key] for r in runs) for key in ("attempted", "failed")}
        workloads[workload] = entry
    return {"label": label, "environment": environment(parent_dir, change_dir), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarize paired cgbbench reports")
    parser.add_argument("--parent", type=Path, required=True, help="report directory of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="report directory of the changed checkout")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, help="output file (default BENCH_<label>.json)")
    args = parser.parse_args(argv)
    for directory in (args.parent, args.change):
        if not directory.is_dir():
            print(f"error: no report directory {directory}", file=sys.stderr)
            return 2
    summary = summarize(args.parent, args.change, args.label)
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(summary['workloads'])} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
