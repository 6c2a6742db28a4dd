"""Run the paired benchmark of a parent and a change and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent P --change C --label L --seeds A-B [--dry-run]

``P`` and ``C`` are two cgb checkouts.  For every seed N from A to B and
every workload of ``BENCHMARK.json``, the benchmark command runs as
``<command> --workload W --seed N --seconds S --trace 0`` in each checkout,
with S the ``run_seconds`` of ``BENCHMARK.json``, and the side that runs
first alternates from one pair to the next.  Then each workload runs once a
side with ``--trace 1`` at seed B + 1.  The reports these runs write under
each checkout's ``cgbbench-out`` are summarized by
``bench_summary.summarize`` into ``BENCH_L.json`` in the working directory;
other reports there are left out.  ``--dry-run`` prints the runs in order
and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_summary import ROOT, git_commit, summarize

SIDES = ("parent", "change")
OUT_DIR = "cgbbench-out"


def seed_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if not match or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def plan(workloads: list[str], seeds: range) -> list[tuple[str, str, int, int]]:
    """(side, workload, seed, trace) of every run, in order.

    Timed pairs first, seed by seed.  The side that runs first alternates
    from one workload to the next and, for each workload, from one seed to
    the next.  Then one traced run a side per workload at the next seed.
    """
    runs = []
    for i, seed in enumerate(seeds):
        for j, workload in enumerate(workloads):
            order = SIDES if (i + j) % 2 == 0 else SIDES[::-1]
            runs += [(side, workload, seed, 0) for side in order]
    runs += [(side, w, seeds[-1] + 1, 1) for w in workloads for side in SIDES]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired cgbbench runs of a parent and a change")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B: seeds A to B inclusive")
    parser.add_argument("--dry-run", action="store_true", help="print the runs and run nothing")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    for side, checkout in checkouts.items():
        if not (checkout / "cgbbench" / "run.py").is_file():
            print(f"error: no cgbbench/run.py in the {side} checkout {checkout}", file=sys.stderr)
            return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = plan([w["name"] for w in declared["workloads"]], args.seeds)
    for number, (side, workload, seed, trace) in enumerate(runs, start=1):
        flags = {"--workload": workload, "--seed": seed, "--seconds": declared["run_seconds"], "--trace": trace}
        cmd = declared["command"] + [str(a) for flag in flags.items() for a in flag]
        print(f"[{number}/{len(runs)}] {side}: {' '.join(cmd)}", flush=True)
        if not args.dry_run and subprocess.run(cmd, cwd=checkouts[side]).returncode != 0:
            print(f"error: run {number} ({side}) failed; earlier reports stay in {OUT_DIR}", file=sys.stderr)
            return 1
    out = Path(f"BENCH_{args.label}.json")
    if args.dry_run:
        print(f"then: summarize into {out}")
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for side, directory in dirs.items():
            directory.mkdir()
            for _, workload, seed, trace in (run for run in runs if run[0] == side):
                name = f"{workload}-seed{seed}-trace{trace}.json"
                shutil.copy(checkouts[side] / OUT_DIR / name, directory / name)
        summary = summarize(dirs["parent"], dirs["change"], args.label)
    summary["environment"]["git_commit"] = {side: git_commit(checkout) for side, checkout in checkouts.items()}
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(summary['workloads'])} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
