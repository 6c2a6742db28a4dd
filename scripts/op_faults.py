"""Print each benchmark operation's wall, CPU and memory costs, one workload at a time, as JSON.

    PYTHONPATH=src python3 scripts/op_faults.py --workload W --seed N [--repeat K]

Run from the root of a checkout.  The workload ``W`` of
``cgbbench/workloads.py`` is set up at seed ``N`` as the benchmark sets it
up, then runs ``K`` rounds (default 3) with no warm-up round: each round runs
every operation once, in the workload's order.  Every run is checked by the
operation's own check.  Per run, ``resource.getrusage`` gives the user and
system seconds and the minor page faults it took, and the peak resident set
size of the process so far (of the command processes, for a workload whose
operations start their own; on Linux ``ru_maxrss`` is in KB).  The wall
time is ``perf_counter``'s.  Per operation the output also holds the median
of each field over its runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "cgbbench"))

from workloads import WORKLOADS, context, set_up  # noqa: E402

FIELDS = ("wall_s", "user_s", "sys_s", "minflt", "peak_rss_mb")


def _usage(who: int) -> tuple[float, float, int, float]:
    u = resource.getrusage(who)
    return u.ru_utime, u.ru_stime, u.ru_minflt, u.ru_maxrss / 1024


def measure(workload_name: str, seed: int, repeat: int) -> dict:
    """Set up the workload at ``seed`` and run ``repeat`` rounds of its operations; the report as a dict."""
    workload = WORKLOADS[workload_name]
    ctx = context(workload, seed)
    ctx["root"] = ROOT
    setup_s = set_up(workload, ctx)
    ctx.update(workload.inputs(ctx, seed))
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    runs = {op.name: [] for op in workload.operations}
    for _ in range(repeat):
        for op in workload.operations:
            user, sys_, minflt, _ = _usage(who)
            start = perf_counter()
            out = op.run(ctx)
            wall = perf_counter() - start
            user_after, sys_after, minflt_after, peak = _usage(who)
            runs[op.name].append(
                {
                    "wall_s": wall,
                    "user_s": user_after - user,
                    "sys_s": sys_after - sys_,
                    "minflt": minflt_after - minflt,
                    "peak_rss_mb": peak,
                    "problems": op.check(ctx, out),
                }
            )
    operations = {
        name: {"runs": rs, "median": {field: statistics.median(run[field] for run in rs) for field in FIELDS}}
        for name, rs in runs.items()
    }
    return {"workload": workload_name, "seed": seed, "repeat": repeat, "setup_s": setup_s, "operations": operations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-operation wall, CPU, fault and peak-RSS figures of one workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=3, help="rounds, each running every operation once (at least 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(json.dumps(measure(args.workload, args.seed, args.repeat), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
