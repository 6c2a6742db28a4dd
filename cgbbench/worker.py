"""Runs one workload in this (fresh) interpreter and prints its result as JSON.

    worker.py --workload NAME --seed N --seconds S --mode setup|time|trace --root DIR

``setup`` times the set-up alone.  ``time`` sets up, runs one warm-up
round, then measured rounds until S seconds of them have passed (at least
one).  ``trace`` does the same set-up under the tracer, a warm-up round,
then pairs of one untraced and one traced round until S seconds have
passed; it reports the spans of the set-up and of each traced round with
the wall time of every round.  Operation times come both in wall seconds
and in reference seconds, rescaled by a calibration timed next to each
operation (see calibrate.py); the set-up is in wall seconds.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibrate import (
    REFERENCE_PROCESS_S,
    REFERENCE_S,
    calibration_s,
    process_calibration_s,
    reference_seconds,
)
from tracing import Patches, Tracer
from workloads import OUT_DIR, WORKLOADS, Operation, Workload, context, set_up


class Tally:
    """Operations attempted and failed; a wrong output is also a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, op_name: str, problems: list[str], raised: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            self.problems.extend(f"{op_name}: {p}" for p in problems[:3])


def _attempt(op: Operation, ctx: dict, tally: Tally) -> float:
    """Run the operation once and check it; returns the wall seconds it took."""
    start = perf_counter()
    try:
        out = op.run(ctx)
    except Exception as exc:  # a failing operation is counted and the run goes on
        wall = perf_counter() - start
        tally.record(op.name, [f"{type(exc).__name__}: {exc}"], raised=True)
        return wall
    wall = perf_counter() - start
    tally.record(op.name, op.check(ctx, out), raised=False)
    return wall


def run_round(
    workload: Workload, ctx: dict, tally: Tally, warm_up: bool = False
) -> dict[str, dict[str, float]]:
    """Run every operation ``repeat`` times (a warm-up round: once).

    Returns, per operation, the median over its repeats of its wall seconds
    and of its reference seconds, the wall time rescaled by the calibration
    timed just before and just after it (see calibrate.py).  An
    out-of-process workload's commands are calibrated by a fresh
    interpreter, as they are one.
    """
    calibrate, reference = (
        (calibration_s, REFERENCE_S) if workload.in_process else (process_calibration_s, REFERENCE_PROCESS_S)
    )
    times = {}
    before = calibrate()
    for op in workload.operations:
        if warm_up and not op.warm_up:
            continue
        walls, refs = [], []
        for _ in range(1 if warm_up else op.repeat):
            wall = _attempt(op, ctx, tally)
            after = calibrate()
            walls.append(wall)
            refs.append(reference_seconds(wall, before, after, reference))
            before = after
        times[op.name] = {"wall_s": statistics.median(walls), "ref_s": statistics.median(refs)}
    return times


def timed_rounds(workload: Workload, ctx: dict, seconds: float, tally: Tally) -> dict:
    run_round(workload, ctx, tally, warm_up=True)
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(run_round(workload, ctx, tally))
    return {"rounds": rounds}


def traced_rounds(workload: Workload, ctx: dict, seconds: float, tally: Tally, patches: Patches) -> dict:
    tracer = patches.tracer
    run_round(workload, ctx, tally, warm_up=True)
    untraced, traced, spans = [], [], []
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=ctx["root"] / OUT_DIR) as scratch:
        while not traced or perf_counter() - start < seconds:
            untraced.append(run_round(workload, ctx, tally))
            tracer.reset()
            ctx["trace"] = {"tracer": tracer, "dir": Path(scratch)}
            patches.apply()
            try:
                traced.append(run_round(workload, ctx, tally))
            finally:
                patches.restore()
                ctx["trace"] = None
            spans.append(tracer.snapshot())
    return {"rounds": untraced, "traced_rounds": traced, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--root", type=Path, required=True, help="checkout root, the commands' cwd")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    ctx = context(workload, args.seed)
    ctx["root"] = args.root

    if args.mode == "setup":
        print(json.dumps({"setup_s": set_up(workload, ctx)}))
        return 0

    result: dict = {}
    patches = None
    if args.mode == "trace":
        if workload.in_process:
            for name in workload.modules:  # wrapping needs the modules loaded
                __import__(name)
        patches = Patches(Tracer())
        patches.apply()
    try:
        if workload.in_process:
            result["setup_s"] = set_up(workload, ctx)
    finally:
        if patches is not None:
            patches.restore()
            result["setup_spans"] = patches.tracer.snapshot()
    ctx.update(workload.inputs(ctx, args.seed))

    tally = Tally()
    if patches is None:
        result.update(timed_rounds(workload, ctx, args.seconds, tally))
    else:
        result.update(traced_rounds(workload, ctx, args.seconds, tally, patches))

    # an out-of-process workload's command processes are this process's only children
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result.update(
        peak_rss_kb=resource.getrusage(who).ru_maxrss,
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        problems=tally.problems[:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
