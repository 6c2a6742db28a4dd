"""The cgb benchmark: one command, four workloads, checked outputs.

    python3 cgbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cgb checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, and ``cgbbench-out/<workload>-seed<N>-trace<T>.json``, give the
per-operation times, set-up samples, spans and any problems found.

Every process runs one after the other: set-up probes, then one worker
process that generates the whole load (for cli-cold, the command
processes it starts one at a time).  Each runs with PYTHONHASHSEED=0 and
numeric libraries capped at the core count.  The operation times behind
``workload_s`` and ``op_geomean_s`` are reference seconds: wall seconds
rescaled by a fixed unit of work timed next to each operation, which
cancels the shared host's changes of speed (calibrate.py).  Wall seconds
are printed beside them.  ``setup_s`` is in wall seconds.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYER_METRICS, layer_value
from workloads import OUT_DIR, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3  # set-up is timed in this many fresh interpreters; the median is reported
WORKER_TIMEOUT_S = 170
HASH_SEED = "0"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    On a shared host each CPU changes speed on its own.  A child process
    is started on another CPU than its parent, so a calibration timed in
    the worker would measure another CPU than the command it rescales.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = HASH_SEED
    cores = str(len(os.sched_getaffinity(0)))
    env.update({var: cores for var in THREAD_VARS})
    return env


def worker(args: argparse.Namespace, mode: str) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--root", str(ROOT),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {args.workload} exceeded {WORKER_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def op_medians(rounds: list[dict], key: str = "ref_s") -> dict[str, float]:
    return {name: statistics.median(r[name][key] for r in rounds) for name in rounds[0]}


def round_median(rounds: list[dict], key: str = "ref_s") -> float:
    return statistics.median(sum(op[key] for op in r.values()) for r in rounds)


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    in_process = WORKLOADS[args.workload].in_process
    probes = [worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - in_process)]
    result = worker(args, "time")
    setup = probes + ([result["setup_s"]] if in_process else [])
    ops = op_medians(result["rounds"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_mem_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "workload_s": (round_median(result["rounds"]), "s"),
        "op_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in ops.values())), "s"),
    }
    detail = {
        "setup_samples_s": setup,
        "operations_s": ops,
        "operations_wall_s": op_medians(result["rounds"], "wall_s"),
        "workload_wall_s": round_median(result["rounds"], "wall_s"),
    }
    return metrics, {**result, **detail}


def per_layer(args: argparse.Namespace) -> tuple[dict, dict]:
    result = worker(args, "trace")
    setup, rounds = result["setup_spans"], result["spans"]
    metrics = {
        name: (layer_value(setup, name) + statistics.median(layer_value(s, name) for s in rounds), unit)
        for name, unit in ((n, "s" if n.endswith("_s") else "count") for n in LAYER_METRICS)
    }
    converged = metrics["morse.converged"][0]
    # converged Newton seeds that survive deduplication as distinct critical points
    share = metrics["morse.critical_points"][0] / converged if converged else 0.0
    metrics["morse.survivor_share"] = (share, "ratio")
    # the spans are wall seconds, so the overhead is too
    untraced = round_median(result["rounds"], "wall_s")
    traced = round_median(result["traced_rounds"], "wall_s")
    metrics["trace.untraced_workload_s"] = (untraced, "s")
    metrics["trace.traced_workload_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    detail = {
        "operations_s": op_medians(result["rounds"], "wall_s"),
        "traced_operations_s": op_medians(result["traced_rounds"], "wall_s"),
    }
    return metrics, {**result, **detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cgb benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cgb" / "__init__.py").is_file():
        print(f"error: no cgb sources under {ROOT / 'src'}; run from a cgb checkout", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    try:
        metrics, detail = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"metrics": metrics, **detail}, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {detail['attempted']} operations, "
          f"{detail['failed']} failed; report {report.relative_to(ROOT)}")  # fmt: skip
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    walls = detail.get("operations_wall_s", {})
    for name, value in detail["operations_s"].items():
        wall = f"  ({walls[name]:.6f} wall s)" if name in walls else ""
        print(f"  {name:<28} {value:12.6f} s   median over rounds{wall}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:12.6f} {unit}")
    print(json.dumps({
        "correct": detail["wrong"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
