"""``scripts/bench_pairs.py``: the plan of paired runs, checked without running the benchmark."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DECLARED = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the script imports bench_summary from its own directory
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_alternates_and_covers_every_pair(bench_pairs):
    runs = bench_pairs.plan(WORKLOADS, range(101, 111))
    timed, traced = [r for r in runs if r[3] == 0], [r for r in runs if r[3] == 1]
    assert runs == timed + traced
    # each (workload, seed) pair runs once a side, the two runs next to each other
    pairs = [timed[i : i + 2] for i in range(0, len(timed), 2)]
    assert len(pairs) == 10 * len(WORKLOADS)
    assert all({a[0], b[0]} == {"parent", "change"} and a[1:] == b[1:] for a, b in pairs)
    assert {(a[1], a[2]) for a, _ in pairs} == {(w, s) for w in WORKLOADS for s in range(101, 111)}
    # the side that runs first alternates from workload to workload within a seed and from
    # seed to seed within a workload, so each workload has it five times a side
    first = {(a[1], a[2]): a[0] for a, _ in pairs}
    for seed in range(101, 111):
        sides = [first[w, seed] for w in WORKLOADS]
        assert all(x != y for x, y in zip(sides, sides[1:]))
    for workload in WORKLOADS:
        sides = [first[workload, s] for s in range(101, 111)]
        assert all(x != y for x, y in zip(sides, sides[1:]))
        assert Counter(sides) == {"parent": 5, "change": 5}
    # then one traced run a side per workload at seed B + 1
    assert Counter(r[:3] for r in traced) == {(s, w, 111): 1 for s in ("parent", "change") for w in WORKLOADS}


def test_dry_run_prints_the_plan_and_runs_nothing(bench_pairs, monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a dry run started a process")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)
    monkeypatch.chdir(tmp_path)
    root = SCRIPTS.parent
    argv = ["--parent", str(root), "--change", str(root), "--label", "toy", "--seeds", "7-8", "--dry-run"]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    runs = bench_pairs.plan(WORKLOADS, range(7, 9))
    assert len(lines) == len(runs) + 1 and lines[-1] == "then: summarize into BENCH_toy.json"
    # the run length is the benchmark's own
    seconds = DECLARED["run_seconds"]
    assert lines[0] == f"[1/{len(runs)}] parent: python3 cgbbench/run.py --workload {WORKLOADS[0]} --seed 7 --seconds {seconds} --trace 0"
    assert lines[-2].endswith(f"--workload {WORKLOADS[-1]} --seed 9 --seconds {seconds} --trace 1")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["5-4", "5", "a-b", "-1-2"])
def test_bad_seed_range_is_usage_error(bench_pairs, seeds):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--label", "x", "--seeds", seeds, "--dry-run"])
    assert exit_info.value.code == 2
