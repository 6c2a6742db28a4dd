"""``scripts/bench_summary.py`` on two tiny synthetic report sets."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed_report(workload_s, op_s, failed=0):
    metrics = {"setup_s": [0.1, "s"], "peak_mem_mb": [50.0, "MB"], "workload_s": [workload_s, "s"]}
    metrics["op_geomean_s"] = [op_s, "s"]
    return {"metrics": metrics, "operations_s": {"op_a": op_s, "op_b": 2 * op_s}, "attempted": 4, "failed": failed}


def traced_report(riemann_s):
    metrics = {"geometry.riemann_s": [riemann_s, "s"], "sigma.chunks": [3, "count"]}
    return {"metrics": metrics, "operations_s": {}, "attempted": 2, "failed": 0}


def write_reports(directory, workload_s, traced=None, failed=0):
    directory.mkdir()
    for seed, value in enumerate(workload_s, start=1):
        path = directory / f"toy-seed{seed}-trace0.json"
        path.write_text(json.dumps(timed_report(value, value / 2, failed if seed == 1 else 0)))
    if traced is not None:
        (directory / "toy-seed1-trace1.json").write_text(json.dumps(traced_report(traced)))
    (directory / "notes.json").write_text("{}")  # not a report: ignored


def test_medians_spreads_pairs_and_layers(bench_summary, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_reports(parent, [4.0, 2.0, 3.0, 5.0, 1.0], traced=0.3)
    write_reports(change, [1.0, 1.5, 0.5, 2.5, 2.0], traced=0.1, failed=1)
    out = tmp_path / "BENCH_toy.json"
    assert bench_summary.main(["--parent", str(parent), "--change", str(change), "--label", "toy", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["label"] == "toy"
    env = summary["environment"]
    assert {"python", "numpy", "cpu_count", "platform", "git_commit"} <= set(env)
    assert set(env["git_commit"]) == {"parent", "change"}

    toy = summary["workloads"]["toy"]
    workload = toy["end_to_end"]["workload_s"]
    assert workload["parent"] == {"runs": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert workload["change"]["median"] == 1.5 and workload["change"]["iqr"] == 1.0
    # seeds 1-4 improve, seed 5 (1.0 -> 2.0) does not
    assert (workload["paired_seeds"], workload["change_better_pairs"]) == (5, 4)
    assert workload["bound"] == 0.24 and workload["better"] == "lower"
    assert toy["operations_s"]["parent"] == {"op_a": 1.5, "op_b": 3.0}
    assert toy["per_layer"]["parent"]["geometry.riemann_s"] == 0.3
    assert toy["per_layer"]["change"] == {"geometry.riemann_s": 0.1, "sigma.chunks": 3}
    assert toy["operations"] == {"parent": {"attempted": 22, "failed": 0}, "change": {"attempted": 22, "failed": 1}}


def test_missing_directory_is_usage_error(bench_summary, tmp_path, capsys):
    code = bench_summary.main(["--parent", str(tmp_path / "none"), "--change", str(tmp_path), "--label", "x"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: no report directory")


ROOT = SCRIPT.parents[1]
COMMITTED = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_artifacts_exist():
    assert COMMITTED


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_bench_artifact_is_complete(path):
    # every committed summary covers every declared workload and end-to-end
    # metric over at least ten runs a side, with no failed operation
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = json.loads(path.read_text())
    assert path.name == f"BENCH_{summary['label']}.json"
    assert set(summary["workloads"]) >= {w["name"] for w in declared["workloads"]}
    for name in (w["name"] for w in declared["workloads"]):
        workload = summary["workloads"][name]
        for metric in (m["name"] for m in declared["end_to_end"]):
            for side in ("parent", "change"):
                spread = workload["end_to_end"][metric][side]
                assert spread["runs"] >= 10, (name, metric, side)
                assert spread["q1"] <= spread["median"] <= spread["q3"], (name, metric, side)
        assert workload["operations"]["parent"]["failed"] == 0, name
        assert workload["operations"]["change"]["failed"] == 0, name
