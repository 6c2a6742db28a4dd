"""``scripts/op_faults.py``: per-operation wall, CPU, fault and peak-RSS figures of one workload."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "op_faults.py"


def test_pfaffian_4d_report():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(SCRIPT), "--workload", "pfaffian-4d", "--seed", "1", "--repeat", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["workload"], report["seed"], report["repeat"]) == ("pfaffian-4d", 1, 2)
    assert list(report["operations"]) == ["pfaffian4_s", "coupled4_s"]
    for op in report["operations"].values():
        assert len(op["runs"]) == 2
        for run in op["runs"]:
            assert run["problems"] == []
            assert run["wall_s"] > 0 and run["user_s"] >= 0 and run["sys_s"] >= 0
            assert isinstance(run["minflt"], int) and run["minflt"] >= 0
            assert run["peak_rss_mb"] > 0
        assert set(op["median"]) == {"wall_s", "user_s", "sys_s", "minflt", "peak_rss_mb"}
    # a round runs each operation once, and the peak is a high-water mark: it never falls from run to run
    (p0, p1), (c0, c1) = ([run["peak_rss_mb"] for run in op["runs"]] for op in report["operations"].values())
    assert p0 <= c0 <= p1 <= c1


def test_repeat_below_one_is_refused():
    argv = [sys.executable, str(SCRIPT), "--workload", "pfaffian-4d", "--seed", "1", "--repeat", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 2 and "--repeat must be at least 1" in proc.stderr
