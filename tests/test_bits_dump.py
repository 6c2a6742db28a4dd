"""``scripts/bits_dump.py``: the exact-results dump used to diff two checkouts."""

import importlib.util
import math
from pathlib import Path

from cgb import grassmann

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bits_dump.py"


def load():
    spec = importlib.util.spec_from_file_location("bits_dump", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_on_one_manifold_give_equal_lines():
    bits_dump = load()
    first, again = bits_dump.dump(["flat_t2"]), bits_dump.dump(["flat_t2"])
    assert first == again
    kinds = {line.split(" ", 1)[0] for line in first}
    assert kinds == {"width", "partition", "sweep", "newton", "root", "cli"}
    assert all("\n" not in line and "flat_t2" in line for line in first)
    assert any("refused" in line for line in first)  # the --no-adaptive sweep under-resolves lambda 1


def test_unknown_manifold_is_refused(capsys):
    assert load().main(["klein"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown manifolds ['klein']")


def test_algebra_lines_are_the_dict_loops_bits(monkeypatch):
    bits_dump = load()
    lines = bits_dump._algebra_lines()
    assert lines == bits_dump._algebra_lines()
    heads = [line.split(" ", 4)[:4] for line in lines]
    for kind in ("float", "int", "fraction"):
        assert [h[3] for h in heads if h[1:3] == ["pfaffian", kind]] == [f"m={m}" for m in range(2, 13, 2)]
    assert [h[2] for h in heads if h[1] == "exp_even"] == ["float"] * 3 + ["fraction"] * 3
    for route in ("action_coordinate", "action_geometric"):
        assert [h[2] for h in heads if h[1] == route] == ["n=2", "n=3", "n=4"]
    assert [h[2] for h in heads if h[1] == "action_check"] == ["seed=1", "seed=2", "seed=3"]
    assert not any("refused" in line or "\n" in line for line in lines)
    # the same lines with every product on the dict loop
    monkeypatch.setattr(grassmann, "KERNEL_MIN_PAIRS", math.inf)
    assert bits_dump._algebra_lines() == lines


def test_efts_lines_cover_every_operator_at_each_algebra():
    bits_dump = load()
    lines = bits_dump._efts_lines()
    assert lines == bits_dump._efts_lines()
    assert all(line.startswith("efts delta=") and " = " in line and "\n" not in line for line in lines)
    ops = {}
    for line in lines:
        _, delta, m, op = line.split(" ", 4)[:4]
        ops.setdefault((delta, m), set()).add(op)
    for delta in (1, 2):
        for m in (1, 2):
            directions = range(1, delta + 1)
            want = {"poly", "field", "Delta", "L", "I", "cartan"}
            want |= {f"d{k}" for k in directions} | {f"iota{k}" for k in directions}
            if delta == m == 2:
                want.add("concordance")
            assert ops[(f"delta={delta}", f"m={m}")] == want
    assert not any("holds=False" in line for line in lines)
    outcomes = [line.split(" = ", 1)[1].split(" ", 1)[0] for line in lines if " concordance " in line]
    assert {"witness", "certificate", "refused"} <= set(outcomes)
