"""``scripts/bits_dump.py``: the exact-results dump used to diff two checkouts."""

import importlib.util
from pathlib import Path

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
    assert kinds == {"width", "partition", "sweep", "root", "cli"}
    assert all("\n" not in line and "flat_t2" in line for line in first)
    assert any("refused" in line for line in first)  # the --no-adaptive sweep under-resolves lambda 1


def test_unknown_manifold_is_refused(capsys):
    assert load().main(["klein"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown manifolds ['klein']")
