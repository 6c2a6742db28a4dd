"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgb import manifolds
from cgb.cli import CSV_HEADER, RunManifest, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flat_circle():
    """A chart whose embedding (cos x, sin x) does not move along y: g = diag(1, 0) everywhere."""
    cos, sin, one = manifolds.COS, manifolds.SIN, manifolds.ONE
    embed = manifolds.TrigEmbedding([[(1.0, (cos, one))], [(1.0, (sin, one))]])
    domain = [[0.0, 1.0], [0.0, 1.0]]
    chart = manifolds.Chart(
        manifolds.embedded_chart("degenerate", embed, domain), embed, quad_domain=np.array(domain)
    )
    h = manifolds.MorseFunction({"degenerate": manifolds.trig_field(manifolds.TrigEmbedding([[(1.0, (cos, one))]]))})
    return manifolds.ManifoldSpec("degenerate", 2, {"degenerate": chart}, 0, {"h": h})


class TestManifest:
    def test_round_trip(self):
        manifest = RunManifest(
            manifold="torus",
            manifold_params={"big_radius": 2.0, "small_radius": 1.0},
            morse="height",
            lambdas=[0.0, 1.0],
            resolution=[32, 32],
            tolerance=5e-3,
        )
        again = RunManifest.from_dict(manifest.to_dict())
        assert again == manifest
        assert RunManifest.from_dict(again.to_dict()).to_dict() == manifest.to_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            RunManifest.from_dict({"manifld": "s2"})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunManifest(lambdas=[-1.0]).validate()
        with pytest.raises(ValueError):
            RunManifest(resolution=[1, 4]).validate()
        with pytest.raises(KeyError):
            RunManifest(manifold="moebius").validate()


# malformed flags, manifests and expressions: each must end in exit code 2
# with a one-line message that names the bad field; {manifest} is replaced
# by the path of a manifest file holding the given fields
MALFORMED = {
    "lambda-inf": (["sweep", "--manifold", "s2", "--morse", "height", "--lambda", "inf"], None, "lambda"),
    "lambda-nan": (["sweep", "--manifold", "s2", "--morse", "height", "--lambda", "nan"], None, "lambda"),
    "tolerance-nan": (["pfaffian", "--manifold", "s2", "--tolerance", "nan"], None, "tolerance"),
    "lambdas-string": (["sweep", "--manifest", "{manifest}"], {"morse": "height", "lambdas": "1,2"}, "lambdas"),
    "efts-zero-denominator": (["efts", "delta", "1/0"], None, "denominator"),
    "efts-trailing-plus": (["efts", "delta", "x1 +"], None, "dangling sign"),
    "efts-field-trailing-minus": (["efts", "cartan", "x1*d/dx1 -"], None, "dangling sign"),
    "efts-field-empty-factor": (["efts", "cartan", "*d/dx1"], None, "empty factor"),
    "efts-field-double-star": (["efts", "cartan", "x1**d/dx1"], None, "empty factor"),
    "efts-field-juxtaposed": (["efts", "cartan", "x1 d/dx1", "--delta", "2"], None, "missing operator"),
    "efts-negative-degree-cap": (["efts", "cartan", "d/dx1", "--degree-cap", "-1"], None, "degree"),
    # no efts element is dropped: empty text is refused, and so is a second element where one is taken
    "efts-delta-empty": (["efts", "delta", ""], None, "empty polynomial"),
    "efts-concordance-empty-second": (["efts", "concordance", "x1", ""], None, "empty polynomial"),
    "efts-delta-second-element": (["efts", "delta", "x1", "junk!!"], None, "'junk!!'"),
    "efts-cartan-second-element": (["efts", "cartan", "d/dx1", "x1"], None, "takes one element"),
    "params-unknown": (["pfaffian", "--manifold", "s2", "--manifold-params", '{"foo": 1}'], None, "foo"),
    "params-list": (["pfaffian", "--manifold", "s2", "--manifold-params", "[1]"], None, "manifold_params"),
    "params-string-radius": (
        ["pfaffian", "--manifold", "s2", "--manifold-params", '{"radius": "2"}'], None, "radius"
    ),
    "params-negative-radius": (
        ["pfaffian", "--manifold", "s2", "--manifold-params", '{"radius": -1}'], None, "radius"
    ),
    "amplitude-below-minus-one": (
        ["pfaffian", "--manifold", "s2_perturbed", "--manifold-params", '{"amplitude": -1}'], None, "amplitude"
    ),
    "manifest-not-object": (["pfaffian", "--manifest", "{manifest}"], 5, "manifest"),
    "manifest-seed": (["pfaffian", "--manifest", "{manifest}"], {"seed": 0}, "seed"),
    "seed-density-zero": (
        ["index", "--manifold", "s2", "--morse", "height", "--seed-density", "0"], None, "seed density"
    ),
    # a seed grid over the point budget is refused before it is built: 4097^2 and 65^4 just exceed 2^24
    "seed-density-over-budget": (
        ["index", "--manifold", "s2", "--morse", "height", "--seed-density", "4097"], None, "seed grid on chart 'polar'"
    ),
    "seed-density-over-budget-4d": (
        ["index", "--manifold", "s2xs2", "--morse", "height_sum", "--seed-density", "65"], None, "65^4 = 17850625"
    ),
    "seed-density-huge": (
        ["index", "--manifold", "s2", "--morse", "height", "--seed-density", "1000000000000"], None, "seed grid"
    ),
    # a resolution is refused whole: one count for two axes, and a float count in a manifest
    "resolution-one-count": (["pfaffian", "--resolution", "96"], None, "resolution needs 2 per-axis counts for s2, got [96]"),
    "resolution-float-count": (
        ["pfaffian", "--manifest", "{manifest}"], {"resolution": [96.0, 192]}, "resolution must be a list of integers"
    ),
    # argparse's own refusals leave through the same line
    "no-subcommand": ([], None, "command"),
    "tolerance-not-a-number": (["pfaffian", "--tolerance", "abc"], None, "--tolerance"),
    "seed-density-not-an-integer": (
        ["index", "--manifold", "s2", "--morse", "height", "--seed-density", "x"], None, "--seed-density"
    ),
    "efts-delta-choice": (["efts", "delta", "x1", "--delta", "3"], None, "--delta"),
    "unknown-flag": (["sweep", "--bogus"], None, "--bogus"),
    "params-not-json": (["pfaffian", "--manifold-params", "{bad"], None, "--manifold-params"),
    # an empty flag value is a value: it is refused, not ignored
    "manifold-empty": (["pfaffian", "--manifold", ""], None, "manifold"),
    "morse-empty": (["sweep", "--manifold", "s2", "--morse", ""], None, "morse"),
    "lambda-empty": (["sweep", "--manifold", "torus", "--lambda", ""], None, "--lambda"),
    "resolution-empty": (["pfaffian", "--resolution", ""], None, "--resolution"),
    "out-empty": (["pfaffian", "--out", ""], None, "out"),
    "index-without-potential": (["index", "--manifold", "s2"], None, "potential"),
    # counts and values that overflow are refused before they reach an integer or the JSON
    "lambda-overflow": (["sweep", "--manifold", "s2", "--morse", "height", "--lambda", "1e308"], None, "budget"),
    # the conformal factor overflows det g at the first grid point
    "amplitude-overflow": (
        ["pfaffian", "--manifold", "s2_perturbed", "--manifold-params", '{"amplitude": 1e308}', "--resolution", "16,32"],
        None,
        "metric determinant or inverse not finite",
    ),
    "radius-overflow": (
        ["pfaffian", "--manifold", "s2", "--manifold-params", '{"radius": 1e308}'], None, "metric not positive definite"
    ),
    # the Morse route refuses a non-finite gradient norm at the first seed that has one
    "index-torus-overflow": (
        ["index", "--manifold", "torus", "--manifold-params", '{"big_radius": 1e308, "small_radius": 1e307}',
         "--morse", "height"],
        None,
        "gradient norm not finite on chart 'torus' at the seed point (",
    ),
    "index-radius-overflow": (
        ["index", "--manifold", "s2", "--manifold-params", '{"radius": 1e308}', "--morse", "height"],
        None,
        "gradient norm not finite on chart 'polar' at the seed point (",
    ),
    "index-gradient-norm-overflow": (
        ["index", "--manifold", "s2", "--manifold-params", '{"radius": 1e200}', "--morse", "height"],
        None,
        "gradient norm not finite on chart 'polar' at the seed point (",
    ),
    # g is finite and positive definite but det g ~ r^4 overflows: refused, not read as Z = 0
    "pfaffian-det-overflow": (
        ["pfaffian", "--manifold", "s2", "--manifold-params", '{"radius": 1e100}'],
        None,
        "metric determinant or inverse not finite at the grid point (0.000587",
    ),
    "sweep-det-overflow": (
        ["sweep", "--manifold", "s2", "--manifold-params", '{"radius": 1e100}', "--morse", "height", "--lambda", "0,1"],
        None,
        "metric determinant or inverse not finite at the grid point (0.0001, 0.0)",
    ),
}


@pytest.mark.parametrize("argv, manifest, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_usage_error(capsys, tmp_path, argv, manifest, field):
    path = tmp_path / "m.json"
    if manifest is not None:
        path.write_text(json.dumps(manifest))
    code, stdout, err = run(capsys, *(arg.replace("{manifest}", str(path)) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert "Traceback" not in err and stdout == ""


def test_run_flags_are_the_manifest_fields():
    # each run flag's dest names the manifest field it sets, and only a flag that is given sets one
    fields = set(RunManifest.__dataclass_fields__)
    every_flag = [
        "--manifold", "s2", "--manifold-params", "{}", "--morse", "height", "--lambda", "0,1",
        "--resolution", "8,16", "--tolerance", "1", "--out", "run", "--no-adaptive",
    ]
    for command in ("pfaffian", "index", "sweep"):
        given = vars(build_parser().parse_args([command, *every_flag]))
        assert set(given) - fields <= {"command", "func", "manifest", "seed_density"}
        assert {name: given.get(name) for name in fields} == {
            "manifold": "s2", "manifold_params": {}, "morse": "height", "lambdas": [0.0, 1.0],
            "resolution": [8, 16], "tolerance": 1.0, "out": "run", "adaptive": False,
        }
        assert not fields & set(vars(build_parser().parse_args([command])))


def test_unknown_names_print_unquoted(capsys):
    # a KeyError prints by its message, not by its repr
    code, _, err = run(capsys, "pfaffian", "--manifold", "klein")
    assert code == 2 and err.startswith("error: unknown manifold 'klein'; available: [")
    code, _, err = run(capsys, "pfaffian", "--manifold", "s2", "--morse", "bogus")
    assert (code, err) == (2, "error: unknown potential 'bogus' for s2; available: ['height']\n")


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: cgb")


def test_overflow_refusals_print_no_warnings():
    # in a fresh interpreter numpy's RuntimeWarnings reach stderr: the refusal must be its only line
    import subprocess
    import sys

    for params, message in (
        ("amplitude", "metric determinant or inverse not finite"),
        ("radius", "metric not positive definite"),
    ):
        manifold = "s2_perturbed" if params == "amplitude" else "s2"
        argv = ["pfaffian", "--manifold", manifold, "--manifold-params", f'{{"{params}": 1e308}}', "--resolution", "16,32"]
        proc = subprocess.run([sys.executable, "-m", "cgb.cli", *argv], capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {message} at the grid point (") and proc.stderr.count("\n") == 1


def test_morse_overflow_refusal_prints_no_warnings():
    # the Newton search runs under the same rule: one refusal line, no RuntimeWarning
    import subprocess
    import sys

    params = '{"big_radius": 1e308, "small_radius": 1e307}'
    argv = ["index", "--manifold", "torus", "--manifold-params", params, "--morse", "height"]
    proc = subprocess.run([sys.executable, "-m", "cgb.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: gradient norm not finite on chart 'torus' at the seed point (")
    assert proc.stderr.count("\n") == 1


class TestPfaffianCommand:
    def test_sphere_pass(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys,
            "pfaffian",
            "--manifold",
            "s2",
            "--resolution",
            "64,128",
            "--tolerance",
            "1e-3",
            "--out",
            str(out),
        )
        assert code == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["chi_known"] == 2
        assert payload["abs_error"] < 1e-3
        assert payload["resolution"] == [64, 128]

    def test_product_manifold(self, capsys):
        code, stdout, _ = run(
            capsys, "pfaffian", "--manifold", "s2xs2",
            "--resolution", "16,16,16,16", "--tolerance", "1e-2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["chi_known"] == 4
        assert payload["abs_error"] < 1e-2

    def test_product_default_resolution(self, capsys):
        # no resolution given: 16 points on each of the four axes
        code, stdout, _ = run(capsys, "pfaffian", "--manifold", "s2xs2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["resolution"] == [16, 16, 16, 16]
        assert payload["chi_computed"] == 3.999999960000002

    def test_unknown_manifold_usage_error(self, capsys):
        code, _, err = run(capsys, "pfaffian", "--manifold", "klein")
        assert code == 2
        assert "unknown manifold" in err

    def test_builds_manifold_once(self, capsys, monkeypatch):
        calls = []

        def counting_sphere(**params):
            calls.append(params)
            return manifolds.sphere(**params)

        monkeypatch.setitem(manifolds._BUILDERS, "s2", counting_sphere)
        code, _, _ = run(capsys, "pfaffian", "--manifold", "s2", "--resolution", "8,16", "--tolerance", "1")
        assert code == 0
        assert len(calls) == 1

    def test_large_finite_metric_is_integrated(self, capsys):
        # det g ~ 1e200 stays finite: the det overflow refusal leaves this radius alone
        code, stdout, _ = run(capsys, "pfaffian", "--manifold", "s2", "--manifold-params", '{"radius": 1e50}')
        assert code == 0 and abs(json.loads(stdout)["chi_computed"] - 2.0) < 1e-3

    def test_degenerate_metric_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setitem(manifolds._BUILDERS, "degenerate", flat_circle)
        code, stdout, err = run(capsys, "pfaffian", "--manifold", "degenerate", "--resolution", "4,4")
        assert code == 2 and stdout == ""
        assert err.startswith("error: metric not positive definite at the grid point (")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_degenerate_metric_in_stiffness_probe_names_the_point(self, capsys, monkeypatch):
        # a sweep meets the metric first in the stiffness probe, which inverts g
        # the way the integrand does
        monkeypatch.setitem(manifolds._BUILDERS, "degenerate", flat_circle)
        code, stdout, err = run(capsys, "sweep", "--manifold", "degenerate", "--morse", "h", "--lambda", "1")
        assert code == 2 and stdout == ""
        assert err.startswith("error: metric not positive definite at the grid point (")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_degenerate_critical_point_is_usage_error(self, capsys, monkeypatch, degenerate_patch):
        monkeypatch.setitem(manifolds._BUILDERS, "degenerate_patch", lambda: degenerate_patch)
        code, stdout, err = run(capsys, "index", "--manifold", "degenerate_patch", "--morse", "pinch")
        assert code == 2 and stdout == ""
        assert err.startswith("error: critical point of 'pinch' ")
        assert err.endswith("the potential is not Morse there\n")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_tolerance_failure_exit_code(self, capsys):
        code, stdout, _ = run(
            capsys, "pfaffian", "--manifold", "s2", "--resolution", "4,4",
            "--tolerance", "1e-9",
        )
        assert code == 1


class TestIndexCommand:
    def test_torus_table(self, capsys):
        code, stdout, _ = run(capsys, "index", "--manifold", "torus", "--morse", "height")
        assert code == 0
        assert "hopf index: 0" in stdout
        assert stdout.count("torus") >= 4

    def test_out_writes_the_printed_index(self, capsys, tmp_path):
        out = tmp_path / "stem"
        code, stdout, _ = run(capsys, "index", "--manifold", "s2", "--morse", "height", "--out", str(out))
        assert code == 0
        payload = json.loads((tmp_path / "stem.json").read_text())
        assert f"hopf index: {payload['index']}   (chi = 2)" in stdout
        assert payload["index"] == 2 and len(payload["points"]) == 2
        assert stdout.endswith(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def test_requires_potential(self, capsys):
        code, _, err = run(capsys, "index", "--manifold", "torus")
        assert code == 2

    def test_manifest_none_matches_flag(self, capsys, tmp_path):
        # "none" means h = 0 whether a flag or a manifest spells it
        manifest_path = tmp_path / "m.json"
        manifest = {"manifold": "s2", "morse": "none", "lambdas": [0, 1], "resolution": [16, 32]}
        manifest_path.write_text(json.dumps(manifest))
        flags = ["--manifold", "s2", "--morse", "none", "--lambda", "0,1", "--resolution", "16,32"]
        sweep = run(capsys, "sweep", "--manifest", str(manifest_path))
        assert sweep == run(capsys, "sweep", *flags)
        assert sweep[0] == 0 and '"morse": null' in sweep[1]
        index = run(capsys, "index", "--manifest", str(manifest_path))
        assert index == run(capsys, "index", *flags)
        assert index == (2, "", "error: the index command needs a potential (--morse NAME)\n")


class TestSweepCommand:
    def test_sphere_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep"
        code, stdout, _ = run(
            capsys,
            "sweep",
            "--manifold",
            "s2",
            "--morse",
            "height",
            "--lambda",
            "0,1,2",
            "--resolution",
            "48,96",
            "--tolerance",
            "1e-2",
            "--out",
            str(out),
        )
        assert code == 0
        csv_text = (tmp_path / "sweep.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["max_deviation"] < 1e-2

    @pytest.mark.parametrize("argv", [["--manifold", "s2", "--resolution", "2,2", "--lambda", "0"],
                                      ["--manifold", "s2xs2", "--resolution", "2,2,2,2"]])
    def test_flat_sweep_that_misses_chi_fails(self, capsys, argv):
        # one coupling has no spread from itself, but Z on a 2-point grid misses chi by more than 1e-2
        code, out, err = run(capsys, "sweep", *argv)
        payload = json.loads(out[out.index("{"):])
        assert (code, err, payload["max_deviation"]) == (1, "", 0.0)
        assert payload["max_deviation_from_chi"] > payload["tolerance"]

    def test_grid_above_point_budget_is_usage_error(self, capsys):
        # lambda 1000 asks for graded rules of 5105 x 5199 nodes: refused before any allocation
        code, _, err = run(capsys, "sweep", "--manifold", "flat_t2", "--morse", "coscos", "--lambda", "1000")
        assert code == 2
        assert err.count("\n") == 1 and "(5105, 5199) has 26540895 points" in err and "budget" in err

    def test_factorized_sweep_is_planned_per_factor(self, capsys):
        # each S2 factor takes its own graded grid and budget: the 4-D count is never formed
        argv = ["sweep", "--manifold", "s2xs2", "--morse", "height_sum", "--lambda", "0,5", "--resolution", "8,10,8,10"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
        assert [row[0] for row in rows] == ["0", "5"]
        assert all(abs(float(row[1]) - 4.0) < 1e-2 for row in rows)

    @pytest.mark.parametrize(
        "lam, hint",
        [
            ("20", "that axis needs 6317 points, above the budget of 4096 per axis"),
            ("1000", "that axis needs 315828 points, above the budget of 4096 per axis"),
            ("1e308", "the count that axis needs is not finite, above the budget of 4096 per axis"),
        ],
    )
    def test_under_resolution_names_the_grid_asked_for(self, capsys, lam, hint):
        # --no-adaptive keeps the 48^2 grid: the refusal is under-resolution, never the budget
        # of the adaptive grid, and no overflowed width or infinite count is printed
        argv = ["sweep", "--manifold", "flat_t2", "--morse", "coscos", "--lambda", f"0,{lam}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--resolution", "48,48", "--no-adaptive")
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("error: resolution (48, 48) under-resolves the localization bump of chart width ")
        assert err.endswith(f"; {hint}\n") and "budget of 4096 per axis and" not in err
        if lam == "1e308":
            assert "chart width below 1e-308 on an axis" in err

    def test_deterministic_output(self, capsys, tmp_path):
        argv = [
            "sweep", "--manifold", "flat_t2", "--morse", "coscos",
            "--lambda", "0,1", "--resolution", "24,24", "--tolerance", "1e-2",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)

    def test_deterministic_across_processes(self, tmp_path):
        import subprocess
        import sys

        argv = [
            sys.executable, "-m", "cgb.cli",
            "sweep", "--manifold", "s2", "--morse", "height",
            "--lambda", "0,1", "--resolution", "24,48", "--tolerance", "1e-2",
        ]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_manifest_file_with_overrides(self, capsys, tmp_path):
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "manifold": "s2",
                    "morse": "height",
                    "lambdas": [0.0],
                    "resolution": [32, 64],
                    "tolerance": 0.05,
                }
            )
        )
        code, stdout, _ = run(
            capsys, "sweep", "--manifest", str(manifest_path), "--lambda", "0,1"
        )
        assert code == 0
        assert stdout.count("\n") >= 3


def selftest_line(stdout, name):
    """The status word of the selftest line ``name``."""
    (line,) = [line for line in stdout.splitlines() if line.startswith(name)]
    return line[len(name) :].split()[0]


class TestSelftestCommand:
    def test_passes(self, capsys):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in stdout

    def test_rational_backend(self, capsys):
        code, stdout, _ = run(capsys, "selftest", "--backend", "rational")
        assert code == 0
        assert "backend=rational" in stdout

    def test_injected_fault_detected(self, capsys):
        code, stdout, _ = run(capsys, "selftest", "--inject-sign-fault")
        assert code == 1
        assert "FAIL" in stdout

    def test_runs_the_batched_kernel(self, capsys):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 0
        (line,) = [line for line in stdout.splitlines() if line.startswith("batched kernel vs pointwise engine")]
        assert line.split()[5] == "PASS"

    def test_batched_kernel_sign_fault_detected(self, capsys, monkeypatch):
        from cgb import sigma

        top = sigma._berezin_top
        monkeypatch.setattr(sigma, "_berezin_top", lambda *args: -top(*args))
        code, stdout, _ = run(capsys, "selftest")
        assert code == 1
        (line,) = [line for line in stdout.splitlines() if line.startswith("batched kernel vs pointwise engine")]
        assert line.split()[5] == "FAIL"
        assert "FAILURES detected" in stdout

    def test_broken_contraction_fails_the_efts_line(self, capsys, doubled_iw):
        code, stdout, _ = run(capsys, "selftest")
        assert code == 1
        assert selftest_line(stdout, "odd-direction algebra + Cartan identity") == "FAIL"
        assert selftest_line(stdout, "grassmann graded commutativity") == "PASS"
        assert stdout.endswith("selftest: FAILURES detected\n")

    def test_dropped_merge_sign_fails_graded_commutativity(self, capsys, monkeypatch):
        # with every merge sign +1 the product commutes, so odd pairs break a b = -b a
        from cgb import grassmann

        monkeypatch.setattr(grassmann, "_parity_word", lambda mask: 0)
        code, stdout, _ = run(capsys, "selftest")
        assert code == 1
        assert selftest_line(stdout, "grassmann graded commutativity") == "FAIL"
        assert selftest_line(stdout, "odd-direction algebra + Cartan identity") == "PASS"

    @pytest.mark.parametrize("backend, seed", [("float", "0"), ("rational", "1"), ("rational", "0"), ("float", "4")])
    def test_swapped_operands_fail_graded_commutativity(self, capsys, monkeypatch, backend, seed):
        # a swapped product still has a b = sign b a; a disjoint odd pair's product against the sorting sign of its
        # generator word does not hold (the rational draws of seed 1 hold two such pairs; those of seed 0 and the
        # float draws of seed 4 hold none, so there only the line's fixed pairs see it)
        from cgb import grassmann

        multiply = grassmann.multiply
        monkeypatch.setattr(grassmann, "multiply", lambda a, b: multiply(b, a))
        code, stdout, _ = run(capsys, "selftest", "--backend", backend, "--seed", seed)
        assert code == 1
        assert selftest_line(stdout, "grassmann graded commutativity") == "FAIL"


    @pytest.mark.parametrize("backend, seed", [("rational", "0"), ("float", "4")])
    def test_dropped_merge_sign_fails_graded_commutativity_at_more_seeds(self, capsys, monkeypatch, backend, seed):
        # the rational draws of seed 0 all share a generator, so the line sees the fault through its fixed pairs alone
        from cgb import grassmann

        monkeypatch.setattr(grassmann, "_parity_word", lambda mask: 0)
        code, stdout, _ = run(capsys, "selftest", "--backend", backend, "--seed", seed)
        assert code == 1
        assert selftest_line(stdout, "grassmann graded commutativity") == "FAIL"


class TestEftsCommand:
    def test_delta(self, capsys):
        code, stdout, _ = run(capsys, "efts", "delta", "x1^2", "--delta", "2")
        assert code == 0
        assert stdout.strip() == "-2*D1x1*D2x1 + 2*x1*D21x1"

    def test_efts_does_not_import_numpy(self):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from cgb.cli import main\n"
            "assert main(['efts', 'concordance', '2*x1*D21x1 - 2*D1x1*D2x1', '0', '--delta', '2']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cartan_pass(self, capsys):
        code, stdout, _ = run(capsys, "efts", "cartan", "d/dx1", "--delta", "2")
        assert code == 0
        assert stdout.startswith("PASS")

    def test_cartan_fail(self, capsys, doubled_iw):
        code, stdout, _ = run(capsys, "efts", "cartan", "d/dx1")
        assert code == 1
        assert stdout == "FAIL: monomial x1: commutator gives 2, Lie derivative gives 1\n"

    def test_concordance_witness(self, capsys):
        code, stdout, _ = run(
            capsys, "efts", "concordance", "2*x1*D21x1 - 2*D1x1*D2x1", "0", "--delta", "2"
        )
        assert code == 0
        assert "WITNESS: x1^2" in stdout

    def test_concordance_infeasible(self, capsys):
        code, stdout, _ = run(capsys, "efts", "concordance", "1", "0", "--delta", "1")
        assert code == 1
        assert "INFEASIBLE" in stdout

    def test_leading_minus_after_double_dash(self, capsys):
        # argparse reads text starting with '-' as an option unless it follows '--'
        code, stdout, _ = run(capsys, "efts", "delta", "--delta", "2", "--", "-x1^2")
        assert code == 0
        assert stdout.strip() == "2*D1x1*D2x1 - 2*x1*D21x1"

    def test_oversized_basis_is_usage_error(self, capsys):
        # 300 variables at degree cap 0 would enumerate C(304, 4) ~ 350M weight-4 keys
        code, stdout, err = run(capsys, "efts", "cartan", "d/dx1", "--vars", "300", "--delta", "2", "--degree-cap", "0")
        assert code == 2 and stdout == ""
        assert err.startswith("error: the monomial basis for 300 variables ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "efts", "delta", "x1 @@ 2", "--delta", "2")
        assert code == 2


# -- fuzzing the error contract --------------------------------------------------

# values of the wrong type or out of range, for any manifest field or parameter
JUNK = st.sampled_from([None, True, "x", "", [], {}, float("nan"), float("inf"), -1, 0, 1e300])
UNIT_FLOATS = st.floats(min_value=0.0, max_value=1.0)  # couplings that keep adaptive grids small
PARAM_KEYS = st.sampled_from(["radius", "amplitude", "a", "c", "big_radius", "small_radius", "radius1", "foo"])
PARAMS = st.one_of(
    st.dictionaries(PARAM_KEYS, st.one_of(st.floats(min_value=-2.0, max_value=3.0), JUNK), max_size=2), JUNK
)
MANIFEST = st.fixed_dictionaries(
    {},
    optional={
        "manifold": st.one_of(st.sampled_from(sorted(manifolds._BUILDERS) + ["klein"]), JUNK),
        "manifold_params": PARAMS,
        "morse": st.one_of(st.sampled_from(["height", "coscos", "height_sum", "none", "nope"]), JUNK),
        "lambdas": st.one_of(st.lists(st.one_of(UNIT_FLOATS, JUNK), max_size=3), JUNK),
        "resolution": st.one_of(st.lists(st.one_of(st.integers(-1, 12), JUNK), max_size=4), JUNK),
        "tolerance": st.one_of(st.floats(min_value=-1.0, max_value=1.0), JUNK),
        "adaptive": st.one_of(st.booleans(), JUNK),
        "backend": st.one_of(st.sampled_from(["float", "rational"]), JUNK),
        "typo": st.integers(),
    },
)
LAMBDA_ITEMS = st.one_of(UNIT_FLOATS.map(repr), st.sampled_from(["-1", "nan", "inf", "x", ""]))
FLAGS = st.fixed_dictionaries(
    {},
    optional={
        "--manifold-params": PARAMS.map(json.dumps) | st.sampled_from(["{", "nope"]),
        "--lambda": st.lists(LAMBDA_ITEMS, min_size=1, max_size=3).map(",".join),
        "--tolerance": st.floats(min_value=-1.0, max_value=1.0).map(repr) | st.sampled_from(["nan", "inf", "x"]),
        "--seed-density": st.integers(-2, 4).map(str) | st.sampled_from(["x", "1.5"]),
    },
)


def run_in_process(argv):
    """Run the CLI in-process; argparse's own rejections return from ``main`` like every other refusal."""
    import contextlib
    import io

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def exit_code_and_stderr(argv):
    code, _, stderr = run_in_process(argv)
    return code, stderr


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["pfaffian", "sweep", "index"]),
    manifest=st.one_of(MANIFEST, JUNK),  # None: no manifest file
    flags=FLAGS,
)
def test_fuzzed_input_keeps_error_contract(command, manifest, flags):
    """Any manifest and flag values end in exit 0, 1 or 2, never in a traceback."""
    import tempfile

    if command != "index":
        flags.pop("--seed-density", None)
    argv = [command] + [arg for flag, value in flags.items() for arg in (flag, value)]
    with tempfile.TemporaryDirectory() as tmp:
        if manifest is not None:
            path = f"{tmp}/m.json"
            with open(path, "w") as fh:
                json.dump(manifest, fh)
            argv += ["--manifest", path]
        code, stderr = exit_code_and_stderr(argv)
    assert code in (0, 1, 2), (argv, manifest, code)
    assert "Traceback" not in stderr


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["s2", "torus", "flat_t2"]),
    lam=st.floats(min_value=0.0, max_value=100.0),
    exponent=st.floats(min_value=-2.0, max_value=2.0),
)
def test_adaptive_sweep_lands_on_chi_or_names_the_budget(name, lam, exponent):
    """An adaptive sweep at a coupling up to 100, at radii from 1e-2 to 1e2, lands within 1e-2 of chi or is refused for the budget."""
    scale = 10.0**exponent
    params = {"s2": {"radius": scale}, "torus": {"big_radius": 2 * scale, "small_radius": scale}, "flat_t2": {}}[name]
    argv = ["sweep", "--manifold", name, "--manifold-params", json.dumps(params)]
    argv += ["--morse", "coscos" if name == "flat_t2" else "height", "--lambda", repr(lam)]
    code, out, err = run_in_process(argv + ["--resolution", "32,64" if name == "s2" else "32,32"])
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: quadrature grid ") and "budget" in err, err
    else:
        assert (code, err) == (0, ""), err
        assert json.loads(out[out.index("{") :])["max_deviation_from_chi"] < 1e-2, (argv, out)


# efts text: sums of the grammar's factors (base variables only, each summand
# closed by a d/dx<j>, for a vector field); the same with a junk character
# spliced in; and a soup of loose tokens
EFTS_FACTORS = ["x1", "x2", "2", "3/2", "x1^2", "D1x1", "D2x2", "D21x1", "Dx1", "D1x1^0", "D21x1^3"]
EFTS_BAD_FACTORS = ["x3", "D3x1", "1/0", "d/dx1"]


def efts_text(field):
    factors = EFTS_FACTORS[:5] + ["x3", "D1x1"] if field else EFTS_FACTORS + EFTS_BAD_FACTORS[:3]
    ends = [["d/dx1"], ["d/dx2"], ["d/dx3"], ["d/dx1", "x1"]] if field else [[]]
    product = st.tuples(st.lists(st.sampled_from(factors), min_size=0 if field else 1, max_size=3), st.sampled_from(ends))
    summand = st.tuples(st.sampled_from(["", "-", "--"]), product.map(lambda t: "*".join(t[0] + t[1])))
    well_formed = st.lists(summand.map("".join), min_size=1, max_size=3).map(" + ".join)
    junk = st.sampled_from(["^", "/", "*", "-", "@", "d/d", "x", "\u00e9"])
    at = st.sampled_from([0, 2, 5, 1000])  # 1000: at the end
    spliced = st.tuples(well_formed, junk, at).map(lambda t: t[0][: t[2]] + t[1] + t[0][t[2]:])
    tokens = EFTS_FACTORS + EFTS_BAD_FACTORS + ["+", "-", "*", "^", "/", "0", " "]
    soup = st.lists(st.sampled_from(tokens), max_size=8).map("".join)
    return st.one_of(well_formed, well_formed, spliced, soup)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["delta", "cartan", "concordance"]),
    delta=st.integers(1, 2),
    nvars=st.integers(1, 2),
    degree_cap=st.integers(0, 2),
    data=st.data(),
)
def test_fuzzed_efts_text_keeps_error_contract(command, delta, nvars, degree_cap, data):
    """Any efts text ends in exit 0, 1 or 2, never in a traceback."""
    texts = data.draw(st.lists(efts_text(command == "cartan"), min_size=1, max_size=1 + (command == "concordance")))
    flags = ["--delta", str(delta), "--vars", str(nvars), "--degree-cap", str(degree_cap)]
    code, stderr = exit_code_and_stderr(["efts", command, *flags, "--", *texts])  # texts may start with '-'
    assert code in (0, 1, 2), (command, texts, flags, code)
    assert "Traceback" not in stderr
