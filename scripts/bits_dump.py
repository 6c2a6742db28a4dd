"""Print the exact results of a cgb checkout, one line per result, for diffing two checkouts.

    PYTHONPATH=src python3 scripts/bits_dump.py [MANIFOLD ...] > dump.txt

Run from the root of a checkout.  Floats are printed with ``float.hex``,
so two dumps are equal exactly where the results agree bit for bit.  The
lines cover, per manifold of the catalog and ``s2_perturbed`` (all of them,
or the ones named):

* ``partition``: Z and its error bound at couplings 0, 0.3, 1 and -10 on
  an explicit grid, and at coupling 1 on a resolution one count too long,
  with no potential and with each one (on ``s2xs2`` both direct and
  factorized);
* ``sweep``: one adaptive sweep with no potential, and one adaptive, one
  ``--no-adaptive`` and one adaptive sweep at the unsorted couplings
  2, 0, 1, 0 (``unsorted``) per potential, so that runs of couplings on one
  grid close and open again;
* ``root``: every critical point ``find_critical_points`` returns;
* ``cli``: exit code, standard output and standard error of fixed ``cgb``
  commands, run in process through ``cli.main`` (the ``efts`` commands only
  when no manifold is named).

A refusal is printed in place of the result it stops.  Only the standard
library and cgb are used.
"""

from __future__ import annotations

import contextlib
import io
import sys

from cgb import cli, manifolds, morse, sigma

NAMES = ("s2", "ellipsoid", "torus", "flat_t2", "s2xs2", "s2_perturbed")
LAMBDAS = (0.0, 0.3, 1.0, -10.0)
ADAPTIVE_LAMBDAS = (0.0, 1.0, 2.0, 5.0, 10.0)
FIXED_LAMBDAS = (0.0, 1.0, 2.0)
UNSORTED_LAMBDAS = (2.0, 0.0, 1.0, 0.0)

# (manifold or None, argv)
COMMANDS = (
    ("s2", ["pfaffian", "--manifold", "s2", "--resolution", "64,128"]),
    ("s2_perturbed", ["pfaffian", "--manifold", "s2_perturbed", "--resolution", "64,128"]),
    ("s2xs2", ["pfaffian", "--manifold", "s2xs2", "--resolution", "8,10,8,10"]),
    ("torus", ["pfaffian", "--manifold", "torus", "--resolution", "48,48"]),
    ("s2", ["sweep", "--manifold", "s2", "--morse", "height", "--lambda", "0,1,2", "--resolution", "48,96"]),
    ("s2", ["sweep", "--manifold", "s2", "--morse", "height", "--lambda", "0,5,10"]),
    ("flat_t2", ["sweep", "--manifold", "flat_t2", "--morse", "coscos", "--lambda", "0,1,2", "--resolution", "32,32"]),
    ("flat_t2", ["sweep", "--manifold", "flat_t2", "--morse", "coscos", "--lambda", "1000"]),
    ("flat_t2", ["sweep", "--manifold", "flat_t2", "--morse", "coscos", "--lambda", "0,5", "--resolution", "48,48",
                 "--no-adaptive"]),
    ("ellipsoid", ["sweep", "--manifold", "ellipsoid", "--morse", "height", "--lambda", "0,1", "--resolution", "32,64"]),
    ("s2xs2", ["sweep", "--manifold", "s2xs2", "--morse", "height_sum", "--lambda", "0,5", "--resolution", "8,10,8,10"]),
    ("torus", ["sweep", "--manifold", "torus", "--morse", "height", "--lambda", "0,1", "--resolution", "32,32",
               "--no-adaptive"]),
    ("torus", ["index", "--manifold", "torus", "--morse", "height"]),
    ("s2_perturbed", ["index", "--manifold", "s2_perturbed", "--morse", "height"]),
    ("s2_perturbed", ["sweep", "--manifold", "s2_perturbed", "--manifold-params", '{"amplitude": 1e308}',
                      "--morse", "height", "--lambda", "0,1"]),
    ("s2", ["pfaffian", "--manifold", "s2", "--manifold-params", '{"radius": 1e100}']),
    ("s2", ["sweep", "--manifold", "s2", "--morse", "height", "--lambda", "1e308"]),
    (None, ["efts", "concordance", "2*x1*D21x1 - 2*D1x1*D2x1", "0", "--delta", "2"]),
    (None, ["efts", "delta", "x1^2", "--delta", "2"]),
)


def _result(r) -> str:
    res = "x".join(map(str, r.resolution))
    return f"lam={float(r.lam).hex()} res={res} Z={r.value.hex()} bound={r.error_bound.hex()}"


def _refused(error: Exception) -> str:
    return f"refused {type(error).__name__}: {error}"


def _partition_lines(spec) -> list[str]:
    resolution = (32, 64) if spec.dim == 2 else (8, 10, 8, 10)
    too_long = resolution + (4,)
    cases = [(f"lam={lam}", lam, resolution) for lam in LAMBDAS]
    cases.append((f"lam=1.0 asked={'x'.join(map(str, too_long))}", 1.0, too_long))
    lines = []
    for h_name in (None, *spec.morse_catalog):
        for product in (True, False) if spec.factors else (True,):
            head = f"partition {spec.name} h={h_name} product={int(product)}"
            for label, lam, asked in cases:
                try:
                    lines.append(f"{head} {label} {_result(sigma.partition_function(spec, h_name, lam, asked, product))}")
                except (ValueError, IndexError) as error:  # older checkouts refused a too-long resolution by IndexError
                    lines.append(f"{head} {label} {_refused(error)}")
    return lines


def _sweep_lines(spec) -> list[str]:
    base = (48, 96) if spec.dim == 2 else (8, 10, 8, 10)
    cases = [(None, True, ADAPTIVE_LAMBDAS, "")]
    for h_name in spec.morse_catalog:
        cases += [(h_name, True, ADAPTIVE_LAMBDAS, ""), (h_name, False, FIXED_LAMBDAS, ""),
                  (h_name, True, UNSORTED_LAMBDAS, " unsorted")]
    lines = []
    for h_name, adaptive, lams, label in cases:
        head = f"sweep {spec.name} h={h_name} adaptive={int(adaptive)}{label}"
        try:
            sweep = sigma.lambda_sweep(spec, h_name, lams, base, adaptive)
            lines.extend(f"{head} {_result(r)}" for r in sweep.results)
        except ValueError as error:
            lines.append(f"{head} {_refused(error)}")
    return lines


def _root_lines(spec) -> list[str]:
    lines = []
    for h_name in spec.morse_catalog:
        for cp in morse.find_critical_points(spec, h_name):
            coords = ",".join(float(c).hex() for c in cp.coords)
            lines.append(f"root {spec.name} h={h_name} chart={cp.chart} x={coords} h={float(cp.value).hex()} sign={cp.sign}")
    return lines


def _cli_line(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"cli {argv!r} exit={code} stdout={out.getvalue()!r} stderr={err.getvalue()!r}"


def dump(names=None) -> list[str]:
    """The lines for the manifolds ``names`` (all of ``NAMES`` when None)."""
    chosen = NAMES if names is None else tuple(names)
    lines = []
    for name in chosen:
        spec = manifolds.get_manifold(name)
        lines += _partition_lines(spec) + _sweep_lines(spec) + _root_lines(spec)
    for manifold, argv in COMMANDS:
        if manifold in chosen or (manifold is None and names is None):
            lines.append(_cli_line(argv))
    return lines


def main(argv: list[str]) -> int:
    unknown = sorted(set(argv) - set(NAMES))
    if unknown:
        print(f"error: unknown manifolds {unknown}; choose from {list(NAMES)}", file=sys.stderr)
        return 2
    print("\n".join(dump(argv or None)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
