"""Print the exact results of a cgb checkout, one line per result, for diffing two checkouts.

    PYTHONPATH=src python3 scripts/bits_dump.py [MANIFOLD ...] > dump.txt

Run from the root of a checkout.  Floats are printed with ``float.hex``,
so two dumps are equal exactly where the results agree bit for bit.  The
lines cover, per manifold of the catalog and ``s2_perturbed`` (all of them,
or the ones named):

* ``width``: per potential, ``potential_stiffness`` and the largest mu per
  axis of the adaptive plan at the sweep base (one set per factor of a
  product that splits, separated by ``;``);
* ``partition``: Z and its error bound at couplings 0, 0.3, 1 and -10 on
  an explicit grid, and at coupling 1 on a resolution one count too long,
  with no potential and with each one (on ``s2xs2`` both direct and
  factorized);
* ``sweep``: one adaptive sweep with no potential, and one adaptive, one
  ``--no-adaptive`` and one adaptive sweep at the unsorted couplings
  2, 0, 1, 0 (``unsorted``) per potential, so that runs of couplings on one
  grid close and open again;
* ``newton``: per potential and chart that carries it, at seed densities
  4, 8 and 16 (4, 5 and 6 on a 4-D chart), the count and a SHA-256 of the
  ``float.hex`` coordinates of the points ``morse._newton_batch`` returns,
  in order (``newton_digest``);
* ``root``: every critical point ``find_critical_points`` returns;
* ``cli``: exit code, standard output and standard error of fixed ``cgb``
  commands, run in process through ``cli.main`` (the ``efts`` commands only
  when no manifold is named);
* ``algebra`` (only when no manifold is named): ``fermionic_gaussian`` and
  ``pfaffian_combinatorial`` of seeded float (numpy array), int and
  ``Fraction`` skew forms of sizes 2 to 12, ``exp_even`` of seeded float
  and ``Fraction`` elements, and the term maps of ``action_coordinate``
  and ``action_geometric`` at seeded jets for n = 2, 3 and 4, and
  ``check_action_equivalence(default_rng(s), dims=(2, 3), samples=100)``
  for s = 1, 2 and 3, the call of the ``exact-algebra`` benchmark
  (``action_check``).  Term maps print every term in order, as
  ``mask:coefficient``;
* ``efts`` (only when no manifold is named): for delta and m in {1, 2},
  ``format_polynomial`` of Delta, each d_i, L_v, I_v and each iota_k on
  seeded two-term polynomials over ``enumerate_monomials(delta, m, 3, 3)``
  and seeded base fields v (inputs printed as ``poly`` and ``field``), the
  ``check_cartan`` report of each v, and at delta = m = 2 the witness or
  certificate of ``concordance_solve`` on seeded Delta-images and
  non-images.

A refusal is printed in place of the result it stops.  Only numpy, the
standard library and cgb are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from fractions import Fraction

import numpy as np

from cgb import cli, efts, geometry, grassmann, manifolds, morse, sigma

NAMES = ("s2", "ellipsoid", "torus", "flat_t2", "s2xs2", "s2_perturbed")
LAMBDAS = (0.0, 0.3, 1.0, -10.0)
ADAPTIVE_LAMBDAS = (0.0, 1.0, 2.0, 5.0, 10.0)
FIXED_LAMBDAS = (0.0, 1.0, 2.0)
UNSORTED_LAMBDAS = (2.0, 0.0, 1.0, 0.0)
SWEEP_BASE = {2: (48, 96), 4: (8, 10, 8, 10)}
NEWTON_DENSITIES = {2: (4, 8, 16), 4: (4, 5, 6)}

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


def _plan_mu(plan) -> str:
    if plan.factors is not None:
        return ";".join(_plan_mu(factor) for factor in plan.factors)
    return ",".join(float(mu.max()).hex() for mu in plan.mu)


def _width_lines(spec) -> list[str]:
    lines = []
    for h_name in spec.morse_catalog:
        head = f"width {spec.name} h={h_name}"
        try:
            stiffness = sigma.potential_stiffness(spec, h_name).hex()
            lines.append(f"{head} stiffness={stiffness} mu={_plan_mu(sigma._sweep_plan(spec, h_name, SWEEP_BASE[spec.dim]))}")
        except ValueError as error:
            lines.append(f"{head} {_refused(error)}")
    return lines


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
    base = SWEEP_BASE[spec.dim]
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


def newton_digest(points: np.ndarray) -> str:
    """SHA-256 of the points' coordinates as ``float.hex``, a point's joined by ``,`` and the points by ``;``."""
    text = ";".join(",".join(float(c).hex() for c in point) for point in points)
    return hashlib.sha256(text.encode()).hexdigest()


def _newton_lines(spec) -> list[str]:
    lines = []
    for h_name, potential in spec.morse_catalog.items():
        for chart_name, chart in spec.charts.items():
            h = potential.fields.get(chart_name)
            if h is None:
                continue
            for density in NEWTON_DENSITIES[chart.dim]:
                head = f"newton {spec.name} h={h_name} chart={chart_name} density={density}"
                try:
                    with np.errstate(all="ignore"):  # as find_critical_points runs it
                        points = morse._newton_batch(chart, h, morse._seeds(chart, density))
                    lines.append(f"{head} count={len(points)} sha256={newton_digest(points)}")
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


def _value(x) -> str:
    return float.hex(x) if isinstance(x, float) else str(x)


def _terms(element) -> str:
    return " ".join(f"{mask:x}:{_value(c)}" for mask, c in element.terms.items()) or "0"


def _skew(rng: random.Random, m: int, kind: str):
    draw = {"float": lambda: rng.gauss(0.0, 1.0), "int": lambda: rng.randint(-4, 4),
            "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))}[kind]
    q = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            q[i][j] = draw()
            q[j][i] = -q[i][j]
    return np.array(q) if kind == "float" else q


def _algebra_lines() -> list[str]:
    rng = random.Random(2022)
    lines = []
    for kind in ("float", "int", "fraction"):
        for m in range(2, 13, 2):
            q = _skew(rng, m, kind)
            values = []
            for route in (grassmann.fermionic_gaussian, grassmann.pfaffian_combinatorial):
                try:
                    values.append(_value(route(q)))
                except ValueError as error:
                    values.append(_refused(error))
            lines.append(f"algebra pfaffian {kind} m={m} gaussian={values[0]} laplace={values[1]}")
    for kind, draw in (("float", lambda: rng.uniform(-2.0, 2.0)), ("fraction", lambda: Fraction(rng.randint(-9, 9), 4))):
        for m in (4, 8, 12):
            even = [mask for mask in range(1, 1 << m) if mask.bit_count() in (2, 4)]
            terms = {mask: draw() for mask in rng.sample(even, min(3 * m, len(even)))}
            if kind == "float":
                terms[0] = draw()  # exp of the scalar part scales the series
            element = grassmann.GrassmannElement(m, terms)
            lines.append(f"algebra exp_even {kind} m={m} {_terms(grassmann.exp_even(element))}")
    arrays = np.random.default_rng(2022)
    for n in (2, 3, 4):
        a = arrays.normal(size=(n, n))
        dg = arrays.normal(size=(n, n, n))
        d2g = arrays.normal(size=(n, n, n, n))
        d2g = 0.5 * (d2g + d2g.transpose(0, 1, 3, 2))
        jets = geometry.MetricJets(a @ a.T + n * np.eye(n), 0.5 * (dg + dg.transpose(0, 2, 1)), 0.5 * (d2g + d2g.transpose(1, 0, 2, 3)))
        hess = arrays.normal(size=(n, n))
        cf = sigma.ComponentField(np.zeros(n), arrays.normal(size=n), float(arrays.normal()), arrays.normal(size=n), hess + hess.T)
        frame = geometry.CurvatureFrame.from_jets(np.zeros(n), jets)
        lines.append(f"algebra action_coordinate n={n} {_terms(sigma.action_coordinate(jets, cf))}")
        lines.append(f"algebra action_geometric n={n} {_terms(sigma.action_geometric(frame, cf))}")
    for seed in (1, 2, 3):
        worst = sigma.check_action_equivalence(np.random.default_rng(seed), dims=(2, 3), samples=100)
        lines.append(f"algebra action_check seed={seed} worst={_value(worst)}")
    return lines


def _seeded_polynomial(rng: random.Random, delta: int, m: int, keys, count: int) -> efts.SuperPolynomial:
    """A sum of ``count`` distinct keys with nonzero rational coefficients."""
    terms = {key: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for key in rng.sample(keys, count)}
    return efts.SuperPolynomial(delta, m, terms)


def _concordance_text(e_plus, e_minus) -> str:
    try:
        result = efts.concordance_solve(e_plus, e_minus)
    except ValueError as error:
        return _refused(error)
    if result.feasible:
        return f"witness {efts.format_polynomial(result.witness)}"
    return f"certificate {result.certificate}"


def _efts_lines() -> list[str]:
    rng = random.Random(2024)
    text = efts.format_polynomial
    lines = []
    for delta in (1, 2):
        for m in (1, 2):
            head = f"efts delta={delta} m={m}"
            keys = efts.enumerate_monomials(delta, m, 3, 3)
            base = [key for key in keys if not key[1] and all(mask == 0 for (_, mask), _ in key[0])]
            polys = [_seeded_polynomial(rng, delta, m, keys, 2) for _ in range(3)]
            fields = [efts.VectorField(delta, m, [_seeded_polynomial(rng, delta, m, base, 2) for _ in range(m)])
                      for _ in range(2)]
            lines += [f"{head} poly p{i} = {text(p)}" for i, p in enumerate(polys)]
            lines += [f"{head} field v{j} = {', '.join(map(text, v.components))}" for j, v in enumerate(fields)]
            for i, p in enumerate(polys):
                lines.append(f"{head} Delta p{i} = {text(efts.apply_Delta(p))}")
                lines += [f"{head} d{k} p{i} = {text(efts.apply_d(k, p))}" for k in range(1, delta + 1)]
                for j, v in enumerate(fields):
                    lines.append(f"{head} L v{j} p{i} = {text(efts.apply_L(v, p))}")
                    lines.append(f"{head} I v{j} p{i} = {text(efts.apply_Iw(v, p))}")
                    lines += [f"{head} iota{k} v{j} p{i} = {text(efts.apply_iota(k, v, p))}" for k in range(1, delta + 1)]
            for j, v in enumerate(fields):
                report = efts.check_cartan(v)
                lines.append(f"{head} cartan v{j} = holds={report.holds} checked={report.checked} "
                             f"counterexample={report.counterexample}")
    zero = efts.SuperPolynomial.zero(2, 2)
    one = efts.SuperPolynomial.constant(2, 2, 1)
    even = [key for key in efts.enumerate_monomials(2, 2, 3, 3) if efts.SuperPolynomial.key_parity(key) == 0]
    images = [efts.apply_Delta(_seeded_polynomial(rng, 2, 2, even, 3)) for _ in range(4)]
    cases = [(image, zero) for image in images] + [
        (images[0], images[1]),  # the difference of two images
        (one, zero),  # a constant is closed but not exact
        (images[2] + one, images[3]),
        (_seeded_polynomial(rng, 2, 2, even, 2), zero),  # refused unless closed
    ]
    lines += [f"efts delta=2 m=2 concordance c{i} = {_concordance_text(*case)}" for i, case in enumerate(cases)]
    return lines


def dump(names=None) -> list[str]:
    """The lines for the manifolds ``names`` (all of ``NAMES`` when None)."""
    chosen = NAMES if names is None else tuple(names)
    lines = []
    for name in chosen:
        spec = manifolds.get_manifold(name)
        lines += _width_lines(spec) + _partition_lines(spec) + _sweep_lines(spec) + _newton_lines(spec) + _root_lines(spec)
    for manifold, argv in COMMANDS:
        if manifold in chosen or (manifold is None and names is None):
            lines.append(_cli_line(argv))
    if names is None:
        lines += _algebra_lines() + _efts_lines()
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
