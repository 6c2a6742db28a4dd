"""Batch command-line surface: ``cgb pfaffian|index|sweep|selftest|efts``.

Runs are described by a declarative JSON manifest; command-line flags
override manifest fields.  Outputs are deterministic: an identical
manifest and flags produce byte-identical CSV/JSON.  Exit codes: 0 pass,
1 tolerance or check failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

CSV_HEADER = "# cgb-sweep-v1: lambda,Z,error_bound,resolution"


@dataclass
class RunManifest:
    """Declarative description of one experiment."""

    manifold: str = "s2"
    manifold_params: dict = field(default_factory=dict)
    morse: str | None = None
    lambdas: list[float] = field(default_factory=lambda: [0.0])
    resolution: list[int] = field(default_factory=list)  # empty: per-manifold default
    adaptive: bool = True
    tolerance: float = 1e-2
    out: str | None = None

    def validate(self):
        """Check every field; returns the manifold spec it builds."""
        from .manifolds import get_manifold

        for name, kind in (("manifold", str), ("manifold_params", dict), ("adaptive", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name in ("morse", "out"):
            if getattr(self, name) == "" or not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a nonempty string or null, got {getattr(self, name)!r}")
        if not isinstance(self.lambdas, list) or not self.lambdas or not all(map(_is_number, self.lambdas)):
            raise ValueError(f"lambdas must be a nonempty list of numbers, got {self.lambdas!r}")
        if not all(math.isfinite(lam) and lam >= 0 for lam in self.lambdas):
            raise ValueError(f"lambda values must be finite and nonnegative, got {self.lambdas}")
        if not isinstance(self.resolution, list) or not all(
            isinstance(r, int) and not isinstance(r, bool) for r in self.resolution
        ):
            raise ValueError(f"resolution must be a list of integers, got {self.resolution!r}")
        if any(r < 2 for r in self.resolution):
            raise ValueError("resolution must be at least 2 per axis")
        if not _is_number(self.tolerance) or not math.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValueError(f"tolerance must be a positive finite number, got {self.tolerance!r}")
        spec = get_manifold(self.manifold, **self.manifold_params)
        if self.morse is not None:
            spec.potential(self.morse)
        if len(self.resolution) not in (spec.dim, 0):
            raise ValueError(
                f"resolution needs {spec.dim} per-axis counts for {self.manifold}, "
                f"got {self.resolution}"
            )
        return spec

    def to_dict(self) -> dict:
        """The JSON object ``from_dict`` and ``--manifest`` read back: the way to write a manifest file."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if not isinstance(data, dict):
            raise ValueError(f"a manifest must be a JSON object, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        return cls(**data)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_manifest(args: argparse.Namespace):
    """The run manifest with the flags that were given applied, and the manifold it names."""
    data = {}
    if args.manifest is not None:
        with open(args.manifest) as fh:
            data = json.load(fh)
    flags = {name: value for name, value in vars(args).items() if name in RunManifest.__dataclass_fields__}
    manifest = replace(RunManifest.from_dict(data), **flags)
    if manifest.morse == "none":  # the one spelling of h = 0, from a flag or a manifest
        manifest.morse = None
    return manifest, manifest.validate()


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out + ".json", "w") as fh:
            fh.write(text + "\n")
    print(text)


def _default_resolution(spec) -> list[int]:
    if spec.dim == 2:
        return [96, 192]
    return [16] * spec.dim


def cmd_pfaffian(args: argparse.Namespace) -> int:
    from .sigma import partition_function

    manifest, spec = load_manifest(args)
    resolution = manifest.resolution or _default_resolution(spec)
    result = partition_function(spec, None, 0.0, resolution)
    abs_error = abs(result.value - spec.euler_char)
    payload = {
        "manifold": spec.name,
        "chi_known": spec.euler_char,
        "chi_computed": float(result.value),
        "abs_error": float(abs_error),
        "error_bound": float(result.error_bound),
        "resolution": list(result.resolution),
        "tolerance": manifest.tolerance,
    }
    _emit_json(payload, manifest.out)
    return 0 if abs_error < manifest.tolerance else 1


def cmd_index(args: argparse.Namespace) -> int:
    from .morse import find_critical_points

    manifest, spec = load_manifest(args)
    if manifest.morse is None:
        raise ValueError("the index command needs a potential (--morse NAME)")
    points = find_critical_points(spec, manifest.morse, seed_density=args.seed_density)
    print(f"critical points of {manifest.morse!r} on {spec.name}:")
    print(f"{'chart':>16} {'coords':>34} {'sign':>5} {'|grad h|':>10} {'det Hess':>12}")
    for cp in points:
        coords = ",".join(_fmt(c) for c in cp.coords)
        print(
            f"{cp.chart:>16} {coords:>34} {cp.sign:>+5d} "
            f"{cp.gradient_norm:>10.2e} {cp.det_hess:>12.5g}"
        )
    index = sum(cp.sign for cp in points)
    print(f"hopf index: {index}   (chi = {spec.euler_char})")
    payload = {
        "manifold": spec.name,
        "morse": manifest.morse,
        "index": index,
        "chi_known": spec.euler_char,
        "points": [
            {
                "chart": cp.chart,
                "coords": [float(c) for c in cp.coords],
                "sign": cp.sign,
                "gradient_norm": float(cp.gradient_norm),
                "det_hess": float(cp.det_hess),
            }
            for cp in points
        ],
    }
    if manifest.out:
        _emit_json(payload, manifest.out)
    return 0 if index == spec.euler_char else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from .sigma import lambda_sweep

    manifest, spec = load_manifest(args)
    resolution = manifest.resolution or _default_resolution(spec)
    sweep = lambda_sweep(spec, manifest.morse, manifest.lambdas, resolution, manifest.adaptive)
    lines = [CSV_HEADER]
    for r in sweep.results:
        res = "x".join(str(v) for v in r.resolution)
        lines.append(f"{_fmt(r.lam)},{_fmt(r.value)},{_fmt(r.error_bound)},{res}")
    csv_text = "\n".join(lines) + "\n"
    if manifest.out:
        with open(manifest.out + ".csv", "w") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    payload = {
        "manifold": spec.name,
        "morse": manifest.morse,
        "chi_known": spec.euler_char,
        "lambdas": [float(v) for v in manifest.lambdas],
        "max_deviation": float(sweep.max_deviation),
        "max_deviation_from_chi": float(sweep.max_deviation_from(spec.euler_char)),
        "tolerance": manifest.tolerance,
    }
    _emit_json(payload, manifest.out)
    deviations = (payload["max_deviation"], payload["max_deviation_from_chi"])
    return 0 if all(d < manifest.tolerance for d in deviations) else 1


def _selftest_checks(seed: int, backend: str, inject_sign_fault: bool):
    """Run the cross-module invariant suite; yields (name, passed, detail)."""
    from fractions import Fraction

    import numpy as np

    from .efts import (
        SuperPolynomial,
        VectorField,
        apply_d,
        apply_Delta,
        check_cartan,
        enumerate_monomials,
        monomial,
    )
    from .geometry import CurvatureFrame
    from .grassmann import (
        GrassmannElement,
        exp_even,
        fermionic_gaussian,
        multiply,
        pfaffian_combinatorial,
        permutation_sign,
    )
    from .manifolds import sphere
    from .sigma import _integrand_on_points, check_action_equivalence, euler_density, partition_integrand

    rng = np.random.default_rng(seed)
    exact = backend == "rational"

    # grassmann: graded commutativity and Pfaffian identities
    def draw_coeff():
        if exact:
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        return float(rng.normal())

    def commutes(n, idx_a, idx_b, coeff_a, coeff_b):
        a = GrassmannElement.monomial(n, idx_a, coeff_a)
        b = GrassmannElement.monomial(n, idx_b, coeff_b)
        sign = -1 if (len(idx_a) % 2) and (len(idx_b) % 2) else 1
        # a b against a product built without the engine's merge signs: the sorting sign of the generator word
        order = idx_a + idx_b
        expected = GrassmannElement.zero(n)
        if len(set(order)) == len(order):
            mask = sum(1 << int(i) for i in order)
            expected = GrassmannElement(n, {mask: permutation_sign(np.argsort(order)) * coeff_a * coeff_b})
        product = multiply(a, b)
        return product == expected and product == sign * multiply(b, a)

    ok = True
    for _ in range(25):
        n = int(rng.integers(2, 7))
        deg_a = int(rng.integers(1, n + 1))
        deg_b = int(rng.integers(1, n + 1))
        idx_a = list(rng.choice(n, size=deg_a, replace=False))
        idx_b = list(rng.choice(n, size=deg_b, replace=False))
        ok &= commutes(n, idx_a, idx_b, draw_coeff(), draw_coeff())
    # disjoint pairs with nonzero coefficients, which the draws need not hold; they draw nothing from the rng
    fixed = Fraction if exact else float
    for idx_a, idx_b in ([4, 1], [5, 0]), ([2, 5], [3]), ([3], [1]):  # even x even, even x odd, odd x odd
        ok &= commutes(6, idx_a, idx_b, fixed(1.5), fixed(-2.5))
    detail = f"25 random homogeneous pairs and 3 fixed disjoint ones, backend={backend}"
    yield "grassmann graded commutativity", ok, detail

    ok = True
    worst = 0.0
    for _ in range(20):
        half = int(rng.integers(1, 5))
        mat = rng.normal(size=(2 * half, 2 * half))
        skew = mat - mat.T
        value = fermionic_gaussian(skew)
        worst = max(worst, abs(value - pfaffian_combinatorial(skew)))
        worst = max(worst, abs(value**2 - np.linalg.det(skew)) / max(1.0, abs(value) ** 2))
    ok = worst < 1e-8
    yield "pfaffian vs fermionic gaussian", ok, f"worst discrepancy {worst:.2e}"

    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 7))
        terms = {}
        for _ in range(3):
            i, j = rng.choice(n, size=2, replace=False)
            mask = (1 << int(i)) | (1 << int(j))
            terms[mask] = draw_coeff()
        a = GrassmannElement(n, terms)
        prod = multiply(exp_even(a), exp_even(-a))
        if exact:
            ok = ok and prod == GrassmannElement.scalar(n, 1)
        else:
            ok = ok and prod.isclose(GrassmannElement.scalar(n, 1.0), 1e-12)
    yield "exp(a) exp(-a) = 1", ok, f"nilpotent exponentials, backend={backend}"

    # geometry: curvature symmetries on the sphere
    spec = sphere(1.0)
    chart = spec.charts["polar"].metric
    worst = 0.0
    for _ in range(10):
        x = np.array([rng.uniform(0.3, math.pi - 0.3), rng.uniform(0, 2 * math.pi)])
        frame = CurvatureFrame.from_chart(chart, x)
        worst = max(worst, max(frame.symmetry_residuals().values()))
        worst = max(worst, abs(frame.riemann[0, 1, 0, 1] - math.sin(x[0]) ** 2))
    yield "curvature symmetries + sphere value", worst < 1e-9, f"worst residual {worst:.2e}"

    # sigma: the two-route action identity
    worst = check_action_equivalence(rng, dims=(2, 3), samples=25, fault_flip=inject_sign_fault)
    yield "action two-route equivalence", worst < 1e-9, f"worst coefficient diff {worst:.2e}"

    # sigma: integrand reduces to the Euler density at lambda = 0
    worst = 0.0
    for _ in range(5):
        x = np.array([rng.uniform(0.3, math.pi - 0.3), rng.uniform(0, 2 * math.pi)])
        frame = CurvatureFrame.from_chart(chart, x)
        worst = max(worst, abs(partition_integrand(frame, 0.0) - euler_density(frame)))
    yield "integrand reduction at lambda=0", worst < 1e-12, f"worst diff {worst:.2e}"

    # sigma: the batched kernel every Z uses against the pointwise engine, at points of its own generator
    points_rng = np.random.default_rng((seed, 1))
    pts = np.column_stack([points_rng.uniform(0.3, math.pi - 0.3, 5), points_rng.uniform(0, 2 * math.pi, 5)])
    h = spec.morse_catalog["height"].on_chart("polar")
    lams = (0.0, 1.0)
    worst = 0.0
    for lam, batch in zip(lams, _integrand_on_points(chart, pts, lams, h)):
        for x, value in zip(pts, batch):
            point = partition_integrand(CurvatureFrame.from_chart(chart, x), lam, h.grad(x), h.hess(x))
            worst = max(worst, abs(value - point) / max(1.0, abs(point)))
    yield "batched kernel vs pointwise engine", worst < 1e-12, f"worst diff {worst:.2e}, height at lambda 0 and 1"

    # efts: anticommutation and the Cartan identity, exact
    ok = True
    for key in enumerate_monomials(2, 1, 3, 3):
        mono = monomial(2, 1, key)
        if not apply_d(1, apply_d(1, mono)).is_zero():
            ok = False
        if not (apply_d(1, apply_d(2, mono)) + apply_d(2, apply_d(1, mono))).is_zero():
            ok = False
        if not apply_Delta(apply_Delta(mono)).is_zero():
            ok = False
    for delta in (1, 2):
        report = check_cartan(VectorField.coordinate(delta, 1, 0), degree_cap=3)
        ok = ok and report.holds
        report = check_cartan(
            VectorField(delta, 1, [SuperPolynomial.variable(delta, 1, 0)]), degree_cap=3
        )
        ok = ok and report.holds
    yield "odd-direction algebra + Cartan identity", ok, "exact rational arithmetic"


def cmd_selftest(args: argparse.Namespace) -> int:
    rows = list(_selftest_checks(args.seed, args.backend, args.inject_sign_fault))
    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        all_ok = all_ok and ok
        print(f"{name:<{width}}  {status}  {detail}")
    print(f"selftest: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return 0 if all_ok else 1


def cmd_efts(args: argparse.Namespace) -> int:
    from .efts import (
        check_cartan,
        concordance_solve,
        apply_Delta,
        format_polynomial,
        parse_polynomial,
        parse_vector_field,
    )

    delta, m = args.delta, args.vars
    if args.element_b is not None and args.efts_command != "concordance":
        raise ValueError(f"efts {args.efts_command} takes one element, got a second: {args.element_b!r}")
    if args.efts_command == "delta":
        poly = parse_polynomial(args.element, delta, m)
        print(format_polynomial(apply_Delta(poly)))
        return 0
    if args.efts_command == "cartan":
        w = parse_vector_field(args.element, delta, m)
        report = check_cartan(w, degree_cap=args.degree_cap)
        if report.holds:
            print(f"PASS: Cartan identity holds on {report.checked} monomials")
            return 0
        print(f"FAIL: {report.counterexample}")
        return 1
    # argparse's choices leave "concordance"
    e_plus = parse_polynomial(args.element, delta, m)
    e_minus = parse_polynomial("0" if args.element_b is None else args.element_b, delta, m)
    result = concordance_solve(e_plus, e_minus)
    if result.feasible:
        print(f"WITNESS: {format_polynomial(result.witness)}")
        return 0
    print(f"INFEASIBLE: {result.certificate}")
    return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error leaves through main's one-line refusal
        raise ValueError(message)


def _typed(name: str, convert):
    """Names ``convert``, a fresh function, so argparse refuses text it cannot convert as 'invalid <name> value'."""
    convert.__name__ = name
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cgb",
        description="Euler characteristics from curvature Pfaffians, Morse indices, "
        "and their coupling sweep; plus the exact odd-direction function algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--manifest", help="JSON manifest path")
        field = functools.partial(p.add_argument, default=argparse.SUPPRESS)  # sets field <dest> only when given
        field("--manifold", help="catalog manifold name")
        params = _typed("JSON", lambda text: json.loads(text))
        field("--manifold-params", type=params, help="JSON dict of manifold parameters")
        field("--morse", help="potential name ('none' for h = 0)")
        floats = _typed("float list", lambda text: [float(v) for v in text.split(",")])
        field("--lambda", dest="lambdas", type=floats, help="comma-separated coupling list")
        ints = _typed("integer list", lambda text: [int(v) for v in text.split(",")])
        field("--resolution", type=ints, help="comma-separated per-axis grid counts")
        field("--tolerance", type=float, help="acceptance tolerance")
        field("--out", help="output path stem (writes .json / .csv)")
        field("--no-adaptive", dest="adaptive", action="store_false", help="disable adaptive grids")

    p_pf = sub.add_parser("pfaffian", help="integrate the curvature Pfaffian density")
    add_run_flags(p_pf)
    p_pf.set_defaults(func=cmd_pfaffian)

    p_ix = sub.add_parser("index", help="critical points and the Hopf index")
    add_run_flags(p_ix)
    p_ix.add_argument("--seed-density", type=int, default=8)
    p_ix.set_defaults(func=cmd_index)

    p_sw = sub.add_parser("sweep", help="partition function across couplings")
    add_run_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_st = sub.add_parser("selftest", help="run the cross-module invariant suite")
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument("--backend", choices=("float", "rational"), default="float")
    p_st.add_argument(
        "--inject-sign-fault",
        action="store_true",
        help="flip a sign in the coordinate action to prove the two-route check bites",
    )
    p_st.set_defaults(func=cmd_selftest)

    p_ef = sub.add_parser(
        "efts",
        help="odd-direction function algebra operations",
        epilog="Give the flags first and the text after '--' when it starts with a minus sign: "
        "cgb efts delta --delta 2 -- \"-x1^2\".",
    )
    p_ef.add_argument("efts_command", choices=("delta", "cartan", "concordance"))
    p_ef.add_argument("element", help="polynomial or vector field text")
    p_ef.add_argument("element_b", nargs="?", help="second polynomial (concordance)")
    p_ef.add_argument("--delta", type=int, choices=(1, 2), default=2)
    p_ef.add_argument("--vars", type=int, default=1, help="number of base variables")
    p_ef.add_argument("--degree-cap", type=int, default=3)
    p_ef.set_defaults(func=cmd_efts)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)  # not its repr
        return 2


if __name__ == "__main__":
    sys.exit(main())
