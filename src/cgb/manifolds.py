"""Catalog of closed Riemannian manifolds given by explicit charts.

Each manifold is a set of coordinate charts with metric jets generated
symbolically from an embedding (or metric expression) and lambdified into
vectorized numpy evaluators, plus

* a designated quadrature chart covering the manifold up to polar caps of
  parameter measure ``excised_measure`` (folded into error bounds),
* an overlapping rotated chart whose interior contains the polar critical
  points of the height functions, used only for seeding Newton iterations,
* a catalog of potential functions with analytic gradient and Hessian
  closures per chart, and
* the known Euler characteristic as ground truth.

Quadrature weights are bare Lebesgue weights on chart coordinates
(Gauss-Legendre tensor grids); all metric volume factors belong to the
integrand.  Grid sums use a fixed-shape pairwise reduction so results do
not depend on evaluation chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from .geometry import ChartMetric, ScalarField

POLAR_CAP = 1e-4  # half-angle excised around each spherical pole


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise summation (fixed reduction shape)."""
    acc = np.asarray(values, dtype=float).ravel()
    if acc.size == 0:
        return 0.0
    while acc.size > 1:
        if acc.size % 2:
            acc = np.concatenate([acc, [0.0]])
        acc = acc[0::2] + acc[1::2]
    return float(acc[0])


class _TensorEvaluator:
    """Vectorized evaluator for a fixed-shape tensor of sympy expressions."""

    def __init__(self, coords: Sequence[sp.Symbol], exprs: np.ndarray):
        self.shape = exprs.shape
        flat = [sp.lambdify(coords, e, modules="numpy") for e in exprs.ravel()]
        self._flat = flat
        self._n = len(coords)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        cols = [pts[:, k] for k in range(self._n)]
        batch = pts.shape[0]
        vals = [np.broadcast_to(np.asarray(f(*cols), dtype=float), (batch,)) for f in self._flat]
        out = np.stack(vals, axis=-1).reshape(batch, *self.shape)
        return out[0] if single else out


def chart_from_metric_exprs(
    name: str,
    coords: Sequence[sp.Symbol],
    g_exprs: sp.Matrix,
    domain: Sequence[Sequence[float]],
) -> ChartMetric:
    """Build a chart with analytic metric jets from a symbolic metric."""
    n = len(coords)
    g = np.array([[sp.expand_trig(sp.simplify(g_exprs[i, j])) for j in range(n)] for i in range(n)], dtype=object)
    dg = np.array(
        [[[sp.diff(g[i, j], coords[k]) for j in range(n)] for i in range(n)] for k in range(n)],
        dtype=object,
    )
    d2g = np.array(
        [
            [[[sp.diff(dg[l, i, j], coords[k]) for j in range(n)] for i in range(n)] for l in range(n)]
            for k in range(n)
        ],
        dtype=object,
    )
    return ChartMetric(
        dim=n,
        domain=domain,
        metric=_TensorEvaluator(coords, g),
        d_metric=_TensorEvaluator(coords, dg),
        d2_metric=_TensorEvaluator(coords, d2g),
        name=name,
    )


def chart_from_embedding(
    name: str,
    coords: Sequence[sp.Symbol],
    embedding: Sequence[sp.Expr],
    domain: Sequence[Sequence[float]],
) -> ChartMetric:
    """Chart whose metric is the pullback of the Euclidean ambient metric."""
    jac = sp.Matrix([[sp.diff(comp, c) for c in coords] for comp in embedding])
    g = sp.Matrix(jac.T * jac)
    return chart_from_metric_exprs(name, coords, g, domain)


@dataclass(frozen=True)
class Chart:
    """A chart together with its integration and search roles."""

    metric: ChartMetric
    embed: Callable[[np.ndarray], np.ndarray]
    quad_domain: np.ndarray | None = None  # None: chart is for Newton seeding only
    periods: tuple[float | None, ...] = ()
    excised_measure: float = 0.0  # parameter measure removed by caps

    @property
    def name(self) -> str:
        return self.metric.name

    @property
    def dim(self) -> int:
        return self.metric.dim


@dataclass(frozen=True)
class MorseFunction:
    """A named potential: per-chart scalar fields plus optional structure."""

    fields: dict[str, ScalarField]
    factor_names: tuple[str, str] | None = None  # set when h = h_1 + h_2 on a product
    critical_distance: dict[str, Callable[[np.ndarray], np.ndarray]] = field(default_factory=dict)

    def on_chart(self, chart_name: str) -> ScalarField:
        try:
            return self.fields[chart_name]
        except KeyError:
            raise KeyError(f"potential not defined on chart {chart_name!r}") from None


@dataclass(frozen=True)
class ManifoldSpec:
    """A closed manifold: charts, ground-truth invariants, potentials."""

    name: str
    dim: int
    charts: dict[str, Chart]
    euler_char: int
    morse_catalog: dict[str, MorseFunction]
    factors: tuple["ManifoldSpec", "ManifoldSpec"] | None = None

    @property
    def quad_chart(self) -> Chart:
        for chart in self.charts.values():
            if chart.quad_domain is not None:
                return chart
        raise ValueError(f"manifold {self.name} has no quadrature chart")

    def axis_lengths(self) -> np.ndarray:
        dom = self.quad_chart.quad_domain
        return dom[:, 1] - dom[:, 0]

    def domain_scale(self) -> float:
        return float(np.max(self.axis_lengths()))

    def potential(self, h_name: str | None) -> MorseFunction | None:
        if h_name is None or h_name == "none":
            return None
        try:
            return self.morse_catalog[h_name]
        except KeyError:
            raise KeyError(
                f"unknown potential {h_name!r} for {self.name}; "
                f"available: {sorted(self.morse_catalog)}"
            ) from None


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre tensor grid on the quadrature chart.

    Weights are bare Lebesgue weights; ``excised_measure`` is the parameter
    measure removed by polar caps, reported so callers can fold
    ``excised_measure * sup|integrand|`` into error bounds.
    """

    chart_name: str
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)
    resolution: tuple[int, ...]
    excised_measure: float

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def error_bound(self) -> float:
        """A-priori bound for unit-sup integrands: the excised measure."""
        return self.excised_measure


def gauss_legendre_axis(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def quadrature_grid(spec: ManifoldSpec, resolution: Sequence[int]) -> QuadratureGrid:
    chart = spec.quad_chart
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != chart.dim:
        raise ValueError(f"resolution needs {chart.dim} axis counts, got {resolution}")
    if any(r < 2 for r in resolution):
        raise ValueError(f"resolution must be >= 2 per axis, got {resolution}")
    axes = [gauss_legendre_axis(lo, hi, r) for (lo, hi), r in zip(chart.quad_domain, resolution)]
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for w in wmesh:
        weights = weights * w.ravel()
    return QuadratureGrid(chart.name, points, weights, resolution, chart.excised_measure)


def integrate_values(grid: QuadratureGrid, values: np.ndarray) -> tuple[float, float]:
    """Weighted pairwise-summed integral and its cap-excision error bound."""
    values = np.asarray(values, dtype=float)
    total = pairwise_sum(grid.weights * values)
    sup = float(np.max(np.abs(values))) if values.size else 0.0
    return total, grid.excised_measure * sup


# -- catalog builders ---------------------------------------------------------


def _sphere_like_charts(a: float, b: float, c: float, prefix: str = "") -> dict[str, Chart]:
    """Polar and rotated charts for the ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1."""
    th, ph = sp.symbols("th ph", real=True)
    tiny = 1e-7
    full = [[tiny, math.pi - tiny], [0.0, 2 * math.pi]]
    polar = chart_from_embedding(
        prefix + "polar",
        (th, ph),
        (a * sp.sin(th) * sp.cos(ph), b * sp.sin(th) * sp.sin(ph), c * sp.cos(th)),
        full,
    )
    rotated = chart_from_embedding(
        prefix + "rotated",
        (th, ph),
        (a * sp.cos(th), b * sp.sin(th) * sp.cos(ph), c * sp.sin(th) * sp.sin(ph)),
        full,
    )

    def embed_polar(x):
        x = np.asarray(x, dtype=float)
        sth, cth = np.sin(x[..., 0]), np.cos(x[..., 0])
        return np.stack([a * sth * np.cos(x[..., 1]), b * sth * np.sin(x[..., 1]), c * cth], axis=-1)

    def embed_rotated(x):
        x = np.asarray(x, dtype=float)
        sth, cth = np.sin(x[..., 0]), np.cos(x[..., 0])
        return np.stack([a * cth, b * sth * np.cos(x[..., 1]), c * sth * np.sin(x[..., 1])], axis=-1)

    quad_dom = np.array([[POLAR_CAP, math.pi - POLAR_CAP], [0.0, 2 * math.pi]])
    return {
        prefix + "polar": Chart(
            metric=polar,
            embed=embed_polar,
            quad_domain=quad_dom,
            periods=(None, 2 * math.pi),
            excised_measure=2 * POLAR_CAP * 2 * math.pi,
        ),
        prefix + "rotated": Chart(metric=rotated, embed=embed_rotated, periods=(None, 2 * math.pi)),
    }


def _height_fields_sphere_like(c: float) -> dict[str, ScalarField]:
    """z-coordinate height on the polar/rotated charts of an ellipsoid."""

    def val_p(x):
        return c * np.cos(np.asarray(x, dtype=float)[..., 0])

    def grad_p(x):
        x = np.asarray(x, dtype=float)
        z = np.zeros_like(x[..., 0])
        return np.stack([-c * np.sin(x[..., 0]), z], axis=-1)

    def hess_p(x):
        x = np.asarray(x, dtype=float)
        z = np.zeros_like(x[..., 0])
        row0 = np.stack([-c * np.cos(x[..., 0]), z], axis=-1)
        row1 = np.stack([z, z], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def val_r(x):
        x = np.asarray(x, dtype=float)
        return c * np.sin(x[..., 0]) * np.sin(x[..., 1])

    def grad_r(x):
        x = np.asarray(x, dtype=float)
        sth, cth = np.sin(x[..., 0]), np.cos(x[..., 0])
        sph, cph = np.sin(x[..., 1]), np.cos(x[..., 1])
        return np.stack([c * cth * sph, c * sth * cph], axis=-1)

    def hess_r(x):
        x = np.asarray(x, dtype=float)
        sth, cth = np.sin(x[..., 0]), np.cos(x[..., 0])
        sph, cph = np.sin(x[..., 1]), np.cos(x[..., 1])
        row0 = np.stack([-c * sth * sph, c * cth * cph], axis=-1)
        row1 = np.stack([c * cth * cph, -c * sth * sph], axis=-1)
        return np.stack([row0, row1], axis=-2)

    return {
        "polar": ScalarField(val_p, grad_p, hess_p),
        "rotated": ScalarField(val_r, grad_r, hess_r),
    }


def sphere(radius: float = 1.0) -> ManifoldSpec:
    charts = _sphere_like_charts(radius, radius, radius)
    fields = _height_fields_sphere_like(radius)

    def dist_to_poles(points):
        th = np.asarray(points, dtype=float)[..., 0]
        return radius * np.minimum(th, math.pi - th)

    height = MorseFunction(fields=fields, critical_distance={"polar": dist_to_poles})
    return ManifoldSpec(
        name="s2",
        dim=2,
        charts=charts,
        euler_char=2,
        morse_catalog={"height": height},
    )


def sphere_conformal(radius: float = 1.0, amplitude: float = 0.3) -> ManifoldSpec:
    """Round sphere with metric multiplied by (1 + amplitude * sin(theta)).

    Same topology, deformed geometry; the partition function must not move.
    """
    th, ph = sp.symbols("th ph", real=True)
    factor = 1 + amplitude * sp.sin(th)
    g = factor * sp.Matrix([[radius**2, 0], [0, radius**2 * sp.sin(th) ** 2]])
    tiny = 1e-7
    polar = chart_from_metric_exprs("polar", (th, ph), g, [[tiny, math.pi - tiny], [0, 2 * math.pi]])
    base = sphere(radius)
    base_polar = base.charts["polar"]
    charts = dict(base.charts)
    charts["polar"] = Chart(
        metric=polar,
        embed=base_polar.embed,
        quad_domain=base_polar.quad_domain,
        periods=base_polar.periods,
        excised_measure=base_polar.excised_measure,
    )
    # rotated chart only seeds Newton (metric-independent), keep the round one
    return ManifoldSpec(
        name="s2_perturbed",
        dim=2,
        charts=charts,
        euler_char=2,
        morse_catalog=base.morse_catalog,
    )


def ellipsoid(a: float = 1.0, b: float = 1.2, c: float = 0.8) -> ManifoldSpec:
    charts = _sphere_like_charts(a, b, c)
    fields = _height_fields_sphere_like(c)
    return ManifoldSpec(
        name="ellipsoid",
        dim=2,
        charts=charts,
        euler_char=2,
        morse_catalog={"height": MorseFunction(fields=fields)},
    )


def torus(big_radius: float = 2.0, small_radius: float = 1.0) -> ManifoldSpec:
    if not big_radius > small_radius > 0:
        raise ValueError("torus of revolution needs R > r > 0")
    u, v = sp.symbols("u v", real=True)
    R, r = big_radius, small_radius
    chart = chart_from_embedding(
        "torus",
        (u, v),
        ((R + r * sp.cos(v)) * sp.cos(u), (R + r * sp.cos(v)) * sp.sin(u), r * sp.sin(v)),
        [[0.0, 2 * math.pi], [0.0, 2 * math.pi]],
    )

    def embed(x):
        x = np.asarray(x, dtype=float)
        ring = R + r * np.cos(x[..., 1])
        return np.stack([ring * np.cos(x[..., 0]), ring * np.sin(x[..., 0]), r * np.sin(x[..., 1])], axis=-1)

    # standing torus: the height is the first ambient coordinate
    def val(x):
        x = np.asarray(x, dtype=float)
        return (R + r * np.cos(x[..., 1])) * np.cos(x[..., 0])

    def grad(x):
        x = np.asarray(x, dtype=float)
        su, cu = np.sin(x[..., 0]), np.cos(x[..., 0])
        sv, cv = np.sin(x[..., 1]), np.cos(x[..., 1])
        return np.stack([-(R + r * cv) * su, -r * sv * cu], axis=-1)

    def hess(x):
        x = np.asarray(x, dtype=float)
        su, cu = np.sin(x[..., 0]), np.cos(x[..., 0])
        sv, cv = np.sin(x[..., 1]), np.cos(x[..., 1])
        row0 = np.stack([-(R + r * cv) * cu, r * sv * su], axis=-1)
        row1 = np.stack([r * sv * su, -r * cv * cu], axis=-1)
        return np.stack([row0, row1], axis=-2)

    height = MorseFunction(fields={"torus": ScalarField(val, grad, hess)})
    two_pi = 2 * math.pi
    return ManifoldSpec(
        name="torus",
        dim=2,
        charts={
            "torus": Chart(
                metric=chart,
                embed=embed,
                quad_domain=np.array([[0.0, two_pi], [0.0, two_pi]]),
                periods=(two_pi, two_pi),
            )
        },
        euler_char=0,
        morse_catalog={"height": height},
    )


def flat_torus() -> ManifoldSpec:
    u, v = sp.symbols("u v", real=True)
    chart = chart_from_metric_exprs("flat", (u, v), sp.eye(2), [[0.0, 1.0], [0.0, 1.0]])

    def embed(x):
        x = np.asarray(x, dtype=float)
        tau = 2 * math.pi
        return np.stack(
            [
                np.cos(tau * x[..., 0]),
                np.sin(tau * x[..., 0]),
                np.cos(tau * x[..., 1]),
                np.sin(tau * x[..., 1]),
            ],
            axis=-1,
        ) / tau

    tau = 2 * math.pi

    def val(x):
        x = np.asarray(x, dtype=float)
        return np.cos(tau * x[..., 0]) + np.cos(tau * x[..., 1])

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-tau * np.sin(tau * x[..., 0]), -tau * np.sin(tau * x[..., 1])], axis=-1)

    def hess(x):
        x = np.asarray(x, dtype=float)
        z = np.zeros_like(x[..., 0])
        row0 = np.stack([-tau**2 * np.cos(tau * x[..., 0]), z], axis=-1)
        row1 = np.stack([z, -tau**2 * np.cos(tau * x[..., 1])], axis=-1)
        return np.stack([row0, row1], axis=-2)

    coscos = MorseFunction(fields={"flat": ScalarField(val, grad, hess)})
    return ManifoldSpec(
        name="flat_t2",
        dim=2,
        charts={
            "flat": Chart(
                metric=chart,
                embed=embed,
                quad_domain=np.array([[0.0, 1.0], [0.0, 1.0]]),
                periods=(1.0, 1.0),
            )
        },
        euler_char=0,
        morse_catalog={"coscos": coscos},
    )


def _product_scalar_field(f1: ScalarField, f2: ScalarField, n1: int, n2: int) -> ScalarField:
    def val(x):
        x = np.asarray(x, dtype=float)
        return f1.value(x[..., :n1]) + f2.value(x[..., n1:])

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate(
            [np.asarray(f1.grad(x[..., :n1]), dtype=float), np.asarray(f2.grad(x[..., n1:]), dtype=float)],
            axis=-1,
        )

    def hess(x):
        x = np.asarray(x, dtype=float)
        h1 = np.asarray(f1.hess(x[..., :n1]), dtype=float)
        h2 = np.asarray(f2.hess(x[..., n1:]), dtype=float)
        shape = x.shape[:-1]
        out = np.zeros(shape + (n1 + n2, n1 + n2))
        out[..., :n1, :n1] = h1
        out[..., n1:, n1:] = h2
        return out

    return ScalarField(val, grad, hess)


def _product_chart(name: str, c1: Chart, c2: Chart, quad: bool) -> Chart:
    n1, n2 = c1.dim, c2.dim
    n = n1 + n2
    m1, m2 = c1.metric, c2.metric

    def metric(x):
        x = np.asarray(x, dtype=float)
        g1 = m1.metric(x[..., :n1])
        g2 = m2.metric(x[..., n1:])
        shape = x.shape[:-1]
        out = np.zeros(shape + (n, n))
        out[..., :n1, :n1] = g1
        out[..., n1:, n1:] = g2
        return out

    def d_metric(x):
        x = np.asarray(x, dtype=float)
        d1 = m1.d_metric(x[..., :n1])
        d2 = m2.d_metric(x[..., n1:])
        shape = x.shape[:-1]
        out = np.zeros(shape + (n, n, n))
        out[..., :n1, :n1, :n1] = d1
        out[..., n1:, n1:, n1:] = d2
        return out

    def d2_metric(x):
        x = np.asarray(x, dtype=float)
        d1 = m1.d2_metric(x[..., :n1])
        d2 = m2.d2_metric(x[..., n1:])
        shape = x.shape[:-1]
        out = np.zeros(shape + (n, n, n, n))
        out[..., :n1, :n1, :n1, :n1] = d1
        out[..., n1:, n1:, n1:, n1:] = d2
        return out

    domain = np.vstack([m1.domain, m2.domain])
    chart = ChartMetric(n, domain, metric, d_metric, d2_metric, name=name)

    def embed(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate(
            [np.asarray(c1.embed(x[..., :n1]), dtype=float), np.asarray(c2.embed(x[..., n1:]), dtype=float)],
            axis=-1,
        )

    quad_domain = None
    excised = 0.0
    if quad:
        quad_domain = np.vstack([c1.quad_domain, c2.quad_domain])
        area1 = float(np.prod(c1.quad_domain[:, 1] - c1.quad_domain[:, 0]))
        area2 = float(np.prod(c2.quad_domain[:, 1] - c2.quad_domain[:, 0]))
        excised = c1.excised_measure * area2 + area1 * c2.excised_measure
    return Chart(
        metric=chart,
        embed=embed,
        quad_domain=quad_domain,
        periods=c1.periods + c2.periods,
        excised_measure=excised,
    )


def product_of_spheres(radius1: float = 1.0, radius2: float = 1.0) -> ManifoldSpec:
    s1, s2 = sphere(radius1), sphere(radius2)
    quad = _product_chart("product", s1.charts["polar"], s2.charts["polar"], quad=True)
    seed = _product_chart("product_rotated", s1.charts["rotated"], s2.charts["rotated"], quad=False)
    h1, h2 = s1.morse_catalog["height"], s2.morse_catalog["height"]
    height_sum = MorseFunction(
        fields={
            "product": _product_scalar_field(h1.on_chart("polar"), h2.on_chart("polar"), 2, 2),
            "product_rotated": _product_scalar_field(h1.on_chart("rotated"), h2.on_chart("rotated"), 2, 2),
        },
        factor_names=("height", "height"),
    )
    return ManifoldSpec(
        name="s2xs2",
        dim=4,
        charts={"product": quad, "product_rotated": seed},
        euler_char=4,
        morse_catalog={"height_sum": height_sum},
        factors=(s1, s2),
    )


_BUILDERS: dict[str, Callable[..., ManifoldSpec]] = {
    "s2": sphere,
    "ellipsoid": ellipsoid,
    "torus": torus,
    "flat_t2": flat_torus,
    "s2xs2": product_of_spheres,
    "s2_perturbed": sphere_conformal,
}


def get_manifold(name: str, **params) -> ManifoldSpec:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown manifold {name!r}; available: {sorted(_BUILDERS)}") from None
    return builder(**params)


@lru_cache(maxsize=None)
def _default(name: str) -> ManifoldSpec:
    return _BUILDERS[name]()


def catalog() -> list[ManifoldSpec]:
    """Default-parameter instances of every catalog manifold."""
    return [_default(n) for n in ("s2", "ellipsoid", "torus", "flat_t2", "s2xs2")]


def with_scaled_metric(spec: ManifoldSpec, factor: float) -> ManifoldSpec:
    """Clone a manifold with every chart metric multiplied by a constant."""

    def scale_chart(chart: Chart) -> Chart:
        m = chart.metric
        scaled = ChartMetric(
            m.dim,
            m.domain,
            lambda x, m=m: factor * np.asarray(m.metric(x), dtype=float),
            None if m.d_metric is None else (lambda x, m=m: factor * np.asarray(m.d_metric(x), dtype=float)),
            None if m.d2_metric is None else (lambda x, m=m: factor * np.asarray(m.d2_metric(x), dtype=float)),
            fd_step=m.fd_step,
            name=m.name,
        )
        return Chart(
            metric=scaled,
            embed=chart.embed,
            quad_domain=chart.quad_domain,
            periods=chart.periods,
            excised_measure=chart.excised_measure,
        )

    return ManifoldSpec(
        name=spec.name + "_scaled",
        dim=spec.dim,
        charts={k: scale_chart(c) for k, c in spec.charts.items()},
        euler_char=spec.euler_char,
        morse_catalog=spec.morse_catalog,
        factors=spec.factors,
    )
