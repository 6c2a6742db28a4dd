"""Catalog of closed Riemannian manifolds given by explicit charts.

Each chart's embedding into Euclidean space is written once, as a
``TrigEmbedding``: every ambient component is a sum of coef * prod_k f_k(x_k)
with f_k in {1, sin, cos}.  The same object serves as ``Chart.embed`` and,
through closed-form derivatives of orders 1-3 and the product rule
(``pullback_jets``), yields the metric jets g, dg and d2g as vectorized
numpy arrays; a conformal factor of the same form multiplies them
(``scaled_jets``).  The flat torus keeps the exact jets (I, 0, 0).  Besides
its charts, each manifold has

* a designated quadrature chart covering the manifold up to polar caps of
  parameter measure ``excised_measure`` (folded into error bounds),
* an overlapping rotated chart whose interior contains the polar critical
  points of the height functions, used only for seeding Newton iterations,
* a catalog of potential functions with hand-written gradient and Hessian
  closures per chart, and
* the known Euler characteristic as ground truth.

Quadrature weights are bare Lebesgue weights on chart coordinates
(Gauss-Legendre tensor grids); all metric volume factors belong to the
integrand.  Grid sums use a fixed-shape pairwise reduction so results do
not depend on evaluation chunking.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

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


# Factor codes of a TrigEmbedding term: 1, sin or cos of freq * x.
ONE, SIN, COS = 0, 1, 2


class TrigEmbedding:
    """A map x -> R^m whose components are sums of trigonometric products.

    ``components[a]`` lists the terms ``(coef, (f_0, ..., f_{n-1}))`` of
    component a, each meaning coef * prod_k f_k(freq_k x_k).  Derivatives
    follow the cycle sin -> cos -> -sin -> -cos on the same sin and cos
    arrays, so every sign is exact.
    """

    def __init__(self, components, freq: Sequence[float] | None = None):
        self.components = components
        self.dim = len(components[0][0][1])
        self.freq = tuple(freq) if freq is not None else (1.0,) * self.dim

    def _term(self, trig, coef: float, factors, counts):
        """coef * prod_k d^{counts_k} f_k at the points; 0.0 if a constant is differentiated."""
        arrays = []
        for k, (f, d) in enumerate(zip(factors, counts)):
            if f == ONE:
                if d:
                    return 0.0
                continue
            phase = (f - SIN + d) % 4  # sin, cos, -sin, -cos
            coef *= (-1.0 if phase > 1 else 1.0) * self.freq[k] ** d
            arrays.append(trig[k][phase % 2])
        return functools.reduce(np.multiply, arrays, coef)

    def derivatives(self, x, order: int) -> list[np.ndarray]:
        """[X, dX, ..., d^order X], points last: d^d X has shape (n,) * d + (m,) + batch."""
        x = np.asarray(x, dtype=float)
        n = self.dim
        trig = []
        for k, w in enumerate(self.freq):
            t = x[..., k] if w == 1.0 else w * x[..., k]
            trig.append((np.sin(t), np.cos(t)))
        out = []
        for d in range(order + 1):
            arr = np.empty((n,) * d + (len(self.components),) + x.shape[:-1])
            for idx in itertools.product(range(n), repeat=d):
                counts = [idx.count(k) for k in range(n)]
                for a, comp in enumerate(self.components):
                    arr[idx + (a,)] = sum(self._term(trig, c, fs, counts) for c, fs in comp)
            out.append(arr)
        return out

    def __call__(self, x) -> np.ndarray:
        return np.moveaxis(self.derivatives(x, 0)[0], 0, -1)


def _dot(a: np.ndarray, b: np.ndarray, ra: int, rb: int) -> np.ndarray:
    """Contract the ambient axis: a[A, m, ...] b[B, m, ...] -> [A, B, ...] for ra, rb index axes."""
    a = a.reshape(a.shape[:ra] + (1,) * rb + a.shape[ra:])
    return (a * b.reshape((1,) * ra + b.shape)).sum(axis=ra + rb)


def pullback_jets(dx: Sequence[np.ndarray]) -> list[np.ndarray]:
    """[g, dg, d2g][:len(dx)] of the pulled-back Euclidean metric, from [dX, d2X, d3X].

    Index axes come first and points last, as in ``TrigEmbedding.derivatives``.
    g_ij = X_i.X_j, d_k g_ij = X_ki.X_j + X_i.X_kj and
    d_kl g_ij = X_kli.X_j + X_i.X_klj + X_ki.X_lj + X_li.X_kj.  Each sum
    pairs a term with its i <-> j transpose, so the jets are exactly symmetric.
    """
    x1 = dx[0]
    jets = [_dot(x1, x1, 1, 1)]
    if len(dx) > 1:
        a = _dot(dx[1], x1, 2, 1)
        jets.append(a + np.swapaxes(a, 1, 2))
    if len(dx) > 2:
        b = _dot(dx[2], x1, 3, 1)
        c = np.swapaxes(_dot(dx[1], dx[1], 2, 2), 1, 2)  # X_ki.X_lj at [k, l, i, j]
        jets.append((b + np.swapaxes(b, 2, 3)) + (c + np.swapaxes(c, 2, 3)))
    return jets


def scaled_jets(phi: Sequence[np.ndarray], jets: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Jets of phi * g from [phi, dphi, d2phi] and [g, dg, d2g] (equal lengths, points last)."""
    g = jets[0]
    out = [phi[0] * g]
    if len(jets) > 1:
        out.append(phi[1][:, None, None] * g + phi[0] * jets[1])
    if len(jets) > 2:
        cross = phi[1][:, None, None, None] * jets[1]
        out.append((phi[2][:, :, None, None] * g + (cross + np.swapaxes(cross, 0, 1))) + phi[0] * jets[2])
    return out


def _jet_chart(name: str, dim: int, domain, jet: Callable[[np.ndarray, int], np.ndarray]) -> ChartMetric:
    """ChartMetric whose metric, d_metric and d2_metric are jet(x, 0), jet(x, 1) and jet(x, 2)."""
    return ChartMetric(dim, domain, *(functools.partial(jet, order=k) for k in range(3)), name=name)


def embedded_chart(name: str, embedding: TrigEmbedding, domain, factor=None) -> ChartMetric:
    """Chart with the pulled-back metric, times the scalar ``factor`` (a one-component TrigEmbedding) if given."""

    def jet(x, order: int) -> np.ndarray:
        jets = pullback_jets(embedding.derivatives(x, order + 1)[1:])
        if factor is not None:
            phi = [np.take(d, 0, axis=k) for k, d in enumerate(factor.derivatives(x, order))]
            jets = scaled_jets(phi, jets)
        rank = order + 2  # move the points first
        return np.ascontiguousarray(np.moveaxis(jets[order], range(rank), range(-rank, 0)))

    return _jet_chart(name, embedding.dim, domain, jet)


def flat_chart(name: str, dim: int, domain) -> ChartMetric:
    """Euclidean coordinates with the exact jets (I, 0, 0)."""

    def jet(x, order: int) -> np.ndarray:
        out = np.zeros(np.shape(x)[:-1] + (dim,) * (order + 2))
        if order == 0:
            out[..., range(dim), range(dim)] = 1.0
        return out

    return _jet_chart(name, dim, domain, jet)


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


def _sphere_like_charts(a: float, b: float, c: float, factor=None) -> dict[str, Chart]:
    """Polar and rotated charts of x^2/a^2 + y^2/b^2 + z^2/c^2 = 1; ``factor`` scales the polar metric."""
    full = [[1e-7, math.pi - 1e-7], [0.0, 2 * math.pi]]
    polar = TrigEmbedding([[(a, (SIN, COS))], [(b, (SIN, SIN))], [(c, (COS, ONE))]])
    rotated = TrigEmbedding([[(a, (COS, ONE))], [(b, (SIN, COS))], [(c, (SIN, SIN))]])
    return {
        "polar": Chart(
            metric=embedded_chart("polar", polar, full, factor),
            embed=polar,
            quad_domain=np.array([[POLAR_CAP, math.pi - POLAR_CAP], [0.0, 2 * math.pi]]),
            periods=(None, 2 * math.pi),
            excised_measure=2 * POLAR_CAP * 2 * math.pi,
        ),
        # the rotated chart only seeds Newton (metric-independent): never scaled
        "rotated": Chart(embedded_chart("rotated", rotated, full), rotated, periods=(None, 2 * math.pi)),
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


def _require_above(low: float, **values) -> None:
    """Builder parameters must be finite real numbers above ``low``."""
    for name, value in values.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not real or not math.isfinite(value) or value <= low:
            raise ValueError(f"{name} must be a finite number above {low:g}, got {value!r}")


def _sphere_spec(name: str, radius: float, factor: TrigEmbedding | None = None) -> ManifoldSpec:
    _require_above(0, radius=radius)

    def dist_to_poles(points):
        th = np.asarray(points, dtype=float)[..., 0]
        return radius * np.minimum(th, math.pi - th)

    fields = _height_fields_sphere_like(radius)
    height = MorseFunction(fields=fields, critical_distance={"polar": dist_to_poles})
    return ManifoldSpec(
        name=name,
        dim=2,
        charts=_sphere_like_charts(radius, radius, radius, factor),
        euler_char=2,
        morse_catalog={"height": height},
    )


def sphere(radius: float = 1.0) -> ManifoldSpec:
    return _sphere_spec("s2", radius)


def sphere_conformal(radius: float = 1.0, amplitude: float = 0.3) -> ManifoldSpec:
    """Round sphere with metric multiplied by (1 + amplitude * sin(theta)).

    Same topology, deformed geometry; the partition function must not move.
    """
    _require_above(-1, amplitude=amplitude)
    factor = TrigEmbedding([[(1.0, (ONE, ONE)), (amplitude, (SIN, ONE))]])
    return _sphere_spec("s2_perturbed", radius, factor)


def ellipsoid(a: float = 1.0, b: float = 1.2, c: float = 0.8) -> ManifoldSpec:
    _require_above(0, a=a, b=b, c=c)
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
    _require_above(0, big_radius=big_radius, small_radius=small_radius)
    if not big_radius > small_radius:
        raise ValueError("torus of revolution needs R > r > 0")
    R, r = big_radius, small_radius
    # ((R + r cos v) cos u, (R + r cos v) sin u, r sin v)
    embed = TrigEmbedding(
        [[(R, (COS, ONE)), (r, (COS, COS))], [(R, (SIN, ONE)), (r, (SIN, COS))], [(r, (ONE, SIN))]]
    )

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
                metric=embedded_chart("torus", embed, [[0.0, two_pi], [0.0, two_pi]]),
                embed=embed,
                quad_domain=np.array([[0.0, two_pi], [0.0, two_pi]]),
                periods=(two_pi, two_pi),
            )
        },
        euler_char=0,
        morse_catalog={"height": height},
    )


def flat_torus() -> ManifoldSpec:
    tau = 2 * math.pi
    # Clifford embedding (cos tau u, sin tau u, cos tau v, sin tau v) / tau; it is
    # isometric, but the metric keeps the exact flat jets rather than its pullback
    c = 1.0 / tau
    embed = TrigEmbedding(
        [[(c, (COS, ONE))], [(c, (SIN, ONE))], [(c, (ONE, COS))], [(c, (ONE, SIN))]], freq=(tau, tau)
    )

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
                metric=flat_chart("flat", 2, [[0.0, 1.0], [0.0, 1.0]]),
                embed=embed,
                quad_domain=np.array([[0.0, 1.0], [0.0, 1.0]]),
                periods=(1.0, 1.0),
            )
        },
        euler_char=0,
        morse_catalog={"coscos": coscos},
    )


def _blocks(x, n1: int, f1, f2, rank: int) -> np.ndarray:
    """Tensor with ``rank`` axes of length n whose diagonal blocks are f1(x[:n1]) and f2(x[n1:])."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (x.shape[-1],) * rank)
    out[(...,) + (slice(None, n1),) * rank] = f1(x[..., :n1])
    out[(...,) + (slice(n1, None),) * rank] = f2(x[..., n1:])
    return out


def _product_scalar_field(f1: ScalarField, f2: ScalarField, n1: int) -> ScalarField:
    def val(x):
        x = np.asarray(x, dtype=float)
        return f1.value(x[..., :n1]) + f2.value(x[..., n1:])

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([f1.grad(x[..., :n1]), f2.grad(x[..., n1:])], axis=-1)

    return ScalarField(val, grad, lambda x: _blocks(x, n1, f1.hess, f2.hess, 2))


def _product_chart(name: str, c1: Chart, c2: Chart, quad: bool) -> Chart:
    n1 = c1.dim
    m1, m2 = c1.metric, c2.metric
    # the factor evaluators are looked up per call, so wrapping them takes effect
    jets = [
        lambda x, attr=attr, rank=rank: _blocks(x, n1, getattr(m1, attr), getattr(m2, attr), rank)
        for attr, rank in (("metric", 2), ("d_metric", 3), ("d2_metric", 4))
    ]
    chart = ChartMetric(n1 + c2.dim, np.vstack([m1.domain, m2.domain]), *jets, name=name)

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
    _require_above(0, radius1=radius1, radius2=radius2)
    s1, s2 = sphere(radius1), sphere(radius2)
    quad = _product_chart("product", s1.charts["polar"], s2.charts["polar"], quad=True)
    seed = _product_chart("product_rotated", s1.charts["rotated"], s2.charts["rotated"], quad=False)
    h1, h2 = s1.morse_catalog["height"], s2.morse_catalog["height"]
    height_sum = MorseFunction(
        fields={
            "product": _product_scalar_field(h1.on_chart("polar"), h2.on_chart("polar"), 2),
            "product_rotated": _product_scalar_field(h1.on_chart("rotated"), h2.on_chart("rotated"), 2),
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
    accepted = inspect.signature(builder).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in accepted.values()):
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ValueError(f"unknown parameters {unknown} for {name!r}; accepted: {list(accepted)}")
    return builder(**params)


@functools.lru_cache(maxsize=None)
def _default(name: str) -> ManifoldSpec:
    return _BUILDERS[name]()


def catalog() -> list[ManifoldSpec]:
    """Default-parameter instances of every catalog manifold."""
    return [_default(n) for n in ("s2", "ellipsoid", "torus", "flat_t2", "s2xs2")]


def with_scaled_metric(spec: ManifoldSpec, factor: float) -> ManifoldSpec:
    """Clone a manifold with every chart metric multiplied by a constant."""

    def scale_chart(chart: Chart) -> Chart:
        m = chart.metric
        jets = [
            None if getattr(m, a) is None else (lambda x, a=a: factor * np.asarray(getattr(m, a)(x), dtype=float))
            for a in ("metric", "d_metric", "d2_metric")
        ]
        scaled = ChartMetric(m.dim, m.domain, *jets, fd_step=m.fd_step, name=m.name)
        return replace(chart, metric=scaled)

    return ManifoldSpec(
        name=spec.name + "_scaled",
        dim=spec.dim,
        charts={k: scale_chart(c) for k, c in spec.charts.items()},
        euler_char=spec.euler_char,
        morse_catalog=spec.morse_catalog,
        factors=spec.factors,
    )
