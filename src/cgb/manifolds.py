"""Catalog of closed Riemannian manifolds given by explicit charts.

Each chart's embedding into Euclidean space is written once, as a
``TrigEmbedding``: every ambient component is a sum of coef * prod_k f_k(x_k)
with f_k in {1, sin, cos}.  The same object serves as ``Chart.embed`` and,
through closed-form derivatives of orders 1-3 and the product rule
(``pullback_jets``), yields the metric jets g, dg and d2g as vectorized
numpy arrays; a conformal factor of the same form multiplies them
(``scaled_jets``).  A chart without such a factor also keeps its embedding,
from which the integrand takes its curvature directly.  The flat torus
keeps the exact jets (I, 0, 0) and declares itself ``flat``, so the
integrand evaluates no metric work there at all.  Derivatives and jets are
laid out points first: leading batch axes, then index axes, with the
ambient axis last.  Besides its charts, each manifold has

* a designated quadrature chart covering the manifold up to polar caps of
  parameter measure ``excised_measure`` (folded into error bounds),
* an overlapping rotated chart whose interior contains the polar critical
  points of the height functions, used only for seeding Newton iterations,
* a catalog of potential functions, each a one-component ``TrigEmbedding``
  per chart (most are ambient coordinates of the chart's embedding), whose
  value, gradient and Hessian come from the same derivatives, and
* the known Euler characteristic as ground truth.

Quadrature weights are bare Lebesgue weights on chart coordinates
(Gauss-Legendre tensor grids); all metric volume factors belong to the
integrand.  A ``QuadratureGrid`` keeps only its per-axis nodes and weights
and hands its points out in C-order slabs, each a ``TensorBlock``: the batch
protocol is stated there.  Grid sums use a fixed-shape pairwise reduction so
results do not depend on evaluation chunking.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import ChartMetric, ScalarField

POLAR_CAP = 1e-4  # half-angle excised around each spherical pole

# Largest quadrature grid ``quadrature_grid`` builds.  A Gauss-Legendre rule
# of n nodes solves an n x n companion matrix, so each axis is bounded as well
# as the total; the largest grid of the tests is the uniform reference rule of
# the flat-torus sweep at lambda 10, 3159^2 (about 1e7) points.  A composite
# axis of an adaptive sweep is bounded by its node total.
MAX_AXIS_POINTS = 4096
MAX_GRID_POINTS = 1 << 24


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise summation (fixed reduction shape); an odd pass pairs its last value with 0.0."""
    acc = np.asarray(values, dtype=float).ravel()
    if acc.size == 0:
        return 0.0
    while acc.size > 1:
        half = acc.size // 2
        out = np.empty(acc.size - half)
        np.add(acc[0 : 2 * half : 2], acc[1::2], out=out[:half])
        out[half:] = acc[2 * half :] + 0.0  # -0.0 + 0.0 is +0.0
        acc = out
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
        self._plans: dict[int, list] = {}

    def _term(self, coef: float, factors, counts):
        """coef * prod_k d^{counts_k} f_k as (coef', ((k, 0 for sin | 1 for cos), ...)); None if it vanishes."""
        trig = []
        for k, (f, d) in enumerate(zip(factors, counts)):
            if f == ONE:
                if d:
                    return None
                continue
            phase = (f - SIN + d) % 4  # sin, cos, -sin, -cos
            coef *= (-1.0 if phase > 1 else 1.0) * self.freq[k] ** d
            trig.append((k, phase % 2))
        return coef, tuple(trig)

    def _plan(self, d: int) -> list:
        """The nonzero entries of d^d X, each as (index, its terms); built once per order."""
        if d not in self._plans:
            plan = []
            for idx in itertools.product(range(self.dim), repeat=d):
                counts = [idx.count(k) for k in range(self.dim)]
                for a, comp in enumerate(self.components):
                    terms = [t for t in (self._term(c, fs, counts) for c, fs in comp) if t is not None]
                    if terms:
                        plan.append((idx + (a,), terms))
            self._plans[d] = plan
        return self._plans[d]

    def derivatives(self, x, orders: Sequence[int]) -> list[np.ndarray]:
        """[d^d X for d in orders], points first: d^d X has shape batch + (n,) * d + (m,).

        ``x`` is a point array (batch + (n,)) or a ``TensorBlock`` of P points
        (batch (P,)), whose per-axis coordinates broadcast: a point array is
        just its n columns.  sin and cos of a coordinate are taken only when
        some term needs them, on a block once per axis node.
        """
        if isinstance(x, TensorBlock):
            columns, block, batch = x.axes, np.broadcast_shapes(*map(np.shape, x.axes)), (len(x),)
        else:
            x = np.asarray(x, dtype=float)
            columns, block = [x[..., k] for k in range(self.dim)], x.shape[:-1]
            batch = block
        cache = {}

        def trig(k: int, kind: int) -> np.ndarray:
            if (k, kind) not in cache:
                t = columns[k] if self.freq[k] == 1.0 else self.freq[k] * columns[k]
                cache[k, kind] = np.cos(t) if kind else np.sin(t)
            return cache[k, kind]

        out = []
        for d in orders:
            tail = (self.dim,) * d + (len(self.components),)
            arr = np.zeros(block + tail)
            for index, terms in self._plan(d):
                products = [functools.reduce(np.multiply, [trig(*f) for f in fs], c) for c, fs in terms]
                arr[(...,) + index] = functools.reduce(np.add, products)
            out.append(arr.reshape(batch + tail))
        return out

    def __call__(self, x) -> np.ndarray:
        return self.derivatives(x, [0])[0]

    def bound(self, d: int) -> np.ndarray:
        """A closed-form bound on |d^d X| entrywise, shape (n,) * d + (m,): each entry's sum of |coef| over its terms."""
        out = np.zeros((self.dim,) * d + (len(self.components),))
        for index, terms in self._plan(d):
            out[index] = sum(abs(c) for c, _ in terms)
        return out


def _product_embedding(e1: TrigEmbedding, e2: TrigEmbedding) -> TrigEmbedding:
    """x -> (X1(x[:n1]), X2(x[n1:])): each factor's terms, constant in the other's coordinates."""
    pad1, pad2 = (ONE,) * e2.dim, (ONE,) * e1.dim
    components = [[(c, fs + pad1) for c, fs in comp] for comp in e1.components]
    components += [[(c, pad2 + fs) for c, fs in comp] for comp in e2.components]
    return TrigEmbedding(components, e1.freq + e2.freq)


def trig_field(potential: TrigEmbedding) -> ScalarField:
    """Value, gradient and Hessian (points first) of a one-component TrigEmbedding."""

    def jet(x, order: int) -> np.ndarray:
        return potential.derivatives(x, [order])[0][..., 0]

    return ScalarField(*(functools.partial(jet, order=k) for k in range(3)), embedding=potential)


def _ambient_sum(charts: dict[str, "Chart"], weights: dict[int, float]) -> dict[str, ScalarField]:
    """Per chart, the ScalarField sum of w * (ambient coordinate a of its embedding) over ``weights`` = {a: w}."""
    fields = {}
    for name, chart in charts.items():
        terms = [(w * c, fs) for a, w in weights.items() for c, fs in chart.embed.components[a]]
        fields[name] = trig_field(TrigEmbedding([terms], chart.embed.freq))
    return fields


def pullback_jets(dx: Sequence[np.ndarray]) -> list[np.ndarray]:
    """[g, dg, d2g][:len(dx)] of the pulled-back Euclidean metric, from [dX, d2X, d3X].

    Points first, as in ``TrigEmbedding.derivatives``; every dot product is a
    broadcast product summed over the last (ambient) axis.
    g_ij = X_i.X_j, d_k g_ij = X_ki.X_j + X_i.X_kj and
    d_kl g_ij = X_kli.X_j + X_i.X_klj + X_ki.X_lj + X_li.X_kj.  Each sum
    pairs a term with its i <-> j transpose, so the jets are exactly symmetric.
    """
    x1 = dx[0]
    jets = [(x1[..., :, None, :] * x1[..., None, :, :]).sum(-1)]
    if len(dx) > 1:
        a = (dx[1][..., None, :] * x1[..., None, None, :, :]).sum(-1)  # X_ki.X_j at [k, i, j]
        jets.append(a + np.swapaxes(a, -1, -2))
    if len(dx) > 2:
        b = (dx[2][..., None, :] * x1[..., None, None, None, :, :]).sum(-1)  # X_kli.X_j
        c = (dx[1][..., :, None, :, None, :] * dx[1][..., None, :, None, :, :]).sum(-1)  # X_ki.X_lj at [k, l, i, j]
        jets.append((b + np.swapaxes(b, -1, -2)) + (c + np.swapaxes(c, -1, -2)))
    return jets


def scaled_jets(phi: Sequence[np.ndarray], jets: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Jets of phi * g from [phi, dphi, d2phi] and [g, dg, d2g] (equal lengths, points first)."""
    g = jets[0]
    out = [phi[0][..., None, None] * g]
    if len(jets) > 1:
        out.append(phi[1][..., :, None, None] * g[..., None, :, :] + phi[0][..., None, None, None] * jets[1])
    if len(jets) > 2:
        cross = phi[1][..., :, None, None, None] * jets[1][..., None, :, :, :]
        out.append(
            (phi[2][..., None, None] * g[..., None, None, :, :] + (cross + np.swapaxes(cross, -4, -3)))
            + phi[0][..., None, None, None, None] * jets[2]
        )
    return out


def _jet_chart(
    name: str, dim: int, domain, jet: Callable[[np.ndarray, int], np.ndarray], **structure
) -> ChartMetric:
    """ChartMetric whose metric, d_metric and d2_metric are jet(x, 0), jet(x, 1) and jet(x, 2)."""
    jets = (functools.partial(jet, order=k) for k in range(3))
    return ChartMetric(dim, domain, *jets, name=name, **structure)


def embedded_chart(name: str, embedding: TrigEmbedding, domain, factor=None) -> ChartMetric:
    """Chart with the pulled-back metric, times the scalar ``factor`` (a one-component TrigEmbedding) if given."""

    def jet(x, order: int) -> np.ndarray:
        jets = pullback_jets(embedding.derivatives(x, range(1, order + 2)))
        if factor is not None:
            jets = scaled_jets([d[..., 0] for d in factor.derivatives(x, range(order + 1))], jets)
        return jets[order]

    return _jet_chart(name, embedding.dim, domain, jet, embedding=embedding if factor is None else None)


def flat_chart(name: str, dim: int, domain) -> ChartMetric:
    """Euclidean coordinates with the exact jets (I, 0, 0), declared ``flat``."""

    def jet(x, order: int) -> np.ndarray:
        out = np.zeros(np.shape(x)[:-1] + (dim,) * (order + 2))
        if order == 0:
            out[..., range(dim), range(dim)] = 1.0
        return out

    return _jet_chart(name, dim, domain, jet, flat=True)


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
        if h_name is None:
            return None
        try:
            return self.morse_catalog[h_name]
        except KeyError:
            raise KeyError(
                f"unknown potential {h_name!r} for {self.name}; "
                f"available: {sorted(self.morse_catalog)}"
            ) from None


@dataclass(frozen=True)
class TensorBlock:
    """A block of a tensor grid: the batch every chart and field evaluator is handed.

    ``axes[k]`` holds the block's nodes on axis k, shaped to broadcast
    against the others (``u[:, None]``, ``v[None, :]``, as ``np.ix_`` makes
    them).  The block is an array-like of the P points of their broadcast in
    C order, of ``np.shape`` (P, n).  This is the batch protocol: a
    ``TrigEmbedding`` reads the block's axes, taking sin and cos once per axis
    node, and any other evaluator reads its batch with ``np.asarray``, which
    builds a block's points (as indexing and iterating it do).
    """

    axes: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), len(self.axes)

    def __len__(self) -> int:
        return math.prod(np.broadcast_shapes(*map(np.shape, self.axes)))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        points = np.stack(np.broadcast_arrays(*self.axes), axis=-1).reshape(-1, len(self.axes))
        return points if dtype is None else points.astype(dtype, copy=False)

    def __getitem__(self, key) -> np.ndarray:
        return np.asarray(self)[key]

    def __iter__(self):
        return iter(np.asarray(self))


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre tensor grid on the quadrature chart, kept as its per-axis rules.

    ``nodes[k]`` and ``axis_weights[k]`` are the rule on axis k.  The grid's
    points are their tensor product in C order, and a point's weight is the
    product ((w_0 w_1) w_2)... of its axis weights.  ``slabs`` hands the
    points out as ``TensorBlock``s; ``points`` and ``weights`` build the
    (N, dim) point array and the N weights on demand.

    Weights are bare Lebesgue weights; ``excised_measure`` is the parameter
    measure removed by polar caps, reported so callers can fold
    ``excised_measure * sup|integrand|`` into error bounds.
    """

    nodes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]
    excised_measure: float

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.nodes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __len__(self) -> int:
        return self.size

    @property
    def points(self) -> np.ndarray:
        return tensor_points(self.nodes)

    @property
    def weights(self) -> np.ndarray:
        # ((w_0 w_1) w_2)...: the same products, in the same order, as a running product from 1
        return functools.reduce(np.multiply.outer, self.axis_weights, 1.0).ravel()  # a new array, also on one axis

    def slabs(self, limit: int):
        """(start, stop, TensorBlock) of C-order slabs of at most ``limit`` points, covering the grid in order.

        A slab fixes the axes before some axis k at one node each, takes a
        range of axis k and every node of the axes after it; k is the first
        axis whose trailing block fits in ``limit``.
        """
        shape = self.shape
        k = 0
        while math.prod(shape[k + 1 :]) > limit:
            k += 1
        step = limit // math.prod(shape[k + 1 :])
        start = 0
        for lead in np.ndindex(shape[:k]):
            fixed = [nodes[i : i + 1] for nodes, i in zip(self.nodes, lead)]
            for i in range(0, shape[k], step):
                block = TensorBlock(np.ix_(*fixed, self.nodes[k][i : i + step], *self.nodes[k + 1 :]))
                yield start, start + len(block), block
                start += len(block)


@functools.lru_cache(maxsize=128)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]; leggauss is an O(n^3) eigensolve."""
    rule = np.polynomial.legendre.leggauss(n)
    for array in rule:
        array.flags.writeable = False
    return rule


def gauss_legendre_axis(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


@dataclass(frozen=True)
class CompositeRule:
    """A composite Gauss-Legendre rule on one axis: ``counts[i]`` nodes on [edges[i], edges[i + 1]]."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.counts)

    def axis(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the panels, in order."""
        panels = [gauss_legendre_axis(a, b, n) for a, b, n in zip(self.edges, self.edges[1:], self.counts)]
        return tuple(np.concatenate(part) for part in zip(*panels))


def tensor_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """(N, dim) points of the tensor grid of the 1-D ``axes`` in C order, with no mesh copies."""
    return np.asarray(TensorBlock(np.ix_(*axes)))


def refuse_first(bad: np.ndarray, points, what: str) -> None:
    """Raise ``ValueError`` "<what> (<coordinates>)" naming the first of ``points`` (array or block) where ``bad`` holds."""
    first = np.flatnonzero(bad)
    if first.size:
        where = ", ".join(str(float(c)) for c in np.asarray(points, dtype=float)[first[0]])
        raise ValueError(f"{what} ({where})")


def grid_count(count: float) -> int | float:
    """An axis count as a refusal prints it: rounded up, or a float left as it is above ``MAX_GRID_POINTS``."""
    return math.ceil(count) if count <= MAX_GRID_POINTS else count


def check_point_budget(resolution: Sequence[float]) -> None:
    """Refuse a grid above ``MAX_AXIS_POINTS`` on an axis or ``MAX_GRID_POINTS`` in all, before any allocation."""
    counts = tuple(map(grid_count, resolution))
    total = math.prod(counts)
    if max(counts) > MAX_AXIS_POINTS or total > MAX_GRID_POINTS:
        raise ValueError(
            f"quadrature grid {counts} has {total} points, above the budget of "
            f"{MAX_AXIS_POINTS} per axis and {MAX_GRID_POINTS} in all"
        )


def is_count(value) -> bool:
    """Whether ``value`` is an integer grid count: an ``int`` or a numpy integer, not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def quadrature_grid(spec: ManifoldSpec, resolution: Sequence[int | CompositeRule]) -> QuadratureGrid:
    """Tensor grid of one rule per axis: a node count for a Gauss-Legendre rule on the whole axis, or a ``CompositeRule``."""
    chart = spec.quad_chart
    rules = tuple(resolution)
    if not all(isinstance(r, CompositeRule) or is_count(r) for r in rules):
        raise ValueError(f"resolution must hold integer counts, got {rules}")
    rules = tuple(r if isinstance(r, CompositeRule) else int(r) for r in rules)
    counts = tuple(r.size if isinstance(r, CompositeRule) else r for r in rules)
    if len(counts) != chart.dim:
        raise ValueError(f"resolution needs {chart.dim} axis counts, got {counts}")
    if any(r < 2 for r in counts):
        raise ValueError(f"resolution must be >= 2 per axis, got {counts}")
    check_point_budget(counts)
    nodes, weights = zip(
        *(
            r.axis() if isinstance(r, CompositeRule) else gauss_legendre_axis(lo, hi, r)
            for (lo, hi), r in zip(chart.quad_domain, rules)
        )
    )
    return QuadratureGrid(nodes, weights, chart.excised_measure)


def integrate_values(grid: QuadratureGrid, values: np.ndarray) -> tuple[float, float]:
    """Weighted pairwise-summed integral and its cap-excision error bound."""
    values = np.asarray(values, dtype=float)
    weighted = grid.weights
    total = pairwise_sum(np.multiply(weighted, values, out=weighted))  # into the weights' own array
    sup = max(abs(float(values.max())), abs(float(values.min()))) if values.size else 0.0  # no |values| array
    return total, grid.excised_measure * sup


# -- catalog builders ---------------------------------------------------------


def _sphere_like(name: str, a: float, b: float, c: float, factor=None, critical_distance=None) -> ManifoldSpec:
    """x^2/a^2 + y^2/b^2 + z^2/c^2 = 1: polar and rotated charts and the height z.

    ``factor`` scales the polar metric; ``critical_distance`` is the height's.
    """
    full = [[1e-7, math.pi - 1e-7], [0.0, 2 * math.pi]]
    polar = TrigEmbedding([[(a, (SIN, COS))], [(b, (SIN, SIN))], [(c, (COS, ONE))]])
    rotated = TrigEmbedding([[(a, (COS, ONE))], [(b, (SIN, COS))], [(c, (SIN, SIN))]])
    charts = {
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
    height = MorseFunction(fields=_ambient_sum(charts, {2: 1.0}), critical_distance=critical_distance or {})
    return ManifoldSpec(
        name=name,
        dim=2,
        charts=charts,
        euler_char=2,
        morse_catalog={"height": height},
    )


def _require_above(low: float, **values) -> None:
    """Builder parameters must be finite real numbers above ``low``."""
    for name, value in values.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not real or not math.isfinite(value) or value <= low:
            raise ValueError(f"{name} must be a finite number above {low:g}, got {value!r}")


def sphere(radius: float = 1.0) -> ManifoldSpec:
    _require_above(0, radius=radius)

    def dist_to_poles(points):
        th = np.asarray(points, dtype=float)[..., 0]
        return radius * np.minimum(th, math.pi - th)

    return _sphere_like("s2", radius, radius, radius, critical_distance={"polar": dist_to_poles})


def sphere_conformal(radius: float = 1.0, amplitude: float = 0.3) -> ManifoldSpec:
    """Round sphere with metric multiplied by (1 + amplitude * sin(theta)).

    Same topology, deformed geometry; the partition function must not move.
    The factor bends the meridians, so the distance to the poles has no
    closed form and the height declares no ``critical_distance``.
    """
    _require_above(-1, amplitude=amplitude)
    _require_above(0, radius=radius)
    factor = TrigEmbedding([[(1.0, (ONE, ONE)), (amplitude, (SIN, ONE))]])
    return _sphere_like("s2_perturbed", radius, radius, radius, factor)


def ellipsoid(a: float = 1.0, b: float = 1.2, c: float = 0.8) -> ManifoldSpec:
    _require_above(0, a=a, b=b, c=c)
    return _sphere_like("ellipsoid", a, b, c)


def torus(big_radius: float = 2.0, small_radius: float = 1.0) -> ManifoldSpec:
    _require_above(0, big_radius=big_radius, small_radius=small_radius)
    if not big_radius > small_radius:
        raise ValueError("torus of revolution needs R > r > 0")
    R, r = big_radius, small_radius
    # ((R + r cos v) cos u, (R + r cos v) sin u, r sin v)
    embed = TrigEmbedding(
        [[(R, (COS, ONE)), (r, (COS, COS))], [(R, (SIN, ONE)), (r, (SIN, COS))], [(r, (ONE, SIN))]]
    )

    two_pi = 2 * math.pi
    charts = {
        "torus": Chart(
            metric=embedded_chart("torus", embed, [[0.0, two_pi], [0.0, two_pi]]),
            embed=embed,
            quad_domain=np.array([[0.0, two_pi], [0.0, two_pi]]),
            periods=(two_pi, two_pi),
        )
    }
    # standing torus: the height is the first ambient coordinate
    height = MorseFunction(fields=_ambient_sum(charts, {0: 1.0}))
    return ManifoldSpec(
        name="torus",
        dim=2,
        charts=charts,
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

    charts = {
        "flat": Chart(
            metric=flat_chart("flat", 2, [[0.0, 1.0], [0.0, 1.0]]),
            embed=embed,
            quad_domain=np.array([[0.0, 1.0], [0.0, 1.0]]),
            periods=(1.0, 1.0),
        )
    }
    # cos(tau u) + cos(tau v): tau times ambient coordinates 0 and 2, with tau * (1 / tau) == 1.0 exactly
    coscos = MorseFunction(fields=_ambient_sum(charts, {0: tau, 2: tau}))
    return ManifoldSpec(
        name="flat_t2",
        dim=2,
        charts=charts,
        euler_char=0,
        morse_catalog={"coscos": coscos},
    )


def _product_chart(name: str, c1: Chart, c2: Chart, quad: bool) -> Chart:
    # X1 and X2 fill disjoint ambient axes, so the product embedding induces the block metric
    embed = _product_embedding(c1.embed, c2.embed)
    chart = embedded_chart(name, embed, np.vstack([c1.metric.domain, c2.metric.domain]))
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
    charts = {"product": quad, "product_rotated": seed}
    # the sum of the factors' heights, ambient coordinates 2 and 5
    height_sum = MorseFunction(fields=_ambient_sum(charts, {2: 1.0, 5: 1.0}), factor_names=("height", "height"))
    return ManifoldSpec(
        name="s2xs2",
        dim=4,
        charts=charts,
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
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for {name!r}; accepted: {list(accepted)}")
    return builder(**params)


@functools.lru_cache(maxsize=None)
def _default(name: str) -> ManifoldSpec:
    return _BUILDERS[name]()


def catalog() -> list[ManifoldSpec]:
    """Default-parameter instances of the golden catalog: every builder but ``s2_perturbed``.

    The benchmark's ``CHI`` table and its Hopf-index pass read exactly this
    list, and acceptance criterion 3 checks the same five manifolds, so a
    manifold added here needs its chi and index there too.
    """
    return [_default(n) for n in ("s2", "ellipsoid", "torus", "flat_t2", "s2xs2")]
