"""The 0|2 sigma-model core.

A field configuration over a chart point is a quadruple: the point x, two
odd tangent vectors (realized as the 2n Grassmann generators phi_1, phi_2),
and an even tangent vector F.  The classical action in these component
fields is

    S = 1/2 |F|^2  -  lambda <F, grad h>
        + (curvature quartic in phi_1, phi_2) / 2
        -  lambda Hess(h)(phi_1, phi_2),

where Hess is the covariant Hessian.  Two independent routes compute it:

* ``action_geometric`` assembles it from a CurvatureFrame (metric,
  curvature tensor, covariant Hessian), and
* ``action_coordinate`` expands the kinetic energy of the map directly in
  raw metric jets -- a five-term expansion in the generators and the even
  component E = F + Hess-part, plus the potential pulled back through E.

Their coefficientwise equality over random jets mechanizes the derivation
that relates the raw expansion to curvature.  The expansion's Grassmann
products depend on the dimension alone, so ``action_coordinate`` runs them
once per n: ``_coordinate_plan`` multiplies elements whose coefficients are
labels of a sample's slots (F^k, Gamma^k_ab, the Hessian), and keeps, per
term of the expansion, which slots meet, the output mask and sign, and the
order in which ``multiply``'s dict loop adds them.  A sample then does only
that float arithmetic, so its term map has the bits of multiplying the
elements out (``tests/action_oracle.py`` does, and the tests compare).

Integrating out F turns exp(-S) into the partition integrand

    det(g)^(-1/2) exp(-lambda^2 |grad h|^2 / 2)
        * [top Berezin coefficient of exp(lambda HessBiform - Biform/2)],

whose bare-Lebesgue quadrature times (2pi)^(-n/2) is the partition
function Z.  At lambda = 0 the Berezin factor is the Pfaffian density of
the curvature (Euler density); as lambda grows the integrand localizes
onto critical points of h and Z counts them with Hessian signs.  Z itself
is flat in lambda: it equals the Euler characteristic throughout.

The batched integrand has three routes to its tensors, chosen by what the
chart declares:

* induced: curvature from the second fundamental form on charts with an
  induced metric (s2, ellipsoid, torus and both s2xs2 product charts: one
  pass of embedding derivatives per chunk);
* flat: a chart whose jets are exactly (I, 0, 0) (the flat torus) evaluates
  no jet, inverse, determinant or curvature: the covariant Hessian is the
  raw Hessian and the Gaussian is exp(-lambda^2 |grad h|^2 / 2);
* jets: curvature from the metric jets (the conformally scaled
  s2_perturbed).

It runs over the quadrature grid in C-order slabs of at most 2^13 points
in every dimension, each a ``TensorBlock`` handed to every evaluator as it
is; the grid's point array is never built.  A slab's scratch (about 10 MB
in 2-D) stays small enough for the allocator to reuse it from slab to
slab.  Consecutive couplings of a sweep that get the same grid form a run,
evaluated in one pass: per slab the tensors that do not depend on the
coupling (jets, det g, g^-1, curvature, the potential's gradient and
covariant Hessian, |grad h|^2_g) are computed once, and each coupling of
the run takes its own Gaussian and Berezin top into its own row of N
values.  A run holds at most ``MAX_GRID_POINTS`` values in all, so a
longer one is split.  The fixed pairwise sum reduces each row with the
grid weights, so Z does not depend on the slab shape or on the run.
Refusals come where evaluating one coupling at a time would raise them: a
pass stops at the first slab that is not finite in any row, and a refused
run of several couplings is graded again one coupling at a time.

Every Z takes one path: ``_sweep_plan`` checks the resolution and splits
it over a product, and ``_graded`` makes the grid and integrates it.  The
bump width along axis k is 1 / (lam mu), mu^2 = (H g^-1 H)_kk from one
table (``_probe``).  An explicit grid samples nothing and is checked
against the table's largest mu.  An adaptive ``lambda_sweep`` samples the
table once and gives each axis, per coupling, a rule that follows the bump:
composite Gauss-Legendre panels of at most 64 nodes at 8 nodes per local
width, the base density on slabs that a closed-form bound shows the bump
does not reach, and the base rule on an axis that needs no more
(``_graded_rules``).

Sign bookkeeping: the quartic curvature element carries a single frozen
calibration sign (see ``geometry.curvature_biform``); the action couples
to it through ``ACTION_CURVATURE_COUPLING`` so that both computation
routes and both integral limits reproduce chi on the golden catalog.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .geometry import (
    ChartMetric,
    CurvatureFrame,
    MetricJets,
    biform_monomials,
    christoffel_tensors,
    covariant_hessian,
    curvature_biform,
    induced_curvature,
    pair_biform,
    riemann_tensor,
    CURVATURE_BIFORM_SIGN,
)
from .grassmann import GrassmannElement, _merge_sign, berezin, exp_even, multiply
from .manifolds import (
    CompositeRule,
    ManifoldSpec,
    QuadratureGrid,
    TensorBlock,
    check_point_budget,
    grid_count,
    integrate_values,
    is_count,
    pairwise_sum,
    quadrature_grid,
    refuse_first,
    MAX_AXIS_POINTS,
    MAX_GRID_POINTS,
)
from .morse import TOL_MORSE

# Coupling of the action to the calibrated curvature element.  The
# two-route equivalence check pins it: with the chi-calibrated biform the
# quartic term of the raw coordinate expansion is -biform/2.
ACTION_CURVATURE_COUPLING = -0.5


class ResolutionError(ValueError):
    """Requested grid cannot resolve the integrand at the requested coupling."""


@dataclass(frozen=True)
class ComponentField:
    """Even component data of a field configuration: point, F, coupling, potential jets."""

    x: np.ndarray
    F: np.ndarray
    lam: float = 0.0
    h_grad: np.ndarray | None = None
    h_hess: np.ndarray | None = None

    def potential_jets(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        grad = np.zeros(n) if self.h_grad is None else np.asarray(self.h_grad, dtype=float)
        hess = np.zeros((n, n)) if self.h_hess is None else np.asarray(self.h_hess, dtype=float)
        return grad, hess


@dataclass(frozen=True)
class PartitionResult:
    lam: float
    value: float
    resolution: tuple[int, ...]
    error_bound: float


@dataclass(frozen=True)
class SweepResult:
    results: tuple[PartitionResult, ...]

    @property
    def max_deviation(self) -> float:
        """max_lambda |Z(lambda) - Z(lambda_0)| against the first entry."""
        base = self.results[0].value
        return max(abs(r.value - base) for r in self.results)

    def max_deviation_from(self, target: float) -> float:
        return max(abs(r.value - target) for r in self.results)


# -- the action, two ways ----------------------------------------------------


def action_geometric(frame: CurvatureFrame, cf: ComponentField) -> GrassmannElement:
    """Action from curvature-frame data: norm, curvature, covariant Hessian."""
    n = frame.dim
    F = np.asarray(cf.F, dtype=float)
    grad, hess = cf.potential_jets(n)
    scalar = 0.5 * float(F @ frame.g @ F) - cf.lam * float(grad @ F)
    out = GrassmannElement.scalar(2 * n, scalar)
    out = out + ACTION_CURVATURE_COUPLING * curvature_biform(frame)
    hcov = covariant_hessian(frame, grad, hess)
    if cf.lam != 0.0 and np.any(hcov):
        out = out - cf.lam * pair_biform(hcov)
    return out


@functools.lru_cache(maxsize=8)
def _coordinate_generators(n: int) -> tuple[tuple, tuple, dict[tuple[int, int, int, int], GrassmannElement]]:
    """phi_1, phi_2 and the quartic products phi_2^l phi_1^k phi_1^i phi_2^j, keyed (k, l, i, j).

    The coordinate route's own products, built once per dimension n with
    ``multiply``; they never come from ``geometry.biform_monomials``, so the
    two action routes keep independent sign bookkeeping.
    """
    N = 2 * n
    phi1 = tuple(GrassmannElement.generator(N, 2 * i) for i in range(n))
    phi2 = tuple(GrassmannElement.generator(N, 2 * i + 1) for i in range(n))
    quartics = {
        (k, l, i, j): multiply(multiply(phi2[l], phi1[k]), multiply(phi1[i], phi2[j]))
        for k in range(n)
        for l in range(n)
        for i in range(n)
        for j in range(n)
    }
    return phi1, phi2, quartics


@functools.lru_cache(maxsize=8)
def _coordinate_pairs(n: int) -> tuple[tuple[GrassmannElement, ...], ...]:
    """The jet-free products phi_2^k phi_1^i, indexed [k][i], built once per dimension n."""
    phi1, phi2, _ = _coordinate_generators(n)
    return tuple(tuple(multiply(phi2[k], phi1[i]) for i in range(n)) for k in range(n))


class _Label:
    """A coefficient that records what ``multiply``'s dict loop does with it.

    ``terms`` is a signed sum of products of sample slots, ``((sign, slots), ...)``,
    in the order the sum adds them.  The loop takes a label like any
    coefficient: ``-a * b`` gives the signed product and ``prev + val``
    appends it to the sum.  Only single products multiply, so a sum is never
    distributed, and an int factor is a generator's sign.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms

    @classmethod
    def slot(cls, index) -> "_Label":
        return cls(((1, (int(index),)),))

    def __mul__(self, other):
        if isinstance(other, int):
            return _Label(tuple((sign * other, slots) for sign, slots in self.terms))
        ((sign, slots),) = self.terms
        ((other_sign, other_slots),) = other.terms
        return _Label(((sign * other_sign, slots + other_slots),))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __add__(self, other):
        return _Label(self.terms + other.terms)

    def __radd__(self, other):
        if other != 0:
            return NotImplemented
        return self


_ONE = _Label(((1, ()),))  # the unit, for products that hold no slot


@dataclass(frozen=True)
class _ScaledProducts:
    """One term map of the plan: row r adds scales[scale[r]] times its sum into position out[r].

    Row r is one output mask of one product of the expansion.  Its products
    signed[left[r, c]] * values[right[r, c]] are summed in column order,
    the order ``multiply``'s dict loop adds them; a short row is padded with
    0.0 * 1.0.  The rows are added in row order, the order the expansion
    adds its products (``np.add.at`` adds repeated positions in turn).
    """

    left: np.ndarray  # (rows, width) indices into values followed by -values
    right: np.ndarray  # (rows, width) indices into values
    scale: np.ndarray  # (rows,) indices into scales
    out: np.ndarray  # (rows,) output positions

    def __call__(self, signed: np.ndarray, values: np.ndarray, scales: np.ndarray, size: int) -> np.ndarray:
        products = signed[self.left] * values[self.right]
        inner = products[:, 0]
        for column in range(1, products.shape[1]):
            inner = inner + products[:, column]
        acc = np.zeros(size)
        np.add.at(acc, self.out, scales[self.scale] * inner)
        return acc


@dataclass(frozen=True)
class _CoordinatePlan:
    """The products of ``action_coordinate`` at one dimension, as index tables."""

    masks: tuple[int, ...]  # output masks, in the order the expansion first meets them
    kinetic: _ScaledProducts  # 2 S_kin
    potential: _ScaledProducts  # S_pot / (-lambda)


def _slot_tables(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive slot indices, one table per shape, for flattening arrays of those shapes end to end."""
    tables, start = [], 0
    for shape in shapes:
        tables.append(np.arange(start, start + math.prod(shape)).reshape(shape))
        start += math.prod(shape)
    return tables


@functools.lru_cache(maxsize=8)
def _coordinate_plan(n: int) -> _CoordinatePlan:
    """Run the expansion once on labelled coefficients and keep what ``multiply`` did.

    A sample's values are F^k, Gamma^k_ab, Hess_ab, 1.0 and 0.0, and its
    scales g_ij, d_k g_ij, d_k d_l g_ij, d_k h and 1.0, each flattened in C
    order.  E^k is built from the coordinate route's own generators, so the
    plan's masks, signs and sum orders are those of ``multiply`` on them.
    """
    N = 2 * n
    phi1, phi2, quartics = _coordinate_generators(n)
    phi2_phi1 = _coordinate_pairs(n)
    phi1_phi2 = [[multiply(phi1[a], phi2[b]) for b in range(n)] for a in range(n)]
    F, gamma, hess, (one, zero) = _slot_tables((n,), (n, n, n), (n, n), (2,))
    g, dg, d2g, grad, (unit,) = _slot_tables((n, n), (n, n, n), (n, n, n, n), (n,), (1,))
    size = zero + 1  # values, then -values

    E = []
    for k in range(n):
        e = GrassmannElement.scalar(N, _Label.slot(F[k]))
        for a in range(n):
            for b in range(n):
                e = e - phi1_phi2[a][b] * _Label.slot(gamma[k, a, b])
        E.append(e)
    kinetic = []  # (scale slot, product), in the expansion's order
    for i in range(n):
        for j in range(n):
            kinetic.append((g[i, j], multiply(E[i], E[j])))
            for k in range(n):
                kinetic += [
                    (dg[k, i, j], multiply(multiply(phi1[k], E[i]), phi2[j])),
                    (dg[k, i, j], -multiply(phi2_phi1[k][i], E[j])),
                    (dg[k, i, j], -multiply(multiply(E[k], phi1[i]), phi2[j])),
                ]
                kinetic += [(d2g[k, l, i, j], quartics[k, l, i, j] * _ONE) for l in range(n)]
    potential = [(grad[k], E[k]) for k in range(n)]
    potential += [(unit, phi1_phi2[a][b] * _Label.slot(hess[a, b])) for a in range(n) for b in range(n)]

    positions: dict[int, int] = {}

    def compile_rows(products: list) -> _ScaledProducts:
        rows = [
            (positions.setdefault(mask, len(positions)), scale, label.terms)
            for scale, element in products
            for mask, label in element.terms.items()
        ]
        width = max(len(terms) for _, _, terms in rows)
        left = np.full((len(rows), width), zero)
        right = np.full((len(rows), width), one)
        for r, (_, _, terms) in enumerate(rows):
            for c, (sign, slots) in enumerate(terms):
                a, b = (slots + (one, one))[:2]
                left[r, c] = a if sign > 0 else a + size
                right[r, c] = b
        out, scale, _ = zip(*rows)
        return _ScaledProducts(left, right, np.array(scale), np.array(out))

    kinetic_plan = compile_rows(kinetic)
    potential_plan = compile_rows(potential)
    return _CoordinatePlan(tuple(positions), kinetic_plan, potential_plan)


def action_coordinate(jets: MetricJets, cf: ComponentField) -> GrassmannElement:
    """Action from raw metric jets: the five-term kinetic expansion.

    Substitutes the even component E^k = F^k - Gamma^k_ab phi_1^a phi_2^b
    and evaluates

        2 S_kin = g_ij E^i E^j
                + d_k g_ij (phi_1^k E^i phi_2^j - phi_2^k phi_1^i E^j
                            - E^k phi_1^i phi_2^j)
                + d_k d_l g_ij phi_2^l phi_1^k phi_1^i phi_2^j,

    and the potential through E:

        S_pot = -lambda (d_k h  E^k + d_k d_l h  phi_1^k phi_2^l).

    The products depend on n alone, so ``_coordinate_plan`` runs them once
    per n through ``multiply`` on labelled coefficients.  A sample then does
    only the float arithmetic of those products, in their order: each
    product's sum in ``multiply``'s loop order, the scale by g_ij, d_k g_ij
    or d_k d_l g_ij (the sign of -d_k g_ij moved onto the product), then the
    add into one term map in the order written.  With finite jets every
    coefficient has the bits of multiplying the elements out; a coefficient
    that is exactly zero only adds zeros.  Terms come in the order the
    expansion first meets their masks.
    """
    n = jets.g.shape[0]
    plan = _coordinate_plan(n)
    gamma2 = christoffel_tensors(np.linalg.inv(jets.g), jets.dg)
    grad, hess = cf.potential_jets(n) if cf.lam != 0.0 else (np.zeros(n), np.zeros((n, n)))
    # the slot order of _coordinate_plan
    values = np.concatenate(
        (np.asarray(cf.F, dtype=float).reshape(n), gamma2.reshape(n**3), hess.reshape(n * n), (1.0, 0.0))
    )
    signed = np.concatenate((values, -values))
    scales = np.concatenate(
        (
            np.asarray(jets.g, dtype=float).reshape(n * n),
            np.asarray(jets.dg, dtype=float).reshape(n**3),
            np.asarray(jets.d2g, dtype=float).reshape(n**4),
            grad.reshape(n),
            (1.0,),
        )
    )
    size = len(plan.masks)
    acc = 0.5 * plan.kinetic(signed, values, scales, size)
    if cf.lam != 0.0:
        acc = acc + -cf.lam * plan.potential(signed, values, scales, size)
    return GrassmannElement(2 * n, dict(zip(plan.masks, acc.tolist())))


def check_action_equivalence(
    rng: np.random.Generator,
    dims: Sequence[int] = (2, 3),
    samples: int = 100,
    fault_flip: bool = False,
) -> float:
    """Max coefficient discrepancy between the two action routes on random jets.

    ``fault_flip`` plants the self-test's sign error: the coordinate route gets -d2g.
    """
    worst = 0.0
    for n in dims:
        for _ in range(samples):
            a = rng.normal(size=(n, n))
            g = a @ a.T + n * np.eye(n)
            dg = rng.normal(size=(n, n, n))
            dg = 0.5 * (dg + dg.transpose(0, 2, 1))
            d2g = rng.normal(size=(n, n, n, n))
            d2g = 0.5 * (d2g + d2g.transpose(0, 1, 3, 2))
            d2g = 0.5 * (d2g + d2g.transpose(1, 0, 2, 3))
            hess = rng.normal(size=(n, n))
            cf = ComponentField(
                x=np.zeros(n),
                F=rng.normal(size=n),
                lam=float(rng.normal()),
                h_grad=rng.normal(size=n),
                h_hess=0.5 * (hess + hess.T),
            )
            jets = MetricJets(g, dg, d2g)
            lhs = action_coordinate(MetricJets(g, dg, -d2g) if fault_flip else jets, cf)
            frame = CurvatureFrame.from_jets(np.zeros(n), jets)
            rhs = action_geometric(frame, cf)
            masks = set(lhs.terms) | set(rhs.terms)
            diff = max(abs(lhs.coefficient(m) - rhs.coefficient(m)) for m in masks) if masks else 0.0
            worst = max(worst, diff)
    return worst


# -- pointwise densities -------------------------------------------------------


def euler_density(frame: CurvatureFrame) -> float:
    """Pfaffian density of the curvature against bare chart Lebesgue measure.

    berezin(exp(-biform/2)) / sqrt(det g); integrating this over the chart
    and multiplying by (2 pi)^(-n/2) gives chi.
    """
    n = frame.dim
    if n % 2 != 0:
        raise ValueError(f"Euler density vanishes identically in odd dimension {n}")
    top = berezin(exp_even(-0.5 * curvature_biform(frame)), range(2 * n))
    return float(top) / math.sqrt(frame.det_g)


def reduce_auxiliary_field(frame: CurvatureFrame, h_grad: np.ndarray | None, lam: float) -> float:
    """Result of the Gaussian over the even component F.

    det(g)^(-1/2) exp(-lambda^2 |grad h|^2 / 2); the (2 pi)^(n/2) factor is
    cancelled against the global normalization.
    """
    weight = 1.0 / math.sqrt(frame.det_g)
    if h_grad is None or lam == 0.0:
        return weight
    grad = np.asarray(h_grad, dtype=float)
    return weight * math.exp(-0.5 * lam**2 * float(grad @ frame.g_inv @ grad))


def partition_integrand(
    frame: CurvatureFrame,
    lam: float = 0.0,
    h_grad: np.ndarray | None = None,
    h_hess: np.ndarray | None = None,
) -> float:
    """Pointwise partition-function integrand after the F reduction."""
    n = frame.dim
    if n % 2 != 0:
        raise ValueError(f"partition integrand needs even dimension, got {n}")
    exponent = -0.5 * curvature_biform(frame)
    if lam != 0.0 and h_grad is not None:
        hcov = covariant_hessian(
            frame, np.asarray(h_grad, dtype=float), np.asarray(h_hess, dtype=float)
        )
        exponent = exponent + lam * pair_biform(hcov)
    top = berezin(exp_even(exponent), range(2 * n))
    return reduce_auxiliary_field(frame, h_grad, lam) * float(top)


# -- batched grid evaluation ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _top_covers(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Signed exact covers of the top monomial by disjoint biform supports.

    The exponent lam HessBiform - Biform/2 is a sum of commuting even
    monomials c_m theta^m, so its exponential is prod_m (1 + c_m theta^m)
    and its top coefficient is the sum, over the sets of masks that cover
    the 2n generators exactly once, of the sorting sign times prod c_m.
    Returns those (sign, masks) pairs: 3 for n = 2, 114 for n = 4.
    """
    pairs, quartics = biform_monomials(n)
    supports = sorted({mask for _, mask, _ in pairs + quartics})
    top = (1 << (2 * n)) - 1
    covers = []

    def extend(covered: int, sign: int, masks: tuple[int, ...]) -> None:
        if covered == top:
            covers.append((sign, masks))
            return
        lowest = ~covered & (covered + 1)
        for mask in supports:
            if mask & lowest and not mask & covered:
                extend(covered | mask, sign * _merge_sign(covered, mask), masks + (mask,))

    extend(0, 1, ())
    return tuple(covers)


def _berezin_top(
    riem: np.ndarray | None, hcov: np.ndarray | None, lam: float, n: int, size: int
) -> np.ndarray:
    """Top coefficient of exp(lam HessBiform - Biform/2) at each of ``size`` points in dimension n.

    Sums the signed products of per-point monomial coefficients over
    ``_top_covers``; a None tensor contributes no monomials, so the covers
    that need them drop out.  The pointwise Grassmann engine
    (``partition_integrand``) is its test oracle.
    """
    pairs, quartics = biform_monomials(n)
    half = CURVATURE_BIFORM_SIGN * -0.5
    coef: dict[int, np.ndarray] = {}
    if riem is not None:
        for index, mask, sign in quartics:
            coef[mask] = coef.get(mask, 0.0) + (half * sign) * riem[(...,) + index]
    if hcov is not None:
        for index, mask, sign in pairs:
            coef[mask] = (lam * sign) * hcov[(...,) + index]
    top = np.zeros(size)
    for sign, masks in _top_covers(n):
        if all(mask in coef for mask in masks):
            top += sign * functools.reduce(np.multiply, (coef[mask] for mask in masks))
    return top


# Points per integrand slab in every dimension: about 10 MB of scratch in 2-D, which the allocator reuses
# from slab to slab instead of unmapping it and faulting it in again
_SLAB = 1 << 13
_STIFFNESS_PROBE = 17  # points per axis of the stiffness probe grid
# An adaptive sweep's plan samples cell vertices: at most 2^12 for the bump widths (64^2 in 2-D, 8^4 in
# 4-D), which need g^-1, and at most 2^16 for the exclusion bound, on cells that cut each of those
# into equal parts (253^2 in 2-D, 15^4 in 4-D)
_PLAN_VERTICES = 1 << 12
_EXCLUSION_VERTICES = 1 << 16
_PANEL_NODES = 64  # largest Gauss-Legendre rule of a composite axis
_EXCLUDED = 36.0  # lambda^2 |grad h|^2_g / 2 above which a panel keeps the base density; e^-36 < 2.4e-16


def _inverse_metric(g: np.ndarray, points, gram: bool) -> tuple[np.ndarray, np.ndarray]:
    """det g and g^-1 at every point of a chunk; names the first point where g is not positive definite or not finite.

    A Gram matrix dX dX^T (``gram``: the metric an embedding induces) is
    positive definite exactly where det g > 0.  Any other g must also have
    positive leading minors (Sylvester's criterion).  ``points`` is the
    chunk's point array or ``TensorBlock``, read only to name a point.
    """
    det = np.linalg.det(g)
    ok = det > 0
    if not gram:
        ok &= g[..., 0, 0] > 0
        for k in range(2, g.shape[-1]):
            ok &= np.linalg.det(g[..., :k, :k]) > 0
    refuse_first(~ok, points, "metric not positive definite at the grid point")
    g_inv = np.linalg.inv(g)
    finite = np.isfinite(det) & np.all(np.isfinite(g_inv), axis=(-2, -1))
    refuse_first(~finite, points, "metric determinant or inverse not finite at the grid point")
    return det, g_inv


def _integrand_chunk(chart: ChartMetric, x, lams: Sequence[float], h) -> np.ndarray:
    """One chunk of integrand values, one row per coupling of ``lams``: the tensors once, then each row.

    ``x`` is a point array (P, n) or a ``TensorBlock`` of P points, handed
    to every evaluator as it is.  Three routes, by what the chart declares.
    Induced: every tensor comes from one pass of embedding derivatives
    (``induced_curvature``).  Flat: the exact jets (I, 0, 0) skip the
    curvature, the inverse and the determinant, and no jet is evaluated.
    Jets: Christoffel symbols and curvature from the metric jets.  The
    potential's covariant Hessian and |grad h|^2_g do not depend on the
    coupling either; a row takes only its Gaussian and its Berezin top.
    """
    n = chart.dim
    riem = None
    if chart.embedding is not None:
        dx, d2x = chart.embedding.derivatives(x, [1, 2])
        det, g_inv = _inverse_metric(dx @ np.ascontiguousarray(np.swapaxes(dx, -1, -2)), x, gram=True)
        gamma2, riem = induced_curvature(dx, d2x, g_inv)
    elif not chart.flat:
        g = np.asarray(chart.metric(x), dtype=float)
        det, g_inv = _inverse_metric(g, x, gram=False)
        gamma2 = christoffel_tensors(g_inv, np.asarray(chart.d_metric(x), dtype=float))
        riem = riemann_tensor(g, np.asarray(chart.d2_metric(x), dtype=float), gamma2)

    hcov = None
    if h is not None and any(lam != 0.0 for lam in lams):
        grad = np.asarray(h.grad(x), dtype=float)
        hess = np.asarray(h.hess(x), dtype=float)
        if chart.flat:
            hcov = hess
            grad_norm_sq = np.einsum("...i,...i->...", grad, grad)
        else:
            hcov = hess - np.einsum("...kij,...k->...ij", gamma2, grad)
            grad_norm_sq = np.einsum("...i,...ij,...j->...", grad, g_inv, grad)
    root_det = None if chart.flat else np.sqrt(det)
    out = np.empty((len(lams), len(x)))
    for row, lam in zip(out, lams):
        coupled = hcov is not None and lam != 0.0
        aux = np.exp(-0.5 * lam**2 * grad_norm_sq) if coupled else 1.0
        if root_det is not None:
            aux = aux / root_det
        row[:] = aux * _berezin_top(riem, hcov if coupled else None, lam, n, len(x))
    return out


def _integrand_on_points(chart: ChartMetric, x, lams: Sequence[float], h) -> np.ndarray:
    """Integrand values at the N points of ``x``, one row per coupling of ``lams``, in order.

    ``x`` is a point array (N, n), evaluated in chunks of at most ``_SLAB``
    rows, or a ``QuadratureGrid``, evaluated in C-order slabs of at most
    ``_SLAB`` points, so its point array is never built.  Each value depends
    on its point alone, so the rows do not depend on the bound.  Refuses the
    first point of the first slab where any row is not finite;
    ``_integrated`` grades a refused run of several couplings again one at a
    time, for the order of its refusals.
    """
    if isinstance(x, QuadratureGrid):
        chunks = x.slabs(_SLAB)
    else:
        chunks = ((start, min(start + _SLAB, len(x)), x[start : start + _SLAB]) for start in range(0, len(x), _SLAB))
    out = np.empty((len(lams), len(x)))
    for start, stop, block in chunks:
        with np.errstate(all="ignore"):  # an overflow shows as a value refused below, not as a warning
            out[:, start:stop] = _integrand_chunk(chart, block, lams, h)
        refuse_first((~np.isfinite(out[:, start:stop])).any(axis=0), block, "integrand not finite at the grid point")
    return out


def _probe(spec: ManifoldSpec, h_name: str, count: int) -> np.ndarray:
    """The bump-width table mu^2 = (H g^-1 H)_kk, H the raw Hessian of h, at count^n vertices of the quadrature box."""
    chart = spec.quad_chart
    metric = chart.metric
    block = TensorBlock(np.ix_(*(np.linspace(lo, hi, count) for lo, hi in chart.quad_domain)))
    g_inv = np.eye(chart.dim) if metric.flat else _inverse_metric(metric.metric(block), block, metric.embedding is not None)[1]
    hess = np.asarray(spec.potential(h_name).on_chart(chart.name).hess(block), dtype=float)
    return np.einsum("...ki,...ki->...k", hess @ g_inv, hess).reshape((count,) * chart.dim + (chart.dim,))


def potential_stiffness(spec: ManifoldSpec, h_name: str | None) -> float:
    """Chart-coordinate steepness of the localization Gaussian.

    The reduced integrand carries exp(-lam^2 |grad h|^2_g / 2); near a zero
    of grad h the exponent is lam^2 (H dx)^T g^-1 (H dx) / 2 with H the raw
    Hessian, so along chart axis k the bump width is 1 / (lam * mu) with
    mu^2 = (H g^-1 H)_kk, the adaptive plan's own width.  Returns the sup
    of mu over the axes of a coarse ``_probe`` of the quadrature chart, the
    max of the factors' on a product that ``_splits`` (1.0 when there is no
    potential, so the plain 1/lambda width rule is recovered).
    """
    if spec.potential(h_name) is None:
        return 1.0
    names = _splits(spec, h_name)
    if names is not None:
        return max(potential_stiffness(f, name) for f, name in zip(spec.factors, names))
    with np.errstate(all="ignore"):  # an overflowing metric is refused by _inverse_metric or the integrand
        mu_sq = _probe(spec, h_name, _STIFFNESS_PROBE)
    return float(np.sqrt(np.max(mu_sq)))


def _bump_counts(spec: ManifoldSpec, lam: float, stiffness: float) -> list[float]:
    """Per-axis point counts that put 8 points across each bump width 1/(lam * stiffness)."""
    return [8 * abs(lam) * length * stiffness for length in spec.axis_lengths()]


def check_resolution(
    spec: ManifoldSpec, lam: float, resolution: Sequence[int], stiffness: float
) -> None:
    """Refuse grids with fewer than 4 points per localization-bump width, naming the adaptive count before any budget."""
    resolution = _axis_counts(spec, resolution)
    lam = abs(lam)  # the integrand is even in lambda
    if lam == 0 or stiffness <= 0:
        return
    needs = _bump_counts(spec, lam, stiffness)
    for axis, count in enumerate(resolution):
        if count < needs[axis] / 2:
            need = grid_count(needs[axis])
            if need <= MAX_AXIS_POINTS:
                hint = f"use at least {need} points on that axis"
            elif math.isfinite(need):
                hint = f"that axis needs {need} points, above the budget of {MAX_AXIS_POINTS} per axis"
            else:
                hint = f"the count that axis needs is not finite, above the budget of {MAX_AXIS_POINTS} per axis"
            width = 1.0 / (lam * stiffness)  # 0.0 where lam * stiffness overflows
            raise ResolutionError(
                f"resolution {resolution} under-resolves the localization bump of chart width "
                f"{f'{width:.3g}' if width else 'below 1e-308'} on an axis of length {spec.axis_lengths()[axis]:.3g} "
                f"(fewer than 4 points per width); {hint}"
            )


def adaptive_resolution(
    spec: ManifoldSpec, lam: float, base: Sequence[int], stiffness: float
) -> tuple[int, ...]:
    """Per-axis counts >= max(base, 8 * lambda * axis length * stiffness), refused above the point budget."""
    counts = [max(b, float(count)) for b, count in zip(base, _bump_counts(spec, lam, stiffness))]
    check_point_budget(counts)  # on the float counts: an infinite one has no integer
    return tuple(int(math.ceil(count)) for count in counts)


def partition_function(
    spec: ManifoldSpec,
    h_name: str | None,
    lam: float,
    resolution: Sequence[int],
    use_product_structure: bool = True,
) -> PartitionResult:
    """(2 pi)^(-n/2) times the quadrature sum of the partition integrand on the grid of ``resolution``."""
    plan = _sweep_plan(spec, h_name, resolution, use_product_structure, False)
    return next(_graded(plan, (lam,), potential_stiffness(spec, h_name) if lam else None))


def _splits(spec: ManifoldSpec, h_name: str | None, use_product_structure: bool = True) -> tuple | None:
    """The factors' potential names when the evaluation splits over a product, else None.

    On a product with h = h_1 + h_2 (or no potential) the evaluation is
    blockwise: with block metric and block curvature, the Berezin top
    coefficient, det g and the gradient Gaussian all split between the
    factors, so the full tensor-grid sum equals the product of factor sums.
    """
    potential = spec.potential(h_name)
    if use_product_structure and spec.factors is not None:
        if potential is None:
            return None, None
        return potential.factor_names
    return None


def _product(z1: PartitionResult, z2: PartitionResult) -> PartitionResult:
    """The product's Z from its factors' results, the bound propagated through the product."""
    bound = abs(z1.value) * z2.error_bound + abs(z2.value) * z1.error_bound + z1.error_bound * z2.error_bound
    return PartitionResult(z1.lam, z1.value * z2.value, z1.resolution + z2.resolution, bound)


# -- plans and graded composite rules --------------------------------------------


@dataclass(frozen=True)
class _SweepPlan:
    """A checked base resolution and what a sweep knows of the integrand before its first coupling.

    A plan that samples nothing keeps the base grid.  Otherwise the
    quadrature chart's axis k is cut into cells at ``edges[k]``; a cell's
    slab is the cell times every other axis.  Per cell, ``mu[k]`` is the
    square root of the sup of the diagonal entry (H g^-1 H)_kk over the
    sampled vertices of a coarser cell holding it, so the bump width along
    axis k there is 1 / (lam mu).  ``grad_sq[k]`` is a lower bound on
    |grad h|^2_g over each slab.  A plan over a product that splits holds
    one plan per factor instead.
    """

    spec: ManifoldSpec
    h_name: str | None
    base: tuple[int, ...]
    edges: tuple[np.ndarray, ...] = ()
    mu: tuple[np.ndarray, ...] = ()
    factors: tuple["_SweepPlan", "_SweepPlan"] | None = None

    @functools.cached_property
    def grad_sq(self) -> tuple[np.ndarray, ...]:
        """Per axis and cell, a closed-form lower bound on |grad h|^2_g over the slab (0 where none is known).

        |grad h|^2_g >= (d_k h)^2 / g_kk for every k (Cauchy-Schwarz).  At
        each vertex, |d_k h| less its Lipschitz margin, squared, over g_kk
        plus its own margin, bounds that ratio within a cell's half diagonal
        r; the margins' slopes are sums of the term bounds of the potential
        and of the embedding.  Sampled on first use: only a composite axis
        reads it.
        """
        chart = self.spec.quad_chart
        metric, n = chart.metric, chart.dim
        h = self.spec.potential(self.h_name).on_chart(chart.name)
        block = TensorBlock(np.ix_(*self.edges))
        radius = 0.5 * math.hypot(*(e[1] - e[0] for e in self.edges))
        with np.errstate(all="ignore"):  # a value that is not finite bounds nothing
            grad = np.asarray(h.grad(block), dtype=float)
            slope = np.full(n, math.inf) if h.embedding is None else np.sum(h.embedding.bound(2)[..., 0], axis=1)
            if metric.flat:
                g_diag, g_slope = 1.0, 0.0
            elif metric.embedding is not None:
                dx = metric.embedding.derivatives(block, [1])[0]
                g_diag = np.einsum("...ka,...ka->...k", dx, dx)
                # d_m g_kk = 2 d_k X . d_m d_k X
                g_slope = 2.0 * np.einsum("ka,mka->k", metric.embedding.bound(1), metric.embedding.bound(2))
            else:
                g_diag, g_slope = math.inf, 0.0
            ratio = np.fmax(np.abs(grad) - slope * radius, 0.0) ** 2 / (g_diag + g_slope * radius)
        lower = np.max(np.where(np.isnan(ratio), 0.0, ratio), axis=-1).reshape(tuple(map(len, self.edges)))
        return tuple(_slab_reduce(lower, k, np.minimum) for k in range(n))


def _slab_reduce(values: np.ndarray, k: int, reduce: np.ufunc) -> np.ndarray:
    """``reduce`` of vertex ``values`` (one axis per chart axis) over each cell slab along axis k: its two k-edges, every other vertex."""
    along = reduce.reduce(values, axis=tuple(a for a in range(values.ndim) if a != k))
    return reduce(along[:-1], along[1:])


def _axis_counts(spec: ManifoldSpec, resolution: Sequence[int]) -> tuple[int, ...]:
    """``resolution`` as ints, refused unless it has one integer count per axis of ``spec``."""
    counts = tuple(resolution)
    if not all(map(is_count, counts)):
        raise ValueError(f"resolution must hold integer counts, got {counts}")
    counts = tuple(map(int, counts))
    if len(counts) != spec.dim:
        raise ValueError(f"resolution needs {spec.dim} axis counts, got {counts}")
    return counts


def _sweep_plan(
    spec: ManifoldSpec, h_name: str | None, base: Sequence[int], use_product_structure: bool = True, sample: bool = True
) -> _SweepPlan:
    """Check ``base`` and split it over a product that ``_splits``; with ``sample``, sample the potential for a whole sweep."""
    if spec.dim % 2 != 0:
        raise ValueError(f"partition function needs even dimension, got {spec.dim}")
    base = _axis_counts(spec, base)
    names = _splits(spec, h_name, use_product_structure)
    if names is not None:
        f1, f2 = spec.factors
        f1_plan = _sweep_plan(f1, names[0], base[: f1.dim], True, sample)
        factors = (f1_plan, _sweep_plan(f2, names[1], base[f1.dim :], True, sample))
        return _SweepPlan(spec, h_name, base, factors=factors)
    if not sample or spec.potential(h_name) is None:
        return _SweepPlan(spec, h_name, base)
    chart = spec.quad_chart
    n = chart.dim
    coarse = int(_PLAN_VERTICES ** (1 / n) + 1e-9)
    cut = max(1, int((_EXCLUSION_VERTICES ** (1 / n) + 1e-9 - 1) // (coarse - 1)))
    with np.errstate(all="ignore"):  # a value that is not finite is refused by _inverse_metric or the integrand
        mu_sq = _probe(spec, h_name, coarse)
        mu = tuple(np.repeat(np.sqrt(_slab_reduce(mu_sq[..., k], k, np.maximum)), cut) for k in range(n))
    edges = tuple(np.linspace(lo, hi, cut * (coarse - 1) + 1) for lo, hi in chart.quad_domain)
    return _SweepPlan(spec, h_name, base, edges, mu)


def _composite(edges: np.ndarray, density: np.ndarray) -> CompositeRule:
    """Panels over runs of cells: a run closes when its densities spread by more than 2 or it would pass 64 nodes.

    A run takes its largest density; a cell that alone needs more than 64
    nodes is cut into equal panels.
    """
    panel_edges, counts = [float(edges[0])], []

    def close(start: int, stop: int, d: float) -> None:
        a, b = float(edges[start]), float(edges[stop])
        nodes = (b - a) * d
        parts = max(1, math.ceil(nodes / _PANEL_NODES))
        panel_edges.extend(np.linspace(a, b, parts + 1)[1:].tolist())
        counts.extend([max(1, math.ceil(nodes / parts))] * parts)

    start, low, high = 0, density[0], density[0]
    for j in range(1, len(density)):
        lo2, hi2 = min(low, density[j]), max(high, density[j])
        if hi2 <= 2 * lo2 and (edges[j + 1] - edges[start]) * hi2 <= _PANEL_NODES:
            low, high = lo2, hi2
        else:
            close(start, j, high)
            start, low, high = j, density[j], density[j]
    close(start, len(density), high)
    panel_edges[-1] = float(edges[-1])
    return CompositeRule(tuple(panel_edges), tuple(counts))


def _graded_rules(plan: _SweepPlan, lam: float) -> tuple[tuple[int | CompositeRule, ...], float]:
    """Per-axis rules at one coupling, and the measure of the excluded slabs whose density they lowered.

    A cell gets 8 nodes per local bump width 1 / (lam mu), or the base
    density where that is more or where lam^2 grad_sq / 2 exceeds the
    exclusion threshold.  An axis whose cells all keep the base density
    keeps the base count; one whose uniform count max(base, 8 lam length
    max mu) fits in one panel takes that count; any other axis is
    composite.  The counts are checked against the point budget as floats,
    before any panel is built.
    """
    lengths = plan.spec.axis_lengths()
    if not plan.edges or lam == 0:
        return plan.base, 0.0
    kinds, floats = [], []
    for k, (base, length) in enumerate(zip(plan.base, lengths)):
        base_density = base / length
        with np.errstate(all="ignore"):  # an overflowing count is refused by the budget below
            need = 8 * abs(lam) * plan.mu[k]
            uniform = max(base, float(8 * abs(lam) * length * np.fmax.reduce(plan.mu[k])))
            refined = need > base_density
            if np.any(refined) and uniform > _PANEL_NODES:
                excluded = 0.5 * (lam * lam) * plan.grad_sq[k] > _EXCLUDED
                refined &= ~excluded
        if not np.any(refined):
            kinds.append((base, None))
            floats.append(base)
        elif uniform <= _PANEL_NODES:
            kinds.append((math.ceil(uniform), None))
            floats.append(uniform)
        else:
            widths = np.diff(plan.edges[k])
            density = np.where(refined, need, base_density)
            kinds.append((density, float(np.sum(widths[excluded & (need > base_density)]))))
            floats.append(float(np.sum(density * widths)))
    check_point_budget(floats)  # on the float counts: an infinite one has no panels
    rules, excluded_measure = [], 0.0
    for k, (rule, lowered) in enumerate(kinds):
        if lowered is None:
            rules.append(rule)
            continue
        rules.append(_composite(plan.edges[k], rule))
        excluded_measure += lowered * float(np.prod(np.delete(lengths, k)))
    return tuple(rules), excluded_measure


def _graded(plan: _SweepPlan, lams: Sequence[float], stiffness: float | None = None) -> Iterator[PartitionResult]:
    """Z at each coupling of ``lams`` in order on the plan's grids; a split product's factors are graded on their own.

    Given a ``stiffness``, the base grid is checked at each coupling, on all
    its axes: a product's stiffness is the max of its factors'.  The
    excluded slabs keep the base density: their integrand is below e^-36
    times the rest of it, so 2 e^-36 times their measure joins the caps'
    measure in the error bound, both charged at the grid's sup of the
    integrand.

    Consecutive couplings whose rules (and excluded measure) agree form a
    run, integrated in one pass over its grid; a run is closed before it
    would hold more than ``MAX_GRID_POINTS`` values.  A refusal is raised
    where grading the couplings one at a time would raise it: the checks
    and rules stop at the first coupling they refuse, the runs before it are
    integrated first, and a refused run of several couplings is graded again
    one coupling at a time, so a product's factors, zipped coupling by
    coupling, also refuse in that order.
    """
    spec = plan.spec
    potential = spec.potential(plan.h_name)
    ruled, refusal = [], None
    for lam in lams:
        try:
            if stiffness is not None and potential is not None:
                check_resolution(spec, lam, plan.base, stiffness)
            ruled.append((lam, None if plan.factors is not None else _graded_rules(plan, lam)))
        except ValueError as error:
            refusal = error
            break
    if plan.factors is not None:
        checked = tuple(lam for lam, _ in ruled)
        yield from map(_product, *(_graded(factor, checked) for factor in plan.factors))
    else:
        chart = spec.quad_chart
        h = potential.on_chart(chart.name) if potential is not None else None
        run, key, grid = [], None, None
        for lam, graded in ruled:
            if run and graded == key and (len(run) + 1) * grid.size <= MAX_GRID_POINTS:
                run.append(lam)
                continue
            if run:
                yield from _integrated(spec, grid, tuple(run), h)
            run, key = [lam], graded
            rules, excluded = graded
            grid = quadrature_grid(spec, rules)
            if excluded:
                grid = dataclasses.replace(grid, excised_measure=grid.excised_measure + 2 * math.exp(-_EXCLUDED) * excluded)
        if run:
            yield from _integrated(spec, grid, tuple(run), h)
    if refusal is not None:
        raise refusal


def _integrated(spec: ManifoldSpec, grid: QuadratureGrid, lams: tuple[float, ...], h) -> Iterator[PartitionResult]:
    """Z at each coupling of a run on ``grid``, from one pass of the integrand."""
    try:
        values = _integrand_on_points(spec.quad_chart.metric, grid, lams, h)
    except ValueError:
        if len(lams) == 1:
            raise
        values = None
    if values is None:  # the results before the refused coupling come first
        for lam in lams:
            yield from _integrated(spec, grid, (lam,), h)
        return
    norm = (2 * math.pi) ** (-spec.dim / 2)
    for lam, row in zip(lams, values):
        raw, cap_bound = integrate_values(grid, row)
        yield PartitionResult(lam=lam, value=norm * raw, resolution=grid.shape, error_bound=norm * cap_bound)


def lambda_sweep(
    spec: ManifoldSpec,
    h_name: str | None,
    lams: Sequence[float],
    base_resolution: Sequence[int],
    adaptive: bool = True,
) -> SweepResult:
    """Partition function across couplings: on graded composite grids, or with ``adaptive`` off on the checked base grid."""
    if len(lams) == 0:
        raise ValueError("lambda_sweep needs at least one coupling")
    plan = _sweep_plan(spec, h_name, base_resolution, True, adaptive)
    stiffness = None if adaptive else potential_stiffness(spec, h_name)
    return SweepResult(tuple(_graded(plan, lams, stiffness)))


# -- localization diagnostics --------------------------------------------------


def local_index_contribution(cp, lam: float, radius: float | None = None) -> float:
    """Flat-model Gaussian value at one critical point.

    The full-space Gaussian of the linearized gradient integrates to
    sgn(det H) exactly; over an eigen-axis box of half-width ``radius`` the
    value is sgn(det H) * prod_i erf(lam |mu_i| radius / sqrt 2) -> sgn as
    lam -> infinity.
    """
    hessian = np.asarray(cp.hessian, dtype=float)
    det = float(np.linalg.det(hessian))
    if abs(det) <= TOL_MORSE:
        raise ValueError(f"degenerate Hessian (|det| = {abs(det):.3e} <= {TOL_MORSE:g}) has no localization limit")
    sign = 1.0 if det > 0 else -1.0
    if radius is None:
        return sign
    eigvals = np.linalg.eigvalsh(hessian)
    factor = 1.0
    for mu in eigvals:
        factor *= math.erf(lam * abs(mu) * radius / math.sqrt(2.0))
    return sign * factor


def localization_mass(
    spec: ManifoldSpec,
    h_name: str,
    lam: float,
    radius: float,
    resolution: Sequence[int],
) -> float:
    """Fraction of integrand mass within geodesic ``radius`` of the critical set.

    The resolution is checked as ``partition_function`` checks it: one count
    per axis, and at lambda != 0 enough points per localization-bump width.
    """
    potential = spec.potential(h_name)
    chart = spec.quad_chart
    dist_fn = potential.critical_distance.get(chart.name)
    if dist_fn is None:
        raise ValueError(
            f"no critical-set distance available for {spec.name}/{h_name} on {chart.name}"
        )
    plan = _sweep_plan(spec, h_name, resolution, False, False)
    if lam:
        check_resolution(spec, lam, plan.base, potential_stiffness(spec, h_name))
    grid = quadrature_grid(spec, plan.base)
    h = potential.on_chart(chart.name)
    values = np.abs(_integrand_on_points(chart.metric, grid, (lam,), h)[0]) * grid.weights
    dist = np.asarray(dist_fn(grid.points), dtype=float)
    total = pairwise_sum(values)
    inside = pairwise_sum(np.where(dist <= radius, values, 0.0))
    if total == 0.0:
        return 0.0
    return inside / total
