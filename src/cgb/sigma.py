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
that relates the raw expansion to curvature.

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

It runs over the quadrature grid in C-order slabs of at most
max(4096, 2^18 / n^2) points, each a ``TensorBlock`` handed to every
evaluator as it is; the grid's point array is never built.  Values are
computed point by point into one length-N array, which the fixed pairwise
sum reduces with the grid weights, so Z does not depend on the slab shape.

Sign bookkeeping: the quartic curvature element carries a single frozen
calibration sign (see ``geometry.curvature_biform``); the action couples
to it through ``ACTION_CURVATURE_COUPLING`` so that both computation
routes and both integral limits reproduce chi on the golden catalog.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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
    ManifoldSpec,
    QuadratureGrid,
    TensorBlock,
    check_point_budget,
    grid_count,
    integrate_values,
    pairwise_sum,
    quadrature_grid,
    refuse_first,
    MAX_AXIS_POINTS,
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


def _add_scaled(acc: dict, element: GrassmannElement, scale: float) -> None:
    """acc += scale * element, one coefficient at a time."""
    for mask, c in element.terms.items():
        prev = acc.get(mask)
        acc[mask] = scale * c if prev is None else prev + scale * c


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

    Every term is added into one term map in the order written, which gives
    each coefficient the same float additions as summing the elements.
    """
    n = jets.g.shape[0]
    N = 2 * n
    gamma2 = christoffel_tensors(np.linalg.inv(jets.g), jets.dg)
    g, dg, d2g = jets.g.tolist(), jets.dg.tolist(), jets.d2g.tolist()
    F = np.asarray(cf.F, dtype=float).tolist()
    phi1, phi2, quartics = _coordinate_generators(n)
    phi2_phi1 = _coordinate_pairs(n)

    E = [GrassmannElement.scalar(N, F[k]) - pair_biform(gamma2[k]) for k in range(n)]
    phi1_E = [[multiply(phi1[k], E[i]) for i in range(n)] for k in range(n)]
    E_phi1 = [[multiply(E[k], phi1[i]) for i in range(n)] for k in range(n)]

    acc: dict[int, float] = {}
    for i in range(n):
        for j in range(n):
            _add_scaled(acc, multiply(E[i], E[j]), g[i][j])
            for k in range(n):
                c = dg[k][i][j]
                if c != 0.0:
                    _add_scaled(acc, multiply(phi1_E[k][i], phi2[j]), c)
                    _add_scaled(acc, multiply(phi2_phi1[k][i], E[j]), -c)
                    _add_scaled(acc, multiply(E_phi1[k][i], phi2[j]), -c)
                for l in range(n):
                    c2 = d2g[k][l][i][j]
                    if c2 != 0.0:
                        _add_scaled(acc, quartics[k, l, i, j], c2)
    acc = {mask: 0.5 * c for mask, c in acc.items()}

    if cf.lam != 0.0:
        grad, hess = cf.potential_jets(n)
        pot: dict[int, float] = {}
        for k, dh in enumerate(grad.tolist()):
            if dh != 0.0:
                _add_scaled(pot, E[k], dh)
        _add_scaled(pot, pair_biform(hess), 1.0)
        _add_scaled(acc, GrassmannElement(N, pot), -cf.lam)
    return GrassmannElement(N, acc)


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
        raise ValueError(f"partition integrand vanishes identically in odd dimension {n}")
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


_CHUNK = 1 << 18
_STIFFNESS_PROBE = 17  # points per axis of the stiffness probe grid


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


def _integrand_chunk(chart: ChartMetric, x, lam: float, h) -> np.ndarray:
    """One chunk of integrand values: vectorized tensors, then Berezin tops.

    ``x`` is a point array (P, n) or a ``TensorBlock`` of P points, handed
    to every evaluator as it is.  Three routes, by what the chart declares.
    Induced: every tensor comes from one pass of embedding derivatives
    (``induced_curvature``).  Flat: the exact jets (I, 0, 0) skip the
    curvature, the inverse and the determinant, and no jet is evaluated.
    Jets: Christoffel symbols and curvature from the metric jets.
    """
    n = chart.dim
    riem = None
    if chart.embedding is not None:
        dx, d2x = chart.embedding.derivatives(x, [1, 2])
        det, g_inv = _inverse_metric(dx @ np.swapaxes(dx, -1, -2), x, gram=True)
        gamma2, riem = induced_curvature(dx, d2x, g_inv)
    elif not chart.flat:
        g = np.asarray(chart.metric(x), dtype=float)
        det, g_inv = _inverse_metric(g, x, gram=False)
        gamma2 = christoffel_tensors(g_inv, np.asarray(chart.d_metric(x), dtype=float))
        riem = riemann_tensor(g, np.asarray(chart.d2_metric(x), dtype=float), gamma2)

    hcov = None
    aux = 1.0
    if h is not None and lam != 0.0:
        grad = np.asarray(h.grad(x), dtype=float)
        hess = np.asarray(h.hess(x), dtype=float)
        if chart.flat:
            hcov = hess
            grad_norm_sq = np.einsum("...i,...i->...", grad, grad)
        else:
            hcov = hess - np.einsum("...kij,...k->...ij", gamma2, grad)
            grad_norm_sq = np.einsum("...i,...ij,...j->...", grad, g_inv, grad)
        aux = np.exp(-0.5 * lam**2 * grad_norm_sq)
    if not chart.flat:
        aux = aux / np.sqrt(det)
    return aux * _berezin_top(riem, hcov, lam, n, len(x))


def _integrand_on_points(chart: ChartMetric, x, lam: float, h) -> np.ndarray:
    """Integrand values at the N points of ``x``, in order; refuses the first point whose value is not finite.

    ``x`` is a point array (N, n), evaluated in chunks of rows, or a
    ``QuadratureGrid``, evaluated in C-order slabs of the same bound, so its
    point array is never built.
    """
    chunk = max(4096, _CHUNK // chart.dim**2)  # bound the d2g scratch tensors
    if isinstance(x, QuadratureGrid):
        chunks = x.slabs(chunk)
    else:
        chunks = ((start, min(start + chunk, len(x)), x[start : start + chunk]) for start in range(0, len(x), chunk))
    out = np.empty(len(x))
    for start, stop, block in chunks:
        with np.errstate(all="ignore"):  # an overflow shows as a value refused below, not as a warning
            out[start:stop] = _integrand_chunk(chart, block, lam, h)
        refuse_first(~np.isfinite(out[start:stop]), block, "integrand not finite at the grid point")
    return out


def potential_stiffness(spec: ManifoldSpec, h_name: str | None) -> float:
    """Chart-coordinate steepness of the localization Gaussian.

    The reduced integrand carries exp(-lam^2 |grad h|^2_g / 2); near a zero
    of grad h the exponent is lam^2 (H dx)^T g^-1 (H dx) / 2 with H the raw
    Hessian, so the bump width along chart axes is 1 / (lam * mu) with
    mu^2 = lambda_max(H g^-1 H).  Returns the sup of mu over a coarse probe
    grid of the quadrature chart (1.0 when there is no potential, so the
    plain 1/lambda width rule is recovered).
    """
    potential = spec.potential(h_name)
    if potential is None:
        return 1.0
    if spec.factors is not None and potential.factor_names is not None:
        return max(potential_stiffness(f, name) for f, name in zip(spec.factors, potential.factor_names))
    chart = spec.quad_chart
    h = potential.on_chart(chart.name)
    probe = TensorBlock(np.ix_(*(np.linspace(lo, hi, _STIFFNESS_PROBE) for lo, hi in chart.quad_domain)))
    gram = chart.metric.embedding is not None
    with np.errstate(all="ignore"):  # an overflowing metric is refused by _inverse_metric or the integrand
        g_inv = np.eye(chart.dim) if chart.metric.flat else _inverse_metric(chart.metric.metric(probe), probe, gram)[1]
        hess = np.asarray(h.hess(probe), dtype=float)
        form = np.einsum("...ij,...jk,...kl->...il", hess, g_inv, hess)
        mu_sq = np.linalg.eigvalsh(form)[..., -1]
    return float(np.sqrt(np.max(mu_sq)))


def _bump_counts(spec: ManifoldSpec, lam: float, stiffness: float) -> list[float]:
    """Per-axis point counts that put 8 points across each bump width 1/(lam * stiffness)."""
    return [8 * abs(lam) * length * stiffness for length in spec.axis_lengths()]


def check_resolution(
    spec: ManifoldSpec, lam: float, resolution: Sequence[int], stiffness: float
) -> None:
    """Refuse grids with fewer than 4 points per localization-bump width, naming the adaptive count before any budget."""
    if lam <= 0 or stiffness <= 0:
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
                f"resolution {tuple(resolution)} under-resolves the localization bump of chart width "
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
    """(2 pi)^(-n/2) times the quadrature sum of the partition integrand."""
    return _partition(spec, h_name, lam, resolution, use_product_structure, None)


def _partition(
    spec: ManifoldSpec,
    h_name: str | None,
    lam: float,
    resolution: Sequence[int],
    use_product_structure: bool,
    stiffness: float | None,
) -> PartitionResult:
    """``partition_function``, given the potential's stiffness or None to compute it when it is needed.

    On a product with h = h_1 + h_2 (or no potential) the evaluation is
    blockwise: with block metric and block curvature, the Berezin top
    coefficient, det g and the gradient Gaussian all split between the
    factors, so the full tensor-grid sum equals the product of factor sums.
    ``stiffness`` is then the product's, the max of the factors': the
    product's resolution check over the same axes already implies each
    factor's.
    """
    if spec.dim % 2 != 0:
        raise ValueError(f"partition function needs even dimension, got {spec.dim}")
    resolution = tuple(int(r) for r in resolution)
    potential = spec.potential(h_name)
    if lam > 0 and potential is not None:
        if stiffness is None:
            stiffness = potential_stiffness(spec, h_name)
        check_resolution(spec, lam, resolution, stiffness)

    if (
        use_product_structure
        and spec.factors is not None
        and (potential is None or potential.factor_names is not None)
    ):
        f1, f2 = spec.factors
        h1, h2 = (None, None) if potential is None else potential.factor_names
        z1 = _partition(f1, h1, lam, resolution[: f1.dim], True, stiffness)
        z2 = _partition(f2, h2, lam, resolution[f1.dim :], True, stiffness)
        value = z1.value * z2.value
        bound = abs(z1.value) * z2.error_bound + abs(z2.value) * z1.error_bound + z1.error_bound * z2.error_bound
    else:
        grid = quadrature_grid(spec, resolution)
        chart = spec.quad_chart
        h = potential.on_chart(chart.name) if potential is not None else None
        values = _integrand_on_points(chart.metric, grid, lam, h)
        raw, cap_bound = integrate_values(grid, values)
        norm = (2 * math.pi) ** (-spec.dim / 2)
        value = norm * raw
        bound = norm * cap_bound
    return PartitionResult(
        lam=lam,
        value=value,
        resolution=resolution,
        error_bound=bound,
    )


def lambda_sweep(
    spec: ManifoldSpec,
    h_name: str | None,
    lams: Sequence[float],
    base_resolution: Sequence[int],
    adaptive: bool = True,
) -> SweepResult:
    """Partition function across couplings with per-coupling adaptive grids."""
    stiffness = potential_stiffness(spec, h_name)
    results = []
    for lam in lams:
        res = (
            adaptive_resolution(spec, lam, base_resolution, stiffness)
            if adaptive
            else tuple(base_resolution)
        )
        results.append(_partition(spec, h_name, lam, res, True, stiffness))
    return SweepResult(tuple(results))


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
    """Fraction of integrand mass within geodesic ``radius`` of the critical set."""
    potential = spec.potential(h_name)
    chart = spec.quad_chart
    dist_fn = potential.critical_distance.get(chart.name)
    if dist_fn is None:
        raise ValueError(
            f"no critical-set distance available for {spec.name}/{h_name} on {chart.name}"
        )
    grid = quadrature_grid(spec, resolution)
    h = potential.on_chart(chart.name)
    values = np.abs(_integrand_on_points(chart.metric, grid, lam, h)) * grid.weights
    dist = np.asarray(dist_fn(grid.points), dtype=float)
    total = pairwise_sum(values)
    inside = pairwise_sum(np.where(dist <= radius, values, 0.0))
    if total == 0.0:
        return 0.0
    return inside / total
