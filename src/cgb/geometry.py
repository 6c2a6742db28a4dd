"""Pointwise Riemannian data on coordinate charts.

A :class:`ChartMetric` bundles a metric evaluator g_ij(x) on an axis-aligned
box with either analytic derivative evaluators or central finite
differences.  From its jets we assemble, at a point,

* Christoffel symbols, first kind Gamma_ijk = (d_i g_kj + d_j g_ki
  - d_k g_ij)/2 (symmetric in i, j; k is the form slot) and second kind
  Gamma^k_ij = g^{kl} Gamma_ijl,
* the lowered curvature tensor R_ijkl, normalized so the round unit
  sphere has R_{theta phi theta phi} = sin^2(theta),
* the covariant Hessian Hess(h)_ij = d_i d_j h - Gamma^k_ij d_k h,

packaged in an immutable :class:`CurvatureFrame`.

The frame also feeds two Grassmann-valued constructions on the 2n
generators phi_1^1, phi_2^1, ..., phi_1^n, phi_2^n (generator 2i is
phi_1^{i+1}, generator 2i+1 is phi_2^{i+1}):

* ``pair_biform(M)``    = sum_ij M_ij phi_1^i phi_2^j, and
* ``curvature_biform``  = the quartic curvature element, i.e. the
  evaluation of R on the odd tangent pairs.  Its overall sign is a single
  frozen constant, calibrated once so that the Euler density of the round
  sphere integrates to chi(S^2) = +2; with that normalization the Berezin
  projection of exp(-biform/2) recovers the Pfaffian density on every
  catalog manifold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grassmann import GrassmannElement

# Calibrated evaluation sign of the curvature tensor on odd tangent vectors,
# frozen by the chi(S^2) = +2 golden test and used unchanged everywhere.
CURVATURE_BIFORM_SIGN = -1.0


class DomainError(ValueError):
    """A point (or finite-difference stencil) left the chart domain."""


@dataclass(frozen=True)
class MetricJets:
    """Metric value and derivatives at one point.

    ``dg[k, i, j]`` is d_k g_ij and ``d2g[k, l, i, j]`` is d_k d_l g_ij.
    ``one_sided`` flags that some finite-difference stencil had to shrink
    to a one-sided form at the domain boundary.
    """

    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    one_sided: bool = False


class ChartMetric:
    """A coordinate chart with metric evaluator and derivative access."""

    def __init__(
        self,
        dim: int,
        domain: Sequence[Sequence[float]],
        metric: Callable[[np.ndarray], np.ndarray],
        d_metric: Callable[[np.ndarray], np.ndarray] | None = None,
        d2_metric: Callable[[np.ndarray], np.ndarray] | None = None,
        fd_step: float | None = None,
        name: str = "chart",
    ):
        self.dim = dim
        self.domain = np.asarray(domain, dtype=float).reshape(dim, 2)
        if np.any(self.domain[:, 1] <= self.domain[:, 0]):
            raise ValueError("domain box must have positive extent on every axis")
        self.metric = metric
        self.d_metric = d_metric
        self.d2_metric = d2_metric
        scale = float(np.max(self.domain[:, 1] - self.domain[:, 0]))
        self.fd_step = fd_step if fd_step is not None else 1e-5 * scale
        self.name = name

    def contains(self, x: np.ndarray, slack: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.domain[:, 0] - slack) and np.all(x <= self.domain[:, 1] + slack)
        )

    def _require_inside(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(f"point has shape {x.shape}, chart dimension is {self.dim}")
        if not self.contains(x):
            raise DomainError(f"point {x} outside chart domain {self.domain.tolist()}")
        return x

    def metric_at(self, x) -> np.ndarray:
        x = self._require_inside(x)
        g = np.asarray(self.metric(x), dtype=float)
        return g

    # -- derivatives --------------------------------------------------------

    def jets(self, x) -> MetricJets:
        x = self._require_inside(x)
        g = self.metric_at(x)
        if self.d_metric is not None and self.d2_metric is not None:
            dg = np.asarray(self.d_metric(x), dtype=float)
            d2g = np.asarray(self.d2_metric(x), dtype=float)
            return MetricJets(g, dg, d2g, one_sided=False)
        dg, flag1 = self._fd_first(x)
        d2g, flag2 = self._fd_second(x)
        return MetricJets(g, dg, d2g, one_sided=flag1 or flag2)

    def _axis_mode(self, x: np.ndarray, k: int, h: float) -> int:
        # +1: forward one-sided, -1: backward one-sided, 0: centered
        lo, hi = self.domain[k]
        if x[k] - h < lo:
            return 1
        if x[k] + h > hi:
            return -1
        return 0

    def _fd_axis(self, f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
        h = self.fd_step
        mode = self._axis_mode(x, k, h)
        e = np.zeros(self.dim)
        e[k] = 1.0
        if mode == 0:
            return (f(x + h * e) - f(x - h * e)) / (2 * h), False
        s = float(mode)
        # second-order one-sided stencil pointing into the domain
        val = (-3 * f(x) + 4 * f(x + s * h * e) - f(x + 2 * s * h * e)) / (2 * s * h)
        return val, True

    def _fd_first(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        if self.d_metric is not None:
            return np.asarray(self.d_metric(x), dtype=float), False
        n = self.dim
        out = np.empty((n, n, n))
        flagged = False
        for k in range(n):
            val, flag = self._fd_axis(self.metric_at, x, k)
            out[k] = val
            flagged = flagged or flag
        return out, flagged

    def _fd_second(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        # differentiate the (analytic or FD) first-derivative field once more
        n = self.dim
        out = np.empty((n, n, n, n))
        flagged = False

        def first(y: np.ndarray) -> np.ndarray:
            nonlocal flagged
            val, flag = self._fd_first(y)
            flagged = flagged or flag
            return val

        for k in range(n):
            val, flag = self._fd_axis(first, x, k)
            out[k] = val
            flagged = flagged or flag
        # symmetrize the derivative pair; mixed stencils commute only to O(h^2)
        out = 0.5 * (out + out.transpose(1, 0, 2, 3))
        return out, flagged


# -- tensors from jets -------------------------------------------------------


def christoffel_tensors(g_inv: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-kind Christoffel symbols from g^-1 and dg; accepts leading batch axes."""
    # Gamma_ijk = (d_i g_kj + d_j g_ki - d_k g_ij) / 2, stored [..., i, j, k]
    first = 0.5 * (
        np.einsum("...ikj->...ijk", dg)
        + np.einsum("...jki->...ijk", dg)
        - np.einsum("...kij->...ijk", dg)
    )
    second = np.einsum("...kl,...ijl->...kij", g_inv, first)
    return first, second


def riemann_tensor(g, g_inv, dg, d2g, gamma_first, gamma_second) -> np.ndarray:
    """Lowered curvature tensor R_ijkl; accepts leading batch axes.

    Sign convention: R_ijij > 0 on positively curved surfaces; the round
    unit sphere has R_{theta phi theta phi} = sin^2 theta.
    """
    # lowered-index first kind with form slot leading: G1[p, l, j] = Gamma_ljp
    g1 = np.einsum("...ljp->...plj", gamma_first)
    # d_k Gamma_{p, lj} from second derivatives of g
    dg1 = 0.5 * (
        np.einsum("...klpj->...kplj", d2g)
        + np.einsum("...kjpl->...kplj", d2g)
        - np.einsum("...kplj->...kplj", d2g)
    )
    d_ginv = -np.einsum("...ma,...kab,...bp->...kmp", g_inv, dg, g_inv)
    # d_k Gamma^m_{lj}
    dgamma2 = np.einsum("...kmp,...plj->...kmlj", d_ginv, g1) + np.einsum(
        "...mp,...kplj->...kmlj", g_inv, dg1
    )
    g2 = gamma_second
    rup = (
        np.einsum("...kmlj->...mjkl", dgamma2)
        - np.einsum("...lmkj->...mjkl", dgamma2)
        + np.einsum("...mkp,...plj->...mjkl", g2, g2)
        - np.einsum("...mlp,...pkj->...mjkl", g2, g2)
    )
    return np.einsum("...im,...mjkl->...ijkl", g, rup)


def curvature(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g^-1, Gamma first kind, Gamma second kind, R_ijkl), inverting g once."""
    g_inv = np.linalg.inv(g)
    first, second = christoffel_tensors(g_inv, dg)
    return g_inv, first, second, riemann_tensor(g, g_inv, dg, d2g, first, second)


def christoffel(chart: ChartMetric, x) -> tuple[np.ndarray, np.ndarray]:
    jets = chart.jets(x)
    return christoffel_tensors(np.linalg.inv(jets.g), jets.dg)


def riemann(chart: ChartMetric, x) -> np.ndarray:
    jets = chart.jets(x)
    return curvature(jets.g, jets.dg, jets.d2g)[3]


@dataclass(frozen=True)
class CurvatureFrame:
    """Immutable pointwise package of metric, Christoffel, and curvature."""

    x: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float
    gamma_first: np.ndarray
    gamma_second: np.ndarray
    riemann: np.ndarray
    one_sided: bool = False

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @classmethod
    def from_jets(cls, x, jets: MetricJets) -> "CurvatureFrame":
        g = jets.g
        scale = max(1.0, float(np.max(np.abs(g))))
        if float(np.max(np.abs(g - g.T))) > 1e-12 * scale:
            raise ValueError(f"metric is not symmetric at {x}")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError(f"metric is not positive definite at {x}") from None
        det_g = float(np.linalg.det(g))
        g_inv, first, second, riem = curvature(g, jets.dg, jets.d2g)
        return cls(
            x=np.asarray(x, dtype=float),
            g=g,
            g_inv=g_inv,
            det_g=det_g,
            gamma_first=first,
            gamma_second=second,
            riemann=riem,
            one_sided=jets.one_sided,
        )

    @classmethod
    def from_chart(cls, chart: ChartMetric, x) -> "CurvatureFrame":
        return cls.from_jets(x, chart.jets(x))

    def symmetry_residuals(self) -> dict[str, float]:
        """Max-norm violations of the curvature symmetries and first Bianchi."""
        r = self.riemann
        return {
            "antisym_first_pair": float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
            "antisym_second_pair": float(np.max(np.abs(r + r.transpose(0, 1, 3, 2)))),
            "pair_swap": float(np.max(np.abs(r - r.transpose(2, 3, 0, 1)))),
            "first_bianchi": float(
                np.max(np.abs(r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)))
            ),
        }

    def validate(self, tol_sym: float = 1e-6) -> "CurvatureFrame":
        worst = max(self.symmetry_residuals().values())
        if worst > tol_sym:
            raise ValueError(f"curvature symmetry residual {worst:.3e} exceeds {tol_sym:.1e}")
        return self


# -- scalar fields -----------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on a chart with analytic first and second derivatives."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))


def covariant_hessian(frame: CurvatureFrame, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Hess(h)_ij = d_i d_j h - Gamma^k_ij d_k h at the frame point."""
    return hess - np.einsum("kij,k->ij", frame.gamma_second, grad)


def hessian_form(chart: ChartMetric, h: ScalarField, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    frame = CurvatureFrame.from_chart(chart, x)
    return covariant_hessian(frame, np.asarray(h.grad(x), dtype=float), np.asarray(h.hess(x), dtype=float))


def gradient_norm_sq(chart: ChartMetric, h: ScalarField, x) -> float:
    x = np.asarray(x, dtype=float)
    g_inv = np.linalg.inv(chart.metric_at(x))
    grad = np.asarray(h.grad(x), dtype=float)
    return float(grad @ g_inv @ grad)


# -- Grassmann biforms -------------------------------------------------------
#
# Generator layout on 2n symbols: phi_1^{i+1} -> 2i, phi_2^{i+1} -> 2i + 1.


def _monomial_mask_sign(indices: tuple[int, ...]) -> tuple[int, int]:
    """Bitmask and sorting sign of a product of distinct generators; (0, 0) if repeated."""
    mask = 0
    swaps = 0
    for idx in indices:
        bit = 1 << idx
        if mask & bit:
            return 0, 0
        swaps += (mask >> (idx + 1)).bit_count()
        mask |= bit
    return mask, (-1 if swaps & 1 else 1)


@functools.lru_cache(maxsize=None)
def biform_monomials(n: int) -> tuple[tuple, tuple]:
    """Generator monomials of the biforms on 2n generators, with their signs.

    Returns ``(pairs, quartics)``: ``pairs`` lists ``((i, j), mask, sign)``
    for phi_1^i phi_2^j, and ``quartics`` lists ``((i, j, k, l), mask, sign)``
    for phi_1^i phi_2^j phi_1^k phi_2^l with i != k and j != l (the other
    quartics vanish).  ``mask`` is the generator bitmask of the product and
    ``sign`` the sign of sorting it; several index tuples share one mask.
    """
    pairs = tuple(
        ((i, j), *_monomial_mask_sign((2 * i, 2 * j + 1))) for i in range(n) for j in range(n)
    )
    quartics = tuple(
        ((i, j, k, l), *_monomial_mask_sign((2 * i, 2 * j + 1, 2 * k, 2 * l + 1)))
        for i in range(n)
        for k in range(n)
        if k != i
        for j in range(n)
        for l in range(n)
        if l != j
    )
    return pairs, quartics


def pair_biform(matrix: np.ndarray) -> GrassmannElement:
    """sum_ij M_ij phi_1^i phi_2^j as a Grassmann element on 2n generators."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    terms: dict[int, float] = {}
    for index, mask, sign in biform_monomials(n)[0]:
        c = m[index]
        if c != 0.0:
            terms[mask] = terms.get(mask, 0.0) + sign * c
    return GrassmannElement(2 * n, terms)


def curvature_biform(frame: CurvatureFrame) -> GrassmannElement:
    """Quartic curvature element: R evaluated on the odd tangent pairs.

    Returns the calibrated multiple of
    sum_ijkl R_ijkl phi_1^i phi_2^j phi_1^k phi_2^l; the frozen overall sign
    makes exp(-biform/2) Berezin-project to the positive Pfaffian density
    (chi(S^2) = +2 golden test).
    """
    r = frame.riemann
    terms: dict[int, float] = {}
    for index, mask, sign in biform_monomials(frame.dim)[1]:
        c = r[index]
        if c == 0.0:
            continue
        acc = terms.get(mask, 0.0) + CURVATURE_BIFORM_SIGN * sign * c
        if acc == 0.0:
            terms.pop(mask, None)
        else:
            terms[mask] = acc
    return GrassmannElement(2 * frame.dim, terms)
