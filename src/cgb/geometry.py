"""Pointwise Riemannian data on coordinate charts.

A :class:`ChartMetric` bundles batched closed-form evaluators of the metric
g_ij(x) and its first and second derivatives on an axis-aligned box.  From
these jets we assemble, at a point,

* Christoffel symbols Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij)/2,
* the lowered curvature tensor R_iklm, in closed form from d2g and Gamma
  (do Carmo, *Riemannian Geometry*, ch. 4), normalized so the round unit
  sphere has R_{theta phi theta phi} = sin^2(theta),
* the covariant Hessian Hess(h)_ij = d_i d_j h - Gamma^k_ij d_k h,

packaged in an immutable :class:`CurvatureFrame`.  The frame is the
pointwise oracle.  The batched integrand gets the same tensors in one of two
ways: from the jets (``christoffel_tensors`` and ``riemann_tensor``), or, on
a chart whose metric is induced by its embedding X, from dX and d2X alone
through the Gauss equation (``induced_curvature``); on a chart declared
flat it needs none of them.  Every batched array is laid out points first:
leading batch axes, then index axes.

The frame also feeds two Grassmann-valued constructions on the 2n
generators phi_1^1, phi_2^1, ..., phi_1^n, phi_2^n (generator 2i is
phi_1^{i+1}, generator 2i+1 is phi_2^{i+1}):

* ``pair_biform(M)``    = sum_ij M_ij phi_1^i phi_2^j, and
* ``curvature_biform``  = the quartic curvature element, i.e. the
  evaluation of R on the odd tangent pairs.  Its overall sign is a single
  frozen constant, calibrated once so that the Euler density of the round
  sphere integrates to chi(S^2) = +2; with that normalization the Berezin
  projection of exp(-biform/2) recovers the Pfaffian density on every
  catalog manifold.  Both go through one accumulator over the table
  ``biform_monomials``, whose signs come from ``GrassmannElement.monomial``.
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
    """A point has the wrong shape or lies outside the chart domain."""


@dataclass(frozen=True)
class MetricJets:
    """Metric value and derivatives at one point.

    ``dg[k, i, j]`` is d_k g_ij and ``d2g[k, l, i, j]`` is d_k d_l g_ij.
    """

    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


# Tolerance of the domain test, for points rounded onto a box face.
DOMAIN_SLACK = 1e-12


class ChartMetric:
    """A coordinate chart with batched evaluators of g, dg and d2g.

    Each evaluator maps points of shape (..., dim) to the jet with the
    index axes last, as laid out in :class:`MetricJets`; a user-written one
    reads its batch (the integrand's is a ``manifolds.TensorBlock``) with
    ``np.asarray``.  Two structural attributes let the batched integrand
    skip the jets:

    * ``embedding`` is set when g is the metric induced by a
      ``TrigEmbedding`` X of the chart; the integrand then takes g,
      Christoffel symbols and curvature from dX and d2X
      (:func:`induced_curvature`).
    * ``flat`` promises that the jets are exactly (I, 0, 0) at every point:
      the integrand then evaluates no jet and no curvature, and takes
      g^-1 = I and det g = 1 as known.  The evaluators must still return
      those jets, for the pointwise frame.
    """

    def __init__(
        self,
        dim: int,
        domain: Sequence[Sequence[float]],
        metric: Callable[[np.ndarray], np.ndarray],
        d_metric: Callable[[np.ndarray], np.ndarray],
        d2_metric: Callable[[np.ndarray], np.ndarray],
        name: str = "chart",
        embedding=None,
        flat: bool = False,
    ):
        self.dim = dim
        self.domain = np.array(domain, dtype=float).reshape(dim, 2)
        if np.any(self.domain[:, 1] <= self.domain[:, 0]):
            raise ValueError("domain box must have positive extent on every axis")
        self.domain.flags.writeable = False  # the box below is computed from it once
        self._lo, self._hi = self.domain[:, 0] - DOMAIN_SLACK, self.domain[:, 1] + DOMAIN_SLACK
        self.metric = metric
        self.d_metric = d_metric
        self.d2_metric = d2_metric
        self.name = name
        self.embedding = embedding
        self.flat = flat

    def contains(self, x) -> np.ndarray:
        """Mask over the leading axes of ``x``: which points lie in the domain box."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self._lo) & (x <= self._hi), axis=-1)

    def jets(self, x) -> MetricJets:
        """g, dg and d2g at one point of the domain."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(f"point has shape {x.shape}, chart dimension is {self.dim}")
        if not self.contains(x):
            raise DomainError(f"point {x} outside chart domain {self.domain.tolist()}")
        return MetricJets(*(np.asarray(f(x), dtype=float) for f in (self.metric, self.d_metric, self.d2_metric)))


# -- tensors from jets -------------------------------------------------------


def christoffel_tensors(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2, laid out [..., k, i, j]; accepts leading batch axes."""
    first = 0.5 * (
        np.einsum("...ikj->...ijk", dg)
        + np.einsum("...jki->...ijk", dg)
        - np.einsum("...kij->...ijk", dg)
    )
    return np.einsum("...kl,...ijl->...kij", g_inv, first)


def riemann_tensor(g: np.ndarray, d2g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Lowered curvature tensor R_iklm from g, d2g and Gamma^k_ij; accepts leading batch axes.

    R_iklm = (d_k d_l g_im + d_i d_m g_kl - d_k d_m g_il - d_i d_l g_km) / 2
             + g_np (Gamma^n_kl Gamma^p_im - Gamma^n_km Gamma^p_il)

    (do Carmo, *Riemannian Geometry*, ch. 4).  Sign convention: R_ijij > 0 on
    positively curved surfaces; the round unit sphere has
    R_{theta phi theta phi} = sin^2 theta.
    """
    n = g.shape[-1]
    flat = gamma.reshape(gamma.shape[:-2] + (n * n,))  # [..., p, (kl)] = Gamma^p_kl
    lowered = g @ flat  # g_pn Gamma^n_kl
    # g_np Gamma^n_kl Gamma^p_im at [..., i, k, l, m]; the Gamma^n_km Gamma^p_il term is its (l, m) transpose
    quad = np.einsum("...imkl->...iklm", (np.swapaxes(flat, -1, -2) @ lowered).reshape(d2g.shape))
    second = 0.5 * (
        np.einsum("...klim->...iklm", d2g)
        + np.einsum("...imkl->...iklm", d2g)
        - np.einsum("...kmil->...iklm", d2g)
        - np.einsum("...ilkm->...iklm", d2g)
    )
    return second + (quad - np.swapaxes(quad, -1, -2))


def induced_curvature(dx: np.ndarray, d2x: np.ndarray, g_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma^k_ij and R_ijkl of the metric g_ij = X_i.X_j induced by an embedding X.

    ``dx[..., i, a]`` is d_i X^a and ``d2x[..., i, j, a]`` is d_i d_j X^a, points
    first; ``g_inv`` is the inverse of g.  With Gamma^m_ij = g^mp X_p.X_ij and
    the normal part N_ij = X_ij - X_m Gamma^m_ij of the second derivatives,
    the Gauss equation gives R_ijkl = N_ik.N_jl - N_il.N_jk (do Carmo,
    *Riemannian Geometry*, ch. 6), in the sign convention of
    :func:`riemann_tensor`.  Needs no third derivatives of X.  Returns
    Gamma^k_ij laid out [..., k, i, j] as in :func:`christoffel_tensors`.
    """
    n = dx.shape[-2]
    batch = dx.shape[:-2]
    flat2 = d2x.reshape(batch + (n * n, d2x.shape[-1]))  # rows (ij)
    gamma = (flat2 @ np.ascontiguousarray(np.swapaxes(dx, -1, -2))) @ g_inv  # [..., (ij), m] = Gamma^m_ij
    normal = flat2 - gamma @ dx
    gram = normal @ np.ascontiguousarray(np.swapaxes(normal, -1, -2))  # [..., (ik), (jl)] = N_ik.N_jl
    q = gram.reshape(batch + (n,) * 4)  # q[..., i, k, j, l]
    riem = np.swapaxes(q - np.swapaxes(q, -3, -1), -3, -2)  # N_ik.N_jl - N_il.N_jk at [..., i, j, k, l]
    return np.moveaxis(gamma.reshape(batch + (n,) * 3), -1, -3), riem


@dataclass(frozen=True)
class CurvatureFrame:
    """Immutable pointwise package of metric, Christoffel, and curvature."""

    x: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float
    gamma_second: np.ndarray
    riemann: np.ndarray

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
        g_inv = np.linalg.inv(g)
        gamma = christoffel_tensors(g_inv, jets.dg)
        return cls(
            x=np.asarray(x, dtype=float),
            g=g,
            g_inv=g_inv,
            det_g=det_g,
            gamma_second=gamma,
            riemann=riemann_tensor(g, jets.d2g, gamma),
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


# -- scalar fields -----------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on a chart with analytic first and second derivatives.

    A user-written evaluator reads its batch with ``np.asarray``, as on :class:`ChartMetric`.
    ``embedding`` is set when the field is a one-component ``TrigEmbedding``,
    whose terms bound its derivatives in closed form.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    embedding: object = None

    def __call__(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))


def covariant_hessian(frame: CurvatureFrame, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Hess(h)_ij = d_i d_j h - Gamma^k_ij d_k h at the frame point."""
    return hess - np.einsum("kij,k->ij", frame.gamma_second, grad)


# -- Grassmann biforms -------------------------------------------------------
#
# Generator layout on 2n symbols: phi_1^{i+1} -> 2i, phi_2^{i+1} -> 2i + 1.


@functools.lru_cache(maxsize=None)
def biform_monomials(n: int) -> tuple[tuple, tuple]:
    """Generator monomials of the biforms on 2n generators, with their signs.

    Returns ``(pairs, quartics)``: ``pairs`` lists ``((i, j), mask, sign)``
    for phi_1^i phi_2^j, and ``quartics`` lists ``((i, j, k, l), mask, sign)``
    for phi_1^i phi_2^j phi_1^k phi_2^l with i != k and j != l (the other
    quartics vanish).  ``mask`` is the generator bitmask of the product and
    ``sign`` the sign of sorting it; several index tuples share one mask.
    """

    def entry(index: tuple[int, ...]) -> tuple:
        gens = [2 * a + pos % 2 for pos, a in enumerate(index)]  # factors alternate phi_1, phi_2
        ((mask, sign),) = GrassmannElement.monomial(2 * n, gens).terms.items()
        return index, mask, sign

    pairs = tuple(entry((i, j)) for i in range(n) for j in range(n))
    quartics = tuple(
        entry((i, j, k, l))
        for i in range(n)
        for k in range(n)
        if k != i
        for j in range(n)
        for l in range(n)
        if l != j
    )
    return pairs, quartics


def _biform(n: int, monomials: tuple, tensor: np.ndarray, scale: float) -> GrassmannElement:
    """scale * sum of tensor[index] times the signed monomial, over ``monomials`` from :func:`biform_monomials`.

    ``item`` reads each entry as a plain float, the same value with cheaper arithmetic.
    """
    terms: dict[int, float] = {}
    for index, mask, sign in monomials:
        c = tensor.item(index)
        if c != 0.0:
            terms[mask] = terms.get(mask, 0.0) + scale * sign * c
    return GrassmannElement(2 * n, terms)


def pair_biform(matrix: np.ndarray) -> GrassmannElement:
    """sum_ij M_ij phi_1^i phi_2^j as a Grassmann element on 2n generators."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    return _biform(n, biform_monomials(n)[0], m, 1.0)


def curvature_biform(frame: CurvatureFrame) -> GrassmannElement:
    """Quartic curvature element: R evaluated on the odd tangent pairs.

    Returns the calibrated multiple of
    sum_ijkl R_ijkl phi_1^i phi_2^j phi_1^k phi_2^l; the frozen overall sign
    makes exp(-biform/2) Berezin-project to the positive Pfaffian density
    (chi(S^2) = +2 golden test).
    """
    return _biform(frame.dim, biform_monomials(frame.dim)[1], frame.riemann, CURVATURE_BIFORM_SIGN)
