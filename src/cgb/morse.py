"""Critical points of potentials and the Hopf index.

Zeros of grad h are located by damped Newton iteration on the gradient in
chart coordinates (the zero set and the Hessian signs there are
metric-independent), started from a uniform seed grid on every chart that
carries the potential.  Charts overlap so that critical points sitting in
the excised polar caps of a quadrature chart are interior points of a
rotated companion chart.  Converged points are deduplicated by distance in
the manifold's ambient embedding and validated: the gradient norm must be
below ``TOL_GRAD`` and |det Hess| above ``TOL_MORSE`` -- a converged
degenerate point means the potential is not Morse and raises.

The Hopf index is the sum of sgn(det Hess h) over the critical points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifolds import Chart, ManifoldSpec, refuse_first, tensor_points

TOL_GRAD = 1e-10
TOL_MORSE = 1e-8
R_DEDUP_FACTOR = 1e-4
MAX_NEWTON_STEPS = 50


class DegenerateCriticalPointError(ValueError):
    """A converged critical point has |det Hess| below tolerance."""


@dataclass(frozen=True)
class CriticalPoint:
    """A located zero of grad h with its Hessian data."""

    chart: str
    coords: np.ndarray
    gradient_norm: float
    hessian: np.ndarray
    det_hess: float
    sign: int
    embedded: np.ndarray
    value: float


def _wrap_batch(chart: Chart, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wrap periodic axes into the domain; return (points, validity mask)."""
    dom = chart.metric.domain
    out = np.array(pts, dtype=float)
    periods = chart.periods or (None,) * chart.dim
    for k, period in enumerate(periods):
        if period is not None:
            out[:, k] = dom[k, 0] + np.mod(out[:, k] - dom[k, 0], period)
    return out, chart.metric.contains(out)


def _newton_batch(chart: Chart, h, seeds: np.ndarray) -> np.ndarray:
    """Damped Newton on grad h for all seeds at once; returns converged points.

    Each step takes, per seed, the first of t = 1, 1/2, ..., 2^-39 whose
    candidate x + t * step lies in the chart and lowers the gradient norm.
    The full step is tried for every seed; for the seeds it does not improve,
    the first in-domain halving is found by bisection (the in-domain
    halvings are a suffix), and h is evaluated only at each seed's next
    in-domain halving, built when it is tried.  Refuses a seed
    whose gradient norm, or a Newton point whose Hessian determinant, is not
    finite.  A candidate whose gradient is not finite is only rejected: a
    shorter step is tried.
    """
    x = np.array(seeds, dtype=float)
    grad = np.asarray(h.grad(x), dtype=float)
    gnorm = np.linalg.norm(grad, axis=-1)
    refuse_first(~np.isfinite(gnorm), x, f"gradient norm not finite on chart {chart.name!r} at the seed point")

    def accept(rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Move each of ``rows`` to its candidate where that lowers the gradient norm; returns that mask."""
        if rows.size == 0:
            return np.zeros(0, dtype=bool)
        cg = np.asarray(h.grad(cand), dtype=float)
        cn = np.linalg.norm(cg, axis=-1)
        good = cn < gnorm[rows]
        took = rows[good]
        x[took] = cand[good]
        grad[took] = cg[good]
        gnorm[took] = cn[good]
        return good

    halvings = np.ldexp(1.0, -np.arange(1, 40))  # t = 2^-k exactly, k = 1..39
    active = np.ones(len(x), dtype=bool)
    for _ in range(MAX_NEWTON_STEPS):
        active &= gnorm >= TOL_GRAD
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        hess = np.asarray(h.hess(x[idx]), dtype=float)
        dets = np.linalg.det(hess)
        refuse_first(~np.isfinite(dets), x[idx], f"Hessian determinant not finite on chart {chart.name!r} at the point")
        solvable = np.abs(dets) > 1e-300
        active[idx[~solvable]] = False
        idx = idx[solvable]
        if idx.size == 0:
            break
        steps = np.linalg.solve(hess[solvable], -grad[idx][..., None])[..., 0]
        # off-chart candidates are rejected without evaluating h there
        cand, valid = _wrap_batch(chart, x[idx] + steps)
        improved = np.zeros(idx.size, dtype=bool)
        improved[valid] = accept(idx[valid], cand[valid])
        pending = np.flatnonzero(~improved)
        if pending.size == 0:
            continue
        rows = idx[pending]

        def candidates(live: np.ndarray, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _wrap_batch(chart, x[rows[live]] + halvings[level][:, None] * steps[pending[live]])

        # a row's in-domain halvings are a suffix k >= k0 (x is in the box, a shorter step stays between
        # x and a longer one, a wrapped axis is always in it): bisect for k0, ``last`` where there is none
        last = len(halvings)
        lo, hi = np.zeros(rows.size, dtype=int), np.full(rows.size, last)
        searching = np.arange(rows.size)
        while searching.size:
            mid = (lo[searching] + hi[searching]) // 2
            inside = candidates(searching, mid)[1]
            hi[searching[inside]] = mid[inside]
            lo[searching[~inside]] = mid[~inside] + 1
            searching = searching[lo[searching] < hi[searching]]
        k = lo
        live = np.flatnonzero(k < last)
        while live.size:
            good = accept(rows[live], candidates(live, k[live])[0])
            improved[pending[live[good]]] = True
            live = live[~good]
            k[live] += 1
            live = live[k[live] < last]
        active[idx[~improved]] = False
    return x[gnorm < TOL_GRAD]


def _seeds(chart: Chart, density: int) -> np.ndarray:
    axes = []
    for lo, hi in chart.metric.domain:
        pad = 0.5 * (hi - lo) / density
        axes.append(np.linspace(lo + pad, hi - pad, density))
    return tensor_points(axes)


def find_critical_points(
    spec: ManifoldSpec, h_name: str, seed_density: int = 8
) -> list[CriticalPoint]:
    """All zeros of grad h, deduplicated across charts, with Hessian data."""
    if not isinstance(seed_density, int) or seed_density < 1:
        raise ValueError(f"seed density must be a positive integer, got {seed_density!r}")
    potential = spec.potential(h_name)
    if potential is None:
        raise KeyError(f"manifold {spec.name} needs a named potential, got {h_name!r}")
    r_dedup = R_DEDUP_FACTOR * spec.domain_scale()
    found: list[CriticalPoint] = []
    for chart_name, chart in spec.charts.items():
        h = potential.fields.get(chart_name)
        if h is None:
            continue
        with np.errstate(all="ignore"):  # an overflow shows as a value _newton_batch refuses, not as a warning
            roots = _newton_batch(chart, h, _seeds(chart, seed_density))
        for x in roots:
            embedded = np.asarray(chart.embed(x), dtype=float)
            if any(np.linalg.norm(embedded - cp.embedded) < r_dedup for cp in found):
                continue
            hess = np.asarray(h.hess(x), dtype=float)
            det = float(np.linalg.det(hess))
            if abs(det) <= TOL_MORSE:
                raise DegenerateCriticalPointError(
                    f"critical point of {h_name!r} at {x.tolist()} on chart {chart_name!r} "
                    f"has |det Hess| = {abs(det):.3e} <= {TOL_MORSE:g}; "
                    "the potential is not Morse there"
                )
            found.append(
                CriticalPoint(
                    chart=chart_name,
                    coords=x,
                    gradient_norm=float(np.linalg.norm(h.grad(x))),
                    hessian=hess,
                    det_hess=det,
                    sign=1 if det > 0 else -1,
                    embedded=embedded,
                    value=float(h.value(x)),
                )
            )
    return found


def hopf_index(spec: ManifoldSpec, h_name: str, seed_density: int = 8) -> int:
    """Sum of Hessian-determinant signs over the critical points of h."""
    return sum(cp.sign for cp in find_critical_points(spec, h_name, seed_density))
