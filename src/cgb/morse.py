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

from .manifolds import Chart, ManifoldSpec, tensor_points

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
    """Damped Newton on grad h for all seeds at once; returns converged points."""
    x = np.array(seeds, dtype=float)
    grad = np.asarray(h.grad(x), dtype=float)
    gnorm = np.linalg.norm(grad, axis=-1)
    active = np.ones(len(x), dtype=bool)
    for _ in range(MAX_NEWTON_STEPS):
        active &= gnorm >= TOL_GRAD
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        hess = np.asarray(h.hess(x[idx]), dtype=float)
        dets = np.linalg.det(hess)
        solvable = np.abs(dets) > 1e-300
        active[idx[~solvable]] = False
        idx = idx[solvable]
        if idx.size == 0:
            break
        steps = np.linalg.solve(hess[solvable], -grad[idx][..., None])[..., 0]
        # damped update: shrink the step until the gradient norm decreases
        t = np.ones(idx.size)
        pending = np.arange(idx.size)
        improved = np.zeros(idx.size, dtype=bool)
        for _ in range(40):
            if pending.size == 0:
                break
            rows = idx[pending]
            cand, valid = _wrap_batch(chart, x[rows] + t[pending, None] * steps[pending])
            cg = np.zeros_like(cand)
            if valid.any():  # off-chart rows are rejected without evaluating h there
                cg[valid] = np.asarray(h.grad(cand[valid]), dtype=float)
            cn = np.where(valid, np.linalg.norm(cg, axis=-1), np.inf)
            good = cn < gnorm[rows]
            took = rows[good]
            x[took] = cand[good]
            grad[took] = cg[good]
            gnorm[took] = cn[good]
            improved[pending[good]] = True
            pending = pending[~good]
            t[pending] *= 0.5
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
        for x in _newton_batch(chart, h, _seeds(chart, seed_density)):
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
