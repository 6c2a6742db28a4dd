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

Each Newton step's line search is one ladder of step lengths t = 2^-k,
k = 0..39, whose rung 0 is the full step: a seed takes the first rung that
stays in its chart and lowers |grad h|.  A seed stops once its iterate
leaves the chart's declared box on an axis without a period for the slack
band ``ChartMetric.box`` adds: a root beyond the face is an interior point
of the companion chart, and the seed is kept only if it has already
converged.  A seed grid of more than ``MAX_GRID_POINTS`` points is refused
before it is built.

The Hopf index is the sum of sgn(det Hess h) over the critical points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifolds import MAX_GRID_POINTS, Chart, ManifoldSpec, is_count, refuse_first, tensor_points

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


def _wrap_batch(chart: Chart, pts: np.ndarray) -> np.ndarray:
    """Wrap periodic axes into the domain."""
    dom = chart.metric.domain
    out = np.array(pts, dtype=float)
    for k, period in enumerate(chart.periods or (None,) * chart.dim):
        if period is not None:
            out[:, k] = dom[k, 0] + np.mod(out[:, k] - dom[k, 0], period)
    return out


def _newton_batch(chart: Chart, h, seeds: np.ndarray) -> np.ndarray:
    """Damped Newton on grad h for all seeds at once; returns converged points.

    Each step takes, per seed, the first rung of one ladder t = 2^-k,
    k = 0..39, whose candidate x + t * step lies in the chart and lowers the
    gradient norm; rung 0 is the full step.  One walk up from rung 0 finds
    each seed's first in-chart rung, testing only the unwrapped axes against
    ``chart.metric.box``; one accept loop walks on from there, wrapping and
    evaluating h at each seed's next rung only.  A seed whose accepted
    iterate lies outside ``chart.metric.domain`` on an unwrapped axis (in
    the slack band) stops there, as one that takes no rung does, and is
    returned only if it has converged.  Refuses a seed whose gradient norm,
    or a Newton point whose Hessian determinant, is not finite; a candidate
    whose gradient is not finite is only rejected.
    """
    x = np.array(seeds, dtype=float)
    grad = np.asarray(h.grad(x), dtype=float)
    gnorm = np.linalg.norm(grad, axis=-1)
    refuse_first(~np.isfinite(gnorm), x, f"gradient norm not finite on chart {chart.name!r} at the seed point")

    ladder = np.ldexp(1.0, -np.arange(40))  # t = 2^-k exactly, k = 0..39
    last = len(ladder)
    free = [a for a, period in enumerate(chart.periods or (None,) * chart.dim) if period is None]  # unwrapped axes
    face, box = chart.metric.domain[free], chart.metric.box[free]  # their declared and their slack-widened faces
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

        # in-chart rungs form a suffix (x is in the box, fl(x + 2^-k s) is monotone in k, periods fill their axes)
        xs, ss = x[idx][:, free], steps[:, free]
        k, searching = np.full(idx.size, last), np.flatnonzero(np.isfinite(steps).all(axis=1))
        for rung, t in enumerate(ladder):  # every row still searching is at this rung
            cand = xs[searching] + t * ss[searching]
            inside = np.all((cand >= box[:, 0]) & (cand <= box[:, 1]), axis=1)
            k[searching[inside]] = rung
            searching = searching[~inside]
            if not searching.size:
                break
        live = np.flatnonzero(k < last)  # a row keeps the rung it accepts; one that accepts none ends at ``last``
        while live.size:
            rows, cand = idx[live], _wrap_batch(chart, x[idx[live]] + ladder[k[live], None] * steps[live])
            cg = np.asarray(h.grad(cand), dtype=float)
            cn = np.linalg.norm(cg, axis=-1)
            good = cn < gnorm[rows]
            took = rows[good]
            x[took], grad[took], gnorm[took] = cand[good], cg[good], cn[good]
            live = live[~good]
            k[live] += 1
            live = live[k[live] < last]
        # a row whose iterate has left the declared box for the slack band stops there, as one that took no rung
        xs = x[idx][:, free]
        active[idx[(k == last) | ((xs < face[:, 0]) | (xs > face[:, 1])).any(axis=1)]] = False
    return x[gnorm < TOL_GRAD]


def _seeds(chart: Chart, density: int) -> np.ndarray:
    """``density`` cell-centred seeds per axis of the chart's box; more than ``MAX_GRID_POINTS`` are refused unbuilt."""
    count = int(density) ** chart.dim  # a numpy integer's power would wrap
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"seed grid on chart {chart.name!r} has {density}^{chart.dim} = {count} points, "
            f"above the budget of {MAX_GRID_POINTS}"
        )
    lo, hi = chart.metric.domain.T
    pad = 0.5 * (hi - lo) / density
    return tensor_points(list(np.linspace(lo + pad, hi - pad, density, axis=-1)))


def find_critical_points(
    spec: ManifoldSpec, h_name: str, seed_density: int = 8
) -> list[CriticalPoint]:
    """All zeros of grad h, deduplicated across charts, with Hessian data."""
    if not is_count(seed_density) or seed_density < 1:
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
        for x, embedded in zip(roots, np.asarray(chart.embed(roots), dtype=float)):
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
