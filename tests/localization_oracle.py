"""Localization diagnostics of the partition integrand: the oracles of criterion 7.

As lambda grows the integrand of Z concentrates on the critical points of
h, and near each one it is the flat Gaussian of the linearized gradient,
whose integral is the sign of det Hess.  These helpers measure both
claims with the library's own integrand and quadrature; the library itself
plans its grids with ``lambda_sweep`` and judges degeneracy in ``morse``.

* ``uniform_resolution``: per-axis counts putting 8 points across each bump
  width 1 / (lambda * stiffness), the uniform reference for graded sweeps;
* ``localization_mass``: the share of |integrand| mass within ``radius`` of
  the critical set, with the distance to that set supplied by the caller;
* ``distance_to_poles``: that distance for the height on the round sphere;
* ``local_index``: the flat-model Gaussian over an eigen-axis box.
"""

from __future__ import annotations

import math

import numpy as np

from cgb.manifolds import check_point_budget, pairwise_sum, quadrature_grid
from cgb.sigma import _integrand_on_points, check_resolution, potential_stiffness


def uniform_resolution(spec, lam: float, base, stiffness: float) -> tuple[int, ...]:
    """Per-axis counts >= max(base, 8 * lambda * axis length * stiffness), refused above the point budget."""
    counts = [max(b, float(8 * abs(lam) * length * stiffness)) for b, length in zip(base, spec.axis_lengths())]
    check_point_budget(counts)  # on the float counts: an infinite one has no integer
    return tuple(int(math.ceil(count)) for count in counts)


def localization_mass(spec, h_name: str, lam: float, radius: float, resolution, distance) -> float:
    """Fraction of |integrand| mass on the grid where ``distance(points)`` is at most ``radius``.

    At lambda != 0 the grid is checked as ``partition_function`` checks it.
    """
    if lam:
        check_resolution(spec, lam, resolution, potential_stiffness(spec, h_name))
    chart = spec.quad_chart
    grid = quadrature_grid(spec, resolution)
    h = spec.potential(h_name).on_chart(chart.name)
    values = np.abs(_integrand_on_points(chart.metric, grid, (lam,), h)[0]) * grid.weights
    dist = np.asarray(distance(grid.points), dtype=float)
    total = pairwise_sum(values)
    inside = pairwise_sum(np.where(dist <= radius, values, 0.0))
    if total == 0.0:
        return 0.0
    return inside / total


def distance_to_poles(radius: float):
    """Geodesic distance to the nearer pole of the round sphere, on polar-chart points."""

    def distance(points):
        th = np.asarray(points, dtype=float)[..., 0]
        return radius * np.minimum(th, math.pi - th)

    return distance


def local_index(hessian, lam: float, radius: float) -> float:
    """sgn(det H) * prod_i erf(lam |mu_i| radius / sqrt 2), mu_i the eigenvalues of a nondegenerate H."""
    hessian = np.asarray(hessian, dtype=float)
    sign = 1.0 if float(np.linalg.det(hessian)) > 0 else -1.0
    factor = 1.0
    for mu in np.linalg.eigvalsh(hessian):
        factor *= math.erf(lam * abs(mu) * radius / math.sqrt(2.0))
    return sign * factor
