"""Shared fixtures: catalog manifolds, built once per session, and a broken efts contraction."""

import numpy as np
import pytest

from cgb import efts, manifolds
from cgb.geometry import ChartMetric, ScalarField


@pytest.fixture(scope="session")
def s2():
    return manifolds.sphere(1.0)


@pytest.fixture(scope="session")
def s2_radius2():
    return manifolds.sphere(2.0)


@pytest.fixture(scope="session")
def ellipsoid():
    return manifolds.ellipsoid(1.0, 1.2, 0.8)


@pytest.fixture(scope="session")
def torus():
    return manifolds.torus(2.0, 1.0)


@pytest.fixture(scope="session")
def flat_t2():
    return manifolds.flat_torus()


@pytest.fixture(scope="session")
def s2xs2():
    return manifolds.product_of_spheres()


@pytest.fixture(scope="session")
def s2_perturbed():
    return manifolds.sphere_conformal(1.0, 0.3)


@pytest.fixture(scope="session")
def full_catalog(s2, ellipsoid, torus, flat_t2, s2xs2):
    return [s2, ellipsoid, torus, flat_t2, s2xs2]


@pytest.fixture(scope="session")
def degenerate_patch():
    """A flat unit square whose potential 'pinch' has a degenerate critical point.

    h = u'^2 v' (primed = centered): Newton converges to the critical point
    while det Hess = -4 u'^2 collapses below tolerance.
    """
    chart = ChartMetric(
        2,
        [[0.0, 1.0], [0.0, 1.0]],
        lambda x: np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2)).copy(),
        lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2)),
        lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2, 2)),
        name="flat",
    )

    def grad(x):
        u, v = x[..., 0] - 0.5, x[..., 1] - 0.5
        return np.stack([2 * u * v, u**2], axis=-1)

    def hess(x):
        u, v = x[..., 0] - 0.5, x[..., 1] - 0.5
        row0 = np.stack([2 * v, 2 * u], axis=-1)
        row1 = np.stack([2 * u, np.zeros_like(u)], axis=-1)
        return np.stack([row0, row1], axis=-2)

    h = ScalarField(lambda x: (x[..., 0] - 0.5) ** 2 * (x[..., 1] - 0.5), grad, hess)
    return manifolds.ManifoldSpec(
        name="degenerate_patch",
        dim=2,
        charts={
            "flat": manifolds.Chart(
                metric=chart,
                embed=lambda x: np.asarray(x, dtype=float),
                quad_domain=np.array([[0.0, 1.0], [0.0, 1.0]]),
            )
        },
        euler_char=1,
        morse_catalog={"pinch": manifolds.MorseFunction(fields={"flat": h})},
    )


@pytest.fixture
def doubled_iw(monkeypatch):
    """``efts.apply_Iw`` scaled by 2: a broken contraction that the Cartan check and the concordance witness check must refuse."""
    contract = efts.apply_Iw
    monkeypatch.setattr(efts, "apply_Iw", lambda w, p: contract(w, p).scale(2))
