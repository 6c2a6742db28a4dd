"""The coordinate action multiplied out element by element: the oracle for the compiled plan.

``multiply_path_action`` is the five-term expansion of
``sigma.action_coordinate`` written with ``grassmann.multiply`` on float
elements, one product per term and sample, each added into one term map
in the order written.  The library runs the same products once per
dimension on labelled coefficients and keeps only their float arithmetic;
tests compare the two term maps bit for bit.
"""

from __future__ import annotations

import numpy as np

from cgb.geometry import MetricJets, christoffel_tensors, pair_biform
from cgb.grassmann import GrassmannElement, multiply
from cgb.sigma import ComponentField, _coordinate_generators, _coordinate_pairs


def _add_scaled(acc: dict, element: GrassmannElement, scale: float) -> None:
    """acc += scale * element, one coefficient at a time."""
    for mask, c in element.terms.items():
        prev = acc.get(mask)
        acc[mask] = scale * c if prev is None else prev + scale * c


def multiply_path_action(jets: MetricJets, cf: ComponentField) -> GrassmannElement:
    """``action_coordinate`` by multiplying the elements out for this sample."""
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
