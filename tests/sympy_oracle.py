"""Symbolic metric jets: the sympy oracle for the closed-form numpy jets.

``chart_from_metric_exprs`` differentiates a symbolic metric, simplifies it
and lambdifies every tensor entry; ``chart_from_embedding`` pulls back the
Euclidean metric through a symbolic embedding first.  The library derives
its jets without sympy; tests compare the two and use these charts where a
metric is easiest to state symbolically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import sympy as sp

from cgb.geometry import ChartMetric


class _TensorEvaluator:
    """Vectorized evaluator for a fixed-shape tensor of sympy expressions."""

    def __init__(self, coords: Sequence[sp.Symbol], exprs: np.ndarray):
        self.shape = exprs.shape
        flat = [sp.lambdify(coords, e, modules="numpy") for e in exprs.ravel()]
        self._flat = flat
        self._n = len(coords)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        cols = [pts[:, k] for k in range(self._n)]
        batch = pts.shape[0]
        vals = [np.broadcast_to(np.asarray(f(*cols), dtype=float), (batch,)) for f in self._flat]
        out = np.stack(vals, axis=-1).reshape(batch, *self.shape)
        return out[0] if single else out


def chart_from_metric_exprs(
    name: str,
    coords: Sequence[sp.Symbol],
    g_exprs: sp.Matrix,
    domain: Sequence[Sequence[float]],
) -> ChartMetric:
    """Build a chart with analytic metric jets from a symbolic metric."""
    n = len(coords)
    g = np.array([[sp.expand_trig(sp.simplify(g_exprs[i, j])) for j in range(n)] for i in range(n)], dtype=object)
    dg = np.array(
        [[[sp.diff(g[i, j], coords[k]) for j in range(n)] for i in range(n)] for k in range(n)],
        dtype=object,
    )
    d2g = np.array(
        [
            [[[sp.diff(dg[l, i, j], coords[k]) for j in range(n)] for i in range(n)] for l in range(n)]
            for k in range(n)
        ],
        dtype=object,
    )
    return ChartMetric(
        dim=n,
        domain=domain,
        metric=_TensorEvaluator(coords, g),
        d_metric=_TensorEvaluator(coords, dg),
        d2_metric=_TensorEvaluator(coords, d2g),
        name=name,
    )


def chart_from_embedding(
    name: str,
    coords: Sequence[sp.Symbol],
    embedding: Sequence[sp.Expr],
    domain: Sequence[Sequence[float]],
) -> ChartMetric:
    """Chart whose metric is the pullback of the Euclidean ambient metric."""
    jac = sp.Matrix([[sp.diff(comp, c) for c in coords] for comp in embedding])
    g = sp.Matrix(jac.T * jac)
    return chart_from_metric_exprs(name, coords, g, domain)
