"""Critical points and Hopf indices across the catalog."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cgb.geometry import ScalarField
from cgb.manifolds import ManifoldSpec, MorseFunction, get_manifold
from cgb.morse import (
    DegenerateCriticalPointError,
    MAX_NEWTON_STEPS,
    TOL_GRAD,
    TOL_MORSE,
    _newton_batch,
    _seeds,
    _wrap_batch,
    find_critical_points,
    hopf_index,
)


def serial_newton(chart, h, seeds):
    """Damped Newton whose line search tries one halving at a time for every pending seed: ``_newton_batch``'s oracle."""
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
        solvable = np.abs(np.linalg.det(hess)) > 1e-300
        active[idx[~solvable]] = False
        idx = idx[solvable]
        if idx.size == 0:
            break
        steps = np.linalg.solve(hess[solvable], -grad[idx][..., None])[..., 0]
        t = np.ones(idx.size)
        pending = np.arange(idx.size)
        improved = np.zeros(idx.size, dtype=bool)
        for _ in range(40):
            if pending.size == 0:
                break
            rows = idx[pending]
            cand, valid = _wrap_batch(chart, x[rows] + t[pending, None] * steps[pending])
            cg = np.zeros_like(cand)
            if valid.any():
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


class TestCriticalPoints:
    def test_sphere_height_two_poles(self, s2):
        points = find_critical_points(s2, "height")
        assert len(points) == 2
        assert sorted(cp.sign for cp in points) == [1, 1]
        # the poles: embedded z = +-1
        assert sorted(round(cp.embedded[2], 9) for cp in points) == [-1.0, 1.0]
        assert all(cp.gradient_norm < TOL_GRAD for cp in points)
        assert all(abs(cp.det_hess) > TOL_MORSE for cp in points)

    def test_torus_height_classical_picture(self, torus):
        points = find_critical_points(torus, "height")
        assert len(points) == 4
        # sort by height value: min, saddle, saddle, max with signs +,-,-,+
        by_value = sorted(points, key=lambda cp: cp.value)
        assert [cp.sign for cp in by_value] == [1, -1, -1, 1]
        assert [round(cp.value, 9) for cp in by_value] == [-3.0, -1.0, 1.0, 3.0]

    def test_flat_torus_closed_form_hessians(self, flat_t2):
        tau = 2 * math.pi
        points = find_critical_points(flat_t2, "coscos")
        assert len(points) == 4
        for cp in points:
            u, v = cp.coords
            expected = np.diag([-tau**2 * math.cos(tau * u), -tau**2 * math.cos(tau * v)])
            assert np.allclose(cp.hessian, expected, atol=1e-9)
        assert sorted(cp.sign for cp in points) == [-1, -1, 1, 1]

    def test_product_signs_multiply_blockwise(self, s2xs2):
        points = find_critical_points(s2xs2, "height_sum", seed_density=6)
        assert len(points) == 4
        for cp in points:
            h = cp.hessian
            assert np.allclose(h[:2, 2:], 0) and np.allclose(h[2:, :2], 0)
            block_product = np.linalg.det(h[:2, :2]) * np.linalg.det(h[2:, 2:])
            assert cp.det_hess == pytest.approx(block_product, rel=1e-9)
        assert [cp.sign for cp in points] == [1, 1, 1, 1]

    def test_gradient_evaluated_inside_the_chart_only(self, s2):
        # the line search rejects candidates off the chart, so it must not evaluate h there
        seen = {}

        def recording(chart_name, f):
            def grad(x):
                seen.setdefault(chart_name, []).append(np.array(x, dtype=float).reshape(-1, 2))
                return f.grad(x)

            return ScalarField(f.value, grad, f.hess)

        height = s2.morse_catalog["height"]
        fields = {name: recording(name, f) for name, f in height.fields.items()}
        spec = replace(s2, morse_catalog={"height": replace(height, fields=fields)})
        assert len(find_critical_points(spec, "height")) == 2
        assert set(seen) == {"polar", "rotated"}
        for chart_name, batches in seen.items():
            pts = np.concatenate(batches)
            dom = s2.charts[chart_name].metric.domain
            assert np.all((pts >= dom[:, 0] - 1e-12) & (pts <= dom[:, 1] + 1e-12)), chart_name

    def test_seed_density_stability(self, full_catalog):
        for spec in full_catalog:
            for name in spec.morse_catalog:
                base_density = 4 if spec.dim == 4 else 8
                coarse = find_critical_points(spec, name, base_density)
                fine = find_critical_points(spec, name, 2 * base_density)
                key = lambda cps: sorted(tuple(np.round(cp.embedded, 6)) for cp in cps)
                assert key(coarse) == key(fine)

    def test_degenerate_point_raises(self, degenerate_patch):
        with pytest.raises(DegenerateCriticalPointError):
            find_critical_points(degenerate_patch, "pinch")

    def test_non_finite_gradient_norm_refused_at_the_seed(self):
        # the gradient is finite at radius 1e200, its norm is not
        spec = get_manifold("s2", radius=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^gradient norm not finite on chart 'polar' at the seed point \("):
                find_critical_points(spec, "height")

    def test_non_finite_hessian_determinant_refused_at_the_point(self, s2):
        # a finite gradient and an overflowing Hessian: the polar chart's det Hess is 0 (h depends on
        # theta alone), so the first chart with a determinant to overflow is the rotated one
        height = s2.morse_catalog["height"]
        fields = {
            name: ScalarField(f.value, f.grad, lambda x, f=f: 1e200 * np.asarray(f.hess(x), dtype=float))
            for name, f in height.fields.items()
        }
        spec = replace(s2, morse_catalog={"height": replace(height, fields=fields)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^Hessian determinant not finite on chart 'rotated' at the point \("):
                find_critical_points(spec, "height")


def test_line_search_builds_no_more_candidates_than_seeds(monkeypatch):
    # the halvings are built level by level for the rows that need them, not 39 per pending seed
    from cgb import morse

    rows = []
    wrap = morse._wrap_batch
    monkeypatch.setattr(morse, "_wrap_batch", lambda chart, pts: rows.append(len(pts)) or wrap(chart, pts))
    find_critical_points(get_manifold("s2xs2"), "height_sum", 8)
    assert rows and max(rows) <= 8**4


@pytest.mark.parametrize("name", ["s2", "ellipsoid", "torus", "flat_t2", "s2xs2", "s2_perturbed"])
def test_newton_batch_matches_the_serial_line_search(name):
    # every chart that carries the potential, its roots in the same order to the bit
    spec = get_manifold(name)
    potential = next(iter(spec.morse_catalog.values()))
    densities = (3, 4, 5) if spec.dim == 4 else (3, 4, 5, 6, 7, 8, 12, 16)
    for chart_name, chart in spec.charts.items():
        h = potential.fields[chart_name]
        for density in densities:
            seeds = _seeds(chart, density)
            with np.errstate(all="ignore"):
                got, want = _newton_batch(chart, h, seeds), serial_newton(chart, h, seeds)
            assert got.tobytes() == want.tobytes(), (chart_name, density)


class TestHopfIndex:
    def test_matches_euler_characteristic(self, full_catalog):
        for spec in full_catalog:
            for name in spec.morse_catalog:
                density = 5 if spec.dim == 4 else 8
                assert hopf_index(spec, name, density) == spec.euler_char, (spec.name, name)

    def test_metric_independence(self, s2, s2_perturbed):
        # the zero set of grad h and the Hessian signs there never see the metric:
        # the same height under a non-constant conformal factor
        assert hopf_index(s2_perturbed, "height") == hopf_index(s2, "height") == 2

    def test_negated_potential_same_index(self, s2, torus, flat_t2):
        # in even dimensions sgn det(-H) = sgn det(H)
        for spec, name in ((s2, "height"), (torus, "height"), (flat_t2, "coscos")):
            base = spec.morse_catalog[name]
            negated = MorseFunction(
                fields={
                    chart: ScalarField(
                        lambda x, f=f: -f.value(x),
                        lambda x, f=f: -np.asarray(f.grad(x), dtype=float),
                        lambda x, f=f: -np.asarray(f.hess(x), dtype=float),
                    )
                    for chart, f in base.fields.items()
                }
            )
            flipped = ManifoldSpec(
                name=spec.name + "_neg",
                dim=spec.dim,
                charts=spec.charts,
                euler_char=spec.euler_char,
                morse_catalog={name: negated},
            )
            assert hopf_index(flipped, name) == hopf_index(spec, name)

    def test_missing_potential(self, s2):
        with pytest.raises(KeyError):
            hopf_index(s2, "not_a_potential")
