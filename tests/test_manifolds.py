"""Catalog manifolds: coverage, quadrature grids, and honest error bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from cgb.geometry import CurvatureFrame
from cgb import manifolds
from cgb.manifolds import (
    MAX_AXIS_POINTS,
    MAX_GRID_POINTS,
    CompositeRule,
    QuadratureGrid,
    TensorBlock,
    _legendre_rule,
    check_point_budget,
    catalog,
    gauss_legendre_axis,
    get_manifold,
    integrate_values,
    pairwise_sum,
    quadrature_grid,
    tensor_points,
)
from cgb.morse import _seeds


class TestCatalog:
    def test_euler_characteristics(self, full_catalog):
        chi = {spec.name: spec.euler_char for spec in full_catalog}
        assert chi == {"s2": 2, "ellipsoid": 2, "torus": 0, "flat_t2": 0, "s2xs2": 4}

    def test_catalog_names(self):
        names = [spec.name for spec in catalog()]
        assert names == ["s2", "ellipsoid", "torus", "flat_t2", "s2xs2"]

    def test_unknown_manifold(self):
        with pytest.raises(KeyError):
            get_manifold("klein_bottle")

    def test_unknown_potential(self, s2):
        # the library takes None for h = 0; "none" is a CLI spelling only
        for h_name in ("saddlepalooza", "none"):
            with pytest.raises(KeyError):
                s2.potential(h_name)

    def test_every_manifold_has_quad_chart_and_potential(self, full_catalog):
        for spec in full_catalog:
            assert spec.quad_chart.quad_domain is not None
            assert spec.morse_catalog


def area_values(spec, resolution):
    grid = quadrature_grid(spec, resolution)
    g = spec.quad_chart.metric.metric(grid.points)
    return grid, np.sqrt(np.linalg.det(g))


class TestQuadrature:
    def test_weights_positive_and_sum_to_box_volume(self, s2):
        grid = quadrature_grid(s2, (32, 64))
        assert np.all(grid.weights > 0)
        box = s2.quad_chart.quad_domain
        volume = float(np.prod(box[:, 1] - box[:, 0]))
        assert pairwise_sum(grid.weights) == pytest.approx(volume, rel=1e-12)

    def test_point_budget_admits_the_largest_grids_in_use(self):
        for resolution in ((3159, 3159), (24, 24, 24, 24), (252, 503)):
            check_point_budget(resolution)
        check_point_budget((MAX_AXIS_POINTS, MAX_GRID_POINTS // MAX_AXIS_POINTS))
        with pytest.raises(ValueError, match=f"{MAX_AXIS_POINTS + 1}, 2\\) has {2 * MAX_AXIS_POINTS + 2} points"):
            check_point_budget((MAX_AXIS_POINTS + 1, 2))
        with pytest.raises(ValueError, match=f"has {MAX_GRID_POINTS + 4096} points"):
            check_point_budget((16, 16, 16, MAX_GRID_POINTS // 4096 + 1))
        with pytest.raises(ValueError, match=r"\(2, 100000000000000000000\) has 200000000000000000000 points"):
            check_point_budget((2, 10**20))  # a given integer is named exactly, however large

    def test_point_budget_checked_before_any_rule(self, monkeypatch):
        def unreachable(n):
            raise AssertionError(f"a {n}-point rule was built")

        monkeypatch.setattr(manifolds, "_legendre_rule", unreachable)
        with pytest.raises(ValueError, match="315828, 315828"):
            quadrature_grid(get_manifold("flat_t2"), (315828, 315828))

    def test_legendre_rule_cached_read_only(self):
        first, again = _legendre_rule(37), _legendre_rule(37)
        assert first is again and first[0] is again[0] and first[1] is again[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable
        with pytest.raises(ValueError):
            first[0][0] = 0.0
        nodes, weights = np.polynomial.legendre.leggauss(37)
        lo, hi = 0.25, 2.0
        got = gauss_legendre_axis(lo, hi, 37)
        half = 0.5 * (hi - lo)
        assert np.array_equal(got[0], lo + half * (nodes + 1.0)) and np.array_equal(got[1], half * weights)
        assert got[0].flags.writeable  # the mapped axis is a fresh array

    @pytest.mark.parametrize(
        "name, resolution", [("s2", (96, 192)), ("torus", (33, 17)), ("s2xs2", (8, 10, 8, 10))]
    )
    def test_grid_matches_meshgrid_oracle(self, name, resolution):
        # the meshgrid construction, a running product of weights from 1, as the byte-level oracle
        spec = get_manifold(name)
        axes = [gauss_legendre_axis(lo, hi, r) for (lo, hi), r in zip(spec.quad_chart.quad_domain, resolution)]
        mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        weights = np.ones(points.shape[0])
        for w in np.meshgrid(*[a[1] for a in axes], indexing="ij"):
            weights = weights * w.ravel()
        grid = quadrature_grid(spec, resolution)
        assert grid.points.tobytes() == points.tobytes() and grid.weights.tobytes() == weights.tobytes()
        count = math.prod(resolution)
        assert grid.points.shape == (count, spec.dim) and grid.points.flags.c_contiguous
        assert grid.weights.shape == (count,) and grid.size == count

    @pytest.mark.parametrize("counts", [(5, 7), (3, 4, 2, 5)])
    def test_tensor_points_match_meshgrid_oracle(self, counts):
        rng = np.random.default_rng(len(counts))
        axes = [rng.normal(size=c) for c in counts]
        oracle = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        points = tensor_points(axes)
        assert points.shape == oracle.shape and points.flags.c_contiguous
        assert points.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("counts", [(5, 7), (3, 4, 2, 5)])
    @pytest.mark.parametrize("limit", [1, 3, 9, 12, 40, 1000])
    def test_slabs_cover_the_grid_in_order(self, counts, limit):
        # runs of at most ``limit`` points that tile the point array in C order, whichever axis is cut
        rng = np.random.default_rng(len(counts))
        nodes, weights = (tuple(draw(size=c) for c in counts) for draw in (rng.normal, rng.uniform))
        grid = QuadratureGrid(nodes, weights, 0.0)
        slabs = list(grid.slabs(limit))
        assert [start for start, _, _ in slabs] == [0] + [stop for _, stop, _ in slabs[:-1]]
        assert slabs[-1][1] == len(grid) == math.prod(counts)
        assert all(0 < stop - start == len(block) <= limit for start, stop, block in slabs)
        assert all(np.shape(block) == (len(block), len(counts)) for _, _, block in slabs)
        assert np.concatenate([np.asarray(block) for _, _, block in slabs]).tobytes() == grid.points.tobytes()

    def test_grid_memory_is_per_axis(self, flat_t2):
        # the flat-T2 sweep grid at lambda 10, 3159^2 (about 1e7) points, is kept as its two axis rules
        import tracemalloc

        quadrature_grid(flat_t2, (3159, 3159))  # fills the cached Legendre rule, an O(n^2) eigensolve
        tracemalloc.start()
        try:
            grid = quadrature_grid(flat_t2, (3159, 3159))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 3159**2 and peak < 1 << 20

    @pytest.mark.parametrize("density", [1, 5, 8])
    def test_newton_seeds_match_meshgrid_oracle(self, full_catalog, density):
        for spec in full_catalog:
            for name, chart in spec.charts.items():
                axes = []
                for lo, hi in chart.metric.domain:
                    pad = 0.5 * (hi - lo) / density
                    axes.append(np.linspace(lo + pad, hi - pad, density))
                oracle = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
                seeds = _seeds(chart, density)
                assert seeds.shape == oracle.shape and seeds.tobytes() == oracle.tobytes(), (spec.name, name)

    def test_resolution_validation(self, s2):
        with pytest.raises(ValueError):
            quadrature_grid(s2, (1, 64))
        with pytest.raises(ValueError):
            quadrature_grid(s2, (64,))

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_sphere_area(self, radius):
        spec = get_manifold("s2", radius=radius)
        grid, vals = area_values(spec, (128, 256))
        area, bound = integrate_values(grid, vals)
        exact = 4 * math.pi * radius**2
        assert abs(area - exact) < 1e-6 * exact
        # the bound is honest: it covers the true (cap-dominated) error
        assert abs(area - exact) <= bound

    def test_error_bound_honest_across_resolutions(self, s2):
        exact = 4 * math.pi
        for resolution in ((16, 32), (32, 64), (64, 128), (128, 256)):
            grid, vals = area_values(s2, resolution)
            area, bound = integrate_values(grid, vals)
            assert abs(area - exact) <= bound

    def test_torus_volume(self, torus):
        grid, vals = area_values(torus, (48, 48))
        volume, _ = integrate_values(grid, vals)
        assert volume == pytest.approx(4 * math.pi**2 * 2.0, rel=1e-9)

    def test_flat_torus_volume(self, flat_t2):
        grid, vals = area_values(flat_t2, (8, 8))
        volume, _ = integrate_values(grid, vals)
        assert volume == pytest.approx(1.0, rel=1e-12)

    def test_product_volume(self, s2xs2):
        grid, vals = area_values(s2xs2, (24, 24, 24, 24))
        volume, _ = integrate_values(grid, vals)
        assert volume == pytest.approx((4 * math.pi) ** 2, rel=1e-5)

    def test_sin_theta_integral(self, s2):
        # 1-D quadrature oracle: int_{eps}^{pi-eps} sin = 2 cos(eps), times 2 pi
        from cgb.manifolds import POLAR_CAP

        grid = quadrature_grid(s2, (64, 128))
        vals = np.sin(grid.points[:, 0])
        total, bound = integrate_values(grid, vals)
        oracle = 2 * math.pi * 2 * math.cos(POLAR_CAP)
        assert total == pytest.approx(oracle, abs=1e-9)
        # the full 4 pi differs only by the excised caps, inside the bound
        assert abs(total - 4 * math.pi) <= bound

    def test_gauss_curvature_integral_torus(self, torus):
        # int K dA = 0 for chi = 0: positive outer and negative inner cancel
        grid = quadrature_grid(torus, (48, 48))
        chart = torus.quad_chart.metric
        vals = np.empty(grid.size)
        for idx in range(grid.size):
            x = grid.points[idx]
            r = CurvatureFrame.from_chart(chart, x).riemann
            g = chart.metric(x)
            det = np.linalg.det(g)
            vals[idx] = r[0, 1, 0, 1] / det * math.sqrt(det)  # K * area element
        total, _ = integrate_values(grid, vals)
        assert abs(total) < 1e-8

    def test_refinement_convergence(self, s2):
        # doubling the resolution must shrink the error at least 4x
        exact = 4 * math.pi

        def err(resolution):
            grid, vals = area_values(s2, resolution)
            # drop the cap contribution from the comparison: integrate sin only
            total, _ = integrate_values(grid, np.sin(grid.points[:, 0]))
            return abs(total - exact)

        coarse, fine = err((4, 8)), err((8, 16))
        assert coarse / fine >= 4.0

    def test_excised_measure_scaling(self, s2, torus):
        assert quadrature_grid(s2, (16, 32)).excised_measure > 0
        assert quadrature_grid(torus, (16, 16)).excised_measure == 0.0

    def test_composite_rule_is_its_panels_in_order(self, torus):
        two_pi = 2 * math.pi
        rule = CompositeRule((0.0, 1.0, 2.5, two_pi), (3, 64, 5))
        nodes, weights = rule.axis()
        parts = [gauss_legendre_axis(a, b, n) for a, b, n in ((0.0, 1.0, 3), (1.0, 2.5, 64), (2.5, two_pi, 5))]
        assert nodes.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        assert weights.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
        assert rule.size == 72 and math.isclose(weights.sum(), two_pi)
        # a grid takes a composite rule on one axis and a node count on another
        grid = quadrature_grid(torus, (rule, 16))
        assert grid.shape == (72, 16)
        assert grid.nodes[0].tobytes() == nodes.tobytes()
        assert grid.nodes[1].tobytes() == quadrature_grid(torus, (16, 16)).nodes[1].tobytes()
        with pytest.raises(ValueError, match="above the budget"):
            quadrature_grid(torus, (CompositeRule((0.0, two_pi), (MAX_AXIS_POINTS + 1,)), 16))

    def test_integrate_values_weights_in_place(self):
        # the weighted values go into the array grid.weights builds, and the sup is taken without a
        # |values| array: on 3159^2 values the peak is that array and the pairwise sum's halves
        # (1.75 N floats), where a separate product, or |values|, made it 2 N
        n = 3159
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 1.0, n)
        grid = QuadratureGrid((np.linspace(0.0, 1.0, n),) * 2, (w, w), 0.5)
        values = rng.normal(size=n * n)
        tracemalloc.start()
        try:
            total, bound = integrate_values(grid, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * values.nbytes
        assert total.hex() == pairwise_sum(grid.weights * values).hex()
        assert bound.hex() == (0.5 * float(np.max(np.abs(values)))).hex()
        small = QuadratureGrid((np.zeros(2),) * 2, (np.ones(2),) * 2, 1.0)
        assert integrate_values(small, -np.zeros(4))[1].hex() == "0x0.0p+0"  # as max |values| reads -0.0


class TestPairwiseSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1003) * 10.0**rng.integers(-8, 8, size=1003)
        assert pairwise_sum(values) == pytest.approx(math.fsum(values), rel=1e-12)

    def test_deterministic_under_concatenation(self):
        # the reduction shape is fixed by the total length, not by chunking
        rng = np.random.default_rng(1)
        values = rng.normal(size=2048)
        assert pairwise_sum(values) == pairwise_sum(values.copy())

    def test_empty(self):
        assert pairwise_sum(np.array([])) == 0.0

    @pytest.mark.parametrize("size", [1, 3, 7, 1001, 2**20 + 1], ids=lambda n: f"n{n}")
    def test_odd_lengths_match_the_padded_reference(self, size):
        # each pass of the reference pads an odd length with 0.0 (2^20 + 1 is odd at every
        # pass), and -0.0 + 0.0 is +0.0 there too
        def padded(acc):
            while acc.size > 1:
                if acc.size % 2:
                    acc = np.concatenate([acc, [0.0]])
                acc = acc[0::2] + acc[1::2]
            return float(acc[0])

        values = np.random.default_rng(size).normal(size=size)
        assert pairwise_sum(values).hex() == padded(values).hex()
        zeros = -np.zeros(size)
        assert pairwise_sum(zeros).hex() == padded(zeros).hex() == ("-0x0.0p+0" if size == 1 else "0x0.0p+0")


# -- closed-form jets against the sympy oracle ----------------------------------


def _oracle_metrics(name, params):
    """Chart name -> (coords, symbolic metric, symbolic embedding or None), written independently."""
    import sympy as sp

    sin, cos = sp.sin, sp.cos
    th, ph, u, v = sp.symbols("th ph u v", real=True)

    def pullback(coords, embedding):
        jac = sp.Matrix([[sp.diff(comp, c) for c in coords] for comp in embedding])
        return coords, jac.T * jac, embedding

    def sphere_like(a, b, c):
        return {
            "polar": pullback((th, ph), (a * sin(th) * cos(ph), b * sin(th) * sin(ph), c * cos(th))),
            "rotated": pullback((th, ph), (a * cos(th), b * sin(th) * cos(ph), c * sin(th) * sin(ph))),
        }

    if name == "s2":
        r = params.get("radius", 1.0)
        return sphere_like(r, r, r)
    if name == "ellipsoid":
        return sphere_like(1.0, 1.2, 0.8)
    if name == "torus":
        R, r = 2.0, 1.0
        embedding = ((R + r * cos(v)) * cos(u), (R + r * cos(v)) * sin(u), r * sin(v))
        return {"torus": pullback((u, v), embedding)}
    if name == "flat_t2":
        return {"flat": ((u, v), sp.eye(2), None)}
    if name == "s2_perturbed":
        factor = 1 + 0.3 * sin(th)
        charts = sphere_like(1.0, 1.0, 1.0)
        charts["polar"] = ((th, ph), factor * sp.Matrix([[1, 0], [0, sin(th) ** 2]]), charts["polar"][2])
        return charts
    assert name == "s2xs2"
    t1, p1, t2, p2 = sp.symbols("t1 p1 t2 p2", real=True)

    def two_spheres(chart):
        one = sphere_like(1.0, 1.0, 1.0)[chart][2]
        first = tuple(e.subs({th: t1, ph: p1}, simultaneous=True) for e in one)
        second = tuple(e.subs({th: t2, ph: p2}, simultaneous=True) for e in one)
        return pullback((t1, p1, t2, p2), first + second)

    return {"product": two_spheres("polar"), "product_rotated": two_spheres("rotated")}


def _oracle_potentials(name, params):
    """Potential name -> chart name -> (coords, symbolic potential), written independently."""
    import sympy as sp

    sin, cos = sp.sin, sp.cos
    th, ph, u, v = sp.symbols("th ph u v", real=True)
    if name in ("s2", "s2_perturbed", "ellipsoid"):
        c = 0.8 if name == "ellipsoid" else params.get("radius", 1.0)  # the z semi-axis
        return {"height": {"polar": ((th, ph), c * cos(th)), "rotated": ((th, ph), c * sin(th) * sin(ph))}}
    if name == "torus":
        return {"height": {"torus": ((u, v), (2 + cos(v)) * cos(u))}}
    if name == "flat_t2":
        return {"coscos": {"flat": ((u, v), cos(2 * sp.pi * u) + cos(2 * sp.pi * v))}}
    assert name == "s2xs2"
    t1, p1, t2, p2 = coords = sp.symbols("t1 p1 t2 p2", real=True)
    return {
        "height_sum": {
            "product": (coords, cos(t1) + cos(t2)),
            "product_rotated": (coords, sin(t1) * sin(p1) + sin(t2) * sin(p2)),
        }
    }


JET_CASES = {
    "s2": ("s2", {}),
    "s2-radius0.8": ("s2", {"radius": 0.8}),
    "s2-radius1.25": ("s2", {"radius": 1.25}),
    "ellipsoid": ("ellipsoid", {}),
    "torus": ("torus", {}),
    "flat_t2": ("flat_t2", {}),
    "s2xs2": ("s2xs2", {}),
    "s2_perturbed": ("s2_perturbed", {}),
}


def assert_jets_match(metric, coords, g, pts):
    """g, dg and d2g of ``metric`` against the sympy-derived jets of ``g``, batched and pointwise."""
    from sympy_oracle import chart_from_metric_exprs

    ref = chart_from_metric_exprs(metric.name, coords, g, metric.domain)
    for attr in ("metric", "d_metric", "d2_metric"):
        got, want = getattr(metric, attr)(pts), getattr(ref, attr)(pts)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (metric.name, attr)
        assert np.array_equal(getattr(metric, attr)(pts[0]), got[0]), (metric.name, attr)


def interior_points(metric, rng, count=64):
    lo, hi = metric.domain[:, 0], metric.domain[:, 1]
    return rng.uniform(lo + 1e-3, hi - 1e-3, size=(count, metric.dim))


@pytest.mark.parametrize("name", ["s2", "ellipsoid", "torus", "flat_t2", "s2xs2", "s2_perturbed"])
def test_derivatives_on_a_block_match_its_points(name):
    # a TensorBlock stands for its C-order points: orders 0-3 of every chart embedding, the
    # jets of every chart and the value, gradient and Hessian of every potential agree to the
    # bit with the same call on the point array
    spec = get_manifold(name)
    rng = np.random.default_rng(11)
    if name == "flat_t2":
        assert spec.quad_chart.embed.freq == (2 * math.pi,) * 2
    for chart_name, chart in spec.charts.items():
        fields = [m.fields[chart_name] for m in spec.morse_catalog.values() if chart_name in m.fields]
        evaluators = [chart.metric.metric, chart.metric.d_metric, chart.metric.d2_metric]
        evaluators += [f for field in fields for f in (field.value, field.grad, field.hess)]
        axes = [rng.uniform(lo, hi, size=count) for (lo, hi), count in zip(chart.metric.domain, (5, 3, 4, 2))]
        for block_axes in (axes, [axes[0][2:3]] + axes[1:]):  # a whole grid, and a slab with a fixed first axis
            block, points = TensorBlock(np.ix_(*block_axes)), tensor_points(block_axes)
            got = chart.embed.derivatives(block, range(4))
            got += [np.asarray(evaluate(block), dtype=float) for evaluate in evaluators]
            want = chart.embed.derivatives(points, range(4))
            want += [np.asarray(evaluate(points), dtype=float) for evaluate in evaluators]
            assert len(got) == 7 + 3 * len(fields)
            for k, (a, b) in enumerate(zip(got, want)):
                assert a.shape == b.shape and np.array_equal(a, b), (name, chart.name, k)


@pytest.mark.parametrize("name, params", JET_CASES.values(), ids=JET_CASES.keys())
def test_jets_match_sympy_oracle(name, params):
    import sympy as sp

    spec = get_manifold(name, **params)
    oracle = _oracle_metrics(name, params)
    assert set(oracle) == set(spec.charts)
    rng = np.random.default_rng(41)
    for chart_name, (coords, g, embedding) in oracle.items():
        chart = spec.charts[chart_name]
        pts = interior_points(chart.metric, rng)
        assert_jets_match(chart.metric, coords, g, pts)
        if embedding is not None:
            want = np.stack([sp.lambdify(coords, e)(*pts.T) * np.ones(len(pts)) for e in embedding], -1)
            assert np.allclose(chart.embed(pts), want, rtol=0, atol=1e-14), chart_name


@pytest.mark.parametrize("name, params", JET_CASES.values(), ids=JET_CASES.keys())
def test_potentials_match_sympy_oracle(name, params):
    import sympy as sp
    from sympy_oracle import _TensorEvaluator

    spec = get_manifold(name, **params)
    oracle = _oracle_potentials(name, params)
    assert set(oracle) == set(spec.morse_catalog)
    rng = np.random.default_rng(47)
    for h_name, charts in oracle.items():
        fields = spec.morse_catalog[h_name].fields
        assert set(charts) == set(fields)
        for chart_name, (coords, h) in charts.items():
            pts = interior_points(spec.charts[chart_name].metric, rng)
            grad = [sp.diff(h, c) for c in coords]
            hess = [[sp.diff(d, c) for c in coords] for d in grad]
            for attr, expr in (("value", h), ("grad", grad), ("hess", hess)):
                evaluate = getattr(fields[chart_name], attr)
                got, want = evaluate(pts), _TensorEvaluator(coords, np.array(expr, dtype=object))(pts)
                assert got.shape == want.shape, (chart_name, attr)
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (chart_name, attr)
                assert np.array_equal(evaluate(pts[0]), got[0]), (chart_name, attr)


def test_conformal_jets_match_sympy_oracle():
    # a factor that depends on both coordinates reaches every term of scaled_jets,
    # which the catalog's 1 + A sin(theta) on the round sphere does not
    import sympy as sp

    from cgb.manifolds import COS, ONE, SIN, TrigEmbedding, embedded_chart

    th, ph = sp.symbols("th ph", real=True)
    embedding = TrigEmbedding([[(1.0, (SIN, COS))], [(1.2, (SIN, SIN))], [(0.8, (COS, ONE))]])
    factor = TrigEmbedding([[(1.0, (ONE, ONE)), (0.3, (SIN, COS)), (0.2, (COS, SIN))]])
    domain = [[0.1, 3.0], [0.0, 6.0]]
    metric = embedded_chart("conformal", embedding, domain, factor)
    x, y, z = sp.sin(th) * sp.cos(ph), 1.2 * sp.sin(th) * sp.sin(ph), 0.8 * sp.cos(th)
    jac = sp.Matrix([[sp.diff(e, c) for c in (th, ph)] for e in (x, y, z)])
    g = (1 + 0.3 * sp.sin(th) * sp.cos(ph) + 0.2 * sp.cos(th) * sp.sin(ph)) * (jac.T * jac)
    assert_jets_match(metric, (th, ph), g, interior_points(metric, np.random.default_rng(43)))


def test_no_sympy_at_run_time():
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import cgb.cli, cgb.sigma, cgb.morse\n"
        "from cgb.manifolds import _BUILDERS\n"
        "for build in _BUILDERS.values():\n"
        "    build()\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
