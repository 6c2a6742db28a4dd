"""Euler density, the reduced integrand, and the partition function."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from localization_oracle import distance_to_poles, local_index, localization_mass, uniform_resolution

from cgb import manifolds, sigma
from cgb.geometry import ChartMetric, CurvatureFrame, ScalarField, curvature_biform, pair_biform
from cgb.grassmann import berezin, exp_even
from cgb.manifolds import (
    ONE,
    SIN,
    COS,
    Chart,
    ManifoldSpec,
    MorseFunction,
    TensorBlock,
    TrigEmbedding,
    embedded_chart,
    flat_chart,
    get_manifold,
    integrate_values,
    product_of_spheres,
    quadrature_grid,
    sphere,
    sphere_conformal,
    trig_field,
)
from cgb.sigma import (
    ResolutionError,
    check_resolution,
    euler_density,
    lambda_sweep,
    partition_function,
    partition_integrand,
    potential_stiffness,
    reduce_auxiliary_field,
    _integrand_on_points,
)


def flat_frame(n):
    return CurvatureFrame(
        x=np.zeros(n),
        g=np.eye(n),
        g_inv=np.eye(n),
        det_g=1.0,
        gamma_second=np.zeros((n, n, n)),
        riemann=np.zeros((n, n, n, n)),
    )


def sphere_frame(spec, th, ph=0.3):
    return CurvatureFrame.from_chart(spec.charts["polar"].metric, np.array([th, ph]))


class TestEulerDensity:
    def test_flat_vanishes(self):
        assert euler_density(flat_frame(2)) == 0.0

    def test_sphere_is_sin_theta(self, s2):
        for th in (0.4, 1.1, 2.6):
            assert euler_density(sphere_frame(s2, th)) == pytest.approx(math.sin(th), rel=1e-12)

    def test_torus_density_integrates_to_zero(self, torus):
        grid = quadrature_grid(torus, (48, 48))
        chart = torus.quad_chart.metric
        vals = np.array(
            [euler_density(CurvatureFrame.from_chart(chart, x)) for x in grid.points[::7]]
        )
        # spot samples match the batched evaluator
        batch = _integrand_on_points(chart, grid.points[::7], (0.0,), None)[0]
        assert np.allclose(vals, batch, atol=1e-13)
        total, _ = integrate_values(grid, _integrand_on_points(chart, grid.points, (0.0,), None)[0])
        assert abs(total) < 1e-8

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            euler_density(flat_frame(3))

    def test_conformal_curvature_oracle(self):
        # classical fact: for g = e^{2u} delta on R^2, K = -e^{-2u} Lap(u),
        # so with u = a x^2 + b y^2 the density K sqrt(det g) = -2(a + b)
        import sympy as sp

        from sympy_oracle import chart_from_metric_exprs

        rng = np.random.default_rng(23)
        for _ in range(3):
            a, b = rng.uniform(-0.4, 0.4, size=2)
            x, y = sp.symbols("x y", real=True)
            factor = sp.exp(2 * (a * x**2 + b * y**2))
            chart = chart_from_metric_exprs(
                "conformal", (x, y), factor * sp.eye(2), [[-1, 1], [-1, 1]]
            )
            for _ in range(5):
                point = rng.uniform(-0.9, 0.9, size=2)
                frame = CurvatureFrame.from_chart(chart, point)
                assert euler_density(frame) == pytest.approx(-2 * (a + b), rel=1e-9, abs=1e-12)


class TestReduceAuxiliaryField:
    def test_lambda_zero(self, s2):
        frame = sphere_frame(s2, 1.0)
        assert reduce_auxiliary_field(frame, np.array([1.0, 0.0]), 0.0) == pytest.approx(
            1.0 / math.sqrt(frame.det_g)
        )

    def test_constant_potential(self):
        frame = flat_frame(2)
        assert reduce_auxiliary_field(frame, None, 3.0) == 1.0
        assert reduce_auxiliary_field(frame, np.zeros(2), 3.0) == 1.0

    def test_flat_coordinate_potential(self):
        # h = x^1, lambda = 2: exp(-lambda^2/2 * 1) = e^-2
        frame = flat_frame(2)
        value = reduce_auxiliary_field(frame, np.array([1.0, 0.0]), 2.0)
        assert value == pytest.approx(math.exp(-2.0), rel=1e-14)

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_sphere_height(self, radius):
        # on the sphere of radius r, g = r^2 diag(1, sin^2 theta) and
        # |grad (r cos theta)|_g^2 = sin^2 theta
        th, lam = 0.9, 1.5
        frame = sphere_frame(sphere(radius), th)
        grad = np.array([-radius * math.sin(th), 0.0])
        expected = math.exp(-0.5 * lam**2 * math.sin(th) ** 2) / radius**2 / math.sin(th)
        assert reduce_auxiliary_field(frame, grad, lam) == pytest.approx(expected, rel=1e-12)


# (fixture, potential, polar-angle range or None): n = 2 charts, then S2xS2
# on its direct product chart (n = 4)
KERNEL_CASES = [
    ("ellipsoid", "height", (0.3, 2.8)),
    ("torus", "height", None),
    ("flat_t2", "coscos", None),
    ("s2xs2", "height_sum", (0.3, 2.8)),
]


class TestPartitionIntegrand:
    def test_reduces_to_euler_density(self, s2, ellipsoid):
        rng = np.random.default_rng(4)
        for spec in (s2, ellipsoid):
            for _ in range(10):
                frame = sphere_frame(spec, rng.uniform(0.3, 2.7), rng.uniform(0, 6.2))
                assert abs(partition_integrand(frame, 0.0) - euler_density(frame)) < 1e-12

    def test_constant_potential_any_coupling(self, s2):
        frame = sphere_frame(s2, 0.8)
        for lam in (0.5, 2.0, 7.0):
            value = partition_integrand(
                frame, lam, h_grad=np.zeros(2), h_hess=np.zeros((2, 2))
            )
            assert value == pytest.approx(euler_density(frame), rel=1e-12)

    def test_flat_morse_large_coupling_gaussian_bump(self):
        # at a critical point: lambda^n det(Hess) / sqrt(det g), cross-checked
        # against a brute-force Berezin evaluation of the same exponent
        rng = np.random.default_rng(6)
        n = 2
        frame = flat_frame(n)
        hess = rng.normal(size=(n, n))
        hess = 0.5 * (hess + hess.T)
        lam = 9.0
        value = partition_integrand(frame, lam, h_grad=np.zeros(n), h_hess=hess)
        assert value == pytest.approx(lam**n * np.linalg.det(hess), rel=1e-10)
        exponent = lam * pair_biform(hess) + (-0.5) * curvature_biform(frame)
        oracle = berezin(exp_even(exponent), range(2 * n))
        assert value == pytest.approx(float(oracle), rel=1e-12)

    def test_odd_dimension_rejected(self):
        # Z need not vanish in odd dimension at lambda != 0, so the refusal says what it needs, not why
        with pytest.raises(ValueError, match=r"^partition integrand needs even dimension, got 3$"):
            partition_integrand(flat_frame(3), 0.0)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    @pytest.mark.parametrize("fixture, h_name, polar", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_kernel_matches_engine(self, request, fixture, h_name, polar, lam):
        spec = request.getfixturevalue(fixture)
        chart = spec.quad_chart
        rng = np.random.default_rng(12)
        pts = rng.uniform(chart.quad_domain[:, 0], chart.quad_domain[:, 1], size=(40, spec.dim))
        if polar is not None:  # keep the polar angles off the excised caps
            pts[:, 0::2] = rng.uniform(*polar, size=(40, spec.dim // 2))
        assert_kernel_matches_engine(chart.metric, spec.potential(h_name).on_chart(chart.name), pts, lam)

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_kernel_matches_engine_generic_4d(self, lam):
        # S2xS2 is a product, so every cover that couples its factors has a
        # zero coefficient; a random quadratic metric and potential reach all
        rng = np.random.default_rng(5)
        n = 4
        a = rng.normal(size=(n, n))
        g0 = a @ a.T + n * np.eye(n)
        dg = rng.normal(size=(n, n, n))
        dg = 0.5 * (dg + dg.transpose(0, 2, 1))
        d2g = rng.normal(size=(n, n, n, n))
        d2g = 0.25 * (d2g + d2g.transpose(1, 0, 2, 3) + d2g.transpose(0, 1, 3, 2) + d2g.transpose(1, 0, 3, 2))
        b = rng.normal(size=n)
        hmat = rng.normal(size=(n, n))
        hmat = 0.5 * (hmat + hmat.T)
        chart = ChartMetric(
            n,
            [[-0.2, 0.2]] * n,
            lambda x: g0 + np.einsum("kij,...k->...ij", dg, x) + 0.5 * np.einsum("klij,...k,...l->...ij", d2g, x, x),
            lambda x: dg + np.einsum("klij,...l->...kij", d2g, x),
            lambda x: np.broadcast_to(d2g, np.shape(x)[:-1] + d2g.shape),
        )
        h = ScalarField(
            lambda x: x @ b + 0.5 * np.einsum("...i,ij,...j->...", x, hmat, x),
            lambda x: b + x @ hmat,
            lambda x: np.broadcast_to(hmat, np.shape(x)[:-1] + hmat.shape),
        )
        pts = rng.uniform(-0.2, 0.2, size=(40, n))
        assert_kernel_matches_engine(chart, h, pts, lam)


def assert_kernel_matches_engine(chart, h, pts, lam):
    """The batched cover kernel against the pointwise Grassmann engine."""
    fast = _integrand_on_points(chart, pts, (lam,), h)[0]
    slow = np.array(
        [partition_integrand(CurvatureFrame.from_chart(chart, x), lam, h.grad(x), h.hess(x)) for x in pts]
    )
    assert np.all(np.abs(fast - slow) <= 1e-13 * np.maximum(1.0, np.abs(slow)))


class TestPartitionFunction:
    def test_sphere_chi(self, s2):
        result = partition_function(s2, None, 0.0, (96, 192))
        assert abs(result.value - 2.0) < 1e-3
        assert result.error_bound >= 0

    def test_sphere_radius_invariance(self, s2_radius2):
        result = partition_function(s2_radius2, None, 0.0, (96, 192))
        assert abs(result.value - 2.0) < 1e-3

    def test_torus_chi_zero(self, torus):
        result = partition_function(torus, None, 0.0, (64, 64))
        assert abs(result.value) < 1e-8

    def test_ellipsoid_chi(self, ellipsoid):
        result = partition_function(ellipsoid, None, 0.0, (96, 192))
        assert abs(result.value - 2.0) < 1e-3

    def test_product_fast_equals_direct(self, s2xs2):
        fast = partition_function(s2xs2, None, 0.0, (8, 8, 8, 8))
        direct = partition_function(s2xs2, None, 0.0, (8, 8, 8, 8), use_product_structure=False)
        assert fast.value == pytest.approx(direct.value, abs=1e-12)
        fast_h = partition_function(s2xs2, "height_sum", 0.6, (10, 20, 10, 20))
        direct_h = partition_function(
            s2xs2, "height_sum", 0.6, (10, 20, 10, 20), use_product_structure=False
        )
        assert fast_h.value == pytest.approx(direct_h.value, abs=1e-12)

    def test_metric_scaling_invariance(self):
        # the sphere of radius sqrt(2) is the unit sphere with g scaled by 2
        result = partition_function(sphere(math.sqrt(2.0)), None, 0.0, (96, 192))
        assert abs(result.value - 2.0) < 1e-3

    def test_metric_perturbation_invariance(self, s2_perturbed):
        result = partition_function(s2_perturbed, None, 0.0, (128, 256))
        assert abs(result.value - 2.0) < 1e-2

    def test_random_conformal_metrics_invariance(self):
        # conformal factors 1 + a x + b y + c z (ambient coordinates) deform
        # the round metric smoothly; chi must not move
        import sympy as sp

        from cgb.manifolds import Chart, ManifoldSpec, sphere
        from sympy_oracle import chart_from_metric_exprs

        rng = np.random.default_rng(31)
        base = sphere(1.0)
        for _ in range(3):
            a, b, c = rng.uniform(-0.45, 0.45, size=3)
            th, ph = sp.symbols("th ph", real=True)
            factor = (
                1
                + a * sp.sin(th) * sp.cos(ph)
                + b * sp.sin(th) * sp.sin(ph)
                + c * sp.cos(th)
            )
            g = factor * sp.Matrix([[1, 0], [0, sp.sin(th) ** 2]])
            chart = chart_from_metric_exprs(
                "polar", (th, ph), g, [[1e-7, math.pi - 1e-7], [0, 2 * math.pi]]
            )
            base_polar = base.charts["polar"]
            spec = ManifoldSpec(
                name="s2_conformal_random",
                dim=2,
                charts={
                    "polar": Chart(
                        metric=chart,
                        embed=base_polar.embed,
                        quad_domain=base_polar.quad_domain,
                        periods=base_polar.periods,
                        excised_measure=base_polar.excised_measure,
                    )
                },
                euler_char=2,
                morse_catalog={},
            )
            result = partition_function(spec, None, 0.0, (128, 256))
            assert abs(result.value - 2.0) < 1e-3, (a, b, c, result.value)

    def test_odd_dimension_rejected(self):
        from cgb.manifolds import Chart, ManifoldSpec

        chart = flat_chart("c", 1, [[0.0, 1.0]])
        spec = ManifoldSpec(
            name="circle",
            dim=1,
            charts={"c": Chart(metric=chart, embed=lambda x: x, quad_domain=np.array([[0.0, 1.0]]))},
            euler_char=0,
            morse_catalog={},
        )
        with pytest.raises(ValueError):
            partition_function(spec, None, 0.0, (8,))

    def test_deterministic_bits(self, s2):
        a = partition_function(s2, "height", 1.0, (48, 96))
        b = partition_function(s2, "height", 1.0, (48, 96))
        assert a.value == b.value and a.error_bound == b.error_bound


def count_calls(monkeypatch, metric, attr="d2_metric"):
    """Record the batch size of every call of one jet evaluator of ``metric``."""
    calls = []
    evaluate = getattr(metric, attr)

    def counted(x):
        calls.append(len(x))
        return evaluate(x)

    monkeypatch.setattr(metric, attr, counted)
    return calls


# (manifold, potential, coupling, resolution, Z.hex(), error_bound.hex()) of the jets route,
# as computed before induced charts took the Gauss-equation route
JETS_ROUTE_BITS = [
    ("s2_perturbed", None, 0.0, (32, 64), "0x1.0000fb9119fb4p+1", "0x1.d228b99dccea8p-13"),
    ("s2_perturbed", "height", 1.0, (32, 64), "0x1.0000fb7ba0819p+1", "0x1.5ba92285d7899p-13"),
]

# flat_t2 with coscos: Z.hex() at lambda = 0.25 on 48x48, as computed while the flat torus read its
# jets (error bound 0), and (resolution, Z.hex(), error_bound.hex()) along the adaptive sweep
# (0, 1, 2, 5) from base 48x48 on graded composite rules; the bound is the excluded panels' term
FLAT_ROUTE_BITS = "0x1.27643e37eddb7p-54"
FLAT_SWEEP_BITS = [
    ((48, 48), "0x0.0p+0", "0x0.0p+0"),
    ((257, 257), "0x1.168f99b539a64p-55", "0x0.0p+0"),
    ((334, 334), "0x1.3d28936ebc5d7p-55", "0x1.ed8e0003eb38dp-42"),
    ((343, 343), "-0x1.341fbc7c8bf8cp-55", "0x1.47c0da8d404bep-38"),
]

# (manifold, potential, coupling, resolution, use_product_structure, Z.hex(), error_bound.hex()) of
# the induced route, direct S2xS2 included, as computed while the factorized evaluation was a
# function of its own
INDUCED_ROUTE_BITS = [
    ("s2", None, 0.0, (32, 64), True, "0x1.ffffffd50ce1bp+0", "0x1.a2393d572db8bp-13"),
    ("s2", "height", 1.0, (32, 64), True, "0x1.ffffffaa19c3fp+0", "0x1.5b0a839b32c44p-13"),
    ("torus", None, 0.0, (32, 32), True, "0x1.b043cb999196ap-48", "0x0.0p+0"),
    ("torus", "height", 1.0, (32, 32), True, "0x1.83569f5c73476p-44", "0x0.0p+0"),
    ("s2xs2", None, 0.0, (8, 10, 8, 10), False, "0x1.ffffffaa19c0cp+1", "0x1.2ecd81cd85e63p-10"),
    ("s2xs2", "height_sum", 0.13, (8, 10, 8, 10), False, "0x1.ffffff9644af5p+1", "0x1.2af2f92503b84p-10"),
]

# the factorized S2xS2 sweep with height_sum at (0, 0.5, 1) from base (8, 16, 8, 16):
# (resolution, Z.hex(), error_bound.hex()) per coupling, each factor on its own graded rule
# (phi keeps its base count: (H g^-1 H)_phiphi is 0 for the height)
FACTORIZED_SWEEP_BITS = [
    ((8, 16, 8, 16), "0x1.ffffffaa19c0cp+1", "0x1.9229200cfd423p-11"),
    ((13, 16, 13, 16), "0x1.ffffff94a43b0p+1", "0x1.7229905ee9fdbp-11"),
    ((26, 16, 26, 16), "0x1.ffffff5433887p+1", "0x1.5b2b996e0fdddp-11"),
]

# (manifold, potential, coupling, resolution, Z.hex(), error_bound.hex()) of direct evaluations
# on grids of several integrand slabs -- the jets route, and S2xS2 with its slabs cut along
# the second axis and along the first -- as computed while the integrand read the grid's
# point array in fixed chunks
SLAB_BITS = [
    ("s2_perturbed", "height", 1.0, (140, 480), "0x1.0000fb7ba07fdp+1", "0x1.5bab100ad9682p-13"),
    ("s2xs2", None, 0.0, (4, 60, 16, 20), "0x1.fffef7361dc28p+1", "0x1.1862fa89df1fdp-10"),
    ("s2xs2", "height_sum", 0.13, (4, 60, 16, 20), "0x1.000bfe590307cp+2", "0x1.15a844d1bb209p-10"),
    ("s2xs2", None, 0.0, (16, 20, 16, 20), "0x1.ffffffaa19c4dp+1", "0x1.421df6ad5c030p-10"),
]

# the S2 height sweep at (0, 1, 2) from base 48x96: (resolution, Z.hex(), error_bound.hex()),
# computed at the same point; at lambda 2 theta takes one 51-node rule and phi keeps its base
SPHERE_SWEEP_BITS = [
    ((48, 96), "0x1.ffffffd50cdfcp+0", "0x1.a2e3574bb0fbdp-13"),
    ((48, 96), "0x1.ffffffaa19c22p+0", "0x1.5bfcb5ff22b98p-13"),
    ((51, 96), "0x1.ffffff29406d5p+0", "0x1.09026c88578a9p-12"),
]


def constant_metric_spec(diagonal):
    """A box chart with the constant jets (diag(diagonal), 0, 0), no embedding, and a potential 'h'."""
    dim = len(diagonal)
    chart = ChartMetric(
        dim,
        [[0.0, 1.0]] * dim,
        lambda x: np.broadcast_to(np.diag(diagonal), np.shape(x)[:-1] + (dim, dim)).copy(),
        lambda x: np.zeros(np.shape(x)[:-1] + (dim,) * 3),
        lambda x: np.zeros(np.shape(x)[:-1] + (dim,) * 4),
        name="box",
    )
    h = trig_field(TrigEmbedding([[(1.0, (SIN,) + (ONE,) * (dim - 1))]]))
    box = Chart(chart, lambda x: np.asarray(x, dtype=float), quad_domain=np.array([[0.0, 1.0]] * dim))
    return ManifoldSpec("box", dim, {"box": box}, 0, {"h": MorseFunction(fields={"box": h})})


class TestCurvatureRoutes:
    def test_induced_charts_skip_d2_metric(self, monkeypatch):
        s2, s2xs2 = sphere(1.0), product_of_spheres()
        metrics = [s2.quad_chart.metric, s2xs2.quad_chart.metric] + [f.quad_chart.metric for f in s2xs2.factors]
        calls = [count_calls(monkeypatch, m) for m in metrics]
        assert abs(partition_function(s2, None, 0.0, (32, 64)).value - 2.0) < 1e-3
        assert abs(partition_function(s2, "height", 1.0, (32, 64)).value - 2.0) < 1e-3
        for h_name, lam in ((None, 0.0), ("height_sum", 0.5)):
            z = partition_function(s2xs2, h_name, lam, (8, 16, 8, 16), use_product_structure=False)
            assert abs(z.value - 4.0) < 1e-2
        assert calls == [[], [], [], []]

    @pytest.mark.parametrize("name, h_name, lam, resolution, product, value, bound", INDUCED_ROUTE_BITS)
    def test_induced_route_bits_unchanged(self, name, h_name, lam, resolution, product, value, bound):
        result = partition_function(get_manifold(name), h_name, lam, resolution, use_product_structure=product)
        assert (result.value.hex(), result.error_bound.hex()) == (value, bound)

    def test_factorized_sweep_bits_unchanged(self, s2xs2):
        sweep = lambda_sweep(s2xs2, "height_sum", (0, 0.5, 1), (8, 16, 8, 16))
        assert [(r.resolution, r.value.hex(), r.error_bound.hex()) for r in sweep.results] == FACTORIZED_SWEEP_BITS

    @pytest.mark.parametrize("name, h_name, lam, resolution, value, bound", SLAB_BITS)
    def test_slab_bits_unchanged(self, name, h_name, lam, resolution, value, bound):
        result = partition_function(get_manifold(name), h_name, lam, resolution, use_product_structure=False)
        assert (result.value.hex(), result.error_bound.hex()) == (value, bound)

    def test_sphere_sweep_bits_unchanged(self):
        sweep = lambda_sweep(get_manifold("s2"), "height", (0, 1, 2), (48, 96))
        assert [(r.resolution, r.value.hex(), r.error_bound.hex()) for r in sweep.results] == SPHERE_SWEEP_BITS

    @pytest.mark.parametrize("name, h_name, lam, resolution, value, bound", JETS_ROUTE_BITS)
    def test_jets_route_bits_unchanged(self, monkeypatch, name, h_name, lam, resolution, value, bound):
        spec = get_manifold(name)
        calls = count_calls(monkeypatch, spec.quad_chart.metric)
        result = partition_function(spec, h_name, lam, resolution)
        assert sum(calls) == math.prod(resolution)
        assert (result.value.hex(), result.error_bound.hex()) == (value, bound)

    def test_flat_route_bits_unchanged(self, monkeypatch):
        spec = get_manifold("flat_t2")
        calls = [count_calls(monkeypatch, spec.quad_chart.metric, attr) for attr in ("metric", "d_metric", "d2_metric")]
        result = partition_function(spec, "coscos", 0.25, (48, 48))
        assert (result.value.hex(), result.error_bound.hex()) == (FLAT_ROUTE_BITS, "0x0.0p+0")
        sweep = lambda_sweep(spec, "coscos", (0, 1, 2, 5), (48, 48))
        assert [(r.resolution, r.value.hex(), r.error_bound.hex()) for r in sweep.results] == FLAT_SWEEP_BITS
        assert calls == [[], [], []]

    @pytest.mark.parametrize("name", ["s2", "ellipsoid", "torus", "flat_t2", "s2xs2", "s2_perturbed"])
    def test_no_catalog_evaluator_builds_a_slab_points(self, monkeypatch, name):
        # every catalog chart and potential reads a slab, and the stiffness probe, through its axes
        def refuse(self, dtype=None, copy=None):
            raise AssertionError("the points of a TensorBlock were built")

        monkeypatch.setattr(TensorBlock, "__array__", refuse)
        with pytest.raises(AssertionError, match="points of a TensorBlock"):
            np.asarray(TensorBlock((np.zeros(2),)))
        assert np.shape(TensorBlock(np.ix_(np.zeros(3), np.zeros(5)))) == (15, 2)  # builds nothing
        spec = get_manifold(name)
        resolution = (24, 48) if spec.dim == 2 else (8, 16, 8, 16)
        for h_name in spec.morse_catalog:
            for product in (True, False) if spec.factors else (True,):
                z = partition_function(spec, h_name, 0.1, resolution, use_product_structure=product)
                assert math.isfinite(z.value)
            assert len(lambda_sweep(spec, h_name, (0.0, 0.1), resolution).results) == 2

    def test_evaluators_written_for_point_arrays_take_a_slab(self, degenerate_patch):
        # the patch's potential indexes its batch (x[..., 0]) and its jets read np.shape(x); on a
        # slab both act on its points, so Z and the stiffness equal those of the same evaluators
        # handed np.asarray(x)
        h = degenerate_patch.morse_catalog["pinch"].fields["flat"]
        on_points = ScalarField(*(lambda x, f=f: f(np.asarray(x)) for f in (h.value, h.grad, h.hess)))
        charts = degenerate_patch.charts
        as_points = ManifoldSpec("as_points", 2, charts, 1, {"pinch": MorseFunction(fields={"flat": on_points})})
        block = TensorBlock(np.ix_(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 5)))
        assert block[..., 1].tobytes() == np.asarray(block)[..., 1].tobytes()
        assert np.array_equal(list(block), np.asarray(block))
        for lam in (0.5, 2.0):
            got, want = (partition_function(spec, "pinch", lam, (24, 24)) for spec in (degenerate_patch, as_points))
            assert math.isfinite(got.value) and got.value.hex() == want.value.hex()
        assert potential_stiffness(degenerate_patch, "pinch").hex() == potential_stiffness(as_points, "pinch").hex()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_flat_chart_jets_are_exact(self, dim):
        # the integrand takes (I, 0, 0) on trust from the flat declaration;
        # the evaluators the pointwise frame reads must return exactly that
        chart = flat_chart("flat", dim, [[0.0, 1.0]] * dim)
        assert chart.flat and chart.embedding is None
        pts = np.random.default_rng(9).uniform(0.0, 1.0, size=(7, 5, dim))
        eye = np.broadcast_to(np.eye(dim), (7, 5, dim, dim))
        assert np.array_equal(chart.metric(pts), eye)
        assert np.array_equal(chart.d_metric(pts), np.zeros((7, 5) + (dim,) * 3))
        assert np.array_equal(chart.d2_metric(pts), np.zeros((7, 5) + (dim,) * 4))
        assert not any(get_manifold(name).quad_chart.metric.flat for name in ("s2", "torus", "s2xs2", "s2_perturbed"))

    @pytest.mark.parametrize("lam", [0.25, 1.0])
    def test_flat_route_matches_engine(self, flat_t2, lam):
        # the kernel takes (I, 0, 0) as declared; the engine reads the jets
        chart = flat_t2.quad_chart
        pts = np.random.default_rng(13).uniform(0.0, 1.0, size=(40, 2))
        assert_kernel_matches_engine(chart.metric, flat_t2.potential("coscos").on_chart(chart.name), pts, lam)

    def test_degenerate_metric_names_the_point(self):
        # jets route: g = diag(1, x_0) is negative definite left of the axis
        def metric(x):
            g = np.zeros(np.shape(x)[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = x[..., 0]
            return g

        chart = ChartMetric(
            2,
            [[-1.0, 1.0], [-1.0, 1.0]],
            metric,
            lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2)),
            lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2, 2)),
        )
        pts = np.array([[0.5, 0.1], [-0.25, 0.3], [-0.5, 0.2]])
        with pytest.raises(ValueError, match=r"not positive definite at the grid point \(-0\.25, 0\.3\)"):
            _integrand_on_points(chart, pts, (0.0,), None)
        # induced route: X = (cos x_0, sin x_0) does not move along x_1, so g_11 = 0
        circle = TrigEmbedding([[(1.0, (COS, ONE))], [(1.0, (SIN, ONE))]])
        chart = embedded_chart("degenerate", circle, [[-1.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match=r"not positive definite at the grid point \(0\.5, 0\.1\)"):
            _integrand_on_points(chart, pts, (0.0,), None)

    @pytest.mark.parametrize("diagonal", [(-1.0, -2.0), (-1.0, -1.0, 1.0, 1.0)])
    def test_indefinite_metric_with_positive_det_names_the_point(self, diagonal):
        # det g > 0 here, so only the leading minors show that g is not positive definite
        spec = constant_metric_spec(diagonal)
        dim = len(diagonal)
        pts = np.array([[0.5] * dim, [0.25] * dim])
        where = ", ".join(["0\\.5"] * dim)
        with pytest.raises(ValueError, match=rf"not positive definite at the grid point \({where}\)"):
            _integrand_on_points(spec.quad_chart.metric, pts, (0.0,), None)
        # a sweep meets the metric first in the stiffness probe, whose first point is the box corner
        where = ", ".join(["0\\.0"] * dim)
        with pytest.raises(ValueError, match=rf"not positive definite at the grid point \({where}\)"):
            lambda_sweep(spec, "h", [0.0, 1.0], (4,) * dim)

    @pytest.mark.parametrize(
        "params, message, where, probe_where",
        [
            # the conformal factor overflows det g, first at the first point of either grid
            (
                {"amplitude": 1e308},
                "metric determinant or inverse not finite",
                r"0\.0167479\d*, 0\.0085958\d*",
                r"0\.0001, 0\.0",
            ),
            # dX dX^T overflows to inf, and its det to nan
            ({"radius": 1e308}, "metric not positive definite", "", ""),
        ],
        ids=["amplitude", "radius"],
    )
    def test_non_finite_value_refused_where_it_appears(self, params, message, where, probe_where):
        # numpy's overflow warnings stay off: the refusal is the whole report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"{message} at the grid point \({where}"):
                partition_function(sphere_conformal(**params), None, 0.0, (16, 32))
            # the stiffness probe meets the metric first
            with pytest.raises(ValueError, match=rf"{message} at the grid point \({probe_where}"):
                lambda_sweep(sphere_conformal(**params), "height", [0.0, 1.0], (16, 32))


# (manifold, potential, couplings, grid) of every integrand route: induced (s2, s2xs2), jets (s2_perturbed), flat
SLAB_CASES = [
    ("s2", "height", (0.0, 1.0, 5.0), (96, 192)),
    ("s2_perturbed", "height", (0.0, 1.0), (96, 192)),
    ("flat_t2", "coscos", (0.0, 1.0, 5.0), (150, 150)),
    ("s2xs2", "height_sum", (0.0, 1.0), (16, 20, 16, 20)),
]
SMALL_SLAB = 1000


def slab_case(name, h_name, resolution):
    spec = get_manifold(name)
    return spec.quad_chart.metric, quadrature_grid(spec, resolution), spec.potential(h_name).on_chart(spec.quad_chart.name)


class _NanHessian:
    """Zero gradient; a Hessian that is nan at scattered points past theta = 2 and 0 elsewhere."""

    def grad(self, x):
        return np.zeros(np.shape(np.asarray(x)))

    def hess(self, x):
        x = np.asarray(x)
        bad = (x[..., 0] > 2.0) & (np.sin(17.0 * x[..., 0] + 31.0 * x[..., 1]) > 0.9)
        return np.where(bad[..., None, None], np.nan, np.zeros(x.shape + (2,)))


class TestSlabs:
    """The integrand slab bound ``sigma._SLAB`` changes how a grid is cut, never a value or a refusal."""

    @pytest.mark.parametrize("name, h_name, lams, resolution", SLAB_CASES, ids=[c[0] for c in SLAB_CASES])
    def test_rows_do_not_depend_on_the_bound(self, monkeypatch, name, h_name, lams, resolution):
        chart, grid, h = slab_case(name, h_name, resolution)
        assert grid.size > sigma._SLAB
        rows = _integrand_on_points(chart, grid, lams, h)
        monkeypatch.setattr(sigma, "_SLAB", SMALL_SLAB)
        small = _integrand_on_points(chart, grid, lams, h)
        assert rows.shape == (len(lams), grid.size)
        assert rows.tobytes() == small.tobytes()

    def test_point_array_rows_do_not_depend_on_the_bound(self, monkeypatch):
        chart, grid, h = slab_case("s2_perturbed", "height", (96, 192))
        rows = _integrand_on_points(chart, grid.points, (0.0, 1.0), h)
        monkeypatch.setattr(sigma, "_SLAB", SMALL_SLAB)
        assert _integrand_on_points(chart, grid.points, (0.0, 1.0), h).tobytes() == rows.tobytes()
        assert _integrand_on_points(chart, grid, (0.0, 1.0), h).tobytes() == rows.tobytes()

    def test_refusal_names_the_same_first_point(self, monkeypatch):
        spec = get_manifold("s2")
        chart, grid, bound = spec.quad_chart.metric, quadrature_grid(spec, (96, 192)), sigma._SLAB
        with pytest.raises(ValueError, match="integrand not finite at the grid point") as default:
            _integrand_on_points(chart, grid, (0.0, 1.0), _NanHessian())
        monkeypatch.setattr(sigma, "_SLAB", SMALL_SLAB)
        with pytest.raises(ValueError) as small:
            _integrand_on_points(chart, grid, (0.0, 1.0), _NanHessian())
        assert str(small.value) == str(default.value)
        # the first such point lies past the first slab under either bound
        points = grid.points
        first = np.flatnonzero(np.isnan(_NanHessian().hess(points)[:, 0, 0]))[0]
        assert first > bound and str(default.value).endswith(f"({float(points[first, 0])!r}, {float(points[first, 1])!r})")

    def record_chunks(self, monkeypatch):
        sizes = []
        chunk = sigma._integrand_chunk
        monkeypatch.setattr(sigma, "_integrand_chunk", lambda chart, x, *args: sizes.append(len(x)) or chunk(chart, x, *args))
        return sizes

    def test_two_dimensional_sweep_stays_within_the_bound(self, s2, monkeypatch):
        sizes = self.record_chunks(monkeypatch)
        sweep = lambda_sweep(s2, "height", (0.0, 1.0, 2.0, 5.0, 10.0), (96, 192))
        assert max(sizes) <= sigma._SLAB
        # every grid of the sweep holds more points than one slab, so each pass is cut
        assert min(math.prod(r.resolution) for r in sweep.results) > sigma._SLAB
        assert len(sizes) > len({r.resolution for r in sweep.results})

    def test_four_dimensional_grid_above_the_bound_is_cut(self, s2xs2, monkeypatch):
        sizes = self.record_chunks(monkeypatch)
        partition_function(s2xs2, None, 0.0, (16, 20, 16, 20), use_product_structure=False)
        assert max(sizes) <= sigma._SLAB and sum(sizes) == 16 * 20 * 16 * 20
        # the benchmark's 8 x 10 x 8 x 10 grids stay one slab
        sizes.clear()
        partition_function(s2xs2, None, 0.0, (8, 10, 8, 10), use_product_structure=False)
        assert sizes == [6400]


# potential_stiffness: sqrt of the largest diagonal entry (H g^-1 H)_kk, the width the adaptive plan grades by.
# The torus height's form is not diagonal: its largest eigenvalue, 0x1.096e47264df90p+0, is not that width.
STIFFNESS_BITS = [
    ("s2", "height", "0x1.ffffffd50ce24p-1"),
    ("ellipsoid", "height", "0x1.999999839c19cp-1"),
    ("torus", "height", "0x1.0000000000000p+0"),
    ("flat_t2", "coscos", "0x1.3bd3cc9be45dep+5"),
    ("s2xs2", "height_sum", "0x1.ffffffd50ce24p-1"),
    ("s2_perturbed", "height", "0x1.fffe0886ee6c1p-1"),
]


class TestResolutionPolicy:
    def test_refusal_with_hint(self, s2):
        with pytest.raises(ResolutionError) as err:
            partition_function(s2, "height", 10.0, (16, 32))
        assert "points" in str(err.value)

    def test_stiffness_values(self, s2, flat_t2):
        assert potential_stiffness(s2, "height") == pytest.approx(1.0, abs=1e-6)
        assert potential_stiffness(flat_t2, "coscos") == pytest.approx(4 * math.pi**2, rel=1e-6)
        assert potential_stiffness(s2, None) == 1.0

    @pytest.mark.parametrize("name, h_name, bits", STIFFNESS_BITS)
    def test_stiffness_is_the_largest_axis_width(self, name, h_name, bits):
        assert potential_stiffness(get_manifold(name), h_name).hex() == bits

    def test_adaptive_resolution_floors_at_base(self, s2):
        assert uniform_resolution(s2, 0.0, (64, 128), 1.0) == (64, 128)
        res = uniform_resolution(s2, 10.0, (64, 128), 1.0)
        assert res[0] >= 8 * 10 * math.pi - 1 and res[1] >= 8 * 10 * 2 * math.pi - 1

    @pytest.mark.parametrize(
        "lam, counts",
        [(1e308, r"\(inf, inf\)"), (1e300, r"\(2\.51\d*e\+301, 5\.02\d*e\+301\)")],
        ids=["1e308", "1e300"],
    )
    def test_adaptive_counts_refused_before_they_become_integers(self, s2, lam, counts):
        # 8 * 1e308 * pi is inf, which has no integer; 1e301 has one of 302 digits
        with pytest.raises(ValueError, match=rf"quadrature grid {counts} has inf points, above the budget") as err:
            uniform_resolution(s2, lam, (96, 192), 1.0)
        assert len(str(err.value)) < 150

    @pytest.mark.parametrize(
        "name, h_name, coarse, fine, product",
        [
            ("s2", "height", (16, 32), (48, 96), True),
            ("s2xs2", "height_sum", (8, 10, 8, 10), (16, 32, 16, 32), True),
            ("s2xs2", "height_sum", (8, 10, 8, 10), (16, 32, 16, 32), False),
        ],
    )
    def test_negative_coupling_checked_as_its_magnitude(self, name, h_name, coarse, fine, product):
        # the integrand is even in lambda: -lambda is refused where lambda is, and agrees with it bit for bit
        spec = get_manifold(name)
        refusals = []
        for lam in (50.0, -50.0):
            with pytest.raises(ResolutionError) as err:
                partition_function(spec, h_name, lam, coarse, product)
            refusals.append(str(err.value))
        assert refusals[0] == refusals[1]
        plus, minus = (partition_function(spec, h_name, lam, fine, product) for lam in (1.0, -1.0))
        assert (plus.value.hex(), plus.error_bound.hex()) == (minus.value.hex(), minus.error_bound.hex())

    @pytest.mark.parametrize(
        "name, h_name, resolution",
        [("s2", "height", (16, 32, 8)), ("s2xs2", "height_sum", (8, 10, 8, 10, 4)), ("s2xs2", "height_sum", (8, 10, 8))],
    )
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_wrong_length_resolution_refused_whole(self, name, h_name, resolution, lam):
        # refused once, naming the whole tuple, directly, split over the factors and in both sweeps
        spec = get_manifold(name)
        message = re.escape(f"resolution needs {spec.dim} axis counts, got {resolution}")
        for product in (True, False):
            with pytest.raises(ValueError, match=message):
                partition_function(spec, h_name, lam, resolution, product)
        for adaptive in (True, False):
            with pytest.raises(ValueError, match=message):
                lambda_sweep(spec, h_name, [lam], resolution, adaptive)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_check_resolution_refuses_a_wrong_length(self, s2, lam):
        # the plan's refusal, not an IndexError from the axis loop
        with pytest.raises(ValueError, match=re.escape("resolution needs 2 axis counts, got (16, 32, 8)")):
            check_resolution(s2, lam, (16, 32, 8), 1.0)

    @pytest.mark.parametrize("resolution", [(96.7, 192.2), (48.9, "96"), (True, 192), (96.0, 192)])
    def test_non_integer_counts_refused(self, s2, resolution):
        # refused, not truncated to an integer grid, by every entry that takes a resolution
        message = re.escape(f"resolution must hold integer counts, got {resolution}")
        with pytest.raises(ValueError, match=message):
            partition_function(s2, None, 0.0, resolution)
        for adaptive in (True, False):
            with pytest.raises(ValueError, match=message):
                lambda_sweep(s2, "height", [0, 1], resolution, adaptive)
        with pytest.raises(ValueError, match=message):
            check_resolution(s2, 1.0, resolution, 1.0)

    def test_numpy_integer_counts_are_counts(self, s2):
        plain = partition_function(s2, "height", 1.0, (48, 96))
        numpy = partition_function(s2, "height", 1.0, (np.int64(48), np.int32(96)))
        assert (numpy.value.hex(), numpy.error_bound.hex()) == (plain.value.hex(), plain.error_bound.hex())

    def test_check_resolution_accepts_adaptive(self, flat_t2):
        mu = potential_stiffness(flat_t2, "coscos")
        res = uniform_resolution(flat_t2, 5.0, (48, 48), mu)
        check_resolution(flat_t2, 5.0, res, mu)


class TestSweep:
    def test_sphere_flatness_small(self, s2):
        sweep = lambda_sweep(s2, "height", [0.0, 1.0, 2.0], (64, 128))
        assert sweep.max_deviation < 1e-3
        assert sweep.max_deviation_from(2.0) < 1e-3

    def test_flat_torus_small(self, flat_t2):
        sweep = lambda_sweep(flat_t2, "coscos", [0.0, 1.0], (48, 48))
        assert sweep.max_deviation_from(0.0) < 1e-3

    def test_non_adaptive_keeps_base(self, s2):
        sweep = lambda_sweep(s2, "height", [0.0, 1.0], (48, 96), adaptive=False)
        assert all(r.resolution == (48, 96) for r in sweep.results)

    def test_ellipsoid_metric_independence(self, ellipsoid):
        # deformed metric and nonzero coupling still land on chi = 2
        sweep = lambda_sweep(ellipsoid, "height", [0.0, 3.0], (64, 128))
        assert sweep.max_deviation_from(2.0) < 1e-2

    def test_stiffness_computed_once_per_sweep(self, s2, monkeypatch):
        # the --no-adaptive sweep builds its unsampled plan once and takes the stiffness once;
        # the adaptive one its plan once and no stiffness
        from cgb import sigma

        calls = []
        for name in ("potential_stiffness", "_sweep_plan"):
            fn = getattr(sigma, name)
            monkeypatch.setattr(sigma, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
        fixed = lambda_sweep(s2, "height", [0.0, 1.0, 2.0], (48, 96), adaptive=False)
        assert calls == ["_sweep_plan", "potential_stiffness"]
        sweep = lambda_sweep(s2, "height", [0.0, 1.0, 2.0], (48, 96))
        assert calls == ["_sweep_plan", "potential_stiffness", "_sweep_plan"]
        monkeypatch.undo()
        for r in fixed.results + sweep.results:
            # every axis here keeps one Gauss-Legendre rule, so an explicit partition repeats it
            assert r.value == partition_function(s2, "height", r.lam, r.resolution).value

    def test_fixed_sweep_checks_each_coupling_once_on_a_split_product(self, s2xs2, monkeypatch):
        # the product's check over all four axes implies each factor's, so the factors are not checked again
        from cgb import sigma

        calls = []
        check = sigma.check_resolution
        monkeypatch.setattr(sigma, "check_resolution", lambda *args: calls.append(args[0].name) or check(*args))
        sweep = lambda_sweep(s2xs2, "height_sum", [0.0, 0.25, 0.5], (8, 16, 8, 16), adaptive=False)
        assert calls == ["s2xs2"] * 3
        assert all(r.resolution == (8, 16, 8, 16) for r in sweep.results)

    def test_long_run_is_split_at_the_point_budget(self, s2, monkeypatch):
        # a run holds at most MAX_GRID_POINTS values: five couplings on one 48 x 96 grid, at two grids' worth, go 2, 2, 1
        from cgb import sigma

        lams = (0.0, 0.5, 1.0, 1.5, 2.0)
        whole = lambda_sweep(s2, "height", lams, (48, 96), adaptive=False)
        runs = []
        integrand = sigma._integrand_on_points
        monkeypatch.setattr(sigma, "_integrand_on_points", lambda *args: runs.append(len(args[2])) or integrand(*args))
        monkeypatch.setattr(sigma, "MAX_GRID_POINTS", 2 * 48 * 96)
        split = lambda_sweep(s2, "height", lams, (48, 96), adaptive=False)
        assert runs == [2, 2, 1]
        assert [(r.value.hex(), r.error_bound.hex()) for r in split.results] == [
            (r.value.hex(), r.error_bound.hex()) for r in whole.results
        ]

    def test_budget_refusal_comes_after_the_runs_before_it(self, flat_t2, monkeypatch):
        # lambda = 1000 is refused for the point budget once lambda = 0 and 1 are integrated, each on its own grid
        from cgb import sigma

        runs = []
        integrand = sigma._integrand_on_points
        monkeypatch.setattr(sigma, "_integrand_on_points", lambda *args: runs.append(args[2]) or integrand(*args))
        message = "quadrature grid (5058, 5058) has 25583364 points, above the budget of 4096 per axis and 16777216 in all"
        with pytest.raises(ValueError, match=re.escape(message)):
            lambda_sweep(flat_t2, "coscos", (0.0, 1.0, 1000.0), (48, 48))
        assert runs == [(0.0,), (1.0,)]

    def test_split_product_refuses_at_the_first_coupling_that_fails(self, s2xs2):
        # the S^2 factor integrates lambda = 0 and nan in one run, and nan is not finite; the box factor's
        # curvature is not finite at lambda = 0, so one coupling at a time the box's refusal comes first
        box = constant_metric_spec((1.0, 1.0))
        box.quad_chart.metric.d2_metric = lambda x: np.full(np.shape(x)[:-1] + (2,) * 4, np.inf)
        box = dataclasses.replace(box, morse_catalog={"height": box.morse_catalog["h"]})
        product = dataclasses.replace(s2xs2, factors=(s2xs2.factors[0], box))
        with pytest.raises(ValueError) as alone:
            partition_function(box, "height", 0.0, (4, 4))
        with pytest.raises(ValueError) as err:
            lambda_sweep(product, "height_sum", (0.0, math.nan), (8, 10, 4, 4))
        assert str(err.value) == str(alone.value)

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_empty_coupling_list_refused(self, s2, adaptive):
        with pytest.raises(ValueError, match="lambda_sweep needs at least one coupling"):
            lambda_sweep(s2, "height", [], (16, 32), adaptive)

    def test_factorized_sweep_reuses_stiffness(self, s2xs2, monkeypatch):
        # each factor is planned once, on its own, and its graded rules serve its factor integrals
        from cgb import sigma

        calls = []
        plan = sigma._sweep_plan
        monkeypatch.setattr(sigma, "_sweep_plan", lambda *args: calls.append(args[0].name) or plan(*args))
        base = (8, 16, 8, 16)
        sweep = lambda_sweep(s2xs2, "height_sum", [0.0, 0.5, 1.0], base)
        assert calls == ["s2xs2", "s2", "s2"]
        monkeypatch.undo()
        f1, f2 = s2xs2.factors
        for r in sweep.results:
            z1, z2 = (lambda_sweep(f, "height", [r.lam], base[:2]).results[0] for f in (f1, f2))
            assert r.resolution == z1.resolution + z2.resolution
            assert r.value == z1.value * z2.value

    def test_perturbed_sphere_with_coupling(self, s2_perturbed):
        # both the metric and the potential deformed away from round: still flat
        sweep = lambda_sweep(s2_perturbed, "height", [0.0, 2.0], (96, 192))
        assert sweep.max_deviation_from(2.0) < 1e-2


# (manifold, potential, factor index or None): every catalog potential, s2_perturbed and each s2xs2 factor
GRADED_CASES = [
    ("s2", "height", None),
    ("ellipsoid", "height", None),
    ("torus", "height", None),
    ("flat_t2", "coscos", None),
    ("s2_perturbed", "height", None),
    ("s2xs2", "height_sum", 0),
    ("s2xs2", "height_sum", 1),
]


def graded_case(name, h_name, factor):
    spec = get_manifold(name)
    if factor is not None:
        spec, h_name = spec.factors[factor], spec.potential(h_name).factor_names[factor]
    return spec, h_name, (48, 48) if spec.name in ("torus", "flat_t2") else (48, 96)


def exact_grad_sq(spec, h_name, axes):
    """|grad h|^2_g on the tensor grid of 1-D ``axes`` (2-D charts), with the closed-form 2x2 inverse, as an array."""
    chart = spec.quad_chart
    h = spec.potential(h_name).on_chart(chart.name)
    rows = []
    for start in range(0, len(axes[0]), 64):
        block = TensorBlock(np.ix_(axes[0][start : start + 64], axes[1]))
        a, b = np.moveaxis(np.asarray(h.grad(block)), -1, 0)
        g = np.asarray(chart.metric.metric(block))
        g11, g12, g22 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
        rows.append(((g22 * a * a - 2 * g12 * a * b + g11 * b * b) / (g11 * g22 - g12 * g12)).reshape(-1, len(axes[1])))
    return np.concatenate(rows)


class TestGradedRules:
    @pytest.mark.parametrize("name, h_name, factor", GRADED_CASES)
    def test_graded_sweep_matches_the_uniform_rule(self, name, h_name, factor):
        # Z_uniform: partition_function at the uniform reference rule's counts (tests/localization_oracle.py)
        spec, h_name, base = graded_case(name, h_name, factor)
        mu = potential_stiffness(spec, h_name)
        for r in lambda_sweep(spec, h_name, (1, 2, 5, 10), base).results:
            uniform = partition_function(spec, h_name, r.lam, uniform_resolution(spec, r.lam, base, mu))
            assert abs(r.value - uniform.value) <= 1e-6, (r.lam, r.resolution, uniform.resolution)

    @pytest.mark.parametrize("name", ["s2", "ellipsoid", "torus", "flat_t2", "s2_perturbed"])
    def test_exclusion_bound_holds_on_a_denser_sample(self, name):
        # a reference sample 8 times denser than the plan's, with |grad h|^2_g computed exactly,
        # finds no point of a cell slab below the plan's bound, so none of an excluded one below the threshold
        spec = get_manifold(name)
        h_name = next(iter(spec.morse_catalog))
        plan = sigma._sweep_plan(spec, h_name, (48, 96))
        dense = [np.linspace(e[0], e[-1], 8 * (len(e) - 1) + 1) for e in plan.edges]
        with np.errstate(divide="ignore"):
            exact = exact_grad_sq(spec, h_name, dense)
        excluded_somewhere = False
        for k in range(2):
            along = exact.min(axis=1 - k)
            cell_min = np.minimum(along[:-1].reshape(-1, 8).min(axis=1), along[8::8])
            assert np.all(plan.grad_sq[k] <= cell_min)
            for lam in (5.0, 10.0, 50.0, 100.0):
                excluded = 0.5 * lam**2 * plan.grad_sq[k] > sigma._EXCLUDED
                assert np.all(0.5 * lam**2 * cell_min[excluded] > sigma._EXCLUDED)
                excluded_somewhere |= bool(np.any(excluded))
        # the jets route (s2_perturbed) has no closed-form bound on its metric, so it excludes nothing
        assert excluded_somewhere == (name != "s2_perturbed")

    def test_refined_axes_take_rules_of_at_most_64_nodes(self, monkeypatch):
        sizes = []
        rule = manifolds._legendre_rule
        monkeypatch.setattr(manifolds, "_legendre_rule", lambda n: sizes.append(n) or rule(n))
        for name, h_name, lams, base in (
            ("flat_t2", "coscos", (0, 1, 2, 5, 10), (48, 48)),
            ("s2", "height", (5, 10, 50, 100), (96, 192)),
        ):
            sizes.clear()
            sweep = lambda_sweep(get_manifold(name), h_name, lams, base)
            # some axis is refined past one panel
            assert any(count > max(64, b) for r in sweep.results for count, b in zip(r.resolution, base))
            assert sizes and all(n <= 64 or n in base for n in sizes), sorted(set(sizes))

    def test_factorized_sweep_plans_each_factor_within_the_budget(self, s2xs2):
        # the product's 4-D adaptive grid (51, 101, 51, 101) would be above the point budget;
        # each factor's own grid is not
        sweep = lambda_sweep(s2xs2, "height_sum", (0, 1, 2), (16, 20, 16, 20))
        assert sweep.max_deviation_from(4.0) < 1e-2
        assert [r.resolution for r in sweep.results] == [(16, 20, 16, 20), (26, 20, 26, 20), (51, 20, 51, 20)]

    def test_unsplit_potential_keeps_the_4d_budget(self, s2xs2):
        # the same height sum declared without its factors is planned and budgeted on the 4-D grid
        joint = dataclasses.replace(s2xs2.potential("height_sum"), factor_names=None)
        spec = dataclasses.replace(s2xs2, morse_catalog={"joint": joint})
        with pytest.raises(ValueError, match=r"quadrature grid \(\d+, 20, \d+, 20\) has \d+ points, above the budget"):
            lambda_sweep(spec, "joint", (0.0, 10.0), (16, 20, 16, 20))
        assert lambda_sweep(s2xs2, "height_sum", (10.0,), (16, 20, 16, 20)).max_deviation_from(4.0) < 1e-2

    @pytest.mark.parametrize("name, h_name", [("s2", "height"), ("torus", "height")])
    def test_sweeps_to_lambda_100_land_on_chi(self, name, h_name):
        spec = get_manifold(name)
        sweep = lambda_sweep(spec, h_name, (50.0, 100.0), (48, 96) if name == "s2" else (48, 48))
        assert sweep.max_deviation_from(spec.euler_char) < 1e-2

    def test_no_potential_keeps_the_base_grid(self, s2):
        # with h = 0 the integrand has no bump: every coupling takes the base grid and the lambda-0 value
        sweep = lambda_sweep(s2, None, (0.0, 5.0, 50.0), (48, 96))
        assert {(r.resolution, r.value) for r in sweep.results} == {((48, 96), partition_function(s2, None, 0.0, (48, 96)).value)}


class TestLocalization:
    def test_mass_concentrates(self, s2):
        # criterion 7's grid, mass and first five local indices, pinned bit for bit
        resolution = uniform_resolution(s2, 10.0, (96, 192), potential_stiffness(s2, "height"))
        assert resolution == (252, 503)
        mass = localization_mass(s2, "height", 10.0, 0.5, resolution, distance_to_poles(1.0))
        assert mass >= 0.99 and mass.hex() == "0x1.ffff08217b6efp-1"
        # at lambda = 0 the density is spread over the whole sphere
        spread = localization_mass(s2, "height", 0.0, 0.5, (96, 192), distance_to_poles(1.0))
        assert spread < 0.5 and spread.hex() == "0x1.f836ad010e717p-4"
        rng = np.random.default_rng(77)
        values = []
        while len(values) < 5:
            mat = rng.normal(size=(2, 2))
            hessian = 0.5 * (mat + mat.T)
            if np.min(np.abs(np.linalg.eigvalsh(hessian))) >= 0.3:
                values.append(local_index(hessian, 40.0, 1.0).hex())
        assert values == [(-1.0).hex(), (1.0).hex(), (-1.0).hex(), (1.0).hex(), (1.0).hex()]

    def test_local_index_numeric_oracle(self):
        # quadrature oracle over the eigen-axis box at moderate coupling
        rng = np.random.default_rng(15)
        lam, radius = 3.0, 1.0
        for _ in range(5):
            mat = rng.normal(size=(2, 2))
            hess = 0.5 * (mat + mat.T)
            if abs(np.linalg.det(hess)) < 0.05:
                continue
            eigvals = np.linalg.eigvalsh(hess)
            nodes, weights = np.polynomial.legendre.leggauss(120)
            total = 1.0
            for mu in eigvals:
                x = radius * nodes
                w = radius * weights
                total *= float(np.sum(w * lam * abs(mu) * np.exp(-0.5 * (lam * mu * x) ** 2)))
            total /= (2 * math.pi) ** (len(eigvals) / 2) / 1.0
            oracle = math.copysign(total, np.linalg.det(hess))
            assert local_index(hess, lam, radius) == pytest.approx(oracle, abs=1e-6)
