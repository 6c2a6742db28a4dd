"""Metric jets, Christoffel symbols, curvature, Hessians, and the biforms."""

import math

import numpy as np
import pytest

from cgb import manifolds
from cgb.geometry import (
    ChartMetric,
    CurvatureFrame,
    DomainError,
    ScalarField,
    christoffel_tensors,
    covariant_hessian,
    curvature_biform,
    induced_curvature,
    pair_biform,
    riemann_tensor,
)
from cgb.grassmann import GrassmannElement, berezin, exp_even
from cgb.manifolds import quadrature_grid
from cgb.sigma import reduce_auxiliary_field


def frame_at(chart, x):
    return CurvatureFrame.from_chart(chart, np.asarray(x, dtype=float))


def euclidean_chart(n=2, box=2.0):
    return ChartMetric(
        n,
        [[-box, box]] * n,
        lambda x: np.broadcast_to(np.eye(n), np.shape(x)[:-1] + (n, n)).copy(),
        lambda x: np.zeros(np.shape(x)[:-1] + (n, n, n)),
        lambda x: np.zeros(np.shape(x)[:-1] + (n, n, n, n)),
        name="euclidean",
    )


def sphere_chart():
    def metric(x):
        th = np.asarray(x, dtype=float)[..., 0]
        g = np.zeros(np.shape(th) + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(th) ** 2
        return g

    def d_metric(x):
        th = np.asarray(x, dtype=float)[..., 0]
        out = np.zeros(np.shape(th) + (2, 2, 2))
        out[..., 0, 1, 1] = np.sin(2 * th)
        return out

    def d2_metric(x):
        th = np.asarray(x, dtype=float)[..., 0]
        out = np.zeros(np.shape(th) + (2, 2, 2, 2))
        out[..., 0, 0, 1, 1] = 2 * np.cos(2 * th)
        return out

    return ChartMetric(2, [[1e-6, math.pi - 1e-6], [0, 2 * math.pi]], metric, d_metric, d2_metric)


def conformal_chart():
    """e^{2u(x)} delta on R^2 with u = a x + b y; closed-form Christoffels."""
    a, b = 0.7, -0.4
    du = np.array([a, b])

    def metric(x):
        x = np.asarray(x, dtype=float)
        factor = np.exp(2 * (a * x[..., 0] + b * x[..., 1]))
        return factor[..., None, None] * np.eye(2)

    def d_metric(x):  # d_k g = 2 u_k g
        return 2 * du[:, None, None] * metric(x)[..., None, :, :]

    def d2_metric(x):  # d_k d_l g = 4 u_k u_l g
        return 4 * np.multiply.outer(du, du)[:, :, None, None] * metric(x)[..., None, None, :, :]

    return ChartMetric(2, [[-1, 1], [-1, 1]], metric, d_metric, d2_metric), (a, b)


class TestChristoffel:
    def test_euclidean_vanishes(self):
        frame = frame_at(euclidean_chart(), np.zeros(2))
        assert np.allclose(frame.gamma_second, 0)

    def test_sphere_golden_values(self):
        th = 1.1
        second = frame_at(sphere_chart(), [th, 0.3]).gamma_second
        assert second[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th), abs=1e-12)
        assert second[1, 0, 1] == pytest.approx(math.cos(th) / math.sin(th), abs=1e-12)
        assert second[1, 1, 0] == pytest.approx(math.cos(th) / math.sin(th), abs=1e-12)
        assert second[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_conformal_closed_form(self):
        # Gamma^k_ij = d_i u delta^k_j + d_j u delta^k_i - d^k u delta_ij
        chart, (a, b) = conformal_chart()
        second = frame_at(chart, [0.2, -0.3]).gamma_second
        du = np.array([a, b])
        expected = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    expected[k, i, j] = (
                        du[i] * (k == j) + du[j] * (k == i) - du[k] * (i == j)
                    )
        assert np.allclose(second, expected, atol=1e-12)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            frame_at(sphere_chart(), [4.0, 0.0])
        with pytest.raises(DomainError):
            frame_at(sphere_chart(), [1.0, 0.0, 0.0])

    def test_contains_is_batched(self):
        chart = sphere_chart()
        pts = np.array([[1.0, 0.0], [4.0, 0.0], [1e-6 - 1e-13, 2 * math.pi], [1.0, -1e-11]])
        assert chart.contains(pts).tolist() == [True, False, True, False]
        assert chart.contains(pts.reshape(2, 2, 2)).shape == (2, 2)


class TestRiemann:
    def test_flat_vanishes(self):
        assert np.allclose(frame_at(euclidean_chart(), np.zeros(2)).riemann, 0)

    def test_sphere_golden_value(self):
        th = 0.9
        r = frame_at(sphere_chart(), [th, 1.0]).riemann
        assert r[0, 1, 0, 1] == pytest.approx(math.sin(th) ** 2, rel=1e-12)
        # Gauss curvature K = R_1212 / det g = 1
        assert r[0, 1, 0, 1] / math.sin(th) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_finite_difference_oracle(self):
        # the hand-written jets against sympy's derivatives of the same metric
        import sympy as sp

        from sympy_oracle import chart_from_metric_exprs

        th, ph = sp.symbols("th ph", real=True)
        chart = sphere_chart()
        oracle = chart_from_metric_exprs("oracle", (th, ph), sp.diag(1, sp.sin(th) ** 2), chart.domain)
        for x in ([1.2, 0.5], [0.3, 4.0], [2.9, 1.7]):
            ours, ref = frame_at(chart, x), frame_at(oracle, x)
            assert np.max(np.abs(ours.gamma_second - ref.gamma_second)) <= 1e-12
            assert np.max(np.abs(ours.riemann - ref.riemann)) <= 1e-12

    def test_symmetries_and_bianchi_on_catalog(self, full_catalog):
        rng = np.random.default_rng(5)
        for spec in full_catalog:
            chart = spec.quad_chart
            lo, hi = chart.quad_domain[:, 0], chart.quad_domain[:, 1]
            for _ in range(200):
                x = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=chart.dim)
                frame = CurvatureFrame.from_chart(chart.metric, x)
                assert max(frame.symmetry_residuals().values()) < 1e-10, spec.name

    def test_product_block_structure(self, s2xs2):
        chart = s2xs2.quad_chart.metric
        x = np.array([1.0, 0.5, 2.0, 1.5])
        r = frame_at(chart, x).riemann
        block1, block2 = (0, 1), (2, 3)
        for idx in np.ndindex(4, 4, 4, 4):
            in1 = all(i in block1 for i in idx)
            in2 = all(i in block2 for i in idx)
            if not (in1 or in2):
                assert r[idx] == pytest.approx(0.0, abs=1e-12)
        assert r[0, 1, 0, 1] == pytest.approx(math.sin(1.0) ** 2, rel=1e-9)
        assert r[2, 3, 2, 3] == pytest.approx(math.sin(2.0) ** 2, rel=1e-9)

    def test_frame_validation(self):
        frame = frame_at(sphere_chart(), [1.0, 0.0])
        assert max(frame.symmetry_residuals().values()) <= 1e-10
        bad = CurvatureFrame(
            x=frame.x,
            g=frame.g,
            g_inv=frame.g_inv,
            det_g=frame.det_g,
            gamma_second=frame.gamma_second,
            riemann=frame.riemann + 1e-3,
        )
        assert max(bad.symmetry_residuals().values()) > 1e-6


# every chart whose metric is induced by its embedding
INDUCED_SPECS = {
    "s2": lambda: manifolds.sphere(1.0),
    "s2-r0.8": lambda: manifolds.sphere(0.8),
    "s2-r1.25": lambda: manifolds.sphere(1.25),
    "ellipsoid": manifolds.ellipsoid,
    "torus": manifolds.torus,
    "s2xs2": manifolds.product_of_spheres,
}


def induced_test_points(spec, rng):
    """Random interior points, then the rows of the (64, 128) grid nearest the caps, per factor."""
    factors = spec.factors or (spec,)
    blocks = []
    for factor in factors:
        dom = factor.quad_chart.quad_domain
        grid = quadrature_grid(factor, (64, 128)).points.reshape(64, 128, 2)
        edge = np.concatenate([grid[:2], grid[-2:]]).reshape(-1, 2)
        inner = rng.uniform(dom[:, 0], dom[:, 1], size=(200, 2))
        blocks.append(np.concatenate([inner, edge[rng.permutation(len(edge))]]))
    return np.concatenate(blocks, axis=-1)


def random_embedded_chart(n, m, rng):
    """Chart of a random TrigEmbedding R^n -> R^m: three mixed sin/cos products per component."""
    components = [
        [(float(rng.normal()), tuple(int(f) for f in rng.integers(0, 3, size=n))) for _ in range(3)]
        for _ in range(m)
    ]
    embedding = manifolds.TrigEmbedding(components, tuple(rng.uniform(0.5, 1.5, size=n)))
    return manifolds.embedded_chart("random", embedding, [[-3.0, 3.0]] * n)


def assert_routes_agree(metric, pts, label):
    """Gamma and R from the jets and from the Gauss equation agree to 1e-11 max(1, |ref|); returns R."""
    g = metric.metric(pts)
    g_inv = np.linalg.inv(g)
    gamma2 = christoffel_tensors(g_inv, metric.d_metric(pts))
    riem = riemann_tensor(g, metric.d2_metric(pts), gamma2)
    dx, d2x = metric.embedding.derivatives(pts, [1, 2])
    assert np.max(np.abs(dx @ np.swapaxes(dx, -1, -2) - g)) <= 1e-12 * np.max(np.abs(g))
    got_gamma, got_riem = induced_curvature(dx, d2x, g_inv)
    for got, ref in ((got_gamma, gamma2), (got_riem, riem)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref))), label
    return riem


class TestInducedCurvature:
    """The Gauss-equation route against the jets route on every induced chart."""

    @pytest.mark.parametrize("name", INDUCED_SPECS)
    def test_matches_jets_route(self, name):
        spec = INDUCED_SPECS[name]()
        pts = induced_test_points(spec, np.random.default_rng(21))
        for chart in spec.charts.values():
            assert chart.metric.embedding is not None, chart.name
            assert_routes_agree(chart.metric, pts, chart.name)

    @pytest.mark.parametrize("n, m", [(3, 6), (4, 8)])
    def test_random_embedding_matches_jets_route(self, n, m):
        # a full metric, so R has components with three and four distinct indices
        rng = np.random.default_rng(40 + n)
        metric = random_embedded_chart(n, m, rng)
        pts = rng.uniform(-3.0, 3.0, size=(400, n))
        eig = np.linalg.eigvalsh(metric.metric(pts))
        pts = pts[eig[:, 0] > 1e-2 * eig[:, -1]]  # well-conditioned g only
        assert len(pts) >= 200
        assert np.min(np.abs(metric.metric(pts)[:, 0, 1])) > 0.0
        riem = assert_routes_agree(metric, pts, f"random {n}-D")
        assert np.max(np.abs(riem[:, 0, 1, 0, 2])) > 0.1
        if n == 4:
            assert np.max(np.abs(riem[:, 0, 1, 2, 3])) > 0.1

    def test_unit_sphere_sign(self):
        th = 0.9
        chart = manifolds.sphere(1.0).charts["polar"].metric
        x = np.array([[th, 1.0]])
        dx, d2x = chart.embedding.derivatives(x, [1, 2])
        g_inv = np.linalg.inv(chart.metric(x))
        gamma2, riem = induced_curvature(dx, d2x, g_inv)
        assert riem[0, 0, 1, 0, 1] == pytest.approx(math.sin(th) ** 2, rel=1e-14)
        assert gamma2[0, 1, 0, 1] == pytest.approx(math.cos(th) / math.sin(th), rel=1e-14)


def height_field():
    return ScalarField(
        lambda x: np.cos(x[..., 0]),
        lambda x: np.stack([-np.sin(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1),
        lambda x: np.stack(
            [
                np.stack([-np.cos(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1),
                np.stack([np.zeros_like(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1),
            ],
            axis=-2,
        ),
    )


class TestHessian:
    def test_flat_quadratic(self):
        h = ScalarField(
            lambda x: 0.5 * float(x @ x),
            lambda x: np.asarray(x, dtype=float),
            lambda x: np.eye(2),
        )
        x = np.array([0.3, -0.4])
        assert np.allclose(covariant_hessian(frame_at(euclidean_chart(), x), h.grad(x), h.hess(x)), np.eye(2))

    def test_constant_potential(self):
        h = ScalarField(lambda x: 1.0, lambda x: np.zeros(2), lambda x: np.zeros((2, 2)))
        x = np.array([1.0, 2.0])
        assert np.allclose(covariant_hessian(frame_at(sphere_chart(), x), h.grad(x), h.hess(x)), 0)

    def test_sphere_equator_fd_oracle(self):
        # compare against a finite-difference covariant Hessian
        chart = sphere_chart()
        h = height_field()
        x = np.array([math.pi / 2, 0.8])
        frame = frame_at(chart, x)
        analytic = covariant_hessian(frame, h.grad(x), h.hess(x))
        step = 1e-5
        fd = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for si in (+1, -1):
                    for sj in (+1, -1):
                        y = x.copy()
                        y[i] += si * step
                        y[j] += sj * step
                        fd[i, j] += si * sj * h(y)
        fd /= 4 * step**2
        # the coordinate-Hessian stencil still needs the Gamma correction
        fd_cov = fd - np.einsum("kij,k->ij", frame.gamma_second, h.grad(x))
        assert np.allclose(analytic, fd_cov, atol=1e-5)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        chart = sphere_chart()
        h = height_field()
        for _ in range(20):
            x = np.array([rng.uniform(0.3, 2.8), rng.uniform(0, 6.2)])
            out = covariant_hessian(frame_at(chart, x), h.grad(x), h.hess(x))
            assert np.max(np.abs(out - out.T)) < 1e-10

    def test_gamma_term_drops_at_critical_point(self):
        # where grad h = 0 the covariant and raw Hessians coincide
        frame = frame_at(sphere_chart(), [1.0, 1.0])
        raw = np.array([[1.0, 0.2], [0.2, -0.5]])
        assert np.allclose(covariant_hessian(frame, np.zeros(2), raw), raw)


class TestGradientNormSq:
    # |grad h|_g^2 reaches Z through det(g)^(-1/2) exp(-lambda^2 |grad h|_g^2 / 2)
    def test_constant(self):
        h = ScalarField(lambda x: 1.0, lambda x: np.zeros(2), lambda x: np.zeros((2, 2)))
        x = np.zeros(2)
        assert reduce_auxiliary_field(frame_at(euclidean_chart(), x), h.grad(x), 3.0) == 1.0

    def test_flat_coordinate(self):
        h = ScalarField(
            lambda x: x[..., 0], lambda x: np.array([1.0, 0.0]), lambda x: np.zeros((2, 2))
        )
        x = np.array([0.5, 0.5])
        value = reduce_auxiliary_field(frame_at(euclidean_chart(), x), h.grad(x), 2.0)
        assert value == pytest.approx(math.exp(-2.0), rel=1e-14)


class TestBiforms:
    def test_flat_biform_vanishes(self):
        frame = CurvatureFrame.from_chart(euclidean_chart(), np.zeros(2))
        assert curvature_biform(frame).terms == {}

    def test_scaling_linearity(self):
        # R built from c*g scales by c, so the biform scales linearly in c
        frame1 = CurvatureFrame.from_chart(sphere_chart(), np.array([1.0, 0.5]))
        c = 3.0

        def scaled(chart):
            base = sphere_chart()
            return ChartMetric(
                2,
                base.domain,
                lambda x: c * base.metric(x),
                lambda x: c * base.d_metric(x),
                lambda x: c * base.d2_metric(x),
            )

        frame_c = CurvatureFrame.from_chart(scaled(None), np.array([1.0, 0.5]))
        b1 = curvature_biform(frame1)
        bc = curvature_biform(frame_c)
        for mask, coeff in b1.terms.items():
            assert bc.coefficient(mask) == pytest.approx(c * coeff, rel=1e-12)

    def test_exhaustive_index_sum_oracle(self):
        # brute-force the quadruple sum with explicit generator products
        rng = np.random.default_rng(8)
        n = 2
        r = rng.normal(size=(n, n, n, n))
        # impose the pair symmetries so the frame is a plausible curvature
        r = r - r.transpose(1, 0, 2, 3)
        r = r - r.transpose(0, 1, 3, 2)
        r = r + r.transpose(2, 3, 0, 1)
        frame = CurvatureFrame(
            x=np.zeros(n),
            g=np.eye(n),
            g_inv=np.eye(n),
            det_g=1.0,
            gamma_second=np.zeros((n, n, n)),
            riemann=r,
        )
        from cgb.geometry import CURVATURE_BIFORM_SIGN
        from cgb.grassmann import multiply

        expected = GrassmannElement.zero(2 * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        mono = multiply(
                            multiply(
                                GrassmannElement.generator(2 * n, 2 * i),
                                GrassmannElement.generator(2 * n, 2 * j + 1),
                            ),
                            multiply(
                                GrassmannElement.generator(2 * n, 2 * k),
                                GrassmannElement.generator(2 * n, 2 * l + 1),
                            ),
                        )
                        expected = expected + (CURVATURE_BIFORM_SIGN * r[i, j, k, l]) * mono
        assert curvature_biform(frame).isclose(expected, 1e-12)

    def test_biform_even_no_scalar(self):
        frame = CurvatureFrame.from_chart(sphere_chart(), np.array([0.7, 0.2]))
        biform = curvature_biform(frame)
        assert biform.is_even()
        assert biform.scalar_part == 0

    def test_pair_biform_determinant_identity(self):
        # berezin(exp(lam * pair_biform(H))) = lam^n det H
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            h = rng.normal(size=(n, n))
            h = 0.5 * (h + h.T)
            lam = 1.3
            top = berezin(exp_even(lam * pair_biform(h)), range(2 * n))
            assert top == pytest.approx(lam**n * np.linalg.det(h), rel=1e-10)

    def test_sphere_density_calibration(self):
        # berezin(exp(-biform/2)) / sqrt(det g) = sin(theta) on the unit sphere
        th = 1.234
        frame = CurvatureFrame.from_chart(sphere_chart(), np.array([th, 0.0]))
        top = berezin(exp_even(-0.5 * curvature_biform(frame)), range(4))
        assert top / math.sqrt(frame.det_g) == pytest.approx(math.sin(th), rel=1e-12)
