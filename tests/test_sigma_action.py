"""The sigma-model action: two independent computation routes must agree."""

import math

import numpy as np
import pytest

from cgb.geometry import CurvatureFrame, MetricJets, curvature_biform
from cgb.grassmann import GrassmannElement, permutation_sign
from cgb.sigma import (
    ACTION_CURVATURE_COUPLING,
    ComponentField,
    action_coordinate,
    action_geometric,
    check_action_equivalence,
)


def degree_part(element, degree):
    """The terms of ``element`` on monomials of ``degree`` generators."""
    kept = {m: c for m, c in element.terms.items() if m.bit_count() == degree}
    return GrassmannElement(element.generator_count, kept)


def random_jets(rng, n):
    a = rng.normal(size=(n, n))
    g = a @ a.T + n * np.eye(n)
    dg = rng.normal(size=(n, n, n))
    dg = 0.5 * (dg + dg.transpose(0, 2, 1))
    d2g = rng.normal(size=(n, n, n, n))
    d2g = 0.5 * (d2g + d2g.transpose(0, 1, 3, 2))
    d2g = 0.5 * (d2g + d2g.transpose(1, 0, 2, 3))
    return MetricJets(g, dg, d2g)


def sphere_jets(th):
    g = np.diag([1.0, math.sin(th) ** 2])
    dg = np.zeros((2, 2, 2))
    dg[0, 1, 1] = math.sin(2 * th)
    d2g = np.zeros((2, 2, 2, 2))
    d2g[0, 0, 1, 1] = 2 * math.cos(2 * th)
    return MetricJets(g, dg, d2g)


class TestTwoRouteEquivalence:
    def test_random_jets_both_dimensions(self):
        # mechanizes the raw-expansion-to-curvature derivation wholesale
        rng = np.random.default_rng(2024)
        worst = check_action_equivalence(rng, dims=(2, 3), samples=30)
        assert worst < 1e-9

    def test_fault_injection_is_detected(self):
        rng = np.random.default_rng(5)
        worst = check_action_equivalence(rng, dims=(2,), samples=5, fault_flip=True)
        assert worst > 1e-3

    def test_fault_injection_value_pinned(self):
        # the planted fault (-d2g on the coordinate route) gives the same discrepancy, to the bit
        worst = check_action_equivalence(np.random.default_rng(5), dims=(2,), samples=5, fault_flip=True)
        assert worst.hex() == "0x1.6289d52fcf1e7p+0"

    def test_potential_route_matches(self):
        # the raw-jet potential (through E) equals the covariant-Hessian one
        rng = np.random.default_rng(77)
        jets = random_jets(rng, 2)
        hess = rng.normal(size=(2, 2))
        cf = ComponentField(
            x=np.zeros(2),
            F=rng.normal(size=2),
            lam=1.7,
            h_grad=rng.normal(size=2),
            h_hess=0.5 * (hess + hess.T),
        )
        lhs = action_coordinate(jets, cf)
        rhs = action_geometric(CurvatureFrame.from_jets(np.zeros(2), jets), cf)
        assert lhs.isclose(rhs, 1e-10)


class TestActionStructure:
    def test_flat_no_potential_is_pure_kinetic_scalar(self):
        n = 2
        jets = MetricJets(np.eye(n), np.zeros((n, n, n)), np.zeros((n, n, n, n)))
        F = np.array([0.7, -0.2])
        cf = ComponentField(x=np.zeros(n), F=F)
        for action in (
            action_coordinate(jets, cf),
            action_geometric(CurvatureFrame.from_jets(np.zeros(n), jets), cf),
        ):
            assert action == GrassmannElement.scalar(2 * n, pytest.approx(0.5 * float(F @ F)))

    def test_zero_field_zero_coupling_leaves_curvature_only(self):
        jets = sphere_jets(1.1)
        frame = CurvatureFrame.from_jets(np.array([1.1, 0.0]), jets)
        cf = ComponentField(x=frame.x, F=np.zeros(2), lam=0.0)
        action = action_geometric(frame, cf)
        assert action.isclose(ACTION_CURVATURE_COUPLING * curvature_biform(frame), 1e-12)
        assert action.scalar_part == 0
        assert degree_part(action, 2).terms == {}

    def test_sphere_quartic_coefficient(self):
        # the quartic part carries + R_{theta phi theta phi} on the top monomial
        th = math.pi / 3
        jets = sphere_jets(th)
        cf = ComponentField(x=np.array([th, 0.0]), F=np.zeros(2))
        action = action_coordinate(jets, cf)
        assert action.coefficient(0b1111) == pytest.approx(math.sin(th) ** 2, rel=1e-12)

    def test_flat_metric_with_potential(self):
        # flat kinetic term plus the Hessian coupling only
        n = 2
        jets = MetricJets(np.eye(n), np.zeros((n, n, n)), np.zeros((n, n, n, n)))
        rng = np.random.default_rng(3)
        hess = rng.normal(size=(n, n))
        hess = 0.5 * (hess + hess.T)
        grad = rng.normal(size=n)
        F = rng.normal(size=n)
        lam = 2.5
        cf = ComponentField(x=np.zeros(n), F=F, lam=lam, h_grad=grad, h_hess=hess)
        action = action_coordinate(jets, cf)
        assert action.scalar_part == pytest.approx(0.5 * float(F @ F) - lam * float(grad @ F))
        from cgb.geometry import pair_biform

        expected_quadratic = -lam * pair_biform(hess)
        assert degree_part(action, 2).isclose(expected_quadratic, 1e-12)
        assert degree_part(action, 4).terms == {}

    def test_action_is_even(self):
        rng = np.random.default_rng(9)
        jets = random_jets(rng, 3)
        cf = ComponentField(
            x=np.zeros(3),
            F=rng.normal(size=3),
            lam=0.4,
            h_grad=rng.normal(size=3),
            h_hess=np.eye(3),
        )
        assert action_coordinate(jets, cf).is_even()


class TestCoordinateGenerators:
    @pytest.mark.parametrize("n", [2, 3])
    def test_quartics_match_permutation_rule_without_biform_table(self, n, monkeypatch):
        # the coordinate route keeps its own signs: it builds them with the
        # biform table unreachable, and they match the cycle-decomposition rule
        from cgb import geometry, sigma

        def unreachable(n):
            raise AssertionError("the coordinate route read biform_monomials")

        monkeypatch.setattr(geometry, "biform_monomials", unreachable)
        monkeypatch.setattr(sigma, "biform_monomials", unreachable)
        sigma._coordinate_generators.cache_clear()
        phi1, phi2, quartics = sigma._coordinate_generators(n)
        assert [p.terms for p in phi1] == [{1 << (2 * i): 1} for i in range(n)]
        assert [p.terms for p in phi2] == [{1 << (2 * i + 1): 1} for i in range(n)]
        for (k, l, i, j), mono in quartics.items():
            order = [2 * l + 1, 2 * k, 2 * i, 2 * j + 1]
            if len(set(order)) < 4:
                assert mono.terms == {}
                continue
            ranks = {g: r for r, g in enumerate(sorted(order))}
            sign = permutation_sign([ranks[g] for g in order])
            assert mono.terms == {sum(1 << g for g in order): sign}
