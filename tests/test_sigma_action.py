"""The sigma-model action: two independent computation routes must agree."""

import dataclasses
import math

import numpy as np
import pytest
from action_oracle import multiply_path_action

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

    def test_random_jets_value_pinned(self):
        # the worst discrepancy of the seeded check, to the bit
        worst = check_action_equivalence(np.random.default_rng(2024), dims=(2, 3), samples=30)
        assert worst.hex() == "0x1.0000000000000p-48"

    def test_fault_injection_value_pinned(self):
        # the planted fault (-d2g on the coordinate route) gives the same discrepancy, to the bit
        worst = check_action_equivalence(np.random.default_rng(5), dims=(2,), samples=5, fault_flip=True)
        assert worst.hex() == "0x1.6289d52fcf1e7p+0"

    def test_random_jets_four_dimensions(self):
        # the check at n = 4, where the quartics have four distinct phi_1 indices to pair
        worst = check_action_equivalence(np.random.default_rng(2024), dims=(4,), samples=10)
        assert worst < 1e-9

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


# action_coordinate's full term map, as (mask, float.hex) pairs, for the jets and
# fields of pinned_action_inputs(n); a change to the order of its float additions shows here
COORDINATE_ACTION_BITS = {
    2: (
        (0x0000, "0x1.0981b9d74b22cp+3"), (0x0003, "0x1.72e615a29e54ap-3"), (0x0006, "-0x1.b38d813f5e47fp-1"),
        (0x0009, "0x1.b38d813f5e480p-1"), (0x000c, "-0x1.aff7cd7d7774ep+1"), (0x000f, "0x1.df61b1a7685e0p-1"),
    ),
    3: (
        (0x0000, "0x1.53abe1e585148p+2"), (0x0003, "0x1.abc84d1381facp-2"), (0x0006, "0x1.2eabe8a3bf979p-5"),
        (0x0009, "-0x1.2eabe8a3bf989p-5"), (0x000c, "0x1.4e3e77cf3b822p+0"), (0x000f, "0x1.dafe4d8e09668p-2"),
        (0x0012, "-0x1.f380c8e8ae8dfp-3"), (0x0018, "-0x1.a076ebb18b5f2p+0"), (0x001b, "0x1.fcf4a36b106dep-2"),
        (0x001e, "0x1.64f1f86c020abp-1"), (0x0021, "0x1.f380c8e8ae8e3p-3"), (0x0024, "0x1.a076ebb18b5f2p+0"),
        (0x0027, "-0x1.fcf4a36b106e0p-2"), (0x002d, "-0x1.64f1f86c020aap-1"), (0x0030, "0x1.340085e84181ep+0"),
        (0x0033, "0x1.9fd8d6b0807cap-3"), (0x0036, "-0x1.f5ddc171aa7d2p-3"), (0x0039, "0x1.f5ddc171aa7d6p-3"),
        (0x003c, "-0x1.51f51f8016acap-5"),
    ),
    4: (
        (0x0000, "0x1.c157bb3ffb299p+2"), (0x0003, "-0x1.5057b80a9739bp+0"), (0x0006, "-0x1.1e991e66e665ap-1"),
        (0x0009, "0x1.1e991e66e665ap-1"), (0x000c, "-0x1.20c1d92db1c4ep+0"), (0x000f, "0x1.bead454bca7c7p-2"),
        (0x0012, "-0x1.d44efe99977b6p-2"), (0x0018, "0x1.0944be08f6a35p-1"), (0x001b, "0x1.4ffbd2ebfb716p-1"),
        (0x001e, "-0x1.26c7b500f1d50p+0"), (0x0021, "0x1.d44efe99977b4p-2"), (0x0024, "-0x1.0944be08f6a35p-1"),
        (0x0027, "-0x1.4ffbd2ebfb712p-1"), (0x002d, "0x1.26c7b500f1d4fp+0"), (0x0030, "0x1.b955d6c77a5d6p-2"),
        (0x0033, "0x1.f78817900437ap-2"), (0x0036, "-0x1.42fc3646d6d25p+0"), (0x0039, "0x1.42fc3646d6d25p+0"),
        (0x003c, "-0x1.991ee9c25fbeep-2"), (0x0042, "0x1.a7a7a73129d45p-2"), (0x0048, "0x1.04c1554f7c184p-1"),
        (0x004b, "0x1.75abacb94937dp-5"), (0x004e, "-0x1.1fc21b89bb2c7p-2"), (0x005a, "-0x1.2a6cf61082d6bp-1"),
        (0x0060, "-0x1.4e8f08143b0eap-1"), (0x0063, "0x1.f391476f97582p-1"), (0x0066, "0x1.468bcfa560e80p-2"),
        (0x0069, "0x1.0e4e1c7ba4c56p-2"), (0x006c, "-0x1.57f9e59da8808p+0"), (0x0072, "0x1.b5dff389f527bp-2"),
        (0x0078, "-0x1.92229d8eb0bbbp-1"), (0x0081, "-0x1.a7a7a73129d44p-2"), (0x0084, "-0x1.04c1554f7c184p-1"),
        (0x0087, "-0x1.75abacb949382p-5"), (0x008d, "0x1.1fc21b89bb2c6p-2"), (0x0090, "0x1.4e8f08143b0ebp-1"),
        (0x0093, "-0x1.f391476f97584p-1"), (0x0096, "0x1.0e4e1c7ba4c55p-2"), (0x0099, "0x1.468bcfa560e82p-2"),
        (0x009c, "0x1.57f9e59da8808p+0"), (0x00a5, "-0x1.2a6cf61082d6cp-1"), (0x00b1, "-0x1.b5dff389f5279p-2"),
        (0x00b4, "0x1.92229d8eb0bb8p-1"), (0x00c0, "-0x1.6c622c6d151cep+0"), (0x00c3, "-0x1.439354837e082p-1"),
        (0x00c6, "0x1.feddc0a82d14ap-1"), (0x00c9, "-0x1.feddc0a82d14cp-1"), (0x00cc, "0x1.62f2eaf39c823p-4"),
        (0x00d2, "-0x1.01c64222d3792p-4"), (0x00d8, "0x1.44715513934eap-1"), (0x00e1, "0x1.01c64222d378ep-4"),
        (0x00e4, "-0x1.44715513934eap-1"), (0x00f0, "-0x1.8237b2f4e8fddp-1"),
    ),
}


def pinned_action_inputs(n):
    rng = np.random.default_rng(1400 + n)
    jets = random_jets(rng, n)
    hess = rng.normal(size=(n, n))
    cf = ComponentField(
        x=np.zeros(n),
        F=rng.normal(size=n),
        lam=-1.3,
        h_grad=rng.normal(size=n),
        h_hess=0.5 * (hess + hess.T),
    )
    return jets, cf


class TestCoordinateActionBits:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_term_map_pinned(self, n):
        action = action_coordinate(*pinned_action_inputs(n))
        got = tuple(sorted((mask, float(c).hex()) for mask, c in action.terms.items()))
        assert got == COORDINATE_ACTION_BITS[n]


def term_bits(element):
    return {mask: float(c).hex() for mask, c in element.terms.items()}


def random_field(rng, n, lam=None):
    hess = rng.normal(size=(n, n))
    return ComponentField(
        x=np.zeros(n),
        F=rng.normal(size=n),
        lam=float(rng.normal()) if lam is None else lam,
        h_grad=rng.normal(size=n),
        h_hess=hess + hess.T,
    )


class TestCompiledCoordinateRoute:
    """The plan's float arithmetic against multiplying the elements out, bit for bit."""

    @pytest.mark.parametrize("n, samples", [(2, 40), (3, 40), (4, 8)])
    def test_seeded_jets(self, n, samples):
        rng = np.random.default_rng(3100 + n)
        for _ in range(samples):
            jets, cf = random_jets(rng, n), random_field(rng, n)
            assert term_bits(action_coordinate(jets, cf)) == term_bits(multiply_path_action(jets, cf))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jets_with_exact_zeros(self, n):
        rng = np.random.default_rng(3200 + n)
        flat = MetricJets(np.eye(n), np.zeros((n, n, n)), np.zeros((n, n, n, n)))
        sparse_grad = random_field(rng, n)
        sparse_grad.h_grad[0] = 0.0
        cases = [
            (flat, random_field(rng, n)),
            (flat, ComponentField(x=np.zeros(n), F=np.zeros(n))),
            (random_jets(rng, n), dataclasses.replace(random_field(rng, n), F=np.zeros(n))),
            (random_jets(rng, n), random_field(rng, n, lam=0.0)),
            (random_jets(rng, n), sparse_grad),
        ]
        if n == 2:
            cases += [(sphere_jets(th), random_field(rng, 2)) for th in (0.4, math.pi / 3, math.pi / 2)]
            cases.append((sphere_jets(1.1), ComponentField(x=np.zeros(2), F=np.zeros(2))))
        for jets, cf in cases:
            assert term_bits(action_coordinate(jets, cf)) == term_bits(multiply_path_action(jets, cf))

    def test_a_sample_multiplies_no_element(self, monkeypatch):
        from cgb import sigma

        rng = np.random.default_rng(11)
        jets, cf = random_jets(rng, 3), random_field(rng, 3)
        expected = term_bits(action_coordinate(jets, cf))  # builds the plan for n = 3

        def unreachable(a, b):
            raise AssertionError("a sample called multiply")

        monkeypatch.setattr(sigma, "multiply", unreachable)
        assert term_bits(action_coordinate(jets, cf)) == expected


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_plan_is_built_without_biform_table(self, n, monkeypatch):
        # the plan's E^k and Hessian pairs come from phi_1 phi_2 products, not the geometric route's table
        from cgb import geometry, sigma

        def unreachable(n):
            raise AssertionError("the coordinate plan read biform_monomials")

        monkeypatch.setattr(geometry, "biform_monomials", unreachable)
        monkeypatch.setattr(sigma, "biform_monomials", unreachable)
        for cached in (sigma._coordinate_generators, sigma._coordinate_pairs, sigma._coordinate_plan):
            cached.cache_clear()
        plan = sigma._coordinate_plan(n)
        assert len(plan.masks) == len(set(plan.masks))
