"""The exact odd-direction function algebra and its operators."""

import functools
import itertools
import operator
import random
import time
from fractions import Fraction

import pytest

from cgb import efts
from cgb.grassmann import permutation_sign
from cgb.efts import (
    CartanReport,
    ParseError,
    SuperPolynomial,
    VectorField,
    apply_d,
    apply_Delta,
    apply_iota,
    apply_Iw,
    apply_L,
    check_cartan,
    concordance_solve,
    enumerate_monomials,
    format_polynomial,
    monomial,
    parse_polynomial,
    parse_vector_field,
)


def poly(text, delta=2, m=1):
    return parse_polynomial(text, delta, m)


def degrees(p):
    """The polynomial degrees of the monomials of ``p``."""
    return {SuperPolynomial.key_degree(key) for key in p.terms}


def grading_involution(p):
    """The reflection action on the odd directions: odd terms flip sign."""
    return SuperPolynomial(
        p.delta, p.m, {key: -c if SuperPolynomial.key_parity(key) else c for key, c in p.terms.items()}
    )


class TestAlgebra:
    def test_odd_generators_square_to_zero(self):
        d1x = SuperPolynomial.generator(2, 1, 0, 1)
        assert (d1x * d1x).is_zero()

    def test_canonical_anticommutation(self):
        d1x, d2x = (SuperPolynomial.generator(2, 1, 0, mask) for mask in (1, 2))
        assert d1x * d2x == -(d2x * d1x)

    def test_even_generator_powers(self):
        d21x = SuperPolynomial.generator(2, 1, 0, 3)
        square = d21x * d21x
        assert not square.is_zero()
        assert degrees(square) == {4}

    def test_gradings(self):
        p = poly("x1*D21x1")
        assert degrees(p) == {2}
        assert SuperPolynomial.key_weight(next(iter(p.terms))) == 2
        assert p.is_even()
        assert poly("D1x1").is_odd()

    def test_mixed_parity_detected(self):
        p = poly("x1 + D1x1")
        assert not p.is_even() and not p.is_odd()


class TestTranslationAction:
    def test_leibniz_on_square(self):
        # delta = 1: d(x^2) = 2 x dx
        x = SuperPolynomial.variable(1, 1, 0)
        assert apply_d(1, x * x) == parse_polynomial("2*x1*Dx1", 1, 1)

    def test_nilpotency_on_generator(self):
        d1x = SuperPolynomial.generator(2, 1, 0, 1)
        assert apply_d(1, d1x).is_zero()

    def test_reordering_sign(self):
        # d1(x * d2x) = d1x d2x + x d1d2x with d1d2x = -d2d1x canonically
        x = SuperPolynomial.variable(2, 1, 0)
        d2x = SuperPolynomial.generator(2, 1, 0, 2)
        assert apply_d(1, x * d2x) == poly("D1x1*D2x1 - x1*D21x1")

    def test_squares_and_anticommutation_exhaustive(self):
        for key in enumerate_monomials(2, 2, 4, 4):
            mono = monomial(2, 2, key)
            assert apply_d(1, apply_d(1, mono)).is_zero()
            assert apply_d(2, apply_d(2, mono)).is_zero()
            anti = apply_d(1, apply_d(2, mono)) + apply_d(2, apply_d(1, mono))
            assert anti.is_zero()

    def test_degree_bookkeeping(self):
        w = VectorField.coordinate(2, 1, 0)
        p = poly("x1*D21x1")
        assert degrees(apply_d(1, p)) == {3}
        assert degrees(apply_Iw(w, p)) == {0}
        assert degrees(apply_L(w, p)) == {2} or apply_L(w, p).is_zero()

    def test_grading_involution(self):
        # concordance_solve admits the +1 eigenspace: exactly the even elements
        even = poly("x1*D21x1 + D1x1*D2x1")
        odd = poly("D1x1 + x1^2*D2x1")
        assert grading_involution(even) == even
        assert grading_involution(odd) == -odd
        mixed = even + odd
        assert grading_involution(grading_involution(mixed)) == mixed
        assert grading_involution(mixed) != mixed and not mixed.is_even()


class TestDelta:
    def test_on_generator(self):
        x = SuperPolynomial.variable(2, 1, 0)
        assert apply_Delta(x) == poly("D21x1")

    def test_on_square_two_step_oracle(self):
        x = SuperPolynomial.variable(2, 1, 0)
        by_definition = apply_d(2, apply_d(1, x * x))
        assert apply_Delta(x * x) == by_definition == poly("2*x1*D21x1 - 2*D1x1*D2x1")

    def test_delta_squared_vanishes(self):
        for key in enumerate_monomials(2, 1, 4, 4):
            assert apply_Delta(apply_Delta(monomial(2, 1, key))).is_zero()

    def test_delta_raises_degree_by_delta(self):
        for delta in (1, 2):
            x = SuperPolynomial.variable(delta, 1, 0)
            out = apply_Delta(x * x * x)
            assert degrees(out) == {delta}


class TestLieDerivative:
    def test_coordinate_field(self):
        v = VectorField.coordinate(2, 2, 0)
        assert apply_L(v, SuperPolynomial.variable(2, 2, 0)) == SuperPolynomial.constant(2, 2, 1)
        assert apply_L(v, SuperPolynomial.variable(2, 2, 1)).is_zero()

    @pytest.mark.parametrize("var", [2, 5, -1])
    def test_coordinate_field_refuses_an_out_of_range_variable(self, var):
        # the zero field it gave before passed check_cartan vacuously
        with pytest.raises(ValueError, match=f"variable index {var} out of range for m=2"):
            VectorField.coordinate(2, 2, var)

    def test_euler_field_fixes_dx(self):
        # delta = 1, v = x d/dx: L_v(dx) = d(v x)|_... = dx
        v = VectorField(1, 1, [SuperPolynomial.variable(1, 1, 0)])
        dx = SuperPolynomial.generator(1, 1, 0, 1)
        assert apply_L(v, dx) == dx

    def test_derivation_property_random(self):
        random.seed(10)
        basis = enumerate_monomials(2, 1, 3, 3)
        v = VectorField(2, 1, [SuperPolynomial.variable(2, 1, 0)])
        for _ in range(25):
            p = monomial(2, 1, random.choice(basis), random.randint(1, 4))
            q = monomial(2, 1, random.choice(basis), random.randint(-4, -1))
            assert apply_L(v, p * q) == apply_L(v, p) * q + p * apply_L(v, q)


class TestContractions:
    def test_top_contraction_table(self):
        w = VectorField.coordinate(2, 1, 0)
        x = SuperPolynomial.variable(2, 1, 0)
        d1x = SuperPolynomial.generator(2, 1, 0, 1)
        d21x = SuperPolynomial.generator(2, 1, 0, 3)
        assert apply_Iw(w, x).is_zero()
        assert apply_Iw(w, d1x).is_zero()
        assert apply_Iw(w, d21x) == SuperPolynomial.constant(2, 1, 1)

    def test_top_contraction_leibniz(self):
        # I_w(d2d1x * d1x) = w * d1x by the zero rules
        w = VectorField.coordinate(2, 1, 0)
        d1x = SuperPolynomial.generator(2, 1, 0, 1)
        d21x = SuperPolynomial.generator(2, 1, 0, 3)
        assert apply_Iw(w, d21x * d1x) == d1x

    def test_iota_tables(self):
        psi = VectorField.coordinate(2, 1, 0)
        x = SuperPolynomial.variable(2, 1, 0)
        d1x = SuperPolynomial.generator(2, 1, 0, 1)
        d2x = SuperPolynomial.generator(2, 1, 0, 2)
        assert apply_iota(1, psi, x).is_zero()
        assert apply_iota(1, psi, d1x) == SuperPolynomial.constant(2, 1, 1)
        assert apply_iota(1, psi, d2x).is_zero()

    def test_iota_restriction_cartan(self):
        # [d_k, iota_k] = L_psi, the identity that fixes the iota table signs
        for delta in (1, 2):
            for psi in (
                VectorField.coordinate(delta, 1, 0),
                VectorField(delta, 1, [SuperPolynomial.variable(delta, 1, 0)]),
            ):
                for k in range(1, delta + 1):
                    for key in enumerate_monomials(delta, 1, 3, 3):
                        mono = monomial(delta, 1, key)
                        lhs = apply_d(k, apply_iota(k, psi, mono)) + apply_iota(
                            k, psi, apply_d(k, mono)
                        )
                        assert lhs == apply_L(psi, mono)


def seeded_polynomial(rng, delta, m, keys, count):
    """A sum of ``count`` distinct keys with nonzero rational coefficients."""
    terms = {key: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)) for key in rng.sample(keys, count)}
    return SuperPolynomial(delta, m, terms)


class TestGradedLeibniz:
    @pytest.mark.parametrize("delta", [1, 2])
    def test_multi_term_products(self, delta):
        # D(pq) = D(p) q + (-1)^(|D||p|) p D(q) for p of one parity, and (pq)s = p(qs)
        m = 2
        rng = random.Random(40 + delta)
        keys = enumerate_monomials(delta, m, 2, 2)
        by_parity = [[key for key in keys if SuperPolynomial.key_parity(key) == parity] for parity in (0, 1)]
        base = [key for key in keys if not key[1] and all(mask == 0 for (_, mask), _ in key[0])]
        fields = [VectorField(delta, m, [seeded_polynomial(rng, delta, m, base, 2) for _ in range(m)]) for _ in range(2)]
        ops = [(1, lambda p, k=k: apply_d(k, p)) for k in range(1, delta + 1)]
        for v in fields:
            ops += [(1, lambda p, k=k, v=v: apply_iota(k, v, p)) for k in range(1, delta + 1)]
            ops += [(delta & 1, lambda p, v=v: apply_Iw(v, p)), (0, lambda p, v=v: apply_L(v, p))]
        checked = 0
        for trial in range(24):
            parity = trial & 1
            p = seeded_polynomial(rng, delta, m, by_parity[parity], 3)
            q, s = (seeded_polynomial(rng, delta, m, keys, 3) for _ in range(2))
            assert (p * q) * s == p * (q * s)
            for op_parity, op in ops:
                sign = -1 if op_parity and parity else 1
                assert op(p * q) == op(p) * q + (p * op(q)).scale(sign)
                checked += 1
        assert checked == 24 * (delta + 2 * (delta + 2))


class TestMonomialBasis:
    @pytest.mark.parametrize("delta, m, degree, weight", [(1, 2, 3, 3), (2, 1, 3, 4), (2, 2, 2, 3), (2, 2, 0, 2)])
    def test_matches_brute_force(self, delta, m, degree, weight):
        # every exponent choice per generator (odd ones at most once), filtered by the caps
        gens = [(j, mask) for j in range(m) for mask in range(1 << delta)]
        ranges = [range(2) if mask.bit_count() % 2 else range(weight + 1) for _, mask in gens]
        want = set()
        for exps in itertools.product(*ranges):
            chosen = [(gen, k) for gen, k in zip(gens, exps) if k]
            if sum(k * mask.bit_count() for (_, mask), k in chosen) <= degree and sum(exps) <= weight:
                evens = tuple((gen, k) for gen, k in chosen if gen[1].bit_count() % 2 == 0)
                want.add((evens, tuple(gen for gen, _ in chosen if gen[1].bit_count() % 2)))
        keys = enumerate_monomials(delta, m, degree, weight)
        assert len(keys) == len(want) and set(keys) == want
        assert keys == sorted(keys, key=lambda k: (SuperPolynomial.key_degree(k), SuperPolynomial.key_weight(k), k))

    def test_size_bound(self, monkeypatch):
        keys = enumerate_monomials(2, 2, 3, 4)
        monkeypatch.setattr(efts, "MAX_BASIS_KEYS", len(keys))
        assert enumerate_monomials(2, 2, 3, 4) == keys
        monkeypatch.setattr(efts, "MAX_BASIS_KEYS", len(keys) - 1)
        with pytest.raises(ValueError, match=f"more than {len(keys) - 1} keys"):
            enumerate_monomials(2, 2, 3, 4)


class TestMonomialKeys:
    @pytest.mark.parametrize(
        "key, reason",
        [
            (((((0, 1), 2),), ()), "odd generator \\(0, 1\\) is in the even part"),  # D1x1^2, although D1x1 squares to zero
            (((), ((0, 2), (0, 1))), "odd part is not sorted"),  # D2x1*D1x1 out of order
            (((((5, 0), 1),), ()), "outside the algebra"),  # x6 at m = 1
            (((), ((0, 1), (0, 1))), "odd part is not sorted or repeats"),
            (((((0, 3), 1), ((0, 0), 1)), ()), "even part is not sorted"),
            (((((0, 0), 1), ((0, 0), 2)), ()), "repeats a generator"),
            (((((0, 0), 0),), ()), "exponent 0 of .* is below 1"),
            (((), ((0, 3),)), "even generator .* is in the odd part"),
            (((), ((0, 4),)), "outside the algebra"),
        ],
    )
    def test_non_canonical_key_is_refused(self, key, reason):
        with pytest.raises(ValueError, match=reason) as error:
            monomial(2, 1, key)
        assert repr(key) in str(error.value)

    def test_every_enumerated_key_is_accepted(self):
        for delta, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for key in enumerate_monomials(delta, m, 3, 3):
                assert list(monomial(delta, m, key, 3).terms.items()) == [(key, Fraction(3))]


class TestCartan:
    @pytest.mark.parametrize("delta", [1, 2])
    def test_coordinate_field(self, delta):
        report = check_cartan(VectorField.coordinate(delta, 1, 0), degree_cap=3)
        assert isinstance(report, CartanReport)
        assert report.holds and report.checked > 0

    @pytest.mark.parametrize("delta", [1, 2])
    def test_polynomial_fields(self, delta):
        x = SuperPolynomial.variable(delta, 1, 0)
        for coeff in (x, x * x):
            assert check_cartan(VectorField(delta, 1, [coeff]), degree_cap=3).holds

    def test_two_variables(self):
        x1 = SuperPolynomial.variable(2, 2, 0)
        x2 = SuperPolynomial.variable(2, 2, 1)
        w = VectorField(2, 2, [x2, x1 * x1])
        assert check_cartan(w, degree_cap=3, weight_cap=3).holds

    def test_counterexample_of_a_broken_contraction(self, doubled_iw):
        report = check_cartan(VectorField.coordinate(2, 1, 0), degree_cap=3)
        assert report == CartanReport(False, 2, "monomial x1: commutator gives 2, Lie derivative gives 1")


class TestConcordance:
    def test_equal_inputs(self):
        p = poly("2*x1*D21x1 - 2*D1x1*D2x1")
        result = concordance_solve(p, p)
        assert result.feasible and result.witness.is_zero()

    def test_forward_oracle_witness(self):
        # E_+ = Delta(x^2), E_- = 0: the found witness maps back exactly
        target = apply_Delta(poly("x1^2"))
        result = concordance_solve(target, SuperPolynomial.zero(2, 1))
        assert result.feasible
        assert apply_Delta(result.witness) == target
        assert result.witness == poly("x1^2")

    def test_constant_infeasible(self):
        result = concordance_solve(
            SuperPolynomial.constant(1, 1, 1), SuperPolynomial.zero(1, 1)
        )
        assert not result.feasible
        assert "degree" in result.certificate

    def test_round_trip_random_even_sources(self):
        random.seed(3)
        count = 0
        basis = [
            key
            for key in enumerate_monomials(2, 2, 3, 3)
            if SuperPolynomial.key_parity(key) == 0
        ]
        while count < 50:
            e = SuperPolynomial.zero(2, 2)
            for key in random.sample(basis, 3):
                e = e + monomial(2, 2, key, Fraction(random.randint(-4, 4)))
            target = apply_Delta(e)
            if target.is_zero():
                continue
            result = concordance_solve(target, SuperPolynomial.zero(2, 2))
            assert result.feasible
            assert apply_Delta(result.witness) == target
            count += 1

    def test_deterministic_witness(self):
        target = apply_Delta(poly("x1^2 + x1^3"))
        w1 = concordance_solve(target, SuperPolynomial.zero(2, 1)).witness
        w2 = concordance_solve(target, SuperPolynomial.zero(2, 1)).witness
        assert w1 == w2

    def test_rejects_odd_inputs(self):
        with pytest.raises(ValueError):
            concordance_solve(poly("D1x1"), SuperPolynomial.zero(2, 1))

    def test_rejects_non_closed_inputs(self):
        with pytest.raises(ValueError):
            concordance_solve(poly("x1^2"), SuperPolynomial.zero(2, 1))

    def test_constant_infeasible_delta_two(self):
        result = concordance_solve(
            SuperPolynomial.constant(2, 1, 3), SuperPolynomial.zero(2, 1)
        )
        assert not result.feasible

    def test_top_generator_is_exact(self):
        # D21x is closed, even, and exactly the image of x
        target = poly("D21x1")
        assert apply_d(1, target).is_zero() and apply_d(2, target).is_zero()
        result = concordance_solve(target, SuperPolynomial.zero(2, 1))
        assert result.feasible and result.witness == poly("x1")

    def test_witness_of_a_broken_contraction_refused(self, doubled_iw):
        # the witness is I_E T over the weight: doubled, its image is 2 T, which the final check refuses
        with pytest.raises(AssertionError, match="internal error: witness verification failed"):
            concordance_solve(apply_Delta(poly("x1^2")), SuperPolynomial.zero(2, 1))


def sorting_sign(sequence):
    """Sign of sorting ``sequence`` of distinct items, by ``permutation_sign`` of its ranks."""
    ranks = {item: rank for rank, item in enumerate(sorted(sequence))}
    return permutation_sign([ranks[item] for item in sequence])


class TestMergeOdd:
    def test_matches_permutation_sign(self):
        rng = random.Random(11)
        gens = [(var, mask) for var in range(5) for mask in (1, 2)]
        disjoint = 0
        for _ in range(3000):
            a = tuple(sorted(rng.sample(gens, rng.randint(0, 6))))
            b = tuple(sorted(rng.sample(gens, rng.randint(0, 6))))
            merged = efts._merge_odd(a, b)
            if set(a) & set(b):
                assert merged is None
            else:
                disjoint += 1
                assert merged == (tuple(sorted(a + b)), sorting_sign(a + b))
        assert disjoint > 300


def label(key):
    return SuperPolynomial.key_degree(key), SuperPolynomial.key_weight(key)


def _solves(cases):
    return [(r.feasible, r.witness, r.certificate) for r in (concordance_solve(a, b) for a, b in cases)]


def _interleaved_cases():
    """Targets in the four algebras delta = 1, 2 and m = 1, 2, taken in turn.

    The first target of each algebra has degree 2 and weight 2.  With
    delta = 1 and m = 1 every closed even element is a constant: those
    targets are certified infeasible, as is each algebra's constant and its
    first target plus a constant.
    """
    rng = random.Random(8)
    groups = []
    for delta in (1, 2):
        for m in (1, 2):
            zero = SuperPolynomial.zero(delta, m)
            # sources of even images: parity delta mod 2, not in the kernel of Delta
            keys = [
                key
                for key in enumerate_monomials(delta, m, 3, 3)
                if SuperPolynomial.key_parity(key) == delta & 1 and not apply_Delta(monomial(delta, m, key)).is_zero()
            ]
            labelled = [key for key in keys if label(key) == (2 - delta, 2)]
            sources = []
            if keys:
                sources.append(sum((monomial(delta, m, key, rng.randint(1, 4)) for key in labelled), zero))
                for _ in range(3):
                    sources.append(sum((monomial(delta, m, k, rng.randint(1, 4)) for k in rng.sample(keys, 3)), zero))
            cases = [(apply_Delta(source), zero) for source in sources]
            cases.append((SuperPolynomial.constant(delta, m, 2), zero))  # certified infeasible
            cases.append(((cases[0][0] if sources else zero) + SuperPolynomial.constant(delta, m, 1), zero))
            groups.append(cases)
    return [case for turn in itertools.zip_longest(*groups) for case in turn if case is not None]


def _block_witness(target):
    """The dense block solver's witness for ``target``, or None if some (degree, weight) block has none.

    Each block's columns are the Delta-images of the monomials one Delta
    below it, solved by ``efts._solve_block``.
    """
    delta, m = target.delta, target.m
    blocks = {}
    for key, coeff in target.terms.items():
        blocks.setdefault(label(key), {})[key] = coeff
    terms = {}
    for (degree, weight), block in blocks.items():
        if degree < delta:
            return None
        basis = [key for key in enumerate_monomials(delta, m, degree - delta, weight) if label(key) == (degree - delta, weight)]
        solution = efts._solve_block([apply_Delta(monomial(delta, m, key)) for key in basis], block)
        if solution is None:
            return None
        terms.update(zip(basis, solution))
    return SuperPolynomial(delta, m, terms)


class TestBlockSolverOracle:
    def test_contraction_agrees_with_block_solver(self):
        cases = _interleaved_cases()
        results = [concordance_solve(target, zero) for target, zero in cases]
        assert sum(r.feasible for r in results) == 12 and sum(not r.feasible for r in results) == 8
        for (target, _), result in zip(cases, results):
            oracle = _block_witness(target)
            assert result.feasible == (oracle is not None)
            if result.feasible:
                assert apply_Delta(result.witness) == target and apply_Delta(oracle) == target
                assert apply_Delta(result.witness - oracle).is_zero()
            else:
                assert result.certificate == (
                    f"target has degree-0 terms but the image of Delta starts at degree {target.delta}"
                )

    @pytest.mark.parametrize("delta", [1, 2])
    @pytest.mark.parametrize("m", [2, 3])
    def test_cartan_on_the_euler_field(self, delta, m):
        euler = VectorField(delta, m, [SuperPolynomial.variable(delta, m, j) for j in range(m)])
        report = check_cartan(euler, degree_cap=3, weight_cap=3)
        assert report.holds and report.checked > 0


class TestLargeTargets:
    def test_six_variable_target_round_trips(self):
        # Delta(s^2 + x6) for s = x1...x6: 43 terms of weight up to 12, far past the block solver's reach
        m = 6
        xs = [SuperPolynomial.variable(2, m, j) for j in range(m)]
        s = functools.reduce(operator.mul, xs)
        target = apply_Delta(s * s + xs[-1])
        assert len(target.terms) == 43
        start = time.perf_counter()
        result = concordance_solve(target, SuperPolynomial.zero(2, m))
        elapsed = time.perf_counter() - start
        assert result.feasible and apply_Delta(result.witness) == target
        assert elapsed < 2.0
        assert all(SuperPolynomial.key_weight(key) > 0 for key in result.witness.terms)


class TestPoincareLemmaDeltaOne:
    def test_closed_positive_degree_is_exact(self):
        # the delta = 1 complex is polynomial de Rham forms on R^m
        for m in (1, 2):
            for degree in (1, 2, 3):
                for weight in range(1, 4):
                    basis = [
                        key
                        for key in enumerate_monomials(1, m, degree, weight)
                        if SuperPolynomial.key_degree(key) == degree
                        and SuperPolynomial.key_weight(key) == weight
                    ]
                    if not basis:
                        continue
                    # exact kernel basis via elimination over the image coordinates
                    closed = _kernel_elements(basis, m)
                    for element in closed:
                        assert _is_exact(element, degree, weight, m), format_polynomial(element)


def _kernel_elements(basis, m):
    """Exact nullspace of d restricted to the span of the given monomials."""
    images = [apply_d(1, monomial(1, m, key)) for key in basis]
    rows = sorted({k for img in images for k in img.terms})
    row_index = {key: i for i, key in enumerate(rows)}
    matrix = [[Fraction(0)] * len(basis) for _ in rows]
    for j, img in enumerate(images):
        for key, coeff in img.terms.items():
            matrix[row_index[key]][j] = coeff
    ncols = len(basis)
    pivots = {}
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(rows)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = 1 / matrix[row][col]
        matrix[row] = [v * inv for v in matrix[row]]
        for r in range(len(rows)):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        pivots[col] = row
        row += 1
    kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        coeffs = [Fraction(0)] * ncols
        coeffs[free] = Fraction(1)
        for col, r in pivots.items():
            coeffs[col] = -matrix[r][free]
        element = SuperPolynomial.zero(1, m)
        for key, c in zip(basis, coeffs):
            if c != 0:
                element = element + monomial(1, m, key, c)
        kernel.append(element)
    return kernel


def _is_exact(element, degree, weight, m):
    source = [
        key
        for key in enumerate_monomials(1, m, degree - 1, weight)
        if SuperPolynomial.key_degree(key) == degree - 1
        and SuperPolynomial.key_weight(key) == weight
    ]
    images = [apply_d(1, monomial(1, m, key)) for key in source]
    rows = sorted({k for img in images for k in img.terms} | set(element.terms))
    row_index = {key: i for i, key in enumerate(rows)}
    matrix = [[Fraction(0)] * (len(source) + 1) for _ in rows]
    for j, img in enumerate(images):
        for key, coeff in img.terms.items():
            matrix[row_index[key]][j] = coeff
    for key, coeff in element.terms.items():
        matrix[row_index[key]][len(source)] = coeff
    row = 0
    for col in range(len(source)):
        pivot = next((r for r in range(row, len(rows)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = 1 / matrix[row][col]
        matrix[row] = [v * inv for v in matrix[row]]
        for r in range(len(rows)):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        row += 1
    return all(matrix[r][len(source)] == 0 for r in range(row, len(rows)))


class TestTextSyntax:
    @pytest.mark.parametrize(
        "text",
        [
            "2*x1*D21x1 - 2*D1x1*D2x1",
            "x1^2",
            "1",
            "-3/2*D1x1*D2x1 + x1^3*D21x1^2",
            "0",
            "x1*x2 - D1x2*D2x1",
        ],
    )
    def test_round_trip(self, text):
        p = parse_polynomial(text, 2, 2)
        assert parse_polynomial(format_polynomial(p), 2, 2) == p

    def test_round_trip_delta_one(self):
        p = parse_polynomial("x1*Dx1 - 2*x1^2", 1, 1)
        assert parse_polynomial(format_polynomial(p), 1, 1) == p

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_polynomial("2 @ x1", 2, 1)
        with pytest.raises(ParseError):
            parse_polynomial("D3x1", 2, 1)
        with pytest.raises(ParseError):
            parse_polynomial("x9", 2, 1)

    def test_powers(self):
        one = SuperPolynomial.constant(2, 1, 1)
        assert poly("x1^0") == one and poly("D1x1^0") == one and poly("D21x1^0") == one
        assert poly("D1x1^1") == SuperPolynomial.generator(2, 1, 0, 1)
        assert poly("D1x1^2").is_zero() and poly("3*D2x1^5").is_zero()
        assert poly("x1^3") == poly("x1*x1*x1") and poly("D21x1^2*x1") == poly("x1*D21x1*D21x1")

    def test_huge_power_in_one_step(self):
        # multiplying x1 out a factor at a time would take minutes
        huge = poly("x1^3000000")
        assert huge.terms == {((((0, 0), 3000000),), ()): 1}
        # Delta x^k = k x^(k-1) D21x - k (k - 1) x^(k-2) D1x D2x
        expected = "-8999997000000*x1^2999998*D1x1*D2x1 + 3000000*x1^2999999*D21x1"
        assert format_polynomial(apply_Delta(huge)) == expected

    def test_polynomial_rejects_a_direction(self):
        with pytest.raises(ParseError, match="d/dx1"):
            parse_polynomial("x1 + d/dx1", 2, 1)

    def test_vector_field_parsing(self):
        w = parse_vector_field("x2*d/dx1 - x1^2*d/dx2", 2, 2)
        assert w.components[0] == SuperPolynomial.variable(2, 2, 1)
        x1 = SuperPolynomial.variable(2, 2, 0)
        assert w.components[1] == -(x1 * x1)
        plain = parse_vector_field("d/dx1", 2, 2)
        assert plain.components[0] == SuperPolynomial.constant(2, 2, 1)

    def test_vector_field_rejects_missing_direction(self):
        with pytest.raises(ParseError):
            parse_vector_field("x1", 2, 1)

    def test_direction_ends_its_term(self):
        with pytest.raises(ParseError, match="must end"):
            parse_vector_field("d/dx1*x1", 2, 1)
        with pytest.raises(ParseError, match="must end"):
            parse_vector_field("d/dx1^2", 2, 1)
        w = parse_vector_field("-2*x1^2*d/dx1 + d/dx1", 2, 1)
        assert w.components[0] == poly("1 - 2*x1^2")

    def test_many_summands_parse_in_one_map(self):
        # 2,000 summands, each its own key: one term map, not a sum per summand
        count = 2000
        text = " + ".join(f"{k}*x1^{k}*D1x1" for k in range(1, count + 1))
        want = {((((0, 0), k),), ((0, 1),)): Fraction(k) for k in range(1, count + 1)}
        assert parse_polynomial(text, 2, 1) == SuperPolynomial(2, 1, want)
        field = parse_vector_field(text.replace("D1x1", "d/dx1"), 2, 1)
        assert field.components[0] == SuperPolynomial(2, 1, {((((0, 0), k),), ()): Fraction(k) for k in range(1, count + 1)})

    def test_cancelled_summands_keep_the_order_of_repeated_sums(self):
        # x1 cancels, so it comes back after x2, as in x1 + (-x1) + x2 + x1
        summed = SuperPolynomial.zero(2, 2)
        for piece in ("x1", "-x1", "x2", "2*x1"):
            summed = summed + parse_polynomial(piece, 2, 2)
        parsed = parse_polynomial("x1 - x1 + x2 + 2*x1", 2, 2)
        assert list(parsed.terms.items()) == list(summed.terms.items())
        assert list(parsed.terms) == [((((1, 0), 1),), ()), ((((0, 0), 1),), ())]
        field = parse_vector_field("x1*d/dx2 - x1*d/dx2 + x2*d/dx2 + x1*d/dx2", 2, 2)
        assert list(field.components[1].terms) == list(parsed.terms)
