"""The exact odd-direction function algebra and its operators."""

import random
from fractions import Fraction

import pytest

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
        assert square.degrees() == {4}

    def test_gradings(self):
        p = poly("x1*D21x1")
        assert p.degrees() == {2}
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
        assert apply_d(1, p).degrees() == {3}
        assert apply_Iw(w, p).degrees() == {0}
        assert apply_L(w, p).degrees() == {2} or apply_L(w, p).is_zero()

    def test_grading_involution(self):
        from cgb.efts import grading_involution

        even = poly("x1*D21x1 + D1x1*D2x1")
        odd = poly("D1x1 + x1^2*D2x1")
        assert grading_involution(even) == even
        assert grading_involution(odd) == -odd
        mixed = even + odd
        assert grading_involution(grading_involution(mixed)) == mixed


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
            assert out.degrees() == {delta}


class TestLieDerivative:
    def test_coordinate_field(self):
        v = VectorField.coordinate(2, 2, 0)
        assert apply_L(v, SuperPolynomial.variable(2, 2, 0)) == SuperPolynomial.constant(2, 2, 1)
        assert apply_L(v, SuperPolynomial.variable(2, 2, 1)).is_zero()

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
