"""Grassmann algebra: products, exponentials, Berezin integrals, Pfaffians."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgb.grassmann import (
    MAX_GENERATORS,
    DimensionMismatchError,
    GrassmannElement,
    ParityError,
    berezin,
    exp_even,
    fermionic_gaussian,
    multiply,
    permutation_sign,
    pfaffian_combinatorial,
)
from cgb import grassmann
from cgb.grassmann import _merge_sign, _parity_word

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def block_diag_j(*lams):
    n = len(lams)
    q = np.zeros((2 * n, 2 * n))
    for k, lam in enumerate(lams):
        q[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = lam * J
    return q


def gens(n):
    return [GrassmannElement.generator(n, i) for i in range(n)]


class TestProduct:
    def test_defining_relation(self):
        t1, t2, *_ = gens(4)
        assert multiply(t1, t2).terms == {0b11: 1}
        assert multiply(t2, t1).terms == {0b11: -1}

    def test_nilpotency(self):
        t1 = GrassmannElement.generator(3, 0)
        assert multiply(t1, t1).terms == {}

    def test_distributivity(self):
        n = 2
        one = GrassmannElement.scalar(n, 1)
        t1, t2 = gens(n)
        product = multiply(one + t1, one + t2)
        assert product == one + t1 + t2 + multiply(t1, t2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(GrassmannElement.scalar(2, 1.0), GrassmannElement.scalar(3, 1.0))

    def test_associativity_random(self):
        rng = np.random.default_rng(0)
        n = 5
        for _ in range(30):
            elems = []
            for _ in range(3):
                terms = {
                    int(rng.integers(0, 1 << n)): float(rng.normal()) for _ in range(4)
                }
                elems.append(GrassmannElement(n, terms))
            a, b, c = elems
            lhs = multiply(multiply(a, b), c)
            rhs = multiply(a, multiply(b, c))
            assert lhs.isclose(rhs, 1e-12)

    @given(
        st.integers(2, 6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_graded_commutativity(self, n, data):
        deg_a = data.draw(st.integers(1, n))
        deg_b = data.draw(st.integers(1, n))
        idx_a = data.draw(st.permutations(range(n))) [:deg_a]
        idx_b = data.draw(st.permutations(range(n)))[:deg_b]
        ca = data.draw(st.integers(-5, 5).filter(lambda v: v != 0))
        cb = data.draw(st.integers(-5, 5).filter(lambda v: v != 0))
        a = GrassmannElement.monomial(n, idx_a, Fraction(ca))
        b = GrassmannElement.monomial(n, idx_b, Fraction(cb))
        sign = -1 if deg_a % 2 and deg_b % 2 else 1
        assert multiply(a, b) == sign * multiply(b, a)


class TestBerezin:
    def test_top_projection(self):
        full = GrassmannElement(2, {0b11: 1.0})
        assert berezin(full, [0, 1]) == 1.0
        assert berezin(full, [1, 0]) == -1.0

    def test_projection_kills_lower_terms(self):
        elem = GrassmannElement(1, {0: 5.0, 1: 3.0})
        assert berezin(elem, [0]) == 3.0

    def test_incomplete_ordering_rejected(self):
        elem = GrassmannElement(3, {0b111: 1.0})
        with pytest.raises(ValueError):
            berezin(elem, [0, 1])
        with pytest.raises(ValueError):
            berezin(elem, [0, 1, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_permutation_signs_exhaustive(self, n):
        generators = gens(n)
        for perm in itertools.permutations(range(n)):
            product = GrassmannElement.scalar(n, 1)
            for i in perm:
                product = multiply(product, generators[i])
            assert berezin(product, range(n)) == permutation_sign(list(perm))


class TestExp:
    def test_identity(self):
        assert exp_even(GrassmannElement.zero(2)) == GrassmannElement.scalar(2, 1)

    def test_degree_two_square_vanishes(self):
        elem = GrassmannElement(2, {0b11: 1.0})
        assert exp_even(elem) == GrassmannElement.scalar(2, 1) + elem

    def test_two_block_expansion(self):
        # oracle: direct term-by-term expansion of exp(a t1t2 + b t3t4)
        a, b = Fraction(3, 2), Fraction(-5, 7)
        elem = GrassmannElement(4, {0b0011: a, 0b1100: b})
        expected = GrassmannElement(4, {0: 1, 0b0011: a, 0b1100: b, 0b1111: a * b})
        assert exp_even(elem) == expected

    def test_odd_input_rejected(self):
        with pytest.raises(ParityError):
            exp_even(GrassmannElement.generator(2, 0))

    def test_inverse_exact_rational(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            terms = {}
            for _ in range(4):
                i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
                terms[(1 << i) | (1 << j)] = Fraction(
                    int(rng.integers(-9, 10)), int(rng.integers(1, 9))
                )
            elem = GrassmannElement(n, terms)
            product = multiply(exp_even(elem), exp_even(-elem))
            assert product == GrassmannElement.scalar(n, 1)

    def test_scalar_part_float(self):
        elem = GrassmannElement(2, {0: 2.0, 0b11: 1.0})
        result = exp_even(elem)
        assert result.coefficient(0) == pytest.approx(math.exp(2.0))
        assert result.coefficient(0b11) == pytest.approx(math.exp(2.0))

    def test_scalar_part_rational_rejected(self):
        elem = GrassmannElement(2, {0: Fraction(1), 0b11: Fraction(1)})
        with pytest.raises(ValueError):
            exp_even(elem)


class TestFermionicGaussian:
    def test_block_diagonal_golden(self):
        # the calibration lock: block-diag(l_1 J, ..., l_n J) -> prod l_i
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            lams = rng.uniform(-2, 2, size=n)
            value = fermionic_gaussian(block_diag_j(*lams))
            assert value == pytest.approx(np.prod(lams), rel=1e-12, abs=1e-12)

    def test_single_block(self):
        assert fermionic_gaussian(block_diag_j(1.5)) == pytest.approx(1.5)

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            fermionic_gaussian(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            fermionic_gaussian(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            pfaffian_combinatorial(np.zeros((3, 3)))

    def test_square_is_determinant(self):
        rng = np.random.default_rng(42)
        for k in range(100):
            half = 1 + k % 6  # sizes 2 through 12
            mat = rng.normal(size=(2 * half, 2 * half))
            skew = mat - mat.T
            value = fermionic_gaussian(skew)
            det = np.linalg.det(skew)
            assert value**2 == pytest.approx(det, rel=1e-8)

    def test_matches_combinatorial(self):
        rng = np.random.default_rng(7)
        for k in range(40):
            half = 1 + k % 6
            mat = rng.normal(size=(2 * half, 2 * half))
            skew = mat - mat.T
            scale = max(1.0, abs(pfaffian_combinatorial(skew)))
            assert abs(fermionic_gaussian(skew) - pfaffian_combinatorial(skew)) / scale < 1e-10

    def test_combinatorial_block_golden(self):
        assert pfaffian_combinatorial(block_diag_j(2.0, 3.0)) == pytest.approx(6.0)

    @pytest.mark.parametrize("empty", [np.zeros((0, 0)), []], ids=["array", "list"])
    def test_empty_form_is_the_empty_pfaffian(self, empty):
        assert fermionic_gaussian(empty) == 1
        assert pfaffian_combinatorial(empty) == 1

    @pytest.mark.parametrize("route", [fermionic_gaussian, pfaffian_combinatorial])
    def test_return_types(self, route):
        # a float64 array gives a plain float, not numpy.float64; exact entries stay exact
        assert type(route(block_diag_j(2.0, 3.0))) is float
        assert type(route([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])) is Fraction
        assert type(route(np.zeros((0, 0)))) is int

    @pytest.mark.parametrize("route", [fermionic_gaussian, pfaffian_combinatorial])
    def test_integer_array_stays_exact(self, route):
        # int64 products of these entries wrap; read as Python ints they give the exact Pfaffian
        rng = random.Random(0)
        q = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                q[i][j] = rng.randint(-10**6, 10**6)
                q[j][i] = -q[i][j]
        value = route(np.array(q, dtype=np.int64))
        assert type(value) is int and value == route(q) == -2243013433165462855169966
        assert route([np.array(row, dtype=np.int64) for row in q]) == value  # rows read the same way

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("route", [fermionic_gaussian, pfaffian_combinatorial])
    def test_non_finite_entry_is_refused_by_its_place(self, route, bad):
        q = block_diag_j(1.0, 2.0)
        q[3, 2] = bad
        with pytest.raises(ValueError, match=r"entry \(3, 2\) is not finite"):
            route(q)
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is not finite"):
            route([[0.0, bad], [bad, 0.0]])

    def test_exact_rational_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            half = int(rng.integers(1, 4))
            mat = [
                [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(2 * half)]
                for _ in range(2 * half)
            ]
            skew = [[mat[i][j] - mat[j][i] for j in range(2 * half)] for i in range(2 * half)]
            assert fermionic_gaussian(skew, tol=0) == pfaffian_combinatorial(skew)


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def sorting_sign(sequence):
    """Sign of sorting ``sequence`` of distinct integers, by ``permutation_sign`` of its ranks."""
    ranks = {value: rank for rank, value in enumerate(sorted(sequence))}
    return permutation_sign([ranks[value] for value in sequence])


class TestSignRule:
    """The parity-word merge sign against the cycle-decomposition oracle."""

    def test_merge_sign_matches_permutation_sign(self):
        rng = random.Random(20261018)
        high = 0
        for _ in range(20_000):
            n = rng.randint(1, MAX_GENERATORS)
            owner = [rng.randrange(3) for _ in range(n)]  # 0: neither, 1: mask_a, 2: mask_b
            mask_a = sum(1 << i for i, o in enumerate(owner) if o == 1)
            mask_b = sum(1 << i for i, o in enumerate(owner) if o == 2)
            high += (mask_a | mask_b) >> 32 != 0
            assert _merge_sign(mask_a, mask_b) == sorting_sign(bits(mask_a) + bits(mask_b))
        assert high > 5_000  # the upper half of a 64-generator word is exercised

    def test_parity_word_counts_bits_above(self):
        rng = random.Random(5)
        for _ in range(500):
            mask = rng.getrandbits(MAX_GENERATORS)
            word = _parity_word(mask)
            for j in range(MAX_GENERATORS):
                assert word >> j & 1 == (mask >> (j + 1)).bit_count() & 1

    def test_parity_word_on_uint64_arrays_is_the_int_rule(self):
        # the numpy kernel's signs: the same fold on uint64 words, and np.bitwise_count for int.bit_count
        rng = random.Random(6)
        masks = [rng.getrandbits(MAX_GENERATORS) for _ in range(2_000)] + [1 << 63, (1 << 64) - 1, 0]
        others = [rng.getrandbits(MAX_GENERATORS) for _ in masks]
        words = _parity_word(np.array(masks, np.uint64))
        assert words.dtype == np.uint64
        assert words.tolist() == [_parity_word(mask) for mask in masks]
        odd = np.bitwise_count(words & np.array(others, np.uint64)) & 1
        assert odd.tolist() == [(_parity_word(a) & b).bit_count() & 1 for a, b in zip(masks, others)]

    @pytest.mark.parametrize("kind", [float, Fraction])
    def test_multiply_matches_termwise_monomials(self, kind):
        rng = random.Random(17)
        for n in (1, 4, 9, 40, MAX_GENERATORS):
            for _ in range(20):

                def element():
                    terms = {rng.getrandbits(n): kind(rng.randint(-9, 9)) / rng.randint(1, 4) for _ in range(8)}
                    return GrassmannElement(n, terms)

                a, b = element(), element()
                expected = GrassmannElement.zero(n)
                for mask_a, ca in a.terms.items():
                    for mask_b, cb in b.terms.items():
                        expected = expected + GrassmannElement.monomial(n, bits(mask_a) + bits(mask_b), ca * cb)
                assert multiply(a, b) == expected

    # fermionic_gaussian of default_rng(2026) skew forms of sizes 2..12, by float.hex
    GAUSSIAN_PINS = (
        "-0x1.1185dc949cc27p+1",
        "0x1.259d9b1beb38dp-1",
        "-0x1.fc7aa81768b7cp+2",
        "-0x1.7cb001b27a2abp-8",
        "-0x1.a48e305f430d3p+7",
        "-0x1.af6110fe7bed0p+8",
    )

    def test_fermionic_gaussian_bits_pinned(self):
        rng = np.random.default_rng(2026)
        for half, pin in enumerate(self.GAUSSIAN_PINS, start=1):
            mat = rng.normal(size=(2 * half, 2 * half))
            assert fermionic_gaussian(mat - mat.T).hex() == pin


def hex_terms(element):
    """The terms of ``element`` in order, each coefficient by ``float.hex``."""
    return [(mask, float(c).hex()) for mask, c in element.terms.items()]


def random_element(rng, n, count, coeff=float):
    return GrassmannElement(n, {rng.getrandbits(n) & rng.getrandbits(n): coeff(rng.uniform(-3, 3)) for _ in range(count)})


class TestFloatKernel:
    """The numpy kernel of ``multiply`` against its dict loop, bit for bit and term order included."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = grassmann._multiply_floats

        def spy(a, b):
            calls.append((len(a.terms), len(b.terms)))
            return kernel(a, b)

        monkeypatch.setattr(grassmann, "_multiply_floats", spy)
        return calls

    @staticmethod
    def loop(a, b):
        """The dict loop of ``multiply``, whatever the product's size."""
        crossover = grassmann.KERNEL_MIN_PAIRS
        grassmann.KERNEL_MIN_PAIRS = math.inf
        try:
            return multiply(a, b)
        finally:
            grassmann.KERNEL_MIN_PAIRS = crossover

    def assert_same(self, a, b):
        """The kernel, where its tables fit, and ``multiply`` give the loop's terms; returns them."""
        expected = hex_terms(self.loop(a, b))
        if 1 << a.generator_count <= grassmann.KERNEL_MAX_MASKS:
            assert hex_terms(grassmann._multiply_floats(a, b)) == expected
        assert hex_terms(multiply(a, b)) == expected
        return expected

    def test_both_sides_of_the_crossover(self, kernel_calls):
        rng = random.Random(2201)
        crossover = grassmann.KERNEL_MIN_PAIRS
        for n in (8, 10, 12):
            for count_b in (8, 16, 32):
                for pairs in (crossover - count_b, crossover):
                    a = GrassmannElement(n, {m: rng.uniform(-1, 1) for m in rng.sample(range(1, 1 << n), pairs // count_b)})
                    b = GrassmannElement(n, {m: rng.uniform(-1, 1) for m in rng.sample(range(1, 1 << n), count_b)})
                    assert self.assert_same(a, b)
                    del kernel_calls[:]
                    multiply(a, b)
                    size = len(a.terms) * len(b.terms)
                    # 2^12 masks are more than the pairs: 12 generators take the loop on both sides
                    assert bool(kernel_calls) == (size >= crossover and 1 << n <= size)

    def test_tables_past_the_cap_take_the_loop(self, kernel_calls, monkeypatch):
        rng = random.Random(16)
        a, b = random_element(rng, 10, 200), random_element(rng, 10, 200)
        monkeypatch.setattr(grassmann, "KERNEL_MAX_MASKS", 1 << 9)
        assert hex_terms(multiply(a, b)) == hex_terms(self.loop(a, b)) and kernel_calls == []
        monkeypatch.setattr(grassmann, "KERNEL_MAX_MASKS", 1 << 10)
        multiply(a, b)
        assert kernel_calls

    def test_sixty_four_generators_take_the_loop(self, kernel_calls):
        rng = random.Random(63)
        for _ in range(20):
            a, b = random_element(rng, MAX_GENERATORS, 60), random_element(rng, MAX_GENERATORS, 60)
            a = a + GrassmannElement.monomial(MAX_GENERATORS, [63, 5], rng.uniform(-1, 1))
            assert any(mask >> 63 for mask, _ in self.assert_same(a, b))
        assert kernel_calls == []

    def test_every_generator_count(self):
        rng = random.Random(1)
        for n in range(1, 17):  # every generator count whose 2^n-entry tables fit under KERNEL_MAX_MASKS
            self.assert_same(random_element(rng, n, 40), random_element(rng, n, 40))

    def test_blocks_carry_their_sums_in_order(self, monkeypatch):
        # blocks of a few pairs, so masks recur across blocks and their sums carry over
        rng = random.Random(7)
        for block in (1, 5, 64):
            monkeypatch.setattr(grassmann, "KERNEL_BLOCK_PAIRS", block)
            for n in (8, 12, 16):
                self.assert_same(random_element(rng, n, 50), random_element(rng, n, 50))
        q = GrassmannElement(10, {(1 << i) | (1 << j): rng.uniform(-1, 1) for i in range(10) for j in range(i + 1, 10)})
        self.assert_same(multiply(q, q), q)

    def test_cancellation_to_exact_zero(self):
        rng = random.Random(0)
        for n in (6, 12, 16):
            odd = GrassmannElement(n, {1 << i: rng.uniform(-1, 1) for i in range(n)})
            assert odd * odd == GrassmannElement.zero(n)  # c_i c_j - c_j c_i is exactly 0
            assert self.assert_same(odd, odd) == []
            # half the terms cancel: the odd square vanishes, the even cross terms stay
            even = GrassmannElement(n, {(1 << i) | (1 << (i + 1) % n): rng.uniform(-1, 1) for i in range(n)})
            mixed = odd + even
            assert self.assert_same(mixed, mixed)

    def test_numpy_float64_coefficients(self, kernel_calls):
        rng = random.Random(64)
        for n in (10, 16):
            a = random_element(rng, n, 60, np.float64)
            b = random_element(rng, n, 60, np.float64)
            assert all(type(c) is np.float64 for c in a.terms.values())
            self.assert_same(a, b)
        assert kernel_calls

    def test_mixed_float_fraction_takes_the_loop(self, kernel_calls):
        rng = random.Random(5)
        a = random_element(rng, 10, 60)
        b = random_element(rng, 10, 60, lambda x: Fraction(x).limit_denominator(100))
        b = b + GrassmannElement.scalar(10, 0.5)
        product = multiply(a, b)
        assert kernel_calls == [] and product == self.loop(a, b)
        assert {type(c) for c in product.terms.values()} == {float}  # float times Fraction is a float
        assert multiply(b, b) == self.loop(b, b) and kernel_calls == []
        multiply(a, a)
        assert kernel_calls  # the same shape on floats alone takes the kernel
