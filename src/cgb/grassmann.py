"""Finite-dimensional Grassmann algebra with Berezin integration.

Elements live in the real algebra generated by anticommuting symbols
theta_0, ..., theta_{N-1} (theta_i theta_j = -theta_j theta_i, so every
generator squares to zero).  A basis monomial is a subset of generators,
encoded as a bitmask; an element is a sparse map from bitmasks to
coefficients.  Coefficients are ordinary floats by default, but any field
that supports +, *, / and exact zero tests works -- ``fractions.Fraction``
gives an exact backend for validating sign conventions.

``multiply`` has two backends.  The dict loop runs every product of exact
(``int``, ``Fraction``) or mixed coefficients and every product of fewer
than ``KERNEL_MIN_PAIRS`` term pairs, the measured crossover.  A float
product at or above it runs a numpy kernel when its tables of 2^N entries
fit: 2^N at most the term pairs and at most ``KERNEL_MAX_MASKS``.  The
kernel takes the loop's pairs in the loop's order and adds each
coefficient in the loop's order, so the two agree bit for bit, term order
included; the dict loop is the oracle the kernel is tested against.  Both
backends take the sign of merging two monomials from one rule,
``_parity_word``, and a bit count: ``int.bit_count`` in the loop,
``np.bitwise_count`` in the kernel.  Float inputs reach the engine as
plain floats (``numpy.float64`` works too, with the same bits).

The two payload operations are

* ``berezin``: projection onto the coefficient of the full top monomial
  theta_0 theta_1 ... theta_{N-1} (in a caller-chosen generator ordering),
  which is the Berezin integral over the purely odd vector space, and
* ``fermionic_gaussian``: the Berezin integral of exp(-q/2)-type Gaussians
  of a skew quadratic form, which equals a Pfaffian.  The embedding
  constant is locked by the block-diagonal golden value
  ``fermionic_gaussian(block_diag(l_1 J, ..., l_n J)) == l_1 * ... * l_n``
  with J = [[0, -1], [1, 0]]; ``pfaffian_combinatorial`` implements the
  same convention by Laplace expansion and serves as an independent
  cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class DimensionMismatchError(ValueError):
    """Operands live in Grassmann algebras with different generator counts."""


class ParityError(ValueError):
    """An operation required an even (or odd) element and got a mixed one."""


MAX_GENERATORS = 64
# Float products of at least this many term pairs (len(a) * len(b)) run on
# the numpy kernel.  Measured over shapes whose tables fit (8 to 12 generators,
# sparse to dense masks): at 1,536 pairs and above the kernel won on all 25,
# by 1.7-4.6x; at 1,024 the dict loop won on 1 of 8, at 512 on 3 of 6.
KERNEL_MIN_PAIRS = 1536
# Term pairs per block of the kernel; this bounds its temporaries.
KERNEL_BLOCK_PAIRS = 8192
# The kernel keeps two tables of 2^N entries, so it runs only where 2^N is at
# most this and at most the product's term pairs; other products run the loop.
KERNEL_MAX_MASKS = 1 << 16


def _parity_word(mask: int) -> int:
    """Word whose bit j is set when ``mask`` has an odd number of bits above j.

    A suffix xor of ``mask >> 1``; the shifts 1, 2, ..., 32 reach every bit
    of a mask of up to 64 generators.  It runs unchanged on a uint64 array
    of masks, word by word, which is how the numpy kernel of ``multiply``
    takes its signs.
    """
    word = mask >> 1
    word ^= word >> 1
    word ^= word >> 2
    word ^= word >> 4
    word ^= word >> 8
    word ^= word >> 16
    word ^= word >> 32
    return word


def _merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of sorting the concatenation of two disjoint index sets.

    Equals the parity of the number of pairs (a, b), a in mask_a,
    b in mask_b, with a > b: the parity of the bits of mask_b at which
    ``_parity_word(mask_a)`` is set.
    """
    return -1 if (_parity_word(mask_a) & mask_b).bit_count() & 1 else 1


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of 0..n-1, by cycle decomposition."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class GrassmannElement:
    """Immutable sparse element of a Grassmann algebra on N generators.

    ``terms`` maps bitmasks (bit i set = generator i present) to nonzero
    coefficients; the empty mask 0 is the scalar part.  All operations
    return new elements; zero coefficients are pruned, so equality of the
    term maps is equality in the algebra.
    """

    __slots__ = ("generator_count", "terms")

    def __init__(self, generator_count: int, terms: Mapping[int, object] | None = None):
        if not 0 < generator_count <= MAX_GENERATORS:
            raise ValueError(f"generator_count must be in 1..{MAX_GENERATORS}, got {generator_count}")
        self.generator_count = generator_count
        full = (1 << generator_count) - 1
        clean: dict[int, object] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask < 0 or mask > full:
                    raise ValueError(f"mask {mask:#x} uses generators beyond {generator_count}")
                if coeff != 0:
                    clean[mask] = coeff
        self.terms = clean

    @classmethod
    def _from_clean(cls, generator_count: int, terms: dict) -> "GrassmannElement":
        """An element over ``terms`` as given: in-range masks, nonzero coefficients."""
        element = object.__new__(cls)
        element.generator_count = generator_count
        element.terms = terms
        return element

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, generator_count: int) -> "GrassmannElement":
        return cls(generator_count, {})

    @classmethod
    def scalar(cls, generator_count: int, value) -> "GrassmannElement":
        return cls(generator_count, {0: value})

    @classmethod
    def generator(cls, generator_count: int, index: int) -> "GrassmannElement":
        return cls.monomial(generator_count, [index])

    @classmethod
    def monomial(cls, generator_count: int, indices: Iterable[int], coeff=1) -> "GrassmannElement":
        """Product coeff * theta_{i_1} ... theta_{i_k} in the given order."""
        mask = 0
        sign = 1
        for i in indices:
            i = int(i)
            if not 0 <= i < generator_count:
                raise ValueError(f"generator index {i} out of range")
            bit = 1 << i
            if mask & bit:
                return cls.zero(generator_count)
            sign *= _merge_sign(mask, bit)
            mask |= bit
        return cls(generator_count, {mask: sign * coeff})

    # -- structure queries -------------------------------------------------

    def coefficient(self, mask: int):
        return self.terms.get(mask, 0)

    @property
    def scalar_part(self):
        return self.terms.get(0, 0)

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() % 2 == 1 for m in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "GrassmannElement") -> None:
        if self.generator_count != other.generator_count:
            raise DimensionMismatchError(
                f"generator counts differ: {self.generator_count} vs {other.generator_count}"
            )

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for mask, coeff in other.terms.items():
            acc[mask] = acc.get(mask, 0) + coeff
        return GrassmannElement(self.generator_count, acc)

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GrassmannElement(self.generator_count, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return multiply(self, other)
        return GrassmannElement(self.generator_count, {m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; Grassmann * Grassmann goes via __mul__
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.generator_count == other.generator_count and self.terms == other.terms

    def __hash__(self):
        return hash((self.generator_count, frozenset(self.terms.items())))

    def isclose(self, other: "GrassmannElement", tol: float = 1e-12) -> bool:
        self._check_compatible(other)
        masks = set(self.terms) | set(other.terms)
        return all(abs(self.coefficient(m) - other.coefficient(m)) <= tol for m in masks)

    def __repr__(self):
        if not self.terms:
            return "GrassmannElement(0)"
        bits = []
        for mask in sorted(self.terms):
            gens = "".join(f"t{i}" for i in range(self.generator_count) if mask >> i & 1)
            bits.append(f"{self.terms[mask]!r}*{gens}" if gens else repr(self.terms[mask]))
        return f"GrassmannElement({' + '.join(bits)})"


def multiply(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Bilinear product; monomials merge with the permutation-sorting sign.

    A float product of at least ``KERNEL_MIN_PAIRS`` term pairs runs on
    :func:`_multiply_floats` when its tables of 2^N entries fit: 2^N at most
    the pairs and at most ``KERNEL_MAX_MASKS``.  Every other product runs
    the dict loop below, the kernel's oracle.  Both take each pair's sign
    from ``_parity_word``: the parity of ``_parity_word(mask_a) & mask_b``.
    """
    a._check_compatible(b)
    pairs = len(a.terms) * len(b.terms)
    dense = 1 << a.generator_count <= min(pairs, KERNEL_MAX_MASKS)
    if pairs >= KERNEL_MIN_PAIRS and dense and _all_float(a) and _all_float(b):
        return _multiply_floats(a, b)
    acc: dict[int, object] = {}
    for mask_a, ca in a.terms.items():
        word = _parity_word(mask_a)  # the merge sign of mask_a, for every mask_b
        for mask_b, cb in b.terms.items():
            if mask_a & mask_b:
                continue
            val = -ca * cb if (word & mask_b).bit_count() & 1 else ca * cb
            mask = mask_a | mask_b
            prev = acc.get(mask)
            acc[mask] = val if prev is None else prev + val
    return GrassmannElement(a.generator_count, acc)


def _all_float(a: GrassmannElement) -> bool:
    """Whether every coefficient is a float (``numpy.float64`` included)."""
    return all(issubclass(kind, float) for kind in set(map(type, a.terms.values())))


def _multiply_floats(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """The dict loop of :func:`multiply` on float coefficients, in numpy, bit for bit.

    The term pairs are taken a-major then b, as in the loop, in blocks of
    a's terms of about ``KERNEL_BLOCK_PAIRS`` pairs.  Two tables indexed by
    result mask hold each mask's sum so far and the loop position at which
    the loop first meets it.  ``np.add.at`` adds a block's products into
    the sums one by one in loop order, so every coefficient is the loop's
    sum of the same products in the same order, and the masks come out in
    the order the loop first meets them.  Exact zeros are pruned.  Each
    pair's sign is the loop's: the low bit of ``np.bitwise_count`` of
    ``_parity_word(mask_a) & mask_b``, on uint64.
    """
    import numpy as np

    m = a.generator_count
    masks_a = np.fromiter(a.terms, np.uint64, len(a.terms))
    coeffs_a = np.fromiter(a.terms.values(), np.float64, len(a.terms))
    masks_b = np.fromiter(b.terms, np.uint64, len(b.terms))
    coeffs_b = np.fromiter(b.terms.values(), np.float64, len(b.terms))
    words_a = _parity_word(masks_a)
    sums = np.zeros(1 << m)
    first = np.full(1 << m, np.iinfo(np.intp).max)
    met = []  # each block's masks that the loop meets first there, in that order
    rows = max(1, KERNEL_BLOCK_PAIRS // len(masks_b))
    with np.errstate(all="ignore"):  # overflow to inf and nan as the loop's float arithmetic gives them
        for start in range(0, len(masks_a), rows):
            disjoint = np.flatnonzero((masks_a[start : start + rows, None] & masks_b) == 0)
            ia, ib = np.divmod(disjoint, len(masks_b))  # the loop's pairs, a-major then b
            ia += start
            masks = (masks_a[ia] | masks_b[ib]).astype(np.intp)
            values = coeffs_a[ia] * coeffs_b[ib]
            odd = np.bitwise_count(words_a[ia] & masks_b[ib]) & 1
            np.negative(values, out=values, where=odd.astype(bool))
            positions = disjoint + start * len(masks_b)
            np.minimum.at(first, masks, positions)
            met.append(masks[first[masks] == positions])
            np.add.at(sums, masks, values)
    order = np.concatenate(met)
    coeffs = sums[order]
    nonzero = coeffs != 0
    return GrassmannElement._from_clean(m, dict(zip(order[nonzero].tolist(), coeffs[nonzero].tolist())))


def exp_even(a: GrassmannElement) -> GrassmannElement:
    """Exponential of an even element; exact, the nilpotent series terminates.

    With a = b + n (b scalar, n nilpotent), returns
    e^b * sum_{k=0}^{floor(N/2)} n^k / k!.  Exact-coefficient inputs must
    have b = 0 since e^b leaves the field.
    """
    if not a.is_even():
        raise ParityError("exp_even requires an even element")
    b = a.scalar_part
    if b == 0:
        scale = 1
    elif isinstance(b, Fraction):
        raise ValueError("exact backend supports exp only for vanishing scalar part")
    else:
        scale = math.exp(b)
    nilpotent = GrassmannElement(a.generator_count, {m: c for m, c in a.terms.items() if m != 0})
    result = GrassmannElement.scalar(a.generator_count, 1)
    power = result
    kfact = 1
    for k in range(1, a.generator_count // 2 + 1):
        power = multiply(power, nilpotent)
        if not power.terms:
            break
        kfact *= k
        result = result + GrassmannElement(
            a.generator_count, {m: _divide(c, kfact) for m, c in power.terms.items()}
        )
    if scale != 1:
        result = result * scale
    return result


def _divide(coeff, k: int):
    if isinstance(coeff, (int, Fraction)):
        q = Fraction(coeff, k)
        return int(q) if q.denominator == 1 else q
    return coeff / k


def berezin(a: GrassmannElement, ordering: Sequence[int]) -> object:
    """Coefficient of the full top monomial in the given generator ordering.

    ``ordering`` must be a permutation of all generator indices; the result
    is the canonical top coefficient times the sign of that permutation,
    i.e. the Berezin integral with [d theta_{ordering}] orientation.
    """
    n = a.generator_count
    if sorted(ordering) != list(range(n)):
        raise ValueError(f"ordering must be a permutation of 0..{n - 1}, got {list(ordering)}")
    top = (1 << n) - 1
    return permutation_sign(list(ordering)) * a.coefficient(top)


def _plain(value):
    """A numpy array or scalar as plain Python numbers (``tolist``); anything else as it is."""
    return value.tolist() if hasattr(value, "tolist") else value


def _as_rows(q) -> list[list]:
    """The entries of q as lists of plain numbers: a numpy array, row or entry is read through ``tolist``.

    So integer entries give exact ints where int64 products would wrap, and a float64 array plain floats.
    """
    rows = q.tolist() if hasattr(q, "tolist") else [[_plain(x) for x in _plain(row)] for row in q]
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("quadratic form must be a square matrix")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x != x or abs(x) == math.inf:
                raise ValueError(f"quadratic form entry ({i}, {j}) is not finite: {x}")
    return rows


def _check_skew(rows: list[list], tol: float) -> None:
    m = len(rows)
    scale = max((abs(rows[i][j]) for i in range(m) for j in range(m)), default=0) or 1
    worst = max(abs(rows[i][j] + rows[j][i]) for i in range(m) for j in range(m))
    if worst > tol * scale:
        raise ValueError(f"matrix is not skew-symmetric: max |q + q^T| = {worst}")


def fermionic_gaussian(q, tol: float = 1e-10):
    """Berezin integral of the fermionic Gaussian of a skew form q.

    Builds the even element Q = sum_{i<j} q_ij theta_i theta_j, exponentiates
    with the calibrated embedding constant, and projects onto the top
    monomial.  Calibration: block_diag(l_1 J, ..., l_n J) with
    J = [[0, -1], [1, 0]] maps to the product of the l_i, and the square of
    the result is det(q).

    Q is homogeneous of degree two, so only the n-th power of the series
    reaches the top monomial: the value is the top coefficient of Q^n / n!,
    computed here from two half powers.  This equals
    berezin(exp_even(-Q), range(2n)) exactly.

    Float entries, a float64 array's included, give a plain ``float``, not
    ``numpy.float64``; ``int`` and ``Fraction`` entries give an exact
    ``int`` or ``Fraction``, and so does an integer array: its entries are
    read as Python ints, which do not wrap.  A 0x0 form gives the int 1,
    the empty Pfaffian.
    """
    rows = _as_rows(q)
    m = len(rows)
    if m == 0:
        return 1  # the empty Pfaffian, as pfaffian_combinatorial gives it
    if m % 2 != 0:
        raise ValueError(f"skew form must have even dimension, got {m}")
    _check_skew(rows, tol)
    terms = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rows[i][j] != 0:
                # locked by the block-diagonal golden value: exponent carries -q
                terms[(1 << i) | (1 << j)] = -rows[i][j]
    element = GrassmannElement(m, terms)
    n = m // 2
    low = GrassmannElement.scalar(m, 1)
    for _ in range(n // 2):
        low = multiply(low, element)
    high = multiply(low, element) if n % 2 else low
    full = (1 << m) - 1
    top = 0
    for mask, coeff in low.terms.items():
        other = high.terms.get(full ^ mask)
        if other is not None:
            top += _merge_sign(mask, full ^ mask) * coeff * other
    return _divide(top, math.factorial(n))


def pfaffian_combinatorial(q):
    """Pfaffian by Laplace expansion along the first row.

    Exact for integer or Fraction entries.  The sub-Pfaffian of each active
    index set is expanded once, so the work is bounded by the 2^(2n) index
    subsets instead of growing factorially.  Intended as the independent
    cross-check for ``fermionic_gaussian`` up to 2n = 12.  Uses the same
    sign convention (block_diag(l_1 J, ..., l_n J) -> prod l_i) and returns
    the same types: a plain ``float`` for float entries, a float64 array's
    included, an exact ``int`` for an integer array, whose entries are read
    as Python ints, which do not wrap, and the int 1 for a 0x0 form.
    """
    rows = _as_rows(q)
    m = len(rows)
    if m % 2 != 0:
        raise ValueError(f"Pfaffian needs even dimension, got {m}")
    # same normal-form convention as fermionic_gaussian: expand -q
    negated = [[-x for x in row] for row in rows]
    return _pf_expand(negated, tuple(range(m)), {})


def _pf_expand(rows: list[list], active: tuple[int, ...], memo: dict):
    """Pfaffian of the rows/columns ``active``; ``memo`` keeps each sub-Pfaffian once."""
    if not active:
        return 1
    if active in memo:
        return memo[active]
    i0 = active[0]
    rest = active[1:]
    total = 0
    for pos, j in enumerate(rest):
        coeff = rows[i0][j]
        if coeff == 0:
            continue
        sign = 1 if pos % 2 == 0 else -1
        sub = rest[:pos] + rest[pos + 1:]
        total += sign * coeff * _pf_expand(rows, sub, memo)
    memo[active] = total
    return total
