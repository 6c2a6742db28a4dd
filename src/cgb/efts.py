"""Exact symbolic algebra of polynomial functions with odd source directions.

For delta in {1, 2} and m base variables x^1..x^m, the function algebra is
freely generated by symbols D_I x^j, one per direction subset I:

    delta = 1:  x^j, Dx^j
    delta = 2:  x^j, D1x^j, D2x^j, D21x^j   (D21 = D2 D1 applied to x)

A generator carries polynomial degree |I| and parity |I| mod 2; odd
generators anticommute and square to zero, even generators are central.
Coefficients are exact rationals, so the sign identities below hold on the
nose, not to tolerance.

Operators (all graded derivations determined by their generator tables):

* ``apply_d(i, p)``      -- the odd translation action d_i, degree +1,
                            with d_i d_j = -d_j d_i and d_i^2 = 0;
* ``apply_Delta(p)``     -- the composition d_delta ... d_1, degree +delta;
* ``apply_L(v, p)``      -- Lie derivative along a base vector field with
                            polynomial coefficients, degree 0;
* ``apply_iota(k, psi, p)`` -- odd contraction in direction k, degree -1;
* ``apply_Iw(w, p)``     -- the top contraction, degree -delta.

``check_cartan`` verifies [d_delta, ... [d_2, [d_1, I_w]] ...] = L_w on a
monomial basis.  ``concordance_solve`` decides whether E_+ - E_- = Delta e
has a solution (a witness for the two inputs being equivalent) by exact
linear algebra in each (degree, weight) block, and otherwise certifies
that the difference is not in the image of Delta within the truncation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

Gen = tuple[int, int]  # (variable index, direction subset bitmask)
EvenPart = tuple[tuple[Gen, int], ...]  # sorted ((var, mask), exponent)
OddPart = tuple[Gen, ...]  # sorted
MonomialKey = tuple[EvenPart, OddPart]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _gen_degree(gen: Gen) -> int:
    return gen[1].bit_count()


def _gen_parity(gen: Gen) -> int:
    return gen[1].bit_count() & 1


def _merge_odd(a: OddPart, b: OddPart) -> tuple[OddPart, int] | None:
    """Merge two sorted odd-generator tuples; None if a generator repeats."""
    merged: list[Gen] = []
    i = j = swaps = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            swaps += len(a) - i
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), (-1 if swaps & 1 else 1)


def _merge_even(a: EvenPart, b: EvenPart) -> EvenPart:
    exps: dict[Gen, int] = dict(a)
    for gen, k in b:
        exps[gen] = exps.get(gen, 0) + k
    return tuple(sorted(exps.items()))


class SuperPolynomial:
    """Sparse exact-coefficient polynomial in the generators D_I x^j."""

    __slots__ = ("delta", "m", "terms")

    def __init__(self, delta: int, m: int, terms: dict[MonomialKey, Fraction] | None = None):
        if delta not in (1, 2):
            raise ValueError(f"delta must be 1 or 2, got {delta}")
        if m < 1:
            raise ValueError(f"need at least one base variable, got {m}")
        self.delta = delta
        self.m = m
        clean: dict[MonomialKey, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff != 0:
                    clean[key] = Fraction(coeff)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, delta: int, m: int) -> "SuperPolynomial":
        return cls(delta, m)

    @classmethod
    def constant(cls, delta: int, m: int, value) -> "SuperPolynomial":
        return cls(delta, m, {((), ()): Fraction(value)})

    @classmethod
    def generator(cls, delta: int, m: int, var: int, mask: int, coeff=1) -> "SuperPolynomial":
        if not 0 <= var < m:
            raise ValueError(f"variable index {var} out of range for m={m}")
        if mask < 0 or mask >= (1 << delta):
            raise ValueError(f"direction mask {mask} invalid for delta={delta}")
        gen = (var, mask)
        if _gen_parity(gen):
            key: MonomialKey = ((), (gen,))
        else:
            key = (((gen, 1),), ())
        return cls(delta, m, {key: Fraction(coeff)})

    @classmethod
    def variable(cls, delta: int, m: int, var: int) -> "SuperPolynomial":
        return cls.generator(delta, m, var, 0)

    # -- gradings ----------------------------------------------------------

    @staticmethod
    def key_degree(key: MonomialKey) -> int:
        evens, odds = key
        return sum(_gen_degree(g) * k for g, k in evens) + sum(_gen_degree(g) for g in odds)

    @staticmethod
    def key_weight(key: MonomialKey) -> int:
        """Number of generator factors with multiplicity (preserved by d_i)."""
        evens, odds = key
        return sum(k for _, k in evens) + len(odds)

    @staticmethod
    def key_parity(key: MonomialKey) -> int:
        return len(key[1]) & 1

    def is_zero(self) -> bool:
        return not self.terms

    def is_even(self) -> bool:
        return all(self.key_parity(k) == 0 for k in self.terms)

    def is_odd(self) -> bool:
        return all(self.key_parity(k) == 1 for k in self.terms)

    def degrees(self) -> set[int]:
        return {self.key_degree(k) for k in self.terms}

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "SuperPolynomial") -> None:
        if self.delta != other.delta or self.m != other.m:
            raise ValueError("operands live in different function algebras")

    def __add__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, _ZERO) + coeff
        return SuperPolynomial(self.delta, self.m, acc)

    def __sub__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SuperPolynomial(self.delta, self.m, {k: -c for k, c in self.terms.items()})

    def scale(self, factor) -> "SuperPolynomial":
        factor = Fraction(factor)
        return SuperPolynomial(self.delta, self.m, {k: factor * c for k, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check(other)
        acc: dict[MonomialKey, Fraction] = {}
        for (ev_a, od_a), ca in self.terms.items():
            for (ev_b, od_b), cb in other.terms.items():
                merged = _merge_odd(od_a, od_b)
                if merged is None:
                    continue
                odd, sign = merged
                key = (_merge_even(ev_a, ev_b), odd)
                acc[key] = acc.get(key, _ZERO) + sign * ca * cb
        return SuperPolynomial(self.delta, self.m, acc)

    def __eq__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.delta == other.delta and self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.delta, self.m, frozenset(self.terms.items())))

    def __repr__(self):
        return f"SuperPolynomial({format_polynomial(self)!r})"


# -- generator names and parsing -----------------------------------------------


def generator_name(delta: int, gen: Gen) -> str:
    var, mask = gen
    if mask == 0:
        return f"x{var + 1}"
    if delta == 1:
        return f"Dx{var + 1}"
    dirs = "".join(str(i + 1) for i in reversed(range(2)) if mask >> i & 1)
    return f"D{dirs}x{var + 1}"


def _generator_table(delta: int) -> dict[str, int]:
    """Name prefix -> direction mask, read off ``generator_name``."""
    return {generator_name(delta, (0, mask)).rpartition("x")[0]: mask for mask in range(1 << delta)}


def format_polynomial(p: SuperPolynomial) -> str:
    """Canonical text form; parse(format(p)) == p."""
    if not p.terms:
        return "0"

    def sort_key(item):
        key, _ = item
        return (SuperPolynomial.key_degree(key), SuperPolynomial.key_weight(key), key)

    pieces = []
    for key, coeff in sorted(p.terms.items(), key=sort_key):
        evens, odds = key
        factors = []
        for gen, k in evens:
            name = generator_name(p.delta, gen)
            factors.append(name if k == 1 else f"{name}^{k}")
        factors.extend(generator_name(p.delta, g) for g in odds)
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


_TOKEN = re.compile(r"\s*(?:(?P<field>d/dx\d+)|(?P<name>D\d*x\d+|x\d+)|(?P<int>\d+)|(?P<op>[-+*^/]))")


class ParseError(ValueError):
    pass


def _power(delta: int, m: int, gen: Gen, k: int) -> SuperPolynomial:
    """gen^k in one step: an odd generator squares to zero."""
    if _gen_parity(gen):
        terms = {((), (gen,) * k): _ONE} if k < 2 else {}
    else:
        terms = {(((gen, k),) if k else (), ()): _ONE}
    return SuperPolynomial(delta, m, terms)


def _summands(text: str, delta: int, m: int):
    """Yield (product of factors, j or None) per summand of ``text``.

    A summand is a run of signs, then factors joined by '*': an integer or
    fraction, or a generator with an optional power.  j is the variable
    index of a closing ``d/dx<j>``, which may only end a summand.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at {text[pos:]!r}")
            break
        pos = match.end()
        tokens.append((match.lastgroup, match.group(match.lastgroup)))
    table = _generator_table(delta)
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in (("op", "-"), ("op", "+")):
            if tokens[i] == ("op", "-"):
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign")
        term = SuperPolynomial.constant(delta, m, sign)
        direction = None
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if direction is not None:
                raise ParseError(f"d/dx{direction + 1} must end its term, found {val!r} after it")
            if kind == "op" and val == "*":
                if expect_factor:
                    raise ParseError("empty factor before '*'")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ParseError(f"missing operator before {val!r}")
            if kind == "int":
                coeff = Fraction(int(val))
                if i + 2 < n and tokens[i + 1] == ("op", "/") and tokens[i + 2][0] == "int":
                    denominator = int(tokens[i + 2][1])
                    if denominator == 0:
                        raise ParseError(f"zero denominator in {val}/{tokens[i + 2][1]}")
                    coeff /= denominator
                    i += 2
                term = term * coeff
            elif kind in ("name", "field"):
                head, _, idx = val.rpartition("x")
                var = int(idx) - 1
                if not 0 <= var < m:
                    raise ParseError(f"variable {val!r} out of range for m={m}")
                if kind == "field":
                    direction = var
                elif head not in table:
                    raise ParseError(f"unknown generator prefix in {val!r} for delta={delta}")
                else:
                    power = 1
                    if i + 2 < n and tokens[i + 1] == ("op", "^") and tokens[i + 2][0] == "int":
                        power = int(tokens[i + 2][1])
                        i += 2
                    term = term * _power(delta, m, (var, table[head]), power)
            else:
                raise ParseError(f"unexpected token {val!r}")
            i += 1
            expect_factor = False
        if expect_factor:
            raise ParseError("empty factor after '*'")
        yield term, direction


def parse_polynomial(text: str, delta: int, m: int) -> SuperPolynomial:
    """Parse the canonical text syntax, e.g. ``2*x1*D21x1 - 2*D1x1*D2x1``."""
    result = SuperPolynomial.zero(delta, m)
    for term, direction in _summands(text, delta, m):
        if direction is not None:
            raise ParseError(f"unexpected token 'd/dx{direction + 1}' in a polynomial")
        result = result + term
    return result


def parse_vector_field(text: str, delta: int, m: int) -> "VectorField":
    """Parse e.g. ``d/dx1``, ``x1*d/dx1``, or ``x2*d/dx1 - x1^2*d/dx2``."""
    summands = list(_summands(text, delta, m))
    if not summands:
        raise ParseError("empty vector field")
    components = [SuperPolynomial.zero(delta, m) for _ in range(m)]
    for term, direction in summands:
        if direction is None:
            raise ParseError(f"vector-field term {format_polynomial(term)!r} must end in d/dx<j>")
        components[direction] = components[direction] + term
    return VectorField(delta, m, components)


# -- derivations -----------------------------------------------------------------


def _apply_derivation(
    p: SuperPolynomial, parity: int, image: Callable[[Gen], SuperPolynomial]
) -> SuperPolynomial:
    """Extend a generator table to the algebra by the graded Leibniz rule.

    For each monomial factor g at position i the term is
    (-1)^(parity * parity(prefix)) * prefix * image(g) * suffix; prefixes of
    a canonical monomial are canonical, so no extra reordering signs enter.
    """
    out = SuperPolynomial.zero(p.delta, p.m)
    for (evens, odds), coeff in p.terms.items():
        tail_odds = SuperPolynomial(p.delta, p.m, {((), odds): _ONE})
        # even factors first: their prefixes are even, so no sign, but the
        # image must be inserted at the factor position, before the odd part
        for pos, (gen, k) in enumerate(evens):
            img = image(gen)
            if img.is_zero():
                continue
            rest = list(evens)
            rest[pos] = (gen, k - 1)
            rest_key: MonomialKey = (tuple((g, e) for g, e in rest if e > 0), ())
            lead = SuperPolynomial(p.delta, p.m, {rest_key: coeff * k})
            out = out + lead * img * tail_odds
        # odd factors: prefix parity counts the preceding odd factors
        for pos, gen in enumerate(odds):
            img = image(gen)
            if img.is_zero():
                continue
            sign = -1 if (parity and pos & 1) else 1
            prefix: MonomialKey = (evens, odds[:pos])
            suffix: MonomialKey = ((), odds[pos + 1:])
            lead = SuperPolynomial(p.delta, p.m, {prefix: coeff * sign})
            tail = SuperPolynomial(p.delta, p.m, {suffix: _ONE})
            out = out + lead * img * tail
    return out


def apply_d(i: int, p: SuperPolynomial) -> SuperPolynomial:
    """Odd translation derivation d_i; raises polynomial degree by one."""
    if not 1 <= i <= p.delta:
        raise ValueError(f"direction {i} out of range for delta={p.delta}")
    bit = 1 << (i - 1)

    def image(gen: Gen) -> SuperPolynomial:
        var, mask = gen
        if mask & bit:
            return SuperPolynomial.zero(p.delta, p.m)
        higher = (mask >> (i - 1) >> 1).bit_count()  # directions above i already applied
        sign = -1 if higher & 1 else 1
        return SuperPolynomial.generator(p.delta, p.m, var, mask | bit, sign)

    return _apply_derivation(p, 1, image)


def apply_Delta(p: SuperPolynomial) -> SuperPolynomial:
    """The composition d_delta ... d_1; raises degree by delta."""
    out = p
    for i in range(1, p.delta + 1):
        out = apply_d(i, out)
    return out


class VectorField:
    """Base vector field with polynomial coefficients: sum_j coeff_j d/dx^j."""

    def __init__(self, delta: int, m: int, components: Sequence[SuperPolynomial]):
        if len(components) != m:
            raise ValueError(f"need {m} components, got {len(components)}")
        for comp in components:
            if comp.delta != delta or comp.m != m:
                raise ValueError("component algebra mismatch")
            for (evens, odds) in comp.terms:
                if odds or any(mask != 0 for (_, mask), _ in evens):
                    raise ValueError("vector-field coefficients must involve base variables only")
        self.delta = delta
        self.m = m
        self.components = list(components)

    @classmethod
    def coordinate(cls, delta: int, m: int, var: int) -> "VectorField":
        comps = [
            SuperPolynomial.constant(delta, m, 1 if j == var else 0) for j in range(m)
        ]
        return cls(delta, m, comps)


def _d_composite(mask: int, p: SuperPolynomial) -> SuperPolynomial:
    """Apply d_I for the direction subset ``mask``, lowest direction first."""
    out = p
    for i in range(1, p.delta + 1):
        if mask >> (i - 1) & 1:
            out = apply_d(i, out)
    return out


def apply_L(v: VectorField, p: SuperPolynomial) -> SuperPolynomial:
    """Lie derivative along v: even derivation with L(D_I x^j) = D_I v^j."""

    def image(gen: Gen) -> SuperPolynomial:
        var, mask = gen
        return _d_composite(mask, v.components[var])

    return _apply_derivation(p, 0, image)


def apply_iota(k: int, psi: VectorField, p: SuperPolynomial) -> SuperPolynomial:
    """Odd contraction in direction k; lowers polynomial degree by one.

    Generator table (delta = 2): x -> 0, D_k x -> psi component, the other
    odd generator -> 0, and D21x -> the complementary derivative of the
    component, signed so that [d_k, iota_k] = L_psi.
    """
    if not 1 <= k <= p.delta:
        raise ValueError(f"direction {k} out of range for delta={p.delta}")
    bit = 1 << (k - 1)

    def image(gen: Gen) -> SuperPolynomial:
        var, mask = gen
        if mask == bit:
            return psi.components[var]
        if p.delta == 2 and mask == 3:
            if k == 1:
                return -apply_d(2, psi.components[var])
            return apply_d(1, psi.components[var])
        return SuperPolynomial.zero(p.delta, p.m)

    return _apply_derivation(p, 1, image)


def grading_involution(p: SuperPolynomial) -> SuperPolynomial:
    """The reflection action on the odd directions: odd terms flip sign.

    Twisted inputs are required to be eigenvectors of this involution;
    ``concordance_solve`` admits only the +1 eigenspace (even elements).
    """
    return SuperPolynomial(
        p.delta,
        p.m,
        {key: -c if SuperPolynomial.key_parity(key) else c for key, c in p.terms.items()},
    )


def apply_Iw(w: VectorField, p: SuperPolynomial) -> SuperPolynomial:
    """Top contraction: kills every generator except D_{full} x^j -> w^j.

    Parity is delta mod 2; polynomial degree drops by delta.
    """
    full = (1 << p.delta) - 1

    def image(gen: Gen) -> SuperPolynomial:
        var, mask = gen
        if mask == full:
            return w.components[var]
        return SuperPolynomial.zero(p.delta, p.m)

    return _apply_derivation(p, p.delta & 1, image)


# -- monomial bases -------------------------------------------------------------


def enumerate_monomials(
    delta: int, m: int, max_degree: int, max_weight: int
) -> list[MonomialKey]:
    """All monomial keys with polynomial degree and factor count in bounds."""
    if max_degree < 0 or max_weight < 0:
        raise ValueError(f"degree and weight caps must be non-negative, got {max_degree} and {max_weight}")
    gens: list[Gen] = [(j, mask) for j in range(m) for mask in range(1 << delta)]
    keys: list[MonomialKey] = []

    def build(idx: int, evens: list, odds: list, degree: int, weight: int):
        if idx == len(gens):
            keys.append((tuple(evens), tuple(odds)))
            return
        gen = gens[idx]
        gdeg = _gen_degree(gen)
        build(idx + 1, evens, odds, degree, weight)
        if _gen_parity(gen):
            if degree + gdeg <= max_degree and weight + 1 <= max_weight:
                build(idx + 1, evens, odds + [gen], degree + gdeg, weight + 1)
        else:
            k = 1
            while degree + k * gdeg <= max_degree and weight + k <= max_weight:
                build(idx + 1, evens + [(gen, k)], odds, degree + k * gdeg, weight + k)
                k += 1

    build(0, [], [], 0, 0)
    keys.sort(key=lambda key: (SuperPolynomial.key_degree(key), SuperPolynomial.key_weight(key), key))
    return keys


def monomial(delta: int, m: int, key: MonomialKey, coeff=1) -> SuperPolynomial:
    return SuperPolynomial(delta, m, {key: Fraction(coeff)})


# -- the Cartan identity ---------------------------------------------------------


@dataclass(frozen=True)
class CartanReport:
    holds: bool
    checked: int
    counterexample: str | None = None


def check_cartan(
    w: VectorField, degree_cap: int = 3, weight_cap: int = 4
) -> CartanReport:
    """Verify [d_delta, ..., [d_2, [d_1, I_w]] ...] = L_w on a monomial basis.

    Nested graded commutators are expanded operator-by-operator; the check
    is exact.  Returns the first offending monomial on failure.
    """
    delta, m = w.delta, w.m

    def make_commutator(op_a, parity_a, op_b, parity_b):
        # graded commutator: AB - (-1)^(pa pb) BA
        anticommute = bool(parity_a & parity_b)

        def commutator(p):
            first = op_a(op_b(p))
            second = op_b(op_a(p))
            return first + second if anticommute else first - second

        return commutator, (parity_a + parity_b) & 1

    op, parity = (lambda p: apply_Iw(w, p)), delta & 1
    for i in range(1, delta + 1):
        op, parity = make_commutator(lambda p, i=i: apply_d(i, p), 1, op, parity)

    checked = 0
    for key in enumerate_monomials(delta, m, degree_cap, weight_cap):
        mono = monomial(delta, m, key)
        lhs = op(mono)
        rhs = apply_L(w, mono)
        checked += 1
        if lhs != rhs:
            return CartanReport(
                holds=False,
                checked=checked,
                counterexample=(
                    f"monomial {format_polynomial(mono)}: commutator gives "
                    f"{format_polynomial(lhs)}, Lie derivative gives {format_polynomial(rhs)}"
                ),
            )
    return CartanReport(holds=True, checked=checked)


# -- concordance -----------------------------------------------------------------


@dataclass(frozen=True)
class ConcordanceResult:
    feasible: bool
    witness: SuperPolynomial | None
    certificate: str | None

    def __bool__(self) -> bool:
        return self.feasible


def _closedness_violation(p: SuperPolynomial) -> str | None:
    for i in range(1, p.delta + 1):
        if not apply_d(i, p).is_zero():
            return f"input is not d_{i}-closed"
    return None


def concordance_solve(e_plus: SuperPolynomial, e_minus: SuperPolynomial) -> ConcordanceResult:
    """Solve Delta e = E_+ - E_- exactly, or certify infeasibility.

    Both inputs must be even and closed under every d_i.  The system splits
    into finite blocks indexed by (polynomial degree, factor count), since
    Delta raises degree by delta and preserves the factor count; within each
    block Gaussian elimination over the rationals with lexicographic pivots
    gives a deterministic witness (free variables set to zero).
    """
    e_plus._check(e_minus)
    delta, m = e_plus.delta, e_plus.m
    for label, e in (("E_+", e_plus), ("E_-", e_minus)):
        if not e.is_even():
            raise ValueError(f"{label} must be even")
        violation = _closedness_violation(e)
        if violation is not None:
            raise ValueError(f"{label}: {violation}")
    target = e_plus - e_minus
    if target.is_zero():
        return ConcordanceResult(True, SuperPolynomial.zero(delta, m), None)

    blocks: dict[tuple[int, int], dict[MonomialKey, Fraction]] = {}
    for key, coeff in target.terms.items():
        label = (SuperPolynomial.key_degree(key), SuperPolynomial.key_weight(key))
        blocks.setdefault(label, {})[key] = coeff

    witness = SuperPolynomial.zero(delta, m)
    for (degree, weight), block in sorted(blocks.items()):
        source_degree = degree - delta
        if source_degree < 0:
            return ConcordanceResult(
                False,
                None,
                f"target has degree-{degree} terms but the image of Delta starts at degree {delta}",
            )
        basis = enumerate_monomials(delta, m, source_degree, weight)
        basis = [
            k
            for k in basis
            if SuperPolynomial.key_degree(k) == source_degree
            and SuperPolynomial.key_weight(k) == weight
        ]
        columns = [apply_Delta(monomial(delta, m, key)) for key in basis]
        solution = _solve_block(columns, block, delta, m)
        if solution is None:
            return ConcordanceResult(
                False,
                None,
                f"degree-{degree} weight-{weight} component is not in the image of Delta",
            )
        for key, coeff in zip(basis, solution):
            if coeff != 0:
                witness = witness + monomial(delta, m, key, coeff)
    check = apply_Delta(witness) - target
    if not check.is_zero():
        raise AssertionError("internal error: witness verification failed")
    return ConcordanceResult(True, witness, None)


def _solve_block(
    columns: list[SuperPolynomial], target: dict[MonomialKey, Fraction], delta: int, m: int
) -> list[Fraction] | None:
    """Exact dense solve of sum_j c_j * columns_j = target; None if infeasible."""
    rows = sorted(set(target) | {k for col in columns for k in col.terms})
    row_index = {key: i for i, key in enumerate(rows)}
    nrows, ncols = len(rows), len(columns)
    matrix = [[_ZERO] * (ncols + 1) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for key, coeff in col.terms.items():
            matrix[row_index[key]][j] = coeff
    for key, coeff in target.items():
        matrix[row_index[key]][ncols] = coeff

    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = 1 / matrix[row][col]
        matrix[row] = [v * inv for v in matrix[row]]
        for r in range(nrows):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        pivot_cols.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if matrix[r][ncols] != 0:
            return None
    solution = [_ZERO] * ncols
    for r, col in enumerate(pivot_cols):
        solution[col] = matrix[r][ncols]
    return solution
