"""Integer polynomials assembled from cyclotomic factors.

The generator data for a monodromy group is a pair of exponent vectors
alpha, beta of rationals in [0, 1); each vector determines the monic
integer polynomial whose roots are e^{2*pi*i*a_j}.  Conversion is done
symbolically, never through floating-point roots: the exponent multiset is
factored into complete Galois orbits (all residues coprime to a common
denominator q, with one multiplicity per q) and the corresponding
cyclotomic polynomials are multiplied out over the integers.  A multiset
that does not decompose this way cannot give integer coefficients and is
rejected with ``GaloisOrbitError``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .linalg import parse_fraction


class GaloisOrbitError(ValueError):
    """Exponent multiset is not a union of complete Galois orbits."""


class ConjugacyError(ValueError):
    """Exponent multiset is not closed under x -> 1 - x (mod 1)."""


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1]

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]

    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self.coefficient(k) + other.coefficient(k) for k in range(n)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self.coefficient(k) - other.coefficient(k) for k in range(n)))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = IntPolynomial((1,))
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0 and self.degree > 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "X" if mag == 1 else "%dX" % mag
            else:
                body = "X^%d" % k if mag == 1 else "%dX^%d" % (mag, k)
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms) if terms else "0"

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def from_list(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        return cls(tuple(int(x) for x in coeffs))


def _exact_div(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Exact division of integer polynomials; raises if not exact."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num.coeffs)
    out = [0] * (len(rem) - len(den.coeffs) + 1)
    d = den.coeffs
    for k in range(len(out) - 1, -1, -1):
        head = rem[k + len(d) - 1]
        if head % d[-1] != 0:
            raise ValueError("inexact polynomial division")
        q = head // d[-1]
        out[k] = q
        if q:
            for i, c in enumerate(d):
                rem[k + i] -= q * c
    if any(rem):
        raise ValueError("inexact polynomial division")
    return IntPolynomial(tuple(out))


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by the recursive division definition:

    X^n - 1 = prod over d | n of Phi_d, so Phi_n is the exact quotient of
    X^n - 1 by the product of Phi_d over proper divisors d.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic_poly(d))
    return num


class ExponentVector:
    """Tuple of reduced rationals in [0, 1), closed under x -> 1 - x mod 1.

    Closure under conjugation is what makes the associated polynomial real;
    it is checked at construction.  Orbit completeness (what makes the
    polynomial integral) is checked later, in ``from_exponents``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        reduced = tuple(Fraction(x) % 1 for x in entries)
        object.__setattr__(self, "entries", reduced)
        mirrored = Counter((1 - e) % 1 for e in reduced)
        if mirrored != Counter(reduced):
            raise ConjugacyError(
                "exponent multiset %s is not closed under x -> 1 - x (mod 1)"
                % (self.to_strings(),)
            )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "ExponentVector(%s)" % ", ".join(str(e) for e in self.entries)

    def to_strings(self) -> list[str]:
        return [str(e) for e in self.entries]

    @classmethod
    def from_strings(cls, items: Iterable) -> "ExponentVector":
        return cls(parse_fraction(str(x)) for x in items)


def from_exponents(exponents: ExponentVector) -> IntPolynomial:
    """prod_j (X - e^{2 pi i a_j}) as an exact integer polynomial.

    Groups the reduced exponents by denominator q; for each q the residues
    present must be every unit mod q with one common multiplicity m, and the
    group contributes Phi_q^m.  Raises GaloisOrbitError otherwise.
    """
    by_q: dict[int, Counter] = {}
    for e in exponents:
        by_q.setdefault(e.denominator, Counter())[e.numerator] += 1
    result = IntPolynomial((1,))
    for q in sorted(by_q):
        counts = by_q[q]
        # phi(q) >= sqrt(q/2): beyond 2 * len(counts)^2 these residues
        # cannot fill the orbit, so the units mod q are not scanned at all.
        residues = range(q) if q <= 2 * len(counts) ** 2 else ()
        multiplicities = {counts.get(p, 0) for p in residues if math.gcd(p, q) == 1}
        if len(multiplicities) != 1 or 0 in multiplicities:
            raise GaloisOrbitError(
                "exponents with denominator %d do not fill the orbit {p/%d : gcd(p, %d) = 1}"
                % (q, q, q)
            )
        result = result * cyclotomic_poly(q) ** multiplicities.pop()
    return result


def is_primitive_pair(f: IntPolynomial, g: IntPolynomial) -> bool:
    """True unless some single k >= 2 writes both f and g as polynomials in X^k.

    A polynomial lies in Z[X^k] exactly when every index with a nonzero
    coefficient is divisible by k, so the test is index divisibility.
    """
    top = max(f.degree, g.degree)
    for k in range(2, top + 1):
        if _supported_in_power(f, k) and _supported_in_power(g, k):
            return False
    return True


def _supported_in_power(f: IntPolynomial, k: int) -> bool:
    return all(c == 0 or i % k == 0 for i, c in enumerate(f.coeffs))


def negate_variable(f: IntPolynomial) -> IntPolynomial:
    """f(-X): odd-degree coefficients change sign.  An involution."""
    return IntPolynomial(tuple(-c if i % 2 else c for i, c in enumerate(f.coeffs)))


class DifferenceData(NamedTuple):
    poly: IntPolynomial
    lead: int
    vgcd: int


def difference_data(f: IntPolynomial, g: IntPolynomial) -> DifferenceData:
    """f - g with its leading coefficient and the gcd of all coefficients.

    Requires f != g, both monic with constant term 1, so the difference has
    zero constant term and degree strictly below deg f.
    """
    if f == g:
        raise ValueError("difference of equal polynomials")
    if not (f.is_monic() and g.is_monic()):
        raise ValueError("difference_data expects monic inputs")
    if f.constant_term != 1 or g.constant_term != 1:
        raise ValueError("difference_data expects constant term 1")
    diff = f - g
    return DifferenceData(diff, diff.leading_coefficient, math.gcd(*diff.coeffs))


def have_common_root(f: IntPolynomial, g: IntPolynomial) -> bool:
    """True iff gcd(f, g) over Q has positive degree."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    while any(b):
        a, b = b, _poly_mod(a, b)
    return len(_strip(a)) - 1 >= 1


def _strip(coeffs: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = _strip(a)
    b = _strip(b)
    while len(a) >= len(b) and any(a):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = [c - factor * b[i - shift] if i >= shift else c for i, c in enumerate(a)]
        a = _strip(a)
        if len(a) < len(b):
            break
    return a
