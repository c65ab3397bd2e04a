"""Monodromy generators and word evaluation.

A pair of monic degree-4 integer polynomials f, g (products of cyclotomic
polynomials, no common root, constant term 1, primitive as a pair) gives
companion matrices A, B and the group they generate inside SL_4(Z).  The
element C = A^{-1}B differs from the identity only in its last column; the
interesting part of that column is the vector v whose entries are the
middle coefficients of f - g.  Everything the rest of the package does is
a statement about words in A and B.

Words are stored in normal form over the two-letter alphabet {A, B} with
integer exponents; the letter C is accepted in word text as a macro for
A^-1 B so printed word recipes can be pasted in verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .cyclotomic import (
    IntPolynomial,
    have_common_root,
    is_primitive_pair,
)
from .linalg import MatrixQ, VectorQ

GENERATORS = ("A", "B")


class PairError(ValueError):
    """The polynomial pair does not satisfy the monodromy preconditions."""


def companion(f: IntPolynomial) -> MatrixQ:
    """Companion matrix with sub-diagonal 1s and -coefficients in the last column.

    For monic f = X^n + c_{n-1} X^{n-1} + ... + c_0 the matrix has
    M[i][n-1] = -c_i and M[i+1][i] = 1; its characteristic polynomial is f.
    """
    if not f.is_monic():
        raise ValueError("companion matrix requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("companion matrix requires degree >= 1")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -f.coefficient(i)
    return MatrixQ(rows)


@dataclass(frozen=True)
class GroupWord:
    """Word in the free product of <A> and <B>, in normal form.

    Adjacent letters use distinct generators and no exponent is zero; the
    empty word is the identity.
    """

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _normalize(self.letters))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def __pow__(self, k: int) -> "GroupWord":
        if k == 0:
            return GroupWord()
        base = self if k > 0 else self.inverse()
        return GroupWord(base.letters * abs(k))

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    @property
    def length(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else "%s^%d" % (g, e) for g, e in self.letters)

    def __str__(self) -> str:
        return self.to_text()


def _normalize(letters: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for gen, exp in letters:
        if gen not in GENERATORS:
            raise ValueError("unknown generator %r" % (gen,))
        exp = int(exp)
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


_WORD_TOKEN = re.compile(r"\s*([ABC])(?:\s*\^\s*(-?\d+))?")


def parse_word(text: str) -> GroupWord:
    """Parse text like "A^-7 B^3 C B^-3 A^7" into a normal-form word.

    C is a macro for A^-1 B; C^k expands to (A^-1 B)^k.  "1" (or an empty
    string) is the identity.
    """
    stripped = text.strip()
    if stripped in ("", "1"):
        return GroupWord()
    pos = 0
    letters: list[tuple[str, int]] = []
    while pos < len(stripped):
        m = _WORD_TOKEN.match(stripped, pos)
        if m is None:
            raise ValueError("cannot parse word %r at position %d" % (text, pos))
        gen, exp_text = m.group(1), m.group(2)
        exp = 1 if exp_text is None else int(exp_text)
        if gen == "C":
            c = (("A", -1), ("B", 1))
            if exp >= 0:
                letters.extend(c * exp)
            else:
                letters.extend((("B", -1), ("A", 1)) * (-exp))
        else:
            letters.append((gen, exp))
        pos = m.end()
    return GroupWord(tuple(letters))


@dataclass(frozen=True)
class MonodromyTriple:
    """Levelt generators A, B with C = A^{-1}B and the column vector v.

    C - I is nonzero only in the last column; v is that column with its
    last entry (always 0 here, since f and g share constant term 1)
    included.
    """

    f: IntPolynomial
    g: IntPolynomial
    A: MatrixQ
    B: MatrixQ
    C: MatrixQ
    v: VectorQ

    def power(self, gen: str, exp: int) -> MatrixQ:
        """Generator power; a negative exponent raises the inverse."""
        if gen not in GENERATORS:
            raise ValueError("unknown generator %r" % (gen,))
        return (self.A if gen == "A" else self.B) ** exp


def levelt_triple(f: IntPolynomial, g: IntPolynomial) -> MonodromyTriple:
    """Build the generator triple for a valid hypergeometric pair.

    This is where every pair enters the package, so it is where the
    degree-4 limit is checked: everything downstream works in Sp(4).
    Raises PairError when the pair fails a precondition: a degree other
    than 4, non-monic, constant term != 1, equal polynomials, a common
    root, or imprimitivity.
    """
    if f.degree != 4 or g.degree != 4:
        raise PairError("polynomials must have degree 4, got degrees %d and %d" % (f.degree, g.degree))
    if not (f.is_monic() and g.is_monic()):
        raise PairError("polynomials must be monic")
    if f.constant_term != 1 or g.constant_term != 1:
        raise PairError("polynomials must have constant term 1")
    if f == g:
        raise PairError("polynomials must be distinct")
    if have_common_root(f, g):
        raise PairError("polynomials must not share a complex root")
    if not is_primitive_pair(f, g):
        raise PairError("pair is imprimitive: both polynomials lie in Z[X^k] for some k >= 2")
    A = companion(f)
    B = companion(g)
    C = A.inverse() * B
    v = VectorQ(C[i, 3] - (1 if i == 3 else 0) for i in range(4))
    if v[3] != 0:
        raise PairError("last column of C - I has a nonzero bottom entry")
    for i in range(4):
        for j in range(3):
            if C[i, j] != (1 if i == j else 0):
                raise PairError("C - I is supported outside the last column")
    return MonodromyTriple(f=f, g=g, A=A, B=B, C=C, v=v)


def evaluate_word(triple: MonodromyTriple, word: GroupWord) -> MatrixQ:
    """Exact product of generator powers; the empty word gives the identity."""
    result = MatrixQ.identity(4)
    for gen, exp in word.letters:
        result = result * triple.power(gen, exp)
    return result
