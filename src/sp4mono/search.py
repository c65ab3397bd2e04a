"""Bounded search machinery for new unipotent certificates.

Two obstacles decide whether the standard proof template can run for a
pair.  First the gcd test: if the entries of v (the nontrivial column of
C - I) share a factor >= 3, then every group image of v keeps that factor,
so no group element can move v to have e4-coefficient of absolute value 1
or 2, and the template is dead on arrival.  Otherwise we search words
gamma over {A, B} in shortlex order for one satisfying that coefficient
condition; the triple P = C, Q = gamma^-1 C gamma, R = gamma C gamma^-1
then feeds recipe templates that try to assemble unipotent witnesses for
all four positive root groups.

The search scores words by integer row-vector products along shared
prefixes: it only needs the e4-coefficient e4^T P_1 ... P_L v, so each
prefix carries its row vector and each word costs one 4-term dot product,
about 0.5 us per word on a 2-vCPU x86-64 Xeon with Python 3.11.

Everything is deterministic: the word enumeration is shortlex with
exponents ordered 1, -1, 2, -2, ...; template parameters are scanned in a
fixed order and the large exponents are solved exactly from linear entry
cancellation instead of being guessed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .basis import SymplecticBasis, to_basis_coords, verify_basis
from .forms import SymplecticForm
from .linalg import MatrixQ, as_fraction
from .monodromy import GENERATORS, GroupWord, MonodromyTriple, evaluate_word
from .roots import RootCoverage, RootLabel, classify_unipotent, coverage, is_in_U

STATUS_FOUND = "found"
STATUS_OBSTRUCTED = "obstructed"
STATUS_EXHAUSTED = "exhausted"

# Largest word count find_gamma will enumerate: at about 0.5 us per word this
# is about five seconds, and it admits the length-5, exponent-8 sweep
# (2,236,960).
MAX_WORDS = 10 ** 7


@dataclass(frozen=True)
class GammaResult:
    status: str
    gamma: GroupWord | None = None
    e4_coeff: int | None = None
    obstruction_gcd: int | None = None
    explored: int = 0

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "gamma": None if self.gamma is None else self.gamma.to_text(),
            "e4_coeff": self.e4_coeff,
            "obstruction_gcd": self.obstruction_gcd,
            "explored": self.explored,
        }


def gcd_obstruction(triple: MonodromyTriple) -> int:
    """gcd of the entries of v, with gcd(x, 0) = x so the zero tail is ignored."""
    return math.gcd(*(int(x) for x in triple.v))


def _exponent_order(max_exp: int) -> list[int]:
    out = []
    for k in range(1, max_exp + 1):
        out.append(k)
        out.append(-k)
    return out


def enumerate_words(max_len: int, max_exp: int) -> Iterator[GroupWord]:
    """Normal-form words over {A, B} in deterministic shortlex order.

    Length-L words alternate generators, so a word is fixed by its first
    generator and its exponent sequence; first generator A before B,
    exponents in the order 1, -1, 2, -2, ..., max_exp, -max_exp.
    """
    exponents = _exponent_order(max_exp)
    for length in range(1, max_len + 1):
        for first in ("A", "B"):
            gens = [("A", "B")[(("A", "B").index(first) + i) % 2] for i in range(length)]
            for exps in itertools.product(exponents, repeat=length):
                yield GroupWord(tuple(zip(gens, exps)))


def _int_product(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _power_table(triple: MonodromyTriple, max_exp: int) -> dict[str, list[tuple[int, tuple]]]:
    """Each generator's powers as plain int 4x4 tuples, in exponent order.

    Maps "A" and "B" to [(1, M^1), (-1, M^-1), (2, M^2), ...].  One
    MatrixQ inverse per generator; the rest are tuple products.  Every
    group element lies in SL_4(Z), so every entry is an int.
    """
    table = {}
    for gen, base in (("A", triple.A), ("B", triple.B)):
        inverse = base.inverse().rows
        assert all(type(x) is int for row in inverse for x in row)
        up, down = base.rows, inverse
        powers = [(1, up), (-1, down)]
        for k in range(2, max_exp + 1):
            up = _int_product(up, base.rows)
            down = _int_product(down, inverse)
            powers += [(k, up), (-k, down)]
        table[gen] = powers
    return table


def _descend(row: tuple, gens: tuple, prefix: list, columns: dict, images: dict) -> tuple:
    """First word after ``prefix`` whose e4-coefficient is +-1 or +-2.

    ``row`` is e4^T times the product of the prefix.  Returns (letters,
    coefficient, words scored), with letters None when no word hits.
    """
    gen = gens[len(prefix)]
    if len(prefix) == len(gens) - 1:
        r0, r1, r2, r3 = row
        for i, (exp, (x0, x1, x2, x3)) in enumerate(images[gen]):
            coeff = r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3
            if coeff and -2 <= coeff <= 2:
                return prefix + [(gen, exp)], coeff, i + 1
        return None, None, len(images[gen])
    r0, r1, r2, r3 = row
    scored = 0
    for exp, cols in columns[gen]:
        child = tuple(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in cols)
        letters, coeff, words = _descend(child, gens, prefix + [(gen, exp)], columns, images)
        scored += words
        if letters is not None:
            return letters, coeff, scored
    return None, None, scored


def find_gamma(
    triple: MonodromyTriple,
    max_len: int,
    max_exp: int,
    progress: Callable[[dict], None] | None = None,
) -> GammaResult:
    """Search for gamma with |e4-coefficient of gamma(v)| in {1, 2}.

    Returns immediately with status "obstructed" when the gcd of v's
    entries is >= 3; otherwise scans words in the order of
    ``enumerate_words`` and returns the first hit, or "exhausted" with the
    number of words explored.  Raises ValueError, before building
    anything, when a limit is below 1 or the search would cover more than
    MAX_WORDS words.

    Only the last coordinate of gamma(v) = P_1 ... P_L v matters, so the
    search walks the word tree depth first and carries the integer row
    vector e4^T P_1 ... P_k down each prefix: an inner node costs one
    row-vector-by-matrix product, a word one 4-term dot product with the
    precomputed P_L v.
    """
    if max_len < 1 or max_exp < 1:
        raise ValueError("max_len and max_exp must be >= 1")
    words = 0
    for length in range(1, max_len + 1):
        words += 2 * (2 * max_exp) ** length
        if words > MAX_WORDS:
            raise ValueError(
                "max_len %d with max_exp %d covers more than the %d-word search limit"
                % (max_len, max_exp, MAX_WORDS)
            )
    obstruction = gcd_obstruction(triple)
    if obstruction >= 3:
        return GammaResult(status=STATUS_OBSTRUCTED, obstruction_gcd=obstruction)
    table = _power_table(triple, max_exp)
    # Row products read columns; a word's last letter only meets v.
    columns = {gen: [(exp, tuple(zip(*m))) for exp, m in powers] for gen, powers in table.items()}
    v = triple.v.entries
    images = {
        gen: [(exp, tuple(sum(x * y for x, y in zip(row, v)) for row in m)) for exp, m in powers]
        for gen, powers in table.items()
    }
    explored = 0
    for length in range(1, max_len + 1):
        if progress is not None:
            progress({"event": "depth", "length": length, "explored": explored})
        for first in (0, 1):
            gens = tuple(GENERATORS[(first + i) % 2] for i in range(length))
            letters, coeff, scored = _descend((0, 0, 0, 1), gens, [], columns, images)
            explored += scored
            if letters is not None:
                return GammaResult(
                    status=STATUS_FOUND, gamma=GroupWord(tuple(letters)), e4_coeff=coeff, explored=explored
                )
    return GammaResult(status=STATUS_EXHAUSTED, explored=explored)


# -- witness derivation ----------------------------------------------------

def _scan(limit: int) -> Iterator[int]:
    yield 0
    for k in range(1, limit + 1):
        yield k
        yield -k


def _cancel(a, b) -> tuple[int, int] | None:
    """Smallest integers (s, t), s != 0, with s*a + t*b = 0; None if b = 0 != a."""
    a = as_fraction(a)
    b = as_fraction(b)
    if a == 0:
        return (1, 0)
    if b == 0:
        return None
    ratio = a / b  # s*a + t*b = 0  <=>  t = -s * ratio
    return (ratio.denominator, -ratio.numerator)


def _commutator(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    return a * b * a.inverse() * b.inverse()


def _chain_from_pair(s: MatrixQ, t: MatrixQ, c1, c2) -> list[MatrixQ] | None:
    """Resolve witnesses from S (short-root shaped) and T = P S P^{-1}.

    x = [T, S] must land in the highest root group; the remaining two
    witnesses come from exact linear cancellation of the (1,4) entries:
    y = S^b x^c kills (1,4) leaving the short simple pattern, and
    z = (T^{-b} y)^k x^e kills (1,4) leaving the second highest pattern.
    """
    x = _commutator(t, s)
    if x.is_identity() or not is_in_U(x, c1, c2):
        return None
    if classify_unipotent(x, c1, c2) != RootLabel.HIGHEST:
        return None
    sol = _cancel(s[0, 3], x[0, 3])
    if sol is None:
        return None
    b, c = sol
    y = s ** b * x ** c
    if not is_in_U(y, c1, c2) or classify_unipotent(y, c1, c2) != RootLabel.SHORT_SIMPLE:
        return None
    z0 = t ** (-b) * y
    sol = _cancel(z0[0, 3], x[0, 3])
    if sol is None:
        return None
    k, e = sol
    z = z0 ** k * x ** e
    if not is_in_U(z, c1, c2) or classify_unipotent(z, c1, c2) != RootLabel.SECOND_HIGHEST:
        return None
    return [x, y, z]


def _template_conjugate(p, q, r, c1, c2, budget) -> list[MatrixQ] | None:
    """S = P^a R P^-a Q^-1 for the first a making S unipotent upper triangular."""
    q_inv = q.inverse()
    for a in _scan(budget):
        s = p ** a * r * p ** (-a) * q_inv
        if s.is_identity() or not is_in_U(s, c1, c2):
            continue
        out = _chain_from_pair(s, p * s * p.inverse(), c1, c2)
        if out is not None:
            return out
    return None


def _template_commutator(p, q, r, c1, c2, budget) -> list[MatrixQ] | None:
    """E = [R, S] for S drawn from short products of P, Q, R.

    Handles the pairs where no conjugate of R becomes unipotent: S itself
    may have -1 diagonal entries, but a commutator with R can still land
    in U, and F = Q E Q^-1 plays the role of the partner element.
    """
    cap = min(3, budget)
    q_inv = q.inverse()
    for i in _scan(cap):
        for j in _scan(cap):
            for k in (1, -1):
                qk = q if k == 1 else q_inv
                for s in (p ** i * r * p ** j * qk, p ** i * qk * p ** j * r):
                    e = _commutator(r, s)
                    if e.is_identity() or not is_in_U(e, c1, c2):
                        continue
                    f = q * e * q_inv
                    d = e.inverse() * f
                    if d.is_identity():
                        continue
                    x = _commutator(e, f)
                    if x.is_identity() or not is_in_U(x, c1, c2):
                        continue
                    if classify_unipotent(x, c1, c2) != RootLabel.HIGHEST:
                        continue
                    sol = _cancel(d[0, 3], x[0, 3])
                    if sol is None:
                        continue
                    m, c = sol
                    y = d ** m * x ** c
                    if not is_in_U(y, c1, c2):
                        continue
                    if classify_unipotent(y, c1, c2) != RootLabel.SHORT_SIMPLE:
                        continue
                    sol = _cancel(e[0, 1], y[0, 1])
                    if sol is None:
                        continue
                    ke, ly = sol
                    u = e ** ke * y ** ly
                    if u.is_identity() or not is_in_U(u, c1, c2):
                        continue
                    sol = _cancel(u[0, 3], x[0, 3])
                    if sol is None:
                        continue
                    ku, ex = sol
                    z = u ** ku * x ** ex
                    if not is_in_U(z, c1, c2):
                        continue
                    if classify_unipotent(z, c1, c2) != RootLabel.SECOND_HIGHEST:
                        continue
                    return [x, y, z]
    return None


def derive_witnesses(
    triple: MonodromyTriple,
    form: SymplecticForm,
    basis: SymplecticBasis,
    gamma: GroupWord,
    template_budget: int,
) -> RootCoverage:
    """Try the recipe templates and return the best root coverage found.

    Sets P = C, Q = gamma^-1 C gamma, R = gamma C gamma^-1 in basis
    coordinates, then runs the conjugation template followed by the
    commutator template.  Partial coverage is a legitimate outcome.
    """
    c1, c2 = verify_basis(form, basis)
    g = evaluate_word(triple, gamma)
    g_inv = g.inverse()
    p = to_basis_coords(triple.C, basis)
    q = to_basis_coords(g_inv * triple.C * g, basis)
    r = to_basis_coords(g * triple.C * g_inv, basis)
    best = coverage([p], c1, c2)
    for template in (_template_conjugate, _template_commutator):
        extra = template(p, q, r, c1, c2, template_budget)
        if extra is None:
            continue
        cov = coverage([p, *extra], c1, c2)
        if len(cov.labels()) > len(best.labels()):
            best = cov
        if best.complete:
            break
    return best
