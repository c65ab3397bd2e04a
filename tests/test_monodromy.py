import random

import pytest
import sympy

from sp4mono import (
    GroupWord,
    MatrixQ,
    PairError,
    VectorQ,
    companion,
    evaluate_word,
    levelt_triple,
    parse_word,
)
from sp4mono.cyclotomic import IntPolynomial


def poly(*ascending):
    return IntPolynomial(tuple(ascending))


F1 = poly(1, 3, 4, 3, 1)
G1 = poly(1, 0, 2, 0, 1)


def test_companion_printed_matrices():
    a = companion(F1)
    assert a == MatrixQ([[0, 0, 0, -1], [1, 0, 0, -3], [0, 1, 0, -4], [0, 0, 1, -3]])
    b = companion(G1)
    assert b == MatrixQ([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -2], [0, 0, 1, 0]])
    assert companion(poly(1, -4, 6, -4, 1)).last_column() == VectorQ([-1, 4, -6, 4])


def test_companion_requires_monic():
    with pytest.raises(ValueError):
        companion(poly(1, 0, 2))


def test_companion_characteristic_polynomial(rows):
    x = sympy.symbols("x")
    for r in rows[:6] + rows[20:24]:
        a = companion(r.f)
        sym = sympy.Matrix(4, 4, lambda i, j: int(a[i, j]))
        char = sympy.Poly(sym.charpoly(x).as_expr(), x).all_coeffs()
        assert char == list(reversed(r.f.to_list()))
        assert sym.det() == 1


def test_levelt_triple_printed_c():
    t = levelt_triple(F1, G1)
    assert t.C == MatrixQ([[1, 0, 0, 3], [0, 1, 0, 2], [0, 0, 1, 3], [0, 0, 0, 1]])
    assert t.v == VectorQ([3, 2, 3, 0])


def test_levelt_triple_second_pair_v():
    t = levelt_triple(poly(1, 2, 3, 2, 1), poly(1, -2, 2, -2, 1))
    assert t.v == VectorQ([4, 1, 4, 0])
    assert t.C.last_column() == VectorQ([4, 1, 4, 1])


def test_levelt_triple_requires_degree_4():
    degree_2 = (poly(1, 1, 1), poly(1, 0, 1))
    degree_6 = (poly(1, 0, 0, 0, 0, 0, 1), poly(1, 1, 1, 1, 1, 1, 1))
    for f, g in (degree_2, degree_6):
        with pytest.raises(PairError, match="degree 4"):
            levelt_triple(f, g)


def test_levelt_triple_rejects_equal_pair():
    with pytest.raises(PairError):
        levelt_triple(F1, F1)


def test_levelt_triple_rejects_imprimitive_pair():
    with pytest.raises(PairError):
        levelt_triple(poly(1, 0, 2, 0, 1), poly(1, 0, 1, 0, 1))


def test_levelt_triple_rejects_shared_root():
    # X^4+X^3+2X^2+X+1 and X^4+X^2+1 share the primitive cube roots of 1.
    with pytest.raises(PairError):
        levelt_triple(poly(1, 1, 2, 1, 1), poly(1, 0, 1, 0, 1))


def test_rank_one_structure_on_dataset(rows):
    for r in rows:
        t = levelt_triple(r.f, r.g)
        assert t.v[3] == 0
        # C - I = v e4^T exactly.
        expected = [[t.v[i] if j == 3 else 0 for j in range(4)] for i in range(4)]
        assert t.C - MatrixQ.identity(4) == MatrixQ(expected)
        # v matches the middle coefficients of f - g (ascending).
        diff = r.f - r.g
        assert t.v == VectorQ([diff.coefficient(1), diff.coefficient(2), diff.coefficient(3), 0])


def test_word_parse_and_normal_form():
    w = parse_word("A^-7 B^3 C B^-3 A^7")
    assert w.letters == (("A", -7), ("B", 3), ("A", -1), ("B", -2), ("A", 7))
    assert parse_word(w.to_text()) == w
    assert parse_word("1") == GroupWord()
    assert parse_word("C") == GroupWord((("A", -1), ("B", 1)))
    assert parse_word("A A^-1") == GroupWord()


def test_word_inverse_and_power():
    w = parse_word("A^2 B^-1")
    assert w * w.inverse() == GroupWord()
    assert w ** 3 == w * w * w
    assert w ** -2 == (w.inverse()) ** 2


def test_evaluate_word_empty_and_c():
    t = levelt_triple(F1, G1)
    assert evaluate_word(t, GroupWord()) == MatrixQ.identity(4)
    assert evaluate_word(t, parse_word("C")) == t.C
    assert evaluate_word(t, parse_word("A^-1 B")) == t.C


def test_evaluate_word_concatenation_random():
    t = levelt_triple(F1, G1)
    rng = random.Random(3)

    def random_word():
        letters = []
        for _ in range(rng.randint(0, 5)):
            letters.append((rng.choice("AB"), rng.choice([-2, -1, 1, 2])))
        return GroupWord(tuple(letters))

    for _ in range(40):
        w1, w2 = random_word(), random_word()
        assert evaluate_word(t, w1 * w2) == evaluate_word(t, w1) * evaluate_word(t, w2)


def test_evaluate_word_determinant_one(rows):
    for r in rows[:4]:
        t = levelt_triple(r.f, r.g)
        assert t.A.det() == 1
        assert t.B.det() == 1
