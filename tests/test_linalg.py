import random
from fractions import Fraction

import pytest
import sympy

from sp4mono import MatrixQ, SingularMatrixError, VectorQ, proportionality
from sp4mono.cyclotomic import IntPolynomial
from sp4mono.forms import invariance_system
from sp4mono.monodromy import companion, levelt_triple

# Companion matrices of the first worked pair: f = X^4+3X^3+4X^2+3X+1,
# g = X^4+2X^2+1.
F1 = IntPolynomial((1, 3, 4, 3, 1))
G1 = IntPolynomial((1, 0, 2, 0, 1))


def _random_matrix(rng, n, bound=6):
    return MatrixQ([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def test_identity_product():
    a = companion(F1)
    assert MatrixQ.identity(4) * a == a
    assert a * MatrixQ.identity(4) == a


def test_product_with_inverse_is_identity():
    a = companion(F1)
    assert a * a.inverse() == MatrixQ.identity(4)


def test_a_inverse_b_has_printed_last_column():
    a = companion(F1)
    b = companion(G1)
    c = a.inverse() * b
    assert c.last_column() == VectorQ([3, 2, 3, 1])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        MatrixQ.identity(3) * MatrixQ.identity(4)


def test_nullspace_zero_matrix():
    kernel = MatrixQ.zeros(2, 2).nullspace()
    assert len(kernel) == 2
    assert kernel[0] == VectorQ([1, 0])
    assert kernel[1] == VectorQ([0, 1])


def test_nullspace_identity_empty():
    assert MatrixQ.identity(4).nullspace() == []


def test_nullspace_of_invariance_system_is_a_line():
    # Independent second solver: sympy nullspace of the same system.
    triple = levelt_triple(F1, G1)
    system = invariance_system(triple)
    kernel = system.nullspace()
    assert len(kernel) == 1
    sym = sympy.Matrix(system.nrows, system.ncols, lambda i, j: sympy.Rational(system[i, j]))
    sym_kernel = sym.nullspace()
    assert len(sym_kernel) == 1
    ours = sympy.Matrix([sympy.Rational(x) for x in kernel[0]])
    ratio = None
    for i in range(6):
        if sym_kernel[0][i] != 0:
            ratio = ours[i] / sym_kernel[0][i]
            break
    assert ratio is not None and ours == ratio * sym_kernel[0]


def test_inverse_identity_and_involution():
    assert MatrixQ.identity(4).inverse() == MatrixQ.identity(4)
    s = MatrixQ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    assert s.inverse() == s


def test_inverse_roundtrip_on_companion():
    b = companion(G1)
    assert b * b.inverse() == MatrixQ.identity(4)
    assert b.inverse() * b == MatrixQ.identity(4)


def test_singular_matrix_error():
    with pytest.raises(SingularMatrixError):
        MatrixQ([[1, 2], [2, 4]]).inverse()


def test_associativity_random():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (_random_matrix(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_nullspace_vectors_annihilate_and_count_matches_rank():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(2, 5)
        mat = MatrixQ([[rng.randint(-3, 3) for _ in range(4)] for _ in range(rows)])
        kernel = mat.nullspace()
        for v in kernel:
            assert mat.apply(v).is_zero()
        sym = sympy.Matrix(mat.nrows, mat.ncols, lambda i, j: sympy.Rational(mat[i, j]))
        assert len(kernel) == mat.ncols - sym.rank()


def test_det_and_fraction_entries():
    m = MatrixQ([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    assert m.det() == Fraction(1, 3)
    assert (m * m.inverse()).is_identity()


def test_negative_power_uses_inverse():
    a = companion(F1)
    assert a ** -3 == a.inverse() ** 3
    assert a ** 0 == MatrixQ.identity(4)


def test_proportionality():
    a = MatrixQ([[2, 4], [6, 8]])
    b = MatrixQ([[1, 2], [3, 4]])
    assert proportionality(a, b) == 2
    assert proportionality(b, a) == Fraction(1, 2)
    assert proportionality(a, MatrixQ([[1, 2], [3, 5]])) is None


def test_string_roundtrip():
    m = MatrixQ([[Fraction(2, 3), -1], [0, 4]])
    assert MatrixQ.from_strings(m.to_strings()) == m
    v = VectorQ([Fraction(-8, 3), 5])
    assert VectorQ.from_strings(v.to_strings()) == v
