"""Bases that put the symplectic form into anti-diagonal shape.

With respect to an ordered basis (eps1, eps2, eps2*, eps1*) whose Gram
matrix is anti-diagonal, the upper triangular unipotent matrices form the
unipotent radical of a Borel subgroup of the symplectic group: that is the
frame in which root-group membership becomes a support pattern.  This
module checks candidate bases, builds one deterministically from a seed
vector, and rewrites matrices in basis coordinates.

The Gram matrix of a valid basis is determined by two constants:
c1 = Omega(eps1, eps1*) at position (1, 4) and c2 = Omega(eps2, eps2*) at
position (2, 3).  A reversed basis (eps1*, eps2*, eps2, eps1) is again
anti-diagonal with constants (-c1, -c2); the reversal is how lower
triangular witnesses are brought into the standard orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import SymplecticForm
from .linalg import MatrixQ, VectorQ, as_fraction


class GramError(ValueError):
    """The candidate basis does not anti-diagonalize the form."""


@dataclass(frozen=True)
class SymplecticBasis:
    """Ordered basis (eps1, eps2, eps2*, eps1*) with its Gram constants."""

    eps1: VectorQ
    eps2: VectorQ
    eps2_star: VectorQ
    eps1_star: VectorQ
    gram_c1: Fraction
    gram_c2: Fraction

    @property
    def vectors(self) -> tuple[VectorQ, VectorQ, VectorQ, VectorQ]:
        return (self.eps1, self.eps2, self.eps2_star, self.eps1_star)

    def matrix(self) -> MatrixQ:
        """Change-of-basis matrix T whose columns are the basis vectors."""
        return MatrixQ.from_columns(self.vectors)

    def reversed(self) -> "SymplecticBasis":
        """The basis in order (eps1*, eps2*, eps2, eps1); negates both constants."""
        return SymplecticBasis(
            eps1=self.eps1_star,
            eps2=self.eps2_star,
            eps2_star=self.eps2,
            eps1_star=self.eps1,
            gram_c1=-self.gram_c1,
            gram_c2=-self.gram_c2,
        )

    def to_json_dict(self) -> dict:
        return {
            "vectors": [v.to_strings() for v in self.vectors],
            "gram": [str(self.gram_c1), str(self.gram_c2)],
        }


def gram_matrix(form: SymplecticForm, vectors) -> MatrixQ:
    return MatrixQ([[form.pair(u, w) for w in vectors] for u in vectors])


def verify_basis(form: SymplecticForm, basis) -> tuple[Fraction, Fraction]:
    """Check anti-diagonality and return the Gram constants (c1, c2).

    ``basis`` is a SymplecticBasis or a sequence of four vectors.  Raises
    GramError naming the first offending entry when the Gram matrix is not
    anti-diagonal, and on a degenerate (linearly dependent) basis.
    """
    vectors = basis.vectors if isinstance(basis, SymplecticBasis) else tuple(basis)
    if len(vectors) != 4:
        raise GramError("expected 4 basis vectors, got %d" % len(vectors))
    if MatrixQ.from_columns(vectors).det() == 0:
        raise GramError("basis vectors are linearly dependent")
    g = gram_matrix(form, vectors)
    for i in range(4):
        for j in range(4):
            if i + j != 3 and g[i, j] != 0:
                raise GramError(
                    "Gram matrix is not anti-diagonal: entry (%d, %d) = %s"
                    % (i + 1, j + 1, g[i, j])
                )
    c1 = as_fraction(g[0, 3])
    c2 = as_fraction(g[1, 2])
    if c1 == 0 or c2 == 0:
        raise GramError("anti-diagonal Gram matrix is degenerate")
    return c1, c2


def checked_basis(form: SymplecticForm, vectors) -> SymplecticBasis:
    """Build a SymplecticBasis after verifying it against the form."""
    vectors = tuple(vectors)
    c1, c2 = verify_basis(form, vectors)
    return SymplecticBasis(*vectors, gram_c1=c1, gram_c2=c2)


def build_basis(form: SymplecticForm, seed: VectorQ) -> SymplecticBasis:
    """Deterministic symplectic Gram-Schmidt seeded at eps2 = seed.

    eps2* is the first standard basis vector not Omega-orthogonal to the
    seed; the remaining standard vectors are projected into the
    Omega-complement of span(eps2, eps2*), and eps1, eps1* are the first
    usable projections in index order.  The output always passes
    ``verify_basis``.
    """
    if seed.is_zero():
        raise ValueError("seed vector must be nonzero")
    eps2 = seed
    eps2_star = None
    for i in range(4):
        e = VectorQ.unit(4, i)
        if form.pair(eps2, e) != 0:
            eps2_star = e
            break
    if eps2_star is None:
        raise ValueError("seed is Omega-orthogonal to the whole space (degenerate form)")
    c = form.pair(eps2, eps2_star)

    def project(w: VectorQ) -> VectorQ:
        # Kill the Omega-pairings with eps2 and eps2*.
        out = w - eps2_star.scale(as_fraction(form.pair(eps2, w)) / c)
        return out + eps2.scale(as_fraction(form.pair(eps2_star, out)) / c)

    eps1 = None
    for i in range(4):
        candidate = project(VectorQ.unit(4, i))
        if not candidate.is_zero():
            eps1 = candidate
            break
    if eps1 is None:
        raise ValueError("projection collapsed; form must be degenerate")
    eps1_star = None
    for i in range(4):
        candidate = project(VectorQ.unit(4, i))
        if form.pair(eps1, candidate) != 0:
            eps1_star = candidate
            break
    if eps1_star is None:
        raise ValueError("no partner for eps1; form must be degenerate")
    return checked_basis(form, (eps1, eps2, eps2_star, eps1_star))


def to_basis_coords(m: MatrixQ, basis: SymplecticBasis) -> MatrixQ:
    """T^{-1} m T where T's columns are the basis vectors."""
    t = basis.matrix()
    return t.inverse() * m * t


def transform_form(form: SymplecticForm, basis: SymplecticBasis) -> MatrixQ:
    """The matrix of the form in basis coordinates: tT . omega . T."""
    t = basis.matrix()
    return t.transpose() * form.omega * t
