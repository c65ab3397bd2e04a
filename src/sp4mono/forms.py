"""The invariant symplectic form of a monodromy group.

Both generators of the group preserve a single antisymmetric bilinear form
up to scalar.  Rather than replaying the entry-by-entry eliminations that
produce each printed form, we solve the general problem: the invariance
conditions tA X A = X and tB X B = X are linear in the six independent
entries of an antisymmetric 4x4 matrix X, so the form is the kernel of a
12x6 exact rational system.  A valid pair gives a kernel of dimension
exactly one; anything else is rejected.

The returned form is normalized to a primitive integer matrix (entries
integral, gcd 1, first nonzero entry in row-major order positive).  The
printed forms elsewhere use ad hoc scalings, so comparisons against them
go through ``linalg.proportionality``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import MatrixQ, VectorQ, as_fraction
from .monodromy import MonodromyTriple

PRIMITIVE_INTEGER = "primitive-integer"
PUBLISHED_SCALING = "published-scaling"


class FormError(ValueError):
    """Invariant-form computation failed (wrong kernel dimension or degenerate)."""


@dataclass(frozen=True)
class SymplecticForm:
    """Antisymmetric nondegenerate form with a normalization tag."""

    omega: MatrixQ
    normalization: str = PRIMITIVE_INTEGER

    def __post_init__(self):
        if not self.omega.is_antisymmetric():
            raise FormError("form matrix is not antisymmetric")
        if self.omega.det() == 0:
            raise FormError("form matrix is degenerate")

    def pair(self, u: VectorQ, v: VectorQ):
        """Omega(u, v) = u . (omega v)."""
        return u.dot(self.omega.apply(v))

    def to_json_dict(self) -> dict:
        return {"omega": self.omega.to_strings(), "normalization": self.normalization}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymplecticForm":
        return cls(MatrixQ.from_strings(data["omega"]), data.get("normalization", PUBLISHED_SCALING))


_ANTISYM_POSITIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# E_ij - E_ji for each upper-triangle position: a basis of the
# antisymmetric 4x4 matrices, in the order of the unknowns.
_ANTISYM_BASIS = tuple(
    MatrixQ(
        [[1 if (r, c) == (i, j) else -1 if (r, c) == (j, i) else 0 for c in range(4)] for r in range(4)]
    )
    for i, j in _ANTISYM_POSITIONS
)


def invariance_system(triple: MonodromyTriple) -> MatrixQ:
    """The 12x6 linear system whose kernel holds the invariant forms.

    Unknowns are the upper-triangle entries (x12, x13, x14, x23, x24, x34)
    of an antisymmetric matrix X; each generator M contributes the six
    upper-triangle entries of tM X M - X.
    """
    rows = []
    for m in (triple.A, triple.B):
        mt = m.transpose()
        images = [mt * e * m - e for e in _ANTISYM_BASIS]
        for i, j in _ANTISYM_POSITIONS:
            rows.append([img[i, j] for img in images])
    return MatrixQ(rows)


def invariant_form(triple: MonodromyTriple) -> SymplecticForm:
    """The form preserved by both generators, normalized to primitive integers.

    Raises FormError unless the solution space has dimension exactly 1 and
    its generator is nondegenerate.
    """
    kernel = invariance_system(triple).nullspace()
    if len(kernel) != 1:
        raise FormError(
            "invariance system has a %d-dimensional solution space, expected 1" % len(kernel)
        )
    coords = kernel[0]
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for k, (i, j) in enumerate(_ANTISYM_POSITIONS):
        rows[i][j] = as_fraction(coords[k])
        rows[j][i] = -as_fraction(coords[k])
    omega = _primitive_integer(MatrixQ(rows))
    if omega.det() == 0:
        raise FormError("invariant form generator is degenerate")
    mt_a = triple.A.transpose()
    mt_b = triple.B.transpose()
    if mt_a * omega * triple.A != omega or mt_b * omega * triple.B != omega:
        raise FormError("internal error: normalized form lost invariance")
    return SymplecticForm(omega, PRIMITIVE_INTEGER)


def _primitive_integer(m: MatrixQ) -> MatrixQ:
    """Scale to integer entries with gcd 1, first nonzero entry positive."""
    denom_lcm = 1
    for row in m.rows:
        for x in row:
            denom_lcm = math.lcm(denom_lcm, as_fraction(x).denominator)
    scaled = [[as_fraction(x) * denom_lcm for x in row] for row in m.rows]
    num_gcd = 0
    for row in scaled:
        for x in row:
            num_gcd = math.gcd(num_gcd, int(x))
    if num_gcd == 0:
        raise FormError("zero form cannot be normalized")
    out = [[int(x) // num_gcd for x in row] for row in scaled]
    for row in out:
        for x in row:
            if x != 0:
                if x < 0:
                    out = [[-y for y in r] for r in out]
                return MatrixQ(out)
    raise FormError("zero form cannot be normalized")


def check_symplectic(m: MatrixQ, form: SymplecticForm) -> bool:
    """True iff tm . omega . m = omega exactly."""
    return m.transpose() * form.omega * m == form.omega
