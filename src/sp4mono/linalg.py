"""Exact dense linear algebra over the rationals.

Everything downstream (companion matrices, invariant forms, certificate
verification) runs on the two small immutable containers defined here,
``VectorQ`` and ``MatrixQ``.  Scalars are arbitrary-precision rationals:
entries with denominator 1 are stored as plain ``int`` and everything else
as ``fractions.Fraction``, so integer matrices multiply at native integer
speed while mixed arithmetic stays exact.  There is no floating point
anywhere in this module, and no operation ever mutates its inputs.

Determinism matters as much as exactness: ``rref`` always picks the first
nonzero pivot scanning rows top to bottom and columns left to right, so
``nullspace`` returns the same ordered basis on every run and on every
platform.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class SingularMatrixError(ValueError):
    """Raised when inverting (or solving against) a singular matrix."""


def as_scalar(value) -> Scalar:
    """Coerce to an exact scalar, demoting integral fractions to int."""
    if type(value) is int:
        return value
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def parse_fraction(text) -> Fraction:
    """Read ``p`` or ``p/q``; a zero denominator is a ValueError like any bad literal."""
    try:
        return Fraction(text)
    except (ZeroDivisionError, OverflowError):
        raise ValueError("%r is not a finite rational" % (text,)) from None


def parse_scalar(text) -> Scalar:
    return as_scalar(parse_fraction(text))


class VectorQ:
    """Immutable vector with exact rational entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(as_scalar(x) for x in entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorQ) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "VectorQ(%s)" % (", ".join(str(x) for x in self.entries))

    def __add__(self, other: "VectorQ") -> "VectorQ":
        if len(self) != len(other):
            raise ValueError("vector length mismatch: %d vs %d" % (len(self), len(other)))
        return VectorQ(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "VectorQ") -> "VectorQ":
        if len(self) != len(other):
            raise ValueError("vector length mismatch: %d vs %d" % (len(self), len(other)))
        return VectorQ(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "VectorQ":
        return VectorQ(-a for a in self.entries)

    def scale(self, c) -> "VectorQ":
        c = as_scalar(c)
        return VectorQ(c * a for a in self.entries)

    def dot(self, other: "VectorQ") -> Scalar:
        if len(self) != len(other):
            raise ValueError("vector length mismatch: %d vs %d" % (len(self), len(other)))
        return as_scalar(sum(a * b for a, b in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def to_strings(self) -> list[str]:
        return [str(x) for x in self.entries]

    @classmethod
    def from_strings(cls, items: Sequence) -> "VectorQ":
        return cls(parse_scalar(x) for x in items)

    @classmethod
    def unit(cls, n: int, i: int) -> "VectorQ":
        return cls(1 if j == i else 0 for j in range(n))

    @classmethod
    def zero(cls, n: int) -> "VectorQ":
        return cls([0] * n)


class MatrixQ:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        norm = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not norm or not norm[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(norm[0])
        if any(len(r) != width for r in norm):
            raise ValueError("ragged rows in matrix constructor")
        object.__setattr__(self, "rows", norm)

    # -- shape and access ------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self.rows[i][j]

    def row(self, i: int) -> VectorQ:
        return VectorQ(self.rows[i])

    def column(self, j: int) -> VectorQ:
        return VectorQ(r[j] for r in self.rows)

    def last_column(self) -> VectorQ:
        return self.column(self.ncols - 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixQ) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return "MatrixQ[%s]" % body

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "MatrixQ":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, columns: Sequence[VectorQ]) -> "MatrixQ":
        n = len(columns[0])
        if any(len(c) != n for c in columns):
            raise ValueError("columns of unequal length")
        return cls([[c[i] for c in columns] for i in range(n)])

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence]) -> "MatrixQ":
        return cls([[parse_scalar(x) for x in row] for row in rows])

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        self._same_shape(other)
        return MatrixQ(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        self._same_shape(other)
        return MatrixQ(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))

    def __neg__(self) -> "MatrixQ":
        return MatrixQ(tuple(-a for a in r) for r in self.rows)

    def scale(self, c) -> "MatrixQ":
        c = as_scalar(c)
        return MatrixQ(tuple(c * a for a in r) for r in self.rows)

    def __mul__(self, other):
        if isinstance(other, MatrixQ):
            if self.ncols != other.nrows:
                raise ValueError(
                    "dimension mismatch in product: %dx%d by %dx%d"
                    % (self.nrows, self.ncols, other.nrows, other.ncols)
                )
            cols = tuple(zip(*other.rows))
            return MatrixQ(
                tuple(sum(a * b for a, b in zip(r, c)) for c in cols) for r in self.rows
            )
        if isinstance(other, VectorQ):
            return self.apply(other)
        return NotImplemented

    def apply(self, v: VectorQ) -> VectorQ:
        if self.ncols != len(v):
            raise ValueError("dimension mismatch: %dx%d by %d" % (self.nrows, self.ncols, len(v)))
        return VectorQ(sum(a * b for a, b in zip(r, v.entries)) for r in self.rows)

    def __pow__(self, k: int) -> "MatrixQ":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices have powers")
        if k < 0:
            return self.inverse() ** (-k)
        result = MatrixQ.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def transpose(self) -> "MatrixQ":
        return MatrixQ(zip(*self.rows))

    # -- predicates ------------------------------------------------------

    def is_identity(self) -> bool:
        return all(x == (1 if i == j else 0) for i, r in enumerate(self.rows) for j, x in enumerate(r))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def is_antisymmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == -self.rows[j][i] for i in range(self.nrows) for j in range(i, self.ncols)
        )

    def is_upper_triangular(self) -> bool:
        return all(self.rows[i][j] == 0 for i in range(self.nrows) for j in range(min(i, self.ncols)))

    def is_integral(self) -> bool:
        return all(type(x) is int for r in self.rows for x in r)

    def _same_shape(self, other: "MatrixQ") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                "shape mismatch: %dx%d vs %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols)
            )

    # -- elimination -----------------------------------------------------

    def rref(self) -> tuple["MatrixQ", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Pivot selection is lexicographic: the first nonzero entry scanning
        the current column top to bottom, columns left to right.
        """
        rows = [list(map(as_fraction, r)) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots: list[int] = []
        lead = 0
        for col in range(nc):
            if lead >= nr:
                break
            pivot_row = None
            for i in range(lead, nr):
                if rows[i][col] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
            inv = 1 / rows[lead][col]
            rows[lead] = [x * inv for x in rows[lead]]
            for i in range(nr):
                if i != lead and rows[i][col] != 0:
                    factor = rows[i][col]
                    rows[i] = [x - factor * y for x, y in zip(rows[i], rows[lead])]
            pivots.append(col)
            lead += 1
        return MatrixQ(rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[VectorQ]:
        """Deterministic exact basis of the kernel.

        One basis vector per free column, ordered by free column index; the
        vector carries 1 in its own free column.  Empty list for a trivial
        kernel.
        """
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for j in free:
            v = [Fraction(0)] * self.ncols
            v[j] = Fraction(1)
            for i, pc in enumerate(pivots):
                v[pc] = -as_fraction(reduced[i, j])
            basis.append(VectorQ(v))
        return basis

    def det(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = [list(map(as_fraction, r)) for r in self.rows]
        n = self.nrows
        det = Fraction(1)
        for col in range(n):
            pivot_row = None
            for i in range(col, n):
                if rows[i][col] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                return 0
            if pivot_row != col:
                rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
                det = -det
            det *= rows[col][col]
            inv = 1 / rows[col][col]
            for i in range(col + 1, n):
                if rows[i][col] != 0:
                    factor = rows[i][col] * inv
                    rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
        return as_scalar(det)

    def inverse(self) -> "MatrixQ":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [
            list(map(as_fraction, r)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, r in enumerate(self.rows)
        ]
        for col in range(n):
            pivot_row = None
            for i in range(col, n):
                if aug[i][col] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col] != 0:
                    factor = aug[i][col]
                    aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
        return MatrixQ(row[n:] for row in aug)


def proportionality(a: MatrixQ, b: MatrixQ) -> Fraction | None:
    """The scalar c with a = c*b, or None if no such scalar exists.

    b must be nonzero; the scalar is read off the first nonzero entry of b
    in row-major order and then verified entrywise.
    """
    a._same_shape(b)
    c = None
    for i in range(b.nrows):
        for j in range(b.ncols):
            if b[i, j] != 0:
                c = as_fraction(a[i, j]) / as_fraction(b[i, j])
                break
        if c is not None:
            break
    if c is None:
        raise ValueError("reference matrix is zero")
    for i in range(a.nrows):
        for j in range(a.ncols):
            if as_fraction(a[i, j]) != c * as_fraction(b[i, j]):
                return None
    return c
