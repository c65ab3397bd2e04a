"""The 51-row dataset of degree-4 hypergeometric pairs and its validator.

The dataset splits into four tables by what is known about the associated
monodromy group: 12 rows arithmetic by earlier leading-coefficient
criteria, 13 rows thin by the ping-pong construction, 15 rows arithmetic
by the unipotent certificates shipped in ``certificates``, and 11 rows
still open.  Every row stores both the exponent vectors and the
polynomials even though each determines the other; ``validate_tables``
cross-checks them, together with the difference polynomial, the pairing
row <-> partner given by X -> -X, and the conjugation identity that makes
the pairing work:

    S^{-1} (-A) S = companion(f(-X)),  S^{-1} C S = C-bar,

with S = diag(1, -1, 1, -1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .cyclotomic import (
    ExponentVector,
    IntPolynomial,
    difference_data,
    from_exponents,
    have_common_root,
    is_primitive_pair,
    negate_variable,
)
from .linalg import MatrixQ
from .monodromy import companion, levelt_triple

STATUS_ARITHMETIC_SS_SV = "arithmetic-SS-SV"
STATUS_THIN_BT = "thin-BT"
STATUS_ARITHMETIC_NEW = "arithmetic-new"
STATUS_UNKNOWN = "unknown"

STATUS_BY_TABLE = {
    1: STATUS_ARITHMETIC_SS_SV,
    2: STATUS_THIN_BT,
    3: STATUS_ARITHMETIC_NEW,
    4: STATUS_UNKNOWN,
}

EXPECTED_COUNTS = {1: 12, 2: 13, 3: 15, 4: 11}


@dataclass(frozen=True)
class TableRow:
    table_id: int
    row_no: int
    alpha: ExponentVector
    beta: ExponentVector
    f: IntPolynomial
    g: IntPolynomial
    diff: IntPolynomial
    status: str
    partner: tuple[int, int]

    @property
    def key(self) -> tuple[int, int]:
        return (self.table_id, self.row_no)

    def to_json_dict(self) -> dict:
        return {
            "table": self.table_id,
            "row": self.row_no,
            "alpha": self.alpha.to_strings(),
            "beta": self.beta.to_strings(),
            "f": self.f.to_list(),
            "g": self.g.to_list(),
            "diff": self.diff.to_list(),
            "status": self.status,
            "partner": list(self.partner),
        }


def _row_from_json(data: dict) -> TableRow:
    return TableRow(
        table_id=int(data["table"]),
        row_no=int(data["row"]),
        alpha=ExponentVector.from_strings(data["alpha"]),
        beta=ExponentVector.from_strings(data["beta"]),
        f=IntPolynomial.from_list(data["f"]),
        g=IntPolynomial.from_list(data["g"]),
        diff=IntPolynomial.from_list(data["diff"]),
        status=str(data["status"]),
        partner=(int(data["partner"][0]), int(data["partner"][1])),
    )


def _default_dataset_path():
    return resources.files("sp4mono").joinpath("data/tables.json")


def dataset(path: str | Path | None = None) -> list[TableRow]:
    """Load all 51 rows, from the packaged JSON file or an override path."""
    if path is None:
        text = _default_dataset_path().read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    data = json.loads(text)
    try:
        return [_row_from_json(item) for item in data["rows"]]
    except (TypeError, IndexError) as exc:
        raise ValueError("malformed dataset: %s" % exc) from exc


def row(table_id: int, row_no: int, rows: Sequence[TableRow] | None = None) -> TableRow:
    for r in rows if rows is not None else dataset():
        if r.table_id == table_id and r.row_no == row_no:
            return r
    raise KeyError("no table row %d:%d" % (table_id, row_no))


@dataclass(frozen=True)
class Violation:
    table_id: int
    row_no: int
    message: str

    def __str__(self) -> str:
        return "%d:%d %s" % (self.table_id, self.row_no, self.message)


@dataclass(frozen=True)
class TablesReport:
    row_count: int
    counts_by_table: dict
    status_counts: dict
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "rows": self.row_count,
            "counts_by_table": {str(k): v for k, v in sorted(self.counts_by_table.items())},
            "status_counts": dict(sorted(self.status_counts.items())),
            "violations": [str(v) for v in self.violations],
            "ok": self.ok,
        }


_SIGN_FLIP = MatrixQ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])


def validate_tables(rows: Iterable[TableRow] | None = None) -> TablesReport:
    """Re-derive every printed column and cross-reference; report violations.

    A pristine dataset yields an empty violation list.
    """
    rows = list(rows) if rows is not None else dataset()
    by_key = {r.key: r for r in rows}
    violations: list[Violation] = []

    def bad(r: TableRow, message: str) -> None:
        violations.append(Violation(r.table_id, r.row_no, message))

    for r in rows:
        try:
            if from_exponents(r.alpha) != r.f:
                bad(r, "alpha does not reproduce f")
            if from_exponents(r.beta) != r.g:
                bad(r, "beta does not reproduce g")
        except ValueError as exc:
            bad(r, "exponent vector rejected: %s" % exc)
            continue
        if not (r.f.is_monic() and r.g.is_monic() and r.f.degree == 4 and r.g.degree == 4):
            bad(r, "polynomials are not monic of degree 4")
            continue
        if r.f.constant_term != 1 or r.g.constant_term != 1:
            bad(r, "constant term is not 1")
        if r.f - r.g != r.diff:
            bad(r, "stored difference is not f - g")
        try:
            dd = difference_data(r.f, r.g)
        except ValueError as exc:
            bad(r, "difference data rejected: %s" % exc)
            continue
        if abs(dd.lead) < 3:
            bad(r, "leading coefficient of f - g has absolute value < 3")
        if dd.poly.constant_term != 0:
            bad(r, "difference polynomial has nonzero constant term")
        if not is_primitive_pair(r.f, r.g):
            bad(r, "pair is imprimitive")
        if have_common_root(r.f, r.g):
            bad(r, "f and g share a root")
        if r.status != STATUS_BY_TABLE.get(r.table_id):
            bad(r, "status %r does not match table %d" % (r.status, r.table_id))

        # Conjugation identity behind the X -> -X pairing.
        try:
            triple = levelt_triple(r.f, r.g)
        except ValueError as exc:
            bad(r, "generator triple rejected: %s" % exc)
            continue
        s = _SIGN_FLIP
        f_neg = negate_variable(r.f)
        g_neg = negate_variable(r.g)
        if s.inverse() * (-triple.A) * s != companion(f_neg):
            bad(r, "sign-flip conjugation of -A does not give the companion of f(-X)")
        c_bar = companion(f_neg).inverse() * companion(g_neg)
        if s.inverse() * triple.C * s != c_bar:
            bad(r, "sign-flip conjugation of C does not give the partner C")

        # Partner bookkeeping: X -> -X sends {f, g} to the partner's pair,
        # up to swapping the two polynomials.
        partner_key = tuple(r.partner)
        partner = by_key.get(partner_key)
        if partner is None:
            bad(r, "partner %s missing" % (partner_key,))
            continue
        if partner.table_id != r.table_id:
            bad(r, "partner lies in a different table")
        if tuple(partner.partner) != r.key:
            bad(r, "partner relation is not an involution")
        if {f_neg, g_neg} != {partner.f, partner.g}:
            bad(r, "X -> -X image does not match the partner pair")

    counts = {}
    for r in rows:
        counts[r.table_id] = counts.get(r.table_id, 0) + 1
    for table_id, expected in EXPECTED_COUNTS.items():
        if counts.get(table_id, 0) != expected:
            violations.append(
                Violation(table_id, 0, "table has %d rows, expected %d" % (counts.get(table_id, 0), expected))
            )
    status_counts = {}
    for r in rows:
        status_counts[r.status] = status_counts.get(r.status, 0) + 1

    return TablesReport(
        row_count=len(rows),
        counts_by_table=counts,
        status_counts=status_counts,
        violations=tuple(violations),
    )
