import dataclasses

import pytest

from sp4mono import (
    MatrixQ,
    companion,
    negate_variable,
    row,
    validate_tables,
)
from sp4mono.cyclotomic import IntPolynomial
from sp4mono.tables import (
    STATUS_ARITHMETIC_NEW,
    STATUS_ARITHMETIC_SS_SV,
    STATUS_THIN_BT,
    STATUS_UNKNOWN,
)


def test_counts_per_table(rows):
    counts = {}
    for r in rows:
        counts[r.table_id] = counts.get(r.table_id, 0) + 1
    assert counts == {1: 12, 2: 13, 3: 15, 4: 11}
    assert len(rows) == 51


def test_status_partition(rows):
    statuses = {}
    for r in rows:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    assert statuses == {
        STATUS_ARITHMETIC_SS_SV: 12,
        STATUS_THIN_BT: 13,
        STATUS_ARITHMETIC_NEW: 15,
        STATUS_UNKNOWN: 11,
    }


def test_self_paired_rows(rows_by_key):
    assert rows_by_key[(2, 1)].partner == (2, 1)
    assert rows_by_key[(3, 4)].partner == (3, 4)
    assert rows_by_key[(4, 3)].partner == (4, 3)


def test_partner_examples(rows_by_key):
    assert rows_by_key[(3, 1)].partner == (3, 9)
    assert rows_by_key[(3, 9)].partner == (3, 1)


def test_partner_is_involution_and_matches_negation(rows, rows_by_key):
    for r in rows:
        partner = rows_by_key[tuple(r.partner)]
        assert tuple(partner.partner) == r.key
        assert {negate_variable(r.f), negate_variable(r.g)} == {partner.f, partner.g}


def test_validate_tables_clean(rows):
    report = validate_tables(rows)
    assert report.ok
    assert report.row_count == 51
    assert report.counts_by_table == {1: 12, 2: 13, 3: 15, 4: 11}


def test_validate_detects_tampered_difference(rows):
    tampered = []
    for r in rows:
        if r.key == (3, 1):
            bad = IntPolynomial((1, 3, 2, 3))  # constant term forced nonzero
            tampered.append(dataclasses.replace(r, diff=bad))
        else:
            tampered.append(r)
    report = validate_tables(tampered)
    assert not report.ok
    assert any(v.table_id == 3 and v.row_no == 1 for v in report.violations)


def test_validate_detects_wrong_polynomial(rows):
    tampered = []
    for r in rows:
        if r.key == (1, 1):
            wrong = IntPolynomial((1, -4, 6, -4, 2))
            tampered.append(dataclasses.replace(r, f=wrong))
        else:
            tampered.append(r)
    report = validate_tables(tampered)
    assert any("alpha does not reproduce f" in str(v) for v in report.violations)


def test_validate_reports_unknown_table(rows):
    tampered = [dataclasses.replace(r, table_id=7) if r.key == (1, 1) else r for r in rows]
    report = validate_tables(tampered)
    assert "7:1 status 'arithmetic-SS-SV' does not match table 7" in map(str, report.violations)


def test_sign_flip_conjugation_identity(rows_by_key):
    # Direct check on the first pairing: rows (1,1) and (1,7).
    r = rows_by_key[(1, 1)]
    partner = rows_by_key[(1, 7)]
    s = MatrixQ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    a = companion(r.f)
    assert s.inverse() * (-a) * s == companion(negate_variable(r.f))
    assert {negate_variable(r.f), negate_variable(r.g)} == {partner.f, partner.g}


def test_certificate_rows_match_certificates(rows_by_key, certs):
    for k, cert in enumerate(certs, start=1):
        r = rows_by_key[(3, k)]
        assert cert.alpha == r.alpha
        assert cert.beta == r.beta


def test_lead_coefficient_always_at_least_three(rows):
    for r in rows:
        assert abs(r.diff.leading_coefficient) >= 3


def test_row_lookup(rows):
    r = row(3, 4, rows)
    assert r.f == IntPolynomial((1, 2, 3, 2, 1))
    with pytest.raises(KeyError):
        row(5, 1, rows)


def test_row_json_roundtrip(rows):
    from sp4mono.tables import _row_from_json

    for r in rows[:5]:
        assert _row_from_json(r.to_json_dict()) == r
