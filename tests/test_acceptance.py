"""Acceptance suite: one test per criterion, exact comparisons throughout.

Every check is an exact-arithmetic identity (zero tolerance); the only
numeric budgets are wall-clock ceilings on the heavier criteria.  Each
test prints a single PASS line so `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import random
import time
from fractions import Fraction

import sp4mono as m
from sp4mono.forms import PUBLISHED_SCALING, SymplecticForm
from sp4mono.roots import RootLabel
from sp4mono.search import STATUS_FOUND, STATUS_OBSTRUCTED


def _steps_by_name(report):
    return {s.name: s.matrix for s in report.steps}


def test_criterion_1_certificate_reproduction(certs):
    start = time.monotonic()
    reports = [m.verify_certificate(c) for c in certs]
    elapsed = time.monotonic() - start
    for cert, report in zip(certs, reports):
        assert report.arithmetic_certified, (cert.example_id, report.failures)
        assert all(s.matches_expected for s in report.steps if s.matches_expected is not None)
    named = {r.example_id: _steps_by_name(r) for r in reports}
    assert named["3:1"]["z"][0, 2] == -221184 and named["3:1"]["z"][1, 3] == 55296
    assert named["3:6"]["u"][0, 3] == -1003401216
    assert named["3:6"]["z"][0, 2] == 429981696
    assert named["3:7"]["y"][0, 1] == 192 and named["3:7"]["y"][2, 3] == -16
    assert named["3:8"]["z"][0, 2] == -559872 and named["3:8"]["z"][1, 3] == 1399680
    assert elapsed < 5.0, "certificate verification took %.2fs" % elapsed
    print("ACCEPTANCE 1: PASS - 8/8 certificates reproduced exactly in %.2fs" % elapsed)


def test_criterion_2_invariant_form_reproduction(certs, rows):
    start = time.monotonic()
    scalars = {}
    for cert in certs:
        triple = m.levelt_triple(m.from_exponents(cert.alpha), m.from_exponents(cert.beta))
        computed = m.invariant_form(triple)
        scalar = m.proportionality(computed.omega, cert.omega)
        assert scalar is not None and scalar != 0, cert.example_id
        scalars[cert.example_id] = scalar
    for r in rows:
        triple = m.levelt_triple(r.f, r.g)
        kernel = m.invariance_system(triple).nullspace()
        assert len(kernel) == 1, r.key
        form = m.invariant_form(triple)
        assert form.omega.det() != 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "form computations took %.2fs" % elapsed
    print(
        "ACCEPTANCE 2: PASS - 8 printed forms matched up to scalars %s; 51/51 kernels"
        " one-dimensional and nondegenerate in %.2fs"
        % ({k: str(v) for k, v in sorted(scalars.items())}, elapsed)
    )


def test_criterion_3_gram_reproduction(certs):
    expected = {
        "3:1": (Fraction(2, 3), Fraction(-8, 3)),
        "3:2": (Fraction(-1), Fraction(-9)),
        "3:3": (Fraction(-1), Fraction(-36)),
        "3:4": (Fraction(1, 2), Fraction(8)),
        "3:5": (Fraction(-1, 4), Fraction(-1)),
        "3:6": (Fraction(-1), Fraction(-1)),
        "3:7": (Fraction(-1), Fraction(-12)),
        "3:8": (Fraction(-10, 3), Fraction(4, 3)),
    }
    for cert in certs:
        form = SymplecticForm(cert.omega, PUBLISHED_SCALING)
        got = m.verify_basis(form, cert.basis_vectors)
        assert got == expected[cert.example_id], cert.example_id
        assert got == cert.gram
    print("ACCEPTANCE 3: PASS - printed anti-diagonal Gram constants reproduced for all 8 bases")


def test_criterion_4_root_classification(certs):
    for cert in certs:
        report = m.verify_certificate(cert)
        actual = {w.name: w.actual for w in report.witness_checks}
        assert actual["x"] == RootLabel.HIGHEST, cert.example_id
        if cert.reversed_basis:
            assert actual["y"] == RootLabel.SECOND_HIGHEST
            assert actual["z"] == RootLabel.SHORT_SIMPLE
            assert actual["Q"] == RootLabel.LONG_SIMPLE
        else:
            assert actual["z"] == RootLabel.SECOND_HIGHEST
            assert actual["y"] == RootLabel.SHORT_SIMPLE
            assert actual["P"] == RootLabel.LONG_SIMPLE
        assert report.root_coverage.complete
        assert report.root_coverage.highest_pair
    print("ACCEPTANCE 4: PASS - witnesses classify to the claimed roots, coverage complete for 8/8")


def test_criterion_5_table_validation(rows):
    report = m.validate_tables(rows)
    assert report.ok, report.violations
    assert report.row_count == 51
    assert report.counts_by_table == {1: 12, 2: 13, 3: 15, 4: 11}
    assert report.status_counts == {
        "arithmetic-SS-SV": 12,
        "thin-BT": 13,
        "arithmetic-new": 15,
        "unknown": 11,
    }
    print("ACCEPTANCE 5: PASS - 51 rows validate with zero violations; partition (12, 13, 15, 11)")


def test_criterion_6_search_rediscovery(certs_by_id, triple_for):
    start = time.monotonic()
    for key in ((3, 2), (3, 3), (3, 8)):
        result = m.find_gamma(triple_for(*key), 1, 8)
        assert result.status == STATUS_FOUND, key
        assert result.gamma == m.parse_word("A^4"), key
    obstructed = m.find_gamma(triple_for(3, 4), 2, 8)
    assert obstructed.status == STATUS_OBSTRUCTED and obstructed.obstruction_gcd == 4
    # gcd >= 3 obstructions on the first two rows of the first table
    # (the gcds are 3 and 4 respectively).
    t11 = m.find_gamma(triple_for(1, 1), 1, 8)
    assert t11.status == STATUS_OBSTRUCTED and t11.obstruction_gcd == 3
    t12 = m.find_gamma(triple_for(1, 2), 1, 8)
    assert t12.status == STATUS_OBSTRUCTED and t12.obstruction_gcd == 4

    for key, budget in (((3, 2), 13), ((3, 3), 23)):
        cert = certs_by_id["%d:%d" % key]
        form = SymplecticForm(cert.omega, PUBLISHED_SCALING)
        basis = m.checked_basis(form, cert.basis_vectors)
        cov = m.derive_witnesses(triple_for(*key), form, basis, m.parse_word("A^4"), budget)
        assert cov.complete, key
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "search took %.2fs" % elapsed
    print("ACCEPTANCE 6: PASS - gamma = A^4 rediscovered, obstructions detected,"
          " witness recipes complete in %.2fs" % elapsed)


def test_criterion_7a_random_words_symplectic(rows):
    rng = random.Random(20260810)
    start = time.monotonic()
    checked = 0
    for r in rows:
        triple = m.levelt_triple(r.f, r.g)
        form = m.invariant_form(triple)
        omega = form.omega
        mats = {
            ("A", 1): triple.A,
            ("A", -1): triple.A.inverse(),
            ("B", 1): triple.B,
            ("B", -1): triple.B.inverse(),
        }
        for _ in range(200):
            word = [
                (rng.choice("AB"), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 12))
            ]
            product = m.MatrixQ.identity(4)
            for letter in word:
                product = product * mats[letter]
            assert product.transpose() * omega * product == omega, r.key
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 51 * 200
    print("ACCEPTANCE 7a: PASS - %d random words preserved their forms in %.2fs" % (checked, elapsed))


def test_criterion_7b_v_matches_difference_coefficients(rows):
    for r in rows:
        triple = m.levelt_triple(r.f, r.g)
        diff = r.f - r.g
        assert triple.v == m.VectorQ(
            [diff.coefficient(1), diff.coefficient(2), diff.coefficient(3), 0]
        ), r.key
    print("ACCEPTANCE 7b: PASS - v equals the middle coefficients of f - g on all 51 rows")


def test_criterion_7c_mutation_sweep(certs):
    start = time.monotonic()
    total = 0
    for cert in certs:
        for label, mutated in m.exponent_mutations(cert):
            report = m.verify_certificate(mutated)
            assert not report.arithmetic_certified, (cert.example_id, label)
            total += 1
    elapsed = time.monotonic() - start
    assert total > 0
    print(
        "ACCEPTANCE 7c: PASS - %d single-exponent mutations all fail verification in %.2fs"
        % (total, elapsed)
    )


def test_criterion_7d_basis_roundtrip(rows):
    rng = random.Random(4)
    start = time.monotonic()
    built = 0
    for r in rows:
        triple = m.levelt_triple(r.f, r.g)
        form = m.invariant_form(triple)
        seeds = [triple.v]
        while len(seeds) < 10:
            candidate = m.VectorQ([rng.randint(-9, 9) for _ in range(4)])
            if not candidate.is_zero():
                seeds.append(candidate)
        for seed in seeds:
            basis = m.build_basis(form, seed)
            c1, c2 = m.verify_basis(form, basis)
            assert (c1, c2) == (basis.gram_c1, basis.gram_c2)
            assert c1 != 0 and c2 != 0
            built += 1
    elapsed = time.monotonic() - start
    assert built == 510
    print("ACCEPTANCE 7d: PASS - 510 built bases all anti-diagonalize their forms in %.2fs" % elapsed)
