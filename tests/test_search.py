import itertools

import pytest

from sp4mono import (
    GroupWord,
    RootLabel,
    VectorQ,
    build_basis,
    checked_basis,
    classify_unipotent,
    derive_witnesses,
    enumerate_words,
    evaluate_word,
    find_gamma,
    gcd_obstruction,
    invariant_form,
    parse_word,
)
from sp4mono import search as search_mod
from sp4mono.forms import PUBLISHED_SCALING, SymplecticForm
from sp4mono.search import STATUS_EXHAUSTED, STATUS_FOUND, STATUS_OBSTRUCTED


def test_gcd_obstruction_values(triple_for):
    assert gcd_obstruction(triple_for(3, 4)) == 4
    assert gcd_obstruction(triple_for(3, 1)) == 1
    assert gcd_obstruction(triple_for(1, 1)) == 3
    assert gcd_obstruction(triple_for(1, 2)) == 4


def test_enumeration_is_shortlex_with_interleaved_exponents():
    words = list(enumerate_words(1, 3))
    as_text = [w.to_text() for w in words]
    assert as_text == [
        "A", "A^-1", "A^2", "A^-2", "A^3", "A^-3",
        "B", "B^-1", "B^2", "B^-2", "B^3", "B^-3",
    ]
    words2 = list(enumerate_words(2, 2))
    assert words2[: 2 * 4] == list(enumerate_words(1, 2))
    assert words2[8].to_text() == "A B"
    assert words2[9].to_text() == "A B^-1"
    assert all(w.length == 2 for w in words2[8:])
    assert len(words2) == 8 + 2 * 16


def _oracle_first_hit(triple, max_len, max_exp):
    # Independent brute-force search: same order, direct matrix action.
    # Returns the first hit, its e4-coefficient and the words explored.
    exps = [e for k in range(1, max_exp + 1) for e in (k, -k)]
    powers = {}
    explored = 0
    for length in range(1, max_len + 1):
        for first in ("A", "B"):
            for combo in itertools.product(exps, repeat=length):
                gens = [("A", "B")[(("A", "B").index(first) + i) % 2] for i in range(length)]
                explored += 1
                image = triple.v
                for letter in reversed(list(zip(gens, combo))):
                    if letter not in powers:
                        powers[letter] = triple.power(*letter)
                    image = powers[letter].apply(image)
                if image[3] != 0 and abs(image[3]) <= 2:
                    return GroupWord(tuple(zip(gens, combo))), int(image[3]), explored
    return None, None, explored


def test_find_gamma_second_example(triple_for):
    result = find_gamma(triple_for(3, 2), 1, 8)
    assert result.status == STATUS_FOUND
    assert result.gamma == parse_word("A^4")
    assert result.e4_coeff == 1
    assert result.explored == 7
    word, coeff, _ = _oracle_first_hit(triple_for(3, 2), 1, 8)
    assert (word, coeff) == (result.gamma, result.e4_coeff)


def test_find_gamma_third_and_eighth_examples(triple_for):
    for key in ((3, 3), (3, 8)):
        result = find_gamma(triple_for(*key), 1, 8)
        assert result.status == STATUS_FOUND
        assert result.gamma == parse_word("A^4")
        assert abs(result.e4_coeff) in (1, 2)


def test_find_gamma_obstructed(triple_for):
    result = find_gamma(triple_for(3, 4), 2, 8)
    assert result.status == STATUS_OBSTRUCTED
    assert result.obstruction_gcd == 4
    assert result.explored == 0
    assert find_gamma(triple_for(1, 1), 1, 8).obstruction_gcd == 3


def test_find_gamma_first_example_and_printed_conjugator(triple_for):
    triple = triple_for(3, 1)
    result = find_gamma(triple, 2, 8)
    assert result.status == STATUS_FOUND
    oracle_word, oracle_coeff, _ = _oracle_first_hit(triple, 2, 8)
    assert result.gamma == oracle_word
    assert result.e4_coeff == oracle_coeff
    # The conjugator used by the published certificate also satisfies the
    # condition, even though the search finds a shorter word first.
    printed = parse_word("B^-3 A^7")
    image = evaluate_word(triple, printed).apply(triple.v)
    assert image == VectorQ([-75, -28, -51, -2])
    assert abs(image[3]) <= 2 and image[3] != 0


def test_find_gamma_deterministic(triple_for):
    first = find_gamma(triple_for(3, 2), 2, 8)
    second = find_gamma(triple_for(3, 2), 2, 8)
    assert first == second


def test_find_gamma_exhausted(triple_for):
    # Table 4 row 1 has gcd 1 but no short word satisfies the condition.
    result = find_gamma(triple_for(4, 1), 2, 8)
    assert result.status == STATUS_EXHAUSTED
    assert result.explored == 2 * 16 + 2 * 16 * 16


@pytest.mark.parametrize("max_len, max_exp", [(2, 4), (3, 2)])
def test_find_gamma_matches_oracle_on_every_row(rows, triple_for, max_len, max_exp):
    total = sum(2 * (2 * max_exp) ** length for length in range(1, max_len + 1))
    for row in rows:
        triple = triple_for(row.table_id, row.row_no)
        result = find_gamma(triple, max_len, max_exp)
        if result.status == STATUS_OBSTRUCTED:
            assert gcd_obstruction(triple) >= 3
            continue
        word, coeff, explored = _oracle_first_hit(triple, max_len, max_exp)
        assert (result.gamma, result.e4_coeff, result.explored) == (word, coeff, explored), row
        if result.status == STATUS_EXHAUSTED:
            assert result.explored == total


def test_find_gamma_progress_events_per_length(triple_for):
    events = []
    result = find_gamma(triple_for(4, 1), 2, 8, progress=events.append)
    assert result.status == STATUS_EXHAUSTED
    assert events == [
        {"event": "depth", "length": 1, "explored": 0},
        {"event": "depth", "length": 2, "explored": 32},
    ]


def test_find_gamma_rejects_bad_bounds(triple_for):
    with pytest.raises(ValueError):
        find_gamma(triple_for(3, 1), 0, 8)


def test_find_gamma_refuses_search_over_word_cap(triple_for, monkeypatch):
    # The length-5, exponent-8 sweep (2,236,960 words) is under the cap.
    assert find_gamma(triple_for(3, 2), 5, 8).status == STATUS_FOUND

    def build_nothing(triple, max_exp):
        raise AssertionError("built generator powers for a search over the cap")

    monkeypatch.setattr(search_mod, "_power_table", build_nothing)
    for max_len, max_exp in ((1, 10 ** 8), (10 ** 9, 1), (6, 8)):
        with pytest.raises(ValueError, match="search limit"):
            find_gamma(triple_for(3, 2), max_len, max_exp)


def _published_setup(cert, triple):
    form = SymplecticForm(cert.omega, PUBLISHED_SCALING)
    basis = checked_basis(form, cert.basis_vectors)
    return form, basis


def test_derive_witnesses_second_example(certs_by_id, triple_for):
    triple = triple_for(3, 2)
    form, basis = _published_setup(certs_by_id["3:2"], triple)
    cov = derive_witnesses(triple, form, basis, parse_word("A^4"), 13)
    assert cov.complete
    assert cov.highest_pair
    # Budget below the needed conjugation power must fall short.
    small = derive_witnesses(triple, form, basis, parse_word("A^4"), 12)
    assert not small.complete


def test_derive_witnesses_third_example(certs_by_id, triple_for):
    triple = triple_for(3, 3)
    form, basis = _published_setup(certs_by_id["3:3"], triple)
    cov = derive_witnesses(triple, form, basis, parse_word("A^4"), 23)
    assert cov.complete
    assert not derive_witnesses(triple, form, basis, parse_word("A^4"), 22).complete


def test_derive_witnesses_commutator_template(certs_by_id, triple_for):
    # The sixth and eighth examples need the commutator chain.
    for key, gamma in (("3:6", "A^4"), ("3:8", "A^3 B")):
        table_id, row_no = (int(x) for x in key.split(":"))
        triple = triple_for(table_id, row_no)
        form, basis = _published_setup(certs_by_id[key], triple)
        cov = derive_witnesses(triple, form, basis, parse_word(gamma), 8)
        assert cov.complete, key


def test_derive_witnesses_all_witnesses_valid(certs_by_id, triple_for):
    triple = triple_for(3, 2)
    form, basis = _published_setup(certs_by_id["3:2"], triple)
    cov = derive_witnesses(triple, form, basis, parse_word("A^4"), 13)
    for label, matrix in cov.found.items():
        assert classify_unipotent(matrix, basis.gram_c1, basis.gram_c2) == label
        g = basis.matrix()
        back = g * matrix * g.inverse()
        assert back.transpose() * form.omega * back == form.omega


def test_derive_witnesses_identity_gamma_gives_no_new_witnesses(certs_by_id, triple_for):
    # With gamma = 1 the conjugates collapse to C itself, every template
    # recipe degenerates, and only the long simple root is covered.
    triple = triple_for(3, 2)
    form, basis = _published_setup(certs_by_id["3:2"], triple)
    cov = derive_witnesses(triple, form, basis, GroupWord(), 10)
    assert not cov.complete
    assert cov.labels() == [RootLabel.LONG_SIMPLE]


def test_derive_witnesses_partial_with_built_basis(triple_for):
    # A generic basis is not the frame the recipes were tuned to; the
    # search must still return honest (possibly partial) coverage.
    triple = triple_for(3, 2)
    form = invariant_form(triple)
    basis = build_basis(form, triple.v)
    cov = derive_witnesses(triple, form, basis, parse_word("A^4"), 13)
    assert RootLabel.LONG_SIMPLE in cov.found
    for label, matrix in cov.found.items():
        assert classify_unipotent(matrix, basis.gram_c1, basis.gram_c2) == label
