import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thinsieve.cf import rotations, word_to_matrix
from thinsieve.forms import class_cycles, cycle_to_word
from thinsieve.geodesics import (
    emit_arcs,
    geodesic_profile,
    is_low_lying,
    max_height,
    rotation_heights,
)


def arcs_by_rotation(w):
    """(center, radius) of each rotation's semicircle, one matrix per rotation."""
    ms = [word_to_matrix(r) for r in rotations(w)]
    d = ms[0].trace ** 2 - 4
    return [((m.a - m.d) / (2 * m.c), math.sqrt(d) / (2 * m.c)) for m in ms]


even_words = st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)), min_size=1,
                      max_size=30).map(lambda pairs: sum(pairs, ()))


@given(even_words)
def test_arcs_equal_one_matrix_per_rotation(w):
    assert emit_arcs(w) == arcs_by_rotation(w)


def test_rotation_heights_examples():
    hs = rotation_heights((1, 1))
    assert hs == pytest.approx([math.sqrt(5) / 2, math.sqrt(5) / 2], abs=1e-12)
    hs = rotation_heights((1, 35))
    assert max(hs) == pytest.approx(math.sqrt(1365) / 2, abs=1e-9)
    # the high excursion comes from the rotation that starts with the digit 35
    assert rotations((1, 35))[hs.index(max(hs))][0] == 35
    assert max_height((1, 1, 1, 2, 1, 2)) < 2


def test_max_height_exact_cross_check():
    # max height = sqrt(D) / (2 min c); compare against exact integers
    for w in [(1, 1), (1, 35), (1, 1, 1, 2, 1, 2), (2, 3, 1, 4)]:
        d = word_to_matrix(w).trace ** 2 - 4
        cmin = min(word_to_matrix(r).c for r in rotations(w))
        assert max_height(w) == pytest.approx(math.sqrt(d) / (2 * cmin), abs=1e-12)


def test_odd_or_invalid_words_rejected():
    with pytest.raises(ValueError, match="even"):
        rotation_heights((1, 2, 1))
    with pytest.raises(ValueError):
        rotation_heights(())


def test_is_low_lying():
    assert is_low_lying((1, 1), 2)
    assert not is_low_lying((1, 35), 2)
    assert is_low_lying((1, 1, 1, 2, 1, 2), 2)


def test_emit_arcs():
    arcs = emit_arcs((1, 1))
    assert len(arcs) == 2
    for center, radius in arcs:
        assert radius == pytest.approx(math.sqrt(5) / 2, abs=1e-12)
        assert center == pytest.approx(0.5, abs=1e-12)
    radii = [r for _, r in emit_arcs((1, 35))]
    assert max(radii) == pytest.approx(18.472953201911167, abs=1e-9)
    for w in [(1, 2), (1, 1, 2, 3)]:
        assert len(emit_arcs(w)) == len(w)


def test_arcs_match_heights():
    for w in [(1, 1), (1, 35), (1, 1, 1, 2, 1, 2)]:
        assert [r for _, r in emit_arcs(w)] == rotation_heights(w)


def test_digit_sandwich_exhaustive():
    # a_max / 2 < max height < (a_max + 2) / 2, decided in exact integers
    for length in (2, 4, 6):
        for w in product((1, 2, 3), repeat=length):
            a_max = max(w)
            d = word_to_matrix(w).trace ** 2 - 4
            c_min = min(word_to_matrix(r).c for r in rotations(w))
            assert (a_max * c_min) ** 2 < d
            assert d < ((a_max + 2) * c_min) ** 2


def test_rotation_invariance():
    for w in [(1, 2, 1, 4), (2, 2, 1, 1), (1, 35)]:
        base = max_height(w)
        for r in rotations(w):
            assert max_height(r) == pytest.approx(base, abs=1e-12)


def test_profile_and_cycle_cross_check():
    profile = geodesic_profile((1, 1, 1, 2, 1, 2))
    assert profile.discriminant == 1365
    assert len(profile.rotation_heights) == 6
    assert profile.max_height == max(profile.rotation_heights)
    # every member of a form cycle yields the same period word, hence heights
    for cy in class_cycles(1365):
        word = cycle_to_word(cy)
        base = max_height(word)
        for r in rotations(word):
            assert max_height(r) == pytest.approx(base, abs=1e-12)
