import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinsieve.cf import (
    Mat2,
    Surd,
    canonical_rotation,
    cf_expand,
    check_word,
    fixed_point,
    is_reduced,
    parse_word,
    serialize_word,
    word_from_matrix,
    word_to_matrix,
)

words = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=10).map(tuple)


def surds():
    """Valid normalised surds: d = p^2 + q*m made non-square by filtering."""

    def build(p, q, m):
        d = p * p + q * m
        return p, d, q

    return (
        st.tuples(
            st.integers(-40, 40),
            st.integers(-15, 15).filter(lambda q: q != 0),
            st.integers(-15, 15).filter(lambda m: m != 0),
        )
        .map(lambda t: build(*t))
        .filter(lambda t: t[1] > 0 and math.isqrt(t[1]) ** 2 != t[1])
        .map(lambda t: Surd(*t))
    )


# --- word/matrix dictionary -------------------------------------------------


def test_word_to_matrix_examples():
    assert word_to_matrix((1, 1)) == Mat2(2, 1, 1, 1)
    assert word_to_matrix((1, 1)).trace == 3
    m = word_to_matrix((1, 35))
    assert m == Mat2(36, 1, 35, 1)
    assert m.trace == 37 and m.trace**2 - 4 == 1365
    m = word_to_matrix((1, 1, 1, 2, 1, 2))
    assert m == Mat2(30, 11, 19, 7)
    assert m.trace == 37


def test_empty_word_rejected():
    with pytest.raises(ValueError, match="empty word"):
        word_to_matrix(())
    with pytest.raises(ValueError):
        check_word((0, 1))
    with pytest.raises(ValueError):
        check_word((1, 3), alphabet=2)


@given(words)
def test_word_matrix_entries_and_determinant(w):
    m = word_to_matrix(w)
    assert min(m.entries()) >= 0
    assert m.det == (-1) ** len(w)


@given(words)
def test_continuant_recurrence(w):
    # matrix columns are the convergent numerators/denominators
    p_prev, p = 1, w[0]
    q_prev, q = 0, 1
    for a in w[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    assert word_to_matrix(w) == Mat2(p, p_prev, q, q_prev)


@given(words)
def test_word_from_matrix_round_trip(w):
    assert word_from_matrix(word_to_matrix(w)) == w


def word_from_matrix_oracle(m: Mat2):
    """word_from_matrix checking each Euclidean candidate with word_to_matrix."""
    if m == Mat2(1, 0, 0, 1):
        return ()
    a, b = m.a, m.b
    if a < 1 or b < 1 or b > a:
        return None
    quotients = []
    x, y = a, b
    while y:
        quotients.append(x // y)
        x, y = y, x - (x // y) * y
    if x != 1:
        return None
    candidates = [quotients]
    if quotients[-1] >= 2:
        candidates.append(quotients[:-1] + [quotients[-1] - 1, 1])
    elif len(quotients) >= 2:
        candidates.append(quotients[:-2] + [quotients[-2] + 1])
    for q in candidates:
        w = tuple(reversed(q))
        if all(digit >= 1 for digit in w) and word_to_matrix(w) == m:
            return w
    return None


members = words.map(word_to_matrix)
nudged = st.tuples(members, st.integers(0, 3), st.integers(-2, 2)).map(
    lambda t: Mat2(*(v + t[2] * (i == t[1]) for i, v in enumerate(t[0].entries())))
)
entries = st.integers(-3, 10**6)


@given(st.one_of(members, nudged, st.builds(Mat2, entries, entries, entries, entries)))
@settings(max_examples=500)
def test_word_from_matrix_equals_the_matrix_check(m):
    assert word_from_matrix(m) == word_from_matrix_oracle(m)


def test_word_from_matrix_rejects_non_members():
    assert word_from_matrix(Mat2(1, 0, 0, 1)) == ()
    assert word_from_matrix(Mat2(2, 1, 1, 2)) is None  # det 3
    assert word_from_matrix(Mat2(0, 1, 1, 0)) is None
    assert word_from_matrix(Mat2(5, 3, 3, 2)) == (1, 1, 1, 1)


# --- fixed points ------------------------------------------------------------


def test_fixed_point_examples():
    assert fixed_point(Mat2(2, 1, 1, 1)) == Surd(1, 5, 2)
    assert fixed_point(Mat2(36, 1, 35, 1)) == Surd(35, 1365, 70)
    assert fixed_point(Mat2(30, 11, 19, 7)) == Surd(23, 1365, 38)


def test_fixed_point_errors():
    # note: an integer det-1 matrix with c = 0 forces trace +-2, so the
    # "fixed point at infinity" branch is shadowed by the hyperbolicity check
    with pytest.raises(ValueError, match="not hyperbolic"):
        fixed_point(Mat2(1, 1, 0, 1))
    with pytest.raises(ValueError, match="not hyperbolic|infinity"):
        fixed_point(Mat2(-1, 5, 0, -1))
    with pytest.raises(ValueError, match="determinant"):
        fixed_point(Mat2(1, 1, 1, 0))


@given(words)
def test_moebius_fixes_fixed_point(w):
    if len(w) % 2:
        w = w + w
    m = word_to_matrix(w)
    alpha = fixed_point(m)
    assert alpha.moebius(m).same_value(alpha)


# --- continued fraction expansion ---------------------------------------------


def test_cf_expand_examples():
    assert cf_expand(Surd(1, 5, 2)) == ((), (1,))
    assert cf_expand(Surd(35, 1365, 70)) == ((), (1, 35))
    pre, per = cf_expand(Surd(-27, 1337, 38))
    paper_word = (1, 1, 2, 17, 1, 8, 5, 8, 1, 17, 2, 1, 1, 3, 1, 35, 1, 3)
    assert canonical_rotation(per) == canonical_rotation(paper_word)
    assert len(per) == 18


def test_unnormalized_surd_rejected():
    with pytest.raises(ValueError, match="unnormalized surd"):
        Surd(0, 7, 3)  # 3 does not divide 7
    with pytest.raises(ValueError, match="unnormalized surd"):
        Surd.make(1, 7, 0)
    # make() rescales instead of failing
    x = Surd.make(0, 7, 3)
    assert float(x) == pytest.approx(math.sqrt(7) / 3)


def test_is_reduced_examples():
    assert is_reduced(Surd(1, 5, 2))
    assert is_reduced(Surd(35, 1365, 70))
    assert not is_reduced(Surd(-27, 1337, 38))


@given(surds())
def test_conjugate_involution(x):
    assert x.conjugate().conjugate() == x
    assert float(x.conjugate()) == pytest.approx((x.p - math.sqrt(x.d)) / x.q)


@given(surds())
def test_floor_matches_float(x):
    assert x.floor() == math.floor(float(x))


@given(surds())
@settings(max_examples=200)
def test_purely_periodic_iff_reduced(x):
    pre, per = cf_expand(x)
    assert (pre == ()) == is_reduced(x)
    assert all(a >= 1 for a in per)
    assert all(a >= 1 for a in pre[1:])  # only the leading digit may drop below 1


def test_purely_periodic_iff_reduced_exhaustive_words():
    # every even word's fixed point is reduced and purely periodic with the
    # word a power of the primitive period
    for length in (2, 4, 6):
        for w in product((1, 2, 3, 4), repeat=length):
            alpha = fixed_point(word_to_matrix(w))
            assert is_reduced(alpha)
            pre, per = cf_expand(alpha)
            assert pre == ()
            assert len(w) % len(per) == 0
            assert per * (len(w) // len(per)) == w


@given(surds())
@settings(max_examples=100)
def test_expansion_reconstructs_the_value(x):
    pre, per = cf_expand(x)
    digits = list(pre) + list(per) * (1 + 30 // len(per))
    # evaluate the truncated continued fraction bottom-up
    value = float(digits[-1])
    for a in reversed(digits[:-1]):
        value = a + 1.0 / value
    assert value == pytest.approx(float(x), rel=1e-6, abs=1e-9)


def test_expansion_with_large_leading_digit():
    x = Surd.make(10**6 + 1, 2, 1)  # (10^6 + 1) + sqrt(2)
    pre, per = cf_expand(x)
    assert pre == (10**6 + 2,)
    assert per == (2,)


def test_serialization():
    assert serialize_word((1, 35)) == "1,35"
    assert parse_word("1,35") == (1, 35)
    x = Surd(-27, 1337, 38)
    assert str(x) == "(-27+sqrt(1337))/38"
    assert Surd.parse(str(x)) == x
