import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinsieve.arith import is_squarefree, primes_up_to
from thinsieve.forms import is_fundamental
from thinsieve.modular import beta, sl2_enumerate
from thinsieve.semigroup import (
    aleph_construct,
    ball_count,
    build_fixed_length_ball,
    build_pi,
    enumerate_ball,
    trace_multiplicity,
)
from thinsieve.sieve import (
    A_q,
    BallSource,
    RemainderProfile,
    RemainderRow,
    SiftingSequence,
    almost_prime_census,
    class_census,
    discriminant_census,
    remainder_profile,
    sift_values,
    squarefree_trace_census,
    _squarefree_trace,
)


def test_sift_values_examples():
    assert sift_values([(1, 1)]).values == ((5, 1),)
    seq = sift_values([(1, 35), (5, 7)])
    assert seq.values == ((1365, 2),)
    seq = sift_values(BallSource(2, 100))
    assert seq.source_size == ball_count(2, 100)
    assert sum(m for _, m in seq.values) == seq.source_size


def test_sift_values_empty_ball_is_an_error():
    # no even word has norm <= 1: an empty source, as for an empty element list
    with pytest.raises(ValueError, match="empty sifting source"):
        sift_values(BallSource(2, 1))
    with pytest.raises(ValueError, match="empty sifting source"):
        sift_values([])


@given(st.integers(1, 5), st.floats(2, 300))
@settings(max_examples=60, deadline=None)
def test_ball_sources_equal_what_iter_ball_gives(alphabet, norm):
    traces = Counter(e.trace for e in enumerate_ball(alphabet, norm))
    if not traces:
        with pytest.raises(ValueError, match="empty sifting source"):
            sift_values(BallSource(alphabet, norm))
        return
    seq = sift_values(BallSource(alphabet, norm))
    assert seq.values == tuple(sorted((t * t - 4, m) for t, m in traces.items()))
    assert seq.source_size == sum(traces.values())
    assert squarefree_trace_census(alphabet, norm) == sum(
        m for t, m in traces.items() if _squarefree_trace(t)
    )


def test_from_values_rejects_a_value_no_trace_gives():
    with pytest.raises(ValueError, match="-10"):
        SiftingSequence.from_values([-10])
    assert SiftingSequence.from_values([-4]).norm_bound == 0.0
    assert SiftingSequence.from_values([-10], norm_bound=1.0).values == ((-10, 1),)


def test_sift_values_bilinear_streams_factorwise():
    pi = build_pi(
        build_fixed_length_ball(2, 10),
        aleph_construct(1e6, 2),
        build_fixed_length_ball(2, 6),
    )
    seq = sift_values(pi)
    direct = sorted(e.trace**2 - 4 for e in pi.iter_elements())
    streamed = sorted(v for v, m in seq.values for _ in range(m))
    assert streamed == direct
    assert seq.source_size == pi.size
    # support bound: n <= 2 T for nonnegative matrices
    assert max(v for v, _ in seq.values) <= 2 * seq.T


def test_A_q_examples():
    assert A_q(sift_values([(1, 1)]), 5) == 1
    seq = sift_values([(1, 35), (5, 7)])
    assert A_q(seq, 15) == 2
    assert A_q(seq, 2) == 0
    with pytest.raises(ValueError):
        A_q(seq, 12)


def test_A_q_inclusion_structure():
    seq = SiftingSequence.from_values([30, 30, 42, 35, 6, 11])
    assert A_q(seq, 6) <= min(A_q(seq, 2), A_q(seq, 3))
    # coprime moduli: divisible by both <=> divisible by the product
    count_both = sum(m for v, m in seq.values if v % 2 == 0 and v % 3 == 0)
    assert A_q(seq, 6) == count_both


def test_remainder_profile_single_element():
    profile = remainder_profile(sift_values([(1, 1)]), 3)
    row = profile.rows[-1]
    assert row.q == 2
    assert row.remainder == (1 if 5 % 2 == 0 else 0) - Fraction(2, 3)
    assert profile.rows[0].q == 1 and profile.rows[0].remainder == 0


def test_remainder_profile_exact_identity_and_range():
    seq = sift_values(BallSource(2, 1e3))
    profile = remainder_profile(seq, 30)
    for row in profile.rows:
        assert row.remainder == row.count - row.expected
        assert row.expected == beta(row.q) * seq.source_size
        assert 0 <= row.expected <= seq.source_size
    assert profile.summary == sum(abs(r.remainder) for r in profile.rows) / seq.source_size


def test_remainder_trend_in_norm():
    summaries = [
        float(remainder_profile(sift_values(BallSource(2, n)), 20).summary)
        for n in (1e3, 1e4)
    ]
    assert summaries[1] < summaries[0]


def test_remainder_calibration_uniform_sl2_draws():
    # traces of uniform SL2(Z/q) draws reproduce beta(q): r(q)/size -> 0
    q = 15
    elements = list(sl2_enumerate(q))
    rng = random.Random(0)

    def deviation(size):
        values = []
        for _ in range(size):
            g = elements[rng.randrange(len(elements))]
            values.append((g.a + g.d) ** 2 - 4 + q)  # keep values positive
        seq = SiftingSequence.from_values(values)
        r = A_q(seq, q) - beta(q) * size
        return abs(float(r)) / size

    small, large = deviation(400), deviation(40000)
    assert large < small
    assert large < 0.01


def test_almost_prime_census():
    assert almost_prime_census(sift_values([(1, 1)]), 3) == 1  # 5 has no factor <= 3
    seq1365 = sift_values([(1, 35)])
    # all prime factors of 1365 = 3*5*7*13 exceed 2, but not 3
    assert almost_prime_census(seq1365, 2) == 1
    assert almost_prime_census(seq1365, 3) == 0
    with pytest.raises(ValueError):
        almost_prime_census(seq1365, 1)


def test_squarefree_trace_predicate():
    assert _squarefree_trace(3)  # 5
    assert _squarefree_trace(37)  # 1365
    assert not _squarefree_trace(4)  # 12 = 4 * 3
    assert not _squarefree_trace(7)  # 45 = 9 * 5
    assert not _squarefree_trace(18)  # 320


def test_squarefree_trace_census_small():
    assert squarefree_trace_census(1, 3) == 1
    count = squarefree_trace_census(2, 100)
    assert count == 27  # frozen from a direct run over the 98-element ball
    total = ball_count(2, 100)
    assert 0 < count < total


def test_squarefree_census_fraction_stabilizes():
    # reported trend: the fraction stays inside a fixed band on a log grid
    fractions = []
    for n in (1e2, 1e3, 1e4):
        fractions.append(squarefree_trace_census(2, n) / ball_count(2, n))
    assert all(0.1 < f < 0.5 for f in fractions)


def test_discriminant_census_examples():
    records = discriminant_census(35, 1369)
    by_t = {r.t: r for r in records}
    assert by_t[37].discriminant == 1365 and by_t[37].multiplicity == 14
    assert all(is_fundamental(r.discriminant) for r in records)
    assert [ (r.t, r.discriminant, r.multiplicity) for r in discriminant_census(1, 10)] == [(3, 5, 1)]


def test_discriminant_census_equals_one_fiber_walk_per_trace():
    for alphabet in (2, 3, 10):
        records = discriminant_census(alphabet, 300**2)
        expected = [
            (t, m)
            for t in range(3, 301)
            if _squarefree_trace(t) and (m := trace_multiplicity(alphabet, t))
        ]
        assert [(r.t, r.multiplicity) for r in records] == expected


def test_discriminant_census_threshold():
    records = discriminant_census(35, 1369, min_multiplicity=14)
    assert [r.t for r in records] == [37]
    records = discriminant_census(35, 1369, min_multiplicity=lambda t: t)
    assert all(r.multiplicity >= r.t for r in records)


def test_class_census_examples():
    assert len(class_census(1365, 35)) == 4
    assert len(class_census(1365, 2)) == 1
    assert len(class_census(5, 1)) == 1
    with pytest.raises(ValueError):
        class_census(10, 2)  # not of the form t^2 - 4


def test_class_census_words_are_low_lying():
    from thinsieve.forms import cycle_to_word
    from thinsieve.geodesics import max_height

    alphabet = 35
    for cy in class_census(1365, alphabet):
        word = cycle_to_word(cy)
        assert max(word) <= alphabet
        assert max_height(word) < (alphabet + 2) / 2


# ---------------------------------------------------------------------------
# independent oracles: the ledger by a scan of every value for each q, and the
# almost-prime census by trial division


def _remainder_profile_by_scan(seq, cutoff):
    """The ledger by one scan of every value for each square-free q < cutoff."""
    rows = []
    total = Fraction(0)
    for q in range(1, cutoff):
        if not is_squarefree(q):
            continue
        count = A_q(seq, q)
        expected = beta(q) * seq.source_size
        rows.append(RemainderRow(q, count, expected, count - expected))
        total += abs(count - expected)
    return RemainderProfile(tuple(rows), total / seq.source_size, seq.source_size)


def _almost_prime_census_by_trial(seq, z):
    small = primes_up_to(z)
    return sum(m for v, m in seq.values if v >= 2 and all(v % p for p in small))


# the Pi of tests/test_cli.py's PI_BOUNDS (alphabet 2, modulus 2)
_PI_SEQ = sift_values(build_pi(
    build_fixed_length_ball(2, 40),
    aleph_construct(1e6, 2),
    build_fixed_length_ball(2, 12),
))

# words of either parity: (2,) has trace 2, so value 0; (1,) has trace 1, value -3
_element_lists = st.lists(
    st.lists(st.integers(1, 5), min_size=1, max_size=6).map(tuple), min_size=1, max_size=30
).map(lambda words: [(2,), *words])
_ball_sources = st.builds(BallSource, st.integers(1, 4), st.integers(3, 300).map(float))
_sources = st.one_of(
    _element_lists.map(sift_values),
    _ball_sources.map(sift_values),
    st.just(_PI_SEQ),
)


@given(_sources, st.integers(2, 1000))
@settings(max_examples=60, deadline=None)
def test_remainder_profile_equals_the_per_q_scan(seq, cutoff):
    assert remainder_profile(seq, cutoff) == _remainder_profile_by_scan(seq, cutoff)


def test_remainder_profile_counts_zero_values_at_every_q():
    # trace-2 words give the value 0, which every q divides
    seq = sift_values([(2,), (2,), (1,), (1, 1)])
    assert seq.values == ((-3, 1), (0, 2), (5, 1))
    profile = remainder_profile(seq, 1000)
    assert profile == _remainder_profile_by_scan(seq, 1000)
    assert all(row.count >= 2 for row in profile.rows)


def test_remainder_profile_on_pi_at_cutoff_1000():
    assert remainder_profile(_PI_SEQ, 1000) == _remainder_profile_by_scan(_PI_SEQ, 1000)


@given(
    st.lists(st.integers(-10**6, 10**30), min_size=1, max_size=40),
    st.integers(2, 2000),
)
def test_almost_prime_census_equals_trial_division(values, z):
    # values below 2 never count, whatever their gcd
    seq = SiftingSequence.from_values([-3, 0, 1, 2, *values], norm_bound=1.0)
    assert almost_prime_census(seq, z) == _almost_prime_census_by_trial(seq, z)


def test_almost_prime_census_on_pi_equals_trial_division():
    for z in (2, 7, 100, 1000):
        assert almost_prime_census(_PI_SEQ, z) == _almost_prime_census_by_trial(_PI_SEQ, z)
