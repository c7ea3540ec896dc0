import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinsieve import semigroup, sieve
from thinsieve.arith import is_squarefree, primes_up_to
from thinsieve.cf import word_to_matrix
from thinsieve.errors import CapExceededError, InternalInvariantError
from thinsieve.forms import is_fundamental
from thinsieve.modular import DENSITY_MODULUS_CAP, beta
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
    squarefree_census,
    squarefree_trace_census,
    _squarefree_trace,
)

from test_modular import sl2_enumerate  # the CRT-product oracle of SL2(Z/q)


def _tallied(traces):
    """The sifting multiset of some traces, handed over as Python ints: the
    constructor chooses their dtype."""
    traces, mult = zip(*sorted(Counter(traces).items()))
    return SiftingSequence(np.array(traces, dtype=object), np.array(mult, dtype=np.int64))


def _sift_words(words):
    """The sifting multiset of explicit words, from their trace tally."""
    return _tallied(word_to_matrix(w).trace for w in words)


def test_sift_values_examples():
    assert _sift_words([(1, 1)]).values == ((5, 1),)
    seq = _sift_words([(1, 35), (5, 7)])
    assert seq.values == ((1365, 2),)
    seq = sift_values(BallSource(2, 100))
    assert seq.source_size == ball_count(2, 100)
    assert sum(m for _, m in seq.values) == seq.source_size


def test_sift_values_empty_ball_is_an_error():
    # no even word has norm <= 1: an empty source
    with pytest.raises(ValueError, match="empty sifting source"):
        sift_values(BallSource(2, 1))


def test_sift_values_takes_a_ball_or_a_bilinear_set_only():
    for source in ([(1, 1)], [], (3, 100.0)):
        with pytest.raises(TypeError, match="BilinearSet or a BallSource"):
            sift_values(source)


@given(st.integers(1, 5), st.floats(2, 300))
@settings(max_examples=60)
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
    assert max(v for v, _ in seq.values) <= 2 * pi.norm_bound()**2


def test_the_whole_pi_reaches_the_sift_without_an_element(monkeypatch):
    def formed(words):
        raise AssertionError("an element was formed")

    monkeypatch.setattr(semigroup, "_elements", formed)
    pi = build_pi(build_fixed_length_ball(2, 40), aleph_construct(1e6, 2),
                  build_fixed_length_ball(2, 12))
    seq = sift_values(pi)
    monkeypatch.undo()  # the oracle forms elements
    assert seq.values == tuple(sorted(Counter(t * t - 4 for t in pi.iter_traces()).items()))


def test_A_q_examples():
    assert A_q(_sift_words([(1, 1)]), 5) == 1
    seq = _sift_words([(1, 35), (5, 7)])
    assert A_q(seq, 15) == 2
    assert A_q(seq, 2) == 0
    for q in (12, 0, -6):
        with pytest.raises(ValueError):
            A_q(seq, q)


def test_A_q_inclusion_structure():
    # values 5, 12, 12, 21, 32 and 60: by 2 alone, 3 alone, both, or neither
    seq = _tallied([3, 4, 4, 5, 6, 8])
    assert A_q(seq, 6) <= min(A_q(seq, 2), A_q(seq, 3))
    # coprime moduli: divisible by both <=> divisible by the product
    count_both = sum(m for v, m in seq.values if v % 2 == 0 and v % 3 == 0)
    assert A_q(seq, 6) == count_both


def test_remainder_profile_rejects_a_cutoff_below_2():
    # the CLI refuses --cutoff 1 at the flag, so only the library call reaches this
    for cutoff in (1, 0):
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            remainder_profile(_sift_words([(1, 1)]), cutoff)


def test_remainder_profile_single_element():
    profile = remainder_profile(_sift_words([(1, 1)]), 3)
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
        traces = []
        for _ in range(size):
            g = elements[rng.randrange(len(elements))]
            traces.append((g.a + g.d) % q)  # t^2 - 4 mod q is the draw's
        seq = _tallied(traces)
        r = A_q(seq, q) - beta(q) * size
        return abs(float(r)) / size

    small, large = deviation(400), deviation(40000)
    assert large < small
    assert large < 0.01


def test_almost_prime_census():
    assert almost_prime_census(_sift_words([(1, 1)]), 3) == 1  # 5 has no factor <= 3
    seq1365 = _sift_words([(1, 35)])
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


def test_class_census_examples():
    assert len(class_census(1365, 35)) == 4
    assert len(class_census(1365, 2)) == 1
    assert len(class_census(5, 1)) == 1
    with pytest.raises(ValueError):
        class_census(10, 2)  # not of the form t^2 - 4


def test_two_rotation_classes_in_one_cycle_are_a_bug(monkeypatch):
    # the four rotation classes of trace 37 over {1..35}, each sent to one cycle
    monkeypatch.setattr(sieve, "cycle", lambda form: "one cycle")
    with pytest.raises(InternalInvariantError, match="landed in one cycle"):
        class_census(1365, 35)


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
        count = sum(m for v, m in seq.values if v % q == 0)
        expected = beta(q) * seq.source_size
        rows.append(RemainderRow(q, count, expected, count - expected))
        total += abs(count - expected)
    return RemainderProfile(tuple(rows), total / seq.source_size, seq.source_size)


def _almost_prime_census_by_trial(seq, z):
    small = primes_up_to(z)
    return sum(m for v, m in seq.values if v >= 2 and all(v % p for p in small))


# the Pi of tests/test_cli.py's PI_BOUNDS (alphabet 2, modulus 2), and of demos/bilinear_set.py
_PI = build_pi(build_fixed_length_ball(2, 40), aleph_construct(1e6, 2),
               build_fixed_length_ball(2, 12))
_PI_SEQ = sift_values(_PI)

# words of either parity: (2,) has trace 2, so value 0; (1,) has trace 1, value -3
_element_lists = st.lists(
    st.lists(st.integers(1, 5), min_size=1, max_size=6).map(tuple), min_size=1, max_size=30
).map(lambda words: [(2,), *words])
_ball_sources = st.builds(BallSource, st.integers(1, 4), st.integers(3, 300).map(float))
_sources = st.one_of(
    _element_lists.map(_sift_words),
    _ball_sources.map(sift_values),
    st.just(_PI_SEQ),
)


@given(_sources, st.integers(2, 1000))
@settings(max_examples=60)
def test_remainder_profile_equals_the_per_q_scan(seq, cutoff):
    assert remainder_profile(seq, cutoff) == _remainder_profile_by_scan(seq, cutoff)


def test_remainder_profile_counts_zero_values_at_every_q():
    # trace-2 words give the value 0, which every q divides
    seq = _sift_words([(2,), (2,), (1,), (1, 1)])
    assert seq.values == ((-3, 1), (0, 2), (5, 1))
    profile = remainder_profile(seq, 1000)
    assert profile == _remainder_profile_by_scan(seq, 1000)
    assert all(row.count >= 2 for row in profile.rows)


def test_remainder_profile_checks_the_density_cap_first():
    seq = _tallied([3])
    with pytest.raises(CapExceededError, match="exceeds cap"):
        remainder_profile(seq, DENSITY_MODULUS_CAP + 2)  # q = 1000001 = 101 * 9901


def test_remainder_profile_checks_the_walk_against_the_density_sieve(monkeypatch):
    # the rows take beta(q) from densities; a sieve that misses a modulus the
    # walk reaches is an invariant violation, not a KeyError
    seq = _sift_words([(1, 1), (1, 35), (5, 7), (2, 3)])
    full = sieve.densities
    monkeypatch.setattr(sieve, "densities", lambda n: tuple(a[:-1] for a in full(n)))
    with pytest.raises(InternalInvariantError, match="ledger found 61 moduli, densities 60"):
        remainder_profile(seq, 100)


def test_remainder_profile_on_pi_at_cutoff_1000():
    assert remainder_profile(_PI_SEQ, 1000) == _remainder_profile_by_scan(_PI_SEQ, 1000)


def test_remainder_profile_extends_the_largest_nodes_least(monkeypatch):
    # the values 2 or 3 divide are most of Pi's, so those nodes must have few
    # children: the ledger does 47,575 divisibility tests, 42,840 at the root,
    # where extending each q by the primes above its largest did 90,323
    tests = []
    masks = sieve._masks

    def counted(values, primes):
        tests.append(len(values) * len(primes))
        return masks(values, primes)

    monkeypatch.setattr(sieve, "_masks", counted)
    remainder_profile(_PI_SEQ, 1000)
    assert sum(tests) < 60_000


def test_remainder_profile_leaves_no_cycle_holding_the_sequence():
    # with the cyclic collector off, the sequence must die with its last name
    seq = sift_values(BallSource(2, 100))
    dead = weakref.ref(seq)
    gc.disable()
    try:
        remainder_profile(seq, 100)
        del seq
        assert dead() is None
    finally:
        gc.enable()


@given(
    st.lists(st.one_of(st.integers(0, 1000), st.integers(0, 10**15)), min_size=1, max_size=40),
    st.integers(2, 2000),
)
def test_almost_prime_census_equals_trial_division(traces, z):
    # values below 2 never count, whatever their gcd: traces 0, 1 and 2 give -4, -3 and 0
    seq = _tallied([0, 1, 2, *traces])
    assert almost_prime_census(seq, z) == _almost_prime_census_by_trial(seq, z)


def test_almost_prime_census_on_pi_equals_trial_division():
    for z in (2, 7, 100, 1000):
        assert almost_prime_census(_PI_SEQ, z) == _almost_prime_census_by_trial(_PI_SEQ, z)


# the census tests each distinct trace once; the oracle tests every member's own trace
@pytest.mark.parametrize("source, dtype, traces", [
    (_PI, np.int64, _PI.iter_traces),
    (BallSource(3, 1000), np.int64, lambda: (e.trace for e in enumerate_ball(3, 1000))),
    (BallSource(1, 1e20), object, lambda: (e.trace for e in enumerate_ball(1, 1e20))),
], ids=["pi", "int64 ball", "object ball"])
def test_squarefree_census_equals_the_per_member_oracle(source, dtype, traces):
    seq = sift_values(source)
    assert seq.value.dtype == dtype
    assert squarefree_census(seq) == sum(map(_squarefree_trace, traces()))


def test_remainder_profile_on_zero_and_negative_values():
    # traces 2, 2, 0, 1, 37, 4 and 8: values 0, 0, -4, -3, 1365 = 3 5 7 13, 12 and 60
    seq = _tallied([2, 2, 0, 1, 37, 4, 8])
    profile = remainder_profile(seq, 100)
    assert profile == _remainder_profile_by_scan(seq, 100)
    counts = {row.q: row.count for row in profile.rows}
    assert (counts[1], counts[2], counts[3], counts[5], counts[7]) == (7, 5, 6, 4, 3)
    assert (counts[30], counts[35], counts[97]) == (3, 3, 2)  # 0 counts at every q
    assert A_q(seq, 35) == 3 and A_q(seq, 1) == 7
    assert almost_prime_census(seq, 2) == 1  # 1365; negative values and 0 never count
    assert almost_prime_census(seq, 5) == 0


def test_values_are_int64_in_their_window_and_python_ints_outside():
    # t^2 - 4 lies in [-4, 2^63), where value // p * p cannot overflow int64,
    # while t <= isqrt(2^63 + 3) = 3037000499
    top = 3037000499
    for dtype in (np.int64, object):
        seq = SiftingSequence(np.array([0, 1, 2, 2**31, top], dtype=dtype), np.array([1] * 4 + [2]))
        assert seq.trace.dtype == seq.value.dtype == seq.mult.dtype == np.int64
        assert seq.values == ((-4, 1), (-3, 1), (0, 1), (2**62 - 4, 1), (top * top - 4, 2))
    for traces in (np.array([top + 1]), np.array([3, 2**70])):
        seq = SiftingSequence(traces, np.array([1] * len(traces)))
        assert seq.trace.dtype == seq.value.dtype == object
        assert seq.values == tuple((t * t - 4, 1) for t in traces.tolist())


@pytest.mark.parametrize("traces", [[-3, 5], [5, 3], [3, 3]])
def test_sifting_sequence_refuses_traces_not_distinct_ascending_and_nonnegative(traces):
    with pytest.raises(ValueError, match="^traces must be distinct, ascending and >= 0$"):
        SiftingSequence(np.array(traces), np.array([1, 1]))


# nonnegative traces, some past the int64 window of t^2 - 4
@given(st.dictionaries(st.one_of(st.integers(0, 60), st.integers(0, 2**40)),
                       st.integers(1, 5), min_size=1, max_size=30))
@settings(max_examples=80)
def test_from_traces_of_either_sign_is_the_counter_of_their_values(tally):
    traces = sorted(tally)
    seq = SiftingSequence(np.array(traces), np.array([tally[t] for t in traces]))
    expected = Counter()
    for t, m in tally.items():
        expected[t * t - 4] += m
    assert seq.values == tuple(sorted(expected.items()))
    assert seq.source_size == sum(tally.values()) and seq.mult.dtype == np.int64


def test_from_traces_leaves_the_callers_arrays_writable():
    traces, mult = np.array([3, 4]), np.array([2, 5])
    seq = SiftingSequence(traces, mult)
    traces[0], mult[0] = 7, 9  # no error
    assert seq.values == ((5, 9), (12, 5))  # mult is shared as a read-only view
    with pytest.raises(ValueError, match="read-only"):
        seq.mult[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        seq.trace[0] = 0


def test_sifting_sequences_compare_and_hash_by_content():
    a = _tallied([3, 4, 3])
    b = SiftingSequence(np.array([3, 4]), np.array([2, 1]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != _tallied([3, 4, 4]) and a != _tallied([3, 5, 3])
    assert a != a.values
    with pytest.raises(ValueError, match="read-only"):
        a.value[0] = 0


# traces k m +- 2, whose t^2 - 4 = k m (k m +- 4) has the primes of m, around
# and past 3037000499, the largest trace whose value is int64
_wide_traces = st.lists(
    st.builds(
        lambda k, m, shift: max(k * m + shift, 0),
        st.one_of(st.integers(0, 50), st.integers(2**12, 2**33), st.integers(2**31, 2**100)),
        st.sampled_from([1, 6, 30, 210, 2310, 30030, 510510]),
        st.sampled_from([2, -2]),
    ),
    min_size=1,
    max_size=30,
)


@given(_wide_traces, st.integers(2, 400))
@settings(max_examples=80)
def test_ledger_A_q_and_census_equal_the_oracles_at_the_int64_edges(traces, cutoff):
    seq = _tallied(traces)
    assert remainder_profile(seq, cutoff) == _remainder_profile_by_scan(seq, cutoff)
    for q in (1, 6, 30, 2310, cutoff if is_squarefree(cutoff) else 1):
        assert A_q(seq, q) == sum(m for v, m in seq.values if v % q == 0)
    assert almost_prime_census(seq, cutoff) == _almost_prime_census_by_trial(seq, cutoff)
