import tracemalloc
from fractions import Fraction
from itertools import product
from math import log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinsieve import dimension
from thinsieve.dimension import (
    asymptote,
    cylinder_length,
    distortion_constant,
    estimate,
    pressure_sum,
)
from thinsieve.errors import CapExceededError, InternalInvariantError


# ---------------------------------------------------------------------------
# exact-bisection oracle: every sign from the full pressure sum, over lengths
# built with np.repeat / np.tile, as estimate computed them before its signs
# were certified from binned bounds

def _oracle_lengths(alphabet, depth):
    digits = np.arange(1, alphabet + 1, dtype=np.int64)
    q = digits.copy()
    q_prev = np.ones(alphabet, dtype=np.int64)
    for _ in range(depth - 1):
        n = q.shape[0]
        q_rep = np.repeat(q, alphabet)
        qp_rep = np.repeat(q_prev, alphabet)
        dig = np.tile(digits, n)
        q, q_prev = dig * q_rep + qp_rep, q_rep
    return 1.0 / (q.astype(np.float64) * (q + q_prev).astype(np.float64))


def _oracle_root(alphabet, depth, sign, tol):
    log_c = log(distortion_constant(alphabet))
    lengths = _oracle_lengths(alphabet, depth)

    def g(s):
        return log(float(np.power(lengths, s).sum())) - sign * s * log_c

    lo, hi = 0.0, 1.0
    g_lo = g(lo)
    if g_lo == 0.0:
        return 0.0
    if g_lo < 0.0:
        raise InternalInvariantError("pressure not bracketed at s = 0")
    if g(hi) >= 0.0:
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_estimate(alphabet, depth, tol):
    lower, upper = 0.0, 1.0
    for k in [depth] if depth <= 1 else [depth - 1, depth]:
        lower = max(lower, _oracle_root(alphabet, k, +1, tol))
        upper = min(upper, _oracle_root(alphabet, k, -1, tol))
    return min(lower, upper), min(upper, 1.0)


@st.composite
def _cases(draw):
    alphabet = draw(st.integers(1, 8))
    top = 30 if alphabet == 1 else int(log(2e5) / log(alphabet))
    depth = draw(st.integers(1, top))
    tol = draw(st.floats(1e-6, 1e-2))
    return alphabet, depth, tol


@settings(max_examples=40)
@given(_cases())
def test_estimate_equals_the_exact_bisection(case):
    est = estimate(*case)
    assert (est.lower, est.upper) == _oracle_estimate(*case)


@settings(max_examples=60)
@given(_cases(), st.floats(0.0, 1.0), st.sampled_from([1, 7, 4096]))
def test_binned_bounds_enclose_the_full_sum(case, s, bins):
    alphabet, depth, _ = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dimension, "BINS", bins)
        for level in dimension._cylinder_lengths(alphabet, depth):
            low, high = level.log_bounds(s)
            full = dimension._log_sum(level, s)
            assert low - dimension.MARGIN <= full <= high + dimension.MARGIN


@pytest.mark.parametrize("constant, value", [("BINS", 1), ("MARGIN", float("inf"))],
                         ids=["one-bin", "every-sign-in-full"])
@pytest.mark.parametrize("alphabet, depth, tol", [
    (2, 12, 1e-6), (3, 9, 1e-6), (5, 6, 3e-4), (8, 5, 1e-2), (1, 7, 1e-6), (20, 3, 1e-6),
])
def test_fallback_equals_the_exact_bisection(monkeypatch, constant, value, alphabet, depth, tol):
    monkeypatch.setattr(dimension, constant, value)
    est = estimate(alphabet, depth, tol)
    assert (est.lower, est.upper) == _oracle_estimate(alphabet, depth, tol)


def test_certified_signs_leave_few_full_sums(monkeypatch):
    full, builds = [], []
    log_sum, lengths = dimension._log_sum, dimension._cylinder_lengths
    monkeypatch.setattr(dimension, "_log_sum", lambda v, s: full.append(s) or log_sum(v, s))
    monkeypatch.setattr(dimension, "_cylinder_lengths",
                        lambda a, k: builds.append((a, k)) or lengths(a, k))
    est = estimate(3, 13)
    assert builds == [(3, 13)]  # one build gives both depths
    assert 0.0 not in full and 1.0 not in full  # S(0) = 3^k, and s = 1 is certified from the bins
    assert len(full) <= 3  # of 80 bisection midpoints
    assert (est.lower, est.upper) == (0.686495304107666, 0.7307906150817871)


# ---------------------------------------------------------------------------
# the lengths each level forms, against the oracle's whole array

def _level_depths(depth):
    return [depth] if depth == 1 else [depth - 1, depth]


def _joined(level, cuts):
    """level.lengths over the consecutive ranges between the sorted cuts."""
    edges = [0, *sorted(cuts), level.n]
    return np.concatenate([level.lengths(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi])


@settings(max_examples=60)
@given(_cases(), st.lists(st.floats(0.0, 1.0), max_size=8))
def test_level_lengths_equal_the_oracle(case, cuts):
    alphabet, depth, _ = case
    for k, level in zip(_level_depths(depth), dimension._cylinder_lengths(alphabet, depth)):
        oracle = _oracle_lengths(alphabet, k)
        assert level.n == len(oracle)
        assert np.array_equal(_joined(level, [int(c * level.n) for c in cuts]), oracle)
        # the all-1 word is the longest and the all-A word the shortest
        assert level.lengths(0, 1)[0] == oracle.max()
        assert level.lengths(level.n - 1, level.n)[0] == oracle.min()


@pytest.mark.parametrize("alphabet, depth",
                         [(2, 14), (3, 13), (5, 7), (70, 3), (1000, 2), (40000, 1)])
def test_level_lengths_across_prefixes(alphabet, depth):
    # ranges that start and end inside a prefix's words, span several prefixes
    # or lie in one, and ranges wider than LEAF words; at (1000, 2) and
    # (40000, 1) each prefix has a digit per word, 1000 and 40000 of them
    for k, level in zip(_level_depths(depth), dimension._cylinder_lengths(alphabet, depth)):
        oracle = _oracle_lengths(alphabet, k)
        span = level.span
        cuts = {c for m in range(1, 4) for c in (m * span - 1, m * span + 1, m * span + span // 2)}
        cuts |= {5 * span + 3, 5 * span + 3 + dimension.LEAF + 5, level.n - span - 2}
        assert np.array_equal(_joined(level, [c for c in cuts if 0 < c < level.n]), oracle)
        leaves = range(dimension.LEAF, level.n, dimension.LEAF)
        assert np.array_equal(_joined(level, leaves), oracle)


def test_alphabet_one_lengths_at_every_depth():
    # float64 continuants are exact while below 2^53 (to depth 76), and the
    # length is 1.0 / (q * r) in floats, as the oracle's; past that it is the
    # correctly rounded 1 / (q r) of Python ints
    for depth in range(1, 92):
        (length,) = dimension._cylinder_lengths(1, depth)[-1].lengths(0, 1)
        if depth <= 76:
            assert length == _oracle_lengths(1, depth)[0]
        else:
            assert length == float(cylinder_length((1,) * depth))


def test_cylinder_length_examples():
    assert cylinder_length((1,)) == Fraction(1, 2)
    assert cylinder_length((2,)) == Fraction(1, 6)
    assert cylinder_length((1, 1)) == Fraction(1, 6)


def test_cylinder_lengths_tile_depth_one():
    # depth-1 cylinders of the unrestricted map are (1/(a+1), 1/a)
    for a in range(1, 10):
        assert cylinder_length((a,)) == Fraction(1, a) - Fraction(1, a + 1)


def test_pressure_sum_examples():
    assert pressure_sum(1, 3, 0.0) == pytest.approx(1.0)
    assert pressure_sum(2, 1, 1.0) == pytest.approx(1 / 2 + 1 / 6)
    assert pressure_sum(2, 1, 0.0) == pytest.approx(2.0)


def test_pressure_sum_decreasing_in_s():
    values = [pressure_sum(3, 5, s) for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_pressure_cap():
    with pytest.raises(CapExceededError):
        pressure_sum(10, 9, 0.5)


def test_distortion_bound_exhaustive():
    # |I_uv| within a factor C(A) of |I_u| |I_v|, and within the cruder 4
    c = distortion_constant(3)
    words = [w for L in (1, 2, 3, 4) for w in product((1, 2, 3), repeat=L)]
    for u in words:
        lu = cylinder_length(u)
        for v in words:
            ratio = cylinder_length(u + v) / (lu * cylinder_length(v))
            assert Fraction(1, 4) <= ratio <= 4
            assert 1 / c - 1e-12 <= float(ratio) <= c + 1e-12


def test_alphabet_one_collapses_to_zero():
    for depth in (4, 8, 92, 2000):
        est = estimate(1, depth)
        assert est.lower == est.upper == 0.0


@pytest.mark.parametrize("depth", (90, 91, 92, 100, 300))
def test_alphabet_one_lengths_past_int64(depth):
    # the all-ones continuants pass 2^62 at depth 88 and wrap int64 at 92
    exact = float(cylinder_length((1,) * depth)) ** 0.5
    assert pressure_sum(1, depth, 0.5) == pytest.approx(exact, rel=1e-12)


def test_alphabet_one_lengths_underflow_to_zero():
    assert float(cylinder_length((1,) * 800)) == 0.0
    assert pressure_sum(1, 800, 1.0) == 0.0
    assert pressure_sum(1, 800, 0.0) == 1.0


def test_depth_caps_take_no_huge_power():
    with pytest.raises(CapExceededError, match="depth"):
        pressure_sum(1, dimension.MAX_DEPTH + 1, 0.5)
    with pytest.raises(CapExceededError, match="budget"):
        pressure_sum(10**6, dimension.MAX_DEPTH, 0.5)  # (10^6)^MAX_DEPTH is never formed


def test_bracket_depth_14_contains_literature_value():
    est = estimate(2, 14)
    assert est.lower <= 0.5313 - 0.002
    assert 0.5313 + 0.002 <= est.upper


def test_brackets_shrink_and_nest_for_deeper_runs():
    est14 = estimate(2, 14)
    est20 = estimate(2, 20)
    assert est20.width < est14.width
    assert est14.lower <= est20.lower <= est20.upper <= est14.upper
    assert est20.lower <= 0.53128 <= est20.upper


def test_delta2_bracket_tightness():
    for depth in (10, 12, 14):
        est = estimate(2, depth)
        assert 0.50 < est.lower and est.upper < 0.56


def test_bracket_widths_decrease_with_depth():
    widths = [estimate(2, k).width for k in (6, 10, 14)]
    assert widths[0] > widths[1] > widths[2]


def test_monotone_in_alphabet():
    # delta is non-decreasing in the alphabet: bracket_A never sits strictly
    # above bracket_{A+1} at matched depth
    depth = 6
    brackets = [estimate(a, depth) for a in (2, 3, 4, 5, 6)]
    for lo_a, hi_next in zip(brackets, brackets[1:]):
        assert lo_a.lower <= hi_next.upper


def test_large_alphabet_asymptote():
    for alphabet, depth in ((20, 5), (50, 3)):
        est = estimate(alphabet, depth)
        target = asymptote(alphabet)
        assert est.lower - 0.02 <= target <= est.upper + 0.02


def test_tolerance_contract():
    for tol in (1e-9, 0.0, -1e-3, 0.5, 2e-2, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            estimate(2, 8, tol=tol)


def test_tolerance_bounds_are_accepted():
    fine, coarse = estimate(2, 8, tol=1e-6), estimate(2, 8, tol=1e-2)
    # each end is a bisection midpoint within tol / 2 of the same pressure root
    assert abs(fine.lower - coarse.lower) <= (1e-6 + 1e-2) / 2
    assert abs(fine.upper - coarse.upper) <= (1e-6 + 1e-2) / 2


@pytest.mark.parametrize("fn, arg, message", [
    (cylinder_length, (), "cylinder of the empty word"),
    (distortion_constant, 0, "alphabet bound must be >= 1"),
], ids=["cylinder-empty-word", "distortion-alphabet-0"])
def test_cylinders_and_distortion_reject_empty_input(fn, arg, message):
    with pytest.raises(ValueError, match=message):
        fn(arg)


@pytest.mark.parametrize("args", [(0, 3, 0.5), (-1, 3, 0.5), (2, 0, 0.5), (2, 3, float("nan")),
                                  (2, 3, float("inf")), (2, 3, float("-inf"))])
def test_pressure_sum_rejects_bad_inputs(args):
    with pytest.raises(ValueError):
        pressure_sum(*args)


# estimate holds no level of lengths: each is formed at most LEAF at a time
# from the held prefix and suffix pairs, so the traced peak is 1.3-1.6 MiB at
# every size (it was 16.4 MiB at (3, 13) and 37.6 MiB at (4, 11), where one
# whole level was held); (1000, 2) and (10^6, 1) step one prefix by its digits
@pytest.mark.parametrize("alphabet, depth", [(3, 13), (4, 11), (1000, 2), (10**6, 1)])
def test_estimate_holds_no_full_length_temporaries(alphabet, depth):
    tracemalloc.start()
    try:
        estimate(alphabet, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize("lower, upper", [(0.6, 0.5), (-0.1, 0.5), (0.5, 1.1), (float("nan"), 0.5)])
def test_a_bracket_out_of_order_is_a_bug(lower, upper):
    with pytest.raises(InternalInvariantError, match="out of order"):
        dimension.DimensionEstimate(2, 3, lower, upper)


def test_depth_brackets_that_cross_are_a_bug(monkeypatch):
    # every lower root at 0.9 and every upper root at 0.1: the brackets cross
    monkeypatch.setattr(dimension, "_root", lambda level, sign, *_: 0.9 if sign > 0 else 0.1)
    with pytest.raises(InternalInvariantError, match="inconsistent"):
        estimate(2, 4)
