from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from math import floor, inf, isqrt, nextafter, prod, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thinsieve.arith as arith
import thinsieve.modular as modular
import thinsieve.semigroup as semigroup
from thinsieve.arith import divisors
from thinsieve.cf import IDENTITY, Mat2, word_from_matrix, word_to_matrix
from thinsieve.dimension import estimate
from thinsieve.errors import CapExceededError, InternalInvariantError
from thinsieve.semigroup import (
    SemigroupElement,
    aleph_construct,
    aleph_error,
    ball_count,
    ball_traces,
    build_fixed_length_ball,
    build_pi,
    cyclic_classes,
    enumerate_ball,
    hensley_exponent,
    iter_ball,
    trace_fiber,
    trace_histogram,
    trace_multiplicity,
    trace_multiplicity_by_divisors,
)

GRID = [1e3, 10**3.5, 1e4, 10**4.5, 1e5]


def naive_bfs_even_words(alphabet, norm):
    """Layer-by-layer enumeration with no pruning (oracle)."""
    cap = floor(Fraction(norm) ** 2)
    out = []
    frontier = [((), (1, 0, 0, 1))]
    while frontier:
        nxt = []
        for w, (a, b, c, d) in frontier:
            for g in range(1, alphabet + 1):
                nxt.append((w + (g,), (g * a + b, a, g * c + d, c)))
        for w, m in nxt:
            if len(w) % 2 == 0 and sum(x * x for x in m) <= cap:
                out.append(w)
        if min(sum(x * x for x in m) for _, m in nxt) > cap:
            break
        frontier = nxt
    return sorted(out)


def ball_oracle(alphabet, norm, parity="even"):
    """Recursive norm-pruned walk (oracle): the closed ball's words in
    lexicographic order, each word before its extensions."""
    cap, want_even, out = floor(Fraction(norm) ** 2), parity == "even", []

    def walk(word, a, b, c, d):
        for g in range(1, alphabet + 1):
            na, nb, nc, nd = g * a + b, a, g * c + d, c
            if na * na + nb * nb + nc * nc + nd * nd > cap:
                break  # larger digits only grow the norm
            w = word + (g,)
            if not want_even or len(w) % 2 == 0:
                out.append(SemigroupElement(w, Mat2(na, nb, nc, nd)))
            walk(w, na, nb, nc, nd)

    walk((), 1, 0, 0, 1)
    return out


def trace_fiber_oracle(alphabet, t):
    """Recursive trace-pruned search (oracle): the trace-t fiber in lexicographic
    order, and the number of nodes visited, the root included."""
    out = []
    visited = 0

    def walk(word, a, b, c, d):
        nonlocal visited
        visited += 1
        child_even = len(word) % 2 == 1
        for g in range(1, alphabet + 1):
            na, nb = g * a + b, a
            nc, nd = g * c + d, c
            if child_even:
                tr = na + nd
                if tr > t:
                    break
                if tr == t:
                    out.append(SemigroupElement(word + (g,), Mat2(na, nb, nc, nd)))
                if 2 * na + nb + nc + nd <= t:
                    walk(word + (g,), na, nb, nc, nd)
            else:
                if na + nb + nc > t:
                    break
                walk(word + (g,), na, nb, nc, nd)

    walk((), 1, 0, 0, 1)
    return sorted(out, key=lambda e: e.word), visited


def test_ball_examples():
    assert [e.word for e in enumerate_ball(2, 3)] == [(1, 1)]
    # alphabet 1: powers of [[1,1],[1,0]]^2 with Fibonacci entries
    fibs = [e.matrix.entries() for e in enumerate_ball(1, 100)]
    assert fibs == [(2, 1, 1, 1), (5, 3, 3, 2), (13, 8, 8, 5), (34, 21, 21, 13)]


def test_radius_is_squared_exactly():
    # 2.4^2 = 5.76 rounds to 6, the norm^2 of (2,); 216.485...^2 = 46865.85 rounds
    # to 46866, which two words of alphabet 3 reach
    assert [e.word for e in enumerate_ball(3, 2.4, "any")] == [(1,)]
    assert ball_count(3, 216.48521879729068, "any") == 1880
    assert len(ball_oracle(3, 216.48521879729068, "any")) == 1880
    assert [semigroup._norm_sq_cap(r, strict) for r in (2.4, 3) for strict in (False, True)] == [
        5, 5, 9, 8]


def test_ball_matches_counts():
    for alphabet in (1, 2, 3):
        for norm in (10, 50, 200):
            assert ball_count(alphabet, norm) == sum(1 for _ in enumerate_ball(alphabet, norm))
            assert ball_count(alphabet, norm, "any") == sum(
                1 for _ in enumerate_ball(alphabet, norm, "any")
            )


def test_pruned_enumeration_equals_naive_oracle():
    for alphabet in (1, 2, 3):
        for norm in (10, 25, 50):
            mine = sorted(e.word for e in enumerate_ball(alphabet, norm))
            assert mine == naive_bfs_even_words(alphabet, norm)


def test_element_cap(monkeypatch):
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", 10)
    with pytest.raises(CapExceededError):
        list(iter_ball(2, 10**8, "even"))


@pytest.mark.parametrize("parity", ["even", "any"])
def test_iter_ball_counts_its_ball_before_it_emits(monkeypatch, parity):
    total = ball_count(3, 200, parity)
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", total)
    assert sum(1 for _ in enumerate_ball(3, 200, parity)) == total
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", total - 1)
    walk = enumerate_ball(3, 200, parity)
    with pytest.raises(CapExceededError):
        next(walk)  # the first element is never built


def test_a_ball_over_the_cap_fails_before_its_rows_are_held(monkeypatch):
    def held(*args):
        raise AssertionError("the rows of a ball over the cap were read")

    monkeypatch.setattr(semigroup, "_words", held)
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", ball_count(3, 200, "any") - 1)
    with pytest.raises(CapExceededError):
        list(enumerate_ball(3, 200, "any"))
    with pytest.raises(CapExceededError):
        build_fixed_length_ball(3, 10**4)


@pytest.mark.parametrize("alphabet, parity", [(0, "even"), (-1, "any"), (2, "odd"), (2, "")])
def test_ball_walks_reject_a_bad_alphabet_or_parity(alphabet, parity):
    with pytest.raises(ValueError):
        list(iter_ball(alphabet, 100, parity))
    with pytest.raises(ValueError):
        ball_count(alphabet, 10, parity)


@pytest.mark.parametrize("norm", [-5.0, -1e-9, float("nan"), float("inf"), float("-inf"), 1e200])
def test_ball_walks_reject_a_negative_or_non_finite_norm(norm):
    # a negative norm once read as its absolute value: ball_count(2, -5.0) gave 3
    with pytest.raises(ValueError, match="norm"):
        ball_count(2, norm)
    with pytest.raises(ValueError, match="norm"):
        enumerate_ball(2, norm)
    with pytest.raises(ValueError, match="norm"):
        hensley_exponent(2, [norm, 10, 30, 100])


@given(st.integers(1, 5), st.floats(1, 300))
@settings(max_examples=80)
def test_block_ball_walks_equal_iter_ball(alphabet, norm):
    words = list(enumerate_ball(alphabet, norm, "any"))
    even = [e for e in words if len(e.word) % 2 == 0]
    assert ball_count(alphabet, norm, "any") == len(words)
    assert ball_count(alphabet, norm) == len(even)
    traces, mult = ball_traces(alphabet, norm)
    tally = sorted(Counter(e.trace for e in even).items())
    assert list(zip(traces.tolist(), mult.tolist())) == tally


@given(st.integers(1, 8), st.floats(1, 300), st.sampled_from(["even", "any"]))
@settings(max_examples=80)
def test_block_built_ball_equals_the_recursive_oracle(alphabet, norm, parity):
    assert list(enumerate_ball(alphabet, norm, parity)) == ball_oracle(alphabet, norm, parity)


# alphabet 1 at 1e30 runs the walk on Python ints; alphabet 200 has digits
# above 127; at alphabet 255 the word (255, 1) peels to the last quotient 256,
# one past a byte, before the determinant splits it
@pytest.mark.parametrize("alphabet, norm", [(1, 1e30), (200, 250), (255, 362)])
@pytest.mark.parametrize("parity", ["even", "any"])
def test_block_built_ball_equals_the_oracle_at_the_edges(alphabet, norm, parity):
    assert list(enumerate_ball(alphabet, norm, parity)) == ball_oracle(alphabet, norm, parity)


# blocks of 1, 2 and 7 children put every partial block, spent frame, empty
# keep and empty descend through the walk's index of kept and descended rows
@pytest.mark.parametrize("block", [1, 2, 7])
def test_walks_at_tiny_blocks_equal_the_oracles(monkeypatch, block):
    monkeypatch.setattr(semigroup, "_BLOCK", block)
    for parity in ("even", "any"):
        for alphabet, norm in [(1, 1e30), (2, 60), (3, 40), (4, 30), (5, 30)]:
            assert list(enumerate_ball(alphabet, norm, parity)) == ball_oracle(alphabet, norm, parity)
    # every t <= 200 is counted in one walk; the fibers are walked at every
    # t, every 5th or every 19th (alphabet 10's take about 60 ms each at a block of 1)
    for alphabet, step in [(1, 1), (2, 5), (10, 19)]:
        fibers = [trace_fiber_oracle(alphabet, t)[0] for t in range(3, 201)]
        assert trace_histogram(alphabet, 200).tolist() == [0, 0, 0] + [len(f) for f in fibers]
        for t in [*range(3, 201, step), 200]:
            assert list(trace_fiber(alphabet, t)) == fibers[t - 3], (alphabet, t)


def test_ball_trace_cap_counts_even_words(monkeypatch):
    total = ball_count(3, 200)
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", total)
    assert ball_traces(3, 200)[1].sum() == total
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", total - 1)
    with pytest.raises(CapExceededError):
        ball_traces(3, 200)


def _counted_shards(monkeypatch) -> list[int]:
    """Patch semigroup._shards to record the length of each shard it yields."""
    shards, lengths = semigroup._shards, []

    def counted(blocks):
        for shard in shards(blocks):
            lengths.append(len(shard))
            yield shard

    monkeypatch.setattr(semigroup, "_shards", counted)
    return lengths


# a small _SHARD joins a few walk blocks per shard (at 1, one block), so the
# tally merges the counts of several shards
@pytest.mark.parametrize("shard", [1, 1000])
@pytest.mark.parametrize("alphabet, norm", [(2, 3000), (3, 1000), (5, 700)])
def test_ball_traces_merge_their_shards(monkeypatch, shard, alphabet, norm):
    monkeypatch.setattr(semigroup, "_SHARD", shard)
    lengths = _counted_shards(monkeypatch)
    traces, mult = ball_traces(alphabet, norm)
    tally = Counter(e.trace for e in iter_ball(alphabet, round(norm * norm)))
    assert list(zip(traces.tolist(), mult.tolist())) == sorted(tally.items())
    assert len(lengths) > 1 and sum(lengths) == sum(tally.values())
    assert all(n >= shard for n in lengths[:-1])


# alphabet 1 has six words of trace <= 400, so only one-block shards split them
@pytest.mark.parametrize("alphabet, shard", [(1, 1), (2, 1), (2, 50), (3, 50), (10, 50)])
def test_trace_histogram_merges_its_shards(monkeypatch, alphabet, shard):
    monkeypatch.setattr(semigroup, "_SHARD", shard)
    lengths = _counted_shards(monkeypatch)
    counts = trace_histogram(alphabet, 400).tolist()
    assert counts == [0, 0, 0] + [trace_multiplicity(alphabet, t) for t in range(3, 401)]
    assert len(lengths) > 1 and sum(lengths) == sum(counts)
    assert all(n >= shard for n in lengths[:-1])


@pytest.mark.parametrize("norm", [20_000, 21_000])
def test_block_walks_are_exact_on_both_sides_of_int32(norm):
    # 5 x norm^2 crosses 2^31 between these norms, where entries move to int64
    assert (5 * norm * norm < semigroup._INT32_SAFE) == (norm == 20_000)
    even = [e.trace for e in enumerate_ball(2, norm)]
    assert ball_count(2, norm) == len(even)
    assert ball_count(2, norm, "any") == sum(1 for _ in enumerate_ball(2, norm, "any"))
    traces, mult = ball_traces(2, norm)
    assert list(zip(traces.tolist(), mult.tolist())) == sorted(Counter(even).items())
    # one Hensley walk at this norm also buckets a norm on the int32 side
    grid = (1e3, 1e4, 19_000, norm)
    assert hensley_exponent(2, grid).counts == tuple((n, ball_count(2, n)) for n in grid)
    # alphabet-1 fibers at the Lucas traces of (1, 1)^20 and (1, 1)^25, on either side
    for k in (20, 25):
        t = word_to_matrix((1, 1) * k).trace
        assert list(trace_fiber(1, t)) == trace_fiber_oracle(1, t)[0]


def test_block_walks_are_exact_past_int64():
    # alphabet 1 at norm 4e9: squared entries pass 2^63, so the walk runs on Python ints
    norm = 4e9
    assert 5 * round(norm * norm) >= semigroup._INT64_SAFE
    for parity in ("even", "any"):
        assert ball_count(1, norm, parity) == sum(1 for _ in enumerate_ball(1, norm, parity))
    traces, mult = ball_traces(1, norm)
    assert traces.tolist() == [e.trace for e in enumerate_ball(1, norm)]
    assert mult.tolist() == [1] * len(traces)
    # the only alphabet-1 word of trace L_90 (a Lucas number near 5.4e18) is (1, 1)^45
    t = word_to_matrix((1, 1) * 45).trace
    assert 5 * t >= semigroup._INT64_SAFE
    assert list(trace_fiber(1, t)) == trace_fiber_oracle(1, t)[0]


@given(st.lists(st.integers(1, 5), min_size=0, max_size=8).map(tuple))
def test_norm_strictly_grows(w):
    m = word_to_matrix(w) if w else IDENTITY
    for g in (1, 2, 3, 4, 5):
        assert (m * Mat2(g, 1, 1, 0)).norm_sq > m.norm_sq


@given(st.integers(1, 4), st.lists(st.floats(2, 3000), min_size=4, max_size=8, unique=True))
@settings(max_examples=40)
def test_hensley_counts_equal_ball_count(alphabet, norms):
    expected = tuple((n, ball_count(alphabet, n)) for n in sorted(norms))
    if expected[0][1] == 0:
        with pytest.raises(ValueError, match="empty ball"):
            hensley_exponent(alphabet, norms)
    else:
        assert hensley_exponent(alphabet, norms).counts == expected


def test_hensley_counts_the_words_on_each_rim():
    # grid norms exactly at words' norms: a word on a ball's rim is in that ball
    grid = sorted({e.norm_sq ** 0.5 for e in enumerate_ball(3, 60)})[::9]
    assert len(grid) >= 4
    assert hensley_exponent(3, grid).counts == tuple((n, ball_count(3, n)) for n in grid)


def test_hensley_exponent_alphabet_2():
    fit = hensley_exponent(2, GRID)
    assert abs(fit.slope - 2 * 0.5313) < 0.05


def test_hensley_exponent_alphabet_1_flat():
    fit = hensley_exponent(1, GRID)
    assert fit.slope < 0.2  # logarithmic growth


def test_hensley_exponent_alphabet_3():
    fit = hensley_exponent(3, GRID)
    est = estimate(3, 12)
    assert abs(fit.slope - 2 * est.midpoint) < 0.05


def test_ball_elements_carry_their_word_matrix():
    for e in enumerate_ball(3, 20, "any"):
        assert e.matrix == word_to_matrix(e.word)
        assert e.matrix.det == (-1) ** len(e.word)
        assert min(e.matrix.entries()) >= 0


def test_hensley_degenerate_grid():
    with pytest.raises(ValueError, match="degenerate"):
        hensley_exponent(2, [10, 100, 1000])
    with pytest.raises(ValueError, match="degenerate"):
        hensley_exponent(2, [10, 10, 10, 10])


# --- trace fibers -------------------------------------------------------------


def test_trace_multiplicity_examples():
    assert trace_multiplicity(1, 3) == 1
    assert [e.word for e in trace_fiber(1, 3)] == [(1, 1)]
    assert trace_multiplicity(2, 37) == 6
    assert trace_multiplicity(35, 37) == 14
    # the four D=1365 rotation classes contribute 2 + 2 + 4 + 6 words
    assert trace_multiplicity(11, 37) == 12  # (5,7) also fits below 11


def test_divisor_count_starts_at_trace_3():
    for t in (2, 0, -5):
        with pytest.raises(ValueError, match="start at t = 3"):
            trace_multiplicity_by_divisors(2, t)


def test_trace_fiber_agrees_with_divisor_method():
    for alphabet, t in [(1, 3), (2, 37), (11, 37), (35, 37), (3, 18), (2, 100), (10, 123)]:
        assert trace_multiplicity(alphabet, t) == trace_multiplicity_by_divisors(alphabet, t)


def test_trace_fiber_equals_the_recursive_oracle():
    for alphabet in (1, 2, 3, 10, 35):
        for t in range(3, 201):
            fiber = trace_fiber_oracle(alphabet, t)[0]
            assert list(trace_fiber(alphabet, t)) == fiber, (alphabet, t)


@given(st.integers(1, 12), st.integers(3, 600))
@settings(max_examples=60)
def test_trace_fiber_node_cap_counts_visited_nodes(alphabet, t):
    fiber, visited = trace_fiber_oracle(alphabet, t)
    with mock.patch.object(semigroup, "DEFAULT_MAX_NODES", visited):
        assert list(trace_fiber(alphabet, t)) == fiber
    with mock.patch.object(semigroup, "DEFAULT_MAX_NODES", visited - 1):
        with pytest.raises(CapExceededError, match="exceeds cap"):
            trace_fiber(alphabet, t)


@pytest.mark.parametrize("alphabet", [0, -3])
def test_trace_walks_check_the_alphabet(alphabet):
    for walk in (trace_fiber, trace_histogram, cyclic_classes):
        with pytest.raises(ValueError, match="alphabet"):
            walk(alphabet, 6)


def test_count_only_walks_stop_at_the_node_cap(monkeypatch):
    # the alphabet-3 ball at norm 100 has 632 nodes, the root included
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_NODES", 600)
    with pytest.raises(CapExceededError, match="exceeds cap 600"):
        ball_count(3, 100)
    with pytest.raises(CapExceededError, match="exceeds cap 600"):
        hensley_exponent(3, [10, 30, 60, 100])


@pytest.mark.parametrize("alphabet", [2, 3, 10])
def test_trace_histogram_equals_the_divisor_count(alphabet):
    counts = trace_histogram(alphabet, 300).tolist()
    assert counts[:3] == [0, 0, 0]
    assert counts[3:] == [trace_multiplicity_by_divisors(alphabet, t) for t in range(3, 301)]


def unpruned_divisor_words(t):
    """Every even word of trace t, from every a + d = t and every divisor pair
    of bc = ad - 1, each peeled (the divisor count's oracle, before its pruning
    by entry order)."""
    words = []
    for a in range(1, t):
        m = a * (t - a) - 1
        if m < 1:
            continue
        for b in divisors(m):
            w = word_from_matrix(Mat2(a, b, m // b, t - a))
            if w is not None and len(w) % 2 == 0 and w:
                words.append(w)
    return words


def test_divisor_count_equals_the_unpruned_count():
    # pruning only drops candidates, so equal counts at alphabet t, where every
    # word of the fiber counts, mean equal word sets, and so equal counts at all
    for t in range(3, 301):
        largest = [max(w) for w in unpruned_divisor_words(t)]
        for alphabet in (2, t):
            want = sum(g <= alphabet for g in largest)
            assert trace_multiplicity_by_divisors(alphabet, t) == want, (alphabet, t)


def test_trace_fiber_words_have_the_trace():
    for e in trace_fiber(3, 30):
        assert e.trace == 30
        assert len(e.word) % 2 == 0
        assert max(e.word) <= 3


def test_trace_multiplicity_monotone_in_alphabet():
    for t in (37, 52, 101):
        values = [trace_multiplicity(a, t) for a in (1, 2, 3, 5, 8, 13)]
        assert all(x <= y for x, y in zip(values, values[1:]))


def test_multiplicity_growth_bound_sampled():
    # desk-scale form of the t^(1+eps) fiber bound
    for alphabet in (2, 10):
        for t in (100, 316, 1000, 3163, 10000):
            assert trace_multiplicity_by_divisors(alphabet, t) <= t**1.3


def test_cyclic_classes_examples():
    assert cyclic_classes(2, 37) == [(1, 1, 1, 2, 1, 2)]
    assert cyclic_classes(35, 37) == [(1, 1, 1, 2, 1, 2), (1, 1, 1, 11), (1, 35), (5, 7)]
    assert cyclic_classes(11, 37) == [(1, 1, 1, 2, 1, 2), (1, 1, 1, 11), (5, 7)]


def test_cyclic_classes_are_canonical_and_partition():
    fiber = {e.word for e in trace_fiber(3, 24)}
    reps = cyclic_classes(3, 24)
    covered = set()
    for rep in reps:
        orbit = {rep[i:] + rep[:i] for i in range(len(rep))}
        assert min(orbit) == rep
        assert orbit <= fiber
        assert not (orbit & covered)
        covered |= orbit
    assert covered == fiber


# --- fixed-length slices, aleph, and the product set ---------------------------


def test_fixed_length_ball_examples():
    s = build_fixed_length_ball(2, 3)
    assert s.wordlength == 2 and [e.word for e in s] == [(1, 1)]
    with pytest.raises(ValueError):
        build_fixed_length_ball(2, 2.5)
    for bound in (1e200, inf):  # open balls check the square as closed ones do
        with pytest.raises(ValueError, match="finite square"):
            build_fixed_length_ball(2, bound)


def test_fixed_length_ball_pigeonhole():
    slice_ = build_fixed_length_ball(2, 1e3)
    open_ball = list(iter_ball(2, round(1e3**2) - 1, "even"))
    lengths = {len(e.word) for e in open_ball}
    assert slice_.wordlength in lengths
    assert len(slice_) >= len(open_ball) // len(lengths)


def test_fixed_length_ball_is_the_open_ball_when_it_holds_one_even_word():
    # norm < 2.9 caps norm^2 at 8, which (1, 1), of norm^2 7, fits
    s = build_fixed_length_ball(2, 2.9)
    assert s.wordlength == 2 and [e.word for e in s] == [(1, 1)]
    with pytest.raises(ValueError, match="holds no even word"):
        build_fixed_length_ball(2, 2.5)  # norm^2 at most 6


@pytest.mark.parametrize("alphabet, bound", [(1, 1e4), (2, 3), (2, 40), (2, 1e3), (3, 300),
                                             (5, 1e2), (7, 60)])
def test_fixed_length_ball_is_the_most_populous_length_of_the_open_ball(alphabet, bound):
    # oracle: every even word of the open ball, tallied by length
    ball = list(iter_ball(alphabet, semigroup._norm_sq_cap(bound, strict=True), "even"))
    tally = Counter(len(e.word) for e in ball)
    best = min(tally, key=lambda n: (-tally[n], n))
    s = build_fixed_length_ball(alphabet, bound)
    assert s.wordlength == best
    assert list(s) == [e for e in ball if len(e.word) == best]


def test_a_slice_reads_only_the_rows_it_keeps(monkeypatch):
    read, rows = semigroup._words, []

    def counted(blocks, top):
        blocks = list(blocks)
        rows.append(sum(len(a) for a, *_ in blocks))
        return read(blocks, top)

    monkeypatch.setattr(semigroup, "_words", counted)
    s = build_fixed_length_ball(2, 1e3)
    assert rows == [len(s)] and len(s) < ball_count(2, 1e3)


# every row selection is one take: a slice, whose arrays are views, a boolean
# mask or an index array, from a ball (alphabet 1 on Python ints), a slice of a
# ball and aleph, each read back as a plain WordRows
@pytest.mark.parametrize("build", [
    lambda: semigroup._ball_words(3, 1000, "any"),
    lambda: semigroup._ball_words(1, 10**40, "any"),
    lambda: build_fixed_length_ball(2, 1e3),
    lambda: aleph_construct(1e6, 2),
], ids=["ball", "ball-python-ints", "slice", "aleph"])
def test_take_is_the_same_selection_of_the_elements(build):
    words = build()
    elements, n = list(words), len(words)
    rng = np.random.default_rng(0)
    index = rng.integers(0, n, 2 * n)  # unsorted, with repeats
    for rows in (slice(3, n // 2), slice(None, None, -3), slice(n, n), rng.random(n) < 0.3,
                 index, index[:0]):
        taken = words.take(rows)
        assert type(taken) is semigroup.WordRows
        assert list(taken) == [elements[i] for i in np.arange(n)[rows]]
        if isinstance(rows, slice) and len(taken):  # views of the rows' arrays
            assert all(np.shares_memory(x, y) for x, y in zip(
                (taken.digits, taken.lengths, *taken.matrix),
                (words.digits, words.lengths, *words.matrix)))


def test_fixed_length_ball_deterministic():
    a = build_fixed_length_ball(5, 1e2)
    b = build_fixed_length_ball(5, 1e2)
    # a slice holds arrays, so it compares by identity: compare its contents
    assert a.wordlength == b.wordlength and list(a) == list(b)


def test_aleph_degenerate_modulus_1():
    aleph = aleph_construct(10.0, 1)
    expected = [e.word for e in iter_ball(2, 99, "even")]
    assert [e.word for e in aleph] == expected


def _aleph_oracle(bound, modulus, pivot_bound, reps):
    """(pilot, base size, elements) of aleph, built element by element: the
    stems, the base ball's elements in the most common residue class mod B (the
    least such class), each times the pilot, the first stem, to the power
    R - 1, then times every residue representative."""
    if modulus == 1:
        ball = list(iter_ball(2, semigroup._norm_sq_cap(bound, strict=True), "even"))
        return None, len(ball), ball
    base = list(iter_ball(2, pivot_bound**2 - 1, "even"))
    residues = [e.matrix.mod(modulus) for e in base]
    tally = Counter(residues)
    top = max(tally.values())
    popular = min(r for r, n in tally.items() if n == top)
    pilot = base[residues.index(popular)]
    R = modular.sl2_order(modulus)
    tail_word, tail_matrix = pilot.word * (R - 1), pilot.matrix ** (R - 1)
    stems = [e for e, r in zip(base, residues) if r == popular]
    return pilot, top, [SemigroupElement(e.word + tail_word + x.word,
                                         e.matrix * tail_matrix * x.matrix)
                        for e in stems for x in reps]


def _error_oracle(elements, q):
    """aleph_error from a per-element Counter of residues mod q."""
    counts = Counter(e.matrix.mod(q) for e in elements)
    order, n = modular.sl2_order(q), len(elements)
    worst = max(abs(Fraction(c, n) - Fraction(1, order)) for c in counts.values())
    return float(max(worst, Fraction(1, order)) if len(counts) < order else worst)


# products past 2^62 (a bound past about 2.1e9) are formed on Python ints
@pytest.mark.parametrize("modulus, bound", [(2, 1e6), (2, 1e12), (2, 1e20), (2, 1e25),
                                            (3, 1e20), (3, 1e30), (1, 10), (1, 1e4)])
def test_aleph_rows_equal_the_element_by_element_construction(modulus, bound):
    aleph = aleph_construct(bound, modulus)
    pilot, base_size, elements = _aleph_oracle(bound, modulus, aleph.pivot_bound,
                                               aleph.residue_reps)
    assert list(aleph) == elements  # in order: stem-major, the reps in residue order
    assert (aleph.pilot, aleph.base_size) == (pilot, base_size)
    if modulus > 1:
        inside = semigroup._norm_sq_cap(bound, strict=True)
        assert aleph.matrix[0].dtype == (np.int64 if inside < 2**62 else object)
    for q in (1, 2, 3, 5):
        assert aleph_error(aleph, q) == _error_oracle(elements, q)


def test_aleph_rejects_a_bound_whose_square_overflows():
    # the pivot search would never end against an infinite target
    for modulus in (1, 2):
        with pytest.raises(ValueError, match="overflows"):
            aleph_construct(1e200, modulus)


def test_aleph_pivot_is_the_largest_fitting_power():
    # oracle: the step-by-step search for the largest u >= 1 whose pivot power fits
    for bound, modulus in ((1e6, 2), (1e8, 2), (1e12, 2), (1e20, 2), (1e30, 3), (1e40, 3)):
        aleph = aleph_construct(bound, modulus)
        xmax_sq = max(e.norm_sq for e in aleph.residue_reps)
        u = 1
        while (u + 1) ** (2 * aleph.group_order) * xmax_sq <= bound * bound:
            u += 1
        assert aleph.pivot_bound == u


def test_aleph_squares_its_bound_exactly():
    # 53^12 * xmax_sq <= b^2 exactly, while the float b * b rounds below it
    bound = 223849074677.97598
    aleph = aleph_construct(bound, 2)
    xmax_sq = max(e.norm_sq for e in aleph.residue_reps)
    assert int(bound * bound) < 53 ** (2 * aleph.group_order) * xmax_sq <= Fraction(bound) ** 2
    assert aleph.pivot_bound == 53
    assert all(e.norm_sq < Fraction(bound) ** 2 for e in aleph)


def test_aleph_huge_bound_reaches_the_ball_cap(monkeypatch):
    # the pivot comes from an integer root, so a huge finite bound meets the cap
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", 10_000)
    with pytest.raises(CapExceededError):
        aleph_construct(1e100, 2)


def test_aleph_construction_audit():
    aleph = aleph_construct(1e6, 2)
    assert aleph.group_order == 6
    assert len(aleph) == 6 * aleph.base_size
    assert all(len(e.word) % 2 == 0 and max(e.word) <= 2 for e in aleph)
    assert all(e.norm_sq < 1e12 for e in aleph)
    # every class of SL2(Z/2) hit equally, so the measured error vanishes
    assert aleph_error(aleph, 2) == 0.0
    assert aleph_error(aleph, 1) == 0.0


def test_aleph_error_equals_the_per_element_counter():
    aleph = aleph_construct(1e6, 2)
    assert aleph_error(aleph, 7) == _error_oracle(list(aleph), 7)
    # just above the least modulus-2 bound, 3^6 sqrt(102) = 7,362.5 (pivot 3, and
    # 102 the representatives' largest squared norm): 6 elements, so most of
    # SL2(Z/5)'s 120 classes are never seen and the least count read is 0
    small = aleph_construct(7363, 2)
    assert len(small) == 6
    assert aleph_error(small, 5) == _error_oracle(list(small), 5)
    # the least class is the worst: 21 of the 24 classes mod 3 are seen in the
    # 26-word ball (least count 0), and all 24 in the 3,434-word one
    for ball in (aleph_construct(30, 1), aleph_construct(3000, 1)):
        counts = Counter(e.matrix.mod(3) for e in ball).values()
        least = min(counts) if len(counts) == 24 else 0
        gap = [abs(Fraction(c, len(ball)) - Fraction(1, 24)) for c in (least, max(counts))]
        assert gap[0] > gap[1]
        assert aleph_error(ball, 3) == _error_oracle(list(ball), 3)
    # 55,106 is square-free and its residues fit one int64 index; 55,109 is the
    # next square-free modulus, and its q^4 passes 2^63
    assert aleph_error(small, 55106) == _error_oracle(list(small), 55106)
    with pytest.raises(ValueError, match="modulus 55109 "):
        aleph_error(small, 55109)


def test_aleph_error_of_no_rows_is_refused():
    with pytest.raises(ValueError, match="empty set"):
        aleph_error(aleph_construct(1e6, 2).take(slice(0)), 2)


def test_an_element_past_the_norm_bound_is_a_bug(monkeypatch):
    # a pivot twice the largest that fits puts products past the bound of 10^6
    monkeypatch.setattr(semigroup, "iroot", lambda n, k: 2 * arith.iroot(n, k))
    with pytest.raises(InternalInvariantError, match="escaped the norm bound"):
        aleph_construct(1e6, 2)


def test_aleph_error_trend_reported():
    # measured, not asserted: the deviation at q = 3 for growing bounds
    values = [aleph_error(aleph_construct(y, 2), 3) for y in (1e6, 1e8)]
    assert all(0 <= v <= 1 for v in values)


def test_aleph_too_small():
    with pytest.raises(ValueError, match="increase"):
        aleph_construct(20.0, 2)  # pivot ball below the smallest even word


def test_aleph_decides_pivot_one_before_covering_sl2(monkeypatch):
    # |SL2(Z/101)| = 1,030,200, so 2^(2R) * 2 exceeds 1000^2 whatever the
    # representatives are: no walk over the group may run to find that out
    def walk(modulus):
        raise AssertionError(f"covered SL2(Z/{modulus}) for a pivot below 3")

    monkeypatch.setattr(semigroup, "_residue_representatives", walk)
    for bound, modulus in ((1000.0, 101), (1.0, 101), (1e6, 1_000_003)):  # R ~ 10^18 at the last
        with pytest.raises(ValueError, match="ball too small; no finite norm bound "
                                             f"reaches modulus {modulus}$"):
            aleph_construct(bound, modulus)
    # the least even word, (1, 1), has norm^2 7, so a pivot of 2 holds no word
    # either; |SL2(Z/7)| = 336 and 7 * 9^336 > 2^1024, so no float bound reaches B = 7
    with pytest.raises(ValueError, match="; no finite norm bound reaches modulus 7$"):
        aleph_construct(1e150, 7)
    # modulus 2 is reachable, so its representatives are walked to name the least bound,
    # 3^6 sqrt(102) rounded up, 102 being their largest squared norm
    monkeypatch.undo()
    with pytest.raises(ValueError,
                       match="; increase the norm bound to 7363.0 for modulus 2$"):
        aleph_construct(20.0, 2)


def _least_square(modulus):
    """9^R * xmax_sq, the integer that floor(b^2) must reach for aleph at modulus B > 1."""
    R = modular.sl2_order(modulus)
    reps = semigroup._residue_representatives(modulus, R)
    return 9**R * max(e.norm_sq for e in reps)


@pytest.mark.parametrize("modulus", [1, 2, 3, 5, 6])
def test_aleph_refusal_names_a_bound_that_builds(modulus):
    with pytest.raises(ValueError, match="ball too small") as refused:
        aleph_construct(2.0, modulus)
    named = float(str(refused.value).split(" to ")[1].split()[0])
    assert len(aleph_construct(named, modulus)) > 0
    if modulus > 1:  # the least integer c with c^2 >= 9^R * xmax_sq, as a float not below it
        need = _least_square(modulus)
        least = isqrt(need) + 1  # need is no square
        assert least**2 >= need > (least - 1) ** 2 and named >= least
        if modulus in (5, 6):  # the nearest float to least is below it: rounded up, not down
            assert float(least) < least and named == nextafter(float(least), inf)


@pytest.mark.parametrize("modulus, below, least", [(1, 2.6457, 2.6458), (2, 7362, 7363)])
def test_aleph_refuses_just_below_its_least_bound(modulus, below, least):
    with pytest.raises(ValueError, match="ball too small") as refused:
        aleph_construct(below, modulus)
    with pytest.raises(ValueError, match="ball too small") as far:
        aleph_construct(2.0, modulus)
    assert str(refused.value) == str(far.value)
    assert len(aleph_construct(least, modulus)) > 0


@pytest.mark.parametrize("modulus", [3, 5, 6])
def test_aleph_refuses_the_float_just_below_the_exact_root(modulus):
    # sqrt(9^R * xmax_sq) exactly: the largest float whose square is below it refuses,
    # the next float up builds
    need = _least_square(modulus)
    under = sqrt(need)
    while Fraction(under) ** 2 >= need:
        under = nextafter(under, 0)
    while Fraction(nextafter(under, inf)) ** 2 < need:
        under = nextafter(under, inf)
    with pytest.raises(ValueError, match="ball too small") as refused:
        aleph_construct(under, modulus)
    with pytest.raises(ValueError, match="ball too small") as far:
        aleph_construct(2.0, modulus)
    assert str(refused.value) == str(far.value)
    aleph = aleph_construct(nextafter(under, inf), modulus)
    assert aleph.pivot_bound == 3 and len(aleph) == aleph.group_order  # one stem, (1, 1)


def test_residue_representatives_that_miss_a_class_are_a_bug():
    # SL2(Z/2) has 6 classes: a seventh is never found, and that is no resource cap
    assert len(semigroup._residue_representatives(2, 6)) == 6
    with pytest.raises(InternalInvariantError, match="could not cover SL2"):
        semigroup._residue_representatives(2, 7)


def test_aleph_refuses_a_modulus_over_the_cap_before_factoring_it(monkeypatch):
    # factoring 10^16 + 61 sieves the primes to 10^8 (seconds and hundreds of MB)
    def factorize(n):
        raise AssertionError(f"factored {n} above the cap")

    monkeypatch.setattr(arith, "factorize", factorize)
    monkeypatch.setattr(modular, "factorize", factorize)
    for modulus in (semigroup.ALEPH_MODULUS_CAP + 1, 10_000_000_000_000_061):
        with pytest.raises(CapExceededError, match="exceeds cap"):
            aleph_construct(1e6, modulus)
    for modulus in (0, -3):  # refused by sl2_order's modulus check, unfactored
        with pytest.raises(ValueError, match="modulus must be positive"):
            aleph_construct(1e6, modulus)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="square-free"):  # at the cap, 10^12 is factored
        aleph_construct(1e6, semigroup.ALEPH_MODULUS_CAP)


def test_build_pi_single_product():
    pi = build_pi([(1, 1)], [(2, 2)], [(1, 2)])
    assert pi.size == 1
    (elem,) = list(pi.iter_elements())
    assert elem.word == (1, 1, 2, 2, 1, 2)
    assert elem.matrix == word_to_matrix((1, 1, 2, 2, 1, 2))
    assert list(pi.iter_traces()) == [elem.trace]


# Xi and Omega: words of one length each; Aleph: even alphabet-2 words.
# Digits up to 10^12 or 10^20 can push the traces' worst case past 2^62, onto
# Python ints.
@st.composite
def _bilinear_sets(draw):
    top = draw(st.sampled_from([3, 10**6, 10**12, 10**20]))

    def fixed_length(length):
        word = st.lists(st.integers(1, top), min_size=length, max_size=length).map(tuple)
        return st.lists(word, min_size=1, max_size=5)

    even = st.integers(1, 2).flatmap(
        lambda k: st.lists(st.integers(1, 2), min_size=2 * k, max_size=2 * k).map(tuple)
    )
    xi = draw(st.integers(1, 3).flatmap(fixed_length))
    omega = draw(st.integers(1, 3).flatmap(fixed_length))
    return build_pi(xi, draw(st.lists(even, min_size=1, max_size=5)), omega)


@given(_bilinear_sets(), st.sampled_from([1, 7, 1 << 18]))
@settings(max_examples=80)
def test_trace_tally_equals_the_trace_stream(pi, shard):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "_SHARD", shard)  # 1 and 7: one Xi row per shard
        traces, mult = pi.trace_tally()
    assert list(zip(traces.tolist(), mult.tolist())) == sorted(Counter(pi.iter_traces()).items())
    factors = (pi.xi, pi.aleph, pi.omega)
    worst = prod(max(e.norm_sq for e in semigroup._elements(f)) for f in factors)
    assert traces.dtype == (np.int64 if worst < 2**124 else object)


@given(st.lists(st.lists(st.integers(-50, 50), max_size=40), max_size=12), st.booleans())
@settings(max_examples=80)
def test_merge_equals_one_counter_over_the_runs(runs, counted):
    def run(values):
        values = np.array(values, dtype=np.int64)
        return semigroup._count(values) if counted else (values, np.ones(len(values), np.int64))

    if not counted and any(r != sorted(set(r)) for r in runs):  # a raw run not ascending
        with pytest.raises(InternalInvariantError, match="not strictly ascending"):
            semigroup._merge(run(r) for r in runs)
        return
    values, mult = semigroup._merge(run(r) for r in runs)
    assert values.dtype == mult.dtype == np.int64
    expected = sorted(Counter(v for r in runs for v in r).items())
    assert list(zip(values.tolist(), mult.tolist())) == expected


@given(st.lists(st.lists(st.integers(-50, 50), max_size=40), max_size=12), st.booleans(),
       st.sampled_from([np.int32, np.int64, object]))
@settings(max_examples=80)
def test_merge_is_one_counter_in_value_and_dtype(runs, counted, dtype):
    # Python-int runs lie past 2^63; int32 runs, and a lone run too, tally in int64
    offset = 2**64 if dtype is object else 0

    def run(values):
        values = np.array([v + offset for v in values], dtype=dtype)
        return semigroup._count(values) if counted else (values, np.ones(len(values), np.int64))

    # counted runs are ascending, so the merge sorts none of them again
    unsorted = mock.patch.object(np, "argsort", side_effect=AssertionError("sorted again"))
    for stream in (runs, runs[:1]):
        if not counted and any(r != sorted(set(r)) for r in stream):  # a raw run not ascending
            with pytest.raises(InternalInvariantError, match="not strictly ascending"):
                semigroup._merge(run(r) for r in stream)
            continue
        with unsorted if counted else nullcontext():
            values, mult = semigroup._merge(run(r) for r in stream)
        assert values.dtype == (object if dtype is object and stream else np.int64)
        assert mult.dtype == np.int64
        expected = sorted(Counter(v + offset for r in stream for v in r).items())
        assert list(zip(values.tolist(), mult.tolist())) == expected


def test_trace_tally_of_the_golden_pi():
    # tests/test_cli.py's PI_BOUNDS: 660 elements, int64 traces
    pi = build_pi(
        build_fixed_length_ball(2, 40), aleph_construct(1e6, 2), build_fixed_length_ball(2, 12)
    )
    traces, mult = pi.trace_tally()
    assert traces.dtype == np.int64 and mult.sum() == pi.size == 660
    assert list(zip(traces.tolist(), mult.tolist())) == sorted(Counter(pi.iter_traces()).items())


def test_build_pi_products_distinct_and_bounded():
    xi = build_fixed_length_ball(2, 6)
    omega = build_fixed_length_ball(2, 4)
    aleph = aleph_construct(1e6, 2)
    pi = build_pi(xi, aleph, omega)
    elements = list(pi.iter_elements())
    assert len(elements) == pi.size == len(xi) * len(aleph) * len(omega)
    words = {e.word for e in elements}
    assert len(words) == pi.size  # free semigroup: no collisions
    bound_sq = pi.norm_bound() ** 2
    assert all(e.norm_sq <= bound_sq * (1 + 1e-12) for e in elements)


def test_build_pi_reads_the_identity_as_the_empty_word():
    # the identity, c = 0, reads back as the word with no digit
    identity = SemigroupElement((), IDENTITY)
    pi = build_pi([identity], [identity], [(1,)])
    (elem,) = list(pi.iter_elements())
    assert elem.word == (1,) and list(pi.iter_traces()) == [1] == pi.trace_tally()[0].tolist()


def test_build_pi_validation():
    with pytest.raises(ValueError, match="empty factor"):
        build_pi([], [(1, 1)], [(1, 1)])
    with pytest.raises(ValueError, match="fixed wordlength"):
        build_pi([(1, 1), (1, 1, 1, 1)], [(1, 1)], [(2, 2)])
    with pytest.raises(ValueError, match="alphabet-2"):
        build_pi([(1, 1)], [(3, 1)], [(2, 2)])


def test_semigroup_element_from_word():
    e = SemigroupElement.from_word((1, 2))
    assert e.trace == 4 and e.norm_sq == 15 and len(e) == 2
