from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thinsieve.semigroup as semigroup
from thinsieve.cf import IDENTITY, Mat2, generator, word_to_matrix
from thinsieve.dimension import estimate
from thinsieve.errors import CapExceededError
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
    cap = round(norm * norm)
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


@pytest.mark.parametrize("alphabet, parity", [(0, "even"), (-1, "any"), (2, "odd"), (2, "")])
def test_ball_walks_reject_a_bad_alphabet_or_parity(alphabet, parity):
    with pytest.raises(ValueError):
        list(iter_ball(alphabet, 100, parity))
    with pytest.raises(ValueError):
        ball_count(alphabet, 10, parity)


@given(st.integers(1, 5), st.floats(1, 300))
@settings(max_examples=80, deadline=None)
def test_block_ball_walks_equal_iter_ball(alphabet, norm):
    words = list(enumerate_ball(alphabet, norm, "any"))
    even = [e for e in words if len(e.word) % 2 == 0]
    assert ball_count(alphabet, norm, "any") == len(words)
    assert ball_count(alphabet, norm) == len(even)
    traces, mult = ball_traces(alphabet, norm)
    tally = sorted(Counter(e.trace for e in even).items())
    assert list(zip(traces.tolist(), mult.tolist())) == tally


def test_ball_trace_cap_counts_even_words(monkeypatch):
    total = ball_count(3, 200)
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", total)
    assert ball_traces(3, 200)[1].sum() == total
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_ELEMENTS", total - 1)
    with pytest.raises(CapExceededError):
        ball_traces(3, 200)


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
        assert trace_fiber(1, t) == trace_fiber_oracle(1, t)[0]


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
    assert trace_fiber(1, t) == trace_fiber_oracle(1, t)[0]


@given(st.lists(st.integers(1, 5), min_size=0, max_size=8).map(tuple))
def test_norm_strictly_grows(w):
    m = word_to_matrix(w) if w else IDENTITY
    for g in (1, 2, 3, 4, 5):
        assert (m * generator(g)).norm_sq > m.norm_sq


@given(st.integers(1, 4), st.lists(st.floats(2, 3000), min_size=4, max_size=8, unique=True))
@settings(max_examples=40, deadline=None)
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


def test_trace_fiber_agrees_with_divisor_method():
    for alphabet, t in [(1, 3), (2, 37), (11, 37), (35, 37), (3, 18), (2, 100), (10, 123)]:
        assert trace_multiplicity(alphabet, t) == trace_multiplicity_by_divisors(alphabet, t)


def test_trace_fiber_equals_the_recursive_oracle():
    for alphabet in (1, 2, 3, 10, 35):
        for t in range(3, 201):
            assert trace_fiber(alphabet, t) == trace_fiber_oracle(alphabet, t)[0], (alphabet, t)


@given(st.integers(1, 12), st.integers(3, 600))
@settings(max_examples=60, deadline=None)
def test_trace_fiber_node_cap_counts_visited_nodes(alphabet, t):
    fiber, visited = trace_fiber_oracle(alphabet, t)
    assert trace_fiber(alphabet, t, max_nodes=visited) == fiber
    with pytest.raises(CapExceededError):
        trace_fiber(alphabet, t, max_nodes=visited - 1)


@pytest.mark.parametrize("alphabet", [2, 3, 10])
def test_trace_histogram_equals_the_divisor_count(alphabet):
    counts = trace_histogram(alphabet, 300).tolist()
    assert counts[:3] == [0, 0, 0]
    assert counts[3:] == [trace_multiplicity_by_divisors(alphabet, t) for t in range(3, 301)]


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


def test_fixed_length_ball_pigeonhole():
    slice_ = build_fixed_length_ball(2, 1e3)
    open_ball = list(iter_ball(2, round(1e3**2) - 1, "even"))
    lengths = {len(e.word) for e in open_ball}
    assert slice_.wordlength in lengths
    assert len(slice_) >= len(open_ball) // len(lengths)


def test_fixed_length_ball_deterministic():
    a = build_fixed_length_ball(5, 1e2)
    b = build_fixed_length_ball(5, 1e2)
    assert a == b


def test_aleph_degenerate_modulus_1():
    aleph = aleph_construct(10.0, 1)
    expected = [e.word for e in iter_ball(2, 99, "even")]
    assert [e.word for e in aleph] == expected


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


def test_aleph_error_trend_reported():
    # measured, not asserted: the deviation at q = 3 for growing bounds
    values = [aleph_error(aleph_construct(y, 2), 3) for y in (1e6, 1e8)]
    assert all(0 <= v <= 1 for v in values)


def test_aleph_too_small():
    with pytest.raises(ValueError, match="increase"):
        aleph_construct(20.0, 2)  # pivot ball below the smallest even word


def test_build_pi_single_product():
    pi = build_pi([(1, 1)], [(2, 2)], [(1, 2)])
    assert pi.size == 1
    (elem,) = list(pi.iter_elements())
    assert elem.word == (1, 1, 2, 2, 1, 2)
    assert elem.matrix == word_to_matrix((1, 1, 2, 2, 1, 2))
    assert list(pi.iter_traces()) == [elem.trace]


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
