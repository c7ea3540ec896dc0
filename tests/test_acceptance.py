"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest -v tests/test_acceptance.py  to get one line per criterion.
Criterion 7 checks the trace-37 fiber at alphabets 2, 11 and 35 against values
derived by hand. At alphabet 11 it holds 12 even words in 3 rotation classes:
(5, 7), (1, 1, 1, 11) and (1, 1, 1, 2, 1, 2). The pruned DFS, the independent
divisor method and an unpruned walk all give this count.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from thinsieve.arith import nu, primes_up_to
from thinsieve.cf import canonical_rotation, cf_expand, fixed_point, rotations, word_to_matrix
from thinsieve.dimension import asymptote, estimate
from thinsieve.forms import (
    Form,
    cycle,
    cycle_to_word,
    is_fundamental,
    matrix_to_form,
    reduce_form,
)
from thinsieve.geodesics import max_height, rotation_heights
from thinsieve.modular import (
    beta,
    beta_bruteforce,
    kloosterman,
    rho_t_bruteforce,
    sl2_charsum,
    sqrt4_count,
)
from thinsieve.semigroup import (
    cyclic_classes,
    enumerate_ball,
    hensley_exponent,
    trace_multiplicity,
)
from thinsieve.sieve import (
    BallSource,
    _squarefree_trace,
    class_census,
    remainder_profile,
    sift_values,
    squarefree_trace_census,
)

D1365_WORDS = [(1, 35), (5, 7), (1, 1, 1, 11), (1, 1, 1, 2, 1, 2)]
D1365_CLASSES = [(35, 35, -1), (7, 35, -5), (23, 33, -3), (19, 23, -11)]
D1337_PERIOD = (1, 1, 2, 17, 1, 8, 5, 8, 1, 17, 2, 1, 1, 3, 1, 35, 1, 3)


def naive_bfs_even_words(alphabet, norm):
    """Layer-by-layer enumeration with no pruning (independent oracle)."""
    cap = math.floor(Fraction(norm) ** 2)
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


def test_criterion_01_dictionary_d1365():
    cycles = []
    for word, (a, b, c) in zip(D1365_WORDS, D1365_CLASSES):
        m = word_to_matrix(word)
        assert m.trace == 37
        cy = cycle(reduce_form(matrix_to_form(m)))
        assert cy in (cycle(reduce_form(Form(a, b, c))), cycle(reduce_form(Form(a, -b, c))))
        cycles.append(cy)
    assert len(set(cycles)) == 4
    print("ACCEPTANCE 01 PASS: four trace-37 words map onto the four D=1365 classes")


def test_criterion_02_d1337_cycle():
    cy = cycle(reduce_form(Form(19, 27, -8)))
    assert len(cy) == 18
    assert cycle_to_word(cy) == canonical_rotation(D1337_PERIOD)
    print("ACCEPTANCE 02 PASS: D=1337 cycle has length 18 and the 18-digit period")


def test_criterion_03_local_densities():
    for p in (2, 3, 5, 7, 11, 13):
        assert beta(p) == beta_bruteforce(p)
        for t in (2, -2):
            assert rho_t_bruteforce(p, t) == Fraction(1, p * p - 1)
    for q in range(1, 1001):
        try:
            got = sqrt4_count(q)
        except ValueError:
            continue  # non-square-free moduli are rejected
        assert got == 2 ** (nu(q) - (1 if q % 2 == 0 else 0))
    print("ACCEPTANCE 03 PASS: beta, rho_t, and sqrt-of-4 counts are exact")


def test_criterion_04_exponential_sums():
    for p in primes_up_to(101):
        table = {m: kloosterman(1, m, p) for m in range(1, p)}
        bound = 2 * math.sqrt(p)
        for a in range(1, p):
            for b in range(1, p):
                assert abs(table[(a * b) % p]) <= bound + 1e-6
    for p in (2, 3, 5):
        for s in product(range(p), repeat=4):
            if all(x % p == 0 for x in s):
                continue
            assert abs(sl2_charsum(p, s)) <= 2 * p**1.5 + 1e-6
    rng = random.Random(0)
    for p in (7, 11, 13):
        for _ in range(1000):
            s = tuple(rng.randrange(p) for _ in range(4))
            if all(x % p == 0 for x in s):
                continue
            assert abs(sl2_charsum(p, s)) <= 2 * p**1.5 + 1e-6
    print("ACCEPTANCE 04 PASS: Weil bounds hold for p <= 101 and SL2 sums for p <= 13")


def test_criterion_05_hensley_exponent():
    fit = hensley_exponent(2, [1e3, 10**3.5, 1e4, 10**4.5, 1e5])
    mid = estimate(2, 14).midpoint
    assert abs(2 * mid - 1.0626) < 0.01  # guard: bracket sits where expected
    assert abs(fit.slope - 2 * mid) < 0.05
    print(f"ACCEPTANCE 05 PASS: growth slope {fit.slope:.4f} within 0.05 of {2 * mid:.4f}")


def test_criterion_06_dimension_asymptote():
    for alphabet, depth in ((20, 5), (50, 3)):
        est = estimate(alphabet, depth)
        target = asymptote(alphabet)
        assert est.lower - 0.02 <= target <= est.upper + 0.02
    print("ACCEPTANCE 06 PASS: brackets meet 1 - 6/(pi^2 A) within 0.02 at A = 20, 50")


def test_criterion_07_trace_fiber_37():
    assert trace_multiplicity(2, 37) == 6
    assert trace_multiplicity(35, 37) == 14
    assert len(cyclic_classes(2, 37)) == 1
    assert len(cyclic_classes(35, 37)) == 4
    census = set(class_census(1365, 35))
    targets = set()
    for a, b, c in D1365_CLASSES:
        targets.add(cycle(reduce_form(Form(a, b, c))))
        targets.add(cycle(reduce_form(Form(a, -b, c))))
    assert len(census) == 4 and census <= targets
    # Alphabet 11, by hand: a length-2 word (a, b) has trace ab + 2, so ab = 35
    # with digits <= 11 gives (5, 7) and (7, 5); add the 4 rotations of
    # (1, 1, 1, 11) and the 6 of (1, 1, 1, 2, 1, 2): 2 + 4 + 6 = 12 in 3 classes.
    assert trace_multiplicity(11, 37) == 12
    assert cyclic_classes(11, 37) == [(1, 1, 1, 2, 1, 2), (1, 1, 1, 11), (5, 7)]
    print("ACCEPTANCE 07 PASS: trace-37 fibers and the class census match")


def test_criterion_08_heights():
    assert rotation_heights((1, 1)) == pytest.approx([math.sqrt(5) / 2] * 2, abs=1e-9)
    assert max_height((1, 1)) == pytest.approx(math.sqrt(5) / 2, abs=1e-9)
    assert max_height((1, 35)) == pytest.approx(math.sqrt(1365) / 2, abs=1e-9)
    assert max_height((1, 1, 1, 2, 1, 2)) < 2
    for length in (2, 4, 6):
        for w in product((1, 2, 3), repeat=length):
            a_max = max(w)
            d = word_to_matrix(w).trace ** 2 - 4
            c_min = min(word_to_matrix(r).c for r in rotations(w))
            assert (a_max * c_min) ** 2 < d < ((a_max + 2) * c_min) ** 2
    print("ACCEPTANCE 08 PASS: excursion heights and the digit sandwich hold")


def test_criterion_09_remainder_ledger():
    summaries = {}
    for norm in (1e3, 1e4):
        seq = sift_values(BallSource(2, norm))
        profile = remainder_profile(seq, 100)
        for row in profile.rows:
            assert row.remainder == row.count - row.expected
            assert row.expected == beta(row.q) * seq.source_size
        summaries[norm] = profile.summary
    assert summaries[1e4] < summaries[1e3]
    print(
        "ACCEPTANCE 09 PASS: exact remainder identity; "
        f"sum|r|/size falls {float(summaries[1e3]):.3f} -> {float(summaries[1e4]):.3f}"
    )


def test_criterion_10_squarefree_census():
    count = squarefree_trace_census(2, 1e4)
    assert count > 0
    for e in enumerate_ball(2, 1e4):
        if _squarefree_trace(e.trace):
            assert is_fundamental(e.trace**2 - 4)
    # trace-4 words like (1, 2) have discriminant 12: fundamental but not
    # square-free, so they never enter the census
    assert not _squarefree_trace(4)
    assert is_fundamental(12)
    print(f"ACCEPTANCE 10 PASS: census {count} > 0, every member fundamental")


def test_criterion_11_oracle_equivalence():
    for alphabet in (1, 2, 3):
        for norm in (10, 30, 50):
            mine = sorted(e.word for e in enumerate_ball(alphabet, norm))
            assert mine == naive_bfs_even_words(alphabet, norm)
    for length in (2, 4, 6):
        for w in product((1, 2, 3, 4), repeat=length):
            pre, per = cf_expand(fixed_point(word_to_matrix(w)))
            assert pre == ()
            assert len(w) % len(per) == 0
            assert per * (len(w) // len(per)) == w
    print("ACCEPTANCE 11 PASS: pruned enumeration and the CF round trip are exact")
