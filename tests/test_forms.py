from itertools import product
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thinsieve import forms
from thinsieve.cf import (
    Surd,
    _floor_surd,
    canonical_rotation,
    cf_expand,
    fixed_point,
    rotations,
    word_to_matrix,
)
from thinsieve.errors import CapExceededError, InternalInvariantError
from thinsieve.forms import (
    DISCRIMINANT_CAP,
    Form,
    FormCycle,
    class_cycles,
    count_mirror_merged,
    count_sign_merged,
    cycle,
    cycle_to_word,
    is_fundamental,
    is_reduced_form,
    matrix_to_form,
    reduce_form,
    reduced_forms,
    rho,
)
from thinsieve.semigroup import cyclic_classes

D1337_PERIOD = (1, 1, 2, 17, 1, 8, 5, 8, 1, 17, 2, 1, 1, 3, 1, 35, 1, 3)


def small_forms():
    return (
        st.tuples(
            st.integers(-30, 30).filter(lambda a: a != 0),
            st.integers(-30, 30),
            st.integers(-30, 30),
        )
        .map(lambda t: t)
        .filter(lambda t: _valid_disc(t))
        .map(lambda t: Form(*t))
    )


def _valid_disc(t):
    a, b, c = t
    d = b * b - 4 * a * c
    return d > 0 and isqrt(d) ** 2 != d


def test_discriminant_examples():
    assert Form(19, 27, -8).discriminant == 1337
    assert Form(35, 35, -1).discriminant == 1365
    assert Form(1, 1, -1).discriminant == 5


def test_form_validation():
    with pytest.raises(ValueError):
        Form(0, 5, 1)
    with pytest.raises(ValueError):
        Form(1, 0, 1)  # negative discriminant
    with pytest.raises(ValueError):
        Form(1, 3, 0)  # discriminant 9 is square


def test_is_fundamental():
    assert is_fundamental(1365)
    assert is_fundamental(5)
    assert not is_fundamental(32)  # 32/4 = 8 not square-free
    assert is_fundamental(1337)
    assert is_fundamental(12)  # 12/4 = 3 = 3 mod 4
    assert not is_fundamental(45)
    assert not is_fundamental(7)  # 3 mod 4
    with pytest.raises(ValueError):
        is_fundamental(0)


def test_matrix_to_form_examples():
    assert matrix_to_form(word_to_matrix((1, 35))).coefficients() == (35, -35, -1)
    f = matrix_to_form(word_to_matrix((1, 1, 1, 2, 1, 2)))
    assert f.coefficients() == (19, -23, -11)
    assert f.discriminant == 1365
    assert matrix_to_form(word_to_matrix((1, 1))).coefficients() == (1, -1, -1)


def test_matrix_to_form_errors():
    from thinsieve.cf import Mat2

    with pytest.raises(ValueError):
        matrix_to_form(Mat2(1, 1, 1, 0))  # det -1
    with pytest.raises(ValueError):
        matrix_to_form(Mat2(1, 1, 0, 1))  # parabolic


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=12))
def test_matrix_to_form_reads_the_matrix(pairs):
    w = sum(pairs, ())  # an even word
    m = word_to_matrix(w)
    assert matrix_to_form(m) == Form(m.c, m.d - m.a, -m.b)


def test_disc_equals_trace_sq_minus_4_exhaustive():
    for length in (2, 4, 6, 8):
        for w in product((1, 2), repeat=length):
            m = word_to_matrix(w)
            assert matrix_to_form(m).discriminant == m.trace**2 - 4


def test_fixed_point_is_root_exactly():
    for w in [(1, 1), (1, 35), (1, 1, 1, 2, 1, 2), (2, 2, 1, 2)]:
        m = word_to_matrix(w)
        f = matrix_to_form(m)
        alpha = fixed_point(m)
        # A alpha^2 + B alpha + C = 0 in exact surd arithmetic:
        # expanding with alpha = (p + sqrt(d))/q gives rational and radical parts
        p, d, q = alpha.p, alpha.d, alpha.q
        rational = f.a * (p * p + d) + f.b * p * q + f.c * q * q
        radical = 2 * f.a * p + f.b * q
        assert rational == 0 and radical == 0


def is_reduced_form_oracle(f: Form) -> bool:
    """The classical window 0 < B < sqrt(D) and sqrt(D) - B < 2|A| < sqrt(D) + B,
    squared out in integers."""
    d = f.discriminant
    s = isqrt(d)
    if f.b <= 0 or f.b > s:
        return False
    t = 2 * abs(f.a)
    if d >= (t + f.b) ** 2:  # need sqrt(D) < 2|A| + B
        return False
    return t <= f.b or (t - f.b) ** 2 < d  # need 2|A| - B < sqrt(D)


@given(small_forms())
def test_is_reduced_form_equals_the_window(f):
    assert is_reduced_form(f) == is_reduced_form_oracle(f)


def test_reduce_examples():
    assert reduce_form(Form(1, 1, -1)) == Form(1, 1, -1)
    r = reduce_form(Form(1, -1, -1))
    assert is_reduced_form(r) and r.discriminant == 5
    assert r in cycle(reduce_form(Form(1, 1, -1)))
    r = reduce_form(Form(19, 27, -8))
    assert is_reduced_form(r) and r.discriminant == 1337


@given(small_forms())
def test_reduce_form_properties(f):
    r = reduce_form(f)
    assert is_reduced_form(r)
    assert r.discriminant == f.discriminant


@given(small_forms())
def test_rho_preserves_discriminant(f):
    assert rho(f).discriminant == f.discriminant


def test_cycle_examples():
    assert len(cycle(reduce_form(Form(1, 1, -1)))) == 2
    assert len(cycle(reduce_form(Form(35, -35, -1)))) == 2
    assert len(cycle(reduce_form(Form(19, 27, -8)))) == 18


def test_cycle_rejects_unreduced():
    with pytest.raises(ValueError, match="reduced"):
        cycle(Form(1, -1, -1))


def test_class_cycles_d5():
    cycles = class_cycles(5)
    assert len(cycles) == 1
    assert len(cycles[0]) == 2
    assert set(f.coefficients() for f in cycles[0].forms) == {(1, 1, -1), (-1, 1, 1)}


def test_class_cycles_partition_and_even_lengths():
    for d in (5, 8, 12, 13, 21, 1337, 1365):
        cycles = class_cycles(d)
        seen = [f for cy in cycles for f in cy.forms]
        assert len(seen) == len(set(seen)) == len(reduced_forms(d))
        assert all(len(cy) % 2 == 0 for cy in cycles)
        assert all(f.discriminant == d for f in seen)


def reduced_forms_oracle(d: int) -> list[Form]:
    """Every reduced form of discriminant d, by scanning each (b, 2|A|) cell."""
    s = isqrt(d)
    out = []
    for b in range(1, s + 1):
        if (b - d) % 2 != 0:
            continue
        for twice_a in range(max(s + 1 - b, 1), s + b + 1):
            if twice_a % 2 != 0:
                continue
            abs_a = twice_a // 2
            if (d - b * b) % (4 * abs_a) != 0:
                continue
            for a in (abs_a, -abs_a):
                out.append(Form(a, b, (b * b - d) // (4 * a)))
    return sorted(out, key=Form.coefficients)


@given(st.integers(1, 50_000), st.sampled_from((0, 1)))
def test_reduced_forms_equal_the_cell_scan(k, r):
    d = 4 * k + r
    if isqrt(d) ** 2 == d:
        return
    forms = reduced_forms(d)
    assert forms == reduced_forms_oracle(d)
    assert all(is_reduced_form(f) for f in forms)


@pytest.mark.parametrize("d", (3_879_876, 4_007_765))
def test_reduced_forms_equal_the_cell_scan_at_large_d(d):
    assert reduced_forms(d) == reduced_forms_oracle(d)


def test_class_cycles_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        class_cycles(7)  # 3 mod 4
    with pytest.raises(ValueError):
        class_cycles(16)  # square


def test_reduced_forms_cap_is_checked_before_enumerating(monkeypatch):
    monkeypatch.setattr(forms, "np", None)  # any enumeration would fail on it
    with pytest.raises(CapExceededError, match="exceeds cap"):
        reduced_forms(DISCRIMINANT_CAP + 1)  # 10^9 + 1 = 1 mod 4, not a square
    with pytest.raises(CapExceededError, match="exceeds cap"):
        class_cycles(10**21)


def test_class_cycles_raise_when_a_cycle_leaves_the_reduced_forms(monkeypatch):
    full = reduced_forms(1365)
    monkeypatch.setattr(forms, "reduced_forms", lambda d: full[:-1])
    with pytest.raises(InternalInvariantError, match="escaped the reduced window"):
        class_cycles(1365)


def test_orbit_guards_catch_an_odd_and_an_open_orbit(monkeypatch):
    # a rho with a 3-cycle through the least reduced forms of 1365, where class_cycles starts
    first, second, third = (f.coefficients() for f in reduced_forms(1365)[:3])
    step = {first: second, second: third, third: first}
    monkeypatch.setattr(forms, "_rho", lambda a, b, c, d, s: step[(a, b, c)])
    with pytest.raises(InternalInvariantError, match="cycle length must be even"):
        cycle(Form(*first))
    with pytest.raises(InternalInvariantError, match="cycle length must be even"):
        class_cycles(1365)
    # a rho that never returns to [1, 1, -1]: 10^6 steps, then the walk gives up
    monkeypatch.setattr(forms, "_rho", lambda a, b, c, d, s: (-1, 1, 1))
    with pytest.raises(InternalInvariantError, match="failed to close"):
        cycle(Form(1, 1, -1))


def test_cycle_is_the_class_cycle_that_holds_its_form():
    for d in (5, 8, 12, 13, 21, 1337, 1365):
        cycles = class_cycles(d)
        for f in reduced_forms(d):
            (held,) = [cy for cy in cycles if f in cy]
            assert cycle(f) == held


# ---------------------------------------------------------------------------
# oracles: a cycle walked one validated Form per rho step, each partner cycle
# reduced and walked again, and the least rotation as a min over all rotations


def cycle_oracle(f: Form) -> FormCycle:
    members = [f]
    g = rho(f)
    while g != f:
        members.append(g)
        g = rho(g)
    assert len(members) % 2 == 0
    return FormCycle.from_forms(members)


def class_cycles_oracle(d: int) -> list[FormCycle]:
    remaining = set(reduced_forms(d))
    cycles = []
    while remaining:
        cy = cycle_oracle(min(remaining, key=Form.coefficients))
        assert set(cy.forms) <= remaining
        remaining -= set(cy.forms)
        cycles.append(cy)
    return sorted(cycles, key=lambda cy: cy.forms[0].coefficients())


def mirror_cycle(cy: FormCycle) -> FormCycle:
    f = cy.forms[0]
    return cycle_oracle(reduce_form(Form(f.a, -f.b, f.c)))


def negated_cycle(cy: FormCycle) -> FormCycle:
    f = cy.forms[0]
    return cycle_oracle(reduce_form(Form(-f.a, -f.b, -f.c)))


def count_merged_oracle(cycles: list[FormCycle], partner) -> int:
    seen: set[FormCycle] = set()
    merged = 0
    for cy in cycles:
        if cy in seen:
            continue
        merged += 1
        seen.add(cy)
        seen.add(partner(cy))
    return merged


def cycle_to_word_oracle(cy: FormCycle):
    d = cy.discriminant
    return min(rotations(tuple(_floor_surd(f.b, isqrt(d), 2 * abs(f.c)) for f in cy.forms)))


def _assert_cycles_equal_the_oracles(d: int):
    cycles = class_cycles(d)
    assert cycles == class_cycles_oracle(d)
    assert count_mirror_merged(cycles) == count_merged_oracle(cycles, mirror_cycle)
    assert count_sign_merged(cycles) == count_merged_oracle(cycles, negated_cycle)
    assert [cycle_to_word(cy) for cy in cycles] == [cycle_to_word_oracle(cy) for cy in cycles]


@given(st.integers(1, 5_000), st.sampled_from((0, 1)))
def test_class_cycles_equal_the_oracles(k, r):
    d = 4 * k + r
    if isqrt(d) ** 2 == d:
        return
    _assert_cycles_equal_the_oracles(d)


# the two discriminants of the fiber_forms benchmark at seed 0 (4 cycles of
# 1,162 and 1,206 forms, merging 4 / 2; one cycle of 2,386 forms) and one of
# 328 cycles, merging to 166 and 164
@pytest.mark.parametrize("d", (4_006_209, 10_007_293, 10_000_372))
def test_class_cycles_equal_the_oracles_near_1e7(d):
    _assert_cycles_equal_the_oracles(d)


def test_partner_cycles_hold_the_swapped_forms():
    # the facts the merged counts rest on: the mirror cycle holds [C,B,A] and
    # the negated cycle [-C,B,-A] of every reduced [A,B,C] on the cycle
    for d in (1365, 1337, 4_006_209):
        for cy in class_cycles(d):
            mirror, negated = set(mirror_cycle(cy).forms), set(negated_cycle(cy).forms)
            for f in cy.forms:
                assert Form(f.c, f.b, f.a) in mirror
                assert Form(-f.c, f.b, -f.a) in negated


def test_d1365_word_classes_pairwise_distinct():
    words = [(1, 35), (5, 7), (1, 1, 1, 11), (1, 1, 1, 2, 1, 2)]
    cycles = [cycle(reduce_form(matrix_to_form(word_to_matrix(w)))) for w in words]
    assert len(set(cycles)) == 4


def test_class_counts_1365_and_1337():
    cycles = class_cycles(1365)
    # rho-orbits count proper (narrow) classes: 8 here; merging each orbit with
    # its negated partner recovers the plain class number 4
    assert len(cycles) == 8
    assert count_sign_merged(cycles) == 4
    assert count_mirror_merged(cycles) == 8  # all four classes are self-inverse
    cycles = class_cycles(1337)
    assert len(cycles) == 2
    assert count_sign_merged(cycles) == 1


def test_cycle_to_word_examples():
    assert cycle_to_word(cycle(reduce_form(Form(1, 1, -1)))) == (1, 1)
    assert cycle_to_word(cycle(reduce_form(Form(35, -35, -1)))) == (1, 35)
    w = cycle_to_word(cycle(reduce_form(Form(19, 27, -8))))
    assert w == canonical_rotation(D1337_PERIOD)


def test_cycle_to_word_member_independent_and_cf_consistent():
    for d in (5, 8, 12, 13, 21, 1337, 1365):
        for cy in class_cycles(d):
            w = cycle_to_word(cy)
            assert len(w) == len(cy)
            # the associated surd of any member is reduced with matching period
            f = cy.forms[0]
            xi = Surd.make(f.b, d, 2 * abs(f.c))
            pre, per = cf_expand(xi)
            assert pre == ()
            assert len(w) % len(per) == 0
            assert canonical_rotation(per * (len(w) // len(per))) == w


def test_word_class_count_matches_trace_fiber_at_1365():
    # cycles pair 2:1 onto period words; distinct words with digits <= 35
    # match the trace-37 rotation classes
    cycles = class_cycles(1365)
    words = {cycle_to_word(cy) for cy in cycles if max(cycle_to_word(cy)) <= 35}
    assert len(words) == 4
    assert words == set(cyclic_classes(35, 37))


def test_form_serialization():
    f = Form(19, 27, -8)
    assert str(f) == "[19,27,-8]"


def test_reduction_that_never_reaches_the_window_is_a_bug(monkeypatch):
    # (5, 1, -1) of discriminant 21 is not reduced; a rho that stays put never
    # reaches the window, and reduce_form gives up after its step limit
    assert not is_reduced_form(Form(5, 1, -1))
    monkeypatch.setattr(forms, "_rho", lambda a, b, c, d, s: (a, b, c))
    with pytest.raises(InternalInvariantError, match="reduction failed to terminate"):
        reduce_form(Form(5, 1, -1))
