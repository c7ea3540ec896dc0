from itertools import product
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thinsieve.cf import Surd, canonical_rotation, cf_expand, fixed_point, word_to_matrix
from thinsieve.forms import (
    Form,
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
    assert Form.parse("[19, 27, -8]") == f
