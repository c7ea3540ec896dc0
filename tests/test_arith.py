import gc
import tracemalloc
import weakref
from functools import partial
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thinsieve.arith as arith
from thinsieve.arith import LEAF, factorize, iroot, is_squarefree, pairwise_sum, primes_up_to
from thinsieve.errors import CapExceededError

# item counts around numpy's unroll (8 scalars), its block (128) and LEAF; a
# complex128 item is 2 scalars, so LEAF // 2 items is one full complex leaf
LENGTHS = (0, 1, 7, 8, 127, 128, 129, LEAF // 2 - 1, LEAF // 2, LEAF // 2 + 1,
           LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 17, 9 * LEAF - 5)


def _values(n, seed, spread, is_complex):
    """n normal draws, each scaled by 10^e for e uniform in [-spread, spread]."""
    rng = np.random.default_rng(seed)

    def draw():
        return rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)

    return draw() + 1j * draw() if is_complex else draw()


@settings(max_examples=60)
@given(st.sampled_from(LENGTHS), st.integers(0, 2**32 - 1), st.sampled_from([0, 8, 150]),
       st.booleans())
def test_pairwise_sum_equals_numpy_sum(n, seed, spread, is_complex):
    values = _values(n, seed, spread, is_complex)
    width = 2 if is_complex else 1
    chunks = []

    def terms(lo, hi):
        chunks.append((lo, hi))
        return values[lo:hi].copy()

    assert repr(pairwise_sum(n, terms, width)) == repr(values.sum())
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]  # in order, no gap
    assert chunks[-1][1] == n
    assert all((hi - lo) * width <= LEAF for lo, hi in chunks)


def test_pairwise_sum_keeps_numpy_signed_zeros():
    for values in (np.full(3 * LEAF, -0.0), np.full(LEAF, -0.0 - 0.0j), np.zeros(0)):
        width = 2 if values.dtype == np.complex128 else 1
        got = pairwise_sum(len(values), lambda lo, hi: values[lo:hi].copy(), width)
        assert repr(got) == repr(values.sum())


def _copy(values, lo, hi):
    return values[lo:hi].copy()


def test_pairwise_sum_leaves_no_cycle_holding_its_terms():
    # with the cyclic collector off, the terms must die with their last name
    values = np.ones(3 * LEAF)
    dead = weakref.ref(values)
    gc.disable()
    try:
        pairwise_sum(len(values), partial(_copy, values))
        del values
        assert dead() is None
    finally:
        gc.enable()


def test_iroot_equals_the_integer_root():
    for n in range(300):
        for k in range(1, 12):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
    # about the float path's bound 2^52, near the cube 165,140^3 and at 2^52 - 1
    for root in (165_139, 165_140, 165_141, 2**13, 2**26):
        for k in (2, 3, 4):
            for n in (root**k - 1, root**k, root**k + 1, 2**52 - 1, 2**52):
                r = iroot(n, k)
                assert r**k <= n < (r + 1) ** k, (n, k)


def test_iroot_below_2_forms_no_power_of_2():
    # n < 2^k gives a root below 2, read off n's bit length: 2^k, which takes
    # 1.25 MB at k = 10^7 and cannot be formed at the k of a large SL2 order, never is
    tracemalloc.start()
    try:
        assert (iroot(10**6, 10**7), iroot(1, 10**7), iroot(0, 10**7)) == (1, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def is_squarefree_oracle(n):
    """Trial division by every prime up to the square root of what is left of n."""
    if n < 1:
        return False
    for p in primes_up_to(isqrt(n)):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    return True


_PRIMES = primes_up_to(2000)


@settings(max_examples=400)
@given(st.one_of(
    st.integers(-5, 10**12),
    # p^2 m, with p up to 2000 so the square sits above the cube root of small m
    st.builds(lambda p, m: p * p * m, st.sampled_from(_PRIMES), st.integers(1, 10**6)),
    # p q and p^2 for primes near the cube root: the cofactors the test must tell apart
    st.builds(lambda p, q: p * q, st.sampled_from(_PRIMES[-50:]), st.sampled_from(_PRIMES)),
))
def test_is_squarefree_equals_trial_division_to_the_square_root(n):
    assert is_squarefree(n) == is_squarefree_oracle(n)


def test_is_squarefree_past_the_cube_root():
    # the cofactor above the cube root is 1, p, p q or p^2
    p, q = 1_000_003, 999_983
    assert is_squarefree(p * q) and is_squarefree(2 * p) and is_squarefree(p)
    assert not is_squarefree(p * p) and not is_squarefree(3 * p * p)
    assert [n for n in range(1, 30) if not is_squarefree(n)] == [
        4, 8, 9, 12, 16, 18, 20, 24, 25, 27, 28]


@pytest.mark.parametrize("n", [0, -12])
def test_factorize_refuses_below_1(n):
    with pytest.raises(ValueError, match=f"^cannot factor {n}$"):
        factorize(n)


def test_prime_table_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(arith, "PRIME_TABLE_CAP", 1000)
    monkeypatch.setattr(arith, "_primes", arith._primes[:11])  # the table to 31
    monkeypatch.setattr(arith, "_sieved_to", 31)
    assert primes_up_to(600)[-1] == 599
    assert arith._sieved_to == 600
    assert primes_up_to(1000)[-1] == 997
    assert arith._sieved_to == 1000  # doubling 600 stops at the cap
    with pytest.raises(CapExceededError, match="exceeds cap 1000"):
        primes_up_to(1001)
    with pytest.raises(CapExceededError, match="exceeds cap"):
        is_squarefree(10**30)  # cube root 10^10
    assert arith._sieved_to == 1000
