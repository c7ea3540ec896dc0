import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinsieve.arith import is_squarefree, nu, primes_up_to
from thinsieve.errors import CapExceededError
from thinsieve.modular import (
    DEFAULT_MODULUS_CAP,
    DENSITY_MODULUS_CAP,
    _charsum_prime,
    _check_modulus,
    _sl2_table,
    _trace_counts,
    beta,
    beta_bruteforce,
    densities,
    kloosterman,
    rho_t_bruteforce,
    sl2_charsum,
    sl2_order,
    sqrt4_count,
)

# ---------------------------------------------------------------------------
# oracles: the direct loops the numpy tables replaced


def sl2_prime_oracle(p: int) -> list[tuple[int, int, int, int]]:
    """All of SL2(F_p) as tuples, ascending in (a, b); p rows per nonzero first row."""
    out = []
    for a in range(p):
        for b in range(p):
            if a == 0 and b == 0:
                continue
            if a != 0:
                inv_a = pow(a, p - 2, p) if p > 2 else a
                for c in range(p):
                    out.append((a, b, c, (1 + b * c) * inv_a % p))
            else:
                inv_b = pow(b, p - 2, p) if p > 2 else b
                c = (-inv_b) % p
                for d in range(p):
                    out.append((a, b, c, d))
    return out


class ResidueMatrix(NamedTuple):
    """Element of SL2(Z/q): entries reduced mod q, det = 1 mod q."""

    a: int
    b: int
    c: int
    d: int


def sl2_enumerate(q: int, cap: int = DEFAULT_MODULUS_CAP) -> Iterator[ResidueMatrix]:
    """Each element of SL2(Z/q) once: the CRT product of the prime tuple loops."""
    primes = _check_modulus(q, cap)
    if q == 1:
        yield ResidueMatrix(0, 0, 0, 0)
        return
    # CRT basis: e_p = (q/p) * ((q/p)^-1 mod p), so x = sum_p x_p e_p mod q
    basis = [q // p * pow(q // p % p, -1, p) for p in primes]
    for combo in product(*(sl2_prime_oracle(p) for p in primes)):
        yield ResidueMatrix(*(sum(x * e for x, e in zip(entries, basis)) % q
                              for entries in zip(*combo)))


def sl2_charsum_direct(
    q: int, s: tuple[int, int, int, int], cap: int = DEFAULT_MODULUS_CAP
) -> complex:
    """Sum over SL2(Z/q) itself, one element at a time."""
    x, y, z, w = s
    total = 0j
    for g in sl2_enumerate(q, cap):
        phase = (g.a * x + g.b * y + g.c * z + g.d * w) % q
        total += complex(np.exp(2j * np.pi * phase / q))
    return total


def is_primitive_mod(s, q: int) -> bool:
    g = 0
    for x in s:
        g = math.gcd(g, x % q)
    return math.gcd(g, q) == 1


def sqrt4_count_oracle(q: int) -> int:
    return sum(1 for t in range(q) if (t * t - 4) % q == 0)


def kloosterman_oracle(a: int, b: int, p: int) -> float:
    """K(a, b; p) term by term: one pow and one np.cos per x, added left to right."""
    total = 0.0
    for x in range(1, p):
        inv = pow(x, p - 2, p)
        total += np.cos(math.tau * ((a * x + b * inv) % p) / p)
    return float(total)


ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 31)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_sl2_table_equals_the_tuple_loop(p):
    table = _sl2_table(p)
    assert table.dtype == np.int32 and table.shape == (p**3 - p, 4)
    rows = sl2_prime_oracle(p)
    assert np.array_equal(table, np.array(rows))
    traces = Counter((a + d) % p for a, b, c, d in rows)
    assert _trace_counts(p) == tuple(traces[t] for t in range(p))


@pytest.mark.parametrize("p", (*ORACLE_PRIMES, 113))
def test_charsum_phase_lookup_is_bit_identical(p):
    # the sum before the lookup: np.exp over every row's phase, int64 rows
    rows = _sl2_table(p).astype(np.int64)
    rng = random.Random(p)
    for _ in range(4):
        s = tuple(rng.randrange(p) for _ in range(4))
        phase = (rows @ np.array(s, dtype=np.int64)) % p
        assert repr(_charsum_prime(p, s)) == repr(complex(np.exp(2j * np.pi * phase / p).sum()))


@given(st.sampled_from(primes_up_to(113)), st.tuples(*[st.integers(0, 112)] * 4))
@example(113, (3, 5, 7, 0))  # w = 0: every a = 0 block is constant
@example(113, (3, 5, 0, 0))  # z = w = 0: every block is constant
@example(113, (3, 0, 0, 0))  # y = z = w = 0: the a = 0 blocks are all ones
@example(7, (2, 3, 6, 1))  # z = -b w / a at (a, b) = (1, 1): that block is constant
@example(2, (0, 0, 0, 1))
def test_charsum_windows_equal_the_table_row_sum(p, s):
    s = tuple(x % p for x in s)
    if not any(s):
        return
    phase = (_sl2_table(p) @ np.array(s, dtype=np.int32)) % p
    table_sum = complex(np.exp(2j * np.pi * np.arange(p) / p)[phase].sum())
    assert repr(_charsum_prime(p, s)) == repr(table_sum)


def test_charsums_build_no_sl2_table(monkeypatch):
    import thinsieve.modular as modular

    def table(p):
        raise AssertionError(f"the p = {p} SL2 table was read")

    monkeypatch.setattr(modular, "_sl2_table", table)
    expected = 113 * kloosterman(1, 1 * 5 - 2 * 3, 113)  # the closed form at p = 113
    assert sl2_charsum(113, (1, 2, 3, 5)) == pytest.approx(expected, abs=1e-14 * 113**3)
    assert abs(sl2_charsum(30, (7, 11, 13, 17))) <= 2 * 30**1.5


@given(st.sampled_from(primes_up_to(113)), st.tuples(*[st.integers(0, 112)] * 4))
@example(2, (0, 1, 0, 0))
@example(7, (2, 3, 4, 6))
@example(113, (1, 0, 0, 0))
@example(113, (1, 2, 3, 6))
def test_charsum_closed_form(p, s):
    # sum over SL2(F_p) of e_p(ax + by + cz + dw) = p K(1, xw - yz; p) for s != 0;
    # K(1, 0; p) is the Ramanujan sum -1, and kloosterman rightly refuses it
    s = tuple(x % p for x in s)
    if not any(s):
        return
    x, y, z, w = s
    disc = (x * w - y * z) % p
    expected = p * kloosterman(1, disc, p) if disc else -p
    assert sl2_charsum(p, s) == pytest.approx(expected, abs=1e-14 * p**3)  # p^3 - p terms


def test_sqrt4_count_equals_the_loop():
    for q in range(1, 3001):
        if is_squarefree(q):
            assert sqrt4_count(q) == sqrt4_count_oracle(q), q


@settings(max_examples=20)
@given(st.integers(0, 5000))
@example(0)
@example(1)
def test_densities_equal_beta_and_the_counts(n):
    q, num, den, count = (column.tolist() for column in densities(n))
    assert q == [m for m in range(1, n + 1) if is_squarefree(m)]
    assert [(b.numerator, b.denominator) for b in map(beta, q)] == list(zip(num, den))
    assert count == [sqrt4_count(m) for m in q]


def test_densities_check_the_cap_first():
    with pytest.raises(CapExceededError, match="exceeds cap"):
        densities(DENSITY_MODULUS_CAP + 1)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13, 113))
def test_kloosterman_equals_the_loop_bit_for_bit(p):
    for m in range(1, p):
        assert repr(kloosterman(1, m, p)) == repr(kloosterman_oracle(1, m, p)), m
    rng = random.Random(p)  # arguments of any size and sign reduce mod p first
    for _ in range(8):
        a, b = rng.randrange(-10**30, 10**30), rng.randrange(-10**30, 10**30)
        if (a * b) % p:
            assert repr(kloosterman(a, b, p)) == repr(kloosterman_oracle(a, b, p)), (a, b)


def test_sl2_orders_and_enumeration():
    assert sl2_order(2) == 6
    assert sl2_order(3) == 24
    assert sl2_order(6) == 144
    for q in (1, 2, 3, 5, 6, 10, 15):
        elements = list(sl2_enumerate(q))
        assert len(elements) == sl2_order(q)
        assert len(set(elements)) == len(elements)
        assert all((g.a * g.d - g.b * g.c) % q == 1 % q for g in elements)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(sl2_enumerate(127, cap=120))


def test_square_free_rejected():
    for fn in (sl2_order, sqrt4_count, beta):
        with pytest.raises(ValueError):
            fn(12)


# the brute-force oracles take one prime within DEFAULT_MODULUS_CAP, checked
# where the trace counts are read
@pytest.mark.parametrize("fn, args, error, message", [
    (beta_bruteforce, (4,), ValueError, "expected a prime, got 4"),
    (rho_t_bruteforce, (4, 1), ValueError, "expected a prime, got 4"),
    (beta_bruteforce, (127,), CapExceededError, "modulus 127 exceeds cap 120"),
    (rho_t_bruteforce, (127, 1), CapExceededError, "modulus 127 exceeds cap 120"),
    (sl2_charsum, (5, (1, 2, 3)), ValueError, "s must be a 4-vector"),
], ids=["beta-4", "rho_t-4", "beta-127", "rho_t-127", "charsum-3-vector"])
def test_modular_refusals(fn, args, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        fn(*args)


def test_beta_values():
    assert beta(2) == Fraction(2, 3)
    assert beta(3) == Fraction(3, 4)
    assert beta(3) == Fraction(2, 3) * Fraction(9, 8)
    assert beta(5) == Fraction(5, 12)
    assert beta(15) == Fraction(5, 16)
    assert beta(1) == 1


def test_beta_matches_bruteforce():
    assert beta_bruteforce(2) == Fraction(4, 6)
    assert beta_bruteforce(3) == Fraction(18, 24)
    assert beta_bruteforce(5) == Fraction(50, 120)
    for p in (2, 3, 5, 7, 11, 13):
        assert beta(p) == beta_bruteforce(p)


def test_sqrt4_count_examples():
    assert sqrt4_count(15) == 4
    assert sorted(t for t in range(15) if (t * t - 4) % 15 == 0) == [2, 7, 8, 13]
    assert sqrt4_count(2) == 1
    assert sqrt4_count(6) == 2


def test_sqrt4_count_formula_up_to_1000():
    for q in range(1, 1001):
        try:
            got = sqrt4_count(q)
        except ValueError:
            continue
        assert got == 2 ** (nu(q) - (1 if q % 2 == 0 else 0)), q


def test_rho_t_examples():
    assert rho_t_bruteforce(3, 2) == Fraction(1, 8)
    assert rho_t_bruteforce(5, -2) == Fraction(1, 24)
    assert rho_t_bruteforce(2, 0) == Fraction(1, 3)


def test_rho_t_at_plus_minus_2():
    for p in (2, 3, 5, 7, 11, 13):
        for t in (2, -2):
            assert rho_t_bruteforce(p, t) == Fraction(1, p * p - 1)


def test_trace_fiber_closed_form():
    # internal double-entry: #{tr = t} = p^2 for t = +-2 at odd primes
    from collections import Counter

    for p in (3, 5, 7):
        counts = Counter((g.a + g.d) % p for g in sl2_enumerate(p))
        assert counts[2 % p] == p * p
        assert counts[(-2) % p] == p * p


def test_kloosterman_examples():
    assert kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
    assert kloosterman(1, 1, 5) == pytest.approx(2 + 2 * math.cos(4 * math.pi / 5), abs=1e-12)
    expected7 = 4 * math.cos(2 * math.pi / 7) + 2 * math.cos(4 * math.pi / 7)
    assert kloosterman(1, 1, 7) == pytest.approx(expected7, abs=1e-12)


def test_kloosterman_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        kloosterman(5, 1, 5)
    with pytest.raises(ValueError):
        kloosterman(1, 1, 6)


def test_kloosterman_scaling_identity():
    # K(a, b; p) = K(1, ab; p) via x -> a^{-1} x
    for p in (5, 13, 29):
        for a, b in [(2, 3), (4, 7 % p), (p - 1, 1)]:
            assert kloosterman(a, b, p) == pytest.approx(
                kloosterman(1, (a * b) % p, p), abs=1e-9
            )


def test_weil_bound_small():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                assert abs(kloosterman(a, b, p)) <= 2 * math.sqrt(p) + 1e-9


def test_charsum_zero_vector_gives_order():
    for q in (1, 2, 3, 6, 10):
        assert sl2_charsum(q, (0, 0, 0, 0)) == pytest.approx(sl2_order(q), abs=1e-9)


def test_charsum_q2_example():
    assert sl2_charsum(2, (0, 1, 0, 0)) == pytest.approx(-2, abs=1e-12)


def test_charsum_multiplicative():
    rng = random.Random(1)
    for q1, q2 in [(2, 3), (3, 5)]:
        q = q1 * q2
        for _ in range(20):
            s = tuple(rng.randrange(q) for _ in range(4))
            direct = sl2_charsum_direct(q, s)
            assert sl2_charsum(q, s) == pytest.approx(direct, abs=1e-8)


def test_charsum_weil_small_primes_exhaustive():
    for p in (2, 3, 5):
        for s in product(range(p), repeat=4):
            if all(x % p == 0 for x in s):
                continue
            assert abs(sl2_charsum(p, s)) <= 2 * p**1.5 + 1e-6


def test_charsum_weil_sampled():
    rng = random.Random(0)
    for p in (7, 11, 13):
        for _ in range(1000):
            s = tuple(rng.randrange(p) for _ in range(4))
            if all(x % p == 0 for x in s):
                continue
            assert abs(sl2_charsum(p, s)) <= 2 * p**1.5 + 1e-6


def test_charsum_composite_bound():

    rng = random.Random(7)
    for q in (6, 10, 15, 21, 30):
        bound = 2 ** nu(q) * q**1.5
        for _ in range(1000 if q > 6 else 0):
            s = tuple(rng.randrange(q) for _ in range(4))
            if not is_primitive_mod(s, q):
                continue
            assert abs(sl2_charsum(q, s)) <= bound + 1e-6
        if q == 6:  # exhaustive for the smallest composite
            for s in product(range(q), repeat=4):
                if not is_primitive_mod(s, q):
                    continue
                assert abs(sl2_charsum(q, s)) <= bound + 1e-6


def test_is_primitive_mod():
    assert is_primitive_mod((0, 1, 0, 0), 2)
    assert not is_primitive_mod((0, 2, 4, 2), 2)
    assert is_primitive_mod((3, 5, 0, 0), 15)


def test_charsum_prime_gathers_its_terms_in_chunks():
    s = (1, 2, 3, 4)
    _charsum_prime(113, s)  # fill the root-window and inverse caches
    tracemalloc.start()
    try:
        _charsum_prime(113, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # all 113^3 - 113 complex128 terms at once take 22.4 MiB
