"""Exact computations over SL2(Z/q) for square-free q.

Composite moduli are handled prime-by-prime through the CRT, so the cost of
every operation scales with the sum (not the product) of the prime cubes.
Densities are exact rationals; only the exponential sums use floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import tau

import numpy as np

from .arith import factorize, is_prime, pairwise_sum, primes_up_to
from .errors import CapExceededError

DEFAULT_MODULUS_CAP = 120
DENSITY_MODULUS_CAP = 10**6  # beta, sqrt4_count and densities


def _check_modulus(q: int, cap: int) -> list[int]:
    if q < 1:
        raise ValueError("modulus must be positive")
    if q > cap:
        raise CapExceededError(f"modulus {q} exceeds cap {cap}")
    exponents = factorize(q)
    if max(exponents.values(), default=1) > 1:
        raise ValueError(f"modulus must be square-free, got {q}")
    return sorted(exponents)


def sl2_order(q: int) -> int:
    """|SL2(Z/q)| = q^3 prod_{p|q} (1 - 1/p^2) for square-free q."""
    order = 1
    for p in _check_modulus(q, q):  # a formula: no cap
        order *= p * (p - 1) * (p + 1)
    return order


@lru_cache(maxsize=32)
def _inverses(p: int) -> np.ndarray:
    """x^-1 mod p at index x of a read-only int64 array of length p (0 at index 0)."""
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=32)
def _sl2_table(p: int) -> np.ndarray:
    """All of SL2(F_p) as a read-only int32 array of p^3 - p rows (a, b, c, d).

    Rows ascend in (a, b), with p rows per nonzero first row: c runs over F_p
    (d = (1 + bc)/a) when a != 0, and d runs over F_p (c = -1/b) when a = 0.
    Entries stay below p, so int32 holds their products for every p whose
    table fits in memory.  ``_trace_counts`` reads it; the character sums do
    not, but they add their terms in this row order, so the order is fixed.
    """
    inv = _inverses(p).astype(np.int32)
    run = np.arange(p, dtype=np.int32)
    first = np.arange(1, p * p, dtype=np.int32)[:, None]  # a p + b, (0, 0) left out
    table = np.empty((p * p - 1, p, 4), dtype=np.int32)
    table[..., 0] = first // p
    table[..., 1] = first % p
    table[: p - 1, :, 2] = -inv[1:, None] % p  # a = 0: the p - 1 rows (0, b)
    table[: p - 1, :, 3] = run
    table[p - 1 :, :, 2] = run  # a != 0
    table[p - 1 :, :, 3] = (1 + table[p - 1 :, :, 1] * run) % p * inv[first[p - 1 :] // p] % p
    table = table.reshape(-1, 4)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _trace_counts(p: int) -> tuple[int, ...]:
    """Elements of SL2(F_p) per trace mod p, for a prime p up to DEFAULT_MODULUS_CAP."""
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    _check_modulus(p, DEFAULT_MODULUS_CAP)
    table = _sl2_table(p)
    return tuple(np.bincount((table[:, 0] + table[:, 3]) % p, minlength=p).tolist())


def beta(q: int) -> Fraction:
    """Multiplicative local density of the event  trace^2 = 4  on SL2(Z/q).

    At a prime:  beta(p) = ((1 + [p != 2]) / p) * (1 + 1/(p^2 - 1)).
    """
    primes = _check_modulus(q, DENSITY_MODULUS_CAP)
    out = Fraction(1)
    for p in primes:
        out *= Fraction(1 + (1 if p != 2 else 0), p) * (1 + Fraction(1, p * p - 1))
    return out


def beta_bruteforce(p: int) -> Fraction:
    """#{g in SL2(p) : tr(g)^2 = 4 mod p} / |SL2(p)|, by full enumeration."""
    counts = _trace_counts(p)
    hits = sum(counts[t] for t in range(p) if (t * t - 4) % p == 0)
    return Fraction(hits, sl2_order(p))


def sqrt4_count(q: int) -> int:
    """#{t mod q : t^2 = 4 mod q}, counted directly in one pass over t < q."""
    _check_modulus(q, DENSITY_MODULUS_CAP)
    t = np.arange(q, dtype=np.int64)  # t^2 < 2^63 below the cap
    return int(np.count_nonzero((t * t - 4) % q == 0))


def densities(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every square-free q <= n, ascending, with beta(q) = num / den in lowest
    terms and sqrt4_count(q): the int64 arrays (q, num, den, count).

    By the CRT the count rho(q) is multiplicative, and t = +-2 are the roots
    mod a prime (one root mod 2).  beta(p) = rho(p) p / (p^2 - 1), so beta(q)
    = rho(q) q / J2(q) with J2(q) = prod_{p | q} (p^2 - 1).  One sieve over
    the primes <= n builds rho and J2 and strikes the multiples of squares;
    rho(q) q and J2(q) are at most q^2 <= 10^12, so the gcd that reduces them
    is exact in int64.
    """
    if n > DENSITY_MODULUS_CAP:
        raise CapExceededError(f"modulus {n} exceeds cap {DENSITY_MODULUS_CAP}")
    rho = np.ones(n + 1, dtype=np.int64)
    j2 = np.ones(n + 1, dtype=np.int64)
    free = np.ones(n + 1, dtype=bool)
    free[0] = False
    for p in primes_up_to(n):
        rho[p::p] *= 1 + (p != 2)
        j2[p::p] *= p * p - 1
        free[p * p :: p * p] = False
    q = np.flatnonzero(free)
    count, den = rho[q], j2[q]
    num = count * q
    g = np.gcd(num, den)
    return q, num // g, den // g, count


def rho_t_bruteforce(p: int, t: int) -> Fraction:
    """Average over SL2(p) of the complete sum over r != 0 of e_p(r (tr - t)).

    The inner sum is p - 1 on the trace fiber and -1 off it, so the whole
    expression equals (p * #{tr = t} - |SL2(p)|) / |SL2(p)| exactly.
    """
    counts = _trace_counts(p)
    fiber = counts[t % p]
    order = sl2_order(p)
    return Fraction(p * fiber - order, order)


def kloosterman(a: int, b: int, p: int) -> float:
    """K(a, b; p) = sum over x != 0 of e_p(a x + b x^{-1}); real by x -> -x symmetry.

    The terms cos(tau * phase / p) are added left to right over x = 1..p-1
    (a cumulative sum, not numpy's pairwise one), so the float is the one a
    term-by-term loop gives.
    """
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    if (a * b) % p == 0:
        raise ValueError("degenerate Kloosterman sum")
    x = np.arange(p, dtype=np.int64)
    phase = (a % p * x + b % p * _inverses(p))[1:] % p  # below 2 p^2 < 2^63
    return float(np.cumsum(np.cos(tau * phase / p))[-1])


@lru_cache(maxsize=32)
def _root_windows(p: int) -> np.ndarray:
    """Every length-p run of roots of unity that a block of SL2 rows can take.

    Row b < p of the (2p, 2p) table is R_b twice over, R_b[i] = E[b i mod p]
    for E = np.exp(2j * np.pi * np.arange(p) / p); row p + a is E[a] 2p times.
    The result is its read-only (2p, p + 1, p) sliding window view.
    """
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    steps = np.outer(np.arange(p), np.arange(2 * p)) % p
    table = np.concatenate((roots[steps], np.repeat(roots[:, None], 2 * p, axis=1)))
    return np.lib.stride_tricks.sliding_window_view(table, p, axis=1)


def _charsum_prime(p: int, s: tuple[int, int, int, int]) -> complex:
    """Sum of e_p(a x + b y + c z + d w) over SL2(F_p), for s reduced mod p.

    Each block of p rows of ``_sl2_table(p)`` with a fixed (a, b) has phase
    alpha + beta j in its running entry j: alpha = b y - z / b, beta = w
    when a = 0, and alpha = a x + b y + w / a, beta = z + b w / a otherwise.
    Its terms are E[alpha + beta j] = R_beta[j + alpha / beta], one window of
    ``_root_windows``, or p copies of E[alpha] when beta = 0.  So the terms
    are the table's floats in its row order, and ``pairwise_sum`` adds them
    as numpy's sum over one array of them would, bit for bit, gathering only
    the windows of the blocks that each leaf of its tree overlaps.
    """
    x, y, z, w = s
    inv = _inverses(p)
    b = np.arange(p, dtype=np.int64)
    a, a_inv = b[1:, None], inv[1:, None]  # the a != 0 blocks: a row per a, a column per b
    alpha = np.concatenate(((b[1:] * y - inv[1:] * z) % p,  # the a = 0 blocks, b = 1..p-1
                            ((a * x + b * y + a_inv * w) % p).ravel()))
    beta = np.concatenate((np.full(p - 1, w), ((z + a_inv * b * w) % p).ravel()))
    row = np.where(beta, beta, p + alpha)
    shift = alpha * inv[beta] % p  # 0 where beta = 0, as inv[0] = 0
    windows = _root_windows(p)

    def terms(lo: int, hi: int) -> np.ndarray:  # terms lo..hi-1, from blocks lo // p on
        first, last = lo // p, -(-hi // p)
        return windows[row[first:last], shift[first:last]].ravel()[lo - first * p : hi - first * p]

    return complex(pairwise_sum(len(row) * p, terms, 2))


def sl2_charsum(q: int, s: tuple[int, int, int, int]) -> complex:
    """sum over SL2(Z/q) of e_q(a x + b y + c z + d w) for s = (x, y, z, w).

    Multiplicative in q: computed prime-by-prime with the CRT scaling
    s -> ((q/p)^{-1} mod p) * s.
    """
    if len(tuple(s)) != 4:
        raise ValueError("s must be a 4-vector")
    primes = _check_modulus(q, DEFAULT_MODULUS_CAP)
    out = complex(1.0)
    for p in primes:
        u = pow((q // p) % p, -1, p)
        sp = tuple((u * x) % p for x in s)
        out *= _charsum_prime(p, sp)
    return out
