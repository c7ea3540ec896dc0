"""Small helpers: primes, factorisation, square-free tests, integer roots, a chunked sum.

``pairwise_sum`` gives numpy's ``sum`` of an array bit for bit while forming
at most LEAF scalars of it at a time, so a float sum that artifacts pin need
not hold all of its terms.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from itertools import compress
from math import isqrt

import numpy as np

from .errors import CapExceededError

LEAF = 1 << 15  # most scalars pairwise_sum forms at once
# Largest n primes_up_to sieves to: 10^7 takes 0.4 s and 40 MB on a 2-vCPU VM
PRIME_TABLE_CAP = 10**7

_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
_sieved_to = 31


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, from a cached sieve; CapExceededError past PRIME_TABLE_CAP."""
    global _primes, _sieved_to
    if n > PRIME_TABLE_CAP:
        raise CapExceededError(f"prime table to {n} exceeds cap {PRIME_TABLE_CAP}")
    if n > _sieved_to:
        limit = min(max(n, 2 * _sieved_to), PRIME_TABLE_CAP)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _primes = list(compress(range(limit + 1), sieve))
        _sieved_to = limit
    return _primes[: bisect_right(_primes, n)]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in primes_up_to(isqrt(n)):
        if n % p == 0:
            return n == p
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; fine for the desk-scale inputs here."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in primes_up_to(isqrt(n)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_squarefree(n: int) -> bool:
    """n >= 1 with no square prime factor.  Each prime up to the cube root is divided
    out once; the cofactor left is 1, p, p q or p^2, square-free unless a square."""
    if n < 1:
        return False
    for p in primes_up_to(iroot(n, 3)):
        if p * p > n:  # the cofactor is 1 or a prime
            return True
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    return n == 1 or isqrt(n) ** 2 != n


def nu(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n)) if n > 1 else 0


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, for n >= 0 and k >= 1 (exact, by bisection)."""
    if k >= n.bit_length():  # n < 2^k, so no 2^k need be formed
        return min(n, 1)
    if n < 1 << 52:  # the float root rounds to the integer root or one above it
        r = round(n ** (1 / k))
        return r - (r**k > n)
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def pairwise_sum(n: int, terms: Callable[[int, int], np.ndarray], width: int = 1):
    """``terms(0, n).sum()`` bit for bit, forming at most LEAF scalars at a time.

    terms(lo, hi) returns items lo..hi-1 as a fresh C-contiguous float64 or
    complex128 array; width is the scalars per item (2 for complex128).
    numpy sums a contiguous array of m scalars pairwise: in sequence below 8,
    in eight running sums up to 128, and above that as the sum of its two
    halves, split at m // 2 rounded down to a multiple of 8.  This recursion
    makes the same splits down to nodes of at most LEAF scalars, and sums each
    such node with numpy, whose recursion on it repeats the tree below.  numpy's
    reduction adds the tree's total to an initial 0, which only turns a -0.0
    total into 0.0, so a -0.0 leaf read as 0.0 changes no total either.
    """
    return _pairwise_node(terms, width, 0, n * width)


def _pairwise_node(terms: Callable[[int, int], np.ndarray], width: int, lo: int, m: int):
    """The sum of the m scalars from item lo on.  A module-level function, not a
    closure that calls itself, so no reference cycle keeps terms alive."""
    if m <= LEAF:
        return terms(lo, lo + m // width).sum()
    half = m // 2
    half -= half % 8
    return (_pairwise_node(terms, width, lo, half)
            + _pairwise_node(terms, width, lo + half // width, m - half))
