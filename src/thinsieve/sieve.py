"""Sifting experiments on the multiset of trace^2 - 4 values.

The measured objects are the congruence counts |A_q|, their exact local
expectations beta(q) * |source|, and the resulting remainder ledger.  The
multiset is held as its trace tally, a pair of numpy arrays: the distinct
traces t >= 0 in ascending order and their multiplicities, built by
`sift_values` from one of two sources: a `BallSource`'s block walk, or a
`BilinearSet`'s traces as one integer matrix product.  The values t^2 - 4 are
formed once from the traces, ascending with them: int64 while they fit,
Python ints beyond.  The ledger, the almost-prime census and the square-free
census all read it.

The ledger walks the square-free q < Q depth first by decreasing primes,
each q reached once from its largest prime down, keeping at each node the
indices of the values that q divides: a child q p, for p below the least
prime of q, keeps those of its parent's values that p divides.  The small
primes divide the most values, and they are the ones with few primes left
below them, so the largest nodes have the fewest children.  |A_q| is one sum of
multiplicities per node, with no gcd or factorisation of a value, and the
walk holds one index array per level.  The expectations beta(q) |source| come
from `modular.densities`, one sieve over the q < Q.  A_q and the almost-prime
census take the same per-prime masks.  Python-int values are reduced modulo a
product of primes below 2^62 first, so each prime is tested in int64.
The square-free census reads the traces and decides t^2 - 4 = (t - 2)(t + 2)
by `arith.is_squarefree` on both factors.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterator

import numpy as np

from .arith import iroot, is_squarefree, primes_up_to
from .cf import word_to_matrix
from .errors import CapExceededError, InternalInvariantError
from .forms import FormCycle, cycle, is_fundamental, matrix_to_form, reduce_form
from .modular import _check_modulus, densities
from .semigroup import (
    _INT64_SAFE,
    BilinearSet,
    ball_traces,
    cyclic_classes,
    trace_histogram,
)

MAX_SIFT_SIZE = 20_000_000
MAX_T_CAP = 10**8  # discriminants: t up to 10^4

# t^2 - 4 lies in [-4, 2^63), where value // p * p cannot overflow int64,
# while 0 <= t <= isqrt(2^63 + 3)
_TRACE_MAX = isqrt((1 << 63) + 3)


def _divisible(values: np.ndarray, p: int) -> np.ndarray:
    """Mask of the int64 values p divides.  numpy divides by a scalar about
    twice as fast as it takes remainders, hence not values % p == 0."""
    return values // p * p == values


def _masks(values: np.ndarray, primes: list[int]) -> Iterator[np.ndarray]:
    """The mask of the values p divides, for each p in primes in turn.

    Python-int values are first reduced modulo the product of a run of the
    primes, kept below 2^62: one big-int pass per run, and each p of the
    run is tested on the int64 remainders.
    """
    if values.dtype != object:
        for p in primes:
            yield _divisible(values, p)
        return
    start = 0
    while start < len(primes):
        stop, m = start + 1, primes[start]
        while stop < len(primes) and m * primes[stop] < _INT64_SAFE:
            m *= primes[stop]
            stop += 1
        rest = (values % m).astype(np.int64)
        for p in primes[start:stop]:
            yield _divisible(rest, p)
        start = stop


@dataclass(frozen=True)
class BallSource:
    """Plain even-word norm ball used as the sifting source."""

    alphabet: int
    norm: float


@dataclass(frozen=True, eq=False)
class SiftingSequence:
    """Multiset {t^2 - 4} over a source set, held as its trace tally.

    `trace` holds the distinct traces t >= 0 in ascending order and `mult`
    their multiplicities (int64); `source_size` is the sum of `mult`, and
    `value` holds the values t^2 - 4, ascending with t.  `trace` and `value`
    are int64 while every t <= isqrt(2^63 + 3), Python ints otherwise.  The
    three arrays are kept as read-only views.  Raises ValueError unless the
    traces are distinct, ascending and nonnegative.
    """

    trace: np.ndarray
    mult: np.ndarray
    source_size: int = field(init=False)
    value: np.ndarray = field(init=False)

    def __post_init__(self):
        trace = self.trace
        if np.any(trace[1:] <= trace[:-1]) or (len(trace) and trace[0] < 0):
            raise ValueError("traces must be distinct, ascending and >= 0")
        wide = len(trace) and int(trace[-1]) > _TRACE_MAX
        trace = trace.astype(object if wide else np.int64, copy=False)
        for name, array in (("trace", trace), ("mult", self.mult), ("value", trace * trace - 4)):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "source_size", int(self.mult.sum()))

    @property
    def values(self) -> tuple[tuple[int, int], ...]:
        """(value, multiplicity) pairs, ascending."""
        return tuple(zip(self.value.tolist(), self.mult.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SiftingSequence):
            return NotImplemented
        return np.array_equal(self.trace, other.trace) and np.array_equal(self.mult, other.mult)

    def __hash__(self) -> int:
        return hash((self.source_size, len(self.trace)))


def sift_values(source: BilinearSet | BallSource) -> SiftingSequence:
    """Build the sifting multiset from a bilinear set or a ball.

    Each source gives one tally of its traces.  The bilinear set's traces come
    from factor-wise matrix products, never materialising the product set.
    Raises TypeError for any other source.
    """
    if isinstance(source, BilinearSet):
        if source.size > MAX_SIFT_SIZE:
            raise CapExceededError(
                f"bilinear set of size {source.size} exceeds {MAX_SIFT_SIZE}; "
                "lower --xi-bound, --aleph-bound or --omega-bound"
            )
        traces, mult = source.trace_tally()
    elif isinstance(source, BallSource):
        traces, mult = ball_traces(source.alphabet, source.norm)
    else:
        raise TypeError(f"sift_values takes a BilinearSet or a BallSource, "
                        f"not {type(source).__name__}")
    if not len(traces):
        raise ValueError("empty sifting source")
    return SiftingSequence(traces, mult)


def A_q(seq: SiftingSequence, q: int) -> int:
    """Total multiplicity of values divisible by q."""
    hit = np.ones(len(seq.value), dtype=bool)
    for divides in _masks(seq.value, _check_modulus(q, q)):  # a count: no cap
        hit &= divides
    return int(seq.mult[hit].sum())


@dataclass(frozen=True)
class RemainderRow:
    q: int
    count: int
    expected: Fraction  # beta(q) * |source|
    remainder: Fraction  # count - expected


@dataclass(frozen=True)
class RemainderProfile:
    rows: tuple[RemainderRow, ...]
    summary: Fraction  # sum_q |r(q)| / |source|
    source_size: int


def _ledger_walk(seq: SiftingSequence, cutoff: int, primes: list[int], found: dict[int, int],
                 q: int, least: int, idx: np.ndarray | None) -> None:
    """Enter in found |A_q p| for every child q p < cutoff of q, for p below q's
    least prime (primes[:least]), and every child of theirs in turn.  idx holds the indices
    of the values q divides, None at the root for all of them.  A module-level
    function, not a closure that calls itself, so no reference cycle keeps seq
    alive after the walk."""
    value = seq.value if idx is None else seq.value[idx]
    stop = bisect_right(primes, (cutoff - 1) // q, 0, least)  # q p < cutoff
    for i, divides in enumerate(_masks(value, primes[:stop])):
        hit = np.flatnonzero(divides)
        hit = hit if idx is None else idx[hit]
        child = q * primes[i]
        found[child] = int(seq.mult[hit].sum())
        _ledger_walk(seq, cutoff, primes, found, child, i, hit)


def remainder_profile(seq: SiftingSequence, cutoff: int) -> RemainderProfile:
    """Rows (q, |A_q|, beta(q)|source|, r(q)) for all square-free q < cutoff."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    moduli, num, den, _ = densities(cutoff - 1)  # beta(q) = num / den; checks the cap
    primes = primes_up_to(cutoff - 1)
    found = {1: int(seq.mult.sum())}  # q -> |A_q|
    _ledger_walk(seq, cutoff, primes, found, 1, len(primes), None)
    if len(found) != len(moduli):
        raise InternalInvariantError(f"ledger found {len(found)} moduli, densities {len(moduli)}")
    rows = []
    total = Fraction(0)
    for q, n, m in zip(moduli.tolist(), num.tolist(), den.tolist()):
        expected = Fraction(n * seq.source_size, m)
        r = found[q] - expected
        rows.append(RemainderRow(q, found[q], expected, r))
        total += abs(r)
    return RemainderProfile(tuple(rows), total / seq.source_size, seq.source_size)


def almost_prime_census(seq: SiftingSequence, z: int) -> int:
    """Count values (with multiplicity) all of whose prime factors exceed z."""
    if z < 2:
        raise ValueError("threshold must be >= 2")
    keep = seq.value >= 2
    for divides in _masks(seq.value, primes_up_to(z)):
        keep &= ~divides
    return int(seq.mult[keep].sum())


def _squarefree_trace(t: int) -> bool:
    # t^2 - 4 = (t-2)(t+2); the gcd of the factors divides 4, so for odd t the
    # product is square-free iff both factors are; for even t, 4 divides it.
    if t % 2 == 0:
        return False
    return is_squarefree(t - 2) and is_squarefree(t + 2)


def squarefree_census(seq: SiftingSequence) -> int:
    """Total multiplicity of the square-free values t^2 - 4.  The largest odd t
    asks for its primes first, so a table past the cap fails before any test."""
    traces = seq.trace.tolist()
    primes_up_to(iroot(max((t for t in traces if t % 2), default=0) + 2, 3))
    return sum(m for t, m in zip(traces, seq.mult.tolist()) if _squarefree_trace(t))


def squarefree_trace_census(alphabet: int, norm: float) -> int:
    """#{even words in the ball with trace^2 - 4 square-free}."""
    return squarefree_census(sift_values(BallSource(alphabet, norm)))


@dataclass(frozen=True)
class DiscriminantRecord:
    t: int
    discriminant: int
    multiplicity: int


def discriminant_census(
    alphabet: int,
    max_T: float,
    min_multiplicity: int = 1,
) -> list[DiscriminantRecord]:
    """All t <= sqrt(max_T) with t^2 - 4 square-free and a populous trace fiber."""
    if max_T > MAX_T_CAP:
        raise CapExceededError(f"max_T {max_T:g} exceeds cap {MAX_T_CAP:g}")
    traces = [t for t in range(3, isqrt(int(max_T)) + 1) if _squarefree_trace(t)]
    if not traces:
        return []
    # one walk up to the largest trace asked about gives every multiplicity
    multiplicity = trace_histogram(alphabet, traces[-1]).tolist()
    out = []
    for t in traces:
        m = multiplicity[t]
        if m >= min_multiplicity:
            d = t * t - 4
            if not is_fundamental(d):
                raise InternalInvariantError(f"square-free t^2-4 must be fundamental: {d}")
            out.append(DiscriminantRecord(t, d, m))
    return out


def class_census(d: int, alphabet: int) -> list[FormCycle]:
    """Distinct form classes realised by trace-t words, t = sqrt(d + 4).

    Each rotation class of the fiber is sent through its matrix's form and
    reduced; the resulting cycles are asserted pairwise distinct.
    """
    t = isqrt(max(d + 4, 0))
    if t < 3 or t * t != d + 4:
        raise ValueError(f"discriminant must be t^2 - 4 with t >= 3, got {d}")
    cycles = []
    for word in cyclic_classes(alphabet, t):
        cy = cycle(reduce_form(matrix_to_form(word_to_matrix(word))))
        cycles.append(cy)
    if len(set(cycles)) != len(cycles):
        raise InternalInvariantError("distinct rotation classes landed in one cycle")
    return cycles
