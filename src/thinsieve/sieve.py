"""Sifting experiments on the multiset of trace^2 - 4 values.

The measured objects are the congruence counts |A_q|, their exact local
expectations beta(q) * |source|, and the resulting remainder ledger.  For a
square-free q whose primes are all <= z, q divides a value exactly when it
divides the value's gcd with the product of the primes <= z.  So the ledger
reduces each distinct value once, to that gcd, and credits its multiplicity to
every square-free divisor below the cutoff; the almost-prime census is one gcd
per value.  Square-freeness of t^2 - 4 is decided by trial division.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod, sqrt
from typing import Callable, Iterable

from .arith import is_squarefree, primes_up_to
from .cf import word_to_matrix
from .errors import CapExceededError, InternalInvariantError
from .forms import FormCycle, cycle, is_fundamental, matrix_to_form, reduce_form
from .modular import beta
from .semigroup import (
    BilinearSet,
    SemigroupElement,
    ball_traces,
    cyclic_classes,
    trace_histogram,
)

MAX_SIFT_SIZE = 20_000_000


@dataclass(frozen=True)
class BallSource:
    """Plain even-word norm ball used as the sifting source."""

    alphabet: int
    norm: float


@dataclass(frozen=True)
class SiftingSequence:
    """Multiset {trace^2 - 4} over a source set, with its norm parameter."""

    values: tuple[tuple[int, int], ...]  # (value, multiplicity), sorted
    source_size: int
    norm_bound: float

    @property
    def T(self) -> float:
        return self.norm_bound * self.norm_bound

    @classmethod
    def from_values(cls, values: Iterable[int], norm_bound: float = 0.0) -> "SiftingSequence":
        counts = Counter(values)
        size = sum(counts.values())
        if not norm_bound:
            top = max(counts, default=-4)
            if top < -4:
                raise ValueError(f"no trace gives {top} = t^2 - 4; pass norm_bound")
            norm_bound = sqrt(top + 4.0)
        return cls(tuple(sorted(counts.items())), size, norm_bound)


def sift_values(source) -> SiftingSequence:
    """Build the sifting multiset from a bilinear set, a ball, or explicit elements.

    Bilinear sources are streamed: traces of the triple products are formed
    factor-wise, never materialising the product set.
    """
    if isinstance(source, BilinearSet):
        if source.size > MAX_SIFT_SIZE:
            raise CapExceededError(
                f"bilinear set of size {source.size} exceeds {MAX_SIFT_SIZE}; "
                "lower --xi-bound, --aleph-bound or --omega-bound"
            )
        counts = Counter(t * t - 4 for t in source.iter_traces())
        return SiftingSequence(tuple(sorted(counts.items())), source.size, source.norm_bound())
    if isinstance(source, BallSource):
        traces, mult = ball_traces(source.alphabet, source.norm)
        if not len(traces):
            raise ValueError("empty sifting source")
        values = tuple((t * t - 4, m) for t, m in zip(traces.tolist(), mult.tolist()))
        return SiftingSequence(values, int(mult.sum()), float(source.norm))
    elements = [
        e if isinstance(e, SemigroupElement) else SemigroupElement.from_word(e)
        for e in source
    ]
    if not elements:
        raise ValueError("empty sifting source")
    counts = Counter(e.trace * e.trace - 4 for e in elements)
    norm = sqrt(max(e.norm_sq for e in elements))
    return SiftingSequence(tuple(sorted(counts.items())), len(elements), norm)


def A_q(seq: SiftingSequence, q: int) -> int:
    """Total multiplicity of values divisible by q."""
    if q < 1 or not is_squarefree(q):
        raise ValueError(f"modulus must be square-free and positive, got {q}")
    return sum(mult for value, mult in seq.values if value % q == 0)


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


def _primorial(n: int) -> int:
    """Product of the primes <= n (1 when there are none)."""
    return prod(primes_up_to(n))


def remainder_profile(seq: SiftingSequence, cutoff: int) -> RemainderProfile:
    """Rows (q, |A_q|, beta(q)|source|, r(q)) for all square-free q < cutoff."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    primorial = _primorial(cutoff - 1)
    kernels: Counter = Counter()  # gcd(value, primorial) -> multiplicity
    for value, mult in seq.values:
        kernels[gcd(value, primorial)] += mult
    counts: Counter = Counter()
    small = primes_up_to(cutoff - 1)
    for kernel, mult in kernels.items():
        divisors = [1]
        for p in small:
            if p * p > kernel:  # what is left is 1 or a prime
                break
            if kernel % p == 0:
                divisors += [d * p for d in divisors if d * p < cutoff]
                kernel //= p
        if kernel > 1:
            divisors += [d * kernel for d in divisors if d * kernel < cutoff]
        for q in divisors:
            counts[q] += mult
    rows = []
    total = Fraction(0)
    for q in range(1, cutoff):
        if not is_squarefree(q):
            continue
        count = counts[q]
        expected = beta(q) * seq.source_size
        r = count - expected
        rows.append(RemainderRow(q, count, expected, r))
        total += abs(r)
    return RemainderProfile(tuple(rows), total / seq.source_size, seq.source_size)


def almost_prime_census(seq: SiftingSequence, z: int) -> int:
    """Count values (with multiplicity) all of whose prime factors exceed z."""
    if z < 2:
        raise ValueError("threshold must be >= 2")
    primorial = _primorial(z)
    return sum(mult for value, mult in seq.values if value >= 2 and gcd(value, primorial) == 1)


def _squarefree_trace(t: int) -> bool:
    # t^2 - 4 = (t-2)(t+2); the gcd of the factors divides 4, so for odd t the
    # product is square-free iff both factors are; for even t, 4 divides it.
    if t % 2 == 0:
        return False
    return is_squarefree(t - 2) and is_squarefree(t + 2)


def squarefree_trace_census(alphabet: int, norm: float) -> int:
    """#{even words in the ball with trace^2 - 4 square-free}."""
    traces, mult = ball_traces(alphabet, norm)
    return sum(m for t, m in zip(traces.tolist(), mult.tolist()) if _squarefree_trace(t))


@dataclass(frozen=True)
class DiscriminantRecord:
    t: int
    discriminant: int
    multiplicity: int


def discriminant_census(
    alphabet: int,
    max_T: float,
    min_multiplicity: int | Callable[[int], int] = 1,
) -> list[DiscriminantRecord]:
    """All t <= sqrt(max_T) with t^2 - 4 square-free and a populous trace fiber."""
    if max_T > 1e8:
        raise CapExceededError("max_T capped at 1e8 (t up to 1e4)")
    need = min_multiplicity if callable(min_multiplicity) else (lambda _t: min_multiplicity)
    traces = [t for t in range(3, isqrt(int(max_T)) + 1) if _squarefree_trace(t)]
    if not traces:
        return []
    # one walk up to the largest trace asked about gives every multiplicity
    multiplicity = trace_histogram(alphabet, traces[-1]).tolist()
    out = []
    for t in traces:
        m = multiplicity[t]
        if m >= need(t):
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
    t = isqrt(d + 4)
    if t * t != d + 4:
        raise ValueError("discriminant must have the form t^2 - 4")
    cycles = []
    for word in cyclic_classes(alphabet, t):
        cy = cycle(reduce_form(matrix_to_form(word_to_matrix(word))))
        cycles.append(cy)
    if len(set(cycles)) != len(cycles):
        raise InternalInvariantError("distinct rotation classes landed in one cycle")
    return cycles
