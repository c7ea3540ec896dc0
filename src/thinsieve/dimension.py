"""Hausdorff dimension of the bounded-partial-quotient Cantor set.

The set of reals whose partial quotients all lie in {1..A} is covered at
depth k by one cylinder per word; the cylinder of w has exact length
1 / (q_k (q_k + q_{k-1})) in terms of the continuant denominators of w.
The dimension is bracketed by bisecting the depth-k pressure sums against
the bounded-distortion constant

    C(A) = 1 + (sqrt(A^2 + 4A) - A) / 2,

the supremum of 1 + q_{k-1}/q_k over words with digits <= A (attained in the
limit by alternating 1, A, 1, A, ...).  Cylinder lengths satisfy
|I_uv| in [ |I_u||I_v| / C,  |I_u||I_v| * C ], so the depth-k sum pins the
pressure root from both sides:

    root of  sum len^s = C^s   <=  dim  <=  root of  sum len^s = C^-s.

Brackets from depths k and k-1 are intersected.  This is a cylinder-sum
method throughout; no transfer-operator discretisation is involved.

Certified signs.  Bisection reads only the sign of g(s) = log S(s) - sign s log C,
S(s) = sum len^s, and S in full is np.power over all A^k lengths (added by
``arith.pairwise_sum``, LEAF powers at a time, as numpy's sum of the whole
array would add them).  So each depth is summarised once: x = -log(len) is
cut into BINS equal bins [a, a + w] spanning [min x, max x], each keeping its
count n and its mean as an offset m in [0, 1] bin widths from a.  min x and
max x are -log of the longest and the shortest length, and the points are
binned LEAF at a time.  As e^{-sx} is convex, a bin adds
to S at least n e^{-s(a + m w)} (Jensen) and at most the chord value
n e^{-sa} (1 - m (1 - e^{-sw})).  A midpoint whose lower bound gives
g > MARGIN is +, one whose upper bound gives g < -MARGIN is -, and any
other, like the endpoints s = 0 and 1, takes the full sum.  Every sign is
then the one the full sum gives, so the bracket is bit for bit the full
bisection's.

Error budget (u = 2^-53; N <= DEPTH_BUDGET terms; x < 64, as
x <= log 2 + 2k log(A + 1) when A^k <= DEPTH_BUDGET and A >= 2, while the
one word of alphabet 1 stops the bisection at s = 0):
  * the full sum: np.power errs by a few ulp per term, numpy's pairwise sum
    by under (log2 N + 16) u relatively, log by an ulp of |log S| < 64:
    under 1e-13 in g;
  * the computed x: even 10^3 ulp of error in np.log moves each e^{-sx} by
    a factor within e^{+-2e-11}, and binning moves each point into its bin
    by at most 8u (max x - min x).  min x and w come from the logs of the
    extreme lengths alone; np.log is monotone up to its rounding, so a
    point's x - min x can fall outside [0, BINS w] by a few ulp at most, and
    clipping it back moves the point by no more than that;
  * the bin means: np.bincount adds a bin's offsets in sequence within each
    chunk, and the chunks' sums are then added in turn.  In any order, a sum
    of n offsets in [0, 1] errs by at most (n - 1) u n to first order, so the
    mean errs by (n - 1) u bin widths plus u for the division, and every mean
    is widened by n 2^-52 in the direction that weakens its bound; this holds
    for any BINS and any chunk size;
  * the bounds themselves: exp, expm1, the sum of at most BINS terms and
    the final log err by under 1e-13.
MARGIN = 1e-9 exceeds the sum of these by more than an order of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import expm1, isfinite, log, sqrt
from typing import Iterator

import numpy as np

from .arith import LEAF, pairwise_sum
from .cf import check_word, word_to_matrix
from .errors import CapExceededError, InternalInvariantError

DEPTH_BUDGET = 10**7
MAX_DEPTH = 10**5  # deepest level; only alphabet 1 gets past depth 23 (about 0.8 s there)
TOL_CAP = 1e-2  # coarsest bisection tolerance estimate accepts
BINS = 4096  # equal log-length bins of the certified-sign summary
MARGIN = 1e-9  # slack on every certified sign; see the error budget above


def cylinder_length(word) -> Fraction:
    """Exact length of the interval of reals [0; word, ...] with arbitrary tails."""
    w = check_word(word)
    if not w:
        raise ValueError("cylinder of the empty word is the whole interval")
    m = word_to_matrix(w)
    q, q_prev = m.a, m.b  # continuant denominators of [0; w]
    return Fraction(1, q * (q + q_prev))


def distortion_constant(alphabet: int) -> float:
    """Sharp bound C with |I_uv| within a factor C of |I_u| * |I_v|."""
    if alphabet < 1:
        raise ValueError("alphabet bound must be >= 1")
    a = alphabet
    return 1.0 + (sqrt(a * a + 4.0 * a) - a) / 2.0


def _fits_int64(alphabet: int, depth: int) -> bool:
    """Whether every (q, r) formed up to depth stays below 2^62; the all-A word's is largest."""
    q, r = alphabet, alphabet + 1
    for _ in range(depth - 1):
        q, r = alphabet * q + r - q, alphabet * q + r
        if r > 2**62:
            return False
    return True


def _step(q: np.ndarray, r: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend every continuant pair (q, r = q + q') by every digit d, in word order.

    The child of (q, q') by d is (d q + q', q), so r' = d q + r and q' = r' - q.
    """
    r = np.multiply.outer(q, digits) + r[:, None]
    return (r - q[:, None]).ravel(), r.ravel()


def _cylinder_lengths(alphabet: int, depth: int) -> Iterator[np.ndarray]:
    """Float64 cylinder lengths of every word at depth k-1, then at depth k
    (only k when k = 1), one level at a time.

    Words run in lexicographic order, and the length of a word with pair
    (q, r) is 1 / (q r), taken as 1.0 / (float(q) * float(r)).  The caps are
    checked and the pairs stepped by ``_step`` from the empty word's (1, 1) to
    depth k-2 when this is called; each level is then filled from chunks of
    those parents, stepped for their children, and at depth k those children
    again for theirs.  A step forms at most LEAF children (one parent's
    digits are split when A > LEAF), so no pair array of either level is
    formed whole, and depth k is filled only once the caller asks for it,
    after it has dropped depth k-1.  Continuants that could pass 2^62 (only
    alphabet 1 gets there within the budget) are Python ints, and their
    lengths the correctly rounded 1 / (q r), 0.0 once it underflows.
    """
    if alphabet < 1:
        raise ValueError("alphabet bound must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise CapExceededError(f"depth {depth} exceeds cap {MAX_DEPTH}")
    # 2^bit_length > DEPTH_BUDGET, so clipping the exponent there keeps the test exact
    if alphabet ** min(depth, DEPTH_BUDGET.bit_length()) > DEPTH_BUDGET:
        raise CapExceededError(f"alphabet^depth = {alphabet}^{depth} exceeds budget {DEPTH_BUDGET}")
    dtype = np.int64 if _fits_int64(alphabet, depth) else object
    q = r = np.ones(1, dtype=dtype)  # the empty word: q = 1, q' = 0
    parent_depth = max(depth - 2, 0)
    for _ in range(parent_depth):
        q, r = _step(q, r, np.arange(1, alphabet + 1).astype(dtype))
    return _levels(q, r, alphabet, depth - parent_depth)


def _levels(q: np.ndarray, r: np.ndarray, alphabet: int, levels: int) -> Iterator[np.ndarray]:
    """The lengths of the words 1, 2, ..., levels digits below the pairs (q, r), a level at a time."""
    for below in range(1, levels + 1):
        out = np.empty(len(q) * alphabet**below)
        _fill(out, q, r, 0, below, alphabet)
        yield out
        del out


def _fill(out: np.ndarray, q: np.ndarray, r: np.ndarray, start: int, below: int, alphabet: int) -> None:
    """Write into out the lengths of the words `below` digits under the pairs
    start, start + 1, ... of their level, from at most LEAF children at a time."""
    per = max(LEAF // alphabet, 1)  # parents stepped at once
    span = min(alphabet, LEAF)  # digits stepped at once: all of them unless per = 1
    for lo in range(0, len(q), per):
        for d in range(0, alphabet, span):
            digits = np.arange(d + 1, min(d + span, alphabet) + 1).astype(q.dtype)
            q_c, r_c = _step(q[lo : lo + per], r[lo : lo + per], digits)
            first = (start + lo) * alphabet + d
            if below > 1:
                _fill(out, q_c, r_c, first, below - 1, alphabet)
                continue
            den = out[first : first + len(q_c)]
            if q_c.dtype == object:
                den[:] = [1 / x for x in q_c * r_c]
            else:
                np.multiply(q_c, r_c, out=den, dtype=np.float64)
                np.divide(1.0, den, out=den)


def pressure_sum(alphabet: int, depth: int, s: float) -> float:
    """Sum of cylinder_length(w)^s over all depth-k words; strictly decreasing in s."""
    if not isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    *_, lengths = _cylinder_lengths(alphabet, depth)
    return float(_power_sum(lengths, s))


def _power_sum(lengths: np.ndarray, s: float) -> float:
    """np.power(lengths, s).sum() bit for bit, with at most LEAF powers held at once."""
    return pairwise_sum(len(lengths), lambda lo, hi: np.power(lengths[lo:hi], s))


def _log_sum(lengths: np.ndarray, s: float) -> float:
    """log of the pressure sum in full: the value every certified sign agrees with."""
    return log(float(_power_sum(lengths, s)))


class _Pressure:
    """The pressure sum S(s) = sum len^s of one depth: in full, and bounded from bins."""

    def __init__(self, lengths: np.ndarray):
        self.lengths = lengths
        self._full: dict[float, float] = {}  # shared by the two roots' endpoints

    def log_sum(self, s: float) -> float:
        if s not in self._full:
            self._full[s] = _log_sum(self.lengths, s)
        return self._full[s]

    @cached_property
    def _bins(self) -> tuple:
        """x = -log(len) in BINS equal bins: left edges, counts and widened mean offsets."""
        lengths = self.lengths
        log_max = float(np.log(lengths.max()))  # -min x
        width = (log_max - float(np.log(lengths.min()))) / BINS
        scale = 1.0 / width if width > 0.0 else 0.0
        count = np.zeros(BINS, dtype=np.intp)
        offset = np.zeros(BINS)
        for lo in range(0, len(lengths), LEAF):
            t = np.log(lengths[lo : lo + LEAF])  # -x
            np.subtract(log_max, t, out=t)  # x - min x
            t *= scale
            np.clip(t, 0.0, np.nextafter(BINS, 0), out=t)  # into the BINS bins
            bin_of = t.astype(np.intp)
            t -= bin_of  # offset from the bin's left edge, in [0, 1) bin widths
            count += np.bincount(bin_of, minlength=BINS)
            offset += np.bincount(bin_of, weights=t, minlength=BINS)
        full = np.flatnonzero(count)
        n = count[full].astype(np.float64)
        mean = offset[full] / n
        slack = n * 2.0**-52  # the offsets' summation error, in bin widths
        m_lo = np.clip(mean - slack, 0.0, 1.0)
        m_hi = np.clip(mean + slack, 0.0, 1.0)
        left = full * width
        return -log_max, width, n, left, left + width * m_hi, m_lo

    def log_bounds(self, s: float) -> tuple[float, float]:
        """Rigorous (lower, upper) bounds on log S(s), up to the rounding MARGIN covers."""
        x_min, width, n, left, mean_hi, m_lo = self._bins
        lower = (n * np.exp(-s * mean_hi)).sum()  # Jensen, per bin
        upper = (n * np.exp(-s * left) * (1.0 + m_lo * expm1(-s * width))).sum()  # chord
        return log(float(lower)) - s * x_min, log(float(upper)) - s * x_min


def _root(pressure: _Pressure, sign: int, log_c: float, tol: float) -> float:
    """Solve  log S(s) = sign * s * log C  for s in [0, 1] by bisection."""

    def g(s: float) -> float:
        return pressure.log_sum(s) - sign * s * log_c

    lo, hi = 0.0, 1.0
    g_lo = g(lo)
    if g_lo == 0.0:
        return 0.0
    if g_lo < 0.0:
        raise InternalInvariantError("pressure not bracketed at s = 0")
    if g(hi) >= 0.0:
        return 1.0  # root beyond 1; clip (dimension never exceeds 1)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        low, high = pressure.log_bounds(mid)
        tilt = sign * mid * log_c
        if low - MARGIN - tilt > 0.0:
            positive = True
        elif high + MARGIN - tilt < 0.0:
            positive = False
        else:
            positive = g(mid) > 0.0
        if positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DimensionEstimate:
    alphabet: int
    depth: int
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise InternalInvariantError("dimension bracket out of order")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def estimate(alphabet: int, depth: int, tol: float = 1e-6) -> DimensionEstimate:
    """Bracket the dimension using the pressure sums at depths k-1 and k.

    lower and upper are bisection midpoints, each within tol/2 of the pressure
    root it approximates (0 and 1 are exact clips), so the dimension lies in
    [lower - tol/2, upper + tol/2].  tol must lie in [1e-6, TOL_CAP].
    """
    if not 1e-6 <= tol <= TOL_CAP:
        raise ValueError(f"tol must lie in [1e-6, {TOL_CAP}], got {tol!r}")
    log_c = log(distortion_constant(alphabet))
    lower, upper = 0.0, 1.0
    for lengths in _cylinder_lengths(alphabet, depth):
        pressure = _Pressure(lengths)
        lower = max(lower, _root(pressure, +1, log_c, tol))
        upper = min(upper, _root(pressure, -1, log_c, tol))
        del lengths, pressure  # so the next level is filled without this one
    if lower > upper + 4 * tol:
        raise InternalInvariantError("depth brackets are inconsistent")
    lower = min(lower, upper)
    return DimensionEstimate(alphabet, depth, lower, min(upper, 1.0))


def asymptote(alphabet: int) -> float:
    """Large-alphabet first-order value 1 - 6 / (pi^2 * A)."""
    return 1.0 - 6.0 / (np.pi**2 * alphabet)
