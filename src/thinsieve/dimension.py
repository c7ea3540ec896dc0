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

Lengths.  No level of lengths is held: ``_Level`` forms those of a range of
words, LEAF at a time for the sums and bins, from held prefix and suffix
continuant pairs (at most 46,225 prefixes within the budget, at A = 215 and
k = 3), every continuant exact: float64 below 2^53, Python ints past it.

Certified signs.  Bisection reads only the sign of g(s) = log S(s) - sign s log C,
S(s) = sum len^s, and S in full is np.power over all A^k lengths in word
order (added by ``arith.pairwise_sum``, LEAF powers at a time, as numpy's
sum of the whole array would add them).  s = 0 needs none: S(0) = A^k, and
g(0) = log A^k is 0 for alphabet 1 and positive for any other.  Each depth
is summarised once: x = -log(len) is
cut into BINS equal bins [a, a + w] spanning [min x, max x], each keeping its
count n and its mean as an offset m in [0, 1] bin widths from a.  min x and
max x are -log of the all-1 and the all-A word's lengths, the longest and
the shortest (continuants increase in every digit, and rounding is
monotone), and the points are binned LEAF at a time.  As e^{-sx} is convex,
a bin adds to S at least n e^{-s(a + m w)} (Jensen) and at most the chord
value n e^{-sa} (1 - m (1 - e^{-sw})).  A point s, a midpoint or the endpoint
s = 1, whose lower bound gives g > MARGIN is +, one whose upper bound gives
g < -MARGIN is -, and any other takes the full sum.  Every sign is then the
one the full sum gives, so the bracket is bit for bit the full bisection's.

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

import numpy as np

from .arith import LEAF, pairwise_sum
from .cf import check_word, word_to_matrix
from .errors import CapExceededError, InternalInvariantError

DEPTH_BUDGET = 10**7
MAX_DEPTH = 10**5  # deepest level; only alphabet 1 gets past depth 23 (about 0.8 s there)
TOL_CAP = 1e-2  # coarsest bisection tolerance estimate accepts
SPAN = 1 << 12  # most suffixes a level holds; see _Level
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


def _exact_in_float(alphabet: int, depth: int) -> bool:
    """Whether every (q, r) formed up to depth stays below 2^53, so float64 steps
    them exactly; the all-A word's is largest."""
    q, r = alphabet, alphabet + 1
    for _ in range(depth - 1):
        q, r = alphabet * q + r - q, alphabet * q + r
        if r >= 2**53:
            return False
    return True


def _step(q: np.ndarray, r: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend every continuant pair (q, r = q + q') by every digit d, in word order.

    The child of (q, q') by d is (d q + q', q), so r' = d q + r and q' = r' - q.
    """
    r = np.multiply.outer(q, digits) + r[:, None]
    return (r - q[:, None]).ravel(), r.ravel()


class _Level:
    """The cylinder lengths of the A^k words of depth k, in lexicographic order,
    formed a range at a time, and the bins that bound its pressure sum
    S(s) = sum len^s.

    A word is a prefix and a suffix of `below` digits, the most with
    A^below <= SPAN (one if A > SPAN, and for A = 1).  ``_step`` is linear in
    (q, r), so the word's (q, r) is q_u x + r_u y in its prefix's (q_u, r_u),
    where x and y are its suffix's pairs stepped from (q, r) = (1, 0) and
    (0, 1); every term is a nonnegative integer no larger than the word's
    own.  The prefixes' pairs are held once asked for, and so are the
    suffixes' unless below = 1: then the prefixes are stepped by the digits
    in range.
    """

    def __init__(self, alphabet: int, depth: int):
        self.alphabet, self.depth, self.n = alphabet, depth, alphabet**depth
        self.below = 1  # alphabet 1 keeps one: its one prefix is cheaper to step than two seeds
        while 1 < alphabet and self.below < depth and alphabet ** (self.below + 1) <= SPAN:
            self.below += 1
        self.span = alphabet**self.below  # words under each prefix
        self.dtype = np.float64 if _exact_in_float(alphabet, depth) else object

    def _digits(self, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo + 1, hi + 1).astype(self.dtype)

    @cached_property
    def pairs(self) -> np.ndarray:
        """The prefixes' (q, r), a row each, stepped from the empty word's (1, 1)."""
        q = r = np.ones(1, dtype=self.dtype)
        for _ in range(self.depth - self.below):
            q, r = _step(q, r, self._digits(0, self.alphabet))
        return np.stack((q, r), axis=1)

    @cached_property
    def _suffixes(self) -> tuple[np.ndarray, np.ndarray]:
        """The suffixes' q and r, stepped from (q, r) = (1, 0) in row 0 and from (0, 1) in row 1."""
        q, r = np.array([1, 0]).astype(self.dtype), np.array([0, 1]).astype(self.dtype)
        for _ in range(self.below):
            q, r = _step(q, r, self._digits(0, self.alphabet))
        return q.reshape(2, -1), r.reshape(2, -1)

    def lengths(self, lo: int, hi: int) -> np.ndarray:
        """A fresh array of 1.0 / (float(q) * float(r)) for words lo..hi-1 (hi <= n).

        The prefixes of the range are stepped by every suffix, or by the
        suffixes in range when there is one prefix, so fewer than 2 span
        pairs are formed and dropped."""
        first, last = lo // self.span, (hi - 1) // self.span  # prefixes of words lo and hi - 1
        pairs = self.pairs[first : last + 1]
        skip = lo - first * self.span  # words of the first prefix before word lo
        start, end = (skip, skip + hi - lo) if first == last else (0, self.span)  # its suffixes
        if self.below == 1:
            q, r = _step(pairs[:, 0], pairs[:, 1], self._digits(start, end))
        else:
            x, y = self._suffixes
            q, r = pairs @ x[:, start:end], pairs @ y[:, start:end]
        skip -= start
        q, r = q.ravel()[skip : skip + hi - lo], r.ravel()[skip : skip + hi - lo]
        if self.dtype == object:  # past 2^53: correctly rounded, 0.0 once it underflows
            return np.array([1 / x for x in q * r], dtype=np.float64)
        den = q * r
        return np.divide(1.0, den, out=den)

    @cached_property
    def _bins(self) -> tuple:
        """x = -log(len) in BINS equal bins: left edges, counts and widened mean offsets."""
        # the all-1 word (index 0) is the longest and the all-A word the shortest
        log_max = float(np.log(self.lengths(0, 1)[0]))  # -min x
        width = (log_max - float(np.log(self.lengths(self.n - 1, self.n)[0]))) / BINS
        scale = 1.0 / width if width > 0.0 else 0.0
        count = np.zeros(BINS, dtype=np.intp)
        offset = np.zeros(BINS)
        for lo in range(0, self.n, LEAF):
            t = self.lengths(lo, min(lo + LEAF, self.n))
            np.log(t, out=t)  # -x
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


def _cylinder_lengths(alphabet: int, depth: int) -> tuple[_Level, ...]:
    """The levels of depth k-1 and k (only k when k = 1), once the caps are checked."""
    if alphabet < 1:
        raise ValueError("alphabet bound must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise CapExceededError(f"depth {depth} exceeds cap {MAX_DEPTH}")
    # 2^bit_length > DEPTH_BUDGET, so clipping the exponent there keeps the test exact
    if alphabet ** min(depth, DEPTH_BUDGET.bit_length()) > DEPTH_BUDGET:
        raise CapExceededError(f"alphabet^depth = {alphabet}^{depth} exceeds budget {DEPTH_BUDGET}")
    return tuple(_Level(alphabet, k) for k in range(max(depth - 1, 1), depth + 1))


def pressure_sum(alphabet: int, depth: int, s: float) -> float:
    """Sum of cylinder_length(w)^s over all depth-k words; strictly decreasing in s."""
    if not isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    return float(_power_sum(_cylinder_lengths(alphabet, depth)[-1], s))


def _power_sum(level: _Level, s: float) -> float:
    """np.power(lengths, s).sum() bit for bit, with at most LEAF powers held at once."""
    return pairwise_sum(level.n, lambda lo, hi: np.power(level.lengths(lo, hi), s))


def _log_sum(level: _Level, s: float) -> float:
    """log of the pressure sum in full: the value every certified sign agrees with."""
    return log(float(_power_sum(level, s)))


def _root(level: _Level, sign: int, log_c: float, tol: float) -> float:
    """Solve  log S(s) = sign * s * log C  for s in [0, 1] by bisection."""

    def side(s: float) -> int:
        """The sign of g(s) = log S(s) - sign s log C: from the bins where
        they decide it, else from the full sum."""
        tilt = sign * s * log_c
        low, high = level.log_bounds(s)
        if low - MARGIN - tilt > 0.0:
            return 1
        if high + MARGIN - tilt < 0.0:
            return -1
        g = _log_sum(level, s) - tilt
        return (g > 0.0) - (g < 0.0)

    if level.n == 1:
        return 0.0  # g(0) = log S(0) = log A^k, 0 only for alphabet 1's one word
    lo, hi = 0.0, 1.0
    if side(hi) >= 0:
        return 1.0  # root beyond 1; clip (dimension never exceeds 1)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if side(mid) > 0:
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
    for level in _cylinder_lengths(alphabet, depth):
        lower = max(lower, _root(level, +1, log_c, tol))
        upper = min(upper, _root(level, -1, log_c, tol))
    if lower > upper + 4 * tol:
        raise InternalInvariantError("depth brackets are inconsistent")
    lower = min(lower, upper)
    return DimensionEstimate(alphabet, depth, lower, min(upper, 1.0))


def asymptote(alphabet: int) -> float:
    """Large-alphabet first-order value 1 - 6 / (pi^2 * A)."""
    return 1.0 - 6.0 / (np.pi**2 * alphabet)
