"""Exact continued fractions for quadratic irrationals, and the word/matrix/surd dictionary.

A *word* is a tuple of integer partial quotients a_j >= 1; it maps to the
integer matrix  prod_j [[a_j, 1], [1, 0]],  whose determinant is (-1)^len, and
is read back from the matrix's first column.  A hyperbolic matrix fixes the
exact surd (p + sqrt(d))/q of fixed_point, and every predicate on surds
(floors, reducedness) is decided in integer arithmetic from one root isqrt(d)
-- no floating point enters any decision.  forms and geodesics take each of
these steps from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, sqrt

from .errors import CapExceededError, InternalInvariantError

Word = tuple[int, ...]

# Digits cf_expand forms at most: 2 x 10^6 take about 1 s on a 2-vCPU VM
CF_MAX_STEPS = 2_000_000


def check_word(word) -> Word:
    """Validate digits (>= 1); return as a tuple."""
    w = tuple(int(a) for a in word)
    if any(a < 1 for a in w):
        raise ValueError(f"word digits must be >= 1, got {w}")
    return w


def rotations(word: Word) -> list[Word]:
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


def canonical_rotation(word: Word) -> Word:
    """Lexicographically least rotation; canonical representative of a cyclic class.

    Linear time: two candidate starts i != j are compared along the doubled
    word.  When their first k digits agree and digit k of start i is the
    larger, no start in i..i+k begins the least rotation (start j+t beats
    start i+t), so i jumps to i+k+1; likewise for j.  Each comparison either
    extends k or moves a start past k+1 digits, so at most 3n are made.
    """
    w = tuple(word)
    n = len(w)
    ww = w + w
    i, j, k = 0, 1, 0
    while j < n and k < n:
        x, y = ww[i + k], ww[j + k]
        if x == y:
            k += 1
            continue
        if x > y:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        i, j, k = min(i, j), max(i, j), 0
    return ww[i : i + n]


@dataclass(frozen=True)
class Mat2:
    """Integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def norm_sq(self) -> int:
        """Squared Frobenius norm: sum of squared entries = tr(g g^t)."""
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("negative matrix powers are not used here")
        out, base = IDENTITY, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def mod(self, q: int) -> tuple[int, int, int, int]:
        return (self.a % q, self.b % q, self.c % q, self.d % q)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(1, 0, 0, 1)


def word_to_matrix(word) -> Mat2:
    w = check_word(word)
    if not w:
        raise ValueError("empty word has no canonical matrix")
    return Mat2(*_continuants(w))


def word_from_matrix(m: Mat2) -> Word | None:
    """Inverse of word_to_matrix, or None when m is not a product of generators.

    The first column has a/c = [g1; g2, ..., gn], so Euclid on (a, c) reads the
    digits left to right.  Its last quotient g may also end the word as
    (g - 1, 1); the determinant (-1)^n settles which.  The one candidate is
    checked against m: the generators form a free semigroup, so it is the word
    whenever m has one.
    """
    if m == IDENTITY:
        return ()
    x, y = m.a, m.c
    if x < 1 or y < 1:
        return None
    digits = []
    while y:
        digits.append(x // y)
        x, y = y, x % y
    if (len(digits) % 2 == 0) != (m.det == 1):
        digits[-1] -= 1
        digits.append(1)
    w = tuple(digits)
    return w if min(w) >= 1 and _continuants(w) == m.entries() else None


def _continuants(word: Word, max_bits: int | None = None) -> tuple[int, int, int, int]:
    """Entries of the product of the word's generators, by the continuant
    recurrence on plain ints.  The top-left entry is the largest and only grows
    along the word, so with max_bits a word is refused (CapExceededError) at the
    first digit that takes it past max_bits bits, whatever the word's length."""
    a, b, c, d = 1, 0, 0, 1
    for digit in word:
        a, b, c, d = a * digit + b, a, c * digit + d, c
        if max_bits is not None and a.bit_length() > max_bits:
            raise CapExceededError(f"word's matrix entry exceeds cap {max_bits} bits")
    return a, b, c, d


# ---------------------------------------------------------------------------
# quadratic irrationals


def _reduced(p: int, q: int, s: int) -> bool:
    """(p + sqrt(d))/q is reduced, for s = isqrt(d) and d non-square: as s < sqrt(d) < s + 1,
    this is p < sqrt(d) < p + q and q - p < sqrt(d), so 0 < p and 0 < q."""
    return p <= s < p + q and q - p <= s


def _floor_surd(p: int, s: int, q: int) -> int:
    """Exact floor of (p + sqrt(d)) / q for nonzero q, s = isqrt(d) and d non-square."""
    if q > 0:
        return (p + s) // q
    return (-p - s - 1) // (-q)


@dataclass(frozen=True)
class Surd:
    """Quadratic irrational (p + sqrt(d)) / q, normalised so that q | d - p**2."""

    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"d must be a positive non-square, got {self.d}")
        if self.q == 0 or (self.d - self.p * self.p) % self.q != 0:
            raise ValueError("unnormalized surd")

    @classmethod
    def make(cls, p: int, d: int, q: int) -> "Surd":
        """Build (p + sqrt(d))/q, rescaling by |q| when q does not divide d - p**2."""
        if q == 0:
            raise ValueError("unnormalized surd")
        if (d - p * p) % q != 0:
            s = abs(q)
            return cls(p * s, d * s * s, q * s)
        return cls(p, d, q)

    def __str__(self) -> str:
        return f"({self.p}+sqrt({self.d}))/{self.q}"

    def __float__(self) -> float:
        return (self.p + sqrt(self.d)) / self.q

    def conjugate(self) -> "Surd":
        return Surd(-self.p, self.d, -self.q)

    def floor(self) -> int:
        return _floor_surd(self.p, isqrt(self.d), self.q)


def is_reduced(x: Surd) -> bool:
    """True iff x > 1 and its Galois conjugate lies strictly in (-1, 0)."""
    return _reduced(x.p, x.q, isqrt(x.d))


def fixed_point(m: Mat2) -> Surd:
    """Attracting fixed point (a - d + sqrt(tr^2 - 4)) / (2c) of a hyperbolic matrix;
    c != 0, as a determinant-1 integer matrix with c = 0 has trace +-2."""
    if m.det != 1:
        raise ValueError("fixed points are defined for determinant +1 matrices")
    t = m.trace
    if t * t <= 4:
        raise ValueError("not hyperbolic")
    return Surd(m.a - m.d, t * t - 4, 2 * m.c)


def cf_expand(x: Surd) -> tuple[tuple[int, ...], Word]:
    """Continued fraction of a quadratic irrational: (preperiod, primitive period).

    The first digit may be any integer (x itself need not exceed 1); later
    digits are >= 1.  The expansion is purely periodic from its first reduced
    state (p, q) (Galois); the period ends where that state returns.  Reduced
    states have 0 < p < sqrt(d) and 0 < q < 2 sqrt(d): the period is below 2d,
    after a preperiod of about log2 |q| steps.  Past twice that is an invariant
    violation; past CF_MAX_STEPS digits, CapExceededError.
    """
    p, d, q = x.p, x.d, x.q
    s = isqrt(d)  # every floor and reducedness test reads this one root
    guard = 2 * d + 2 * abs(q).bit_length() + 4
    stop = min(guard, CF_MAX_STEPS)
    digits: list[int] = []
    start = state = None  # where the period starts, and its first state
    while (p, q) != state:
        if state is None and _reduced(p, q, s):
            start, state = len(digits), (p, q)
        if len(digits) > stop:
            if stop == guard:
                raise InternalInvariantError("continued fraction failed to cycle")
            raise CapExceededError(f"continued fraction of {x} exceeds cap {CF_MAX_STEPS} digits")
        a = _floor_surd(p, s, q)
        digits.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return tuple(digits[:start]), tuple(digits[start:])


def serialize_word(word) -> str:
    return ",".join(str(a) for a in word)


def parse_word(text: str) -> Word:
    return check_word(int(part) for part in text.split(",") if part.strip())
