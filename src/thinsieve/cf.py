"""Exact continued fractions for quadratic irrationals, and the word/matrix dictionary.

A *word* is a tuple of integer partial quotients a_j >= 1; it maps to the
integer matrix  prod_j [[a_j, 1], [1, 0]],  whose determinant is (-1)^len.
Quadratic irrationals are kept as exact surds (p + sqrt(d))/q, and every
predicate on them (floors, reducedness, comparisons) is decided in integer
arithmetic -- no floating point enters any decision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, isqrt, sqrt

from .errors import InternalInvariantError

Word = tuple[int, ...]


def check_word(word, alphabet: int | None = None) -> Word:
    """Validate digits (>= 1, and <= alphabet when given); return as a tuple."""
    w = tuple(int(a) for a in word)
    if any(a < 1 for a in w):
        raise ValueError(f"word digits must be >= 1, got {w}")
    if alphabet is not None and any(a > alphabet for a in w):
        raise ValueError(f"word digit exceeds alphabet bound {alphabet}: {w}")
    return w


def rotations(word: Word) -> list[Word]:
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


def canonical_rotation(word: Word) -> Word:
    """Lexicographically least rotation; canonical representative of a cyclic class."""
    return min(rotations(word))


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


def generator(a: int) -> Mat2:
    """The matrix [[a, 1], [1, 0]] of a single partial quotient."""
    if a < 1:
        raise ValueError("partial quotients must be >= 1")
    return Mat2(a, 1, 1, 0)


def word_to_matrix(word) -> Mat2:
    w = check_word(word)
    if not w:
        raise ValueError("empty word has no canonical matrix")
    m = generator(w[0])
    for a in w[1:]:
        m = m * generator(a)
    return m


def word_from_matrix(m: Mat2) -> Word | None:
    """Inverse of word_to_matrix, or None when m is not a product of generators.

    Digits are read off the Euclidean expansion of a/b.  A rational has two
    continued fractions (the last digit may split as x = (x-1) + 1/1), so both
    candidates are checked against m; the generators form a free semigroup, so
    at most one can match.
    """
    if m == IDENTITY:
        return ()
    a, b = m.a, m.b
    if a < 1 or b < 1 or b > a:
        return None
    quotients = []
    x, y = a, b
    while y:
        quotients.append(x // y)
        x, y = y, x - (x // y) * y
    if x != 1:  # gcd(a, b) must be 1 for a unimodular product
        return None
    candidates = [quotients]
    if quotients[-1] >= 2:
        candidates.append(quotients[:-1] + [quotients[-1] - 1, 1])
    elif len(quotients) >= 2:
        candidates.append(quotients[:-2] + [quotients[-2] + 1])
    for q in candidates:
        w = tuple(reversed(q))
        if all(digit >= 1 for digit in w) and _continuants(w) == (m.a, m.b, m.c, m.d):
            return w
    return None


def _continuants(word: Word) -> tuple[int, int, int, int]:
    """Entries of word_to_matrix(word), multiplied out on plain ints."""
    a, b, c, d = 1, 0, 0, 1
    for digit in word:
        a, b, c, d = a * digit + b, a, c * digit + d, c
    return a, b, c, d


# ---------------------------------------------------------------------------
# quadratic irrationals


def _sign_linear(u: int, v: int, d: int) -> int:
    """Exact sign of u + v*sqrt(d) for positive non-square d."""
    if v == 0:
        return (u > 0) - (u < 0)
    if v > 0:
        if u >= 0:
            return 1
        return 1 if v * v * d > u * u else -1
    if u <= 0:
        return -1
    return 1 if u * u > v * v * d else -1


def _floor_surd(p: int, d: int, q: int) -> int:
    """Exact floor of (p + sqrt(d)) / q for nonzero q."""
    s = isqrt(d)
    if q > 0:
        return (p + s) // q
    return (-p - s - 1) // (-q)


_SURD_RE = re.compile(r"^\((-?\d+)\+sqrt\((\d+)\)\)/(-?\d+)$")


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

    @classmethod
    def parse(cls, text: str) -> "Surd":
        m = _SURD_RE.match(text.replace(" ", ""))
        if not m:
            raise ValueError(f"cannot parse surd {text!r}")
        return cls.make(int(m.group(1)), int(m.group(2)), int(m.group(3)))

    def __str__(self) -> str:
        return f"({self.p}+sqrt({self.d}))/{self.q}"

    def __float__(self) -> float:
        return (self.p + sqrt(self.d)) / self.q

    def conjugate(self) -> "Surd":
        return Surd(-self.p, self.d, -self.q)

    def floor(self) -> int:
        return _floor_surd(self.p, self.d, self.q)

    def same_value(self, other: "Surd") -> bool:
        """Exact equality as real numbers (representations may differ by squares)."""
        return (
            self.p * other.q == other.p * self.q
            and self.d * other.q * other.q == other.d * self.q * self.q
            and (self.q > 0) == (other.q > 0)
        )

    def moebius(self, m: Mat2) -> "Surd":
        """Exact image under z -> (a z + b)/(c z + d)."""
        num = m.a * self.p + m.b * self.q
        den = m.c * self.p + m.d * self.q
        u = num * den - m.a * m.c * self.d
        v = self.q * m.det
        w = den * den - m.c * m.c * self.d
        if w == 0 or v == 0:
            raise ZeroDivisionError("Moebius image is rational or infinite")
        if v < 0:
            u, v, w = -u, -v, -w
        g = gcd(gcd(u, v), w)
        u, v, w = u // g, v // g, w // g
        return Surd.make(u, self.d * v * v, w)


def is_reduced(x: Surd) -> bool:
    """True iff x > 1 and its Galois conjugate lies strictly in (-1, 0)."""
    qs = (x.q > 0) - (x.q < 0)
    if _sign_linear(x.p - x.q, 1, x.d) * qs <= 0:  # x > 1
        return False
    if _sign_linear(x.p, -1, x.d) * qs >= 0:  # conjugate < 0
        return False
    return _sign_linear(x.p + x.q, -1, x.d) * qs > 0  # conjugate > -1


def fixed_point(m: Mat2) -> Surd:
    """Attracting fixed point (a - d + sqrt(tr^2 - 4)) / (2c) of a hyperbolic matrix."""
    if m.det != 1:
        raise ValueError("fixed points are defined for determinant +1 matrices")
    t = m.trace
    if t * t <= 4:
        raise ValueError("not hyperbolic")
    if m.c == 0:
        raise ValueError("fixed point at infinity")
    return Surd(m.a - m.d, t * t - 4, 2 * m.c)


def cf_expand(x: Surd, max_steps: int = 100_000) -> tuple[tuple[int, ...], Word]:
    """Continued fraction of a quadratic irrational: (preperiod, primitive period).

    The first digit may be any integer (x itself need not exceed 1); later
    digits are >= 1.  States (p, q) repeat exactly once the expansion becomes
    periodic, so the period is read off the first repeated state.
    """
    p, d, q = x.p, x.d, x.q
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    while (p, q) not in seen:
        if len(digits) > max_steps:
            raise InternalInvariantError("continued fraction failed to cycle")
        seen[(p, q)] = len(digits)
        a = _floor_surd(p, d, q)
        digits.append(a)
        p = a * q - p
        q = (d - p * p) // q
    start = seen[(p, q)]
    return tuple(digits[:start]), tuple(digits[start:])


def serialize_word(word) -> str:
    return ",".join(str(a) for a in word)


def parse_word(text: str) -> Word:
    return check_word(int(part) for part in text.split(",") if part.strip())
