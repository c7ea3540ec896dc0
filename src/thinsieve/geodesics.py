"""Excursion heights of the closed geodesics attached to periodic words.

Each rotation of an even word fixes a reduced quadratic irrational alpha > 1
whose conjugate lies in (-1, 0); the semicircle joining the two has apex
height (alpha - conj) / 2 = sqrt(tr^2 - 4) / (2c).  The largest apex over all
rotations is the cusp-excursion proxy: it is sandwiched between a_max / 2 and
(a_max + 2) / 2, so bounded digits and bounded height are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from .cf import Word, check_word, rotations, word_to_matrix


@dataclass(frozen=True)
class GeodesicProfile:
    period: Word
    rotation_heights: tuple[float, ...]
    max_height: float
    discriminant: int


def _arcs(word) -> tuple[int, list[tuple[float, float]]]:
    """tr^2 - 4 and the (center, radius) of each rotation's semicircle: the
    center (alpha + conj)/2 = P/(2c), the radius (apex height) sqrt(D)/(2c)."""
    w = check_word(word)
    if not w:
        raise ValueError("empty word")
    if len(w) % 2 != 0:
        raise ValueError("word must have even length (determinant +1)")
    ms = [word_to_matrix(r) for r in rotations(w)]
    d = ms[0].trace * ms[0].trace - 4
    if d <= 0:
        raise ValueError("non-hyperbolic word")
    return d, [((m.a - m.d) / (2 * m.c), sqrt(d) / (2 * m.c)) for m in ms]


def rotation_heights(word) -> list[float]:
    """Apex heights sqrt(D)/(2c), one per rotation of the word."""
    return [radius for _, radius in _arcs(word)[1]]


def max_height(word) -> float:
    return max(rotation_heights(word))


def is_low_lying(word, cutoff: float) -> bool:
    return max_height(word) <= cutoff


def emit_arcs(word) -> list[tuple[float, float]]:
    """(center, radius) of each rotation's semicircle."""
    return _arcs(word)[1]


def geodesic_profile(word) -> GeodesicProfile:
    d, arcs = _arcs(word)
    heights = tuple(radius for _, radius in arcs)
    return GeodesicProfile(tuple(word), heights, max(heights), d)
