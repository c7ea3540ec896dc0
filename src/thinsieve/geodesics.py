"""Excursion heights of the closed geodesics attached to periodic words.

Each rotation of an even word fixes a reduced quadratic irrational alpha > 1
whose conjugate lies in (-1, 0); the semicircle joining the two has apex
height (alpha - conj) / 2 = sqrt(tr^2 - 4) / (2c).  The largest apex over all
rotations is the cusp-excursion proxy: it is sandwiched between a_max / 2 and
(a_max + 2) / 2, so bounded digits and bounded height are interchangeable.
Rotation i fixes the i-th complete quotient (p_i + sqrt(D))/q_i of the word's
fixed point, with q_i = 2 c_i, so one surd orbit gives every arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from .cf import Mat2, Word, _continuants, check_word, fixed_point

# Bits a word's matrix entries may reach (as tr <= 2a, D then has at most
# 22,002).  Each of a word's steps squares and divides at D's size, so all-ones
# words, with the most digits per bit, are the slowest: the longest accepted
# one (15,844 ones) takes about 2 s on a 2-vCPU VM
ENTRY_BITS_CAP = 11_000


@dataclass(frozen=True)
class GeodesicProfile:
    period: Word
    rotation_heights: tuple[float, ...]
    max_height: float
    discriminant: int


def _arcs(word) -> tuple[int, list[tuple[float, float]]]:
    """D = tr^2 - 4 and the (center, radius) of each rotation's semicircle: the
    center (alpha + conj)/2 = p/q, the radius (apex height) sqrt(D)/q, or past
    1,023 bits, where D has no float, the root of the rounded quotient D / q^2."""
    w = check_word(word)
    if not w:
        raise ValueError("empty word")
    if len(w) % 2 != 0:
        raise ValueError("word must have even length (determinant +1)")
    x = fixed_point(Mat2(*_continuants(w, ENTRY_BITS_CAP)))
    p, d, q = x.p, x.d, x.q
    wide = d.bit_length() > 1023  # no float holds D
    arcs = []
    q_prev = (d - p * p) // q  # exact, as q | d - p^2; then no step divides
    for g in w:
        arcs.append((p / q, sqrt(d / (q * q)) if wide else sqrt(d) / q))
        p, p_prev = g * q - p, p
        q, q_prev = q_prev + g * (p_prev - p), q  # as q q' = d - p^2 at both steps
    return d, arcs


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
