"""Indefinite binary quadratic forms: reduction, cycles, and class enumeration.

Forms [A, B, C] stand for A x^2 + B xy + C y^2 with positive non-square
discriminant.  Reduction uses the classical step
    rho([A, B, C]) = [C, r, (r^2 - D) / (4C)],
with r = -B mod 2|C| shifted into the reduced window; iterating rho from any
form reaches a reduced form, and on reduced forms rho walks the (even-length)
cycle that realises one proper equivalence class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import is_squarefree
from .cf import Mat2, Word, _floor_surd
from .errors import InternalInvariantError

_FORM_RE = re.compile(r"^\[(-?\d+),(-?\d+),(-?\d+)\]$")


@dataclass(frozen=True)
class Form:
    """Integral binary quadratic form [a, b, c] of positive non-square discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("leading coefficient must be nonzero")
        d = self.discriminant
        if d <= 0 or isqrt(d) ** 2 == d:
            raise ValueError(f"discriminant must be positive and non-square, got {d}")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def mirror(self) -> "Form":
        """[a, -b, c]; representative of the inverse class."""
        return Form(self.a, -self.b, self.c)

    def coefficients(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"[{self.a},{self.b},{self.c}]"

    @classmethod
    def parse(cls, text: str) -> "Form":
        m = _FORM_RE.match(text.replace(" ", ""))
        if not m:
            raise ValueError(f"cannot parse form {text!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def discriminant(f: Form) -> int:
    return f.discriminant


def is_fundamental(d: int) -> bool:
    """Fundamental discriminant test for positive d."""
    if d <= 0:
        raise ValueError("discriminant must be positive")
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def matrix_to_form(m: Mat2) -> Form:
    """The form [c, d-a, -b] fixed by a hyperbolic matrix; its root is fixed_point(m)."""
    if m.det != 1:
        raise ValueError("matrix must have determinant +1")
    t = m.trace
    if t * t <= 4:
        raise ValueError("not hyperbolic")
    if m.c == 0:
        raise ValueError("matrix fixes infinity; no associated form")
    return Form(m.c, m.d - m.a, -m.b)


def is_reduced_form(f: Form) -> bool:
    """Classical reduced predicate: 0 < B < sqrt(D) and sqrt(D) - B < 2|A| < sqrt(D) + B."""
    d = f.discriminant
    s = isqrt(d)
    if f.b <= 0 or f.b > s:
        return False
    t = 2 * abs(f.a)
    if d >= (t + f.b) ** 2:  # need sqrt(D) < 2|A| + B
        return False
    return t <= f.b or (t - f.b) ** 2 < d  # need 2|A| - B < sqrt(D)


def rho(f: Form) -> Form:
    """One reduction / cycle step."""
    d = f.discriminant
    s = isqrt(d)
    m = 2 * abs(f.c)
    if f.c * f.c > d:
        lo = -abs(f.c) + 1  # window (-|c|, |c|]
    else:
        lo = s + 1 - m  # window (sqrt(d) - 2|c|, sqrt(d))
    r = lo + ((-f.b - lo) % m)
    return Form(f.c, r, (r * r - d) // (4 * f.c))


def reduce_form(f: Form) -> Form:
    """Iterate rho until the reduced window is reached."""
    steps = 0
    limit = 64 + 2 * max(abs(f.a), abs(f.b), abs(f.c)).bit_length()
    while not is_reduced_form(f):
        f = rho(f)
        steps += 1
        if steps > limit:
            raise InternalInvariantError("reduction failed to terminate")
    return f


@dataclass(frozen=True)
class FormCycle:
    """The full rho-orbit of a reduced form, stored from its least member."""

    forms: tuple[Form, ...]

    @classmethod
    def from_forms(cls, forms: list[Form]) -> "FormCycle":
        start = min(range(len(forms)), key=lambda i: forms[i].coefficients())
        return cls(tuple(forms[start:] + forms[:start]))

    @property
    def discriminant(self) -> int:
        return self.forms[0].discriminant

    def __len__(self) -> int:
        return len(self.forms)

    def __contains__(self, f: Form) -> bool:
        return f in self.forms


def cycle(f: Form) -> FormCycle:
    """The rho-orbit through a reduced form (even length)."""
    if not is_reduced_form(f):
        raise ValueError("cycle requires a reduced form")
    forms = [f]
    g = rho(f)
    while g != f:
        forms.append(g)
        g = rho(g)
        if len(forms) > 1_000_000:
            raise InternalInvariantError("cycle failed to close")
    if len(forms) % 2 != 0:
        raise InternalInvariantError("cycle length must be even")
    return FormCycle.from_forms(forms)


def reduced_forms(d: int) -> list[Form]:
    """Every reduced form of discriminant d (finite window enumeration)."""
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError("discriminant must be positive and 0 or 1 mod 4")
    s = isqrt(d)
    if s * s == d:
        raise ValueError("square discriminants are rejected")
    dtype = np.int64 if d < 2**62 else object  # exact either way
    out = []
    for b in range(1 + (d + 1) % 2, s + 1, 2):  # b = d mod 2
        n = (d - b * b) // 4  # |A| divides n, and 2|A| lies in (sqrt(d) - b, sqrt(d) + b)
        window = np.arange((s + 2 - b) // 2, (s + b) // 2 + 1, dtype=dtype)
        for abs_a in window[n % window == 0].tolist():
            out += [Form(abs_a, b, -n // abs_a), Form(-abs_a, b, n // abs_a)]
    return sorted(out, key=Form.coefficients)


def class_cycles(d: int) -> list[FormCycle]:
    """Partition the reduced forms of discriminant d into rho-cycles."""
    remaining = set(reduced_forms(d))
    cycles = []
    while remaining:
        f = min(remaining, key=Form.coefficients)
        cy = cycle(f)
        missing = set(cy.forms) - remaining
        if missing:
            raise InternalInvariantError(f"cycle escaped the reduced window: {missing}")
        remaining -= set(cy.forms)
        cycles.append(cy)
    return sorted(cycles, key=lambda cy: cy.forms[0].coefficients())


def mirror_cycle(cy: FormCycle) -> FormCycle:
    return cycle(reduce_form(cy.forms[0].mirror()))


def negated_cycle(cy: FormCycle) -> FormCycle:
    f = cy.forms[0]
    return cycle(reduce_form(Form(-f.a, -f.b, -f.c)))


def _count_merged(cycles: list[FormCycle], partner) -> int:
    seen: set[FormCycle] = set()
    merged = 0
    for cy in cycles:
        if cy in seen:
            continue
        merged += 1
        seen.add(cy)
        seen.add(partner(cy))
    return merged


def count_mirror_merged(cycles: list[FormCycle]) -> int:
    """Classes after merging each cycle with its [A,-B,C] (inverse-class) partner."""
    return _count_merged(cycles, mirror_cycle)


def count_sign_merged(cycles: list[FormCycle]) -> int:
    """Classes after merging each cycle with its negated (-A,-B,-C) partner.

    Cycle counting sees one class per rho-orbit (the narrow convention); when
    the fundamental automorph has norm +1 the negation pairs orbits two by
    two, and this merged count is the plain (wide) class number.
    """
    return _count_merged(cycles, negated_cycle)


def cycle_to_word(cy: FormCycle) -> Word:
    """The periodic partial-quotient word of a cycle, as its least rotation.

    Walking the cycle in rho order, each form [A, B, C] contributes the digit
    floor((B + sqrt(D)) / (2|C|)); the resulting word has the cycle's length,
    so an odd continued-fraction period appears doubled, matching the
    determinant-one (even word) convention.
    """
    d = cy.discriminant
    digits = [_floor_surd(f.b, d, 2 * abs(f.c)) for f in cy.forms]
    n = len(digits)
    return min(tuple(digits[i:] + digits[:i]) for i in range(n))
