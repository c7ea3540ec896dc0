"""Indefinite binary quadratic forms: reduction, cycles, and class enumeration.

Forms [A, B, C] stand for A x^2 + B xy + C y^2 with positive non-square
discriminant.  Reduction uses the classical step
    rho([A, B, C]) = [C, r, (r^2 - D) / (4C)],
with r = -B mod 2|C| shifted into the reduced window; iterating rho from any
form reaches a reduced form, and on reduced forms rho walks the (even-length)
cycle that realises one proper equivalence class.  A form is reduced exactly
when its root (B + sqrt(D))/(2|A|) is a reduced surd, so cf decides it, and a
matrix's form is read off its cf.fixed_point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .arith import is_squarefree
from .cf import Mat2, Word, _reduced, canonical_rotation, fixed_point
from .errors import CapExceededError, InternalInvariantError

# largest discriminant reduced_forms enumerates: its windows hold about d/4
# candidates in all, so the time grows like d (about 1.5-1.9 s at 10^9 and
# 17 s at 10^10 on a 2-vCPU VM)
DISCRIMINANT_CAP = 10**9


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

    def coefficients(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"[{self.a},{self.b},{self.c}]"


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
    """The form [c, d-a, -b] fixed by a hyperbolic matrix: the form whose root is
    x = fixed_point(m) = (a - d + sqrt(D)) / (2c)."""
    x = fixed_point(m)
    return Form(x.q // 2, -x.p, -m.b)


def is_reduced_form(f: Form) -> bool:
    """[A, B, C] is reduced exactly when its root (B + sqrt(D)) / (2|A|) is a reduced
    surd: 0 < B < sqrt(D) and sqrt(D) - B < 2|A| < sqrt(D) + B."""
    return _reduced(f.b, 2 * abs(f.a), isqrt(f.discriminant))


def _rho(a: int, b: int, c: int, d: int, s: int) -> tuple[int, int, int]:
    """rho on plain ints, with s = isqrt(d) taken once by the caller."""
    m = 2 * abs(c)
    if c * c > d:
        lo = -abs(c) + 1  # window (-|c|, |c|]
    else:
        lo = s + 1 - m  # window (sqrt(d) - 2|c|, sqrt(d))
    r = lo + ((-b - lo) % m)
    return c, r, (r * r - d) // (4 * c)


def rho(f: Form) -> Form:
    """One reduction / cycle step."""
    d = f.discriminant
    return Form(*_rho(f.a, f.b, f.c, d, isqrt(d)))


def reduce_form(f: Form) -> Form:
    """Iterate rho until the reduced window is reached."""
    d = f.discriminant
    s = isqrt(d)
    g = f.coefficients()
    limit = 64 + 2 * max(map(abs, g)).bit_length()
    for _ in range(limit + 1):
        if _reduced(g[1], 2 * abs(g[0]), s):
            return Form(*g)
        g = _rho(*g, d, s)
    raise InternalInvariantError("reduction failed to terminate")


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


def _orbit(start: tuple[int, int, int], d: int, s: int) -> Iterator[tuple[int, int, int]]:
    """The coefficients of the rho-orbit from start, up to its return to start,
    which must come within 10^6 steps and after an even number of them."""
    g = start
    for steps in range(1, 1_000_001):
        yield g
        g = _rho(*g, d, s)
        if g == start:
            if steps % 2:
                raise InternalInvariantError("cycle length must be even")
            return
    raise InternalInvariantError("cycle failed to close")


def cycle(f: Form) -> FormCycle:
    """The rho-orbit through a reduced form (even length)."""
    if not is_reduced_form(f):
        raise ValueError("cycle requires a reduced form")
    d = f.discriminant
    orbit = list(_orbit(f.coefficients(), d, isqrt(d)))  # its guards run before any Form is built
    return FormCycle.from_forms([Form(*g) for g in orbit])


def reduced_forms(d: int) -> list[Form]:
    """Every reduced form of discriminant d (finite window enumeration)."""
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError("discriminant must be positive and 0 or 1 mod 4")
    s = isqrt(d)
    if s * s == d:
        raise ValueError("square discriminants are rejected")
    if d > DISCRIMINANT_CAP:
        raise CapExceededError(f"discriminant {d} exceeds cap {DISCRIMINANT_CAP}")
    out = []
    for b in range(1 + (d + 1) % 2, s + 1, 2):  # b = d mod 2
        n = (d - b * b) // 4  # |A| divides n, and 2|A| lies in (sqrt(d) - b, sqrt(d) + b)
        window = np.arange((s + 2 - b) // 2, (s + b) // 2 + 1, dtype=np.int64)
        for abs_a in window[n % window == 0].tolist():
            out += [(abs_a, b, -n // abs_a), (-abs_a, b, n // abs_a)]
    return [Form(*t) for t in sorted(out)]


def class_cycles(d: int) -> list[FormCycle]:
    """Partition the reduced forms of discriminant d into rho-cycles.

    rho permutes the reduced forms, so one walk on plain ints per cycle, each
    step looked up among the forms reduced_forms built, visits every form once.
    Taking the least unvisited form as each start gives every cycle from its
    least member, and the cycles in order of it.
    """
    unvisited = {f.coefficients(): f for f in reduced_forms(d)}
    s = isqrt(d)
    cycles = []
    for start in list(unvisited):
        if start in unvisited:
            try:
                members = [unvisited.pop(g) for g in _orbit(start, d, s)]
            except KeyError as e:  # outside the window, or met twice
                raise InternalInvariantError(f"cycle escaped the reduced window: {e.args[0]}")
            cycles.append(FormCycle(tuple(members)))
    return cycles


def _count_merged(cycles: list[FormCycle], partner) -> int:
    """Classes after merging each cycle with the cycle through partner(its least form)."""
    head = {f.coefficients(): cy.forms[0] for cy in cycles for f in cy.forms}
    seen: set[Form] = set()
    merged = 0
    for cy in cycles:
        f = cy.forms[0]
        if f in seen:
            continue
        merged += 1
        seen.add(f)
        seen.add(head.get(partner(f)))
    return merged


def count_mirror_merged(cycles: list[FormCycle]) -> int:
    """Classes after merging each cycle with its [A,-B,C] (inverse-class) partner.

    For reduced [A, B, C] the form [C, B, A] is reduced and properly equivalent
    to [A, -B, C] (by (x, y) -> (-y, x)), so it lies on the partner cycle.
    """
    return _count_merged(cycles, lambda f: (f.c, f.b, f.a))


def count_sign_merged(cycles: list[FormCycle]) -> int:
    """Classes after merging each cycle with its negated (-A,-B,-C) partner.

    Cycle counting sees one class per rho-orbit (the narrow convention); when
    the fundamental automorph has norm +1 the negation pairs orbits two by
    two, and this merged count is the plain (wide) class number.  The partner
    cycle holds the reduced form [-C, B, -A], equivalent to [-A, -B, -C].
    """
    return _count_merged(cycles, lambda f: (-f.c, f.b, -f.a))


def cycle_to_word(cy: FormCycle) -> Word:
    """The periodic partial-quotient word of a cycle, as its least rotation.

    Walking the cycle in rho order, each form [A, B, C] contributes the digit
    floor((B + sqrt(D)) / (2|C|)); the resulting word has the cycle's length,
    so an odd continued-fraction period appears doubled, matching the
    determinant-one (even word) convention.
    """
    s = isqrt(cy.discriminant)
    return canonical_rotation(tuple((f.b + s) // (2 * abs(f.c)) for f in cy.forms))
