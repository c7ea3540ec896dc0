"""Correctness gate for workload artifacts, run outside the timed region.

Two kinds of check, both per step:

* reference: at the default seed, or at any seed for a step whose inputs do
  not depend on it, exact artifacts must have the sha256 recorded in
  ``reference.json`` and float-bearing artifacts must match the recorded rows
  column by column (exact columns exactly, float columns within the relative
  tolerance in ``workloads.FLOAT_COLUMNS``);
* oracle: at every seed, spot checks against independent computations:
  ``trace_multiplicity_by_divisors`` for fiber sizes, ``beta_bruteforce`` for
  densities, ``ball_count`` for ball totals, a divisor enumeration of reduced
  forms for class cycles, and the Weil and height bounds.

``check_step`` returns a list of problems; an empty list means the step passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

from workloads import DEFAULT_SEED, FLOAT_COLUMNS, Step

REFERENCE = Path(__file__).with_name("reference.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _matrix(word) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for g in word:
        a, b, c, d = g * a + b, a, g * c + d, c
    return a, b, c, d


def _word(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


# ---------------------------------------------------------------------------
# reference comparison


def _close(a: str, b: str, rel: float) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=rel, abs_tol=1e-9)


def _compare_reference(step: Step, path: Path, ref: dict) -> list[str]:
    if "sha256" in ref:
        got = sha256(path)
        return [] if got == ref["sha256"] else [f"sha256 {got[:12]} != reference"]
    cols, rel = FLOAT_COLUMNS[step.command]
    got, want = _rows(path), ref["rows"]
    if len(got) != len(want):
        return [f"{len(got)} rows != reference {len(want)}"]
    for r, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w):
            return [f"row {r}: {len(g)} columns != reference {len(w)}"]
        for c, (x, y) in enumerate(zip(g, w)):
            if not (_close(x, y, rel) if c in cols else x == y):
                return [f"row {r} column {c}: {x!r} != reference {y!r}"]
    return []


# ---------------------------------------------------------------------------
# oracles, one per subcommand


def _check_elements(records: list[dict], alphabet: int) -> list[str]:
    words = [_word(r["word"]) for r in records]
    if words != sorted(words):
        return ["elements not in lexicographic order"]
    for w, r in zip(words, records):
        m = _matrix(w)
        if (list(m) != r["matrix"] or r["trace"] != m[0] + m[3]
                or r["normSq"] != sum(x * x for x in m) or max(w) > alphabet):
            return [f"inconsistent element {r}"]
    return []


def _enumerate(step, path, lib, rng):
    records = _jsonl(path)
    want = lib.ball_count(3, 1000, "any")
    if len(records) != want:
        return [f"{len(records)} elements != ball_count {want}"]
    if any(r["normSq"] > 1000**2 for r in records):
        return ["element outside the ball"]
    return _check_elements(records, 3)


def _trace_fiber(step, path, lib, rng):
    t = step.params["t"]
    records = _jsonl(path)
    want = lib.trace_multiplicity_by_divisors(10, t)
    if len(records) != want:
        return [f"{len(records)} elements != divisor count {want}"]
    if any(r["trace"] != t or len(_word(r["word"])) % 2 for r in records):
        return [f"element off the even trace-{t} fiber"]
    return _check_elements(records, 10)


def _squarefree_count(step, path, lib, rng):
    (_, norm, count, total, fraction), = _rows(path)[1:]
    want = lib.ball_count(3, float(norm))
    problems = []
    if int(total) != want:
        problems.append(f"ball total {total} != ball_count {want}")
    if Fraction(fraction) != Fraction(int(count), int(total)) or int(count) > int(total):
        problems.append("square-free fraction inconsistent")
    return problems


def _sieve_remainders(step, path, lib, rng):
    rows = _rows(path)[1:]
    size = int(rows[-1][1])
    total = Fraction(0)
    for q, count, expected, remainder in rows[:-1]:
        q, count, expected, remainder = int(q), int(count), Fraction(expected), Fraction(remainder)
        if q in (2, 3, 5, 7, 11, 13) and expected != lib.beta_bruteforce(q) * size:
            return [f"beta({q}) * size disagrees with beta_bruteforce"]
        if remainder != count - expected or (q == 1 and count != size):
            return [f"row q={q} inconsistent"]
        total += abs(remainder)
    if Fraction(rows[-1][3]) != total / size:
        return ["summary is not sum |r(q)| / size"]
    if "--use-pi" not in step.flags and size != lib.ball_count(3, 10000):
        return [f"source size {size} != ball_count"]
    return []


def _almost_prime(step, path, lib, rng):
    (*_, count, size), = _rows(path)[1:]
    return [] if 0 <= int(count) <= int(size) else ["count exceeds source size"]


def _discriminants(step, path, lib, rng):
    rows = [[int(x) for x in row] for row in _rows(path)[1:]]
    if not rows or any(d != t * t - 4 or m < 1 for t, d, m in rows):
        return ["discriminant rows inconsistent"]
    for t, _, m in rng.sample(rows, min(3, len(rows))):
        want = lib.trace_multiplicity_by_divisors(10, t)
        if m != want:
            return [f"multiplicity at t={t}: {m} != divisor count {want}"]
    return []


def _reduced(a: int, b: int, c: int, d: int) -> bool:
    """0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, for non-square d."""
    return (b * b - 4 * a * c == d and 0 < b and b * b < d
            and (2 * abs(a) + b) ** 2 > d and (2 * abs(a) <= b or (2 * abs(a) - b) ** 2 < d))


def _reduced_form_count(d: int, lib) -> int:
    """#{reduced [a, b, c] of discriminant d}: for each b, the divisors |a| of (d - b^2)/4."""
    n = 0
    for b in range(d % 2 or 2, isqrt(d) + 1, 2):
        m = (d - b * b) // 4
        n += 2 * sum(1 for a in lib.arith.divisors(m) if _reduced(a, b, -m // a, d))
    return n


def _parse_form(text: str) -> tuple[int, int, int]:
    a, b, c = (int(x) for x in text.strip("[]").split(","))
    return a, b, c


def _class_cycles(step, path, lib, rng):
    d = step.params["d"]
    payload = json.loads(path.read_text())
    forms = [_parse_form(f) for cy in payload["cycles"] for f in cy["forms"]]
    if payload["discriminant"] != d or payload["cycle_count"] != len(payload["cycles"]):
        return ["header inconsistent"]
    if not all(_reduced(a, b, c, d) for a, b, c in forms) or len(set(forms)) != len(forms):
        return ["cycles hold a non-reduced or repeated form"]
    want = _reduced_form_count(d, lib)
    return [] if len(forms) == want else [f"{len(forms)} forms in cycles != {want} reduced forms"]


def _class_census(step, path, lib, rng):
    payload = json.loads(path.read_text())
    d = payload["discriminant"]
    t = isqrt(d + 4)
    for cls in payload["classes"]:
        w = _word(cls["period_word"])
        a, _, _, dd = _matrix(w)
        if a + dd != t or max(w) > payload["alphabet"] or len(w) % 2:
            return [f"class word {cls['period_word']} is off the trace-{t} fiber"]
        if not all(_reduced(*_parse_form(f), d) for f in cls["forms"]):
            return ["class holds a non-reduced form"]
    return []


def _geodesic(step, path, lib, rng):
    word = _word(step.params["word"])
    radii = [float(r) for _, r in _rows(path)[1:]]
    top = max(word)
    if len(radii) != len(word) or not top / 2 <= max(radii) <= (top + 2) / 2:
        return [f"max height {max(radii)} outside [{top / 2}, {(top + 2) / 2}]"]
    return []


def _densities(step, path, lib, rng):
    rows = {int(q): (Fraction(b), int(s)) for q, b, s in _rows(path)[1:]}
    for p in (2, 3, 5, 7, 11, 13):
        if rows[p] != (lib.beta_bruteforce(p), 1 if p == 2 else 2):
            return [f"row q={p} disagrees with beta_bruteforce"]
    return []


def _expsum(step, path, lib, rng):
    rows = _rows(path)[1:]
    p = 113
    draws = random.Random(step.params["seed"])
    for kind, prime, arg, value, bound in rows:
        if int(prime) != p or abs(float(value)) > float(bound) + 1e-9:
            return [f"{kind} {arg}: |{value}| exceeds its Weil bound"]
        if kind == "charsum":
            s = tuple(draws.randrange(p) for _ in range(4))
            while all(x % p == 0 for x in s):
                s = tuple(draws.randrange(p) for _ in range(4))
            if arg != ",".join(map(str, s)):
                return [f"charsum argument {arg} != seeded draw {s}"]
    return []


def _dimension(step, path, lib, rng):
    for alphabet, _, lower, upper, asym in _rows(path)[1:]:
        a = int(alphabet)
        if not 0 < float(lower) <= float(upper) < 1:
            return [f"alphabet {a}: bracket out of order"]
        if not math.isclose(float(asym), 1 - 6 / (math.pi**2 * a), rel_tol=1e-12):
            return [f"alphabet {a}: asymptote wrong"]
    return []


ORACLES = {
    "enumerate": _enumerate,
    "trace-fiber": _trace_fiber,
    "squarefree-count": _squarefree_count,
    "sieve-remainders": _sieve_remainders,
    "almost-prime": _almost_prime,
    "hensley-fit": lambda *_: [],  # its counts are reference-checked at every seed
    "discriminants": _discriminants,
    "class-cycles": _class_cycles,
    "class-census": _class_census,
    "geodesic": _geodesic,
    "densities": _densities,
    "expsum": _expsum,
    "dimension": _dimension,
}


def check_step(workload: str, seed: int, step: Step, path: Path, reference: dict, lib) -> list[str]:
    """Every problem found with one step's artifact (empty when it passes)."""
    if not path.is_file():
        return ["artifact missing"]
    problems = []
    if not step.seeded or seed == DEFAULT_SEED:
        ref = reference.get(workload, {}).get(step.artifact)
        problems += ["no reference recorded"] if ref is None else _compare_reference(step, path, ref)
    try:
        problems += ORACLES[step.command](step, path, lib, random.Random(seed))
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:  # malformed artifact
        problems.append(f"unreadable artifact: {exc!r}")
    return problems
