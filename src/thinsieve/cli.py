"""Command-line drivers: deterministic experiment runs with CSV/JSON artifacts.

Every subcommand writes one artifact file (byte-identical across runs for
equal configs) plus a ``<artifact>.manifest.json`` recording the config (the
flags the run used), package/Python versions, and wall time (the manifest is
metadata, not part of the deterministic artifact).  Exit codes: 0 ok, 2 config
error, 3 resource cap exceeded, 4 internal invariant violation.

Each subcommand is one ``Command`` in ``COMMANDS``: help, default artifact name,
flags (each declared once, with a type that checks flag and config values alike)
and a producer returning the artifact's content.  Producers look library
functions up in this module's namespace at call time, so wrappers see every call.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .arith import is_prime, primes_up_to
from .cf import parse_word, serialize_word
from .dimension import asymptote, estimate
from .errors import CapExceededError, ConfigError, InternalInvariantError
from .forms import class_cycles, count_mirror_merged, count_sign_merged, cycle_to_word
from .geodesics import emit_arcs, geodesic_profile
from .modular import DENSITY_MODULUS_CAP, densities, kloosterman, sl2_charsum
from .semigroup import (
    _ball_words,
    _norm_sq_cap,
    aleph_construct,
    aleph_error,
    build_fixed_length_ball,
    build_pi,
    hensley_exponent,
    trace_fiber,
)
from .sieve import (
    BallSource,
    almost_prime_census,
    class_census,
    discriminant_census,
    remainder_profile,
    sift_values,
    squarefree_census,
)

# expsum's caps, each about 4 s of work on a 2-vCPU VM: the Kloosterman rows
# at p = 9973, and 1000 SL2 character sums at p = 113
KLOOSTERMAN_PRIME_CAP = 10**4
MAX_SAMPLES = 10**3
# rows of enumerate's JSON lines formed and written at once, as one byte matrix
# with int64 digit temporaries; the ball_sieve benchmark's steps in one process
# peaked at 38.7 MB with 2^12 rows, 35.8 MB with 2^10, 36.2 MB line by line
_CHUNK = 1 << 10

# ---------------------------------------------------------------------------
# flag types: each turns a command-line or config-file string into a checked
# value, or raises ValueError (reported as a config error, exit 2)


def _checked(convert: Callable[[str], object], ok: Callable, what: str) -> Callable:
    def kind(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {what}, got {text!r}")
        return value

    return kind


def _at_least(lo: int) -> Callable[[str], int]:
    return _checked(int, lambda v: v >= lo, f">= {lo}")


def _items(kind: Callable[[str], object]) -> Callable[[str], list]:
    return lambda text: [kind(item) for item in text.split(",")]


def _switch(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


_POSITIVE = _checked(float, lambda v: isfinite(v) and v > 0, "finite and > 0")
# norms and bounds are squared by the library, so the square must be finite too
_RADIUS = _checked(float, lambda v: isfinite(v * v) and v > 0, "> 0 with a finite square")
_PARITY = _checked(str, lambda v: v in ("even", "any"), "'even' or 'any'")
# trial division costs sqrt(p), so a prime above expsum's cap is refused by the
# cap (exit 3) before its primality is tested
_PRIME = _checked(int, lambda v: v > KLOOSTERMAN_PRIME_CAP or is_prime(v), "a prime")
_REQUIRED = object()  # the default of a flag that must be given on the command line


class Flag(NamedTuple):
    name: str
    kind: Callable[[str], object] = str
    default: object = None
    help: str | None = None
    into: str | None = None  # destination, when it is not the flag's own name
    used: Callable[[argparse.Namespace], bool] | None = None  # None: every run uses it

    @property
    def dest(self) -> str:
        return self.into or self.name[2:].replace("-", "_")


class Command(NamedTuple):
    """``produce`` returns a ``Table``, an iterator of lines, a mapping or a ``Summarised``."""

    help: str
    artifact: str
    flags: tuple[Flag, ...]
    produce: Callable[[argparse.Namespace], object]


@dataclass(frozen=True)
class Table:
    header: list[str]
    rows: list[list]


@dataclass(frozen=True)
class Summarised:
    """Artifact content with a summary written beside it as ``<stem>.summary.json``."""

    content: object
    summary: dict


def _write(path: Path, content) -> None:
    """The one writer of artifact values: a ``Table`` as CSV, a ``Fraction`` cell
    as ``num/den``; an iterator of text as it comes; a mapping as JSON.  Floats
    go out as their repr (by ``csv`` and ``json``), ints in full: the limit on
    int-to-str digits, which still guards what the user sends, is lifted only
    while the file is written."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        with open(path, "w", newline="") as fh:
            if isinstance(content, Table):
                writer = csv.writer(fh)
                writer.writerow(content.header)
                writer.writerows([f"{x.numerator}/{x.denominator}" if type(x) is Fraction else x
                                  for x in row] for row in content.rows)
            elif isinstance(content, Iterator):
                fh.writelines(content)
            else:
                json.dump(content, fh, indent=2, sort_keys=True)
                fh.write("\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# producers


def _ascii(x: np.ndarray) -> np.ndarray:
    """The decimal digits of nonnegative integer entries as ASCII bytes, along a
    new last axis as wide as the largest entry's, padded with NUL bytes: Python
    ints (dtype object) are written by str, padded on the right; fixed-width
    integers are divided by powers of ten in their own dtype, padded on the left."""
    width = len(str(int(x.max()))) if x.size else 1
    if x.dtype == object:
        return x.astype(f"S{width}").view(np.uint8).reshape(*x.shape, width)
    q = x[..., None] // 10 ** np.arange(width - 1, -1, -1).astype(x.dtype)
    out = np.where(q > 0, q % 10 + ord("0"), 0).astype(np.uint8)
    out[..., -1] = x % 10 + ord("0")  # a zero's one digit
    return out


def _columns(n: int, text: str) -> np.ndarray:
    """n rows of the same ASCII text, as bytes."""
    return np.broadcast_to(np.frombuffer(text.encode(), dtype=np.uint8), (n, len(text)))


# the text after each integer field of a line, one row each, NUL-padded to one width
_AFTER = np.array([", ", ", ", ", ", '], "normSq": ', ', "trace": ', ', "word": "'],
                  dtype=bytes).view(np.uint8).reshape(6, -1)


def _text(words) -> str:
    """The JSON lines of words, each as ``json.dumps(record, sort_keys=True)`` writes it.

    Each line is a row of a byte matrix: the constant text in fixed columns,
    each integer written in ASCII digits padded with NUL bytes, and the word's
    digits each followed by a comma but the last.  JSON text holds no NUL, so
    dropping every NUL leaves the lines.  The six integer fields are int64, or
    Python ints (dtype object) when an entry reaches 2^30, as the squared norm
    may then pass int64 (a trace fiber's can); the digits keep their own dtype.
    """
    n = len(words)
    if not n:
        return ""
    wide = max(int(x.max()) for x in words.matrix) >= 1 << 30
    a, b, c, d = (x.astype(object if wide else np.int64) for x in words.matrix)
    fields = np.stack([a, b, c, d, a * a + b * b + c * c + d * d, a + d], axis=1)
    after = np.broadcast_to(_AFTER, (n, *_AFTER.shape))
    fields = np.concatenate([_ascii(fields), after], axis=2).reshape(n, -1)
    span = np.arange(int(words.lengths.max()))
    word = _ascii(words.digits[:, : len(span)])
    word[span >= words.lengths[:, None]] = 0
    comma = np.where(span + 1 < words.lengths[:, None], ord(","), 0).astype(np.uint8)
    word = np.concatenate([word, comma[..., None]], axis=2).reshape(n, -1)
    m = np.concatenate([_columns(n, '{"matrix": ['), fields, word, _columns(n, '"}\n')], axis=1)
    return m[m != 0].tobytes().decode()


def _lines(words) -> Iterator[str]:
    """The JSON lines of words, formed from its arrays _CHUNK rows at a time."""
    return (_text(words.take(slice(lo, lo + _CHUNK))) for lo in range(0, len(words), _CHUNK))


def _cycle_records(cycles) -> list[dict]:
    return [
        {
            "forms": [str(f) for f in cy.forms],
            "period_word": serialize_word(cycle_to_word(cy)),
        }
        for cy in cycles
    ]


def _hensley_fit(a) -> Table:
    fit = hensley_exponent(a.alphabet, a.norms)
    rows = [[a.alphabet, n, c, "", ""] for n, c in fit.counts]
    rows.append([a.alphabet, "fit", "", fit.slope, fit.residual])
    return Table(["alphabet", "norm", "count", "slope", "residual"], rows)


def _dimension_brackets(a) -> Table:
    rows = []
    for alph in a.alphabets:
        est = estimate(alph, a.depth, a.tol)
        rows.append([alph, a.depth, est.lower, est.upper, asymptote(alph)])
    return Table(["alphabet", "depth", "lower", "upper", "asymptote"], rows)


def _densities(a) -> Table:
    columns = (column.tolist() for column in densities(a.modulus))
    return Table(["q", "beta", "sqrt4_count"],
                 [[q, f"{num}/{den}", count] for q, num, den, count in zip(*columns)])


def _exponential_sums(a) -> Table:
    p = a.prime
    if p > KLOOSTERMAN_PRIME_CAP:  # p - 1 rows of p terms each
        raise CapExceededError(f"prime {p} exceeds cap {KLOOSTERMAN_PRIME_CAP}")
    if a.samples > MAX_SAMPLES:
        raise CapExceededError(f"samples {a.samples} exceeds cap {MAX_SAMPLES}")
    sums = []  # before the O(p^2) Kloosterman rows, so sl2_charsum's cap fires first
    rng = random.Random(a.seed)
    for _ in range(a.samples):
        s = tuple(rng.randrange(p) for _ in range(4))
        while all(x % p == 0 for x in s):
            s = tuple(rng.randrange(p) for _ in range(4))
        sums.append(["charsum", p, ",".join(map(str, s)), abs(sl2_charsum(p, s)), 2 * p**1.5])
    rows = [["kloosterman", p, f"1,{m}", kloosterman(1, m, p), 2 * p**0.5]
            for m in range(1, p)]
    return Table(["kind", "p", "argument", "value", "bound"], rows + sums)


def _aleph_set(a) -> Summarised:
    aleph = aleph_construct(a.bound, a.modulus)
    summary = {
        "size": len(aleph),
        "modulus": aleph.modulus,
        "group_order": aleph.group_order,
        "base_size": aleph.base_size,
        "pivot_bound": aleph.pivot_bound,
        "error_at_q": {str(q): aleph_error(aleph, q) for q in (1, 2, 3)},
    }
    return Summarised(_lines(aleph), summary)


def _pi_factors(a) -> tuple:
    xi = build_fixed_length_ball(a.alphabet, a.xi_bound)
    omega = (xi if a.omega_bound == a.xi_bound  # a shared bound is walked once
             else build_fixed_length_ball(a.alphabet, a.omega_bound))
    return xi, aleph_construct(a.aleph_bound, a.modulus), omega


def _pi_report(a) -> dict:
    xi, aleph, omega = _pi_factors(a)
    pi = build_pi(xi, aleph, omega)
    return {
        "xi": {"wordlength": xi.wordlength, "size": len(xi)},
        "aleph": {"size": len(aleph), "modulus": aleph.modulus},
        "omega": {"wordlength": omega.wordlength, "size": len(omega)},
        "size": pi.size,
        "norm_bound": pi.norm_bound(),
    }


def _sift(a):
    return sift_values(build_pi(*_pi_factors(a)) if a.use_pi else BallSource(a.alphabet, a.norm))


def _remainder_ledger(a) -> Table:
    if a.cutoff - 1 > DENSITY_MODULUS_CAP:  # the densities' cap, before the sift
        raise CapExceededError(f"modulus {a.cutoff - 1} exceeds cap {DENSITY_MODULUS_CAP}")
    profile = remainder_profile(_sift(a), a.cutoff)
    rows = [[r.q, r.count, r.expected, r.remainder] for r in profile.rows]
    rows.append(["summary", profile.source_size, "", profile.summary])
    return Table(["q", "A_q", "beta_times_size", "remainder"], rows)


def _almost_primes(a) -> Table:
    primes_up_to(a.threshold)  # the table the census reads: its cap, before the sift
    seq = _sift(a)
    count = almost_prime_census(seq, a.threshold)
    return Table(["alphabet", "norm", "threshold", "count", "source_size"],
                 [[a.alphabet, a.norm, a.threshold, count, seq.source_size]])


def _squarefree_traces(a) -> Table:
    seq = sift_values(BallSource(a.alphabet, a.norm))
    count, total = squarefree_census(seq), seq.source_size
    return Table(["alphabet", "norm", "squarefree_count", "ball_count", "fraction"],
                 [[a.alphabet, a.norm, count, total, Fraction(count, total)]])


def _cycles_of(a) -> dict:
    cycles = class_cycles(a.disc)
    return {
        "discriminant": a.disc,
        "cycle_count": len(cycles),
        "mirror_merged_count": count_mirror_merged(cycles),
        "sign_merged_count": count_sign_merged(cycles),
        "cycles": _cycle_records(cycles),
    }


def _arcs_or_profile(a):
    """Arcs as CSV, or the height profile when the destination ends in ``.json``."""
    word = parse_word(a.word)
    if Path(a.output).suffix != ".json":
        return Table(["center", "radius"], emit_arcs(word))
    profile = geodesic_profile(word)
    return {
        "discriminant": profile.discriminant,
        "period": serialize_word(profile.period),
        "rotation_heights": list(profile.rotation_heights),
        "max_height": profile.max_height,
    }


_COMMON = (Flag("--config", help="key=value config file; explicit flags win"),
           Flag("--output", help="artifact path"))
_ALPHABET = Flag("--alphabet", _at_least(1), 2)
_DISC = Flag("--disc", int, _REQUIRED)


def _pi_flags(xi=_REQUIRED, aleph=_REQUIRED, omega=_REQUIRED, used=None) -> tuple[Flag, ...]:
    return (_ALPHABET, Flag("--xi-bound", _RADIUS, xi, used=used),
            Flag("--aleph-bound", _RADIUS, aleph, used=used),
            Flag("--omega-bound", _RADIUS, omega, used=used),
            Flag("--modulus", _at_least(1), 2, used=used))


_SIFT = (Flag("--norm", _RADIUS, 1e4, used=lambda a: not a.use_pi),
         Flag("--use-pi", _switch, False, "sift the bilinear set"),
         *_pi_flags(100.0, 1e6, 20.0, used=lambda a: a.use_pi))

COMMANDS: dict[str, Command] = {
    "enumerate": Command(
        "list a semigroup norm ball as JSON lines", "enumerate.jsonl",
        (_ALPHABET, Flag("--norm", _RADIUS, _REQUIRED), Flag("--parity", _PARITY, "even")),
        # the ball is walked, and its cap checked, before the first line is formed
        lambda a: _lines(_ball_words(a.alphabet, _norm_sq_cap(a.norm), a.parity))),
    "trace-fiber": Command(
        "list all even words of a given trace", "trace_fiber.jsonl",
        (_ALPHABET, Flag("--trace", int, _REQUIRED)),
        lambda a: _lines(trace_fiber(a.alphabet, a.trace))),
    "hensley-fit": Command(
        "fit the ball-growth exponent on a norm grid", "hensley_fit.csv",
        (_ALPHABET, Flag("--norms", _items(_RADIUS),
                         "1000,3162.2776601683795,10000,31622.776601683792,100000",
                         "comma-separated norm grid (default: 10^3 .. 10^5, half-decade steps)")),
        _hensley_fit),
    "dimension": Command(
        "bracket the bounded-quotient Cantor dimension", "dimension.csv",
        (Flag("--alphabets", _items(_at_least(1)), "2"), Flag("--depth", _at_least(1), 12),
         Flag("--tol", _POSITIVE, 1e-6)),
        _dimension_brackets),
    "densities": Command(
        "beta(q) and sqrt-of-4 counts as CSV", "densities.csv",
        (Flag("--modulus", _at_least(1), _REQUIRED),), _densities),
    "expsum": Command(
        "Kloosterman sums and SL2 character sums at a prime", "expsum.csv",
        (Flag("--prime", _PRIME, _REQUIRED), Flag("--samples", _at_least(0), 100),
         Flag("--seed", int, 0)),
        _exponential_sums),
    "aleph": Command(
        "build the residue-balanced alphabet-2 set", "aleph.jsonl",
        (Flag("--bound", _RADIUS, _REQUIRED), Flag("--modulus", _at_least(1), 2)),
        _aleph_set),
    "build-pi": Command(
        "assemble the bilinear product set and report sizes", "pi.json", _pi_flags(), _pi_report),
    "sieve-remainders": Command(
        "remainder ledger over a ball (or bilinear) source", "remainders.csv",
        (*_SIFT, Flag("--cutoff", _at_least(2), 100)), _remainder_ledger),
    "almost-prime": Command(
        "almost-prime census over a ball (or bilinear) source", "almost_prime.csv",
        (*_SIFT, Flag("--threshold", _at_least(2), 7)), _almost_primes),
    "squarefree-count": Command(
        "square-free trace census over a norm ball", "squarefree_count.csv",
        (_ALPHABET, Flag("--norm", _RADIUS, 1e4)), _squarefree_traces),
    "discriminants": Command(
        "square-free t^2-4 census with fiber multiplicities", "discriminants.csv",
        (_ALPHABET, Flag("--max-T", _POSITIVE, 1e4), Flag("--min-multiplicity", _at_least(0), 1)),
        lambda a: Table(["t", "discriminant", "multiplicity"], [
            [rec.t, rec.discriminant, rec.multiplicity]
            for rec in discriminant_census(a.alphabet, a.max_T, a.min_multiplicity)
        ])),
    "class-census": Command(
        "form classes realised by a trace fiber", "class_census.json", (_DISC, _ALPHABET),
        lambda a: {"discriminant": a.disc, "alphabet": a.alphabet,
                   "classes": _cycle_records(class_census(a.disc, a.alphabet))}),
    "class-cycles": Command(
        "all reduction cycles of a discriminant", "class_cycles.json", (_DISC,), _cycles_of),
    "geodesic": Command(
        "emit excursion arcs or the height profile of a word", "arcs.csv",
        (Flag("--word", str, _REQUIRED),
         Flag("--emit", help="arcs .csv or profile .json path (same as --output)", into="output")),
        _arcs_or_profile),
}


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone when it names one, else of every command
    (for --help, a missing command or an unknown one)."""
    parser = argparse.ArgumentParser(
        prog="thinsieve",
        description="Continued fractions, quadratic forms, and sieve experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        spec = COMMANDS[name]
        # flags not given stay out of the namespace, so a config file can fill them
        p = sub.add_parser(name, help=spec.help, argument_default=argparse.SUPPRESS)
        for f in (*_COMMON, *spec.flags):
            p.add_argument(f.name, dest=f.dest, help=f.help, required=f.default is _REQUIRED,
                           action="store_true" if f.kind is _switch else "store")
    return parser


def _settings(given: dict) -> argparse.Namespace:
    """Defaults, under the ``key=value`` lines of ``--config`` (a key is a flag's
    name, with ``-`` or ``_``), under explicit flags; every string is then
    converted and checked by its flag's type."""
    command, path = given["command"], given.get("config")
    flags = (*_COMMON, *COMMANDS[command].flags)
    values = {f.dest: f.default for f in flags}
    dests = {f.name[2:].replace("-", "_"): f.dest for f in flags}
    try:
        lines = Path(path).read_text().splitlines() if path else []
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not eq:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        if key not in dests:
            raise ConfigError(f"unknown config key {key!r} for {command!r}")
        values[dests[key]] = value.strip()
    values.update(given)
    for f in flags:
        if isinstance(values[f.dest], str):
            try:
                values[f.dest] = f.kind(values[f.dest])
            except ValueError as exc:
                raise ConfigError(f"{f.name}: {exc}") from exc
    values["output"] = values["output"] or COMMANDS[command].artifact
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    try:
        try:
            argv = sys.argv[1:] if argv is None else argv
            given = vars(_parser(argv[0] if argv else None).parse_args(argv))
        except SystemExit as exc:  # argparse uses 2 for usage errors
            return int(exc.code or 0)
        args = _settings(given)
        start = time.monotonic()
        content = COMMANDS[args.command].produce(args)
        path = Path(args.output)
        try:
            if isinstance(content, Summarised):
                _write(path.with_suffix(".summary.json"), content.summary)
                content = content.content
            _write(path, content)
            unused = {"config"} | {f.dest for f in COMMANDS[args.command].flags
                                   if f.used and not f.used(args)}
            manifest = {
                "command": args.command,
                "config": {k: v for k, v in sorted(vars(args).items()) if k not in unused},
                "package_version": __version__,
                "python_version": platform.python_version(),
                "wall_time_s": time.monotonic() - start,
            }
            _write(path.with_name(path.name + ".manifest.json"), manifest)
        except OSError as exc:
            print(f"cannot write artifact: {exc}", file=sys.stderr)
            return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
