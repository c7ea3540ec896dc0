"""Enumeration of the bounded-partial-quotient matrix semigroup.

Words over the alphabet {1..A} multiply to nonnegative unimodular matrices;
the determinant-one elements are the even-length words.  Appending any
generator strictly increases the squared Frobenius norm, so a norm ball is a
pruned subtree; trace fibers prune on the least trace attainable by extending
a prefix instead.

Walks that only count (ball counts, the ball's trace tally, trace fibers and
their histogram) share one block frontier, `_frontier`: a depth-first stack of
numpy blocks of (a, b, c, d), each expanded by all its digits at once and cut
down by a keep mask and a descend mask.  Its entries are int32 or int64
while the bound's worst case fits them and Python ints beyond, so every count
is exact.  Every norm ball is read through `_ball_blocks`, the one place that
checks the parity and the element cap, DEFAULT_MAX_ELEMENTS.  `iter_ball` is
the one walk that emits words, in lexicographic order, for enumeration, the
fixed slices and the Aleph set; it counts its ball against the cap before it
builds any element, so a ball over the cap fails fast and in bounded memory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isfinite, isqrt
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .arith import divisors, iroot
from .cf import Mat2, Word, canonical_rotation, check_word, word_from_matrix, word_to_matrix
from .errors import CapExceededError, InternalInvariantError
from .modular import sl2_order

DEFAULT_MAX_ELEMENTS = 5_000_000
DEFAULT_MAX_NODES = 20_000_000

# Children a block walk forms at once.  Smaller blocks pay more Python per
# node; larger ones hold more memory (the walk holds about 3 x depth x _BLOCK
# nodes, and the freed blocks stay in the process's peak memory).
_BLOCK = 1 << 12
# Entries and sums stay exact in int32 or int64 while their bound is below these.
_INT32_SAFE = 1 << 31
_INT64_SAFE = 1 << 62
# A walk with a node this wide cannot finish, capped or not.
_MAX_CHILDREN = 1 << 48


@dataclass(frozen=True)
class SemigroupElement:
    """A word together with its matrix."""

    word: Word
    matrix: Mat2

    @classmethod
    def from_word(cls, word, alphabet: int | None = None) -> "SemigroupElement":
        w = check_word(word, alphabet)
        return cls(w, word_to_matrix(w))

    @property
    def trace(self) -> int:
        return self.matrix.trace

    @property
    def norm_sq(self) -> int:
        return self.matrix.norm_sq

    def __len__(self) -> int:
        return len(self.word)


def _norm_sq_cap(norm: float) -> int:
    """Integer cap for ||g||^2 <= norm^2 (norms on the grid are exact in floats)."""
    return round(norm * norm)


def iter_ball(
    alphabet: int, norm_sq_cap: int, parity: str = "even"
) -> Iterator[SemigroupElement]:
    """Yield every word with ||matrix||^2 <= norm_sq_cap, in lexicographic order."""
    for _ in _ball_blocks(alphabet, norm_sq_cap, parity, DEFAULT_MAX_ELEMENTS):
        pass  # count first: a ball over the cap fails before any element is built
    want_even = parity == "even"
    digits = range(1, alphabet + 1)

    def walk(word: Word, a: int, b: int, c: int, d: int) -> Iterator[SemigroupElement]:
        for g in digits:
            na, nb = g * a + b, a
            nc, nd = g * c + d, c
            if na * na + nb * nb + nc * nc + nd * nd > norm_sq_cap:
                break  # larger digits only grow the norm
            w = word + (g,)
            if not want_even or len(w) % 2 == 0:
                yield SemigroupElement(w, Mat2(na, nb, nc, nd))
            yield from walk(w, na, nb, nc, nd)

    yield from walk((), 1, 0, 0, 1)


def enumerate_ball(alphabet: int, norm: float, parity: str = "even") -> Iterator[SemigroupElement]:
    """Words whose matrix has Frobenius norm <= norm (closed ball)."""
    return iter_ball(alphabet, _norm_sq_cap(norm), parity)


class _Frame:
    """Nodes of one depth in a block walk, with a cursor over their children."""

    __slots__ = ("even", "rows", "starts", "ends", "lo", "waiting", "n_waiting")

    def __init__(self, even: bool, rows: tuple, starts: np.ndarray, ends: np.ndarray):
        self.even = even  # depth parity of the nodes
        self.rows = rows  # entries (a, b, c, d), one array each
        self.starts, self.ends = starts, ends  # each node's children, numbered
        self.lo = 0  # the next child to form
        self.waiting: list[list[np.ndarray]] = []  # children to descend, not yet a frame
        self.n_waiting = 0


def _frontier(
    alphabet: int, limit: int, by_trace: bool, max_nodes: int | None = None
) -> Iterator[tuple[bool, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the tree of words in blocks, yielding the kept nodes as (even, a, b, c, d).

    By norm, every word with ||g||^2 <= limit is kept and descended.  By trace,
    the even words with trace <= limit are kept, and a prefix is descended only
    while its least completion fits: even nodes M complete to at least
    tr(M [[2,1],[1,1]]), odd ones to at least tr(M [[1,1],[1,0]]).

    The walk is depth first over blocks.  A stack frame holds nodes of one
    depth; their children are formed _BLOCK at a time, each node's digits cut
    to the bound, and the children to descend wait in the frame until they
    fill a frame of their own (or the frame is spent).  So a frame has fewer
    than 2 x _BLOCK nodes and fewer than _BLOCK waiting, and the walk holds
    fewer than 3 x depth x _BLOCK nodes.  Entries are int32 while the largest
    entry or sum the bound allows stays below 2^31, int64 while it stays below
    2^62, and Python ints (dtype object) beyond, so every value is exact.
    """
    # no entry of a node inside the bound exceeds `reach`, so neither does a digit
    reach = limit if by_trace else isqrt(max(limit, 0))
    top = min(alphabet, reach)
    if top >= _MAX_CHILDREN:
        raise CapExceededError(f"a node of the walk has up to {top} children")
    # sums reach 4 x limit for norms, 2a' + b' + c' + d' <= 5 x limit for traces
    worst = 5 * max(limit, 0)
    dtype = np.int32 if worst < _INT32_SAFE else np.int64 if worst < _INT64_SAFE else object
    nodes = 1  # the root

    def push(even: bool, a, b, c, d) -> None:
        if by_trace and not even:
            room = (limit - b - c) // a  # even children: trace g*a + b + c <= limit
        elif by_trace:
            room = (limit - a - b - d) // (a + c)  # odd children: a' + b' + c' <= limit
        else:
            room = (reach - b) // a  # the child's top-left entry g*a + b <= reach
        counts = np.minimum(np.maximum(room, 0), top).astype(np.int64, copy=False)
        ends = np.cumsum(counts)
        if ends[-1]:  # a frame of leaves has nothing to expand
            stack.append(_Frame(even, (a, b, c, d), ends - counts, ends))

    stack: list[_Frame] = []
    push(True, *(np.array([x], dtype=dtype) for x in (1, 0, 0, 1)))
    while stack:
        frame = stack[-1]
        a, b, c, d = frame.rows
        starts, ends, lo = frame.starts, frame.ends, frame.lo
        # children lo..hi-1 of the frame, numbered node by node, digit by digit
        hi = frame.lo = min(lo + _BLOCK, int(ends[-1]))
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        take = ends[first : last + 1] - starts[first : last + 1]
        take[0] = ends[first] - lo
        take[-1] -= ends[last] - hi
        i = np.repeat(np.arange(first, last + 1), take)
        g = (np.arange(lo + 1, hi + 1) - starts[i]).astype(dtype, copy=False)
        a, c = a[i], c[i]
        na, nc = g * a, g * c
        na += b[i]
        nc += d[i]  # children (na, a, nc, c)
        if not by_trace:
            keep = na * na
            keep += a * a
            keep += nc * nc
            keep += c * c
            keep = keep <= limit
            na, a, nc, c = na[keep], a[keep], nc[keep], c[keep]
            descend = slice(None)
            if len(na):
                yield not frame.even, na, a, nc, c
        elif frame.even:  # odd children: every candidate is descended, none kept
            descend = slice(None)
        else:
            yield True, na, a, nc, c
            descend = 2 * na + a + nc + c <= limit
        child = [x[descend] for x in (na, a, nc, c)]
        if len(child[0]):
            nodes += len(child[0])
            if max_nodes is not None and nodes > max_nodes:
                raise CapExceededError(f"trace walk exceeded {max_nodes} nodes")
            frame.waiting.append(child)
            frame.n_waiting += len(child[0])
        spent = hi == ends[-1]
        if spent:
            stack.pop()
        # descended children wait until they fill a frame or their parents are spent
        if frame.n_waiting and (spent or frame.n_waiting >= _BLOCK):
            rows = [np.concatenate(column) for column in zip(*frame.waiting)]
            frame.waiting, frame.n_waiting = [], 0
            push(not frame.even, *rows)


def _ball_blocks(
    alphabet: int, norm_sq_cap: int, parity: str, max_elements: int | None
) -> Iterator[list[np.ndarray]]:
    """The words of the given parity with ||g||^2 <= norm_sq_cap, as blocks of
    (a, b, c, d); raises CapExceededError once more than max_elements are seen."""
    if alphabet < 1:
        raise ValueError("alphabet bound must be >= 1")
    if parity not in ("even", "any"):
        raise ValueError("parity must be 'even' or 'any'")
    seen = 0
    for even, *block in _frontier(alphabet, norm_sq_cap, False):
        if even or parity == "any":
            seen += len(block[0])
            if max_elements is not None and seen > max_elements:
                raise CapExceededError(f"ball enumeration exceeded {max_elements} elements")
            yield block


def ball_count(alphabet: int, norm: float, parity: str = "even") -> int:
    """Fast count of the ball, without materialising elements."""
    return sum(len(a) for a, _, _, _ in _ball_blocks(alphabet, _norm_sq_cap(norm), parity, None))


def _tally(runs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge (values, multiplicities) runs into one run of sorted distinct values."""
    values = np.concatenate([v for v, _ in runs])
    mult = np.concatenate([m for _, m in runs])
    order = np.argsort(values)
    values, mult = values[order], mult[order]
    if not len(values):
        return values, mult
    first = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[first], np.add.reduceat(mult, first)


def ball_traces(alphabet: int, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """The distinct traces of the even words in the closed ball, ascending, and
    their multiplicities.

    Blocks of traces are merged into the running tally once they are as
    long as it, so the walk holds the distinct traces, about as many pending
    ones and one block.  Raises CapExceededError once the ball passes
    DEFAULT_MAX_ELEMENTS even words.
    """
    runs = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))]
    pending = 0
    for a, _, _, d in _ball_blocks(alphabet, _norm_sq_cap(norm), "even", DEFAULT_MAX_ELEMENTS):
        runs.append((a + d, np.ones(len(a), dtype=np.int64)))
        pending += len(a)
        if pending >= len(runs[0][0]):
            runs, pending = [_tally(runs)], 0
    return _tally(runs)


class HensleyFit(NamedTuple):
    slope: float
    residual: float
    counts: tuple[tuple[float, int], ...]


def hensley_exponent(alphabet: int, norms: Iterable[float]) -> HensleyFit:
    """Least-squares slope of log(ball count) against log(norm)."""
    grid = sorted(set(float(n) for n in norms))
    if len(grid) < 4:
        raise ValueError("degenerate grid: need at least 4 distinct norms")
    # one walk at the largest norm; each word counts toward the first cap that holds it
    caps = np.array([_norm_sq_cap(n) for n in grid])  # int64, or Python ints past it
    hits = np.zeros(len(grid), dtype=np.int64)
    for a, b, c, d in _ball_blocks(alphabet, _norm_sq_cap(grid[-1]), "even", None):
        norm_sq = a * a + b * b + c * c + d * d  # <= the cap, so exact in the walk's dtype
        hits += np.bincount(np.searchsorted(caps, norm_sq), minlength=len(grid))
    counts = list(zip(grid, np.cumsum(hits).tolist()))
    if any(c == 0 for _, c in counts):
        raise ValueError("degenerate grid: empty ball at smallest norm")
    xs = np.log([n for n, _ in counts])
    ys = np.log([c for _, c in counts])
    (slope, intercept), residual_arr = np.polyfit(xs, ys, 1, full=True)[:2]
    residual = float(residual_arr[0]) if len(residual_arr) else 0.0
    return HensleyFit(float(slope), residual, tuple(counts))


# ---------------------------------------------------------------------------
# trace fibers


def trace_fiber(
    alphabet: int, t: int, max_nodes: int = DEFAULT_MAX_NODES
) -> list[SemigroupElement]:
    """All even words over {1..alphabet} whose matrix has trace exactly t.

    Prunes a branch once the least trace attainable by any completion exceeds
    t: even extensions of M are bounded below by tr(M [[2,1],[1,1]]) and odd
    prefixes complete to at least tr(M [[1,1],[1,0]]), entrywise positivity
    making both bounds monotone in every digit.  Words are read back from
    their matrices and returned in lexicographic order.
    """
    if t < 3:
        raise ValueError("trace fibers start at t = 3")
    out: list[SemigroupElement] = []
    for _, a, b, c, d in _frontier(alphabet, t, True, max_nodes):
        hit = a + d == t
        for entries in zip(*(x[hit].tolist() for x in (a, b, c, d))):
            m = Mat2(*entries)
            out.append(SemigroupElement(word_from_matrix(m), m))
    out.sort(key=lambda e: e.word)
    return out


def trace_histogram(alphabet: int, t_max: int) -> np.ndarray:
    """counts[t] = #{even words with trace t} for 0 <= t <= t_max, from one walk."""
    counts = np.zeros(t_max + 1, dtype=np.int64)
    for _, a, _, _, d in _frontier(alphabet, t_max, True, DEFAULT_MAX_NODES):
        counts += np.bincount(a + d, minlength=t_max + 1)
    return counts


def trace_multiplicity(alphabet: int, t: int) -> int:
    """#{even words over {1..alphabet} with trace t}."""
    return len(trace_fiber(alphabet, t))


def trace_multiplicity_by_divisors(alphabet: int, t: int) -> int:
    """Independent fiber count: solve a + d = t, bc = ad - 1 over divisor pairs,
    then test semigroup membership by digit peeling."""
    if t < 3:
        raise ValueError("trace fibers start at t = 3")
    count = 0
    for a in range(1, t):
        m = a * (t - a) - 1
        if m < 1:
            continue
        for b in divisors(m):
            w = word_from_matrix(Mat2(a, b, m // b, t - a))
            if w is not None and len(w) % 2 == 0 and w and max(w) <= alphabet:
                count += 1
    return count


def cyclic_classes(alphabet: int, t: int) -> list[Word]:
    """Rotation classes of the trace-t fiber, as lexicographically least rotations."""
    reps = {canonical_rotation(e.word) for e in trace_fiber(alphabet, t)}
    return sorted(reps)


# ---------------------------------------------------------------------------
# fixed-wordlength slices and the bilinear set


@dataclass(frozen=True)
class FixedSlice:
    """The most populous fixed-wordlength slice of a norm ball."""

    wordlength: int
    elements: tuple[SemigroupElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SemigroupElement]:
        return iter(self.elements)


def build_fixed_length_ball(alphabet: int, bound: float) -> FixedSlice:
    """Among even wordlengths in the open ball ||g|| < bound, keep the most
    populous one (ties resolved toward the shorter length)."""
    if bound < 3:
        raise ValueError("bound must be >= 3 so the even ball is nonempty")
    cap = ceil(bound * bound) - 1  # strict: ||g|| < bound
    by_length: dict[int, list[SemigroupElement]] = {}
    for e in iter_ball(alphabet, cap, "even"):
        by_length.setdefault(len(e.word), []).append(e)
    if not by_length:
        raise ValueError("empty ball")
    best = max(by_length, key=lambda length: (len(by_length[length]), -length))
    return FixedSlice(best, tuple(by_length[best]))


@dataclass(frozen=True)
class AlephSet:
    """Residue-balanced subset of the alphabet-2 semigroup.

    Built by pigeonholing the small ball on its residues mod B, powering the
    popular element to reach the identity class, then translating into every
    class of SL2(Z/B); the union therefore hits all classes mod B equally.
    """

    elements: tuple[SemigroupElement, ...]
    modulus: int
    group_order: int
    base_size: int
    pivot_bound: int
    pilot: SemigroupElement | None
    residue_reps: tuple[SemigroupElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SemigroupElement]:
        return iter(self.elements)


def _residue_representatives(modulus: int) -> list[SemigroupElement]:
    """Short even alphabet-2 words covering every class of SL2(Z/B).

    Breadth-first over the quotient: one representative per residue, extending
    only newly discovered classes, so the work is linear in |SL2(Z/B)|.
    """
    want = sl2_order(modulus)
    steps = [SemigroupElement.from_word((g1, g2)) for g1 in (1, 2) for g2 in (1, 2)]
    found: dict[tuple[int, int, int, int], SemigroupElement] = {}
    frontier: list[SemigroupElement] = [SemigroupElement((), Mat2(1, 0, 0, 1))]
    while frontier and len(found) < want:
        nxt = []
        for e in frontier:
            for s in steps:
                m = e.matrix * s.matrix
                r = m.mod(modulus)
                if r not in found:
                    child = SemigroupElement(e.word + s.word, m)
                    found[r] = child
                    nxt.append(child)
        frontier = nxt
    if len(found) < want:
        raise CapExceededError(f"could not cover SL2(Z/{modulus}) with short words")
    return [found[r] for r in sorted(found)]


def aleph_construct(norm_bound: float, modulus: int = 2) -> AlephSet:
    """Residue-balanced set inside the alphabet-2 ball of norm < norm_bound.

    With B = 1 the construction degenerates to the plain even ball.
    """
    if not isfinite(norm_bound * norm_bound):
        raise ValueError(f"norm bound {norm_bound} is too large: its square overflows")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    R = sl2_order(modulus)  # also validates square-freeness
    if modulus == 1:
        cap = ceil(norm_bound * norm_bound) - 1
        els = tuple(iter_ball(2, cap, "even"))
        if not els:
            raise ValueError("ball too small; increase the norm bound")
        return AlephSet(els, 1, 1, len(els), int(norm_bound), None, ())
    reps = _residue_representatives(modulus)
    xmax_sq = max(e.norm_sq for e in reps)
    target = norm_bound * norm_bound
    # largest u with u^(2R) * xmax_sq <= target, at least 1; the left side is an integer
    u = max(1, iroot(int(target) // xmax_sq, 2 * R))
    base = list(iter_ball(2, u * u - 1, "even"))
    if not base:
        raise ValueError(f"ball too small at pivot {u}; increase the norm bound")
    residues = [e.matrix.mod(modulus) for e in base]
    tally = Counter(residues)
    top = max(tally.values())
    popular = min(r for r, n in tally.items() if n == top)
    pilot = base[residues.index(popular)]
    tail_word = pilot.word * (R - 1)
    tail_matrix = pilot.matrix ** (R - 1)
    elements = []
    for e, r in zip(base, residues):
        if r != popular:
            continue
        stem_word = e.word + tail_word
        stem_matrix = e.matrix * tail_matrix
        for x in reps:
            elements.append(SemigroupElement(stem_word + x.word, stem_matrix * x.matrix))
    for e in elements:
        if e.norm_sq >= target:
            raise InternalInvariantError("constructed element escaped the norm bound")
    return AlephSet(tuple(elements), modulus, R, top, u, pilot, tuple(reps))


def aleph_error(aleph: Iterable[SemigroupElement], q: int) -> float:
    """Worst deviation of the residue distribution of the set from uniform on SL2(Z/q)."""
    elements = list(aleph)
    if not elements:
        raise ValueError("empty set")
    order = sl2_order(q)
    counts = Counter(e.matrix.mod(q) for e in elements)
    n = len(elements)
    worst = Fraction(0)
    for c in counts.values():
        worst = max(worst, abs(Fraction(c, n) - Fraction(1, order)))
    if len(counts) < order:
        worst = max(worst, Fraction(1, order))
    return float(worst)


@dataclass(frozen=True)
class BilinearSet:
    """Triple product Xi * Aleph * Omega, realised lazily.

    Xi and Omega have fixed wordlengths and Aleph lives over the alphabet {1,2},
    so distinct factor triples concatenate to distinct words: the product set
    has exactly |Xi| * |Aleph| * |Omega| elements.
    """

    xi: tuple[SemigroupElement, ...]
    aleph: tuple[SemigroupElement, ...]
    omega: tuple[SemigroupElement, ...]

    def __post_init__(self):
        for name, factor in (("Xi", self.xi), ("Aleph", self.aleph), ("Omega", self.omega)):
            if not factor:
                raise ValueError(f"empty factor {name}")
        if len({len(e.word) for e in self.xi}) != 1:
            raise ValueError("Xi must have a fixed wordlength")
        if len({len(e.word) for e in self.omega}) != 1:
            raise ValueError("Omega must have a fixed wordlength")
        for e in self.aleph:
            if len(e.word) % 2 or (e.word and max(e.word) > 2):
                raise ValueError("Aleph must consist of even alphabet-2 words")

    @property
    def size(self) -> int:
        return len(self.xi) * len(self.aleph) * len(self.omega)

    def __len__(self) -> int:
        return self.size

    def norm_bound(self) -> float:
        """Upper bound on member norms (Frobenius norms are submultiplicative)."""
        parts = [max(e.norm_sq for e in f) for f in (self.xi, self.aleph, self.omega)]
        return float(np.sqrt(float(parts[0]) * parts[1] * parts[2]))

    def iter_elements(self) -> Iterator[SemigroupElement]:
        for mid in self.aleph:
            for right in self.omega:
                tail_w = mid.word + right.word
                tail_m = mid.matrix * right.matrix
                for left in self.xi:
                    yield SemigroupElement(left.word + tail_w, left.matrix * tail_m)

    def iter_traces(self) -> Iterator[int]:
        for mid in self.aleph:
            for right in self.omega:
                t = mid.matrix * right.matrix
                for left in self.xi:
                    m = left.matrix
                    yield m.a * t.a + m.b * t.c + m.c * t.b + m.d * t.d


def _as_elements(factor) -> tuple[SemigroupElement, ...]:
    out = []
    for item in factor:
        if isinstance(item, SemigroupElement):
            out.append(item)
        else:
            out.append(SemigroupElement.from_word(item))
    return tuple(out)


def build_pi(xi, aleph, omega) -> BilinearSet:
    """Assemble the bilinear product set from its three factors.

    Factors may be FixedSlice / AlephSet instances, element sequences, or raw
    word sequences.
    """
    return BilinearSet(_as_elements(xi), _as_elements(aleph), _as_elements(omega))
