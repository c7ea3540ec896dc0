"""Enumeration of the bounded-partial-quotient matrix semigroup.

Words over the alphabet {1..A} multiply to nonnegative unimodular matrices;
the determinant-one elements are the even-length words.  Appending any
generator strictly increases the squared Frobenius norm, so a norm ball is a
pruned subtree; trace fibers prune on the least trace attainable by extending
a prefix instead.

Every walk runs on one block frontier, `_frontier`: a depth-first stack of
numpy blocks of (a, b, c, d), each expanded by all its digits at once, cut
down by one index of the rows kept and one of the rows descended, and given
with its depth.  Entries are int32 or int64 while the bound's worst case fits
them and Python ints beyond, so every count is exact.  It checks every walk's
alphabet and node cap, DEFAULT_MAX_NODES; `_ball_blocks` checks a norm ball's
parity and, for walks that hold words or a tally, the element cap
DEFAULT_MAX_ELEMENTS.  A ball is counted per length against the cap, holding
nothing, and only then are the matrices of the lengths kept read back into
words, all at once (`_words`).

Traces are tallied in shards: a walk's blocks are joined (`_shards`) into
arrays of at least _SHARD traces, each sorted and counted in one call
(`_count`) and merged into the running tally of distinct traces (`_merge`),
which takes only ascending runs and sorts nothing again.  Memory grows with
one shard and the distinct traces, not with the ball.  Every listing of words,
a ball, a trace fiber and each factor of the bilinear set, is one `WordRows`
from walk to artifact or sift.  `WordRows.take` is the one row selection (a
sort, a chunk), and `_word_tuples` the one reader of rows' words; `_elements`,
which runs when rows are iterated, builds on it to form Python-level elements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, inf, isfinite, isqrt, nextafter, prod
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .arith import divisors, iroot
from .cf import Mat2, Word, canonical_rotation, check_word, word_from_matrix, word_to_matrix
from .errors import CapExceededError, InternalInvariantError
from .modular import sl2_order

DEFAULT_MAX_ELEMENTS = 5_000_000
DEFAULT_MAX_NODES = 20_000_000
# aleph factors its modulus by trial division to the square root, which took
# 0.02 s at 10^11, 0.2 s at 10^13 and 2.5 s at 10^15 on a 2-vCPU VM
ALEPH_MODULUS_CAP = 10**12

# Children a block walk forms at once.  Smaller blocks pay more Python per
# node; larger ones hold more memory (the walk holds about 3 x depth x _BLOCK
# nodes, and the freed blocks stay in the process's peak memory).
_BLOCK = 1 << 12
# Entries and sums stay exact in int32 or int64 while their bound is below these.
_INT32_SAFE = 1 << 31
_INT64_SAFE = 1 << 62
# A walk with a node this wide cannot finish, capped or not.
_MAX_CHILDREN = 1 << 48
# Traces tallied at once: a shard of the bilinear set's traces, or of a walk's
# blocks joined (`_shards`).
_SHARD = 1 << 18


@dataclass(frozen=True)
class SemigroupElement:
    """A word together with its matrix."""

    word: Word
    matrix: Mat2

    @classmethod
    def from_word(cls, word) -> "SemigroupElement":
        w = check_word(word)
        return cls(w, word_to_matrix(w))

    @property
    def trace(self) -> int:
        return self.matrix.trace

    @property
    def norm_sq(self) -> int:
        return self.matrix.norm_sq

    def __len__(self) -> int:
        return len(self.word)


def _norm_sq_cap(norm: float, strict: bool = False) -> int:
    """Integer cap floor(norm^2) for the closed ball ||g|| <= norm, or with
    strict, ceil(norm^2) - 1 for the open ball ||g|| < norm; norm^2 is exact."""
    if not (isfinite(norm * norm) and norm >= 0):  # nan fails both; 1e200 squares to inf
        raise ValueError(f"norm {norm!r} must be >= 0 with a finite square; a larger one overflows")
    square = Fraction(norm) ** 2
    return ceil(square) - 1 if strict else floor(square)


def iter_ball(alphabet: int, norm_sq_cap: int, parity: str = "even") -> Iterator[SemigroupElement]:
    """Yield every word with ||matrix||^2 <= norm_sq_cap, in lexicographic order."""
    yield from _elements(_ball_words(alphabet, norm_sq_cap, parity))


def enumerate_ball(alphabet: int, norm: float, parity: str = "even") -> Iterator[SemigroupElement]:
    """Words whose matrix has Frobenius norm <= norm (closed ball)."""
    return iter_ball(alphabet, _norm_sq_cap(norm), parity)


class _Frame:
    """Nodes of one depth in a block walk, with a cursor over their children."""

    __slots__ = ("depth", "rows", "starts", "ends", "lo", "waiting", "n_waiting")

    def __init__(self, depth: int, rows: tuple, starts: np.ndarray, ends: np.ndarray):
        self.depth = depth  # the nodes' word length
        self.rows = rows  # entries (a, b, c, d), one array each
        self.starts, self.ends = starts, ends  # each node's children, numbered
        self.lo = 0  # the next child to form
        self.waiting: list[list[np.ndarray]] = []  # children to descend, not yet a frame
        self.n_waiting = 0


def _frontier(
    alphabet: int, limit: int, by_trace: bool
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the tree of words in blocks, yielding the kept nodes as (depth, a, b, c, d).

    By norm, every word with ||g||^2 <= limit is kept and descended.  By trace,
    the even words with trace <= limit are kept, and a prefix is descended only
    while its least completion fits: even nodes M complete to at least
    tr(M [[2,1],[1,1]]), odd ones to at least tr(M [[1,1],[1,0]]).

    The walk is depth first over blocks.  A stack frame holds nodes of one
    depth; their children are formed _BLOCK at a time, each node's digits cut
    to the bound, and the children to descend wait in the frame until they
    fill a frame of their own (or the frame is spent).  So a frame has fewer
    than 2 x _BLOCK nodes and fewer than _BLOCK waiting, and the walk holds
    fewer than 3 x depth x _BLOCK nodes.  The rows a block keeps, and those it
    descends, are each one np.flatnonzero index that all four entry arrays
    take.  Entries are int32 while the largest entry or sum the bound allows
    stays below 2^31, int64 while it stays below 2^62, and Python ints (dtype
    object) beyond, so every value is exact.
    An alphabet below 1 raises ValueError, and a walk past DEFAULT_MAX_NODES
    nodes (root and descended ones, the cap read at call time) CapExceededError.
    """
    if alphabet < 1:
        raise ValueError("alphabet bound must be >= 1")
    # no entry of a node inside the bound exceeds `reach`, so neither does a digit
    reach = limit if by_trace else isqrt(max(limit, 0))
    top = min(alphabet, reach)
    if top >= _MAX_CHILDREN:
        raise CapExceededError(f"children per node, up to {top}, exceeds cap {_MAX_CHILDREN}")
    # sums reach 4 x limit for norms, 2a' + b' + c' + d' <= 5 x limit for traces
    worst = 5 * max(limit, 0)
    dtype = np.int32 if worst < _INT32_SAFE else np.int64 if worst < _INT64_SAFE else object
    nodes = 1  # the root

    def push(depth: int, a, b, c, d) -> None:
        if by_trace and depth % 2:
            room = (limit - b - c) // a  # even children: trace g*a + b + c <= limit
        elif by_trace:
            room = (limit - a - b - d) // (a + c)  # odd children: a' + b' + c' <= limit
        else:
            room = (reach - b) // a  # the child's top-left entry g*a + b <= reach
        counts = np.minimum(np.maximum(room, 0), top).astype(np.int64, copy=False)
        ends = np.cumsum(counts)
        if ends[-1]:  # a frame of leaves has nothing to expand
            stack.append(_Frame(depth, (a, b, c, d), ends - counts, ends))

    stack: list[_Frame] = []
    push(0, *(np.array([x], dtype=dtype) for x in (1, 0, 0, 1)))
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
            kept = np.flatnonzero(keep <= limit)  # one index for the four entries
            na, a, nc, c = na[kept], a[kept], nc[kept], c[kept]
            descend = slice(None)
            if len(na):
                yield frame.depth + 1, na, a, nc, c
        elif frame.depth % 2 == 0:  # odd children: every candidate is descended, none kept
            descend = slice(None)
        else:
            yield frame.depth + 1, na, a, nc, c
            descend = np.flatnonzero(2 * na + a + nc + c <= limit)
        child = [x[descend] for x in (na, a, nc, c)]
        if len(child[0]):
            nodes += len(child[0])
            if nodes > DEFAULT_MAX_NODES:
                raise CapExceededError(f"walk of {nodes} nodes exceeds cap {DEFAULT_MAX_NODES}")
            frame.waiting.append(child)
            frame.n_waiting += len(child[0])
        spent = hi == ends[-1]
        if spent:
            stack.pop()
        # descended children wait until they fill a frame or their parents are spent
        if frame.n_waiting and (spent or frame.n_waiting >= _BLOCK):
            rows = [np.concatenate(column) for column in zip(*frame.waiting)]
            frame.waiting, frame.n_waiting = [], 0
            push(frame.depth + 1, *rows)


def _ball_blocks(
    alphabet: int, norm_sq_cap: int, parity: str, max_elements: int | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The words of the given parity with ||g||^2 <= norm_sq_cap, as blocks of
    (length, a, b, c, d); raises CapExceededError past max_elements words."""
    if parity not in ("even", "any"):
        raise ValueError("parity must be 'even' or 'any'")
    seen = 0
    for length, *block in _frontier(alphabet, norm_sq_cap, False):
        if length % 2 == 0 or parity == "any":
            seen += len(block[0])
            if max_elements is not None and seen > max_elements:
                raise CapExceededError(f"ball enumeration exceeded {max_elements} elements")
            yield length, *block


@dataclass(frozen=True, eq=False)
class WordRows:
    """Words as arrays, one row each: row i's word is digits[i, :lengths[i]]
    (zeros pad the rest) and its matrix (a, b, c, d) is matrix[0][i], ...,
    matrix[3][i].  Its length is its rows'; iterating it forms their elements."""

    digits: np.ndarray
    lengths: np.ndarray
    matrix: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self) -> Iterator[SemigroupElement]:
        return _elements(self)

    def take(self, rows) -> WordRows:
        """The given rows (a slice, a boolean mask or an index array) as a plain
        WordRows; a slice's arrays are views of these."""
        return WordRows(self.digits[rows], self.lengths[rows], tuple(x[rows] for x in self.matrix))

    def mats(self, dtype) -> np.ndarray:
        """The rows' matrices, an (n, 2, 2) array of the given dtype."""
        return np.stack(self.matrix, axis=1).astype(dtype).reshape(-1, 2, 2)


def _words(blocks: Iterable[list[np.ndarray]], top: int) -> WordRows:
    """The words, with digits at most top, of matrices given in blocks of (a, b, c, d).

    A word's first column has a/c = [g1; g2, ..., gn], so one Euclid on (a, c)
    peels every word's digits left to right, digit = a // c as in
    word_from_matrix.  Its last quotient g may also end the word as (g - 1, 1);
    the determinant ad - bc = (-1)^length settles which; rows keep the blocks' order.
    """
    blocks = list(blocks) or [[np.zeros(0, dtype=np.int64)] * 4]
    a, b, c, d = (np.concatenate(column) for column in zip(*blocks))
    n = len(a)
    kind = np.min_scalar_type(top + 1)  # a last quotient may be top + 1
    columns, lengths = [], np.zeros(n, dtype=np.int64)
    x, y, live = a[c != 0], c[c != 0], np.flatnonzero(c)  # c = 0: the identity, no digit
    while len(live):
        q = x // y
        columns.append(np.zeros(n, dtype=kind))
        columns[-1][live] = q
        x, y = y, x - q * y
        done = y == 0
        lengths[live[done]] = len(columns)
        x, y, live = x[~done], y[~done], live[~done]
    columns.append(np.zeros(n, dtype=kind))  # room for a split's last digit
    digits = np.stack(columns, axis=1)
    split = np.flatnonzero((lengths % 2 == 0) != (a * d - b * c == 1))
    last = lengths[split]
    digits[split, last - 1] -= 1
    digits[split, last] = 1
    lengths[split] += 1
    return WordRows(digits, lengths, (a, b, c, d))


def _lex(words: WordRows) -> WordRows:
    """The rows sorted by their digits, so a prefix comes before its extensions."""
    return words.take(np.lexsort(words.digits.T[::-1]))


def _ball_words(alphabet: int, norm_sq_cap: int, parity: str, pick=None) -> WordRows:
    """The words of the given parity with ||g||^2 <= norm_sq_cap, of the lengths pick keeps
    from a first walk's count per length against DEFAULT_MAX_ELEMENTS (all without pick)."""
    tally = Counter()
    for n, a, *_ in _ball_blocks(alphabet, norm_sq_cap, parity, DEFAULT_MAX_ELEMENTS):
        tally[n] += len(a)
    keep = tally if pick is None else pick(tally)
    blocks = (b for n, *b in _ball_blocks(alphabet, norm_sq_cap, parity, None) if n in keep)
    return _lex(_words(blocks, min(alphabet, isqrt(max(norm_sq_cap, 0)))))


def _word_tuples(words: WordRows) -> Iterator[Word]:
    """The words of the rows, as tuples of Python ints; no element is formed."""
    return (tuple(w[:n]) for w, n in zip(words.digits.tolist(), words.lengths.tolist()))


def _elements(words: WordRows) -> Iterator[SemigroupElement]:
    """The elements of the rows of words, on Python ints."""
    entries = (x.tolist() for x in words.matrix)
    return (SemigroupElement(w, Mat2(*m)) for w, *m in zip(_word_tuples(words), *entries))


def ball_count(alphabet: int, norm: float, parity: str = "even") -> int:
    """Fast count of the ball, without materialising elements."""
    return sum(len(a) for _, a, *_ in _ball_blocks(alphabet, _norm_sq_cap(norm), parity, None))


def _count(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of an array, ascending, and their multiplicities.
    Sorts the array in place."""
    if not len(values):
        return values, np.zeros(0, dtype=np.int64)
    values.sort()
    first = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))  # run starts
    return values[first], np.diff(first, append=len(values))


def _shards(blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The blocks' entries, joined into arrays of at least _SHARD entries (the
    last may be shorter), so each array is sorted or counted in one call."""
    held, size = [], 0
    for block in blocks:
        held.append(block)
        size += len(block)
        if size >= _SHARD:
            yield np.concatenate(held)
            held, size = [], 0
    if held:
        yield np.concatenate(held)


def _merge(runs: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Tally a stream of (values, multiplicities) runs into one run of sorted
    distinct values, int64 unless the values are Python ints.

    Each run must be strictly ascending, as _count gives it, or the merge raises
    InternalInvariantError.  The first run becomes the tally, and each later one
    is merged into it: np.searchsorted finds where its values go, those already
    there add their multiplicities and the new ones are inserted.  So nothing is
    sorted, and the merge holds one run and the tally twice over at most.
    """
    values, mult = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    for v, m in runs:
        if np.any(v[1:] <= v[:-1]):
            raise InternalInvariantError("a run to merge is not strictly ascending")
        if not len(values):
            values, mult = v.astype(np.result_type(v, np.int64), copy=False), m.astype(np.int64)
            continue
        at = np.searchsorted(values, v)
        there = values[np.minimum(at, len(values) - 1)] == v
        mult[at[there]] += m[there]
        new = ~there
        values = np.insert(values, at[new], v[new])
        mult = np.insert(mult, at[new], m[new])
    return values, mult


def ball_traces(alphabet: int, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """The distinct traces of the even words in the closed ball, ascending, and
    their multiplicities.

    Raises CapExceededError once the ball passes DEFAULT_MAX_ELEMENTS even words.
    """
    blocks = _ball_blocks(alphabet, _norm_sq_cap(norm), "even", DEFAULT_MAX_ELEMENTS)
    return _merge(_count(s) for s in _shards(a + d for _, a, _, _, d in blocks))


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
    for _, a, b, c, d in _ball_blocks(alphabet, _norm_sq_cap(grid[-1]), "even", None):
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


def trace_fiber(alphabet: int, t: int) -> WordRows:
    """All even words over {1..alphabet} whose matrix has trace exactly t.

    Prunes a branch once the least trace attainable by any completion exceeds
    t: even extensions of M are bounded below by tr(M [[2,1],[1,1]]) and odd
    prefixes complete to at least tr(M [[1,1],[1,0]]), entrywise positivity
    making both bounds monotone in every digit.  Words are read back from
    their matrices and returned as rows in lexicographic order.
    """
    if t < 3:
        raise ValueError("trace fibers start at t = 3")
    hits = []
    for _, a, b, c, d in _frontier(alphabet, t, True):
        hit = a + d == t
        hits.append([x[hit] for x in (a, b, c, d)])
    return _lex(_words(hits, min(alphabet, t)))


def trace_histogram(alphabet: int, t_max: int) -> np.ndarray:
    """counts[t] = #{even words with trace t} for 0 <= t <= t_max, from one walk."""
    counts = np.zeros(t_max + 1, dtype=np.int64)
    traces = (a + d for _, a, _, _, d in _frontier(alphabet, t_max, True))
    for shard in _shards(traces):
        counts += np.bincount(shard, minlength=t_max + 1)
    return counts


def trace_multiplicity(alphabet: int, t: int) -> int:
    """#{even words over {1..alphabet} with trace t}."""
    return len(trace_fiber(alphabet, t))


def trace_multiplicity_by_divisors(alphabet: int, t: int) -> int:
    """Independent fiber count: solve a + d = t, bc = ad - 1 over divisor pairs,
    then test semigroup membership by digit peeling.  The continuants of a
    nonempty word give a >= b >= d and a >= c >= d, which is necessary: so only
    a >= t/2 and the pairs with d <= min(b, c) and max(b, c) <= a are peeled."""
    if t < 3:
        raise ValueError("trace fibers start at t = 3")
    count = 0
    for a in range((t + 1) // 2, t):  # a >= 2 and d >= 1, so m >= 1
        d = t - a
        m = a * d - 1
        for b in divisors(m):
            c = m // b
            if d <= min(b, c) and max(b, c) <= a:
                w = word_from_matrix(Mat2(a, b, c, d))
                if w is not None and len(w) % 2 == 0 and max(w) <= alphabet:
                    count += 1
    return count


def cyclic_classes(alphabet: int, t: int) -> list[Word]:
    """Rotation classes of the trace-t fiber, as lexicographically least rotations."""
    return sorted({canonical_rotation(w) for w in _word_tuples(trace_fiber(alphabet, t))})


# ---------------------------------------------------------------------------
# fixed-wordlength slices and the bilinear set


class FixedSlice(WordRows):
    """The most populous fixed-wordlength slice of a norm ball, as the walk's rows."""

    @property
    def wordlength(self) -> int:
        return int(self.lengths[0])


def build_fixed_length_ball(alphabet: int, bound: float) -> FixedSlice:
    """Among even wordlengths in the open ball ||g|| < bound, keep the most populous
    one (ties resolved toward the shorter length), chosen before any word is read."""
    def most_populous(tally: Counter) -> tuple[int]:
        if not tally:
            raise ValueError(f"the open ball of norm < {bound} holds no even word")
        return (min(tally, key=lambda n: (-tally[n], n)),)

    words = _ball_words(alphabet, _norm_sq_cap(bound, strict=True), "even", most_populous)
    return FixedSlice(words.digits, words.lengths, words.matrix)


@dataclass(frozen=True, eq=False)
class AlephSet(WordRows):
    """Residue-balanced subset of the alphabet-2 semigroup, as the rows of words.

    Built by pigeonholing the small ball on its residues mod B, powering the
    popular element to reach the identity class, then translating into every
    class of SL2(Z/B); the union therefore hits all classes mod B equally.
    """

    modulus: int
    group_order: int
    base_size: int
    pivot_bound: int
    pilot: SemigroupElement | None
    residue_reps: tuple[SemigroupElement, ...]


def _residue_representatives(modulus: int, want: int) -> list[SemigroupElement]:
    """Short even alphabet-2 words covering every class of SL2(Z/B), of which there are want.

    Breadth-first over the quotient: one representative per residue, extending
    only newly discovered classes, so the work is linear in |SL2(Z/B)|.
    """
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
        raise InternalInvariantError(f"could not cover SL2(Z/{modulus}) with short words")
    return [found[r] for r in sorted(found)]


def _residues(words: WordRows, q: int) -> np.ndarray:
    """Each row's matrix (a, b, c, d) mod q as one index, in the residues' lexicographic
    order; a q whose q^4 residues overflow the index (q > 55,108) raises ValueError."""
    if q**4 > np.iinfo(np.intp).max:
        raise ValueError(f"modulus {q} is too large: its q^4 residues overflow the index")
    return np.ravel_multi_index([(x % q).astype(np.intp) for x in words.matrix], (q,) * 4)


def aleph_construct(norm_bound: float, modulus: int = 2) -> AlephSet:
    """Residue-balanced set inside the alphabet-2 ball of norm < norm_bound.

    With B = 1 the construction degenerates to the plain even ball.
    """
    closed, inside = _norm_sq_cap(norm_bound), _norm_sq_cap(norm_bound, strict=True)
    if modulus > ALEPH_MODULUS_CAP:
        raise CapExceededError(f"modulus {modulus} exceeds cap {ALEPH_MODULUS_CAP}")
    R = sl2_order(modulus)  # also validates square-freeness
    # aleph holds a word exactly when its pivot ball holds (1, 1), the least even word, of
    # norm^2 7: at B = 1 that ball is aleph's own; at B > 1 it is ||g|| < u below, so u >= 3,
    # or floor(b^2) >= 9^R * xmax_sq.  As xmax_sq >= 7, no float bound (b^2 < 2^1024)
    # reaches B past 9^R * 7 > 2^1024, so SL2(Z/B) is not covered; no ball is walked till then
    if modulus > 1 and iroot((1 << 1024) // 7, R) < 9:
        raise ValueError(f"ball too small; no finite norm bound reaches modulus {modulus}")
    reps = _residue_representatives(modulus, R) if modulus > 1 else ()
    xmax_sq = max((e.norm_sq for e in reps), default=1)
    # the least integer bound c that builds has c^2 >= 9^R * xmax_sq, or c^2 > 7 at B = 1
    need = 9**R * xmax_sq if reps else 8
    if (closed < need) if reps else (inside < 7):
        least = isqrt(need - 1) + 1  # named as a float, rounded up
        up = float(least) if float(least) >= least else nextafter(float(least), inf)
        raise ValueError(f"ball too small; increase the norm bound to {up!r} for modulus {modulus}")
    if modulus == 1:
        words = _ball_words(2, inside, "even")
        return AlephSet(words.digits, words.lengths, words.matrix, 1, 1, len(words),
                        int(norm_bound), None, ())
    # largest u with u^(2R) * xmax_sq <= norm_bound^2; the left side is an integer
    u = iroot(closed // xmax_sq, 2 * R)
    base = _ball_words(2, u * u - 1, "even")
    # a pivot of 3 or more needs |SL2(Z/B)| <= 322, so B <= 6 and B^4 bins are few
    residue = _residues(base, modulus)
    tally = np.bincount(residue)
    stems = residue == np.argmax(tally)  # the least of the most common residues
    first = np.argmax(stems)
    pilot = SemigroupElement.from_word(next(_word_tuples(base.take([first]))))
    # a product's entries and partial sums are at most its own entries, below sqrt(inside)
    dtype = np.int64 if inside < _INT64_SAFE else object
    tail = np.array((pilot.matrix ** (R - 1)).entries(), dtype=dtype).reshape(2, 2)
    right = np.array([x.matrix.entries() for x in reps], dtype=dtype).reshape(-1, 2, 2)
    products = (base.mats(dtype)[stems] @ tail)[:, None] @ right[None]  # stem-major, then reps
    words = _words([products.reshape(-1, 4).T], 2)
    if (sum(x * x for x in words.matrix) > inside).any():
        raise InternalInvariantError("constructed element escaped the norm bound")
    return AlephSet(words.digits, words.lengths, words.matrix, modulus, R, int(tally.max()), u,
                    pilot, tuple(reps))


def aleph_error(aleph: AlephSet, q: int) -> float:
    """Worst deviation of the residue distribution of the set from uniform on SL2(Z/q)."""
    n = len(aleph)
    if not n:
        raise ValueError("empty set")
    order = sl2_order(q)
    counts = np.unique(_residues(aleph, q), return_counts=True)[1]
    least = 0 if len(counts) < order else int(counts.min())  # 0: some class is unseen
    # |c/n - 1/order| is convex in a class's count c, so the most or least common is worst
    return float(max(abs(Fraction(c, n) - Fraction(1, order)) for c in (int(counts.max()), least)))


@dataclass(frozen=True, eq=False)
class BilinearSet:
    """Triple product Xi * Aleph * Omega, realised lazily from its factors' rows.

    Xi and Omega have fixed wordlengths and Aleph lives over the alphabet {1,2},
    so distinct factor triples concatenate to distinct words: the product set
    has exactly |Xi| * |Aleph| * |Omega| elements.
    """

    xi: WordRows
    aleph: WordRows
    omega: WordRows

    def __post_init__(self):
        for name, factor in (("Xi", self.xi), ("Aleph", self.aleph), ("Omega", self.omega)):
            if not len(factor):
                raise ValueError(f"empty factor {name}")
        for name, factor in (("Xi", self.xi), ("Omega", self.omega)):
            if factor.lengths.min() != factor.lengths.max():
                raise ValueError(f"{name} must have a fixed wordlength")
        if (self.aleph.lengths % 2).any() or self.aleph.digits.max() > 2:
            raise ValueError("Aleph must consist of even alphabet-2 words")

    @property
    def size(self) -> int:
        return len(self.xi) * len(self.aleph) * len(self.omega)

    def _norms_sq(self) -> list[int]:  # exact: a walk's dtype holds 5 x its bound
        return [int(sum(x * x for x in f.matrix).max()) for f in (self.xi, self.aleph, self.omega)]

    def norm_bound(self) -> float:
        """Upper bound on member norms (Frobenius norms are submultiplicative)."""
        parts = self._norms_sq()
        return float(np.sqrt(float(parts[0]) * parts[1] * parts[2]))

    def iter_elements(self) -> Iterator[SemigroupElement]:
        xi, omega = list(self.xi), list(self.omega)
        for mid in self.aleph:
            for right in omega:
                tail_w = mid.word + right.word
                tail_m = mid.matrix * right.matrix
                for left in xi:
                    yield SemigroupElement(left.word + tail_w, left.matrix * tail_m)

    def iter_traces(self) -> Iterator[int]:
        """Every member's trace, one at a time (the oracle of trace_tally)."""
        return (e.trace for e in self.iter_elements())

    def trace_tally(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct traces of the product set, ascending, and their multiplicities.

        tr(L T) = La Ta + Lb Tc + Lc Tb + Ld Td, so the traces are one integer
        matrix product: the |Xi| x 4 rows (La, Lb, Lc, Ld) times the 4 x
        |Aleph||Omega| columns (Ta, Tc, Tb, Td) of the tails T = A O.  It is
        formed about _SHARD traces at a time, a shard of Xi rows, and each
        shard is counted in place and fed to _merge, so memory grows with the
        shard and the distinct traces, not with the set.
        By Cauchy-Schwarz and submultiplicativity every entry of T, every
        partial sum and every trace is at most the square root of the product
        of the factors' largest squared norms; entries are int64 while that
        root stays below 2^62 and Python ints (dtype object) beyond.
        """
        dtype = np.int64 if prod(self._norms_sq()) < _INT64_SAFE**2 else object
        xi, aleph, omega = (f.mats(dtype) for f in (self.xi, self.aleph, self.omega))
        tails = aleph[:, None] @ omega[None, :]
        right = tails.transpose(0, 1, 3, 2).reshape(-1, 4).T  # columns (Ta, Tc, Tb, Td)
        left = xi.reshape(-1, 4)
        rows = max(1, _SHARD // right.shape[1])
        return _merge(_count((left[i : i + rows] @ right).ravel())
                      for i in range(0, len(left), rows))


def build_pi(xi, aleph, omega) -> BilinearSet:
    """Assemble the bilinear product set from its three factors.

    A factor of WordRows is taken as it is; elements or words are read into
    rows, in their order, from their matrices on Python ints.
    """
    def rows(factor) -> WordRows:
        if isinstance(factor, WordRows):
            return factor
        ms = (e.matrix if isinstance(e, SemigroupElement) else word_to_matrix(e) for e in factor)
        columns = np.array([m.entries() for m in ms], dtype=object).reshape(-1, 4).T
        return _words([columns], max(columns[0], default=0))  # no digit exceeds a

    return BilinearSet(*(rows(factor) for factor in (xi, aleph, omega)))
