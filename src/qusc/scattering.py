"""Center sequences: Weyl orbit expansion, level-by-level ordering,
quasi-uniformity verification and dimension chaining.

A sequence is stored once, as an (n, d) int64 matrix of numerators at the
common scale 2**levels_built; ScaledPoint objects are made only when a point
is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import PointView, YoungDiagram, check_int, polytope_center
from .enumeration import walk_boundary

_INT64_MAX = int(np.iinfo(np.int64).max)


def check_scale(diagram: YoungDiagram, levels: int) -> None:
    """Raise ValueError unless the largest numerator of the diagram's
    polytope, its first row at scale 2**levels, fits in int64."""
    if levels > 62 or diagram.rows[0] << levels > _INT64_MAX:
        raise ValueError(f"levels={levels}: the numerators of diagram {diagram} "
                         f"at scale 2**{levels} overflow int64")


@lru_cache(maxsize=None)
def _perm_table(starts: tuple[int, ...]) -> np.ndarray:
    """Source positions of every distinct permutation of a sorted tuple whose
    runs of equal values start at the positions j with ``starts[j]`` set:
    each slot names the first position of its run.  The rows grow one
    position at a time: each partial row is extended by every run that has
    values left, so they come out in ascending lexicographic order."""
    heads = np.flatnonzero(starts)
    left = np.diff(heads, append=len(starts))[None, :]
    table = np.empty((1, 0), dtype=np.intp)
    for _ in starts:
        row, run = np.nonzero(left)
        table = np.column_stack((table[row], heads[run]))
        left = left[row]
        left[np.arange(len(row)), run] -= 1
    table.flags.writeable = False  # one cached copy serves every caller
    return table


def _pack_columns(columns, n: int, low: int, high: int) -> np.ndarray:
    """One exact key per row of the n rows whose columns, int64 arrays of
    length n with entries in [low, high], are ``columns``: each entry less
    ``low`` takes the bit width of high - low, the first entry the highest
    bits, and as many entries as fit share a uint64 word.  Keys are equal
    exactly when the rows are and sort as the rows do, lexicographically.
    A one-word key is a uint64; wider keys are opaque big-endian byte
    strings, which compare word by word."""
    d = len(columns)
    width = max((high - low).bit_length(), 1)
    per = 64 // width
    words = np.zeros((-(-max(d, 1) // per), n), dtype=np.uint64)
    offset = np.uint64(low % (1 << 64))
    for j, column in enumerate(columns):
        word = words[j // per]
        if j % per:
            word <<= np.uint64(width)
        # in place and modulo 2**64, so exact and without a temporary
        word += column.view(np.uint64)
        word -= offset
    if len(words) == 1:
        return words[0]
    return (np.ascontiguousarray(words.T, dtype=">u8")
            .view(np.dtype((np.void, 8 * len(words)))).ravel())


def _descending(keys: np.ndarray) -> np.ndarray:
    """``_pack_columns`` keys with every byte inverted, in place: they are
    equal exactly when the keys are, and sort in the reverse order."""
    np.invert(keys.view(np.uint8), out=keys.view(np.uint8))
    return keys


def _unpack_rows(keys: np.ndarray, low: int, high: int,
                 out: np.ndarray) -> np.ndarray:
    """The rows whose ``_pack_columns`` keys over [low, high] are ``keys``,
    written to ``out``, one row per key."""
    d = out.shape[1]
    width = max((high - low).bit_length(), 1)
    per = 64 // width
    words = keys[:, None].view(np.uint64 if keys.dtype == np.uint64 else ">u8")
    mask = np.uint64((1 << width) - 1)
    offset = np.uint64(low % (1 << 64))
    entry = np.empty(len(keys), dtype=np.uint64)
    for j in range(d):
        last = min(j - j % per + per, d) - 1  # the word's lowest entry
        np.right_shift(words[:, j // per], np.uint64(width * (last - j)), out=entry)
        entry &= mask
        entry += offset
        out[:, j] = entry.view(np.int64)
    return out


def _orbit_block(dominant: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Every distinct coordinate permutation of the dominant rows, sorted
    descending-lex: one level block of a scattering, of which the first
    len(out) rows are written to ``out``."""
    n, d = dominant.shape
    if not n:
        return out
    # rows whose runs of equal values start at the same positions share
    # one permutation table
    starts = np.ones((n, d), dtype=np.int64)
    starts[:, 1:] = dominant[:, 1:] != dominant[:, :-1]
    _, first, group = np.unique(_pack_columns(starts.T, n, 0, 1),
                                return_index=True, return_inverse=True)
    tables = [_perm_table(tuple(starts[i].tolist())) for i in first]
    sizes = np.bincount(group) * [len(t) for t in tables]
    # an uncut block is built in ``out`` itself: its rows are packed into
    # keys, which are sorted and unpacked back in place
    total = int(sizes.sum())
    block = out if len(out) == total else np.empty((total, d), dtype=np.int64)
    # np.take writes straight into the block only when it need not check
    # the indices (mode "clip"); they are all in range
    at = 0
    for g, (table, size) in enumerate(zip(tables, sizes)):
        rows = dominant[group == g]
        np.take(rows, table, axis=1, mode="clip",
                out=block[at:at + size].reshape(len(rows), len(table), d))
        at += size
    low, high = int(dominant.min()), int(dominant.max())
    keys = _pack_columns(block.T, total, low, high)
    keys.sort()
    # orbits are disjoint, so the rows are distinct and reversing the
    # ascending order gives the descending one
    return _unpack_rows(keys[::-1][:len(out)], low, high, out)


def _orbit_sizes(rows: np.ndarray) -> np.ndarray:
    """Weyl orbit size of each sorted row: d! over the factorials of its runs
    of equal values, built one position at a time (exact in int64 up to
    d = 20, in Python integers beyond)."""
    n, d = rows.shape
    kind = np.int64 if d <= 20 else object
    size = np.ones(n, dtype=kind)
    run = np.ones(n, dtype=kind)
    for j in range(1, d):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1).astype(kind)
        size = size * (j + 1) // run
    return size


def _sorted_past(g, free, t):
    """The rows of g, in place, with their values at the free coordinates
    past the first t sorted ascending, as a depth-t node's key center has
    them (a row is depth 0): by the rearrangement inequality the order that
    pairs them best."""
    past = free[t:]
    if len(past) < 2:
        return g
    if past[-1] - past[0] < len(past):  # a run of columns sorts in place
        g[:, past[0]:past[-1] + 1].sort(axis=1)
    else:
        g[:, past] = np.sort(g[:, past], axis=1)
    return g


@lru_cache(maxsize=None)
def _network(m: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort of m values (Knuth, TAOCP 3, 5.3.4,
    for any m) as compare-exchange pairs (i, j), i < j: 1, 3, 5, 9, 12, 16,
    19 and 28 pairs for m = 2 to 9, the fewest known up to m = 8."""
    pairs = []
    p = 1
    while p < m:
        k = p
        while k:
            for j in range(k % p, m - k, 2 * k):
                for i in range(j, j + min(k, m - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _sorted_columns(columns) -> list[np.ndarray]:
    """The values of each row across the equal-length ``columns``, sorted
    descending, as new columns: ``_network``'s pairs, each two whole-column
    calls (np.maximum and np.minimum, in place with one spare column),
    where np.sort along the rows would pay a call per row."""
    out = [np.array(c) for c in columns]
    if not out:
        return out
    spare = np.empty_like(out[0])
    for i, j in _network(len(out)):
        np.minimum(out[i], out[j], out=spare)
        np.maximum(out[i], out[j], out=out[i])
        out[j], spare = spare, out[j]
    return out


def canonical_levels(numerators: np.ndarray, level: int) -> np.ndarray:
    """The level of each numerator row at scale 2**level in lowest terms:
    ``level`` minus the factors of two its entries share (an all-zero row
    is at level 0)."""
    # the columns ORed in place: bitwise_or.reduce along rows pays per row
    low = np.zeros(len(numerators), dtype=np.int64)
    for column in numerators.T:
        low |= column
    low &= -low
    twos = np.frexp(np.abs(low.astype(np.float64)))[1] - 1
    return level - np.where(low == 0, level, np.minimum(twos, level))


# A node, row or coset, that holds more members than this (no orbit of
# four coordinates or fewer has more distinct ones, 4! = 24) is split into
# the prefix cosets one free coordinate deeper, unless one of them would
# hold more than _SHARE of its members.  So each split shrinks every path
# by a quarter: an orbit with one value at most places, as (2,1,1,0,...,0)
# in many dimensions, would otherwise split off a member or two per free
# coordinate, and a run of equal centers, one coset's whole, never splits
_LEAF = 24
_SHARE = 0.75


def _prefix_cosets(nums, members, ends, sizes, free, partial, lattice):
    """The node tree of a center table whose rows list their ``members``
    in tie order: the nodes' spans, ``kids``, ``keys`` and ``key_sq`` and
    the tree's ``depth``, as ``CenterTable`` holds them, with the centers
    ``partial`` keyed last."""
    m, d = len(free), nums.shape[1]
    rows, starts = len(ends), ends - sizes
    # depth by depth, the runs of members that share their first t free
    # values: a run at depth t starts where one at depth t - 1 does or the
    # t-th free value changes, and is a coset when its parent run is split
    new = np.zeros(len(members), dtype=np.bool_)
    new[starts] = True
    runs, node = starts, np.arange(rows)
    open_ = sizes > _LEAF
    # each node's key center: its first member with the free values past
    # its depth sorted ascending
    spans, keys = [np.stack((ends, sizes))], [_sorted_past(
        nums.take(members.take(starts), axis=0), free, 0)]
    empty = np.zeros(0, dtype=np.intp)
    kid_of, kid_slot, total = [empty], [empty], rows
    # without a row of more than _LEAF members the tree is its rows
    for t in range(1, m if open_.any() else 1):
        value = nums[:, free[t - 1]].take(members)
        new[1:] |= value[1:] != value[:-1]
        first = np.flatnonzero(new)
        parent = np.searchsorted(runs, first, side="right") - 1
        # a run is split by the one rule of _LEAF and _SHARE
        size = np.diff(first, append=len(members))
        held = np.diff(runs, append=len(members))
        open_ = open_ & (held > _LEAF) & (np.maximum.reduceat(
            size, first.searchsorted(runs)) <= _SHARE * held)
        keep = open_.take(parent)
        if not keep.any():
            break
        kid, parent, size = first[keep], parent[keep], size[keep]
        kid_of.append(node.take(parent))
        kid_slot.append(np.arange(len(kid)) - parent.searchsorted(parent))
        spans.append(np.stack((kid + size, size)))
        keys.append(_sorted_past(nums.take(members.take(kid), axis=0), free,
                                 t))
        # the runs of this depth, numbered where they are cosets
        runs, node = first, np.zeros(len(first), dtype=np.intp)
        node[keep] = np.arange(total, total + len(kid))
        open_ = keep
        total += len(kid)
    # each node's children, padded with the number ``total``, whose key
    # center is NaN
    depth, slot = len(keys) - 1, np.concatenate(kid_slot)
    kids = np.full((total, int(slot.max(initial=-1)) + 1), total,
                   dtype=np.intp)
    kids[np.concatenate(kid_of), slot] = np.arange(rows, total)
    keys = np.concatenate(keys + [np.full((1, d), np.nan),
                                  nums.take(partial, axis=0)])
    keys /= lattice
    # each squared norm one dot product
    key_sq = np.einsum("ij,ij->i", keys, keys)
    return np.concatenate(spans, axis=1), kids, keys, key_sq, depth


def _orbit_rows(nums: np.ndarray):
    """The rows of a center table over the numerator rows ``nums``: the free
    coordinates, the members' tie ranks, the members row by row in tie
    order, each row's end and size, and the partial rows' first members.
    One stable sort of the rows' exact ``_pack_columns`` keys, bytes inverted
    so that they sort descending-lex (near-linear on the level blocks'
    runs), is the tie order; its first occurrences, among which a lookup of
    each center's dominant member names its orbit, give the row labels, and
    a stable sort of them in tie order the rows.  Its temporaries, several
    times the numerators' size, are freed on return."""
    n = len(nums)
    # the free coordinates, most of them shown by a few spread rows
    vary = (nums[::max(n >> 6, 1)] != nums[:1]).any(axis=0)
    vary[~vary] = (nums[:, ~vary] != nums[:1, ~vary]).any(axis=0)
    free = np.flatnonzero(vary)
    # each center's dominant member, as columns
    dominant = list(nums.T)
    for j, column in zip(free, _sorted_columns([nums[:, j] for j in free])):
        dominant[j] = column
    low, high = (int(nums.min()), int(nums.max())) if n else (0, 0)
    # keys that sort descending-lex, so that a stable sort of them is the
    # tie order, each run of equal keys in ascending sequence order
    keys = _descending(_pack_columns(nums.T, n, low, high))
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(n, dtype=np.bool_)
    new[1:] = ranked[1:] != ranked[:-1]
    start = np.flatnonzero(new)
    distinct, first = ranked.take(start), order.take(start)
    # each center's orbit, named by the key of its dominant member
    orbit = _descending(_pack_columns(dominant, n, low, high))
    is_dom = orbit[first] == distinct
    heads, dom_keys = first[is_dom], distinct[is_dom]
    # each center's orbit number: its dominant member's place among the
    # present ones, or past them where that member is absent
    at, m = dom_keys.searchsorted(orbit), len(heads)
    found = (dom_keys.take(at, mode="clip") == orbit if m
             else np.zeros(n, dtype=np.bool_))
    lost = np.flatnonzero(~found)
    _, head, at[lost] = np.unique(orbit[lost], return_index=True,
                                  return_inverse=True)
    at[lost] += m
    heads = np.append(heads, lost[head])
    # an orbit is whole when each of its members is present
    size = _orbit_sizes(np.stack([column[heads] for column in dominant],
                                 axis=1)[:, free])
    whole = np.bincount(at[first], minlength=len(heads)) == size
    rank = np.lexsort((heads, ~whole))
    # each center's row, in the smallest dtype that holds it (a stable
    # sort of labels of 16 bits or fewer is a radix sort)
    kind = np.min_scalar_type(max(len(heads) - 1, 0))
    row = np.argsort(rank).astype(kind)[at]
    sizes = np.bincount(row, minlength=len(heads))
    ends = sizes.cumsum()
    # the members' places in the tie order, row by row, are their tie ranks
    tie = np.argsort(row.take(order), kind="stable")
    members = order.take(tie)
    partial = members[(ends - sizes)[np.count_nonzero(whole):]]
    return (free, tie.astype(np.min_scalar_type(max(n - 1, 0))), members,
            ends, sizes, partial)


class CenterTable(NamedTuple):
    """The index of a center sequence that the nearest-center search runs on:
    one tree of nodes, each a run of the sequence indices ``members``.

    Nodes 0 to ``rows`` - 1 are the rows.  Row r is an orbit: the centers,
    repeats included, that permute one another's coordinates ``free``,
    those that vary along the sequence.  Whole orbits come first, then
    partial ones, each in the sequence order of their dominant members (of
    their first where that is absent).  A row lists its members in tie
    order, descending-lex point, then sequence index.  Every node, row or
    prefix coset, is split into the cosets one free coordinate deeper,
    those of its members that share their first t free coordinates, where
    it holds more than ``_LEAF`` members and none of its children more
    than ``_SHARE`` of them, ``depth`` times at most.  The cosets follow
    the rows, depth by depth.  The (2, nodes) array ``spans`` holds each
    node's run, ``members[end - size:end]``, as its ``end`` over its
    ``size``; a split node's run is its children's runs in turn.  ``kids``
    (nodes, width) names each node's children, padded with the number
    ``nodes``: a leaf, a node not split, has only padding.

    ``keys`` holds the key centers as float64 values, the numerators over
    ``2.0**levels_built``, one (d,) row per node: its first member with the
    free values past its depth sorted ascending (a row's depth is 0).
    Entry ``nodes``, the padding's, is NaN, so that no query keeps it; each
    partial row's first member, its lex-greatest, follows it.  ``cols`` is
    the rows' key centers again as a C-contiguous (d, rows) array, the
    layout a product with a block of queries reads fastest.  ``key_sq``
    holds each entry's squared norm, one dot product of the entry with
    itself, and ``norms`` its square root.

    ``points`` holds the centers in member order, ``members[i]``'s in row
    i, as float64 values, the numerators over ``2.0**levels_built``, so
    that every node's members are one run of its rows.  ``tie`` gives each
    center, in member order too, its place in the tie order, a full scan's
    order of equal distances, in the smallest unsigned type that holds it;
    it increases along each row.  ``zero`` is the sequence index of the
    first zero center, or -1 when there is none.  ``radius`` is the largest
    key norm, which bounds every center's norm.
    """

    rows: int
    members: np.ndarray
    spans: np.ndarray
    kids: np.ndarray
    free: np.ndarray
    keys: np.ndarray
    cols: np.ndarray
    key_sq: np.ndarray
    norms: np.ndarray
    points: np.ndarray
    tie: np.ndarray
    zero: int
    radius: float
    depth: int


class Scattering:
    """An ordered center sequence over the boundary of a weight polytope.

    Centers come in level blocks; inside a block the full Weyl orbits of the
    level's new dominant points are merged and sorted descending-lex.  A
    sequence may also be a cut prefix of one, an embedded one or a corrupt
    one with repeated centers; the search serves all of them exactly.

    ``numerators`` is the only store of the centers: an (n, d) int64 matrix
    at scale ``2**levels_built``, held without a copy and read-only.
    ``centers`` reads its rows as ScaledPoints, made on access.  The level
    blocks are read off the numerators, on the first read of
    ``level_offsets``: a center's level is its own, its dyadic denominator
    in lowest terms, so the same centers have the same blocks in memory and
    after a file round trip.
    """

    def __init__(self, diagram: YoungDiagram, levels_built: int, numerators):
        levels_built = check_int(levels_built, "levels_built")
        nums = np.asarray(numerators)
        if nums.size and not (isinstance(numerators, np.ndarray)
                              and nums.dtype.kind in "iu"):
            # entry by entry: a list with an int past int64 reads as floats
            # or objects, one with a bool among ints as ints, and a float,
            # bool or string is refused, not cast
            nums = np.array([check_int(v, "numerator", None) for v in
                             np.array(numerators, dtype=object).flat],
                            dtype=object).reshape(nums.shape)
        if nums.dtype != np.int64 and nums.size:
            if not -_INT64_MAX - 1 <= nums.min() <= nums.max() <= _INT64_MAX:
                raise ValueError("numerators overflow int64")
            nums = nums.astype(np.int64)
        if nums.size == 0:
            nums = np.zeros((0, diagram.dim), dtype=np.int64)
        if nums.ndim != 2 or nums.shape[1] != diagram.dim:
            raise ValueError(f"numerators of shape {nums.shape} do not hold "
                             f"{diagram.dim}-coordinate rows")
        self.diagram = diagram
        self.levels_built = levels_built
        self.centers = PointView(nums, levels_built)
        self.numerators = self.centers.numerators
        self._table = None
        self._norms = None  # the centers' norms in member order, on demand

    def __len__(self):
        return len(self.numerators)

    @property
    def dim(self) -> int:
        return self.diagram.dim

    def values(self) -> np.ndarray:
        """The centers' float coordinates, one row each."""
        return self.numerators / float(1 << self.levels_built)

    @cached_property
    def level_offsets(self) -> tuple[int, ...]:
        """The start of each level block: 0, then every center whose own
        level exceeds that of every center before it."""
        own = canonical_levels(self.numerators, self.levels_built)
        seen = np.maximum.accumulate(own)
        return (0, *(np.flatnonzero(own[1:] > seen[:-1]) + 1).tolist())

    def level_blocks(self) -> list[tuple[int, int]]:
        offsets = self.level_offsets
        return list(zip(offsets, offsets[1:] + (len(self),)))

    def dominant_table(self) -> CenterTable:
        """The search's index of this sequence, built on the first query
        and cached: its orbits as rows in tie order (``_orbit_rows``), split
        into prefix cosets as ``_LEAF`` says (``_prefix_cosets``)."""
        if self._table is None:
            nums = self.numerators
            free, tie, members, ends, sizes, partial = _orbit_rows(nums)
            # the search's frame: a power-of-two division, so exact
            lattice = float(1 << self.levels_built)
            spans, kids, keys, key_sq, depth = _prefix_cosets(
                nums, members, ends, sizes, free, partial, lattice)
            norms = np.sqrt(key_sq)
            # a zero center is a whole orbit, so argmin finds its row
            rows = len(ends)
            zero = -1 if norms[:rows].all() else int(
                members[(ends - sizes)[np.argmin(norms[:rows])]])
            # the centers in member order, by the float steps the search
            # scores with, so that each node's members are one run of rows
            points = nums.take(members, axis=0).astype(np.float64)
            points *= 1.0 / lattice
            self._table = CenterTable(
                rows, members, spans, kids, free, keys,
                np.ascontiguousarray(keys[:rows].T), key_sq, norms, points,
                tie, zero, float(np.fmax.reduce(norms, initial=0.0)), depth)
        return self._table

    def is_complete(self) -> bool:
        """Diagnostic: whether this is the sequence ``build_scattering``
        makes for its diagram through ``levels_built``, center for center,
        so order counts; equal centers have equal level blocks.  No query
        path needs it; it builds that sequence, cut one center past this
        one's length, on every call."""
        built = build_scattering(self.diagram, self.levels_built,
                                 max_points=len(self) + 1)
        return np.array_equal(built.numerators, self.numerators)


def build_scattering(diagram: YoungDiagram, max_levels: int,
                     max_points: int | None = None) -> Scattering:
    """Assemble the center sequence through subdivision level ``max_levels``.

    ``max_points`` cuts the sequence at the tail; the cut may fall inside a
    Weyl orbit (so ``max_points=1`` yields just the highest weight).  An
    uncut build walks the boundary of level ``max_levels`` alone, a cut one
    that of each level up to the first whose walk holds ``max_points``
    centers.  The last walk is peeled from the top down: at scale 2**k a
    point with an odd coordinate is new at level k, any other passes on,
    halved, to level k - 1.  Raises ValueError before walking a level whose
    numerators would overflow int64; an uncut build, before any walk.
    """
    max_levels = check_int(max_levels, "max_levels")
    cut = max_points is not None
    limit = check_int(max_points, "max_points") if cut else math.inf
    for k in range(0 if cut else max_levels, max_levels + 1):
        check_scale(diagram, k)
        rows = walk_boundary(diagram, k)[0]
        sizes = _orbit_sizes(rows)
        if sizes.sum() >= limit:
            break
    # each level's block is written straight into the one matrix, as far as
    # the cut keeps it, shifted to the scale of the last that keeps centers
    total = min(int(sizes.sum()), limit)
    nums = np.empty((total, diagram.dim), dtype=np.int64)
    top = None
    for k in range(k, -1, -1):
        new = (rows & 1).any(axis=1) | (k == 0)
        dominant, rows, sizes = rows[new], rows[~new] >> 1, sizes[~new]
        start = int(sizes.sum())  # the centers of the levels below
        if start < total:
            top = k if top is None else top
            _orbit_block(dominant, out=nums[start:total])
            nums[start:total] <<= top - k
            total = start
    return Scattering(diagram, top or 0, nums)  # an empty cut: level 0


# -- dimension chaining -----------------------------------------------------

def embed_scattering(s: Scattering) -> Scattering:
    """The chaining map: the diagram gains a row of length 1 and every
    center a last coordinate of value 1 (numerator 2**levels_built), so the
    sequence keeps its order, level blocks and distances and becomes a
    subsequence of the higher-rank diagram's."""
    diagram = YoungDiagram(tuple(sorted(s.diagram.rows + (1,), reverse=True)))
    unit = np.full((len(s), 1), 1 << s.levels_built, dtype=np.int64)
    return Scattering(diagram, s.levels_built, np.hstack((s.numerators, unit)))


# -- uniformity verification -------------------------------------------------

@dataclass(frozen=True)
class PrefixStats:
    length: int
    min_sq_numerator: int
    max_sq_numerator: int
    scale_level: int
    min_cosine: float
    max_cosine: float
    at_level_boundary: bool

    @property
    def min_distance(self) -> float:
        return math.sqrt(self.min_sq_numerator) / (1 << self.scale_level)

    @property
    def max_distance(self) -> float:
        return math.sqrt(self.max_sq_numerator) / (1 << self.scale_level)


@dataclass(frozen=True)
class UniformityReport:
    """Worst-case nearest-neighbor spread over sequence prefixes.

    ``euclidean_exponent`` is the largest max/min ratio of euclidean NN
    distances over all checked prefixes.  ``cosine_exponent`` is the same
    ratio measured in the chordal metric sqrt(2 * (1 - cos)), which is
    the quantity bounded by ``cosine_exponent_bound`` =
    2 * max_norm / min_norm over the polytope (vertex norm over barycenter
    norm).  ``shape_ratio`` compares center distances from the barycenter.
    """

    prefixes: tuple[PrefixStats, ...]
    euclidean_exponent: float
    cosine_exponent: float
    shape_ratio: float
    cosine_exponent_bound: float


def verify_scattering(s: Scattering, prefix_stride: int = 0) -> UniformityReport:
    """Brute-force nearest-neighbor statistics over prefixes of the sequence.

    Checks run at every level boundary (where the ratio peaks) plus, when
    ``prefix_stride`` > 0, every ``prefix_stride`` positions inside a block.
    Euclidean distances are exact scaled integers; cosine runs in floats.
    Raises ValueError on a stride that is not an integer >= 0 and on a zero
    center, whose cosine distance is undefined.
    """
    prefix_stride = check_int(prefix_stride, "prefix_stride")
    n = len(s)
    if n < 2:
        raise ValueError("need at least two centers")
    # the largest own level: the last block's first center's, as blocks
    # start where the running largest rises
    top = s.numerators[s.level_offsets[-1]][None]
    scale = int(canonical_levels(top, s.levels_built)[0])
    nums = s.numerators >> (s.levels_built - scale)
    # |a|^2 + |b|^2 - 2<a, b> stays exact while it fits in int64
    peak = max(-int(nums.min()), int(nums.max()))
    if 4 * s.dim * peak * peak > _INT64_MAX:
        raise ValueError(f"numerators up to {peak} overflow int64 squared "
                         "distances")
    vals = nums.astype(np.float64)
    norm = np.linalg.norm(vals, axis=1, keepdims=True)
    if not norm.all():
        raise ValueError("cosine distance undefined for the zero vector "
                         f"(center {int(np.argmin(norm))})")
    unit = vals / norm
    # below 2**53 every product, partial sum and squared distance is an
    # integer that float64 holds exactly, in any summation order, so BLAS
    # forms them; above, numpy's integer loop does
    mat = vals if 4 * s.dim * peak * peak < 1 << 53 else nums

    boundary_marks = {hi for _, hi in s.level_blocks() if hi >= 2}
    checkpoints = boundary_marks | {n}
    if prefix_stride > 0:
        checkpoints.update(range(prefix_stride, n + 1, prefix_stride))
    checkpoints = sorted(m for m in checkpoints if m >= 2)

    big = np.iinfo(np.int64).max
    nn_sq = np.full(n, big, dtype=mat.dtype)
    nn_cos = np.full(n, np.inf)
    stats = []
    done = 0
    sq_norm = np.einsum("ij,ij->i", mat, mat)
    for mark in checkpoints:
        # one (64, b) block of each kind is live at a time, built in place
        # and freed before the next block's products are formed
        for a in range(done, mark, 64):
            b = min(a + 64, mark)
            d2 = (-2 * mat[a:b]) @ mat[:b].T
            d2 += sq_norm[a:b, None]
            d2 += sq_norm[None, :b]
            cosd = unit[a:b] @ unit[:b].T
            np.subtract(1.0, cosd, out=cosd)
            diag = np.arange(b - a)
            d2[diag, diag + a] = big
            cosd[diag, diag + a] = np.inf
            np.minimum(nn_sq[:b], d2.min(axis=0), out=nn_sq[:b])
            np.minimum(nn_cos[:b], cosd.min(axis=0), out=nn_cos[:b])
            nn_sq[a:b] = np.minimum(nn_sq[a:b], d2.min(axis=1))
            nn_cos[a:b] = np.minimum(nn_cos[a:b], cosd.min(axis=1))
            del d2, cosd
        done = mark
        stats.append(PrefixStats(
            length=mark,
            min_sq_numerator=int(nn_sq[:mark].min()),
            max_sq_numerator=int(nn_sq[:mark].max()),
            scale_level=scale,
            min_cosine=float(nn_cos[:mark].min()),
            max_cosine=float(nn_cos[:mark].max()),
            at_level_boundary=mark in boundary_marks,
        ))

    def ratio(lo, hi):
        return math.inf if lo <= 0 else hi / lo

    euc = max(ratio(math.sqrt(st.min_sq_numerator), math.sqrt(st.max_sq_numerator))
              for st in stats)
    cos = max(math.sqrt(ratio(st.min_cosine, st.max_cosine)) for st in stats)

    center = polytope_center(s.diagram)
    rad = [math.dist(v, center) for v in s.values().tolist()]
    # norm extrema over the whole polytope: vertex and barycenter
    top = math.sqrt(sum(r * r for r in s.diagram.rows))
    bottom = s.diagram.boxes / math.sqrt(s.diagram.dim)
    return UniformityReport(
        prefixes=tuple(stats),
        euclidean_exponent=euc,
        cosine_exponent=cos,
        shape_ratio=ratio(min(rad), max(rad)),
        cosine_exponent_bound=2.0 * top / bottom,
    )
