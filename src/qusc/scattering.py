"""Center sequences: Weyl orbit expansion, level-by-level ordering,
quasi-uniformity verification and dimension chaining.

A sequence is stored once, as an (n, d) int64 matrix of numerators at the
common scale 2**levels_built; ScaledPoint objects are made only when a point
is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import PointView, ScaledPoint, YoungDiagram, polytope_center
from .enumeration import enumerate_level

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


def _pack_rows(rows: np.ndarray, low: int, high: int) -> np.ndarray:
    """One exact key per row of an int64 matrix whose entries lie in
    [low, high]: each entry less ``low`` takes the bit width of high - low,
    the first entry the highest bits, and as many entries as fit share a
    uint64 word.  Keys are equal exactly when the rows are and sort as the
    rows do, lexicographically.  A one-word key is a uint64; wider keys are
    opaque big-endian byte strings, which compare word by word."""
    n, d = rows.shape
    width = max((high - low).bit_length(), 1)
    per = 64 // width
    words = np.zeros((-(-max(d, 1) // per), n), dtype=np.uint64)
    offset = np.uint64(low % (1 << 64))
    for j in range(d):
        word = words[j // per]
        if j % per:
            word <<= np.uint64(width)
        # in place and modulo 2**64, so exact and without a temporary
        word += rows[:, j].view(np.uint64)
        word -= offset
    if len(words) == 1:
        return words[0]
    return (np.ascontiguousarray(words.T, dtype=">u8")
            .view(np.dtype((np.void, 8 * len(words)))).ravel())


def _unpack_rows(keys: np.ndarray, low: int, high: int,
                 out: np.ndarray) -> np.ndarray:
    """The rows whose ``_pack_rows`` keys over [low, high] are ``keys``,
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
    _, first, group = np.unique(_pack_rows(starts, 0, 1), return_index=True,
                                return_inverse=True)
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
    keys = _pack_rows(block, low, high)
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


def canonical_levels(numerators: np.ndarray, level: int) -> np.ndarray:
    """The level of each numerator row at scale 2**level in lowest terms:
    ``level`` minus the factors of two its entries share (an all-zero row
    is at level 0)."""
    low = np.bitwise_or.reduce(numerators, axis=1)
    low &= -low
    twos = np.frexp(np.abs(low.astype(np.float64)))[1] - 1
    return level - np.where(low == 0, level, np.minimum(twos, level))


class CenterTable(NamedTuple):
    """The index of a center sequence, behind the search and ``index_of``.

    Row r owns the sequence indices ``members[end - size:end]``, where the
    (2, rows) array ``spans`` holds each row's ``end`` over its ``size``.
    The first ``orbit_rows`` rows are the Weyl orbits whose members are all
    present in the sequence, each exactly once, in the sequence order of
    their dominant members; such a row owns the whole orbit and is keyed by
    that dominant member.  Every other center is a lone row of its own:
    members of partial orbits (a cut or an embedded sequence) and repeats of
    an earlier center.  ``cols`` holds the rows' key centers as float64
    values, the numerators over ``lattice``, column-major: a contiguous
    (d, rows) array, one column per row.  ``norms`` holds each key center's
    norm, shared by the whole orbit.

    ``tie`` gives each center, by sequence index, its place in a full
    scan's order of equal distances: descending-lex point, then sequence
    index, in the smallest unsigned type that holds it.  ``zero`` is the
    sequence index of the first zero center, or -1 when there is none.
    ``lattice`` is the scale ``2.0**levels_built`` and ``radius`` the
    largest key norm, which bounds every center's norm.

    The table is built from the sequence's packed row keys over [``low``,
    ``high``], the numerators' range.  One stable sort of them gives the
    tie order, the ``distinct`` keys in ascending order and the ``first``
    sequence index of each.  Then, in a few linear passes, each center's
    orbit is the key of its values sorted descending, looked up among the
    keys of the dominant first occurrences, and an orbit is whole when it
    counts as many distinct members as its multinomial size.
    """

    members: np.ndarray
    spans: np.ndarray
    orbit_rows: int
    cols: np.ndarray
    norms: np.ndarray
    tie: np.ndarray
    zero: int
    lattice: float
    radius: float
    low: int
    high: int
    distinct: np.ndarray
    first: np.ndarray


class Scattering:
    """An ordered center sequence over the boundary of a weight polytope.

    Centers come in level blocks; inside a block the full Weyl orbits of the
    level's new dominant points are merged and sorted descending-lex.  A
    sequence may also be a cut prefix of one, an embedded one or a corrupt
    one with repeated centers; the search serves all of them exactly.

    ``numerators`` is the only store of the centers: an (n, d) int64 matrix
    at scale ``2**levels_built``, held without a copy and read-only.
    ``centers`` reads its rows as ScaledPoints, made on access.

    ``index_of`` and the search's ``dominant_table`` rest on one exact key
    per row, built on first use: the row's entries less the matrix minimum,
    packed into as few uint64 words as the entries' bit width allows (one
    word on every standard codebook).  Equal keys mean equal rows and keys
    sort as the rows do, lexicographically, for any int64 entries, negative
    ones included.
    """

    def __init__(self, diagram: YoungDiagram, levels_built: int,
                 numerators, level_offsets: Sequence[int]):
        nums = np.asarray(numerators, dtype=np.int64)
        if nums.size == 0:
            nums = nums.reshape(0, diagram.dim)
        if nums.ndim != 2 or nums.shape[1] != diagram.dim:
            raise ValueError(f"numerators of shape {nums.shape} do not hold "
                             f"{diagram.dim}-coordinate rows")
        self.diagram = diagram
        self.levels_built = levels_built
        self.centers = PointView(nums, levels_built)
        self.numerators = self.centers.numerators
        self.level_offsets = tuple(level_offsets)
        self._table = None

    def __len__(self):
        return len(self.numerators)

    @property
    def dim(self) -> int:
        return self.diagram.dim

    def values(self) -> np.ndarray:
        """The centers' float coordinates, one row each."""
        return self.numerators / float(1 << self.levels_built)

    def index_of(self, p: ScaledPoint):
        """The first sequence position of p, or None when p is no center."""
        if p.dim != self.dim or p.level > self.levels_built:
            return None
        row = p.numerators_at(self.levels_built)
        table = self.dominant_table()
        if min(row) < table.low or max(row) > table.high:
            return None
        probe = _pack_rows(np.array([row], dtype=np.int64), table.low, table.high)
        at = int(table.distinct.searchsorted(probe[0]))
        found = at < len(table.distinct) and table.distinct[at] == probe[0]
        return int(table.first[at]) if found else None

    def level_blocks(self) -> list[tuple[int, int]]:
        bounds = list(self.level_offsets) + [len(self)]
        return [(bounds[i], bounds[i + 1]) for i in range(len(self.level_offsets))]

    def dominant_table(self) -> CenterTable:
        """The index of this sequence, built on first use (the first query
        or ``index_of``) and cached; its one sort of the row keys is
        near-linear on the descending-lex runs of the level blocks."""
        if self._table is None:
            nums = self.numerators
            n = len(nums)
            low, high = (int(nums.min()), int(nums.max())) if nums.size else (0, 0)
            keys = _pack_rows(nums, low, high)
            order = np.argsort(keys, kind="stable")
            ranked = keys[order]
            new = np.ones(n, dtype=np.bool_)
            new[1:] = ranked[1:] != ranked[:-1]
            # the tie order reverses the sort's runs of equal keys and keeps
            # each run's ascending sequence indices: the run at [start, end)
            # moves to [n - end, n - start)
            start = np.flatnonzero(new)
            end = np.append(start[1:], n)
            place = (n - start - end).repeat(end - start)
            place += np.arange(n)
            tie = np.empty(n, dtype=np.min_scalar_type(max(n - 1, 0)))
            tie[order] = place
            distinct, first = ranked[new], order[new]
            # each center's orbit, named by the key of its dominant member
            orbit = _pack_rows(np.sort(nums, axis=1)[:, ::-1], low, high)
            is_dom = orbit[first] == distinct
            dom, dom_keys = first[is_dom], distinct[is_dom]
            # the dominant first occurrence heading each center's orbit; m
            # where that member is absent
            m = len(dom)
            at = dom_keys.searchsorted(orbit)
            found = at < m
            found[found] = dom_keys[at[found]] == orbit[found]
            at[~found] = m
            is_first = np.zeros(n, dtype=np.bool_)
            is_first[first] = True
            # an orbit is whole when each of its members is present
            full = np.bincount(at[is_first], minlength=m + 1) == np.append(
                _orbit_sizes(nums[dom]), -1)
            held = np.flatnonzero(full[:m])
            held = held[np.argsort(dom[held])]
            heads = dom[held]
            lone = np.flatnonzero(~(is_first & full[at]))
            keyed = np.concatenate((heads, lone))
            # each center's row: its orbit's, or a lone row of its own, in
            # the smallest dtype that holds it (a stable sort of labels of
            # 16 bits or fewer is a radix sort)
            kind = np.min_scalar_type(max(len(keyed) - 1, 0))
            orbit_row = np.zeros(m + 1, dtype=kind)
            orbit_row[held] = np.arange(len(heads))
            row = orbit_row[at]
            row[lone] = np.arange(len(heads), len(keyed))
            sizes = np.bincount(row, minlength=len(keyed))
            ends = sizes.cumsum()
            members = np.argsort(row, kind="stable")
            # the search's frame: a power-of-two division, so exact
            lattice = float(1 << self.levels_built)
            mat = nums[keyed] / lattice
            norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
            zero = -1 if norms.all() else int(
                members[(ends - sizes)[np.argmin(norms)]])
            self._table = CenterTable(
                members, np.stack((ends, sizes)), len(heads),
                np.ascontiguousarray(mat.T), norms, tie, zero, lattice,
                float(norms.max(initial=0.0)), low, high, distinct, first)
        return self._table

    def is_complete(self) -> bool:
        """Diagnostic: whether this is the sequence ``build_scattering``
        makes for its diagram through ``levels_built``, center for center
        and block for block, so order counts.  No query path needs it; it
        builds that sequence, cut one center past this one's length, on
        every call."""
        built = build_scattering(self.diagram, self.levels_built,
                                 max_points=len(self) + 1)
        return (built.level_offsets == self.level_offsets
                and np.array_equal(built.numerators, self.numerators))


def build_scattering(diagram: YoungDiagram, max_levels: int,
                     max_points: int | None = None) -> Scattering:
    """Assemble the center sequence through subdivision level ``max_levels``.

    ``max_points`` cuts the sequence at the tail; the cut may fall inside a
    Weyl orbit (so ``max_points=1`` yields just the highest weight).  Raises
    ValueError before enumerating a level whose numerators would overflow
    int64; an uncut build (no ``max_points``) is refused before any level.
    """
    if max_levels < 0:
        raise ValueError("max_levels must be >= 0")
    if max_points is not None and max_points < 0:
        raise ValueError("max_points must be >= 0")
    if max_points is None:
        check_scale(diagram, max_levels)
    # the level sets' dominant rows first, so each block is written straight
    # into the one matrix, shifted to the common scale
    levels: list[np.ndarray] = []
    offsets: list[int] = []
    total = 0
    for k in range(max_levels + 1):
        check_scale(diagram, k)
        dominant = enumerate_level(diagram, k).points.numerators
        size = int(_orbit_sizes(dominant).sum())
        if max_points is not None:
            size = min(size, max_points - total)
        levels.append(dominant)
        offsets.append(total)
        total += size
        if total == max_points:
            break
    offsets = [o for o in offsets if o < total] or [0]
    top = len(offsets) - 1
    nums = np.empty((total, diagram.dim), dtype=np.int64)
    for k, (a, b) in enumerate(zip(offsets, offsets[1:] + [total])):
        _orbit_block(levels[k], out=nums[a:b])
        nums[a:b] <<= top - k
    return Scattering(diagram, top, nums, offsets)


# -- dimension chaining -----------------------------------------------------

def embed_scattering(s: Scattering) -> Scattering:
    """The chaining map: the diagram gains a row of length 1 and every
    center a last coordinate of value 1 (numerator 2**levels_built), so the
    sequence keeps its order, level blocks and distances and becomes a
    subsequence of the higher-rank diagram's."""
    diagram = YoungDiagram(tuple(sorted(s.diagram.rows + (1,), reverse=True)))
    unit = np.full((len(s), 1), 1 << s.levels_built, dtype=np.int64)
    return Scattering(diagram, s.levels_built, np.hstack((s.numerators, unit)),
                      s.level_offsets)


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
    Raises ValueError on a negative stride and on a zero center, whose
    cosine distance is undefined.
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two centers")
    if prefix_stride < 0:
        raise ValueError(f"prefix_stride must be >= 0, not {prefix_stride}")
    scale = int(canonical_levels(s.numerators, s.levels_built).max())
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
    checkpoints = set(boundary_marks)
    checkpoints.add(n)
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
