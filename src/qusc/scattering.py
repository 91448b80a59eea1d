"""Center sequences: Weyl orbit expansion, level-by-level ordering,
quasi-uniformity verification and dimension chaining.

A sequence is stored once, as an (n, d) int64 matrix of numerators at the
common scale 2**levels_built; ScaledPoint objects are made only when a point
is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

import numpy as np

from .core import PointView, ScaledPoint, YoungDiagram, polytope_center
from .enumeration import enumerate_dominant_boundary, enumerate_level

_INT64_MAX = int(np.iinfo(np.int64).max)


def check_scale(diagram: YoungDiagram, levels: int) -> None:
    """Raise ValueError unless the largest numerator of the diagram's
    polytope, its first row at scale 2**levels, fits in int64."""
    if levels > 62 or diagram.rows[0] << levels > _INT64_MAX:
        raise ValueError(f"levels={levels}: the numerators of diagram {diagram} "
                         f"at scale 2**{levels} overflow int64")


def _multiset_perms_desc(values: tuple[int, ...]):
    """Distinct permutations of a multiset in descending lexicographic order."""
    if not values:
        yield ()
        return
    distinct = sorted(set(values), reverse=True)
    for v in distinct:
        rest = list(values)
        rest.remove(v)
        for tail in _multiset_perms_desc(tuple(rest)):
            yield (v,) + tail


@lru_cache(maxsize=None)
def _perm_table(starts: tuple[bool, ...]) -> np.ndarray:
    """Source positions of every distinct permutation of a sorted tuple whose
    runs of equal values start at the positions j with ``starts[j]`` set:
    each slot names the first position of its run."""
    labels: list[int] = []
    for j, new in enumerate(starts):
        labels.append(j if new else labels[-1])
    table = np.array(list(_multiset_perms_desc(tuple(labels))), dtype=np.intp)
    table.flags.writeable = False  # one cached copy serves every caller
    return table


def _orbit_block(dominant: np.ndarray) -> np.ndarray:
    """Every distinct coordinate permutation of the dominant rows, sorted
    descending-lex: one level block of a scattering."""
    n, d = dominant.shape
    if not n:
        return dominant
    # rows whose runs of equal values start at the same positions share
    # one permutation table
    starts = np.ones((n, d), dtype=np.bool_)
    starts[:, 1:] = dominant[:, 1:] != dominant[:, :-1]
    _, first, group = np.unique(starts.view(np.dtype((np.void, d))).ravel(),
                                return_index=True, return_inverse=True)
    parts = [dominant[group == g][:, _perm_table(tuple(starts[i].tolist()))]
             .reshape(-1, d) for g, i in enumerate(first)]
    block = np.concatenate(parts)
    # orbits are disjoint, so the rows are distinct and reversing the
    # ascending order gives the descending one
    return block[np.lexsort(block.T[::-1])[::-1]]


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


def orbit_size(p: ScaledPoint) -> int:
    rep = np.array([sorted(p.numerators, reverse=True)], dtype=np.int64)
    return int(_orbit_sizes(rep)[0])


def weyl_orbit(p: ScaledPoint) -> list[ScaledPoint]:
    """All coordinate permutations of a dominant point, descending-lex."""
    if not p.is_dominant():
        raise ValueError(f"{p} is not dominant")
    block = _orbit_block(np.array([p.numerators], dtype=np.int64))
    return [ScaledPoint(row, p.level) for row in block.tolist()]


def canonical_levels(numerators: np.ndarray, level: int) -> np.ndarray:
    """The level of each numerator row at scale 2**level in lowest terms:
    ``level`` minus the factors of two its entries share (an all-zero row
    is at level 0)."""
    low = np.bitwise_or.reduce(numerators, axis=1)
    low &= -low
    twos = np.frexp(np.abs(low.astype(np.float64)))[1] - 1
    return level - np.where(low == 0, level, np.minimum(twos, level))


@lru_cache(maxsize=None)
def _row_key(d: int) -> np.dtype:
    return np.dtype((np.void, 8 * d))


def _void_rows(rows: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row, equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(_row_key(rows.shape[1])).ravel()


def _group_rows(rows: np.ndarray) -> np.ndarray:
    """A label for each row of an integer matrix, equal exactly when the rows
    are: one lexsort, then a new label wherever a sorted row differs from
    the one before it.  Rows that repeat often sort faster this way than as
    opaque byte strings."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=np.intp)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    labels = np.empty_like(new)
    labels[order] = np.cumsum(new) - 1
    return labels


class CenterTable(NamedTuple):
    """The search index of a center sequence, at the scale ``2**levels_built``.

    Row r owns the sequence indices ``members[starts[r]:starts[r + 1]]``.
    The first ``orbit_rows`` rows are the Weyl orbits whose members are all
    present in the sequence, each exactly once, in the sequence order of
    their dominant members; such a row owns the whole orbit and is keyed by
    that dominant member.  Every other center is a lone row of its own:
    members of partial orbits (a cut or an embedded sequence) and repeats of
    an earlier center.  ``mat`` holds each row's key center as float64
    numerators, ``norms`` its norm (shared by the whole orbit) and ``top``
    the largest of them.
    """

    members: np.ndarray
    starts: np.ndarray
    orbit_rows: int
    mat: np.ndarray
    norms: np.ndarray
    top: float


class Scattering:
    """An ordered center sequence over the boundary of a weight polytope.

    Centers come in level blocks; inside a block the full Weyl orbits of the
    level's new dominant points are merged and sorted descending-lex.  A
    sequence may also be a cut prefix of one, an embedded one or a corrupt
    one with repeated centers; the search serves all of them exactly.

    ``numerators`` is the only store of the centers: an (n, d) int64 matrix
    at scale ``2**levels_built``, held without a copy and read-only.
    ``centers`` reads its rows as ScaledPoints, made on access.  The row
    lookup behind ``index_of`` and the search's ``dominant_table`` are built
    on first use.
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
        self._rows = None
        self._complete = None
        self._table = None

    def __len__(self):
        return len(self.numerators)

    @property
    def dim(self) -> int:
        return self.diagram.dim

    def values(self) -> np.ndarray:
        """The centers' float coordinates, one row each."""
        return self.numerators / float(1 << self.levels_built)

    def _row_index(self):
        """The distinct rows' keys in sorted order, the first sequence
        position of each, and each center's distinct row."""
        if self._rows is None:
            self._rows = np.unique(_void_rows(self.numerators),
                                   return_index=True, return_inverse=True)
        return self._rows

    @property
    def has_duplicates(self) -> bool:
        """Whether some center repeats an earlier one: verification
        diagnoses that, and the search treats each repeat as a lone center."""
        return len(self._row_index()[0]) != len(self)

    def index_of(self, p: ScaledPoint):
        """The first sequence position of p, or None when p is no center."""
        if p.dim != self.dim or p.level > self.levels_built:
            return None
        row = p.numerators_at(self.levels_built)
        if max(map(abs, row)) > _INT64_MAX:
            return None
        keys, first, _ = self._row_index()
        probe = _void_rows(np.array([row]))[0]
        at = int(keys.searchsorted(probe))
        return int(first[at]) if at < len(keys) and keys[at] == probe else None

    def level_blocks(self) -> list[tuple[int, int]]:
        bounds = list(self.level_offsets) + [len(self)]
        return [(bounds[i], bounds[i + 1]) for i in range(len(self.level_offsets))]

    def dominant_table(self) -> CenterTable:
        """The search's index of this sequence, built on the first query
        (both searches rank its rows) and cached."""
        if self._table is None:
            nums = self.numerators
            _, first, inverse = self._row_index()
            # one row per distinct center, its orbit's sorted representative,
            # and whether every member of that orbit is present
            distinct = nums[first]
            rep = np.sort(distinct, axis=1)[:, ::-1]
            orbit = _group_rows(rep)
            present = np.bincount(orbit)
            full = present[orbit] == _orbit_sizes(rep)
            dominant = (distinct == rep).all(axis=1)
            heads = np.sort(first[dominant & full])
            lone = np.flatnonzero((first[inverse] != np.arange(len(nums)))
                                  | ~full[inverse])
            keyed = np.concatenate((heads, lone))
            # each center's row: its orbit's, or a lone row of its own
            orbit_row = np.zeros(len(present), dtype=np.intp)
            orbit_row[orbit[inverse[heads]]] = np.arange(len(heads))
            row = orbit_row[orbit[inverse]]
            row[lone] = np.arange(len(heads), len(keyed))
            starts = np.zeros(len(keyed) + 1, dtype=np.intp)
            np.cumsum(np.bincount(row, minlength=len(keyed)), out=starts[1:])
            mat = nums[keyed].astype(np.float64)
            norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
            self._table = CenterTable(np.argsort(row, kind="stable"), starts,
                                      len(heads), mat, norms,
                                      float(norms.max(initial=0.0)))
        return self._table

    def is_complete(self) -> bool:
        """Diagnostic: whether every built level carries its full set of orbit
        points and no center repeats.  No query path needs it; it
        re-enumerates every level on its first call and is cached."""
        if self._complete is None:
            blocks = self.level_blocks()
            sizes = (_orbit_sizes(_level_set(self.diagram, k).points.numerators).sum()
                     for k in range(len(blocks)))
            self._complete = (not self.has_duplicates
                              and len(blocks) == self.levels_built + 1
                              and all(b - a == n for (a, b), n in zip(blocks, sizes)))
        return self._complete


def _level_set(diagram: YoungDiagram, k: int):
    return (enumerate_dominant_boundary(diagram) if k == 0
            else enumerate_level(diagram, k))


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
    blocks: list[np.ndarray] = []
    offsets: list[int] = []
    total = 0
    for k in range(max_levels + 1):
        check_scale(diagram, k)
        block = _orbit_block(_level_set(diagram, k).points.numerators)
        offsets.append(total)
        if max_points is not None:
            block = block[:max_points - total]
        blocks.append(block)
        total += len(block)
        if total == max_points:
            break
    offsets = [o for o in offsets if o < total] or [0]
    top = len(offsets) - 1
    nums = np.concatenate([b << (top - k) for k, b in enumerate(blocks[:top + 1])])
    return Scattering(diagram, top, nums, offsets)


# -- dimension chaining -----------------------------------------------------

def iota_embed(p: ScaledPoint) -> ScaledPoint:
    """Append a coordinate of value 1 (numerator 2**level)."""
    return ScaledPoint(p.numerators + (1 << p.level,), p.level)


def embed_diagram(diagram: YoungDiagram) -> YoungDiagram:
    """The target diagram of the chaining map: one extra row of length 1."""
    return YoungDiagram(tuple(sorted(diagram.rows + (1,), reverse=True)))


PointSeq = Union[Scattering, Sequence[ScaledPoint]]


def _as_points(seq: PointSeq) -> Sequence[ScaledPoint]:
    return seq.centers if isinstance(seq, Scattering) else seq


def is_subsequence(a: PointSeq, b: PointSeq) -> bool:
    """Whether sequence ``a`` appears inside ``b`` in order."""
    pa, pb = _as_points(a), _as_points(b)
    if pa and pb and pa[0].dim != pb[0].dim:
        raise ValueError("dimension mismatch between sequences")
    it = iter(pb)
    for p in pa:
        for q in it:
            if q == p:
                break
        else:
            return False
    return True


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
    ratio measured in the chordal metric sqrt(2 * cosine_distance), which is
    the quantity bounded by ``cosine_exponent_bound`` =
    2 * max_norm / min_norm over the polytope (vertex norm over barycenter
    norm).  ``shape_ratio`` compares center distances from the barycenter.
    """

    prefixes: tuple[PrefixStats, ...]
    euclidean_exponent: float
    cosine_exponent: float
    shape_ratio: float
    cosine_exponent_bound: float = field(default=float("nan"))


def verify_scattering(s: Scattering, prefix_stride: int = 0) -> UniformityReport:
    """Brute-force nearest-neighbor statistics over prefixes of the sequence.

    Checks run at every level boundary (where the ratio peaks) plus, when
    ``prefix_stride`` > 0, every ``prefix_stride`` positions inside a block.
    Euclidean distances are exact scaled integers; cosine runs in floats.
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two centers")
    scale = int(canonical_levels(s.numerators, s.levels_built).max())
    nums = s.numerators >> (s.levels_built - scale)
    # |a|^2 + |b|^2 - 2<a, b> stays exact while it fits in int64
    peak = max(-int(nums.min()), int(nums.max()))
    if 4 * s.dim * peak * peak > _INT64_MAX:
        raise ValueError(f"numerators up to {peak} overflow int64 squared "
                         "distances")
    vals = nums.astype(np.float64)
    unit = vals / np.linalg.norm(vals, axis=1, keepdims=True)

    boundary_marks = {hi for _, hi in s.level_blocks() if hi >= 2}
    checkpoints = set(boundary_marks)
    checkpoints.add(n)
    if prefix_stride > 0:
        checkpoints.update(range(prefix_stride, n + 1, prefix_stride))
    checkpoints = sorted(m for m in checkpoints if m >= 2)

    big = np.iinfo(np.int64).max
    nn_sq = np.full(n, big, dtype=np.int64)
    nn_cos = np.full(n, np.inf)
    stats = []
    done = 0
    sq_norm = np.einsum("ij,ij->i", nums, nums)
    for mark in checkpoints:
        # one (64, b) block of each kind is live at a time, built in place
        for a in range(done, mark, 64):
            b = min(a + 64, mark)
            d2 = nums[a:b] @ nums[:b].T
            d2 *= -2
            d2 += sq_norm[a:b, None]
            d2 += sq_norm[None, :b]
            cosd = unit[a:b] @ unit[:b].T
            np.subtract(1.0, cosd, out=cosd)
            diag = np.arange(b - a)
            d2[diag, diag + a] = big
            cosd[diag, diag + a] = np.inf
            if b > 1:
                np.minimum(nn_sq[:b], d2.min(axis=0), out=nn_sq[:b])
                np.minimum(nn_cos[:b], cosd.min(axis=0), out=nn_cos[:b])
                nn_sq[a:b] = np.minimum(nn_sq[a:b], d2.min(axis=1))
                nn_cos[a:b] = np.minimum(nn_cos[a:b], cosd.min(axis=1))
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
