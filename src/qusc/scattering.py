"""Center sequences: Weyl orbit expansion, level-by-level ordering,
quasi-uniformity verification and dimension chaining."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .core import ScaledPoint, YoungDiagram, polytope_center
from .enumeration import enumerate_dominant_boundary, enumerate_level


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


def orbit_size(p: ScaledPoint) -> int:
    counts = {}
    for v in p.numerators:
        counts[v] = counts.get(v, 0) + 1
    size = math.factorial(p.dim)
    for c in counts.values():
        size //= math.factorial(c)
    return size


def weyl_orbit(p: ScaledPoint) -> list[ScaledPoint]:
    """All coordinate permutations of a dominant point, descending-lex."""
    if not p.is_dominant():
        raise ValueError(f"{p} is not dominant")
    return [ScaledPoint(t, p.level) for t in _multiset_perms_desc(p.numerators)]


class CenterTable(NamedTuple):
    """The search index of a center sequence, at the scale ``2**levels_built``.

    ``orbits`` holds the dominant member of every Weyl orbit whose members
    are all present in the sequence, each exactly once.  ``lone`` holds the
    sequence index of every other center: members of partial orbits (a cut
    or an embedded sequence) and repeats of an earlier center.  ``mat``
    stacks the orbit representatives and then the lone centers as float64
    rows, ``norms`` holds its row norms and ``top`` the largest of them.
    """

    orbits: list[tuple[int, ...]]
    lone: list[int]
    mat: np.ndarray
    norms: np.ndarray
    top: float


class Scattering:
    """An ordered center sequence over the boundary of a weight polytope.

    Centers come in level blocks; inside a block the full Weyl orbits of the
    level's new dominant points are merged and sorted descending-lex.  A
    sequence may also be a cut prefix of one, an embedded one or a corrupt
    one with repeated centers; the search serves all of them exactly.
    """

    def __init__(self, diagram: YoungDiagram, levels_built: int,
                 centers: Sequence[ScaledPoint], level_offsets: Sequence[int]):
        self.diagram = diagram
        self.levels_built = levels_built
        self.centers = tuple(centers)
        self.level_offsets = tuple(level_offsets)
        self.index = {}
        for i, p in enumerate(self.centers):
            self.index.setdefault(p, i)
        # corrupt inputs may repeat a point; verification diagnoses that, and
        # the search treats each repeat as a lone center
        self.has_duplicates = len(self.index) != len(self.centers)
        self._complete = None
        self._table = None

    def __len__(self):
        return len(self.centers)

    @property
    def dim(self) -> int:
        return self.diagram.dim

    def index_of(self, p: ScaledPoint):
        return self.index.get(p)

    def level_blocks(self) -> list[tuple[int, int]]:
        bounds = list(self.level_offsets) + [len(self.centers)]
        return [(bounds[i], bounds[i + 1]) for i in range(len(self.level_offsets))]

    def dominant_table(self) -> CenterTable:
        """The search's index of this sequence, built on the first query
        (both searches rank its rows) and cached."""
        if self._table is None:
            level = self.levels_built
            # distinct present members per orbit, keyed by (sorted
            # numerators, level), and the dominant members in sequence order
            present: dict[tuple, int] = {}
            dominant: list[ScaledPoint] = []
            for p in self.index:
                rep = tuple(sorted(p.numerators, reverse=True))
                if rep == p.numerators:
                    dominant.append(p)
                key = rep, p.level
                present[key] = present.get(key, 0) + 1
            full = [p for p in dominant
                    if present[p.numerators, p.level] == orbit_size(p)]
            lone: list[int] = []
            if len(full) != len(present) or self.has_duplicates:
                reps = {(p.numerators, p.level) for p in full}
                for i, c in enumerate(self.centers):
                    rep = tuple(sorted(c.numerators, reverse=True)), c.level
                    if self.index[c] != i or rep not in reps:
                        lone.append(i)
            orbits = [p.numerators_at(level) for p in full]
            rows = orbits + [self.centers[i].numerators_at(level) for i in lone]
            mat = np.array(rows, dtype=np.float64).reshape(-1, self.dim)
            norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
            self._table = CenterTable(orbits, lone, mat, norms,
                                      float(norms.max(initial=0.0)))
        return self._table

    def is_complete(self) -> bool:
        """Diagnostic: whether every built level carries its full set of orbit
        points and no center repeats.  No query path needs it; it
        re-enumerates every level on its first call and is cached."""
        if self._complete is None:
            blocks = self.level_blocks()
            sizes = (sum(map(orbit_size, _level_set(self.diagram, k).points))
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
    Weyl orbit (so ``max_points=1`` yields just the highest weight).
    """
    if max_levels < 0:
        raise ValueError("max_levels must be >= 0")
    if max_points is not None and max_points < 0:
        raise ValueError("max_points must be >= 0")
    centers: list[ScaledPoint] = []
    offsets: list[int] = []
    for k in range(max_levels + 1):
        block: list[ScaledPoint] = []
        for dom in _level_set(diagram, k).points:
            block.extend(weyl_orbit(dom))
        block.sort(key=lambda p: p.numerators, reverse=True)
        offsets.append(len(centers))
        if max_points is not None:
            del block[max_points - len(centers):]
        centers.extend(block)
        if max_points is not None and len(centers) == max_points:
            break
    offsets = [o for o in offsets if o < len(centers)] or [0]
    return Scattering(diagram, len(offsets) - 1, centers, offsets)


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
    scale = max(c.level for c in s.centers)
    nums = np.array([c.numerators_at(scale) for c in s.centers], dtype=np.int64)
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
        for a in range(done, mark, 256):
            b = min(a + 256, mark)
            d2 = sq_norm[a:b, None] + sq_norm[None, :b] - 2 * (nums[a:b] @ nums[:b].T)
            cosd = 1.0 - unit[a:b] @ unit[:b].T
            for row, i in enumerate(range(a, b)):
                d2[row, i] = big
                cosd[row, i] = np.inf
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
    rad = [math.dist(c.values(), center) for c in s.centers]
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
