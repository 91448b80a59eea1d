"""Exact nearest-center queries whose cost does not depend on how many
centers the scattering holds.

Every center is a coordinate permutation of a dominant (weakly decreasing)
center, and by the rearrangement inequality the member of a Weyl orbit
sorted like the query is the orbit's nearest one, under either metric.  A
query is therefore sorted into the dominant cone by a stable descending
sort, dominant representatives are ranked by their orbit's best distance,
their orbits are expanded under a shrinking k-th best bound, and the sort
is undone before the final ranking.

Euclidean queries find their representatives geometrically: the query is
projected exactly onto a two-block permutahedron containing each
prefix-tight face of the polytope (one isotonic regression per block), and
every dominant center inside the implied search balls is collected.  Cosine
queries score the scattering's table of dominant centers in one pass.  The
candidate set provably contains the k nearest centers (ties included), so
the final ranking agrees with a full scan.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .core import (COSINE, EUCLIDEAN, ScaledPoint, check_metric,
                   cosine_distance, dominant_sort, sq_euclidean)
from .scattering import Scattering


@dataclass(frozen=True)
class QueryResult:
    """Ranked nearest centers: (sequence index, point, distance) triples.

    ``candidates_examined`` is the number of centers ranked: the orbit
    members the structured search kept, or every center after a full scan.
    """

    hits: tuple[tuple[int, ScaledPoint, float], ...]
    metric: str
    query: tuple[float, ...]
    candidates_examined: int = field(default=0, compare=False)

    @property
    def indices(self) -> list[int]:
        return [h[0] for h in self.hits]

    @property
    def points(self) -> list[ScaledPoint]:
        return [h[1] for h in self.hits]

    @property
    def distances(self) -> list[float]:
        return [h[2] for h in self.hits]


# -- convex geometry helpers -------------------------------------------------

def _pava_nonincreasing(x: Sequence[float]) -> list[float]:
    """L2 projection onto weakly decreasing vectors (pool adjacent violators)."""
    sums: list[float] = []
    counts: list[int] = []
    for v in reversed(x):
        s, c = v, 1
        while sums and sums[-1] * c > s * counts[-1]:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    out: list[float] = []
    for s, c in zip(sums, counts):
        out.extend([s / c] * c)
    out.reverse()
    return out


def _face_clamp(g: Sequence[float], j: int, rows: Sequence[int]) -> list[float]:
    """Nearest point to the sorted query g of P(rows[:j]) x P(rows[j:]), the
    product of the permutahedra of the two row blocks split at prefix j.

    Every dominant center tight at prefix j lies in this set: each block is
    majorized by its rows, and only the cross-block order x_j >= x_{j+1} is
    dropped.  Projecting onto a permutahedron is one pool-adjacent-violators
    pass on the sorted block minus its rows (Blondel et al. 2020, "Fast
    Differentiable Sorting and Ranking"); the blocks of g are already sorted.
    """
    out: list[float] = []
    for lo, hi in ((0, j), (j, len(g))):
        v = _pava_nonincreasing([g[i] - rows[i] for i in range(lo, hi)])
        out.extend(g[i] - vi for i, vi in zip(range(lo, hi), v))
    return out


# -- lattice enumeration -----------------------------------------------------

def _face_ball(caps: Sequence[int], j: int, center: Sequence[float], r2: float):
    """All weakly decreasing integer vectors under the prefix caps, tight at
    prefix j, within squared distance r2 of ``center``."""
    d = len(caps)
    out: list[tuple[int, ...]] = []
    if r2 < 0:
        return out
    vec = [0] * d

    def rec(i, placed, prev, acc2):
        if i == d:
            out.append(tuple(vec))
            return
        seg_end = (j - 1) if i <= j - 1 else (d - 1)
        seg_target = caps[seg_end]
        remaining = seg_target - placed
        slots = seg_end - i + 1
        hi = min(prev, caps[i] - placed, remaining)
        lo = max(0, -(-remaining // slots))
        if i == seg_end:
            if remaining < 0 or remaining > hi:
                return
            lo = hi = remaining
        rad = r2 - acc2
        if rad < 0:
            return
        root = math.sqrt(rad)
        lo = max(lo, math.ceil(center[i] - root - 1e-12))
        hi = min(hi, math.floor(center[i] + root + 1e-12))
        for v in range(hi, lo - 1, -1):
            vec[i] = v
            dd = v - center[i]
            rec(i + 1, placed + v, v, acc2 + dd * dd)

    rec(0, 0, caps[0], 0.0)
    return out


def _orbit_ball(g: Sequence[float], values_desc: tuple[int, ...], bound2: float):
    """Distinct coordinate permutations of a dominant tuple within squared
    distance bound2 of g (g weakly decreasing), by branch and bound with the
    sorted-to-sorted rearrangement lower bound."""
    d = len(g)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def tail_lb(rem, i):
        acc = 0.0
        for t, v in enumerate(rem):
            dd = v - g[i + t]
            acc += dd * dd
        return acc

    def rec(i, rem, acc2):
        if acc2 + tail_lb(rem, i) > bound2:
            return
        if i == d:
            out.append(tuple(chosen))
            return
        last = None
        for idx, v in enumerate(rem):
            if v == last:
                continue
            last = v
            dd = v - g[i]
            chosen.append(v)
            rec(i + 1, rem[:idx] + rem[idx + 1 :], acc2 + dd * dd)
            chosen.pop()

    rec(0, list(values_desc), 0.0)
    return out


def _round_block(vals: Sequence[float], target: int) -> list[int]:
    """Round to integers summing to ``target``: round to nearest, shift every
    entry by the whole part of the deficit, and step the entries with the
    largest residuals (smallest, for a surplus) by one for the rest."""
    raw = [math.floor(v + 0.5) for v in vals]
    delta = target - sum(raw)
    if delta == 0:
        return raw
    step = 1 if delta > 0 else -1
    whole, rest = divmod(abs(delta), len(raw))
    order = sorted(range(len(raw)), key=lambda t: step * (raw[t] - vals[t]))
    raw = [r + step * whole for r in raw]
    for i in order[:rest]:
        raw[i] += step
    return raw


# -- candidate assembly --------------------------------------------------------

class _QueryGeometry:
    """Per-query scratch: the sorted scaled query, affine distance lower
    bounds for every prefix-tight face, and lazily computed projections onto
    the two-block permutahedron around each face."""

    def __init__(self, q, s: Scattering):
        self.dim = s.dim
        self.level = s.levels_built
        scale = 1 << self.level
        self.caps = [c * scale for c in s.diagram.prefix_sums()]
        g, self.perm = dominant_sort(q)
        self.gs = [v * scale for v in g]
        d = s.dim
        self.rows = tuple(r * scale for r in s.diagram.rows)
        self.diam = math.sqrt(sq_euclidean(self.rows, sorted(self.rows)))
        total = sum(self.gs)
        run = 0.0
        self.affine_d2 = {}
        for j in range(1, d):
            run += self.gs[j - 1]
            d1 = self.caps[j - 1] - run
            d2 = (self.caps[-1] - self.caps[j - 1]) - (total - run)
            self.affine_d2[j] = d1 * d1 / j + d2 * d2 / (d - j)
        self._clamps: dict[int, tuple[list[float], float]] = {}

    def clamp(self, j):
        if j not in self._clamps:
            point = _face_clamp(self.gs, j, self.rows)
            self._clamps[j] = (point, sq_euclidean(self.gs, point))
        return self._clamps[j]

    def affine_seed(self, j):
        """Block-round the plain affine projection onto the face's span; a
        dominant majorized result is a boundary center near the face and
        costs no clamping."""
        d, caps, gs = self.dim, self.caps, self.gs
        run = sum(gs[:j])
        tot = sum(gs)
        sh1 = (caps[j - 1] - run) / j
        sh2 = ((caps[-1] - caps[j - 1]) - (tot - run)) / (d - j)
        proj = [v + sh1 for v in gs[:j]] + [v + sh2 for v in gs[j:]]
        t = tuple(_round_block(proj[:j], caps[j - 1])
                  + _round_block(proj[j:], caps[-1] - caps[j - 1]))
        if t[-1] < 0:
            return None
        run = 0
        for i, v in enumerate(t):
            if i and v > t[i - 1]:
                return None
            run += v
            if run > caps[i]:
                return None
        return t

    def sweep(self, total_r2, add):
        """Feed ``add`` every dominant center within sqrt(total_r2) of the
        sorted query (faces whose affine lower bound already exceeds the
        radius are skipped without projecting).  With P the exact projection
        onto a convex superset of face j, every center y of the face has
        |g - y|^2 >= |g - P|^2 + |P - y|^2, so the ball of radius^2
        total_r2 - |g - P|^2 around P is exhaustive."""
        for j in range(1, self.dim):
            if self.affine_d2[j] > total_r2:
                continue
            point, d2 = self.clamp(j)
            r2 = total_r2 - d2
            if r2 < 0:
                continue
            # slack for float rounding only
            root = math.sqrt(r2) + 1e-6
            for t in _face_ball(self.caps, j, point, root * root):
                add(t)

    def collect(self, need):
        """Dominant centers in a ball grown until ``need`` of them sit inside
        it or the ball covers the whole polytope.

        Counting only in-ball candidates matters: the sweep is exhaustive
        within the radius, so once it holds ``need`` centers the k-th
        smallest collected distance is the true k-th dominant distance.
        """
        dominants: dict[tuple[int, ...], float] = {}

        def add(t):
            if t not in dominants:
                dominants[t] = sq_euclidean(self.gs, t)

        add(self.rows)
        for j in range(1, self.dim):
            seed = self.affine_seed(j)
            if seed is not None:
                add(seed)

        def nearest_face_d2():
            # projected distance where known, affine lower bound otherwise
            return min(self._clamps[j][1] if j in self._clamps
                       else self.affine_d2[j] for j in range(1, self.dim))

        # grow the within-face radius w (lattice units); the covered total
        # radius is sqrt(d_min^2 + w^2), so face balls never exceed w and the
        # work per query stays independent of the subdivision depth
        w = math.sqrt(self.dim) / 2.0 + 0.6
        w_cap = math.sqrt(sq_euclidean(self.gs, self.rows)) + self.diam + 1.0
        while True:
            r2 = nearest_face_d2() + w * w
            self.sweep(r2, add)
            inside = sum(1 for d2 in dominants.values() if d2 <= r2)
            if inside >= need or w > w_cap:
                return dominants
            w *= 2.0


def _widen(bound: float) -> float:
    """A distance bound widened past the float rounding between the search's
    distances and the final ranking's."""
    return bound * (1.0 + 1e-9) + 1e-9


def _pool_members(gs, ranked, k, radius2, dist):
    """Orbit members of the ranked dominant representatives under a shrinking
    k-th best distance bound; returns sorted-frame tuples.

    ``ranked`` holds (t, key) pairs in ascending key order, where key is the
    best distance of any member of orbit(t).  ``radius2(bound, t)`` is the
    squared euclidean radius around gs that holds every member of orbit(t)
    within distance ``bound``, and ``dist(gs, member)`` scores one member.
    """
    best: list[float] = []
    pool: list[tuple[int, ...]] = []
    # the best members of the first k orbits are k distinct centers, so the
    # k-th key bounds the true k-th distance before any orbit is expanded
    seed_bound = ranked[k - 1][1] if len(ranked) >= k else math.inf
    for t, key in ranked:
        cur = _widen(seed_bound if len(best) < k else min(seed_bound, -best[0]))
        if key > cur:
            break
        # each center enters the tracker once: orbits are disjoint and
        # every dominant is expanded at most once
        for member in _orbit_ball(gs, t, radius2(cur, t)):
            pool.append(member)
            dm = dist(gs, member)
            if len(best) < k:
                heapq.heappush(best, -dm)
            elif dm < -best[0]:
                heapq.heapreplace(best, -dm)
    return pool


def _member_indices(members, perm, level, s):
    """Map sorted-frame member tuples back through the query permutation and
    look them up in the center sequence."""
    inv = perm.inverse()
    indices = []
    for member in members:
        sp = ScaledPoint(inv.apply(member), level)
        idx = s.index_of(sp)
        if idx is None:
            raise RuntimeError(f"rounded candidate {sp} is not a center")
        indices.append(idx)
    return indices


def _rank(q, s, indices, k, metric):
    level = max((s.centers[i].level for i in indices), default=0)
    scored = []
    for i in indices:
        c = s.centers[i]
        if metric == EUCLIDEAN:
            key = sq_euclidean(q, c.values())
            dist = math.sqrt(key)
        else:
            key = dist = cosine_distance(q, c.values())
        scored.append((key, tuple(-v for v in c.numerators_at(level)), i, dist))
    scored.sort()
    hits = tuple((i, s.centers[i], dist) for _, _, i, dist in scored[:k])
    return QueryResult(hits, metric, tuple(q), len(scored))


def _checked_query(e: Sequence[float], s: Scattering, k: int) -> tuple[float, ...]:
    """The query as a float tuple, after the checks every search entry point
    shares: a nonempty scattering, a matching dimension, k >= 1, and finite
    coordinates whose sum of squares does not overflow."""
    q = tuple(float(v) for v in e)
    if len(s) == 0:
        raise ValueError("empty scattering")
    if len(q) != s.dim:
        raise ValueError(f"query dim {len(q)} != scattering dim {s.dim}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not all(math.isfinite(v) for v in q):
        raise ValueError(f"query has a non-finite coordinate: {list(q)}")
    if not math.isfinite(sum(v * v for v in q)):
        raise ValueError("query is too large: its sum of squares overflows")
    return q


def nearest_center(e: Sequence[float], s: Scattering, k: int = 1,
                   metric: str = EUCLIDEAN) -> QueryResult:
    """The k nearest centers of the scattering, exactly as a full scan would
    rank them (distance, then descending-lex point)."""
    check_metric(metric)
    if metric == COSINE:
        return cosine_nearest(e, s, k)
    q = _checked_query(e, s, k)
    # the search squares distances at the lattice scale 2**levels_built; none
    # of those squares exceeds 64 * reach**2
    reach = (math.hypot(*q) + math.hypot(*s.diagram.rows)) * (1 << s.levels_built)
    if not math.isfinite(64.0 * reach * reach):
        raise ValueError("query is too large: its sum of squares overflows "
                         "at the scattering's scale")
    if not s.is_complete():
        return _rank(q, s, range(len(s)), k, EUCLIDEAN)
    geom = _QueryGeometry(q, s)
    ranked = sorted(geom.collect(k).items(), key=itemgetter(1))
    pool = _pool_members(geom.gs, ranked, k, lambda bound, t: bound,
                         sq_euclidean)
    return _rank(q, s, _member_indices(pool, geom.perm, geom.level, s), k,
                 EUCLIDEAN)


def cosine_nearest(e: Sequence[float], s: Scattering, k: int = 1) -> QueryResult:
    """Cosine k-nearest, exactly as a full scan would rank them.

    Every member of orbit(t) has norm |t|, and the member sorted like the
    query has the largest inner product with it (rearrangement inequality),
    so with g the sorted query b(t) = 1 - <g, t> / (|g| |t|) is the best
    cosine distance in orbit(t).  The dominant centers are ranked by b in
    one pass over the scattering's dominant table, and their orbits are
    expanded under the shrinking k-th best bound theta: inside orbit(t),
    d(q, sigma t) <= theta exactly when
    |g - sigma t|^2 <= (|g| - |t|)^2 + 2 theta |g| |t|.
    No query on a complete scattering falls back to a full scan.
    """
    q = _checked_query(e, s, k)
    if math.sqrt(sum(v * v for v in q)) == 0.0:
        raise ValueError("cosine query must be nonzero")
    if not s.is_complete():
        return _rank(q, s, range(len(s)), k, COSINE)
    tuples, mat, norms = s.dominant_table()
    g, perm = dominant_sort(q)
    # cosine is scale-free: put the query on the sphere of the largest
    # dominant norm, where lattice distances are well conditioned
    top = float(norms.max())
    gs = [v * (top / math.hypot(*g)) for v in g]
    gn = math.hypot(*gs)
    keys = 1.0 - (mat @ gs) / (norms * gn)
    kth = float(np.partition(keys, k - 1)[k - 1]) if len(keys) >= k else math.inf
    # rows past the widened seed bound would end _pool_members' loop unseen
    near = np.flatnonzero(keys <= _widen(kth))
    near = near[np.argsort(keys[near], kind="stable")]
    ranked = list(zip((tuples[i] for i in near), keys[near].tolist()))

    def radius2(theta, t):
        tn = math.hypot(*t)
        return (gn - tn) ** 2 + 2.0 * theta * gn * tn

    pool = _pool_members(gs, ranked, k, radius2, cosine_distance)
    return _rank(q, s, _member_indices(pool, perm, s.levels_built, s), k, COSINE)
