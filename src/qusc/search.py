"""Exact nearest-center queries whose cost does not depend on how many
centers the scattering holds.

Every center is a coordinate permutation of a dominant (weakly decreasing)
center, and by the rearrangement inequality the member of a Weyl orbit
sorted like the query is the orbit's nearest one, under either metric.  One
pass over the scattering's center table against the query's sorted values
therefore gives every orbit's best distance in closed form.  A center whose
orbit is not wholly present, as in a cut prefix or an embedded sequence, or
that repeats an earlier center, is a lone row of the same table, keyed by
its own distance.  Each row owns a group of sequence indices, a whole orbit
or one lone center.  The rows are expanded in key order under a shrinking
k-th best bound: a row's centers are scored against the query in one numpy
pass, and those under the bound are kept.  Euclidean and cosine search
differ only in the distance.  The candidate set provably contains the k
nearest centers (ties included), so the final ranking agrees with a full
scan for every center sequence.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (COSINE, EUCLIDEAN, ScaledPoint, check_metric,
                   cosine_distance, sq_euclidean)
from .scattering import Scattering


@dataclass(frozen=True)
class QueryResult:
    """Ranked nearest centers: (sequence index, point, distance) triples.

    ``candidates_examined`` is the number of centers ranked: the orbit
    members and lone centers the search kept.
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
# No search path calls these since euclidean search ranks the dominant table;
# ROADMAP's "Smaller surface" item schedules their removal.

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


# -- expansion and ranking -----------------------------------------------------

def _widen(bound: float, d: int) -> float:
    """A distance bound widened past the float rounding between the search's
    distances and the final ranking's, for d coordinates: euclidean keys and
    the ranking sum the same rounded squares, scaled by a power of two, in
    different orders, which moves a sum by at most about 2 (d - 1) 2**-53
    relative, half the relative term.  The absolute term covers cosine keys,
    which lie in [0, 2], and squares that underflow in one frame only."""
    return bound * (1.0 + 4 * d * 2.0 ** -53) + 1e-9


def _pool_members(s, qs, ranked, k, score) -> np.ndarray:
    """Sequence indices of the centers of the ranked table rows under a
    shrinking k-th best distance bound.

    ``ranked`` holds (row, key) pairs of ``s.dominant_table()`` in ascending
    key order: an orbit row's key is the best distance in its orbit, a lone
    row's key its own center's distance.  A row's centers are scored against
    the query qs, in its own frame, by ``score`` (see ``_search_orbits``).
    """
    table = s.dominant_table()
    best: list[float] = []
    pool = []
    # every row's key is the distance of a present center of its own, so
    # the k-th key bounds the true k-th distance before any row is expanded
    seed_bound = ranked[k - 1][1] if len(ranked) >= k else math.inf
    for row, key in ranked:
        cur = _widen(seed_bound if len(best) < k else min(seed_bound, -best[0]),
                     len(qs))
        if key > cur:
            break
        # each center enters the tracker once: the rows' groups are disjoint
        group = table.members[table.starts[row]:table.starts[row + 1]]
        found = score(s.numerators[group], table.norms[row], qs)
        keep = found <= cur
        pool.append(group[keep])
        for dm in found[keep].tolist():
            if len(best) < k:
                heapq.heappush(best, -dm)
            elif dm < -best[0]:
                heapq.heapreplace(best, -dm)
    return np.concatenate(pool) if pool else np.empty(0, dtype=np.intp)


def _rank(q, s, indices, k, metric):
    """The k best of the given centers in a full scan's order, scored from
    their numerator rows; ScaledPoints are made for the hits only."""
    level = s.levels_built
    den = float(1 << level)
    scored = []
    for i, row in zip(indices, s.numerators.take(indices, axis=0).tolist()):
        vals = [v / den for v in row]
        if metric == EUCLIDEAN:
            key = sq_euclidean(q, vals)
            dist = math.sqrt(key)
        else:
            key = dist = cosine_distance(q, vals)
        # indices are distinct, so the row is never compared
        scored.append((key, [-v for v in row], i, dist, row))
    scored.sort()
    hits = tuple((i, ScaledPoint(row, level), dist)
                 for _, _, i, dist, row in scored[:k])
    return QueryResult(hits, metric, tuple(q), len(scored))


def _search_orbits(q, s, k, metric, qs, score):
    """The k nearest centers of q, given the query qs at the table's scale.
    ``score(mat, norms, v)`` gives each row of ``mat``, of norm ``norms``,
    its distance from v: the orbit rows are keyed against the sorted qs, the
    lone rows and every expanded center against qs itself.  The bound is
    seeded with the k-th key, the rows under it are expanded in key order,
    and their centers are ranked against q."""
    table = s.dominant_table()
    n = table.orbit_rows
    keys = score(table.mat[:n], table.norms[:n], np.sort(qs)[::-1])
    if n < len(table.mat):
        keys = np.concatenate((keys, score(table.mat[n:], table.norms[n:], qs)))
    kth = float(np.partition(keys, k - 1)[k - 1]) if len(keys) >= k else math.inf
    # rows past the widened seed bound would end _pool_members' loop unseen
    near = np.flatnonzero(keys <= _widen(kth, len(qs)))
    near = near[np.argsort(keys[near], kind="stable")]
    ranked = list(zip(near.tolist(), keys[near].tolist()))
    return _rank(q, s, _pool_members(s, qs, ranked, k, score).tolist(), k, metric)


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
    rank them (distance, then descending-lex point).

    With g the sorted query, the member of orbit(t) nearest to it is the one
    sorted like it, so the orbit rows are ranked by |g - t|^2, and each
    orbit's members are kept within the k-th best squared distance.
    """
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
    qs = np.array(q) * float(1 << s.levels_built)

    def score(mat, norms, v):
        # the squared distance from the row differences: no
        # |v|^2 + |t|^2 - 2<v, t> cancellation for far queries
        diff = mat - v
        return np.einsum("ij,ij->i", diff, diff)

    return _search_orbits(q, s, k, EUCLIDEAN, qs, score)


def cosine_nearest(e: Sequence[float], s: Scattering, k: int = 1) -> QueryResult:
    """Cosine k-nearest, exactly as a full scan would rank them.

    Every member of orbit(t) has norm |t|, and the member sorted like the
    query has the largest inner product with it (rearrangement inequality),
    so with g the sorted query b(t) = 1 - <g, t> / (|g| |t|) is the best
    cosine distance in orbit(t).  The orbit rows are ranked by b in one
    pass over the scattering's center table, and each orbit's members are
    kept under the shrinking k-th best bound.
    The search and the ranking see the query rescaled by a power of two to a
    largest coordinate in [1/2, 1): that leaves the cosine distances of
    ordinary queries bit for bit unchanged and keeps the squares of tiny
    queries from underflowing.  ``query`` in the result is the caller's.
    """
    q = _checked_query(e, s, k)
    peak = max(abs(v) for v in q)
    if peak == 0.0:
        raise ValueError("cosine query must be nonzero")
    shift = -math.frexp(peak)[1]
    scaled = tuple(math.ldexp(v, shift) for v in q)
    table = s.dominant_table()
    if not table.norms.all():
        raise ValueError("cosine distance undefined for the zero vector")
    # cosine is scale-free: put the query on the sphere of the largest
    # center norm, where lattice distances are well conditioned
    g = sorted(scaled, reverse=True)
    factor = table.top / math.hypot(*g)
    gn = math.hypot(*(v * factor for v in g))
    qs = np.array(scaled) * factor

    def score(mat, norms, v):
        return 1.0 - (mat @ v) / (norms * gn)

    res = _search_orbits(scaled, s, k, COSINE, qs, score)
    return replace(res, query=q)
