"""Exact nearest-center queries whose cost does not depend on how many
centers the scattering holds.

Every center is a coordinate permutation of a dominant (weakly decreasing)
center, and by the rearrangement inequality the member of a Weyl orbit
sorted like the query is the orbit's nearest one, under either metric.  A
query is therefore sorted into the dominant cone by a stable descending
sort, and one pass over the scattering's table of dominant centers gives
every orbit's best distance in closed form.  A center whose orbit is not
wholly present, as in a cut prefix or an embedded sequence, or that repeats
an earlier center, is a lone row of the same table, keyed by its own
distance.  The rows are expanded in key order under a shrinking k-th best
bound, and the sort is undone before the final ranking.  Euclidean and
cosine search differ only in the key and in the radius that bounds an
orbit's expansion.  The candidate set provably contains the k nearest
centers (ties included), so the final ranking agrees with a full scan for
every center sequence.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (COSINE, EUCLIDEAN, ScaledPoint, check_metric,
                   cosine_distance, dominant_sort, sq_euclidean)
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


# -- orbit expansion -----------------------------------------------------------

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


def _widen(bound: float, d: int) -> float:
    """A distance bound widened past the float rounding between the search's
    distances and the final ranking's, for d coordinates: euclidean keys and
    the ranking sum the same rounded squares, scaled by a power of two, in
    different orders, which moves a sum by at most about 2 (d - 1) 2**-53
    relative, half the relative term.  The absolute term covers cosine keys,
    which lie in [0, 2], and squares that underflow in one frame only."""
    return bound * (1.0 + 4 * d * 2.0 ** -53) + 1e-9


def _member_indices(members, s, inv) -> list[int]:
    """Sequence indices of orbit members found in the sorted frame, by one
    lookup of their rows in the query's frame."""
    if not members:
        return []
    to_query_frame = operator.itemgetter(*inv.order)
    rows = np.array([to_query_frame(m) for m in members], dtype=np.int64)
    return s.positions(rows).tolist()


def _pool_members(s, gs, inv, ranked, k, radius2, dist):
    """Sequence indices of the centers of the ranked table rows under a
    shrinking k-th best distance bound.

    ``ranked`` holds (row, key) pairs of ``s.dominant_table()`` in ascending
    key order: an orbit row's key is the best distance in its orbit from the
    sorted, scaled query gs, a lone row's key its own center's distance.
    ``radius2(bound, t)`` is the squared radius around gs that holds every
    member of orbit(t) within distance ``bound``, ``dist(gs, m)`` scores a
    sorted-frame member m, and ``inv`` maps m back to the query's frame.
    """
    table = s.dominant_table()
    n = len(table.orbits)
    best: list[float] = []
    lone: list[int] = []
    members: list[tuple[int, ...]] = []
    # every row's key is the distance of a present center of its own, so
    # the k-th key bounds the true k-th distance before any row is expanded
    seed_bound = ranked[k - 1][1] if len(ranked) >= k else math.inf
    for row, key in ranked:
        cur = _widen(seed_bound if len(best) < k else min(seed_bound, -best[0]),
                     len(gs))
        if key > cur:
            break
        if row >= n:
            lone.append(int(table.lone[row - n]))
            found = [key]
        else:
            # each center enters the tracker once: rows are disjoint, and a
            # full orbit's members are all present
            t = table.orbits[row].tolist()
            found = []
            for m in _orbit_ball(gs, t, radius2(cur, t)):
                members.append(m)
                found.append(dist(gs, m))
        for dm in found:
            if len(best) < k:
                heapq.heappush(best, -dm)
            elif dm < -best[0]:
                heapq.heapreplace(best, -dm)
    return _member_indices(members, s, inv) + lone


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


def _search_orbits(q, s, k, metric, perm, gs, score, radius2):
    """The k nearest centers of q, given the permutation that sorts q and
    the sorted query gs at the table's scale.  ``score(mat, norms, v)``
    gives every row of ``mat`` its key against v: the orbit rows are scored
    against gs, the lone rows against the unsorted query at the same scale.
    The bound is seeded with the k-th key, the rows under it are expanded
    in key order, and their centers are ranked against q."""
    table = s.dominant_table()
    n = len(table.orbits)
    inv = perm.inverse()
    keys = score(table.mat[:n], table.norms[:n], gs)
    if len(table.lone):
        keys = np.concatenate((keys, score(table.mat[n:], table.norms[n:],
                                           inv.apply(gs))))
    kth = float(np.partition(keys, k - 1)[k - 1]) if len(keys) >= k else math.inf
    # rows past the widened seed bound would end _pool_members' loop unseen
    near = np.flatnonzero(keys <= _widen(kth, len(gs)))
    near = near[np.argsort(keys[near], kind="stable")]
    ranked = list(zip(near.tolist(), keys[near].tolist()))
    dist = sq_euclidean if metric == EUCLIDEAN else cosine_distance
    return _rank(q, s, _pool_members(s, gs, inv, ranked, k, radius2, dist), k, metric)


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
    sorted like it, so the dominant centers are ranked by |g - t|^2, and
    each orbit is expanded within the k-th best squared distance itself.
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
    g, perm = dominant_sort(q)
    gs = [v * (1 << s.levels_built) for v in g]

    def score(mat, norms, v):
        # the squared distance from the row differences: no
        # |v|^2 + |t|^2 - 2<v, t> cancellation for far queries
        diff = mat - v
        return np.einsum("ij,ij->i", diff, diff)

    return _search_orbits(q, s, k, EUCLIDEAN, perm, gs, score,
                          lambda bound, t: bound)


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
    g, perm = dominant_sort(scaled)
    table = s.dominant_table()
    if not table.norms.all():
        raise ValueError("cosine distance undefined for the zero vector")
    # cosine is scale-free: put the query on the sphere of the largest
    # center norm, where lattice distances are well conditioned
    top = table.top
    gs = [v * (top / math.hypot(*g)) for v in g]
    gn = math.hypot(*gs)

    def score(mat, norms, v):
        return 1.0 - (mat @ v) / (norms * gn)

    def radius2(theta, t):
        tn = math.hypot(*t)
        return (gn - tn) ** 2 + 2.0 * theta * gn * tn

    res = _search_orbits(scaled, s, k, COSINE, perm, gs, score, radius2)
    return replace(res, query=q)
