"""Enumeration of dominant lattice points on the polytope boundary.

A dominant boundary point of a diagram with prefix sums c_0 <= ... <= c_{d-1}
is a weakly decreasing count vector whose prefix sums stay at or under these
caps, whose total is c_{d-1}, and one of whose proper prefix sums is tight
(equal to its cap).  The walk builds them breadth first, one position at a
time over the whole frontier at once: every frontier prefix is expanded into
each value of its range in descending order, and a candidate survives only
when a completion to a boundary point provably exists.  Survivors keep their
parents' order, so the rows come out in descending lexicographic order.

The walk at scale 2**k holds every coarser level's points too, peeled off
it from the top down: a point with an odd coordinate is new at level k, and
any other, halved, is a point of the walk at scale 2**(k-1).

Every surviving node leads to at least one point, so the nodes visited (the
root and the survivors of each position) are linear in the boundary points
of the diagram: at most d per point.  The values tried have no proved
bound: a range is about 2**k * lambda_1 wide at level k and may hold many
values that fail.  They are array elements, tested in a fixed number of
numpy passes per position and slice of at most _SLICE candidates.  The
second-to-last position, where most of them used to fail, tests nothing:
the last value is the rest of the total, so a tight prefix keeps its whole
range and any other keeps the one value that makes it tight.

The test is exact.  The balanced split of s into m parts (the first s % m
one larger) has the least prefix sums and the least first part of all weakly
decreasing splits, and the greatest last part, so it is a witness whenever
any witness exists.  A tight prefix needs a completion of its remaining
total; any other needs, for some later index t < d-1, a balanced split up to
cap t followed by a balanced split of the rest that starts no higher than
the first split ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PointView, YoungDiagram, check_int

# Candidates one slice of a position's frontier tests at once.  Each holds
# an int64 per (tight index, part) pair, at most (d-1)**2 of them: 1 MB per
# temporary of a slice at d = 4, 8 MB at d = 9.
_SLICE = 1 << 14


@dataclass(frozen=True)
class LevelSet:
    """New dominant boundary points introduced at one subdivision level, as
    the rows of ``points.numerators`` at scale 2**level."""

    diagram: YoungDiagram
    level: int
    points: PointView
    candidates_visited: int = field(default=0, compare=False)


def _least_last_parts(caps: tuple[int, ...]) -> list[int]:
    """For each tight index t, the least last part of a first block ending
    at cap t: the first part of the balanced split of the rest over the
    positions after t (0 for t = d-1), or more than any part when that split
    breaks a cap, so that no completion is tight at t.  A loop of about
    d**2/2 integer steps, cheaper than numpy calls on arrays this small."""
    d, total = len(caps), caps[-1]
    least = []
    for t in range(d - 1):
        m2 = d - 1 - t
        q2, r2 = divmod(total - caps[t], m2)
        fits = all(caps[t] + j * q2 + min(j, r2) <= caps[t + j]
                   for j in range(1, m2 + 1))
        least.append(q2 + (r2 > 0) if fits else total + 1)
    return least + [0]


def _walk(caps: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The dominant count vectors under the caps with a tight proper prefix
    sum, as descending-lex rows, and the number of walk nodes visited."""
    d, total = len(caps), caps[-1]
    cap = np.array(caps, dtype=np.int64)
    least = np.array(_least_last_parts(caps), dtype=np.int64)
    parts = np.arange(1, d + 1)
    inside = parts[:, None] >= parts  # [t, u]: cap u is in t's first block
    prefix = np.zeros((1, d), dtype=np.int64)
    placed = np.zeros(1, dtype=np.int64)
    prev = np.array([total], dtype=np.int64)
    tight = np.zeros(1, dtype=bool)
    visited = 1
    for pos in range(d - 1):
        # every node has a completion, so its range [lo, hi] holds a value
        hi = np.minimum(prev, caps[pos] - placed)
        count = hi + (placed - total) // (d - pos) + 1  # lo = ceil(rest/slots)
        last = pos == d - 2
        if last:
            # the last value is the rest, so a tight prefix keeps its whole
            # range (v >= lo is the rest fitting under v); any other survived
            # only by a completion tight here, which needs v = hi
            count = np.where(tight, count, 1)
        ends = np.cumsum(count)
        top = hi + ends - count  # a node's value at candidate index g is top - g
        # the test at position p = pos + 1 tries tight indices t = p..d-1
        p = pos + 1
        c, m, least_t, tri = cap[p:], parts[:d - p], least[p:], inside[p:, p:]
        slices, start = [], 0
        while start < len(count):
            base = int(ends[start - 1]) if start else 0
            stop = len(count)
            if ends[-1] - base > _SLICE:
                cut = np.searchsorted(ends, base + _SLICE, side="right")
                stop = max(start + 1, int(cut))  # a node per slice at least
            parent = np.repeat(np.arange(start, stop), count[start:stop])
            v = np.repeat(top[start:stop], count[start:stop]) - np.arange(
                base, base + len(parent))
            s = placed[parent] + v
            t = tight[parent] | (s == caps[pos])
            if not last:
                # the balanced split of room[t] = c[t] - s over positions
                # p..t has q + 1 (r times) then q as parts, so its prefix
                # sum at position u is i*q + min(i, r) with i = u - p + 1;
                # m holds these part counts, t - p + 1 along t and
                # u - p + 1 along u
                room = c - s[:, None]  # >= 0, as s is under every later cap
                q, r = np.divmod(room, m)
                ok = (room <= m * v[:, None]) & (q >= least_t)
                ok &= (m * q[:, :, None] + np.minimum(m, r[:, :, None])
                       <= room[:, None, :]).all(axis=2, where=tri)
                # a tight prefix needs the completion t = d-1, any other a
                # tight index still to come
                keep = np.where(t, ok[:, -1], ok[:, :-1].any(axis=1))
                parent, v, s, t = parent[keep], v[keep], s[keep], t[keep]
            rows = prefix[parent]
            rows[:, pos] = v
            slices.append((rows, s, v, t))
            start = stop
        prefix, placed, prev, tight = (np.concatenate(a) if len(slices) > 1
                                       else a[0] for a in zip(*slices))
        visited += len(placed)
    prefix[:, d - 1] = total - placed
    return prefix, visited + len(placed)


def walk_boundary(lam: YoungDiagram, k: int) -> tuple[np.ndarray, int]:
    """Every dominant boundary point of the horizontally 2**k-scaled diagram,
    as descending-lex int64 rows, and the number of walk nodes visited."""
    return _walk(lam.scaled(1 << check_int(k, "level")).prefix_sums())


def enumerate_level(lam: YoungDiagram, k: int) -> LevelSet:
    """Dominant boundary points new at subdivision level k >= 0, in
    descending lexicographic order: ``walk_boundary``'s, all of them at
    level 0 and beyond it those with an odd coordinate."""
    k = check_int(k, "level")
    rows, visited = walk_boundary(lam, k)
    if k:
        rows = rows[(rows & 1).any(axis=1)]
    return LevelSet(lam, k, PointView(rows, k), visited)
