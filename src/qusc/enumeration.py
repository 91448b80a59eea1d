"""Enumeration of dominant lattice points on the polytope boundary.

The walk descends over weakly decreasing count vectors in lexicographic
order.  A candidate prefix is only entered when a completion to a boundary
point provably exists, so the number of visited candidates stays linear in
the number of emitted points (the feasibility witness doubles as a proof that
no subtree is entered in vain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PointView, YoungDiagram


@dataclass(frozen=True)
class LevelSet:
    """New dominant boundary points introduced at one subdivision level, as
    the rows of ``points.numerators`` at scale 2**level."""

    diagram: YoungDiagram
    level: int
    points: PointView
    candidates_visited: int = field(default=0, compare=False)


def _balanced(total: int, slots: int) -> list[int]:
    """Weakly decreasing split of ``total`` into ``slots`` parts, as even as
    possible.  Among all sorted splits it minimizes every prefix sum and
    maximizes the last part."""
    q, r = divmod(total, slots)
    return [q + 1] * r + [q] * (slots - r)


class _BoundaryWalk:
    """Descending-lex DFS over dominant count vectors majorized by the caps,
    emitting exactly those with at least one tight proper prefix sum."""

    def __init__(self, caps: tuple[int, ...]):
        self.caps = caps
        self.dim = len(caps)
        self.total = caps[-1]
        self.visited = 0
        self.out: list[tuple[int, ...]] = []

    def run(self) -> list[tuple[int, ...]]:
        self._descend([], 0, self.total, False)
        return self.out

    # -- feasibility ------------------------------------------------------

    def _max_completion_sum(self, pos: int, placed: int, prev: int) -> int:
        acc = placed
        for p in range(pos, self.dim):
            v = min(prev, self.caps[p] - acc)
            if v <= 0:
                break
            acc += v
            prev = v
        return acc - placed

    def _tight_at_feasible(self, pos: int, placed: int, prev: int, t: int) -> bool:
        """Can positions pos.. be completed with prefix sum tight at cap
        index t (pos <= t <= dim-2)?  Exact: the balanced split is both
        prefix-minimal and last-part-maximal, so it is a witness whenever
        any witness exists."""
        caps, d = self.caps, self.dim
        m1 = t - pos + 1
        s1 = caps[t] - placed
        if s1 < 0 or s1 > m1 * prev:
            return False
        part1 = _balanced(s1, m1)
        acc = placed
        for i, v in enumerate(part1):
            acc += v
            if acc > caps[pos + i]:
                return False
        vlast = part1[-1]
        m2 = d - 1 - t
        s2 = self.total - caps[t]
        if m2 == 0:
            return s2 == 0
        if s2 > m2 * vlast:
            return False
        acc = caps[t]
        for i, v in enumerate(_balanced(s2, m2)):
            acc += v
            if acc > caps[t + 1 + i]:
                return False
        return True

    def _feasible(self, pos: int, placed: int, prev: int, tight_seen: bool) -> bool:
        if pos == self.dim:
            return tight_seen
        if tight_seen:
            return self._max_completion_sum(pos, placed, prev) >= self.total - placed
        return any(
            self._tight_at_feasible(pos, placed, prev, t)
            for t in range(pos, self.dim - 1)
        )

    # -- walk --------------------------------------------------------------

    def _descend(self, prefix: list[int], placed: int, prev_cap: int, tight_seen: bool):
        self.visited += 1
        pos = len(prefix)
        if pos == self.dim:
            self.out.append(tuple(prefix))
            return
        slots = self.dim - pos
        hi = min(prev_cap, self.caps[pos] - placed)
        lo = -(-(self.total - placed) // slots)  # ceil
        for v in range(hi, max(lo, 0) - 1, -1):
            tight = tight_seen or (pos < self.dim - 1 and placed + v == self.caps[pos])
            if not self._feasible(pos + 1, placed + v, v, tight):
                continue
            prefix.append(v)
            self._descend(prefix, placed + v, v, tight)
            prefix.pop()


def enumerate_dominant_boundary(lam: YoungDiagram) -> LevelSet:
    """All dominant integer boundary points of the weight polytope, in
    descending lexicographic order."""
    walk = _BoundaryWalk(lam.prefix_sums())
    rows = np.array(walk.run(), dtype=np.int64).reshape(-1, lam.dim)
    return LevelSet(lam, 0, PointView(rows, 0), walk.visited)


def enumerate_level(lam: YoungDiagram, k: int) -> LevelSet:
    """Dominant boundary points new at subdivision level k >= 1.

    These are the boundary points of the horizontally 2**k-scaled diagram
    that have at least one odd coordinate; all-even points already appeared
    at a coarser level.
    """
    if k < 1:
        raise ValueError("level must be >= 1; use enumerate_dominant_boundary for 0")
    walk = _BoundaryWalk(lam.scaled(1 << k).prefix_sums())
    rows = np.array(walk.run(), dtype=np.int64).reshape(-1, lam.dim)
    fresh = rows[(rows & 1).any(axis=1)]
    return LevelSet(lam, k, PointView(fresh, k), walk.visited)

