"""Independent brute-force references used to validate the main modules.

Enumeration here deliberately avoids the pruned lexicographic walk: it
counts through all weakly decreasing digit vectors and filters afterwards,
so agreement with the fast path is meaningful evidence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (BOUNDARY, EUCLIDEAN, ScaledPoint, YoungDiagram,
                   check_metric, membership)
from .scattering import Scattering
from .search import QueryResult


@dataclass(frozen=True)
class OracleConfig:
    max_total_boxes: int = 48
    max_candidates: int = 10_000_000
    seed: int = 0


DEFAULT = OracleConfig()


def brute_boundary(lam: YoungDiagram, k: int = 0,
                   config: OracleConfig = DEFAULT) -> frozenset[ScaledPoint]:
    """All boundary lattice points at resolution 2**-k in the dominant cone,
    by exhaustive enumeration and post-hoc filtering."""
    scale = 1 << k
    total = lam.boxes * scale
    if total > config.max_total_boxes:
        raise ValueError(f"|2^k * diagram| = {total} exceeds cap {config.max_total_boxes}")
    d = lam.dim
    found: list[tuple[int, ...]] = []
    budget = [config.max_candidates]

    def count_down(prefix: list[int], prev: int):
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError("oracle candidate budget exhausted")
        if len(prefix) == d:
            found.append(tuple(prefix))
            return
        for v in range(prev, -1, -1):
            prefix.append(v)
            count_down(prefix, v)
            prefix.pop()

    count_down([], total)

    # a vector of another sum is outside; skip making its point
    points = (ScaledPoint(vec, k) for vec in found if sum(vec) == total)
    return frozenset(p for p in points if membership(p, lam) == BOUNDARY)


def _oracle_sq(a, b) -> float:
    acc = 0.0
    for x, y in zip(a, b):
        d = x - y
        acc += d * d
    return acc


def _oracle_cos(a, b) -> float:
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for the zero vector")
    dot = sum(x * y for x, y in zip(a, b))
    d = 1.0 - dot / (na * nb)
    # parallel vectors can land an ulp below zero
    return d if d > 0.0 else 0.0


def brute_nearest(e: Sequence[float], centers, k: int,
                  metric: str = EUCLIDEAN) -> QueryResult:
    """Full scan reference: sort by (distance, descending-lex point), take k."""
    check_metric(metric)
    pts = centers.centers if isinstance(centers, Scattering) else list(centers)
    if not pts:
        raise ValueError("no centers")
    q = tuple(float(v) for v in e)
    peak = max(map(abs, q), default=0.0)
    # cosine is scale-free: scan at the search's power-of-two scale, so the
    # squares of a tiny query do not underflow
    x = tuple(math.ldexp(v, -math.frexp(peak)[1]) for v in q) if peak else q
    level = max(p.level for p in pts)
    scored = []
    for i, p in enumerate(pts):
        vals = p.values()
        if metric == EUCLIDEAN:
            key = _oracle_sq(q, vals)
            dist = math.sqrt(key)
        else:
            key = _oracle_cos(x, vals)
            dist = key
        scored.append((key, tuple(-v for v in p.numerators_at(level)), i, dist))
    scored.sort()
    top = [i for _, _, i, _ in scored[:k]]
    rows = np.array([pts[i].numerators_at(level) for i in top], dtype=np.int64)
    return QueryResult(top, [dist for *_, dist in scored[:k]], rows, level,
                       metric, q, len(pts))


def sample_queries(lam: YoungDiagram, count: int,
                   config: OracleConfig = DEFAULT) -> list[list[float]]:
    """Deterministic query cloud for cross-checks: box points around the
    polytope, centers with noise, far gaussians, exact vertices and
    half-integer wall points."""
    rng = random.Random(config.seed)
    top = lam.rows[0]
    d = lam.dim
    vertex = list(map(float, lam.rows))
    out = []
    while len(out) < count:
        kind = len(out) % 5
        if kind == 0:
            e = [rng.uniform(-0.5, top + 0.5) for _ in range(d)]
        elif kind == 1:
            e = [v + rng.gauss(0, 0.3) for v in vertex]
            rng.shuffle(e)
        elif kind == 2:
            e = [rng.gauss(0, 1) * 5 for _ in range(d)]
        elif kind == 3:
            e = vertex[:]
            rng.shuffle(e)
        else:
            e = [round(rng.uniform(0, top) * 2) / 2.0 for _ in range(d)]
        if any(abs(v) > 1e-9 for v in e):
            out.append(e)
    return out


def brute_nn_distances(points: Sequence[ScaledPoint]) -> list[float]:
    """Exact all-pairs nearest-neighbor distance for each point of a prefix."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    sq, level = brute_nn_sq_numerators(points)
    den = 1 << level
    return [math.sqrt(v) / den for v in sq]


def brute_nn_sq_numerators(points: Sequence[ScaledPoint]) -> tuple[list[int], int]:
    """Nearest-neighbor squared distances as exact integers at the common
    scale, so equality comparisons carry no rounding."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    level = max(p.level for p in points)
    nums = [p.numerators_at(level) for p in points]
    n = len(nums)
    out = []
    for i in range(n):
        best = None
        a = nums[i]
        for j in range(n):
            if i == j:
                continue
            acc = 0
            for x, y in zip(a, nums[j]):
                acc += (x - y) * (x - y)
            if best is None or acc < best:
                best = acc
        out.append(best)
    return out, level
