"""Workload definitions and the seeded query generator.

Every workload runs the same round in a loop: timed queries through the
library, a write/read/is_complete round trip in all three file formats, a
query stream through the CLI, and a verification.  The workloads differ in
which codebooks each step uses and how much of a round it takes, so each one
loads a different layer while every end-to-end metric is defined on all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KINDS = ("box_uniform", "near_center", "far_gaussian", "exact_center",
         "half_integer_wall")


@dataclass(frozen=True)
class Codebook:
    rows: tuple[int, ...]
    level: int

    @property
    def name(self) -> str:
        return "".join(map(str, self.rows)) + f"_L{self.level}"


@dataclass(frozen=True)
class Workload:
    name: str
    metric: str  # "euclidean" or "cosine"
    codebooks: tuple[Codebook, ...]  # built in set-up, queried round-robin
    ks: tuple[int, ...]  # k cycle of the library queries
    queries_per_round: int
    maintained: Codebook  # the format round trip and the CLI stream use it
    verified: Codebook  # verification runs on it
    stream_queries: int  # one fixed stream, replayed every round
    stream_k: int
    tail_pct: float  # fixed, so the tail metric never changes meaning
    min_queries: int  # enough samples for >= 10 beyond tail_pct
    passes: int  # times each round runs; an operation's time is their median
    trace_rounds: int  # fixed work for the traced run, so counts repeat


L321 = (3, 2, 1)
L2211 = (2, 2, 1, 1)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="euclid-mixed",
        metric="euclidean",
        codebooks=(Codebook(L321, 1), Codebook(L321, 3), Codebook(L321, 5),
                   Codebook(L2211, 4)),
        ks=(1, 4, 16),
        queries_per_round=1000,
        maintained=Codebook(L321, 3),
        verified=Codebook(L321, 3),
        stream_queries=200,
        stream_k=4,
        tail_pct=99.0,
        min_queries=1000,
        passes=3,
        trace_rounds=3,
    ),
    Workload(
        name="cosine-mixed",
        metric="cosine",
        codebooks=(Codebook(L321, 1), Codebook(L321, 3), Codebook(L321, 5),
                   Codebook(L2211, 3)),
        ks=(4,),
        queries_per_round=250,
        maintained=Codebook(L321, 3),
        verified=Codebook(L321, 3),
        stream_queries=500,
        stream_k=4,
        tail_pct=98.0,
        min_queries=500,
        passes=1,
        trace_rounds=2,
    ),
    Workload(
        name="codebook-lifecycle",
        metric="euclidean",
        codebooks=(Codebook(L321, 4), Codebook(L321, 5), Codebook(L2211, 4)),
        ks=(4,),
        queries_per_round=800,
        maintained=Codebook(L321, 5),
        # one verification of (3,2,1) L5 takes seconds, too long to time
        # steadily here, so the O(n^2) verification runs on L4 (7,682 centers)
        verified=Codebook(L321, 4),
        stream_queries=500,
        stream_k=4,
        tail_pct=95.0,
        min_queries=200,
        passes=3,
        trace_rounds=2,
    ),
)}


class QueryStream:
    """Endless seeded queries for one scattering, the five-kind recipe of the
    acceptance suite: box-uniform, a center plus gaussian noise, a far
    gaussian, an exact center and a center rounded to the half-integer grid,
    one of each in turn (kind shares 1/5 each).

    Far gaussians come in antithetic pairs, e and -e.  Each is still a
    gaussian, but exactly half of them have a negative coordinate sum, which
    sends a cosine query to a full scan; independent draws would let that
    share, and with it the run's mean cost, vary from seed to seed.
    """

    def __init__(self, seed: int, tag: str, sc):
        self.rng = random.Random(f"{seed}:{tag}")
        self.sc = sc
        self.queries: list[list[float]] = []
        self._far: list[float] | None = None

    def get(self, j: int) -> list[float]:
        while len(self.queries) <= j:
            self._draw()
        return self.queries[j]

    def _draw(self):
        rng, sc = self.rng, self.sc
        top = sc.diagram.rows[0]
        kind = len(self.queries) % 5
        if kind == 0:
            e = [rng.uniform(-0.5, top + 0.5) for _ in range(sc.dim)]
        elif kind == 1:
            c = rng.choice(sc.centers).values()
            e = [v + rng.gauss(0, 0.3) for v in c]
        elif kind == 2:
            if self._far is None:
                e = self._far = [rng.gauss(0, 1) * 5 for _ in range(sc.dim)]
            else:
                e, self._far = [-v for v in self._far], None
        elif kind == 3:
            e = list(rng.choice(sc.centers).values())
        else:
            c = rng.choice(sc.centers).values()
            e = [round(v * 2) / 2.0 for v in c]
        if any(abs(v) > 1e-9 for v in e):
            self.queries.append(e)
