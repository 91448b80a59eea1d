"""Outside-in layer tracing for the qusc benchmark.

The tracer replaces module attributes of qusc (functions, and methods on
their classes) with wrappers that push a span on a stack, so each layer's
self time is its own duration minus the time of the wrapped calls nested
inside it.  Nothing under ``src/`` knows about it.  An attribute that no
longer exists is recorded as absent instead of failing, so the benchmark
keeps running after a later change removes a private helper.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns


def _points(args, out):
    return {"points": len(out)}


def _members(args, out):
    return {"members": len(out)}


def _level_counts(args, out):
    return {"points": len(out.points), "visited": out.candidates_visited}


def _rank_counts(args, out):
    s, indices = args[1], args[2]
    return {"candidates": len(indices), "fallbacks": int(len(indices) == len(s))}


# (module, attribute path, layer, counters from the call's arguments and
# result).  Calls through the CLI resolve names in qusc.cli, so those are
# wrapped too: cli.query's self time is then cli.main minus search and file
# reading.
LAYERS = [
    ("qusc.search", "dominant_sort", "core.dominant_sort", None),
    ("qusc.search", "_face_clamp", "search.face_clamp", None),
    ("qusc.search", "_face_ball", "search.face_ball", _points),
    ("qusc.search", "_QueryGeometry.collect", "search.collect", None),
    ("qusc.search", "_QueryGeometry.collect_within", "search.collect", None),
    ("qusc.search", "_pool_members", "search.pool_members", None),
    ("qusc.search", "_orbit_ball", "search.orbit_ball", _members),
    ("qusc.search", "_member_indices", "search.index_lookup",
     lambda args, out: {"members": len(args[0])}),
    ("qusc.search", "_rank", "search.rank", _rank_counts),
    ("qusc.search", "nearest_center", "search.query", None),
    ("qusc.search", "cosine_nearest", "search.query", None),
    ("qusc.cli", "nearest_center", "search.query", None),
    ("qusc.cli", "cosine_nearest", "search.query", None),
    ("qusc.cli", "read_scattering", "formats.read", None),
    ("qusc.cli", "main", "cli.query", None),
    ("qusc.scattering", "enumerate_dominant_boundary", "enumeration.level",
     _level_counts),
    ("qusc.scattering", "enumerate_level", "enumeration.level", _level_counts),
    ("qusc.scattering", "weyl_orbit", "scattering.weyl_orbit", _members),
    ("qusc.scattering", "build_scattering", "scattering.build", None),
    ("qusc.scattering", "verify_scattering", "scattering.verify", None),
    ("qusc.scattering", "Scattering.is_complete", "scattering.is_complete", None),
]

SPAN_LOG_CAP = 20_000


class Tracer:
    """Span stack with per-layer self time and counters.

    ``stats[layer]`` holds ``calls``, ``self_ns`` and any counters.  The first
    ``SPAN_LOG_CAP`` spans are also kept raw as (operation, span id, parent
    id, layer, start ns, end ns) so one request can be read span by span.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self):
        self.absent = []
        for module, path, layer, counter in LAYERS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, layer, counter))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, layer, counter):
        stack, stats, spans = self._stack, self.stats, self.spans

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                st = stats[layer]
                st["calls"] += 1
                st["self_ns"] += dt - frame[1]
                if len(spans) < SPAN_LOG_CAP:
                    spans.append((self.op, sid, parent, layer, t0, t1))
            if counter is not None:
                for key, v in counter(args, out).items():
                    st[key] += v
            return out

        traced.__wrapped__ = fn
        return traced
