"""Correctness gates, run outside the timed regions.

Query answers are checked against ``qusc.oracle.brute_nearest`` on small
codebooks and against a vectorised full scan on large ones; round trips must
reproduce the center sequence exactly; verification reports must keep the
euclidean exponent within 2 and agree with ``brute_nn_sq_numerators`` on
short prefixes.
"""

from __future__ import annotations

import numpy as np

from qusc.core import COSINE
from qusc.oracle import brute_nearest, brute_nn_sq_numerators

ORACLE_MAX_CENTERS = 500  # brute_nearest is pure Python; above this, numpy
PREFIX_MAX = 200  # verify prefixes this short are recomputed by brute force


class AnswerChecker:
    """Checks k-NN answers for one scattering and metric."""

    def __init__(self, s, metric: str):
        self.s = s
        self.metric = metric
        self.level = s.levels_built
        if len(s) > ORACLE_MAX_CENTERS:
            self.vals = np.array([c.values() for c in s.centers])
            self.norms = np.sqrt(np.einsum("ij,ij->i", self.vals, self.vals))

    def ok(self, q, k: int, indices, distances) -> bool:
        if len(self.s) <= ORACLE_MAX_CENTERS:
            ref = brute_nearest(q, self.s, k, self.metric)
            return list(indices) == ref.indices and list(distances) == ref.distances
        return self._scan_ok(np.asarray(q, dtype=np.float64), k, indices, distances)

    def _scan_ok(self, q, k, indices, distances) -> bool:
        """Full scan with the tie tolerance of the CLI's embedded check, plus
        the reported order: ascending distance, exact ties descending-lex."""
        if self.metric == COSINE:
            d = 1.0 - (self.vals @ q) / (self.norms * np.sqrt(q @ q))
            d = np.maximum(d, 0.0)
        else:
            diff = self.vals - q
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        kk = min(k, len(d))
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) != kk or len(set(indices)) != kk:
            return False
        tau = np.partition(d, kk - 1)[kk - 1]
        tol = 1e-9 * (1.0 + abs(tau))
        got = d[idx]
        if (got > tau + tol).any():
            return False
        if not set(np.flatnonzero(d < tau - tol).tolist()) <= set(indices):
            return False
        dist = np.asarray(distances, dtype=np.float64)
        if (np.abs(dist - got) > tol).any():
            return False
        for a, b, da, db in zip(indices, indices[1:], distances, distances[1:]):
            if db < da:
                return False
            if db == da and not (self._lex(a) > self._lex(b)):
                return False
        return True

    def _lex(self, i):
        return self.s.centers[i].numerators_at(self.level)


def roundtrip_ok(original, loaded, complete: bool) -> bool:
    return (complete is True
            and loaded.centers == original.centers
            and loaded.levels_built == original.levels_built
            and loaded.diagram == original.diagram)


class VerifyChecker:
    """Checks one scattering's verification reports."""

    def __init__(self, s):
        self.s = s
        self._brute: dict[int, tuple[int, int]] = {}

    def ok(self, rep) -> bool:
        if not rep.euclidean_exponent <= 2.0 + 1e-9:
            return False
        checked = 0
        for st in rep.prefixes:
            if st.length > PREFIX_MAX:
                continue
            if st.length not in self._brute:
                sq, level = brute_nn_sq_numerators(self.s.centers[:st.length])
                f = 4 ** (st.scale_level - level)
                self._brute[st.length] = (min(sq) * f, max(sq) * f)
            if self._brute[st.length] != (st.min_sq_numerator, st.max_sq_numerator):
                return False
            checked += 1
        return checked > 0
