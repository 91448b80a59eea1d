"""Exact nearest-center queries, answered for a whole block of queries at
once, whose cost does not depend on how many centers the scattering holds.

Every center is a coordinate permutation of a dominant (weakly decreasing)
center, and by the rearrangement inequality the member of a Weyl orbit
sorted like the query is the orbit's nearest one, under either metric.  One
pass over the scattering's center table against the query's sorted values
therefore gives every orbit's best distance in closed form.  A center whose
orbit is not wholly present, as in a cut prefix or an embedded sequence, or
that repeats an earlier center, is a lone row of the same table, keyed by
its own distance.  Each row owns a group of sequence indices, a whole orbit
or one lone center.

``nearest_centers`` searches an (m, d) query block in chunks, with a fixed
number of numpy passes per chunk (the blocked exact-distance search with
per-row k-selection of Johnson, Douze & Jegou 2017, "Billion-scale
similarity search with GPUs", over the table's rows):

1. the block is validated once;
2. every row is keyed against every query of the chunk, column by column
   over the table's contiguous key columns, which hold the centers' own
   values: the keys are taken in the frame the ranking scores in;
3. each query's k-th key bounds its k-th distance, so every row within that
   bound, widened past float rounding, is expanded at once into its
   centers, and all of them are scored exactly;
4. the centers under the bound are ranked as a full scan would rank them,
   with one lexsort over the whole chunk on three keys: the query, the
   distance and the center's tie rank, its precomputed place in a full
   scan's order of equal distances (descending-lex point, then sequence
   index).  Numerator rows are gathered for the k hits only.

The candidate set provably contains the k nearest centers (ties included),
so the ranking agrees with a full scan for every center sequence.  A single
query is a block of one.  Euclidean and cosine search differ only in the
distance.  Each answer keeps its hits as arrays, the indices, distances and
numerator rows the ranking selected; a hit becomes a ScaledPoint only when
``QueryResult.points`` or ``hits`` is read.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .core import COSINE, EUCLIDEAN, ScaledPoint, check_metric
from .scattering import Scattering


class QueryResult:
    """The ranked nearest centers of one query, as a full scan ranks them.

    The hits are held as arrays: ``indices`` and ``distances`` read them as
    lists, and ``numerators`` is a (hits, d) int64 array of the hit
    centers' numerators at scale ``2**level``.  ``points`` (ScaledPoints)
    and ``hits`` ((sequence index, point, distance) triples) are made from
    those rows the first time either is read, so a caller that reads only
    indices and distances makes no point.  Two results are equal when their
    hits, metric and query are.

    ``candidates_examined`` is the number of centers the search kept: those
    within the k-th distance of the query, ties included.
    """

    __slots__ = ("_indices", "_distances", "numerators", "level", "metric",
                 "query", "candidates_examined", "_points")

    def __init__(self, indices, distances, numerators: np.ndarray, level: int,
                 metric: str, query: tuple[float, ...],
                 candidates_examined: int = 0):
        self._indices = indices
        self._distances = distances
        self.numerators = numerators
        self.level = level
        self.metric = metric
        self.query = query
        self.candidates_examined = candidates_examined
        self._points = None

    @property
    def indices(self) -> list[int]:
        return list(self._indices)

    @property
    def distances(self) -> list[float]:
        return list(self._distances)

    @property
    def points(self) -> list[ScaledPoint]:
        if self._points is None:
            level = self.level
            self._points = tuple(ScaledPoint(row, level)
                                 for row in self.numerators.tolist())
        return list(self._points)

    @property
    def hits(self) -> tuple[tuple[int, ScaledPoint, float], ...]:
        return tuple(zip(self._indices, self.points, self._distances))

    def _key(self):
        return self.hits, self.metric, self.query

    def __eq__(self, other):
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"QueryResult(hits={self.hits!r}, metric={self.metric!r}, "
                f"query={self.query!r}, "
                f"candidates_examined={self.candidates_examined!r})")


# -- block search ------------------------------------------------------------

# Elements of one chunk's (queries, table rows) key matrix, and about the
# most coordinates of (query, center) pairs one expansion scores at once:
# 256 KiB of float64, so a chunk's temporaries stay in a core's L2 cache.
_BLOCK = 1 << 15


def _widen(bound, d: int):
    """A distance bound widened past the float rounding between the search's
    distances and the final ranking's, for d coordinates: euclidean keys and
    the ranking sum the same rounded squares in different orders, which
    moves a sum by at most about 2 (d - 1) 2**-53 relative, half the
    relative term.  The absolute term covers cosine keys, which lie in
    [0, 2], and their products that underflow in one frame only."""
    return bound * (1.0 + 4 * d * 2.0 ** -53) + 1e-9


def _colsum(terms: np.ndarray) -> np.ndarray:
    """Row sums of an (m, d) array, added column by column from the left as
    the reference scan in ``oracle.brute_nearest`` adds: d - 1 in-place adds
    into the first column, which is returned.  The array is overwritten."""
    out = terms[:, 0]
    for j in range(1, terms.shape[1]):
        out += terms[:, j]
    return out


def _euclidean_keys(v, cols, norms):
    """Squared distances from every row of v to every column of cols, from
    the coordinate differences added column by column: no
    |v|^2 + |t|^2 - 2<v, t> cancellation for far queries."""
    pairs = zip(v.T[:, :, None], cols)
    vj, tj = next(pairs)
    keys = vj - tj
    np.square(keys, keys)
    diff = None
    for vj, tj in pairs:
        diff = np.subtract(vj, tj, diff)
        np.square(diff, diff)
        keys += diff
    return keys


def _cosine_keys(v, cols, norms):
    """Cosine distances from every row of v to every column of cols, whose
    norms are given."""
    keys = v @ cols
    keys /= np.sqrt(_colsum(v * v))[:, None]
    keys /= norms
    return np.subtract(1.0, keys, out=keys)


def _euclidean_pairs(x, vals):
    """The reference scan's squared euclidean distance of each pair of rows,
    with its float steps; x is overwritten."""
    x -= vals
    return _colsum(np.square(x, x))


def _cosine_pairs(x, vals):
    """The reference scan's cosine distance of each pair of rows, with its
    float steps; x and vals are overwritten."""
    norms = np.sqrt(_colsum(x * x)) * np.sqrt(_colsum(vals * vals))
    x *= vals
    d = 1.0 - _colsum(x) / norms
    # 1.0 - y is never -0.0, so this is the kernel's clamp bit for bit
    return np.maximum(d, 0.0, out=d)


_KERNELS = {EUCLIDEAN: (_euclidean_keys, _euclidean_pairs),
            COSINE: (_cosine_keys, _cosine_pairs)}


def _check_k(k) -> int:
    """k as an int of at least 1: any integer but a bool."""
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def _check_rows(q: np.ndarray, table, metric: str) -> None:
    """The per-query checks, row by row, naming the first bad row: finite
    coordinates, and for euclidean search squared distances to the centers
    that cannot overflow.  Cosine search rescales each query by a power of
    two before squaring it, so no finite query is too large for it."""
    for r, row in enumerate(q.tolist()):
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"query has a non-finite coordinate: {row} (row {r})")
        # neither a squared distance to a center nor the query's own sum of
        # squares exceeds reach**2; the factor 64 leaves room for rounding
        reach = math.hypot(*row) + table.radius
        if metric == EUCLIDEAN and not math.isfinite(64.0 * reach * reach):
            raise ValueError("query is too large: squaring its distances to "
                             f"the centers overflows (row {r})")


def nearest_centers(queries, s: Scattering, k: int = 1,
                    metric: str = EUCLIDEAN) -> list[QueryResult]:
    """The k nearest centers of every row of an (m, d) query block, exactly as
    a full scan would rank them (distance, then descending-lex point).

    The block is searched in chunks of queries whose key matrix against the
    center table stays within a fixed number of elements.  A block that
    does not convert to floats raises ValueError, and so does an invalid
    one, naming its first bad row: a non-finite coordinate, a zero cosine
    query, or a euclidean query whose squared distances to the centers
    could overflow; only euclidean search refuses a query for its size.  A
    k that is not an integer of at least 1 raises ValueError.
    """
    check_metric(metric)
    k = _check_k(k)
    if len(s) == 0:
        raise ValueError("empty scattering")
    table = s.dominant_table()
    d = len(table.cols)
    try:
        q = np.asarray(queries, dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError("cannot convert the query block to floats: "
                         f"{exc}") from None
    if q.shape == (0,):
        q = q.reshape(0, d)
    if q.ndim != 2:
        raise ValueError(f"expected an (m, {d}) query block, got shape {q.shape}")
    if q.shape[1] != d:
        raise ValueError(f"query dim {q.shape[1]} != scattering dim {d}")
    if not len(q):
        return []
    # only a block that could fail a check is checked row by row: the
    # block's norm bounds every row's, and is not finite when a row is not
    reach = math.sqrt(float(np.vdot(q, q))) + table.radius
    if not math.isfinite(128.0 * reach * reach):
        _check_rows(q, table, metric)
    if metric == EUCLIDEAN:
        frame = q
    else:
        peak = np.maximum.reduce(np.abs(q), axis=1)
        if not np.minimum.reduce(peak):
            raise ValueError(f"cosine query must be nonzero (row {int(np.argmin(peak))})")
        if table.zero >= 0:
            raise ValueError("cosine distance undefined for the zero vector "
                             f"(center {table.zero})")
        # cosine is scale-free: rescale each query by a power of two to a
        # largest coordinate in [1/2, 1), which leaves the distances of
        # ordinary queries bit for bit unchanged and keeps the squares of
        # tiny queries from underflowing
        frame = np.ldexp(q, -np.frexp(peak)[1][:, None])
    step = max(1, _BLOCK // len(table.norms))
    out: list[QueryResult] = []
    for lo in range(0, len(q), step):
        out += _search_chunk(s, table, q[lo:lo + step], frame[lo:lo + step], k,
                             metric)
    return out


def _search_chunk(s, table, q, frame, k, metric):
    """Key every table row against a chunk of queries in the ranking's
    frame: an orbit row against the query's sorted values, a lone row
    against the query itself."""
    n = table.orbit_rows
    score = _KERNELS[metric][0]
    srt = np.sort(frame, axis=1)
    keys = score(srt[:, ::-1], table.cols[:, :n], table.norms[:n])
    if n < len(table.norms):
        keys = np.concatenate(
            (keys, score(frame, table.cols[:, n:], table.norms[n:])), axis=1)
    return _expand(s, table, keys, q, frame, k, metric)


def _expand(s, table, keys, q, frame, k, metric):
    """Rank the centers of every row whose key is within its query's widened
    k-th key.

    Every key is the distance of a present center, so the k-th key bounds
    the k-th distance from above and the k nearest centers, ties included,
    lie in those rows.  Their centers are scored exactly; those under the
    bound are ranked as a full scan would rank them, and those within the
    k-th distance, ties included, count as examined.
    """
    c, d = len(keys), len(table.cols)
    if k == 1:
        kth = np.minimum.reduce(keys, axis=1)
    elif k <= keys.shape[1]:
        kth = keys.copy()
        kth.partition(k - 1, axis=1)
        kth = kth[:, k - 1]
    else:
        kth = np.full(c, math.inf)
    bound = _widen(kth, d)
    # the (query, row) pairs within the bound: a flat nonzero is several
    # times cheaper than a two-dimensional one
    qi, rows = np.divmod((keys <= bound[:, None]).ravel().nonzero()[0],
                         np.intp(keys.shape[1]))
    # each row's end in members, and its size
    span = table.spans.take(rows, axis=1)
    ends, sizes = span[0], span[1]
    at = sizes.cumsum()
    if c > 1 and at[-1] * d > _BLOCK:
        h = c // 2
        return (_expand(s, table, keys[:h], q[:h], frame[:h], k, metric)
                + _expand(s, table, keys[h:], q[h:], frame[h:], k, metric))
    # one (query, center) pair for each center of each row
    pos = (ends - at).repeat(sizes)
    pos += np.arange(at[-1])
    cand = table.members.take(pos)
    pq = qi.repeat(sizes)
    vals = s.numerators.take(cand, axis=0).astype(np.float64)
    vals *= 1.0 / table.lattice
    dist = _KERNELS[metric][1](frame.take(pq, axis=0), vals)
    near = (dist <= bound.take(pq)).nonzero()[0]
    pq, cand, dist = pq.take(near), cand.take(near), dist.take(near)
    # a full scan's order: distance, then the tie rank; pq is sorted, and
    # every query keeps at least kk centers
    order = np.lexsort((table.tie.take(cand), dist, pq))
    kk = min(k, len(table.tie))
    top = order.take(np.add.outer(pq.searchsorted(np.arange(c)),
                                  np.arange(kk)))
    hits, hit_dist = cand.take(top), dist.take(top)
    examined = np.bincount(pq[dist <= hit_dist[:, -1].take(pq)], minlength=c)
    if metric == EUCLIDEAN:
        np.sqrt(hit_dist, out=hit_dist)
    level = s.levels_built
    return [QueryResult(idx, dd, rows, level, metric, tuple(query), e)
            for idx, dd, rows, query, e in zip(
                hits.tolist(), hit_dist.tolist(),
                s.numerators.take(hits, axis=0), q.tolist(),
                examined.tolist())]


def nearest_center(e: Sequence[float], s: Scattering, k: int = 1,
                   metric: str = EUCLIDEAN) -> QueryResult:
    """The k nearest centers of one query: ``nearest_centers`` on a block of
    one."""
    return nearest_centers([e], s, k, metric)[0]


def cosine_nearest(e: Sequence[float], s: Scattering, k: int = 1) -> QueryResult:
    """Cosine k-nearest centers of one query: ``nearest_centers`` on a block
    of one."""
    return nearest_centers([e], s, k, COSINE)[0]
