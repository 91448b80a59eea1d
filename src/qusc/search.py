"""Exact nearest-center queries, answered for a whole block of queries at
once, whose cost does not depend on how many centers the scattering holds.

The scattering's center table has one row per orbit, the centers that
permute one another's free coordinates.  By the rearrangement inequality
(Hardy, Littlewood & Polya 1934) the member sorted like the query is the
orbit's nearest under either metric: the query, its free values sorted
ascending, against the row's key center, its free values sorted so too,
gives the row's lower key, which a whole orbit attains; a partial one's
upper key is its first member's.

``nearest_centers`` searches an (m, d) query block in chunks, with a fixed
number of numpy passes per chunk (the blocked exact-distance search with
per-row k-selection of Johnson, Douze & Jegou 2017, "Billion-scale
similarity search with GPUs", over the table's rows):

1. the block is validated once, each query's squared norm taken, and
   each query prepared as the keys take it: doubled for euclidean search,
   made a unit for cosine search, after a power-of-two rescaling that a
   block of one reads from Python scalars.  Each center's norm, which
   cosine scoring divides by, is taken in member order on the scattering's
   first cosine search and kept;
2. the table's rows and their prefix cosets, the members that share their
   first t free coordinates, form one node tree, every node keyed one way:
   a depth-t node's key center, its first member with the free values past
   t sorted ascending (a row is depth 0), against the query laid out so too
   (``_sorted_past``), by one kernel (``_keys``), |x|^2 - <x, 2g> + |g|^2
   for euclidean search, with the squared norms stored in the table, or
   1 - <x, g> / |x| for cosine search, in the frame the ranking scores in.
   By the rearrangement inequality each is the node's exact lower key.
   Round 0 keys every row against every query of the chunk by one matrix
   product, with the rows' key centers as contiguous columns;
3. each query's k-th upper key (a whole row's is its lower key) bounds its
   k-th distance, so every row whose lower key is within that bound,
   widened past float rounding, is kept.  A block of one takes its bound
   and squared norm as Python floats, the same bits as 1-element arrays;
4. where the kept rows hold more than ``_ROUND`` members, round t keys the
   children of the split nodes kept last round, one free coordinate
   deeper, by one dot product each, and keeps those within the same bound;
   a kept leaf, a node not split, leaves the frontier with its whole run of
   members.  The bound and the rounds are taken once per chunk;
5. the kept leaves' members, each leaf's one run of the table's centers
   in member order (``points``), are scored exactly, every pair by one
   kernel (``_KERNELS``), a cosine pair from norms taken once per query
   and per center, and those under the bound are ranked as a full scan
   would rank them, by their places in member order, with one lexsort on
   three keys: the query, the distance and the center's tie rank, its
   precomputed place in a full scan's order of equal distances
   (descending-lex point, then sequence index); a block of one, its query
   broadcast over its pairs, sorts on the last two only.  Only this step
   is split: while the members hold more than ``_BLOCK`` coordinates, the
   chunk's queries are halved together with their kept members.  Only the
   k hits are mapped to sequence indices and their numerator rows
   gathered.

The candidate set provably contains the k nearest centers (ties included),
so the ranking agrees with a full scan for every center sequence.  A single
query is a block of one, which skips only the steps that sort pairs out by
query.  Euclidean and cosine search differ only in the distance.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import COSINE, EUCLIDEAN, ScaledPoint, check_int, check_metric
from .scattering import Scattering, _sorted_past


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
# most coordinates of (query, center) pairs one ranking pass scores at once:
# 256 KiB of float64, so a chunk's temporaries stay in a core's L2 cache.
_BLOCK = 1 << 15

# Refining a chunk's rows into cosets costs about as much as scoring this
# many members, so a chunk is refined only when its kept rows hold more.  A
# round is about a dozen numpy calls whatever its size, so no round pays
# for a query that keeps few members: a single (2,2,1,1) L4 query keeps
# about 85 at k = 1 and 580 at k = 4.  Tuned on one host (2 shared vCPUs),
# where refining single (2,2,1,1) queries paid from about 450 kept
# members for cosine search and 700 for euclidean
_ROUND = 512


def _widen(bound, sq, table, metric: str):
    """The k-th upper keys of queries whose squared norms are ``sq`` widened
    past float rounding (d coordinates, u = 2**-53) so that the nodes whose
    lower keys lie within them hold all of a full scan's k nearest centers:
    arrays, or a block of one's Python floats, which give the same bits.
    Any node's lower key, a row's or a coset's, is the float distance of
    the best member its prefix and free values allow, whose exact distance
    is its member set's least, and an upper key a present member's: the
    best one's in a whole row, the first one's, keyed from the query as
    given, in a partial one.  So an answer's lower key is four
    float-to-exact steps from the k-th upper key: via the answer, the k-th
    answer and that key's member.

    A euclidean key of a query g and a key center x, |x| <= R (the table's
    radius), adds |x|^2, -<x, 2g> and |g|^2 (doubling g is exact), three
    dot products of length d, each within d u of exact relative to the sum
    of its terms' magnitudes in any order of summation (Higham 2002,
    section 3.1), from a matrix product or not: within d u (|g| + |x|)^2
    together, and two roundings of sums of at most (|g| + R)^2 add 2 u of
    it.  A ranked distance, d rounded squares of rounded differences, is
    within (d + 2) u of exact, relatively, and no exact distance exceeds
    (|g| + R)^2.  So every key, upper key and ranked distance lies within
    (d + 2) u (|g| + R)^2 of exact, with second-order terms, and four steps
    within 4 (d + 2) u (|g| + R)^2.  The term 4 (d + 3) u (|g| + R)^2
    leaves u (|g| + R)^2 for its own rounding and its addition to the upper
    key; as (|g| + R)^2 <= 2 (|g|^2 + R^2), it is taken as
    8 (d + 3) u (sq + R^2), from the squared norms the keys add, without a
    square root.  A product or square that underflows loses up to 2**-1075
    besides, 3 d of them per key and d per distance: 8 d in four steps,
    half the floor d 2**-1071.

    A cosine key divides the query by its norm, within (d / 2 + 2) u per
    coordinate, and takes its dot product with the key center over the
    center's norm; a ranked distance takes dot products within d u |q| |c|,
    norms within (d / 2 + 1) u and 4 u more.  Both are within (2 d + 6) u
    of exact, absolutely: 8 (d + 3) u in four steps, half the term;
    rescaled queries underflow far less."""
    d = table.keys.shape[1]
    if metric == EUCLIDEAN:
        c = 8 * (d + 3) * 2.0 ** -53
        term = sq * c
        term += c * table.radius ** 2 + d * 2.0 ** -1071
        term += bound
        return term
    return bound + 16 * (d + 2) * 2.0 ** -53


def _colsum(terms: np.ndarray) -> np.ndarray:
    """Row sums of an (m, d) array, added column by column from the left as
    the reference scan in ``oracle.brute_nearest`` adds: d - 1 in-place adds
    into the first column, which is returned.  The array is overwritten."""
    out = terms[:, 0]
    for j in range(1, terms.shape[1]):
        out += terms[:, j]
    return out


def _keys(dot, sq, table, nodes, metric):
    """The keys of (query, node) pairs, in place, from the dot products
    ``dot`` of the nodes' key centers ``table.keys[nodes]`` with the
    queries laid out as those centers are and prepared as the search
    prepares them: |x|^2 - <x, 2g> + |g|^2 for euclidean search, with the
    query g doubled and sq its squared norm, or 1 - <x, g> / |x| for cosine
    search, with g made a unit.  ``_widen`` bounds their rounding."""
    if metric == EUCLIDEAN:
        np.subtract(table.key_sq[nodes], dot, out=dot)
        return np.add(dot, sq, out=dot)
    dot /= table.norms[nodes]
    return np.subtract(1.0, dot, out=dot)


def _euclidean_pairs(x, vals, *norms):
    """The reference scan's squared euclidean distance of each pair of a
    query row of x (or x's one query, broadcast) and a center row of vals,
    with its float steps: (c - q)^2 is (q - c)^2 bit for bit.  Cosine
    search's norms are not read; vals is overwritten."""
    vals -= x
    return _colsum(np.square(vals, vals))


def _cosine_pairs(x, vals, xn, cn):
    """The reference scan's cosine distance of each pair of a query row of
    x (or x's one query, broadcast) and a center row of vals, with its float
    steps, from norms taken by its steps (squares added left to right, then
    a square root) once per query and per center: xn the pairs' (or the one
    query's) and cn the centers'.  vals is overwritten."""
    vals *= x
    d = 1.0 - _colsum(vals) / (xn * cn)
    # 1.0 - y is never -0.0, so this is the kernel's clamp bit for bit
    return np.maximum(d, 0.0, out=d)


_KERNELS = {EUCLIDEAN: _euclidean_pairs, COSINE: _cosine_pairs}


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
    does not convert to floats (complex, string or bytes coordinates, an
    integer past the float range, or a sequence in a coordinate's place)
    raises ValueError, and so does an invalid one, naming its first bad
    row: a non-finite coordinate, a zero cosine query, or a euclidean query
    whose squared distances to the centers could overflow; only euclidean
    search refuses a query for its size.  A k that is not an integer of at
    least 1 raises ValueError.
    """
    check_metric(metric)
    k = check_int(k, "k", 1)
    if len(s) == 0:
        raise ValueError("empty scattering")
    table = s.dominant_table()
    d = table.keys.shape[1]
    try:
        # numpy would drop imaginary parts and parse strings as floats, also
        # those an object block holds
        q = np.asarray(queries)
        if q.dtype.kind in "cSU" or q.dtype.kind == "O" and any(
                np.asarray(v).dtype.kind in "cSU" for v in q.flat):
            raise TypeError("the block holds complex, string or bytes values")
        q = q.astype(np.float64, copy=False)
    except (TypeError, OverflowError, ValueError) as exc:
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
        # a block of one reads its peak and exponent as Python scalars, the
        # same frame bit for bit at a fraction of the numpy calls
        if len(q) == 1:
            peak = low = max(map(abs, q[0].tolist()))
            exp = -math.frexp(peak)[1]
        else:
            peak = np.maximum.reduce(np.abs(q), axis=1)
            low, exp = np.minimum.reduce(peak), -np.frexp(peak)[1][:, None]
        if not low:
            raise ValueError(f"cosine query must be nonzero (row {int(np.argmin(peak))})")
        if table.zero >= 0:
            raise ValueError("cosine distance undefined for the zero vector "
                             f"(center {table.zero})")
        # cosine is scale-free: rescale each query by a power of two to a
        # largest coordinate in [1/2, 1), which leaves the distances of
        # ordinary queries bit for bit unchanged and keeps the squares of
        # tiny queries from underflowing
        frame = np.ldexp(q, exp)
        if s._norms is None:  # each center's, in member order, found once
            s._norms = np.sqrt(_colsum(np.square(table.points)))
    # each query's squared norm in the frame, which sorting leaves alone
    sq = np.vecdot(frame, frame)
    rows, nodes, free = table.rows, len(table.kids), table.free.tolist()
    partial = len(table.keys) - nodes - 1  # their first members come last
    step = max(1, _BLOCK // (rows + partial))
    out: list[QueryResult] = []
    for at in range(0, len(q), step):
        chunk = slice(at, at + step)
        g, g2 = frame[chunk], sq[chunk, None]
        # the queries as the keys take them, g / by: doubled, or made units
        by = 0.5 if metric == EUCLIDEAN else np.sqrt(g2)
        # each row's lower key against the queries laid out as its key
        # center, and a partial row's upper key against the queries as given
        lo = hi = _keys(_sorted_past(g / by, free, 0) @ table.cols, g2,
                        table, slice(rows), metric)
        if partial:
            tail = slice(nodes + 1, None)
            hi = np.concatenate((lo[:, :rows - partial], _keys(
                (g / by) @ table.keys[tail].T, g2, table, tail, metric)),
                axis=1)
        out += _expand(s, table, lo, hi, q[chunk], g, by, sq[chunk], k,
                       metric)
    return out


def _expand(s, table, lo, hi, q, frame, by, sq, k, metric):
    """Search a chunk's node tree in rounds under one bound, each query's
    widened k-th upper key (``hi``), which bounds its k-th distance from
    above: rows are disjoint, and each upper key is one present member's
    distance.  Round 0 keeps every (query, row) pair whose lower key
    (``lo``) is within the bound.  Where those rows hold more than
    ``_ROUND`` members and the bound is finite, round t keys the children
    of the split nodes kept last round, the depth-t cosets, against the
    query as the keys take it, ``frame / by``, laid out by ``_sorted_past``,
    and keeps those within the bound; a kept leaf leaves with its whole
    span.  A leaf's kids row, all padding, is keyed with the others under a
    NaN key, as that is cheaper than compressing it out.  The leaves'
    members are ranked (``_rank``)."""
    if k == 1:
        kth = np.minimum.reduce(hi, axis=1)
    elif k <= hi.shape[1]:
        # a copy partitioned in place skips np.partition's dispatch cost
        kth = hi.copy()
        kth.partition(k - 1, axis=1)
        kth = kth[:, k - 1]
    else:
        kth = np.full(len(lo), math.inf)
    # round 0: the (query, row) pairs within the bound, a flat nonzero being
    # several times cheaper than a two-dimensional one
    c, rows = lo.shape
    if c > 1:
        bound = _widen(kth, sq, table, metric)
        qi, node = np.divmod((lo <= bound[:, None]).ravel().nonzero()[0],
                             np.intp(rows))
    else:
        # a block of one carries no query numbers through the rounds, and
        # its bound and squared norm are Python floats: IEEE doubles, so
        # the same bits as 1-element arrays, at a fraction of their calls
        sq = float(sq[0])
        bound = _widen(float(kth[0]), sq, table, metric)
        node = (lo[0] <= bound).nonzero()[0]
    # each node's end in members and its size (indexed: unpacking an array
    # iterates over it)
    span = table.spans.take(node, axis=1)
    ends, sizes = span[0], span[1]
    at = sizes.cumsum()
    # refining under an infinite bound (k past the rows) keeps every coset
    if table.depth and at[-1] > _ROUND and k <= rows:
        w, free = table.kids.shape[1], table.free.tolist()
        # a numpy integer, which arrays compare with faster than with a
        # Python one, and the free coordinates as a list, whose items
        # _sorted_past reads faster
        nodes = np.intp(len(table.kids))
        # a block of one broadcasts its query's norm and bound over the pairs
        gsq, b = sq, bound
        leaves_q, leaves_n = [], []
        for t in range(1, table.depth + 1):
            # a kept leaf leaves the frontier: its kids are all padding
            kid = table.kids.take(node, axis=0)
            leaf = kid[:, 0] == nodes
            leaves_n.append(node[leaf])
            kid = kid.ravel()
            g = _sorted_past(frame / by, free, t)
            if c > 1:
                leaves_q.append(qi[leaf])
                qi = qi.repeat(w)
                g, gsq, b = g.take(qi, axis=0), sq.take(qi), bound.take(qi)
            near = _keys(np.vecdot(table.keys.take(kid, axis=0), g), gsq,
                         table, kid, metric) <= b
            node = kid[near]
            if c > 1:
                qi = qi[near]
        node = np.concatenate(leaves_n + [node])
        if c > 1:
            qi = np.concatenate(leaves_q + [qi])
            order = qi.argsort(kind="stable")
            qi, node = qi.take(order), node.take(order)
        span = table.spans.take(node, axis=1)
        ends, sizes = span[0], span[1]
        at = sizes.cumsum()
    if c == 1:  # each span's query, as the traced benchmark counts spans
        qi = np.zeros(len(node), dtype=np.intp)
    return _rank(q, s, qi, ends, sizes, at, table, frame, sq, bound, k, metric)


def _rank(q, s, qi, ends, sizes, at, table, frame, sq, bound, k, metric):
    """Score the members of the spans ``ends`` over ``sizes`` (``at`` their
    running total) against their queries ``qi`` (sorted, indexing q)
    exactly, and rank those under the bound as a full scan would; those
    within the k-th distance, ties included, count as examined.  While the
    members hold more than ``_BLOCK`` coordinates, the queries are halved
    with their spans under the same bound, which no other query moves.  A
    block of one broadcasts its query over its pairs and ranks them with
    none of the steps that sort pairs out by query."""
    c = len(q)
    if c > 1 and at[-1] * table.keys.shape[1] > _BLOCK:
        h, cut = c // 2, qi.searchsorted(c // 2)
        return (_rank(q[:h], s, qi[:cut], ends[:cut], sizes[:cut], at[:cut],
                      table, frame[:h], sq[:h], bound[:h], k, metric)
                + _rank(q[h:], s, qi[cut:] - h, ends[cut:], sizes[cut:],
                        at[cut:] - at[cut - 1], table, frame[h:], sq[h:],
                        bound[h:], k, metric))
    # one (query, center) pair for each member of each span, by its place
    # in member order: its center is row pos of the points
    pos = (ends - at).repeat(sizes)
    pos += np.arange(len(pos))
    vals = table.points.take(pos, axis=0)
    # every query keeps at least kk centers, or the bound is wrong and its
    # top kk would run into the next query's centers
    kk, level = min(k, len(table.tie)), s.levels_built
    if c == 1:
        norms = ()
        if metric == COSINE:  # the query's norm, in Python floats
            xn = 0.0
            for v in frame[0].tolist():
                xn += v * v
            norms = math.sqrt(xn), s._norms.take(pos)
        dist = _KERNELS[metric](frame, vals, *norms)
        # a Python float, or a 1-element array where a block was halved
        near = (dist <= bound).nonzero()[0]
        if len(near) < kk:
            raise RuntimeError(f"search bound too tight: query {q[0].tolist()} "
                               f"kept {len(near)} centers, fewer than {kk}")
        pos, dist = pos.take(near), dist.take(near)
        # a full scan's order: distance, then the tie rank
        top = np.lexsort((table.tie.take(pos), dist))[:kk]
        hits, hit_dist = table.members.take(pos.take(top)), dist.take(top)
        examined = int(np.count_nonzero(dist <= hit_dist[-1]))
        if metric == EUCLIDEAN:
            np.sqrt(hit_dist, out=hit_dist)
        return [QueryResult(hits.tolist(), hit_dist.tolist(),
                            s.numerators.take(hits, axis=0), level, metric,
                            tuple(q[0].tolist()), examined)]
    pq = qi.repeat(sizes)
    norms = ()
    if metric == COSINE:
        norms = np.sqrt(_colsum(frame * frame)).take(pq), s._norms.take(pos)
    dist = _KERNELS[metric](frame.take(pq, axis=0), vals, *norms)
    near = (dist <= bound.take(pq)).nonzero()[0]
    pq, pos, dist = pq.take(near), pos.take(near), dist.take(near)
    kept = np.bincount(pq, minlength=c).tolist()
    if min(kept) < kk:
        r = kept.index(min(kept))
        raise RuntimeError(f"search bound too tight: query {q[r].tolist()} "
                           f"kept {kept[r]} centers, fewer than {kk}")
    # a full scan's order: distance, then the tie rank; pq is sorted
    order = np.lexsort((table.tie.take(pos), dist, pq))
    top = order.take(np.add.outer(pq.searchsorted(np.arange(c)),
                                  np.arange(kk)))
    hits, hit_dist = table.members.take(pos.take(top)), dist.take(top)
    examined = np.bincount(pq[dist <= hit_dist[:, -1].take(pq)], minlength=c)
    if metric == EUCLIDEAN:
        np.sqrt(hit_dist, out=hit_dist)
    return [QueryResult(idx, dd, rows, level, metric, tuple(query), e)
            for idx, dd, rows, query, e in zip(
                hits.tolist(), hit_dist.tolist(),
                s.numerators.take(hits, axis=0), q.tolist(),
                examined.tolist())]


def nearest_center(e: Sequence[float], s: Scattering, k: int = 1,
                   metric: str = EUCLIDEAN) -> QueryResult:
    """The k nearest centers of one query: a block of one."""
    return nearest_centers([e], s, k, metric)[0]


def cosine_nearest(e: Sequence[float], s: Scattering, k: int = 1) -> QueryResult:
    """Cosine k-nearest centers of one query: a block of one."""
    return nearest_centers([e], s, k, COSINE)[0]
