import hashlib
import itertools
import math
import random
import sys
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qusc import (ScaledPoint, Scattering, YoungDiagram, brute_nearest,
                  build_scattering, cosine_nearest, embed_scattering,
                  nearest_center, nearest_centers)
from qusc.estimator import ScatteringNeighbors
from qusc.scattering import _LEAF, _SHARE, _pack_columns
from qusc.search import (_BLOCK, _KERNELS, _colsum, _euclidean_pairs, _expand,
                         _keys, _sorted_past, _widen)


def from_points(diagram, levels, points):
    """A scattering holding the given points, at scale 2**levels."""
    return Scattering(diagram, levels,
                      [p.numerators_at(levels) for p in points])


def random_queries(rng, sc, count, top):
    """The query mix used throughout: box, center+noise, far gaussian, exact
    centers (the last two exercise the Weyl reduction and the tie paths)."""
    out = []
    for trial in range(count):
        kind = trial % 4
        if kind == 0:
            out.append([rng.uniform(-0.5, top + 0.5) for _ in range(sc.dim)])
        elif kind == 1:
            c = rng.choice(sc.centers).values()
            out.append([v + rng.gauss(0, 0.3) for v in c])
        elif kind == 2:
            out.append([rng.gauss(0, 1) * 5 for _ in range(sc.dim)])
        else:
            out.append(list(rng.choice(sc.centers).values()))
    return out


class TestNearestCenterExamples:
    def test_query_is_a_center(self, scatterings):
        res = nearest_center((2, 1, 1, 0), scatterings[(2, 1, 1), 0], 1)
        assert res.points[0] == ScaledPoint((2, 1, 1, 0))
        assert res.distances[0] == 0.0

    def test_near_highest_weight(self, scatterings):
        res = nearest_center((1.9, 1.1, 0.9, 0.1), scatterings[(2, 1, 1), 0], 1)
        assert res.points[0].numerators == (2, 1, 1, 0)

    def test_weyl_image(self, scatterings):
        res = nearest_center((0.9, 1.1, 0.1, 1.9), scatterings[(2, 1, 1), 0], 1)
        assert res.points[0].numerators == (1, 1, 0, 2)

    def test_k3_matches_brute(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        res = nearest_center((1.9, 1.1, 0.9, 0.1), s, 3)
        ref = brute_nearest((1.9, 1.1, 0.9, 0.1), s, 3)
        assert res.indices == ref.indices
        assert all(a <= b for a, b in zip(res.distances, res.distances[1:]))

    def test_k_larger_than_centers(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        res = nearest_center((1.0, 1.0, 1.0, 1.0), s, 100)
        assert len(res.hits) == len(s)

    def test_errors(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        with pytest.raises(ValueError):
            nearest_center((1, 2), s, 1)
        with pytest.raises(ValueError):
            nearest_center((1, 1, 1, 1), s, 0)
        with pytest.raises(ValueError):
            nearest_center((1, 1, 1, 1), s, 1, metric="hamming")
        with pytest.raises(ValueError):
            cosine_nearest((0, 0, 0, 0), s, 1)

    @pytest.mark.parametrize("k", [2.0, True, "3", None, 0])
    def test_k_must_be_an_integer(self, scatterings, k):
        s = scatterings[(2, 1, 1), 1]
        with pytest.raises(ValueError, match="k must be"):
            nearest_center((1.0, 1.0, 1.0, 1.0), s, k)
        with pytest.raises(ValueError, match="k must be"):
            nearest_centers([[1.0, 1.0, 1.0, 1.0]], s, k, "cosine")

    def test_numpy_integer_k(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        e = (1.9, 1.1, 0.9, 0.1)
        res = nearest_center(e, s, np.int64(3))
        assert res == nearest_center(e, s, 3) and len(res.indices) == 3

    @pytest.mark.parametrize("search", [nearest_center, cosine_nearest])
    @pytest.mark.parametrize("bad,message", [
        (float("nan"), "non-finite"), (float("inf"), "non-finite"),
        (-float("inf"), "non-finite"), (1e300, "overflows")])
    def test_rejects_nonfinite_or_overflowing_query(self, scatterings, search,
                                                    bad, message):
        e, s = (bad, 1.0, 1.0, 1.0), scatterings[(2, 1, 1), 1]
        if search is cosine_nearest and math.isfinite(bad):
            # cosine search is scale-free: no finite query is too large
            assert search(e, s, 1) == brute_nearest(e, s, 1, "cosine")
            return
        with pytest.raises(ValueError, match=message):
            search(e, s, 1)


@pytest.mark.parametrize("caller", ["nearest_center", "nearest_centers",
                                    "kneighbors", "kneighbors-block"])
@pytest.mark.parametrize("bad,form", [
    (10 ** 400, "list"), (-(2 ** 1024), "list"), (1j, "list"), ("1.9", "list"),
    (b"1", "list"), (np.complex128(1 + 5j), "array"), ("1.9", "object"),
    (b"1", "object"), ("1.9", "object-rows"), (np.array([1.9]), "list"),
    (np.array([1.9]), "object"), ([1.9], "list")],
    ids=["10^400", "-2^1024", "1j", "str-1.9", "bytes-1", "complex128-array",
         "object-str-1.9", "object-bytes-1", "list-of-object-str",
         "array-in-list", "array-in-object", "ragged-list"])
def test_unconvertible_query_is_a_value_error(scatterings, caller, bad, form):
    """A coordinate numpy cannot convert to a float, alone or in the second
    row of a block, is refused as bad input; so is a string, which numpy
    would parse, also inside an object array or in a list of them, a
    complex array, whose imaginary part it would drop, and a sequence in a
    coordinate's place, in a list, in an object array or ragged."""
    s = scatterings[(2, 1, 1), 1]
    est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=1).fit()
    e, block = [bad, 0, 0, 0], [[1.0, 1.0, 1.0, 1.0], [bad, 0, 0, 0]]
    if form == "array":
        e, block = np.array(e), np.array(block)
        assert e.dtype == block.dtype == np.complex128
    elif form == "object":
        e, block = np.array(e, dtype=object), np.array(block, dtype=object)
    elif form == "object-rows":
        e = np.array([bad, "1", "1", "0"], dtype=object)
        block = [np.array(block[0]), e]
    call = {"nearest_center": lambda: nearest_center(e, s, 2),
            "nearest_centers": lambda: nearest_centers(block, s, 2),
            "kneighbors": lambda: est.kneighbors(e, 2),
            "kneighbors-block": lambda: est.kneighbors(block, 2)}[caller]
    with pytest.raises(ValueError, match="cannot convert the query block"):
        call()


@pytest.mark.parametrize("levels", [0, 3])
def test_huge_queries_match_brute(diagrams, levels):
    # the affine seed's rounding deficit grows with |q|; it was once repaired
    # one unit per loop turn, for seconds per query at this size
    s = build_scattering(diagrams[(3, 2, 1)], levels)
    rng = random.Random(41 + levels)
    for _ in range(20):
        e = [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0) * 1e22
             for _ in range(4)]
        res, ref = nearest_center(e, s, 2), brute_nearest(e, s, 2)
        assert (res.indices, res.distances) == (ref.indices, ref.distances), e


# Mutants of the search's bound, each with queries it fails on, as (metric,
# rows, levels, k, query): the euclidean ones drawn from far gaussian
# queries, the cosine ones from centers plus gaussian noise.  A kill's
# margin is the least the mutant's bound must grow before its query is
# answered right again: in units of u (|g|^2 + R^2), of which the euclidean
# term is 56 at d = 4, 0.52 for the dropped term and 1.00 and 0.95 for the
# cut one; in units of u, of which the cosine term is 96 at d = 4, 1.00
# and 0.99.  So every kill rests on about one rounding of the kernels.
WIDEN_MUTANTS = {
    "euclidean-absolute-dropped": (
        lambda bound, sq, table, metric:
            bound if metric == "euclidean"
            else _widen(bound, sq, table, metric),
        [("euclidean", (2, 1, 1), 0, 1,
          (1.3073334511472376, 0.6273181598370203, 1.0050523371646274,
           1.9915527111847378))]),
    # the term cut to d u (|g|^2 + R^2)
    "euclidean-absolute-cut-to-d": (
        lambda bound, sq, table, metric:
            bound + table.keys.shape[1] * 2.0 ** -53
            * (sq + table.radius ** 2)
            if metric == "euclidean" else _widen(bound, sq, table, metric),
        [("euclidean", (2, 1, 1), 0, 1,
          (-9156.89362240057, -45461.80232835481, -298.78559709815966,
           1663.49672613796)),
         ("euclidean", (3, 2, 1), 0, 1,
          (727.6831043789995, -755.6797146142251, -42.939662155018446,
           39.851160829680694))]),
    # the term cut to d u, which stops about one in 3,000 such queries
    "cosine-absolute-1d": (
        lambda bound, sq, table, metric:
            bound + table.keys.shape[1] * 2.0 ** -53 if metric == "cosine"
            else _widen(bound, sq, table, metric),
        [("cosine", (2, 1, 1), 2, 1,
          (1.423884678610578, 1.4238198295628228, 0.5673862734894646,
           0.41045178926813597)),
         ("cosine", (2, 1, 1), 1, 1,
          (1.3276643189425985, 0.7970342092436546, 0.10371033343025943,
           1.6788618181952137))]),
}


def assert_mutant_caught(runs):
    """Each run, (query, scattering, k, metric), either stops the search
    with its named error or gets an answer that differs from a full
    scan's."""
    for run in runs:
        try:
            res = nearest_center(*run)
        except RuntimeError as exc:
            assert "search bound too tight" in str(exc)
        else:
            assert res != brute_nearest(*run), run[0]


@pytest.mark.parametrize("name", list(WIDEN_MUTANTS))
def test_widen_mutants_are_caught(diagrams, monkeypatch, name):
    """Each term of the bound's widening is load-bearing: with it weakened,
    every listed query is caught."""
    mutant, cases = WIDEN_MUTANTS[name]
    runs = [(e, build_scattering(diagrams[rows], levels), k, metric)
            for metric, rows, levels, k, e in cases]
    for run in runs:
        assert nearest_center(*run) == brute_nearest(*run)
    monkeypatch.setattr("qusc.search._widen", mutant)
    assert_mutant_caught(runs)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_widen_on_floats_is_widen_on_arrays(scatterings, metric):
    """A block of one widens its bound in Python floats: IEEE doubles, so
    bit for bit the bound 1-element arrays give, at a zero, subnormal or
    huge squared norm and a zero, finite or infinite k-th key, and at
    random ones whose widening terms round against the key."""
    rng = np.random.default_rng(35)
    for s in (scatterings[(3, 2, 1), 2], scatterings[(2, 2, 1, 1), 1]):
        table = s.dominant_table()
        pairs = list(itertools.product(
            (0.0, 5e-324, 2.5e-310, 1.0, 3.7, 1e300, 1.7e300),
            (0.0, 5e-324, 0.25, 2.0, 1e300, math.inf)))
        for _ in range(200):
            sq = 10.0 ** rng.uniform(-3, 3)
            pairs.append((sq, (sq + table.radius ** 2) * rng.uniform(0, 1e-12)))
        for sq, bound in pairs:
            got = _widen(bound, sq, table, metric)
            want = _widen(np.array([bound]), np.array([sq]), table, metric)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (sq, bound)


def test_partial_upper_key_mutant_is_caught(diagrams, monkeypatch):
    """A partial row's lower key may be the distance of an absent member, so
    the k-th bound is taken over upper keys: with partial rows keyed from
    above by their own lower key, both cut codebooks' queries are caught
    at k = 1."""
    cases = [("euclidean", (2, 1, 1), 9,
              (0.2138938812756741, 1.1326876758878557, 0.6098654996442376,
               1.3117601157885834)),
             ("cosine", (3, 2, 1), 20,
              (-0.2530429846733244, 1.8715488251153234, 2.5048272449701603,
               1.3321683201897692))]
    runs = [(e, build_scattering(diagrams[rows], 1, max_points=cut), 1,
             metric) for metric, rows, cut, e in cases]
    for run in runs:
        assert nearest_center(*run) == brute_nearest(*run)
    monkeypatch.setattr("qusc.search._expand",
                        lambda s, table, lo, hi, *rest:
                            _expand(s, table, lo, lo, *rest))
    assert_mutant_caught(runs)


# Mutants of the coset keys' rearrangement, each with queries it fails on,
# as (metric, rows, levels, k, query): in the rounds past the rows, the
# query's free values past the prefix left in place, or its prefix sorted
# with them.  Either makes some coset's key exceed its best member's
# distance.
COSET_MUTANTS = {
    "coset-suffix-unsorted":
        lambda g, free, t: _sorted_past(g, free, t) if t == 0 else g,
    "coset-prefix-sorted": lambda g, free, t: _sorted_past(g, free, 0),
}
COSET_KILLS = [
    ("euclidean", (2, 2, 1, 1), 2, 4, (1.5, 2.0, 0.5, 1.25, 0.75)),
    ("cosine", (2, 2, 1, 1), 2, 16,
     (2.1648042293574643, 0.6999831879130389, 1.2658605483226963,
      2.0793600206282843, 0.18561761009380195)),
    ("euclidean", (5, 4, 3, 2, 1), 0, 1,
     (7.402482980628967, 8.438187826786837, -12.913487411927722,
      -2.276290721810745, 2.023961928809664, -0.8831134272058885)),
]


def counting_rounds(rounds):
    """``_sorted_past`` that appends to ``rounds`` each depth t >= 1 it lays
    queries out for, one per refinement round; round 0 keys the rows."""
    def sorted_past(g, free, t):
        if t:
            rounds.append(t)
        return _sorted_past(g, free, t)
    return sorted_past


@pytest.mark.parametrize("name", list(COSET_MUTANTS))
def test_coset_mutants_are_caught(monkeypatch, name):
    """A coset's key is exact only with the query's free values past the
    prefix sorted and its prefix in place: with either step broken, every
    listed query, each of whose chunks is refined, is caught."""
    runs = [(e, build_scattering(YoungDiagram.from_rows(rows), levels), k,
             metric) for metric, rows, levels, k, e in COSET_KILLS]
    refined = []
    monkeypatch.setattr("qusc.search._sorted_past", counting_rounds(refined))
    for run in runs:
        refined.clear()
        assert nearest_center(*run) == brute_nearest(*run)
        assert refined, run
    monkeypatch.setattr("qusc.search._sorted_past", COSET_MUTANTS[name])
    assert_mutant_caught(runs)


@pytest.fixture(scope="module")
def key_tables(diagrams, scatterings):
    """Sequences whose key centers the widening is held to: complete, cut
    inside an orbit and embedded codebooks; rows near and at the int64
    limits, at d = 4 and 9; a codebook at scale 2**1020, whose key centers'
    products with tiny queries underflow; and tables whose rows are split
    into cosets: (2,2,1,1) L2, whole and cut, and a cut orbit at the int64
    limits, at d = 9."""
    s = scatterings[(3, 2, 1), 2]
    rng = random.Random(33)
    return {
        "complete": s,
        "cut": build_scattering(diagrams[(3, 2, 1)], 3, max_points=500),
        "2211": scatterings[(2, 2, 1, 1), 2],
        # 400 centers cut 17 orbits of level 2, six of them of 120 members
        "cut-120": build_scattering(diagrams[(2, 2, 1, 1)], 2,
                                    max_points=400),
        "embedded": embed_scattering(scatterings[(2, 1, 1), 2]),
        "int64": table_sequence(random_table_rows(
            rng, 4, TestCenterTable.VALUES["int64"]), 4),
        "2^62-d9": table_sequence(random_table_rows(
            rng, 9, TestCenterTable.VALUES["2^62"]), 9),
        # the first 400 of a 504-member orbit at the int64 limits, d = 9:
        # 280 of them start with 2**62, few enough for the orbit to split
        "orbit-2^62-d9": table_sequence(sorted(distinct_perms(
            (1 << 62,) * 5 + (7,) + (-(1 << 62),) * 3), reverse=True)[:400],
            9),
        "scale-2^1020": Scattering(s.diagram, 1020, s.numerators),
    }


def node_depths(table):
    """Each node's depth: 0 for a row, t for a depth-t coset."""
    depth = np.zeros(len(table.kids) + 1, dtype=int)
    for node in range(len(table.kids)):
        depth[table.kids[node]] = depth[node] + 1
    return depth[:-1]


@given(data=st.data(), exp=st.integers(-1070, 498),
       kind=st.sampled_from(["complete", "cut", "embedded", "int64",
                             "2^62-d9", "scale-2^1020", "2211", "cut-120",
                             "orbit-2^62-d9"]),
       point=st.sampled_from(["scaled", "column", "midpoint"]))
@settings(max_examples=300, deadline=None)
def test_keys_and_distances_within_a_quarter_of_the_widening(
        key_tables, data, exp, kind, point):
    """Every euclidean key and ranked distance lies within a quarter of the
    term ``_widen`` adds, one of its four float-to-exact steps, of the
    exact squared distance: for queries from 2**-1070 to about 1e150, key
    centers themselves, where the keys cancel, and their midpoints.  Each
    key is taken as the search takes it, against its exact value, the
    distance from the query laid out as the node's key center is to that
    center: the rows' from one matrix product, the cosets' from dot
    products, and the partial rows' upper keys from one matrix product
    with the query as given."""
    table = key_tables[kind].dominant_table()
    nodes = len(table.kids)
    centers = np.delete(table.keys, nodes, axis=0)  # all but the padding
    if point == "scaled":
        e = [math.ldexp(v, exp) for v in data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=len(centers[0]),
            max_size=len(centers[0])))]
    else:
        a, b = (centers[data.draw(st.integers(0, len(centers) - 1))]
                for _ in range(2))
        e = list(a if point == "column" else (a + b) / 2)
    v = np.array([e])
    sq = np.vecdot(v, v)
    term = Fraction(_widen(np.zeros(1), sq, table, "euclidean")[0]) / 4
    dists = _euclidean_pairs(v.repeat(len(centers), axis=0), centers.copy())
    for c, dist in zip(centers.tolist(), dists.tolist()):
        exact = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(e, c))
        assert abs(Fraction(dist) - exact) <= term, (e, c, dist)

    def assert_keys(g, part, keys):
        for c, key in zip(table.keys[part].tolist(), keys.tolist()):
            exact = sum((Fraction(x) - Fraction(y)) ** 2
                        for x, y in zip(g[0].tolist(), c))
            assert abs(Fraction(key) - exact) <= term, (e, c, key)

    for g, part in ((_sorted_past(v.copy(), table.free, 0), slice(table.rows)),
                    (v, slice(nodes + 1, None))):
        assert_keys(g, part, _keys(2.0 * g @ table.keys[part].T, sq[:, None],
                                   table, part, "euclidean")[0])
    assert (table.depth == 0) == (kind not in ("2211", "cut-120",
                                                "orbit-2^62-d9"))
    depths = node_depths(table)
    for t in range(1, table.depth + 1):
        j = np.flatnonzero(depths == t)
        g = _sorted_past(v.copy(), table.free, t)
        assert_keys(g, j, _keys(np.vecdot(table.keys[j], 2.0 * g), sq, table,
                                j, "euclidean"))


def test_query_too_large_at_every_depth(diagrams, scatterings):
    """Euclidean search refuses a query only where its squared distances to
    the centers could overflow, at any depth: the same query is refused or
    answered at L1, L2 and L5.  The scale-free cosine search answers all of
    them."""
    deep = build_scattering(diagrams[(3, 2, 1)], 5)
    e = (5e152, 1.5e152, -1e152, 0.1)
    for k in (1, 4):
        assert nearest_center(e, deep, k) == brute_nearest(e, deep, k)
    for s in (scatterings[(3, 2, 1), 1], scatterings[(3, 2, 1), 2], deep):
        e = (1e154, 3e153, -2e153, 0.1)
        with pytest.raises(ValueError, match="query is too large"):
            nearest_center(e, s, 1)
        res, ref = cosine_nearest(e, s, 4), brute_nearest(e, s, 4, "cosine")
        assert (res.indices, res.distances) == (ref.indices, ref.distances)
        assert res.candidates_examined < len(s)


class TestCosine:
    def test_same_ray_distance_zero(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        res = cosine_nearest((10.0, 5.0, 5.0, 0.0), s, 1)
        assert res.points[0].numerators == (2, 1, 1, 0)
        assert res.distances[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("order", [("cosine", "euclidean"),
                                       ("euclidean", "cosine")])
    def test_two_metrics_on_one_scattering(self, diagrams, order):
        """One scattering serves both metrics in either order, each as a
        full scan answers; the centers' norms, in member order, are taken
        on its first cosine search and never again."""
        s = build_scattering(diagrams[(3, 2, 1)], 3)
        queries = stream_queries(random.Random(49), s, 10)
        norms = None
        for metric in order + order:
            for e in queries:
                for k in (1, 4):
                    assert nearest_center(e, s, k, metric) == \
                        brute_nearest(e, s, k, metric), (metric, e, k)
            if norms is None and metric == "euclidean":
                assert s._norms is None
            norms = s._norms if norms is None else norms
            assert s._norms is norms
        points = s.dominant_table().points
        want = np.sqrt(np.add.accumulate(np.square(points), axis=1)[:, -1])
        assert norms.tobytes() == want.tobytes()

    @staticmethod
    def assert_matches(e, s, k):
        res, ref = cosine_nearest(e, s, k), brute_nearest(e, s, k, "cosine")
        assert (res.indices, res.distances) == (ref.indices, ref.distances), \
            (e, k)
        return res

    def test_matches_brute(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        rng = random.Random(3)
        for e in random_queries(rng, s, 60, 2):
            if all(abs(v) < 1e-9 for v in e):
                continue
            self.assert_matches(e, s, 3)

    def test_negative_sum(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        res = self.assert_matches((-1.0, -2.0, -0.5, -0.5), s, 2)
        assert res.candidates_examined < len(s)

    def test_k_exceeds_dominant_count(self, scatterings):
        # 9 dominant centers: the k-th best is not bounded until k members
        # of their orbits have been seen, under either metric
        s = scatterings[(3, 2, 1), 1]
        rng = random.Random(8)
        for e in random_queries(rng, s, 12, 3):
            for k in (10, len(s)):
                for metric in ("cosine", "euclidean"):
                    res = nearest_center(e, s, k, metric)
                    ref = brute_nearest(e, s, k, metric)
                    assert (res.indices, res.distances) == \
                        (ref.indices, ref.distances), (e, k, metric)

    @pytest.mark.parametrize("m", [1e-165, 1e-300, 5e-321])
    def test_tiny_query(self, scatterings, m):
        # the squares underflow; the distances do not depend on the scale
        s = scatterings[(3, 2, 1), 1]
        e = (3 * m, 2 * m, m, m / 2)
        res = cosine_nearest(e, s, 4)
        assert res == brute_nearest(e, s, 4, "cosine")
        assert res.query == e

    @pytest.mark.parametrize("kind", ["complete", "cut", "embedded"])
    @pytest.mark.parametrize("e", [
        # the oracle once squared these coordinates raw: the first query's
        # squares lose bits as subnormals, the second's underflow to zero
        (-6.884544480689334e-156, 8.269460883629814e-156,
         -7.161469209698075e-156, 7.582428876585324e-156),
        (1e-200, 2e-200, 3e-200, -1e-200)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_tiny_query_matches_oracle(self, scatterings, kind, e, k):
        s = scatterings[(3, 2, 1), 1]
        if kind != "complete":
            s = build_scattering(s.diagram, 1, max_points=50)
        if kind == "embedded":
            s, e = embed_scattering(s), (*e, e[0])
        assert cosine_nearest(e, s, k) == brute_nearest(e, s, k, "cosine")

    def test_zero_center_raises(self, scatterings):
        # a corrupt sequence may hold the zero vector, where cosine distance
        # is undefined, as it is for brute_nearest
        s0 = scatterings[(2, 1, 1), 0]
        s = from_points(s0.diagram, 0, [*s0.centers, ScaledPoint((0, 0, 0, 0))])
        with pytest.raises(ValueError, match="zero vector"):
            brute_nearest((1, 1, 1, 1), s, 1, "cosine")
        with pytest.raises(ValueError, match="zero vector"):
            cosine_nearest((1, 1, 1, 1), s, 1)

    def test_kth_distance_beyond_one_with_positive_sum(self, scatterings):
        # with a positive sum the best cosine distance is below 1 (Chebyshev's
        # sum inequality), but the k-th can exceed it
        s = scatterings[(3, 2, 1), 2]
        e = (3.0, -1.0, -1.0, -0.9)
        full = brute_nearest(e, s, len(s), "cosine").distances
        k = sum(1 for d in full if d < 1.0) + 1
        assert full[k - 1] >= 1.0
        res = self.assert_matches(e, s, k)
        assert res.candidates_examined < len(s)


MAGNITUDE_KINDS = ["complete", "cut", "duplicated", "embedded", "times-2^40",
                   "times-10^12", "times-2^59", "times-2^60-1", "d7", "d8",
                   "d9"]


class TestOracleAgreement:
    @pytest.mark.parametrize("rows", [(2, 1, 1), (3, 2, 1), (2, 2, 1, 1)])
    @pytest.mark.parametrize("levels", [0, 1, 2])
    def test_euclidean(self, rows, levels, scatterings):
        s = scatterings[rows, levels]
        rng = random.Random(hash((rows, levels)) & 0xFFFF)
        for e in random_queries(rng, s, 40, rows[0]):
            for k in (1, 3, 8):
                assert nearest_center(e, s, k).indices == \
                    brute_nearest(e, s, k).indices, (e, k)

    def test_wall_queries(self, scatterings):
        s = scatterings[(3, 2, 1), 1]
        for e in [(1.5, 1.5, 1.5, 1.5), (2, 2, 1, 1), (3, 1, 1, 1),
                  (2.5, 2.5, 0.5, 0.5), (0, 0, 0, 6)]:
            for k in (1, 4):
                assert nearest_center(e, s, k).indices == \
                    brute_nearest(e, s, k).indices, (e, k)

    def test_far_query_k16_deep_codebook(self, diagrams):
        # an earlier face-projection search let center 282 (17.70124) stand
        # in for center 27050 (17.70020) as the 16th nearest here
        s = build_scattering(diagrams[(2, 2, 1, 1)], 4)
        e = [13.58707455302201, 6.069870277068644, 10.756373117827165,
             -8.644369932955826, 0.9486219919613392]
        assert nearest_center(e, s, 16).indices == brute_nearest(e, s, 16).indices

    @given(e=st.lists(st.floats(min_value=-8, max_value=8, allow_nan=False),
                      min_size=4, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_queries(self, scatterings, e):
        s = scatterings[(2, 1, 1), 1]
        assert nearest_center(e, s, 2).indices == brute_nearest(e, s, 2).indices

    @pytest.fixture(scope="class")
    def magnitude_sequences(self, scatterings):
        """(3,2,1) L1 whole, cut inside an orbit, with every 7th center
        repeated, embedded, and with its numerators times 2**40, 10**12,
        2**59 and 2**60 - 1 (up to about 6.9e18, near the int64 limit; the
        odd factor leaves no nonzero numerator exact in float64); and the
        level-0 codebooks at d = 7, 8 and 9."""
        s = scatterings[(3, 2, 1), 1]
        return {"complete": s,
                "cut": build_scattering(s.diagram, 1, max_points=50),
                "duplicated": Scattering(s.diagram, 1, np.vstack(
                    (s.numerators, s.numerators[::7]))),
                "embedded": embed_scattering(s),
                "times-2^40": Scattering(s.diagram, 1, s.numerators << 40),
                "times-10^12": Scattering(s.diagram, 1,
                                          s.numerators * 10 ** 12),
                "times-2^59": Scattering(s.diagram, 1, s.numerators << 59),
                "times-2^60-1": Scattering(s.diagram, 1,
                                           s.numerators * (2 ** 60 - 1)),
                "d7": build_scattering(
                    YoungDiagram.from_rows((3, 2, 1, 1, 1, 1)), 0),
                "d8": build_scattering(
                    YoungDiagram.from_rows((2, 2, 1, 1, 1, 1, 1)), 0),
                "d9": build_scattering(
                    YoungDiagram.from_rows((2, 1, 1, 1, 1, 1, 1, 1)), 0)}

    @given(data=st.data(),
           base=st.lists(st.floats(min_value=-8, max_value=8, allow_nan=False),
                         min_size=9, max_size=9),
           exp=st.integers(min_value=-1070, max_value=510),
           metric=st.sampled_from(["euclidean", "cosine"]),
           kind=st.sampled_from(MAGNITUDE_KINDS),
           point=st.sampled_from(["scaled", "midpoint", "nudged"]))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_magnitudes(self, magnitude_sequences, data, base, exp,
                                   metric, kind, point):
        """Queries from subnormal to about 2**513, exact midpoints of two
        centers and their 1-ulp nudges, where the tie order alone decides,
        with k from 1 to every center: exactly as the full scan ranks them,
        tie order included.  Only euclidean search refuses a query, as too
        large, and only where the overflow gate's own condition holds for
        it."""
        s = magnitude_sequences[kind]
        if point == "scaled":
            e = [math.ldexp(v, exp) for v in base[:s.dim]]
        else:
            a, b = (s.centers[data.draw(st.integers(0, len(s) - 1))].values()
                    for _ in range(2))
            e = [(x + y) / 2 for x, y in zip(a, b)]
            if point == "nudged":
                at = data.draw(st.integers(0, s.dim - 1))
                e[at] = math.nextafter(e[at], data.draw(
                    st.sampled_from([-math.inf, math.inf])))
        assume(any(e))
        k = data.draw(st.one_of(st.integers(1, 4), st.integers(1, len(s))))
        try:
            res = nearest_center(e, s, k, metric)
        except ValueError as exc:
            assert metric == "euclidean" and "query is too large" in str(exc)
            table = s.dominant_table()
            reach = math.hypot(*e) + table.radius
            assert not math.isfinite(64.0 * reach * reach)
            return
        assert res == brute_nearest(e, s, k, metric)

    @pytest.mark.parametrize("kind", MAGNITUDE_KINDS)
    def test_cosine_past_the_overflow_gate(self, magnitude_sequences, kind):
        """Cosine search is scale-free: queries whose sum of squares
        overflows, from 2**600 up to the largest float, are answered as the
        full scan answers them, one by one and as a block."""
        s = magnitude_sequences[kind]
        rng = random.Random(kind)
        queries = [[sys.float_info.max, 1e308, -1e308] + [1e-300] * (s.dim - 3)]
        for exp in (601, 700, 850, 1000, 1024):
            a, b = (rng.choice(s.centers).values() for _ in range(2))
            for e in ([rng.uniform(-1.0, 1.0) for _ in range(s.dim)], a,
                      [(x + y) / 2 for x, y in zip(a, b)]):
                # the largest coordinate lies in [2**(exp - 1), 2**exp)
                shift = exp - math.frexp(max(map(abs, e)))[1]
                queries.append([math.ldexp(v, shift) for v in e])
        for k in (1, 4, len(s)):
            ref = [brute_nearest(e, s, k, "cosine") for e in queries]
            assert [cosine_nearest(e, s, k) for e in queries] == ref, k
            assert nearest_centers(queries, s, k, "cosine") == ref, k


class TestTieBreaking:
    def test_midpoints_walls_and_rays(self, scatterings):
        """Maximal tie pressure: exact center midpoints, the barycenter with
        sub-ulp jitter, permuted centers, and rays through centers."""
        from qusc import polytope_center
        rng = random.Random(555)
        s = scatterings[(3, 2, 1), 1]
        n = len(s)
        queries = []
        for _ in range(25):
            a = rng.choice(s.centers).values()
            b = rng.choice(s.centers).values()
            queries.append([(x + y) / 2 for x, y in zip(a, b)])
        center = polytope_center(s.diagram)
        queries.append(list(center))
        for _ in range(8):
            queries.append([v + rng.choice((-1e-12, 0, 1e-12)) for v in center])
        for _ in range(8):
            a = rng.choice(s.centers).values()
            t = rng.uniform(0.1, 5)
            queries.append([t * v for v in a])
        for e in queries:
            for k in (1, 3, n):
                assert nearest_center(e, s, k).indices == \
                    brute_nearest(e, s, k).indices, (e, k)
                assert cosine_nearest(e, s, k).indices == \
                    brute_nearest(e, s, k, "cosine").indices, (e, k)


class TestWeylEquivariance:
    def test_result_sets_commute(self, scatterings):
        s = scatterings[(3, 2, 1), 1]
        lvl = s.levels_built
        first = {p: i for i, p in reversed(list(enumerate(s.centers)))}
        rng = random.Random(5)
        for _ in range(60):
            e = [rng.uniform(-1, 4) for _ in range(4)]
            order = list(range(4))
            rng.shuffle(order)
            direct = nearest_center([e[i] for i in order], s, 3)
            base = nearest_center(e, s, 3)
            mapped = {first[ScaledPoint(
                          [p.numerators_at(lvl)[i] for i in order], lvl)]
                      for p in base.points}
            assert set(direct.indices) == mapped


class TestScaling:
    def test_counter_does_not_grow_with_levels(self, diagrams):
        lam = diagrams[(3, 2, 1)]
        rng = random.Random(17)
        queries = [[rng.uniform(-0.5, 3.5) for _ in range(4)] for _ in range(80)]
        means = []
        for levels in (1, 2, 3):
            s = build_scattering(lam, levels)
            tot = sum(nearest_center(e, s, 3).candidates_examined for e in queries)
            means.append(tot / len(queries))
        assert means[1] <= means[0] * 1.05 + 2.0
        assert means[2] <= means[1] * 1.05 + 2.0

    def test_counter_linear_in_k(self, scatterings):
        s = scatterings[(3, 2, 1), 2]
        rng = random.Random(23)
        queries = [[rng.uniform(-0.5, 3.5) for _ in range(4)] for _ in range(60)]
        means = {}
        for k in (1, 2, 4, 8):
            tot = sum(nearest_center(e, s, k).candidates_examined for e in queries)
            means[k] = tot / len(queries)
        base = max(means[1], 1.0)
        for k in (2, 4, 8):
            assert means[k] <= base * k * 2.0, means

    def test_truncated_scattering_searched(self, diagrams):
        s = build_scattering(diagrams[(2, 1, 1)], 1, max_points=20)
        assert not s.is_complete()
        e = (1.9, 1.1, 0.9, 0.1)
        res, ref = nearest_center(e, s, 2), brute_nearest(e, s, 2)
        assert (res.indices, res.distances) == (ref.indices, ref.distances)
        assert res.candidates_examined < len(s)

    def test_scored_centers_per_query(self, diagrams, monkeypatch):
        """Centers scored per query, counted at the pair kernel over 200 box
        queries at k = 4: an embedding's constant coordinates stay in place,
        so embedded codebooks score about what the complete one does, and a
        cut inside the last level scores a small multiple of it."""
        full = build_scattering(diagrams[(3, 2, 1)], 3)
        once = embed_scattering(full)
        sequences = {"complete": full, "embedded": once,
                     "embedded-twice": embed_scattering(once),
                     "cut": build_scattering(full.diagram, 3, max_points=1000)}
        rng = random.Random(19)
        for metric in ("euclidean", "cosine"):
            pairs = _KERNELS[metric]
            scored = []

            def counting(x, vals, *norms, pairs=pairs):
                # a block of one broadcasts its query: count the centers
                scored.append(len(vals))
                return pairs(x, vals, *norms)

            monkeypatch.setitem(_KERNELS, metric, counting)
            mean = {}
            for name, s in sequences.items():
                scored.clear()
                queries = [[rng.uniform(0, 3) for _ in range(s.dim)]
                           for _ in range(200)]
                nearest_centers(queries, s, 4, metric)
                mean[name] = sum(scored) / len(queries)
            assert mean["embedded"] <= 1.25 * mean["complete"], mean
            assert mean["embedded-twice"] <= 1.25 * mean["complete"], mean
            assert mean["cut"] <= 2.5 * mean["complete"], mean

    @pytest.mark.parametrize("rows,levels", [((2, 2, 1, 1), 4),
                                             ((3, 2, 1, 1, 1, 1), 1),
                                             ((2, 1, 1, 1, 1, 1, 1, 1), 2)])
    def test_scored_centers_flat_in_dimension(self, monkeypatch, rows,
                                              levels):
        """Centers scored per query, counted at the pair kernel at k = 4
        over 100 queries of the five-kind mix, for both metrics, once
        orbits of up to 15,120 members are refined into prefix cosets:
        whole orbits scored 19-30 k d at d = 5 and 75-460 k d at d = 7
        and 9.  As one block, within 16 k d, below 5% of the centers at
        d = 9 and at most 200 at d = 5.  One query at a time, a chunk is
        refined only where its kept rows hold more than _ROUND members,
        which few single k = 4 queries at d = 5 do: there they score
        about 330 (euclidean) and 380 (cosine) of the 600 and 380 of whole
        orbits, so the single-query bound is 20 k d."""
        s = build_scattering(YoungDiagram.from_rows(rows), levels)
        queries = stream_queries(random.Random(45), s, 100)
        for metric in ("euclidean", "cosine"):
            pairs = _KERNELS[metric]
            scored = []

            def counting(x, vals, *norms, pairs=pairs):
                # a block of one broadcasts its query: count the centers
                scored.append(len(vals))
                return pairs(x, vals, *norms)

            monkeypatch.setitem(_KERNELS, metric, counting)
            nearest_centers(queries, s, 4, metric)
            mean = sum(scored) / len(queries)
            assert mean <= 16 * 4 * s.dim, (metric, mean)
            assert mean < 0.05 * len(s) and (s.dim > 5 or mean <= 200), \
                (metric, mean)
            scored.clear()
            for e in queries:
                nearest_centers([e], s, 4, metric)
            single = sum(scored) / len(queries)
            # a single-query path that skipped the kernels would read 0
            assert 0 < single <= 20 * 4 * s.dim, (metric, single)
            assert single < 0.05 * len(s), (metric, single)

    def test_sparse_orbit_is_not_combed(self, monkeypatch):
        """(2,1,1) + 0^61 cut to 1,000 centers is one cut row whose members
        share all but a few of their free values: each free coordinate
        would split off a member or two, one refinement round each.  No
        split shrinks it by a quarter, so it has no cosets, runs no round,
        and ranks as a full scan."""
        # the orbit's first 1,000 members in descending-lex order, as a
        # build cut to 1,000 lists them: 2 first, then the 1s at the pairs
        # of places in lexicographic order
        rows = np.zeros((1000, 64), dtype=np.int64)
        rows[:, 0] = 2
        for row, pair in zip(rows, itertools.combinations(range(1, 64), 2)):
            row[list(pair)] = 1
        s = Scattering(YoungDiagram.from_rows((2, 1, 1) + (0,) * 61), 0, rows)
        assert s.dominant_table().spans[1].tolist() == [1000]
        assert s.dominant_table().depth == 0
        rounds = []
        monkeypatch.setattr("qusc.search._sorted_past",
                            counting_rounds(rounds))
        for e in stream_queries(random.Random(61), s, 10):
            for metric in ("euclidean", "cosine"):
                res, ref = (nearest_center(e, s, 4, metric),
                            brute_nearest(e, s, 4, metric))
                assert (res.indices, res.distances) == \
                    (ref.indices, ref.distances), (e, metric)
        assert rounds == []

    @pytest.mark.parametrize("size", [1e8, 1e12])
    def test_far_queries_rank_few_centers(self, diagrams, size):
        # the search keys and the final ranking differ only in summation
        # order; a bound widened by more than that expands every orbit here
        s = build_scattering(diagrams[(3, 2, 1)], 3)
        rng = random.Random(int(math.log10(size)))
        for _ in range(20):
            e = [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0) * size
                 for _ in range(4)]
            for k in (2, 8):
                res, ref = nearest_center(e, s, k), brute_nearest(e, s, k)
                assert (res.indices, res.distances) == \
                    (ref.indices, ref.distances), (e, k)
                assert res.candidates_examined < len(s) / 10, (e, k)


class TestPartialSequences:
    """Cut, embedded, thinned and repeated center sequences are searched
    through the same table as complete ones, and rank like a full scan."""

    @staticmethod
    def assert_matches(s, queries, ks):
        for e in queries:
            for k in ks:
                for metric in ("euclidean", "cosine"):
                    res = nearest_center(e, s, k, metric)
                    ref = brute_nearest(e, s, k, metric)
                    assert (res.indices, res.distances) == \
                        (ref.indices, ref.distances), (len(s), e, k, metric)

    def test_every_cut_of_211_level2(self, scatterings):
        full = scatterings[(2, 1, 1), 2]
        rng = random.Random(12)
        queries = random_queries(rng, full, 8, 2)
        for n in range(1, len(full) + 1):
            s = build_scattering(full.diagram, 2, max_points=n)
            assert s.centers == full.centers[:n]
            self.assert_matches(s, queries, (1, 4))

    def test_cut_sweep_of_321_level3(self, diagrams):
        full = build_scattering(diagrams[(3, 2, 1)], 3)
        rng = random.Random(13)
        queries = random_queries(rng, full, 6, 3)
        for n in range(7, len(full), 97):
            s = build_scattering(full.diagram, 3, max_points=n)
            self.assert_matches(s, queries, (1, 5))
            assert_table_matches_reference(s)
            # partial rows in every cut but the first, whose first coordinate
            # is constant: its orbits on the other three are whole
            table = s.dominant_table()
            assert (len(table.keys) > len(table.kids) + 1) == (n > 7)

    @pytest.mark.parametrize("rows", [(2, 1, 1), (3, 2, 1)])
    def test_embedded_chains(self, scatterings, rows):
        once = embed_scattering(scatterings[rows, 2])
        twice = embed_scattering(once)
        rng = random.Random(14)
        for s in (once, twice):
            self.assert_matches(s, random_queries(rng, s, 16, rows[0]), (1, 4, 9))

    def test_gapped_free_coordinates(self, scatterings, monkeypatch):
        """Free coordinates that are not one run of columns: (2,2,1,1) L2
        embedded, with its constant column moved to index 2, so that the
        query is laid out by a gather, in round 0 and in the rounds past
        it, blocks and blocks of one alike."""
        once = embed_scattering(scatterings[(2, 2, 1, 1), 2])
        s = Scattering(once.diagram, once.levels_built,
                       once.numerators[:, [0, 1, 5, 2, 3, 4]])
        table = s.dominant_table()
        assert table.free.tolist() == [0, 1, 3, 4, 5]
        assert (table.rows, table.depth) == (29, 1)
        queries = stream_queries(random.Random(16), s, 30)
        ks = (1, 4, 16, table.rows, table.rows + 1)
        rounds = []
        monkeypatch.setattr("qusc.search._sorted_past",
                            counting_rounds(rounds))
        for metric in ("euclidean", "cosine"):
            refs = [brute_nearest(e, s, max(ks), metric) for e in queries]
            for k in ks:
                block = nearest_centers(queries, s, k, metric)
                single = [nearest_center(e, s, k, metric) for e in queries]
                assert block == single, (k, metric)
                for e, res, ref in zip(queries, block, refs):
                    assert (res.indices, res.distances) == \
                        (ref.indices[:k], ref.distances[:k]), (e, k, metric)
        assert rounds

    def test_repeated_and_dropped_centers(self, scatterings):
        full = scatterings[(3, 2, 1), 1]
        rng = random.Random(15)
        for _ in range(6):
            centers = [c for c in full.centers if rng.random() > 0.2]
            for _ in range(8):
                centers.insert(rng.randrange(len(centers) + 1),
                               rng.choice(full.centers))
            s = from_points(full.diagram, 1, centers)
            assert len(np.unique(s.numerators, axis=0)) < len(s)
            self.assert_matches(s, random_queries(rng, s, 12, 3), (1, 3, 10))

    def test_complete_sequence_has_no_partial_rows(self, scatterings):
        for s in scatterings.values():
            table = s.dominant_table()
            assert len(table.keys) == len(table.kids) + 1
            assert table.rows == sum(list(n) == sorted(n, reverse=True)
                                     for n in s.numerators.tolist())


def distinct_perms(values):
    """Every distinct ordering of a tuple of values."""
    if not values:
        yield ()
        return
    for v in sorted(set(values)):
        rest = list(values)
        rest.remove(v)
        for tail in distinct_perms(tuple(rest)):
            yield (v,) + tail


def multinomial(values):
    """The number of distinct orderings of a tuple of values."""
    out = math.factorial(len(values))
    for v in set(values):
        out //= math.factorial(values.count(v))
    return out


def reference_table(rows):
    """The center table by its definition, over rows as tuples: the free
    coordinates, each table row's sequence indices and the key rows.  The
    free coordinates are those that vary along the sequence; an orbit's
    members are permutations of one another on them, and its dominant
    member has its free values sorted descending.  Each orbit is a row that
    lists all its centers, repeats included, in a full scan's tie order
    (descending-lex point, then sequence index), keyed by the dominant
    member.  It is whole when each of its multinomial-many members is
    present.  Whole rows come first, then partial ones, each kind in the
    sequence order of the dominant member's first occurrence, or of the
    orbit's first member when the dominant member is absent.  Each row's
    key row is its members' free values sorted ascending, and a key row
    follows for each partial row: its first member in tie order."""
    rows = [tuple(r) for r in rows]
    free = [j for j in range(len(rows[0]) if rows else 0)
            if len({r[j] for r in rows}) > 1]

    def dominant(r):
        out, vals = list(r), sorted((r[j] for j in free), reverse=True)
        for j, v in zip(free, vals):
            out[j] = v
        return tuple(out)

    def size(orbit):
        return multinomial([orbit[j] for j in free])

    def ascending(r):
        out = list(r)
        for j, v in zip(free, sorted(r[j] for j in free)):
            out[j] = v
        return tuple(out)

    owned = {}
    for i, r in enumerate(rows):
        owned.setdefault(dominant(r), []).append(i)
    whole = {o for o, got in owned.items()
             if len({rows[i] for i in got}) == size(o)}
    order = sorted(owned, key=lambda o: (
        o not in whole, rows.index(o) if o in rows else owned[o][0]))
    groups = [sorted(owned[o], key=lambda i: (tuple(-v for v in rows[i]), i))
              for o in order]
    partial = [rows[g[0]] for o, g in zip(order, groups) if o not in whole]
    return free, groups, [ascending(o) for o in order] + partial


def splits(rows, free, run, t):
    """Whether a run of members sharing their first t free values, a table
    row or a coset, is split: only when it holds more than _LEAF members
    and no value at the next free coordinate is shared by more than _SHARE
    of them."""
    return (t < len(free) and len(run) > _LEAF and max(Counter(
        rows[i][free[t]] for i in run).values()) <= _SHARE * len(run))


def reference_cosets(rows, free, group):
    """The prefix cosets of one split table row, by their definition, as a
    list of (members, key center, split, depth) in the order a split row
    numbers its children, depth first: each coset's children are its
    members grouped by the value at the next free coordinate, in tie
    order, so descending by that value.  Its key center is its first
    member with the free values past its prefix sorted ascending."""
    out = []

    def split(members, t):
        runs = []
        for i in members:
            if runs and rows[runs[-1][0]][free[t]] == rows[i][free[t]]:
                runs[-1].append(i)
            else:
                runs.append([i])
        for run in runs:
            center = list(rows[run[0]])
            for j, v in zip(free[t + 1:], sorted(center[j]
                                                 for j in free[t + 1:])):
                center[j] = v
            big = splits(rows, free, run, t + 1)
            out.append((run, center, big, t + 1))
            if big:
                split(run, t + 1)

    split(group, 0)
    return out


def random_table_rows(rng, d, values):
    """Rows drawn from a few orbits over ``values``, each orbit whole or in
    part (its dominant member sometimes missing), plus stray rows; then
    shuffled or not, cut or not, and with repeats or not."""
    rows = []
    for _ in range(rng.randint(1, 5)):
        rep = sorted((rng.choice(values) for _ in range(d)), reverse=True)
        orbit = list(itertools.islice(distinct_perms(tuple(rep)), 400))
        if rng.random() < 0.4:
            orbit = rng.sample(orbit, rng.randint(1, len(orbit)))
        rows += orbit
    rows += [tuple(rng.choice(values) for _ in range(d))
             for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.5:
        rng.shuffle(rows)
    if rng.random() < 0.3:
        rows = rows[:rng.randint(1, len(rows))]
    for _ in range(rng.choice((0, 0, 3))):
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
    return rows


def table_sequence(rows, d):
    """A sequence holding the given numerator rows; the table reads no more
    of the diagram than its dimension, so any d from 1 up will do."""
    return Scattering(types.SimpleNamespace(dim=d), 0,
                      np.array(rows, dtype=np.int64).reshape(-1, d))


def reference_tie(rows):
    """Each center's place in a full scan's tie order, by a Python sort on
    (descending-lex point, sequence index)."""
    order = sorted(range(len(rows)),
                   key=lambda i: (tuple(-v for v in rows[i]), i))
    tie = [0] * len(rows)
    for place, i in enumerate(order):
        tie[i] = place
    return tie


def assert_table_matches_reference(s):
    rows = s.numerators.tolist()
    free, groups, keys = reference_table(rows)
    t, lattice = s.dominant_table(), 2.0 ** s.levels_built
    starts = np.concatenate(([0], t.spans[0, :t.rows]))
    # the rows' key centers and the partial rows' first members
    part = np.r_[:t.rows, len(t.kids) + 1:len(t.keys)]
    mat = (t.keys[part] * lattice).tolist()
    assert t.free.tolist() == free
    assert [t.members[a:b].tolist()
            for a, b in zip(starts[:-1], starts[1:])] == groups
    assert mat == [[float(v) for v in r] for r in keys]
    np.testing.assert_allclose(t.norms[part] * lattice,
                               [math.hypot(*r) for r in mat], rtol=1e-15)
    # each squared norm is one dot product, within d u of exact
    for key, sq in zip(t.keys[part].tolist(), t.key_sq[part].tolist()):
        exact = sum(Fraction(v) ** 2 for v in key)
        assert abs(Fraction(sq) - exact) <= Fraction(len(key), 2 ** 53) * exact
    assert np.array_equal(t.norms, np.sqrt(t.key_sq), equal_nan=True)
    # the tie ranks, as the points, in member order
    tie = reference_tie(rows)
    assert t.tie.tolist() == [tie[i] for i in t.members.tolist()]
    assert t.tie.dtype.itemsize <= 4
    assert t.spans[1, :t.rows].tolist() == list(map(len, groups))
    assert t.zero == next((i for i, r in enumerate(rows) if not any(r)), -1)
    assert_cosets_match_reference(t, rows, free, groups, lattice)


def assert_cosets_match_reference(t, rows, free, groups, lattice):
    """Each split row's cosets, walked through ``kids`` depth first, are
    the reference's, with their runs of members, key centers and depths;
    nodes are numbered rows first, then the cosets depth by depth, and a
    node no coset splits has only padding.  Every entry's squared norm is
    one dot product of its own key center, NaN at the padding entry."""
    split = [splits(rows, free, g, 0) for g in groups]
    nodes = len(t.kids)
    assert np.isnan(t.keys[nodes]).all() and np.isnan(t.key_sq[nodes])
    assert np.array_equal(t.key_sq, np.einsum("ij,ij->i", t.keys, t.keys),
                          equal_nan=True)
    assert not np.isnan(np.delete(t.keys, nodes, axis=0)).any()
    assert len(t.keys) == len(t.key_sq) > nodes
    numbered = []

    def walk(node, depth, got):
        for kid in t.kids[node].tolist():
            if kid == nodes:
                continue
            end, size = t.spans[:, kid].tolist()
            big = bool((t.kids[kid] < nodes).any())
            got.append((t.members[end - size:end].tolist(),
                        (t.keys[kid] * lattice).tolist(), big, depth))
            numbered.append((depth, kid))
            walk(kid, depth + 1, got)

    for row, (group, big) in enumerate(zip(groups, split)):
        end, size = t.spans[:, row].tolist()
        assert t.members[end - size:end].tolist() == group
        got = []
        walk(row, 1, got)
        assert got == [(m, [float(v) for v in center], b, depth)
                       for m, center, b, depth in reference_cosets(
                           rows, free, group)] if big else got == []
    assert sorted(numbered) == sorted(numbered, key=lambda dk: dk[1])
    assert [kid for _, kid in sorted(numbered)] == list(range(len(groups),
                                                              nodes))
    assert t.depth == max((depth for depth, _ in numbered), default=0)


class TestCenterTable:
    """Every table row owns one orbit of the sequence, on the coordinates
    that vary along it, and each center lies in exactly one row."""

    @staticmethod
    def sequences(diagrams, scatterings):
        full = scatterings[(3, 2, 1), 1]
        rng = random.Random(31)
        repeated = list(full.centers) + [rng.choice(full.centers)
                                         for _ in range(6)]
        rng.shuffle(repeated)
        return {
            "complete": scatterings[(2, 2, 1, 1), 2],
            "cut": build_scattering(diagrams[(3, 2, 1)], 3, max_points=500),
            "embedded": embed_scattering(scatterings[(2, 1, 1), 2]),
            "duplicated": from_points(full.diagram, 1, repeated),
        }

    @pytest.mark.parametrize("kind", ["complete", "cut", "embedded",
                                      "duplicated"])
    def test_rows_partition_the_sequence(self, diagrams, scatterings, kind):
        s = self.sequences(diagrams, scatterings)[kind]
        table = s.dominant_table()
        starts = np.concatenate(([0], table.spans[0, :table.rows]))
        # the rows' key centers, then the partial rows' first members
        mat = np.delete(table.keys, np.s_[table.rows:len(table.kids) + 1],
                        axis=0) * 2.0 ** s.levels_built
        assert sorted(table.members.tolist()) == list(range(len(s)))
        assert starts[0] == 0 and starts[-1] == len(s)
        assert len(table.norms) == len(table.keys) > len(mat) >= len(starts) - 1
        # an embedding's last coordinate is constant and stays in place
        free = table.free.tolist()
        assert free == list(range(s.dim - (kind == "embedded")))
        rows = s.numerators.tolist()
        partial = len(mat) - (len(starts) - 1)
        whole = len(starts) - 1 - partial
        for r in range(len(starts) - 1):
            group = table.members[starts[r]:starts[r + 1]].tolist()
            assert group == sorted(group, key=lambda i: (
                tuple(-v for v in rows[i]), i))
            key = tuple(int(v) for v in mat[r])
            assert [key[j] for j in free] == sorted(key[j] for j in free)
            orbit = set()
            for p in itertools.permutations(key[j] for j in free):
                member = list(key)
                for j, v in zip(free, p):
                    member[j] = v
                orbit.add(tuple(member))
            got = {tuple(rows[i]) for i in group}
            if r < whole:
                assert got == orbit
            else:
                assert got < orbit
                assert tuple(int(v) for v in mat[r + partial]) == \
                    tuple(rows[group[0]])
        if kind == "cut":  # the orbits the cut falls inside
            assert 0 < partial < len(s)
        else:
            assert partial == 0
        assert len(starts) - 1 == len({tuple(sorted(r)) for r in rows})

    # sha256 of (rows, members, starts, mat, norms), the key rows and norms
    # at the lattice scale, the rows' key centers with their free columns
    # flipped back to the dominant (descending) layout that the key rows
    # had when these were taken; the complete codebooks' as built by the
    # table that grouped orbit representatives with np.unique (commit
    # 1cb17ff), the others' as built by the table of one row per orbit, the
    # duplicated one's with every row in tie order
    FROZEN = {
        "complete": "15a1020c64837e8b8b2521002e3fa62719c8b631e95a18abd4ef408a6895b48b",
        "complete-2211": "e5f6308144b550bb0f4a71d14f604cb23e2d29ba5e8c69b88a000d5177d2b664",
        "cut": "775d32892dc7d786bf7147dc40a2d19e186599197b1dc57e9dab65c6e7dab548",
        "embedded": "f23c142577bc884c24037ebde279de1fcbdaf37b71bb8ebe976f96744a370116",
        "d9": "15df8670239d3d1f32e4c6742341e6c05f7e5cc337760ebbe50f041ade95c6c2",
        "duplicated": "9b63ad5a923d7890c3de289d8afc26d644a22ed2b4a11b34cd9b29cd228d9e48",
    }

    @pytest.mark.parametrize("kind", sorted(FROZEN))
    def test_frozen_table(self, diagrams, kind):
        if kind == "duplicated":
            s = build_scattering(diagrams[(3, 2, 1)], 2)
            s = Scattering(s.diagram, 2, np.vstack((s.numerators,
                                                    s.numerators[::7])))
        else:
            rows, levels, cut = {
                "complete": ((3, 2, 1), 4, None),
                "complete-2211": ((2, 2, 1, 1), 3, None),
                "cut": ((3, 2, 1), 4, 5000),
                "embedded": ((3, 2, 1), 3, None),
                "d9": ((2, 1, 1, 1, 1, 1, 1, 1), 2, None)}[kind]
            s = build_scattering(YoungDiagram.from_rows(rows), levels,
                                 max_points=cut)
            if kind == "embedded":
                s = embed_scattering(s)
        t, lattice = s.dominant_table(), 2.0 ** s.levels_built
        keyed = np.r_[:t.rows, len(t.kids) + 1:len(t.keys)]
        mat = t.keys[keyed]
        mat[:t.rows, t.free] = mat[:t.rows, t.free[::-1]]
        h = hashlib.sha256(str(t.rows).encode())
        for part, dtype in ((t.members, "<i8"),
                            (np.concatenate(([0], t.spans[0, :t.rows])),
                             "<i8"),
                            (mat * lattice, "<f8"),
                            (t.norms[keyed] * lattice, "<f8")):
            h.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
        assert h.hexdigest() == self.FROZEN[kind]

    @pytest.mark.parametrize("kind", ["complete", "cut", "embedded",
                                      "duplicated", "d9"])
    def test_member_order_arrays(self, diagrams, scatterings, kind):
        """``points`` holds the centers in member order by the float steps
        the search scores with, ``cols`` the rows' key centers as a
        C-contiguous (d, rows) array, and ``tie`` the tie ranks in member
        order."""
        s = build_scattering(YoungDiagram.from_rows((2, 1, 1, 1, 1, 1, 1, 1)),
                             2) if kind == "d9" else \
            self.sequences(diagrams, scatterings)[kind]
        t = s.dominant_table()
        points = s.numerators.take(t.members, axis=0).astype(np.float64)
        points = points * (1 / 2.0 ** s.levels_built)
        assert t.points.shape == points.shape == (len(s), s.dim)
        assert t.points.tobytes() == points.tobytes()
        assert t.cols.shape == (s.dim, t.rows) and t.cols.flags.c_contiguous
        assert np.array_equal(t.cols, t.keys[:t.rows].T)
        tie = np.array(reference_tie(s.numerators.tolist()))
        assert np.array_equal(t.tie, tie.take(t.members))

    # entries small, wide (two per key word), and near +-2**62 or at the
    # int64 extremes (one per word); all but "wide" include negative ones
    VALUES = {
        "small": tuple(range(-3, 4)),
        "wide": (0, 5, 1 << 20, (1 << 25) - 1, 1 << 25),
        "2^62": ((1 << 62) - 1, 1 << 62, 7, 0, -(1 << 62), 1 - (1 << 62)),
        "int64": (-(1 << 63), -1, 0, 1, (1 << 63) - 1),
    }

    @pytest.mark.parametrize("values", sorted(VALUES))
    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_reference(self, values, d):
        rng = random.Random(f"{values}:{d}")
        for _ in range(4):
            rows = random_table_rows(rng, d, self.VALUES[values])
            assert_table_matches_reference(table_sequence(rows, d))

    @pytest.mark.parametrize("rows", [[], [(5, -2, 0)], [(1 << 62,) * 9]])
    def test_empty_and_single_row_match_reference(self, rows):
        d = len(rows[0]) if rows else 4
        assert_table_matches_reference(table_sequence(rows, d))

    def test_multiword_keys_match_reference(self, diagrams):
        s = build_scattering(diagrams[(3, 2, 1)], 5)
        shifted = Scattering(s.diagram, s.levels_built, s.numerators << 50)
        # 57-bit entries, so each key spans four words
        lo, hi = int(shifted.numerators.min()), int(shifted.numerators.max())
        assert _pack_columns(shifted.numerators.T, len(shifted), lo,
                             hi).dtype.itemsize == 32
        assert_table_matches_reference(shifted)
        t, u = s.dominant_table(), shifted.dominant_table()
        assert t.spans.shape == u.spans.shape
        assert (t.members == u.members).all() and (t.spans == u.spans).all()

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_large_orbits_match_brute(self, metric):
        # (5,4,3,2,1) at level 0 has orbits of 720 members, each scored whole
        s = build_scattering(YoungDiagram.from_rows((5, 4, 3, 2, 1)), 0)
        assert len(s) == 2372
        rng = random.Random(32)
        for e in random_queries(rng, s, 12, 5):
            for k in (1, 4, 16):
                res = nearest_center(e, s, k, metric)
                ref = brute_nearest(e, s, k, metric)
                assert (res.indices, res.distances) == \
                    (ref.indices, ref.distances), (e, k)


def stream_queries(rng, s, count):
    """The five-kind query mix: box-uniform, a center plus gaussian noise, a
    far gaussian, an exact center and a center rounded to the half-integer
    grid, one of each in turn."""
    top = s.diagram.rows[0]
    out = []
    while len(out) < count:
        kind = len(out) % 5
        if kind == 0:
            e = [rng.uniform(-0.5, top + 0.5) for _ in range(s.dim)]
        elif kind == 1:
            e = [v + rng.gauss(0, 0.3) for v in rng.choice(s.centers).values()]
        elif kind == 2:
            e = [rng.gauss(0, 1) * 5 for _ in range(s.dim)]
        elif kind == 3:
            e = list(rng.choice(s.centers).values())
        else:
            e = [round(v * 2) / 2.0 for v in rng.choice(s.centers).values()]
        out.append(e)
    return out


@pytest.mark.parametrize("d", range(1, 10))
def test_colsum_adds_like_accumulate(d):
    """Column by column in place, bit for bit the left-to-right sum of an
    accumulation, on sums whose rounding depends on the order."""
    rng = np.random.default_rng(d)
    for m in (0, 1, 5, 3000):
        terms = (rng.standard_normal((m, d))
                 * 10.0 ** rng.integers(-12, 12, size=(m, d)))
        want = np.add.accumulate(terms, axis=1)[:, -1]
        got = _colsum(terms.copy())
        assert got.shape == (m,)
        assert got.tobytes() == want.tobytes()


class TestBlockSearch:
    """nearest_centers answers a block of queries as blocks of one would."""

    @staticmethod
    def sequences(diagrams, scatterings):
        full = build_scattering(diagrams[(3, 2, 1)], 3)
        small = scatterings[(3, 2, 1), 1]
        rng = random.Random(41)
        repeated = list(small.centers) + [rng.choice(small.centers)
                                          for _ in range(9)]
        rng.shuffle(repeated)
        return {
            "complete": full,
            "cut": build_scattering(full.diagram, 3, max_points=2 * len(full) // 3),
            "embedded": embed_scattering(build_scattering(diagrams[(3, 2, 1)],
                                                          4)),
            "cut-embedded": embed_scattering(build_scattering(
                full.diagram, 3, max_points=2 * len(full) // 3)),
            "duplicated": from_points(small.diagram, 1, repeated),
            # orbits of 720 members, refined over two rounds, in chunks
            # that split where a round's pairs outgrow them
            "large-orbits": build_scattering(
                YoungDiagram.from_rows((5, 4, 3, 2, 1)), 0),
        }

    @pytest.mark.parametrize("kind", ["complete", "cut", "embedded",
                                      "cut-embedded", "duplicated",
                                      "large-orbits"])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_block_equals_blocks_of_one(self, diagrams, scatterings, kind,
                                        metric):
        s = self.sequences(diagrams, scatterings)[kind]
        queries = stream_queries(random.Random(42), s, 40)
        for k in (1, 4, 16, len(s) + 3):
            block = nearest_centers(queries, s, k, metric)
            single = [nearest_centers([e], s, k, metric)[0] for e in queries]
            assert block == single, (kind, k)
            assert [r.candidates_examined for r in block] == \
                [r.candidates_examined for r in single], (kind, k)
            assert [nearest_center(e, s, k, metric) for e in queries[:5]] == \
                block[:5]

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_matches_brute_on_small_codebooks(self, diagrams, scatterings,
                                              metric):
        sequences = [scatterings[(3, 2, 1), 1], scatterings[(2, 2, 1, 1), 1],
                     build_scattering(diagrams[(3, 2, 1)], 2, max_points=400),
                     embed_scattering(scatterings[(2, 1, 1), 1]),
                     embed_scattering(build_scattering(diagrams[(3, 2, 1)], 2,
                                                       max_points=400))]
        rng = random.Random(43)
        for s in sequences:
            assert len(s) <= 500
            queries = stream_queries(rng, s, 30)
            for k in (1, 4, 16):
                for e, res in zip(queries, nearest_centers(queries, s, k, metric)):
                    ref = brute_nearest(e, s, k, metric)
                    assert (res.indices, res.distances, res.points) == \
                        (ref.indices, ref.distances, ref.points), (len(s), e, k)
                    assert res.query == tuple(e)
                    assert min(k, len(s)) <= res.candidates_examined <= len(s)

    def test_empty_block(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        assert nearest_centers([], s, 3) == []
        assert nearest_centers(np.empty((0, 4)), s, 3, "cosine") == []

    def test_block_shape_checked(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        with pytest.raises(ValueError, match=r"\(m, 4\) query block"):
            nearest_centers([1.0, 1.0, 1.0, 1.0], s)
        with pytest.raises(ValueError, match="query dim 3 != scattering dim 4"):
            nearest_centers([[1.0, 1.0, 1.0]], s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("bad,message", [
        (float("nan"), "non-finite"), (float("inf"), "non-finite"),
        (1e300, "overflows"), (1.7976931348623157e308, "overflows")])
    def test_bad_row_is_named(self, scatterings, metric, bad, message):
        """A refused block names its first bad row, and numpy warns of
        nothing on the way.  Cosine search refuses no finite query."""
        s = scatterings[(2, 1, 1), 1]
        block = [[1.0, 1.0, 1.0, 1.0]] * 5
        block[3] = [1.0, bad, -bad, 1.0]
        if metric == "cosine" and math.isfinite(bad):
            assert nearest_centers(block, s, 2, metric) == \
                [brute_nearest(e, s, 2, metric) for e in block]
            return
        with pytest.raises(ValueError, match=rf"{message}.*\(row 3\)"):
            nearest_centers(block, s, 2, metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_bound_and_refinement_once_per_chunk(self, monkeypatch, metric):
        """A chunk takes its k-th bound, its kept rows and their refinement
        once, and splits only its scoring: _expand runs once per chunk, and
        each chunk is refined in at most the table's depth of rounds (one
        _sorted_past past depth 0 each), the pair kernel more often, as these blocks'
        chunks keep more members than one scoring pass holds, and the
        answers are those of blocks of one."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr("qusc.search._expand", counted("expand", _expand))
        rounds = []
        monkeypatch.setattr("qusc.search._sorted_past",
                            counting_rounds(rounds))
        monkeypatch.setitem(_KERNELS, metric,
                            counted("score", _KERNELS[metric]))
        rng = random.Random(46)
        for rows, levels, k, m in [((2, 2, 1, 1), 4, 16, 300),
                                   ((2, 1, 1, 1, 1, 1, 1, 1), 2, 4, 200)]:
            s = build_scattering(YoungDiagram.from_rows(rows), levels)
            centers = s.numerators / 2.0 ** levels
            # box-uniform and center-plus-noise queries, in turn
            queries = [[rng.uniform(-0.5, rows[0] + 0.5) for _ in range(s.dim)]
                       if i % 2 else
                       (centers[rng.randrange(len(s))]
                        + [rng.gauss(0, 0.3) for _ in range(s.dim)]).tolist()
                       for i in range(m)]
            table = s.dominant_table()
            partial = len(table.keys) - len(table.kids) - 1
            chunks = math.ceil(m / max(1, _BLOCK // (table.rows + partial)))
            calls.clear()
            rounds.clear()
            block = nearest_centers(queries, s, k, metric)
            assert calls["expand"] == chunks, (rows, calls)
            assert chunks <= len(rounds) <= table.depth * chunks, (rows,
                                                                  rounds)
            assert calls["score"] > chunks, (rows, calls)
            single = [nearest_centers([e], s, k, metric)[0] for e in queries]
            assert block == single, rows
            assert [r.candidates_examined for r in block] == \
                [r.candidates_examined for r in single], rows

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_infinite_bound_is_not_refined(self, monkeypatch, metric):
        """With k past the table's rows the bound is infinite and keeps
        every coset, so a chunk is scored unrefined instead of holding its
        whole coset tree: (5,4,3,2,1) L0 has 15 rows, of up to 720
        members."""
        s = build_scattering(YoungDiagram.from_rows((5, 4, 3, 2, 1)), 0)
        assert s.dominant_table().rows < 16
        queries = stream_queries(random.Random(47), s, 8)
        rounds = []
        monkeypatch.setattr("qusc.search._sorted_past",
                            counting_rounds(rounds))
        for e, res in zip(queries, nearest_centers(queries, s, 16, metric)):
            ref = brute_nearest(e, s, 16, metric)
            assert (res.indices, res.distances) == (ref.indices,
                                                    ref.distances), e
        assert rounds == []

    # (3,2,1) L5 has no cosets, so no chunk of it is refined
    @pytest.mark.parametrize("rows,levels,refined", [((3, 2, 1), 5, False),
                                                     ((2, 2, 1, 1), 4, True),
                                                     ((2, 2, 1, 1), 4, False)])
    def test_block_of_one_scores_as_in_a_block(self, monkeypatch, rows,
                                               levels, refined):
        """A block of one keeps, under its bound in Python floats, the pairs
        the same query keeps in a block under its row of the bound array:
        the pair kernel scores as many pairs for 300 blocks of one as for
        the 300-query block, with the same answers.  Whether a chunk is
        refined rests on its kept members, all its queries', so _ROUND is
        set so that every chunk with cosets is refined, or none is."""
        s = build_scattering(YoungDiagram.from_rows(rows), levels)
        monkeypatch.setattr("qusc.search._ROUND", 0 if refined else sys.maxsize)
        queries = stream_queries(random.Random(48), s, 300)
        for metric in ("euclidean", "cosine"):
            pairs, scored = _KERNELS[metric], []

            def counting(x, vals, *norms, pairs=pairs):
                scored.append(len(vals))
                return pairs(x, vals, *norms)

            monkeypatch.setitem(_KERNELS, metric, counting)
            for k in (1, 4, 16):
                scored.clear()
                block = nearest_centers(queries, s, k, metric)
                in_block = sum(scored)
                scored.clear()
                single = [nearest_centers([e], s, k, metric)[0]
                          for e in queries]
                assert sum(scored) == in_block > 0, (metric, k)
                assert single == block, (metric, k)

    def test_memory_stays_chunked(self, diagrams):
        # an unchunked (2000, 1329) key matrix alone would take 21 MB
        s = build_scattering(diagrams[(3, 2, 1)], 5)
        s.dominant_table()
        queries = stream_queries(random.Random(44), s, 2000)
        tracemalloc.start()
        try:
            nearest_centers(queries, s, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak
