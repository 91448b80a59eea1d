import hashlib
import itertools
import math
import random
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qusc import (ScaledPoint, Scattering, YoungDiagram, brute_nearest,
                  build_scattering, cosine_nearest, embed_scattering,
                  nearest_center, nearest_centers)
from qusc.estimator import ScatteringNeighbors
from qusc.search import _colsum


def from_points(diagram, levels, points, offsets):
    """A scattering holding the given points, at scale 2**levels."""
    return Scattering(diagram, levels,
                      [p.numerators_at(levels) for p in points], offsets)


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
@pytest.mark.parametrize("bad", [10 ** 400, -(2 ** 1024), 1j],
                         ids=["10^400", "-2^1024", "1j"])
def test_unconvertible_query_is_a_value_error(scatterings, caller, bad):
    """A coordinate numpy cannot convert to a float, alone or in the second
    row of a block, is refused as bad input."""
    s = scatterings[(2, 1, 1), 1]
    est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=1).fit()
    e, block = [bad, 0, 0, 0], [[1.0, 1.0, 1.0, 1.0], [bad, 0, 0, 0]]
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
        s = from_points(s0.diagram, 0, [*s0.centers, ScaledPoint((0, 0, 0, 0))],
                        [0])
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
                    (s.numerators, s.numerators[::7])), s.level_offsets),
                "embedded": embed_scattering(s),
                "times-2^40": Scattering(s.diagram, 1, s.numerators << 40,
                                         s.level_offsets),
                "times-10^12": Scattering(s.diagram, 1, s.numerators * 10 ** 12,
                                          s.level_offsets),
                "times-2^59": Scattering(s.diagram, 1, s.numerators << 59,
                                         s.level_offsets),
                "times-2^60-1": Scattering(s.diagram, 1,
                                           s.numerators * (2 ** 60 - 1),
                                           s.level_offsets),
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
        rng = random.Random(5)
        for _ in range(60):
            e = [rng.uniform(-1, 4) for _ in range(4)]
            order = list(range(4))
            rng.shuffle(order)
            direct = nearest_center([e[i] for i in order], s, 3)
            base = nearest_center(e, s, 3)
            mapped = {s.index_of(ScaledPoint(
                          [p.numerators_at(lvl)[i] for i in order], lvl))
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
            table = s.dominant_table()
            assert table.spans.shape[1] > table.orbit_rows  # some lone rows

    @pytest.mark.parametrize("rows", [(2, 1, 1), (3, 2, 1)])
    def test_embedded_chains(self, scatterings, rows):
        once = embed_scattering(scatterings[rows, 2])
        twice = embed_scattering(once)
        rng = random.Random(14)
        for s in (once, twice):
            self.assert_matches(s, random_queries(rng, s, 16, rows[0]), (1, 4, 9))

    def test_repeated_and_dropped_centers(self, scatterings):
        full = scatterings[(3, 2, 1), 1]
        rng = random.Random(15)
        for _ in range(6):
            centers = [c for c in full.centers if rng.random() > 0.2]
            for _ in range(8):
                centers.insert(rng.randrange(len(centers) + 1),
                               rng.choice(full.centers))
            s = from_points(full.diagram, 1, centers, [0])
            assert len(np.unique(s.numerators, axis=0)) < len(s)
            self.assert_matches(s, random_queries(rng, s, 12, 3), (1, 3, 10))

    def test_complete_sequence_has_no_lone_rows(self, scatterings):
        for s in scatterings.values():
            table = s.dominant_table()
            assert table.spans.shape[1] == table.orbit_rows
            assert table.orbit_rows == sum(
                list(n) == sorted(n, reverse=True) for n in s.numerators.tolist())


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


def reference_table(rows):
    """The center table by its definition, over rows as tuples: the number
    of orbit rows, each table row's sequence indices and key row.  An orbit
    (its values sorted descending) gets a row, keyed by its dominant member,
    when every one of its multinomial-many members is present; the row lists
    the first occurrence of each member and comes in the sequence order of
    the dominant member.  Every other center is a lone row."""
    rows = [tuple(r) for r in rows]
    first, owned = {}, {}
    for i, r in enumerate(rows):
        if r not in first:
            first[r] = i
            owned.setdefault(tuple(sorted(r, reverse=True)), []).append(i)

    def size(orbit):
        out = math.factorial(len(orbit))
        for v in set(orbit):
            out //= math.factorial(orbit.count(v))
        return out

    full = {o for o, got in owned.items() if len(got) == size(o)}
    heads = sorted(first[o] for o in full)
    lone = [i for i, r in enumerate(rows)
            if first[r] != i or tuple(sorted(r, reverse=True)) not in full]
    groups = [owned[rows[h]] for h in heads] + [[i] for i in lone]
    return len(heads), groups, [rows[i] for i in heads + lone]


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
                      np.array(rows, dtype=np.int64).reshape(-1, d), [0])


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
    orbit_rows, groups, keys = reference_table(rows)
    t = s.dominant_table()
    starts = np.concatenate(([0], t.spans[0]))
    mat = (t.cols.T * t.lattice).tolist()
    assert t.orbit_rows == orbit_rows
    assert [t.members[a:b].tolist()
            for a, b in zip(starts[:-1], starts[1:])] == groups
    assert mat == [[float(v) for v in r] for r in keys]
    np.testing.assert_allclose(t.norms * t.lattice,
                               [math.hypot(*r) for r in mat], rtol=1e-15)
    assert t.tie.tolist() == reference_tie(rows)
    assert t.tie.dtype.itemsize <= 4
    assert t.spans[1].tolist() == list(map(len, groups))
    assert t.zero == next((i for i, r in enumerate(rows) if not any(r)), -1)


class TestCenterTable:
    """Every table row owns a group of sequence indices: a whole orbit or
    one lone center, and each center lies in exactly one row."""

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
            "duplicated": from_points(full.diagram, 1, repeated, [0]),
        }

    @pytest.mark.parametrize("kind", ["complete", "cut", "embedded",
                                      "duplicated"])
    def test_rows_partition_the_sequence(self, diagrams, scatterings, kind):
        s = self.sequences(diagrams, scatterings)[kind]
        table = s.dominant_table()
        starts = np.concatenate(([0], table.spans[0]))
        mat = table.cols.T * table.lattice
        assert sorted(table.members.tolist()) == list(range(len(s)))
        assert starts[0] == 0 and starts[-1] == len(s)
        assert len(starts) - 1 == len(mat) == len(table.norms)
        rows = s.numerators.tolist()
        for r in range(len(mat)):
            group = table.members[starts[r]:starts[r + 1]].tolist()
            key = tuple(int(v) for v in mat[r])
            if r < table.orbit_rows:
                assert key == tuple(sorted(key, reverse=True))
                orbit = set(itertools.permutations(key))
                assert len(group) == len(orbit)
                assert {tuple(rows[i]) for i in group} == orbit
            else:
                assert len(group) == 1 and tuple(rows[group[0]]) == key
        lone = len(mat) - table.orbit_rows
        if kind == "cut":  # the members of the orbit the cut falls inside
            assert 0 < lone < len(s)
        else:
            assert lone == {"complete": 0, "embedded": len(s),
                            "duplicated": 6}[kind]

    # sha256 of (orbit_rows, members, starts, mat, norms), the key rows and
    # norms at the lattice scale, as built by the table that grouped orbit
    # representatives with np.unique (commit 1cb17ff)
    FROZEN = {
        "complete": "15a1020c64837e8b8b2521002e3fa62719c8b631e95a18abd4ef408a6895b48b",
        "complete-2211": "e5f6308144b550bb0f4a71d14f604cb23e2d29ba5e8c69b88a000d5177d2b664",
        "cut": "0a00ad316173c2a23c022227410d8201c7863bd0577933845a7da53c4b4d6222",
        "embedded": "fa7e3090adfc132504af9df94252bd009666ffc570a6205ea4f07518865884d9",
        "d9": "15df8670239d3d1f32e4c6742341e6c05f7e5cc337760ebbe50f041ade95c6c2",
        "duplicated": "139b64a02103c3a82b64474afc04214ec1f71cd2b1f115486ec6d091e8be4d32",
    }

    @pytest.mark.parametrize("kind", sorted(FROZEN))
    def test_frozen_table(self, diagrams, kind):
        if kind == "duplicated":
            s = build_scattering(diagrams[(3, 2, 1)], 2)
            s = Scattering(s.diagram, 2, np.vstack((s.numerators,
                                                    s.numerators[::7])),
                           s.level_offsets)
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
        t = s.dominant_table()
        h = hashlib.sha256(str(t.orbit_rows).encode())
        for part, dtype in ((t.members, "<i8"),
                            (np.concatenate(([0], t.spans[0])), "<i8"),
                            (t.cols.T * t.lattice, "<f8"),
                            (t.norms * t.lattice, "<f8")):
            h.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
        assert h.hexdigest() == self.FROZEN[kind]

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
        shifted = Scattering(s.diagram, s.levels_built, s.numerators << 50,
                             s.level_offsets)
        # 57-bit entries, so each key spans four words
        assert shifted.dominant_table().distinct.dtype.itemsize == 32
        assert_table_matches_reference(shifted)
        t, u = s.dominant_table(), shifted.dominant_table()
        assert t.orbit_rows == u.orbit_rows
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
            "duplicated": from_points(small.diagram, 1, repeated, [0]),
        }

    @pytest.mark.parametrize("kind", ["complete", "cut", "embedded",
                                      "cut-embedded", "duplicated"])
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
