import itertools
import math

import pytest

from qusc import ScaledPoint, YoungDiagram, brute_nearest, build_scattering
from qusc.oracle import OracleConfig, brute_boundary, brute_nn_sq_numerators


class TestBruteBoundary:
    def test_level0_single_point(self):
        got = brute_boundary(YoungDiagram.from_rows((2, 1, 1)))
        assert got == frozenset({ScaledPoint((2, 1, 1, 0))})

    def test_level0_three_points(self):
        got = brute_boundary(YoungDiagram.from_rows((3, 2, 1)))
        assert got == frozenset({ScaledPoint((3, 2, 1, 0)),
                                 ScaledPoint((3, 1, 1, 1)),
                                 ScaledPoint((2, 2, 2, 0))})

    def test_level1_minus_even(self):
        lam = YoungDiagram.from_rows((2, 1, 1))
        fresh = brute_boundary(lam, 1) - brute_boundary(lam, 0)
        assert fresh == frozenset({ScaledPoint((4, 2, 1, 1), 1),
                                   ScaledPoint((3, 3, 2, 0), 1),
                                   ScaledPoint((3, 3, 1, 1), 1)})

    @pytest.mark.parametrize("rows", [(2, 1, 1), (3, 2, 1), (2, 2, 1, 1),
                                      (3, 3), (4, 1), (1,)])
    def test_matches_prefix_sum_reference(self, rows):
        """The membership filter keeps exactly the weakly decreasing vectors
        of the right sum whose prefix sums stay under the scaled diagram's
        and meet it at least once before the last coordinate."""
        lam = YoungDiagram.from_rows(rows)
        for k in range(3):
            total = lam.boxes << k
            caps = [c << k for c in lam.prefix_sums()]
            want = set()
            for vec in itertools.combinations_with_replacement(
                    range(total, -1, -1), lam.dim):
                runs = list(itertools.accumulate(vec))[:-1]
                if (sum(vec) == total
                        and all(r <= c for r, c in zip(runs, caps))
                        and any(r == c for r, c in zip(runs, caps))):
                    want.add(ScaledPoint(vec, k))
            assert brute_boundary(lam, k) == want

    def test_cap_enforced(self):
        lam = YoungDiagram.from_rows((2, 1, 1))
        with pytest.raises(ValueError):
            brute_boundary(lam, 4, OracleConfig(max_total_boxes=10))


class TestBruteNearest:
    def test_center_query(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        res = brute_nearest((2, 1, 0, 1), s, 1)
        assert res.points[0].numerators == (2, 1, 0, 1)
        assert res.distances[0] == 0.0

    def test_all_centers_sorted(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        res = brute_nearest((1.9, 1.1, 0.9, 0.1), s, len(s))
        assert len(res.hits) == len(s)
        assert res.distances == sorted(res.distances)
        assert res.points[0].numerators == (2, 1, 1, 0)

    def test_tie_break_descending_lex(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        res = brute_nearest((1.0, 1.0, 1.0, 1.0), s, len(s))
        # all twelve tie; order must be descending lexicographic
        nums = [p.numerators for p in res.points]
        assert nums == sorted(nums, reverse=True)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            brute_nearest((1, 1), [], 1)


class TestBruteNNDistances:
    def test_level0_all_sqrt2(self):
        # the Weyl orbit of (2, 1, 1, 0)
        pts = build_scattering(YoungDiagram.from_rows((2, 1, 1)), 0).centers
        sq, level = brute_nn_sq_numerators(pts)
        dists = [math.sqrt(v) / 2 ** level for v in sq]
        assert len(dists) == 12
        for d in dists:
            assert d == pytest.approx(math.sqrt(2))
        assert set(sq) == {2} and level == 0

    def test_two_points(self):
        pts = [ScaledPoint((2, 1, 1, 0)), ScaledPoint((0, 1, 1, 2))]
        sq, level = brute_nn_sq_numerators(pts)
        dists = [math.sqrt(v) / 2 ** level for v in sq]
        assert dists[0] == dists[1] == pytest.approx(math.sqrt(8))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            brute_nn_sq_numerators([ScaledPoint((2, 1, 1, 0))])
