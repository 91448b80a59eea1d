import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qusc import (ScaledPoint, YoungDiagram, build_scattering, nearest_center,
                  polytope_center)
from qusc.core import BOUNDARY, INTERIOR, OUTSIDE, membership
from qusc.search import _colsum, _cosine_pairs, _euclidean_pairs

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestYoungDiagram:
    def test_from_rows_pads_one_zero(self):
        lam = YoungDiagram.from_rows((2, 1, 1))
        assert lam.rows == (2, 1, 1, 0)
        assert lam.rank == 3
        assert lam.boxes == 4

    def test_explicit_trailing_zero_kept(self):
        assert YoungDiagram.from_rows((2, 1, 1, 0)).rows == (2, 1, 1, 0)
        assert YoungDiagram.from_rows((2, 1, 1, 0, 0)).rank == 4

    def test_prefix_sums(self):
        assert YoungDiagram.from_rows((3, 2, 1)).prefix_sums() == (3, 5, 6, 6)

    @pytest.mark.parametrize("rows", [(1, 2), (-1, 0), (0, 0), (2, 2, 2), (3,)])
    def test_invalid(self, rows):
        with pytest.raises(ValueError):
            YoungDiagram(rows)

    def test_scaled(self):
        assert YoungDiagram.from_rows((2, 1, 1)).scaled(4).rows == (8, 4, 4, 0)


class TestScaledPoint:
    def test_canonical_reduction(self):
        p = ScaledPoint((4, 2, 2, 0), 1)
        assert p.level == 0 and p.numerators == (2, 1, 1, 0)

    def test_odd_numerator_stays(self):
        p = ScaledPoint((4, 2, 1, 1), 1)
        assert p.level == 1 and p.numerators == (4, 2, 1, 1)

    def test_equality_across_scales(self):
        assert ScaledPoint((2, 1, 1, 0), 0) == ScaledPoint((8, 4, 4, 0), 2)

    def test_numerators_at(self):
        p = ScaledPoint((3, 3, 2, 0), 1)
        assert p.numerators_at(3) == (12, 12, 8, 0)
        with pytest.raises(ValueError):
            p.numerators_at(0)

    def test_values_and_exact_strings(self):
        p = ScaledPoint((7, 5, 3, 1), 2)
        assert p.values() == (1.75, 1.25, 0.75, 0.25)
        assert p.exact_strings() == ("7/4", "5/4", "3/4", "1/4")
        assert ScaledPoint((3, 3, 2, 0), 1).exact_strings() == ("3/2", "3/2", "1", "0")

    def test_no_instance_dict(self):
        assert not hasattr(ScaledPoint((2, 1, 1, 0)), "__dict__")


class TestMembership:
    def test_examples(self):
        lam = YoungDiagram.from_rows((3, 2, 1))
        assert membership(ScaledPoint((2, 2, 1, 1)), lam) == INTERIOR
        assert membership(ScaledPoint((3, 2, 1, 0)), lam) == BOUNDARY
        assert membership(ScaledPoint((4, 1, 1, 0)), lam) == OUTSIDE

    def test_scaled_point(self):
        lam = YoungDiagram.from_rows((2, 1, 1))
        assert membership(ScaledPoint((4, 2, 1, 1), 1), lam) == BOUNDARY
        assert membership(ScaledPoint((3, 2, 2, 1), 1), lam) == INTERIOR

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            membership(ScaledPoint((1, 1, 1)), YoungDiagram.from_rows((2, 1, 1)))

    @given(st.permutations(list(range(4))))
    def test_weyl_invariance(self, order):
        lam = YoungDiagram.from_rows((3, 2, 1))
        for nums in [(3, 2, 1, 0), (2, 2, 1, 1), (4, 1, 1, 0), (2, 2, 2, 0)]:
            p = ScaledPoint(nums)
            q = ScaledPoint([nums[i] for i in order])
            assert membership(p, lam) == membership(q, lam)


def pair_distance(a, b, metric="euclidean"):
    """The search's distance kernel on one pair of rows."""
    x, vals = np.array([a], dtype=float), np.array([b], dtype=float)
    if metric == "euclidean":
        return math.sqrt(_euclidean_pairs(x, vals)[0])
    xn, cn = (np.sqrt(_colsum(v * v)) for v in (x, vals))
    return float(_cosine_pairs(x, vals, xn, cn)[0])


class TestDistance:
    def test_euclidean_example(self):
        assert pair_distance((2, 1, 1, 0), (2, 1, 0, 1)) == pytest.approx(math.sqrt(2))

    def test_cosine_orthogonal(self):
        assert pair_distance((1, 0), (0, 1), "cosine") == pytest.approx(1.0)

    def test_cosine_same_ray(self):
        assert pair_distance((1, 0), (2, 0), "cosine") == 0.0

    def test_cosine_zero_vector(self):
        s = build_scattering(YoungDiagram.from_rows((2, 1, 1)), 0)
        with pytest.raises(ValueError):
            nearest_center((0, 0, 0, 0), s, 1, "cosine")

    def test_unknown_metric(self):
        s = build_scattering(YoungDiagram.from_rows((2, 1, 1)), 0)
        with pytest.raises(ValueError):
            nearest_center((1, 1, 1, 1), s, 1, "manhattan")

    @given(st.permutations(list(range(5))),
           st.lists(finite, min_size=5, max_size=5),
           st.lists(finite, min_size=5, max_size=5))
    @settings(max_examples=60)
    def test_permutation_equivariance(self, order, a, b):
        d1 = pair_distance(a, b)
        d2 = pair_distance([a[i] for i in order], [b[i] for i in order])
        assert d1 == pytest.approx(d2, abs=1e-12)


def test_polytope_center():
    assert polytope_center(YoungDiagram.from_rows((2, 1, 1))) == (1, 1, 1, 1)
    assert polytope_center(YoungDiagram.from_rows((3, 2, 1))) == (1.5,) * 4
    assert polytope_center(YoungDiagram.from_rows((2, 2, 1, 1))) == pytest.approx((1.2,) * 5)


PUBLIC_API = [
    "COSINE", "EUCLIDEAN", "METRICS", "ScaledPoint", "YoungDiagram",
    "polytope_center", "brute_nearest", "PrefixStats", "Scattering",
    "UniformityReport", "build_scattering", "embed_scattering",
    "verify_scattering", "QueryResult", "cosine_nearest", "nearest_center",
    "nearest_centers", "__version__",
]


def test_public_api():
    """The package exports what the query pipeline, CLI and estimator use,
    and the embedding map, and nothing else."""
    import qusc
    assert sorted(qusc.__all__) == sorted(PUBLIC_API)
    scope = {}
    exec("from qusc import *", scope)
    assert all(name in scope for name in PUBLIC_API)
