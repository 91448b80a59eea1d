import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qusc import (BOUNDARY, INTERIOR, OUTSIDE, Permutation, ScaledPoint,
                  YoungDiagram, distance, dominant_sort, membership,
                  polytope_center)

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


class TestPermutation:
    def test_apply_inverse_roundtrip(self):
        p = Permutation((2, 0, 3, 1))
        x = ("a", "b", "c", "d")
        assert p.inverse().apply(p.apply(x)) == x
        assert p.apply(p.inverse().apply(x)) == x
        assert p.inverse().inverse().order == p.order

    def test_invalid(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))


class TestDominantSort:
    def test_basic(self):
        vec, perm = dominant_sort((0, 1, 2, 1))
        assert vec == (2, 1, 1, 0)
        # value 2 came from slot 3 (1-based)
        assert perm.order[0] == 2
        assert perm.apply((0, 1, 2, 1)) == vec

    def test_already_dominant_is_identity(self):
        vec, perm = dominant_sort((2, 1, 1, 0))
        assert vec == (2, 1, 1, 0) and perm.order == (0, 1, 2, 3)

    def test_all_ties_stable(self):
        vec, perm = dominant_sort((1, 1, 1, 1))
        assert vec == (1, 1, 1, 1) and perm.order == (0, 1, 2, 3)

    @given(st.lists(finite, min_size=1, max_size=8))
    def test_idempotent(self, xs):
        vec, _ = dominant_sort(xs)
        again, perm = dominant_sort(vec)
        assert again == vec and perm.order == tuple(range(len(vec)))

    @given(st.lists(finite, min_size=1, max_size=8))
    def test_output_sorted(self, xs):
        vec, _ = dominant_sort(xs)
        assert all(a >= b for a, b in zip(vec, vec[1:]))


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
        perm = Permutation(tuple(order))
        for nums in [(3, 2, 1, 0), (2, 2, 1, 1), (4, 1, 1, 0), (2, 2, 2, 0)]:
            p = ScaledPoint(nums)
            q = ScaledPoint(perm.apply(nums))
            assert membership(p, lam) == membership(q, lam)


class TestDistance:
    def test_euclidean_example(self):
        assert distance((2, 1, 1, 0), (2, 1, 0, 1)) == pytest.approx(math.sqrt(2))

    def test_cosine_orthogonal(self):
        assert distance((1, 0), (0, 1), "cosine") == pytest.approx(1.0)

    def test_cosine_same_ray(self):
        assert distance((1, 0), (2, 0), "cosine") == 0.0

    def test_cosine_zero_vector(self):
        with pytest.raises(ValueError):
            distance((0, 0), (1, 0), "cosine")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distance((1,), (1,), "manhattan")

    @given(st.permutations(list(range(5))),
           st.lists(finite, min_size=5, max_size=5),
           st.lists(finite, min_size=5, max_size=5))
    @settings(max_examples=60)
    def test_permutation_equivariance(self, order, a, b):
        perm = Permutation(tuple(order))
        d1 = distance(a, b)
        d2 = distance(perm.apply(a), perm.apply(b))
        assert d1 == pytest.approx(d2, abs=1e-12)


def test_polytope_center():
    assert polytope_center(YoungDiagram.from_rows((2, 1, 1))) == (1, 1, 1, 1)
    assert polytope_center(YoungDiagram.from_rows((3, 2, 1))) == (1.5,) * 4
    assert polytope_center(YoungDiagram.from_rows((2, 2, 1, 1))) == pytest.approx((1.2,) * 5)
