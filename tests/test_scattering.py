import math

import pytest

from qusc import (ScaledPoint, YoungDiagram, build_scattering, embed_diagram,
                  iota_embed, is_subsequence, orbit_size, verify_scattering,
                  weyl_orbit)

# golden sequence prefix for the rank-3 single-orbit diagram
GOLDEN_PREFIX_LEVEL0 = [
    (2, 1, 1, 0), (2, 1, 0, 1), (2, 0, 1, 1),
    (1, 2, 1, 0), (1, 2, 0, 1), (1, 1, 2, 0), (1, 1, 0, 2),
    (1, 0, 2, 1), (1, 0, 1, 2),
    (0, 2, 1, 1), (0, 1, 2, 1), (0, 1, 1, 2),
]
GOLDEN_PREFIX_LEVEL1 = [
    (4, 2, 1, 1), (4, 1, 2, 1), (4, 1, 1, 2), (3, 3, 2, 0), (3, 3, 1, 1),
]


class TestWeylOrbit:
    def test_listed_order(self):
        orb = weyl_orbit(ScaledPoint((2, 1, 1, 0)))
        assert [p.numerators for p in orb] == GOLDEN_PREFIX_LEVEL0
        assert len(orb) == 12

    def test_fixed_point(self):
        orb = weyl_orbit(ScaledPoint((1, 1, 1, 1)))
        assert [p.numerators for p in orb] == [(1, 1, 1, 1)]

    def test_multinomial_size(self):
        assert len(weyl_orbit(ScaledPoint((2, 1, 1, 1, 1)))) == 5
        assert orbit_size(ScaledPoint((2, 2, 1, 1, 0))) == 30

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weyl_orbit(ScaledPoint((1, 2, 0)))


class TestBuildScattering:
    def test_level_zero_sequence(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        assert [p.numerators for p in s.centers] == GOLDEN_PREFIX_LEVEL0

    def test_level_one_prefix(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        got = [p.numerators_at(1) for p in s.centers[12:17]]
        assert got == GOLDEN_PREFIX_LEVEL1
        assert s.level_offsets == (0, 12)
        assert len(s) == 42

    def test_highest_weight_first(self, diagrams):
        for rows, lam in diagrams.items():
            s = build_scattering(lam, 0, max_points=1)
            assert [p.numerators for p in s.centers] == [lam.rows]
            assert not s.is_complete()

    def test_no_duplicates(self, scatterings):
        for s in scatterings.values():
            assert len(set(s.centers)) == len(s)

    def test_truncation_at_level_boundary_is_complete(self, diagrams):
        s = build_scattering(diagrams[(2, 1, 1)], 1, max_points=12)
        assert len(s) == 12
        assert s.levels_built == 0
        assert s.is_complete()

    def test_index_map(self, scatterings):
        s = scatterings[(2, 2, 1, 1), 1]
        for i, p in enumerate(s.centers):
            assert s.index_of(p) == i
        assert s.index_of(ScaledPoint((9, 9, 9, 9, 9))) is None

    def test_every_center_is_boundary(self, scatterings):
        from qusc import BOUNDARY, membership
        for (rows, _), s in scatterings.items():
            for p in s.centers:
                assert membership(p, s.diagram) == BOUNDARY, (rows, p)

    def test_center_count_matches_oracle_orbits(self, scatterings):
        from qusc import brute_boundary
        for (rows, levels), s in scatterings.items():
            expected = sum(orbit_size(p)
                           for p in brute_boundary(s.diagram, levels))
            assert len(s) == expected, (rows, levels)


class TestIotaEmbedding:
    def test_append_one(self):
        assert iota_embed(ScaledPoint((2, 1, 1, 0))) == ScaledPoint((2, 1, 1, 0, 1))

    def test_append_one_at_level(self):
        p = ScaledPoint((3, 3, 2, 0), 1)
        assert iota_embed(p) == ScaledPoint((3, 3, 2, 0, 2), 1)
        assert iota_embed(p).values() == (1.5, 1.5, 1.0, 0.0, 1.0)

    def test_isometry_exact(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        lvl = s.levels_built
        for a in s.centers[:10]:
            for b in s.centers[:10]:
                d0 = sum((x - y) ** 2 for x, y in
                         zip(a.numerators_at(lvl), b.numerators_at(lvl)))
                ea, eb = iota_embed(a), iota_embed(b)
                d1 = sum((x - y) ** 2 for x, y in
                         zip(ea.numerators_at(lvl), eb.numerators_at(lvl)))
                assert d0 == d1

    def test_double_embedding_is_two_suffix(self, scatterings):
        for p in scatterings[(2, 1, 1), 1].centers:
            twice = iota_embed(iota_embed(p))
            lvl = p.level
            assert twice == ScaledPoint(p.numerators + (1 << lvl, 1 << lvl), lvl)

    def test_embed_diagram(self):
        lam = YoungDiagram.from_rows((2, 1, 1))
        assert embed_diagram(lam).rows == (2, 1, 1, 1, 0)


class TestSubsequence:
    def test_chain_into_higher_rank(self, diagrams):
        lam4 = YoungDiagram.from_rows((2, 1, 1, 1))
        for levels in (0, 1):
            small = build_scattering(diagrams[(2, 1, 1)], levels)
            big = build_scattering(lam4, levels)
            lifted = [iota_embed(p) for p in small.centers]
            assert is_subsequence(lifted, big)

    def test_self_subsequence(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        assert is_subsequence(s, s)

    def test_reversed_fails(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        assert not is_subsequence(list(reversed(s.centers)), s)

    def test_dimension_mismatch(self, scatterings):
        with pytest.raises(ValueError):
            is_subsequence(scatterings[(2, 1, 1), 0], scatterings[(2, 2, 1, 1), 0])


class TestUniformity:
    def test_completed_levels_equidistant_exact(self, scatterings):
        for (rows, levels), s in scatterings.items():
            rep = verify_scattering(s)
            for st in rep.prefixes:
                if st.at_level_boundary:
                    assert st.min_sq_numerator == st.max_sq_numerator, (rows, levels)

    def test_level0_nn_distance_is_sqrt2(self, scatterings):
        rep = verify_scattering(scatterings[(2, 1, 1), 0])
        st = rep.prefixes[-1]
        assert st.min_distance == pytest.approx(math.sqrt(2))
        assert st.max_distance == pytest.approx(math.sqrt(2))

    def test_exponent_bound(self, scatterings):
        for (rows, levels), s in scatterings.items():
            rep = verify_scattering(s, prefix_stride=1)
            assert rep.euclidean_exponent <= 2.0 + 1e-9, (rows, levels)
            assert rep.cosine_exponent <= rep.cosine_exponent_bound, (rows, levels)

    def test_two_point_prefix_ratio_one(self, diagrams):
        s = build_scattering(diagrams[(2, 1, 1)], 0, max_points=2)
        rep = verify_scattering(s)
        assert rep.euclidean_exponent == 1.0

    def test_prefix_stats_positive(self, scatterings):
        rep = verify_scattering(scatterings[(3, 2, 1), 2], prefix_stride=16)
        for st in rep.prefixes:
            assert st.length >= 2
            assert 0 < st.min_distance <= st.max_distance
            assert 0 < st.min_cosine <= st.max_cosine

    def test_shape_ratio(self, scatterings):
        rep = verify_scattering(scatterings[(2, 1, 1), 0])
        # orbit of one point: all centers equidistant from the barycenter
        assert rep.shape_ratio == pytest.approx(1.0)

    def test_needs_two_centers(self, diagrams):
        s = build_scattering(diagrams[(2, 1, 1)], 0, max_points=1)
        with pytest.raises(ValueError):
            verify_scattering(s)
