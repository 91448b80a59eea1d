import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qusc import (ScaledPoint, Scattering, YoungDiagram, build_scattering,
                  embed_scattering, verify_scattering)
from qusc.enumeration import enumerate_level
from qusc.formats import read_scattering, write_scattering
from qusc.scattering import _orbit_block, _orbit_sizes, _perm_table
from qusc.search import nearest_center

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
        dominant = np.array([(2, 1, 1, 0)])
        assert _orbit_sizes(dominant).tolist() == [12]
        orb = _orbit_block(dominant, np.empty((12, 4), dtype=np.int64))
        assert list(map(tuple, orb.tolist())) == GOLDEN_PREFIX_LEVEL0

    def test_fixed_point(self):
        dominant = np.array([(1, 1, 1, 1)])
        assert _orbit_sizes(dominant).tolist() == [1]
        orb = _orbit_block(dominant, np.empty((1, 4), dtype=np.int64))
        assert orb.tolist() == [[1, 1, 1, 1]]

    def test_multinomial_size(self):
        dominant = np.array([(2, 1, 1, 1, 1), (2, 2, 1, 1, 0)])
        assert _orbit_sizes(dominant).tolist() == [5, 30]
        # the two orbits' 35 distinct members
        orb = _orbit_block(dominant, np.empty((35, 5), dtype=np.int64))
        assert len(np.unique(orb, axis=0)) == 35

    @pytest.mark.parametrize("d", range(1, 9))
    def test_perm_table_matches_itertools(self, d):
        # every run pattern of d positions: each distinct permutation of its
        # run-head labels exactly once, in a read-only table
        for rest in itertools.product((0, 1), repeat=d - 1):
            starts = (1,) + rest
            labels = [max(j for j in range(i + 1) if starts[j])
                      for i in range(d)]
            table = _perm_table(starts)
            want = set(itertools.permutations(labels))
            assert table.shape == (len(want), d)
            assert set(map(tuple, table.tolist())) == want
            assert not table.flags.writeable


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
        from qusc.core import BOUNDARY, membership
        for (rows, _), s in scatterings.items():
            for p in s.centers:
                assert membership(p, s.diagram) == BOUNDARY, (rows, p)

    def test_center_count_matches_oracle_orbits(self, scatterings):
        from qusc.oracle import brute_boundary
        for (rows, levels), s in scatterings.items():
            # the multinomial d! / (r_1! r_2! ...) over runs of equal values
            expected = sum(
                math.factorial(p.dim) // math.prod(
                    map(math.factorial, Counter(p.numerators).values()))
                for p in brute_boundary(s.diagram, levels))
            assert len(s) == expected, (rows, levels)


class TestIotaEmbedding:
    def test_append_one(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        e = embed_scattering(s)
        assert e.centers[0] == ScaledPoint((2, 1, 1, 0, 1))
        assert [p.numerators for p in e.centers] == \
            [p.numerators + (1,) for p in s.centers]
        assert (e.levels_built, e.level_offsets) == (0, s.level_offsets)

    def test_append_one_at_level(self, diagrams):
        s = Scattering(diagrams[(2, 1, 1)], 1, [(3, 3, 2, 0)], [0])
        p = embed_scattering(s).centers[0]
        assert p == ScaledPoint((3, 3, 2, 0, 2), 1)
        assert p.values() == (1.5, 1.5, 1.0, 0.0, 1.0)

    def test_isometry_exact(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        a, e = s.numerators, embed_scattering(s).numerators
        d0 = ((a[:, None] - a[None]) ** 2).sum(axis=2)
        d1 = ((e[:, None] - e[None]) ** 2).sum(axis=2)
        assert np.array_equal(d0, d1)

    def test_double_embedding_is_two_suffix(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        twice = embed_scattering(embed_scattering(s))
        lvl = s.levels_built
        assert [q.numerators_at(lvl) for q in twice.centers] == \
            [p.numerators_at(lvl) + (1 << lvl, 1 << lvl) for p in s.centers]
        assert twice.level_offsets == s.level_offsets

    def test_embed_diagram(self, scatterings):
        e = embed_scattering(scatterings[(2, 1, 1), 0])
        assert e.diagram.rows == (2, 1, 1, 1, 0)


class TestSubsequence:
    def test_chain_into_higher_rank(self, diagrams):
        lam4 = YoungDiagram.from_rows((2, 1, 1, 1))
        for levels in (0, 1):
            small = build_scattering(diagrams[(2, 1, 1)], levels)
            big = build_scattering(lam4, levels)
            at = [big.index_of(p) for p in embed_scattering(small).centers]
            assert None not in at and all(a < b for a, b in zip(at, at[1:]))


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

    def test_memory_stays_blockwise(self, diagrams):
        # 7,682 centers: 64-row blocks keep each pairwise temporary near 4 MB
        s = build_scattering(diagrams[(3, 2, 1)], 4)
        tracemalloc.start()
        try:
            verify_scattering(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak

    def test_needs_two_centers(self, diagrams):
        s = build_scattering(diagrams[(2, 1, 1)], 0, max_points=1)
        with pytest.raises(ValueError):
            verify_scattering(s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("at", [0, 17, 42])
    def test_rejects_zero_center(self, scatterings, at):
        # its cosine distance is undefined: no NaN may reach the report
        base = scatterings[(2, 1, 1), 1]
        nums = np.insert(base.numerators, at, 0, axis=0)
        s = Scattering(base.diagram, 1, nums, base.level_offsets)
        with pytest.raises(ValueError,
                           match=rf"zero vector \(center {at}\)"):
            verify_scattering(s)

    def test_rejects_negative_stride(self, scatterings):
        with pytest.raises(ValueError, match="prefix_stride"):
            verify_scattering(scatterings[(2, 1, 1), 1], prefix_stride=-3)


def merged_orbit_sequence(lam, levels):
    """The sequence by its first definition, one ScaledPoint per center:
    each level's Weyl orbits, from all distinct permutations of its dominant
    points, merged and sorted descending-lex, with the block offsets."""
    centers, offsets = [], []
    for k in range(levels + 1):
        ls = enumerate_level(lam, k)
        block = [ScaledPoint(t, k) for p in ls.points
                 for t in set(itertools.permutations(p.numerators))]
        block.sort(key=lambda p: p.numerators, reverse=True)
        offsets.append(len(centers))
        centers.extend(block)
    return centers, tuple(offsets)


class TestMatrixBuild:
    @pytest.mark.parametrize("rows,levels", [((2, 1, 1), 3), ((3, 2, 1), 4),
                                             ((2, 2, 1, 1), 3)])
    def test_matches_merged_orbit_definition(self, rows, levels):
        lam = YoungDiagram.from_rows(rows)
        for k in range(levels + 1):
            centers, offsets = merged_orbit_sequence(lam, k)
            s = build_scattering(lam, k)
            assert list(s.centers) == centers, (rows, k)
            assert s.centers == tuple(centers), (rows, k)
            assert s.level_offsets == offsets, (rows, k)

    def test_index_of_first_position_and_non_centers(self, scatterings):
        base = scatterings[(2, 1, 1), 1]
        nums = np.concatenate((base.numerators, base.numerators[3:9]))
        s = Scattering(base.diagram, 1, nums, base.level_offsets)
        assert len(np.unique(s.numerators, axis=0)) < len(s)
        assert len(np.unique(base.numerators, axis=0)) == len(base)
        for i, p in enumerate(s.centers):
            assert s.index_of(p) == (i if i < len(base) else i - len(base) + 3)
        assert s.index_of(ScaledPoint((1, 1, 1, 1))) is None
        assert s.index_of(ScaledPoint((3, 2, 2, 1), 2)) is None
        assert s.index_of(ScaledPoint((2, 1, 1, 0, 0))) is None

    @pytest.mark.parametrize("repeats", [False, True])
    @pytest.mark.parametrize("shape", ["plain", "multiword", "negative"])
    def test_index_of_outside_range_and_multiword_keys(self, scatterings, shape,
                                                       repeats):
        base = scatterings[(2, 1, 1), 1]
        nums = {"plain": base.numerators,
                # 53-bit entries: each key spans four words
                "multiword": base.numerators << 50,
                "negative": (base.numerators << 58) - (1 << 62)}[shape]
        if repeats:
            nums = np.concatenate((nums, nums[3:9]))
        s = Scattering(base.diagram, 1, nums, base.level_offsets)
        assert (len(np.unique(s.numerators, axis=0)) < len(s)) == repeats
        first = {}
        for i, row in enumerate(nums.tolist()):
            first.setdefault(tuple(row), i)
        lo, hi = int(nums.min()), int(nums.max())
        top, bottom = (1 << 63) - 1, -(1 << 63)
        probes = list(first) + [
            (lo - 1, lo, lo, lo), (hi + 1, lo, lo, lo), (hi, hi, hi, hi + 1),
            (lo, lo, lo, lo), (hi, hi, hi, hi), (top,) * 4, (bottom,) * 4,
            (top, hi, lo, lo), (bottom, hi, lo, lo), (top + 1, 0, 0, 0),
            (0, 0, 0, bottom - 1)]
        probes += [row[:-1] + (row[-1] + 1,) for row in first]
        for row in probes:
            assert s.index_of(ScaledPoint(row, 1)) == first.get(row), row

    def test_build_peak_memory(self, diagrams):
        # each level block is sorted in place in the one output matrix
        # (about 1.5x the output); a second copy of the last block would
        # take it past 2x
        tracemalloc.start()
        try:
            s = build_scattering(diagrams[(3, 2, 1)], 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * s.numerators.nbytes, (peak, s.numerators.nbytes)

    def test_build_read_and_table_make_no_points(self, diagrams, tmp_path,
                                                 monkeypatch):
        made = []
        post_init = ScaledPoint.__post_init__

        def counted(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(ScaledPoint, "__post_init__", counted)
        s = build_scattering(diagrams[(3, 2, 1)], 3)
        path = tmp_path / "c.bin"
        write_scattering(s, path, "binary")
        loaded = read_scattering(path)
        loaded.dominant_table()
        assert made == []
        # a query makes one point per hit
        res = nearest_center((1.9, 1.1, 0.9, 0.1), loaded, 3)
        assert made == list(res.points)

    def test_levels_overflowing_int64_rejected_before_enumeration(self, diagrams):
        for rows in ((2, 1, 1), (3, 2, 1)):
            with pytest.raises(ValueError, match="overflow int64"):
                build_scattering(diagrams[rows], 62)

    def test_cut_build_stops_before_overflowing_levels(self, diagrams):
        # max_points ends the build long before the scale would overflow
        s = build_scattering(diagrams[(2, 1, 1)], 10 ** 9, max_points=1)
        assert s.centers == (ScaledPoint((2, 1, 1, 0)),)
        s = build_scattering(diagrams[(3, 2, 1)], 100, max_points=1000)
        assert len(s) == 1000 and s.levels_built < 100
        assert s.centers == build_scattering(diagrams[(3, 2, 1)],
                                             s.levels_built).centers[:1000]

    def test_orbits_beyond_64_coordinates(self):
        # 66 coordinates: run patterns no longer fit one int64 bit word
        s = build_scattering(YoungDiagram.from_rows((1,) * 65), 0)
        ones = [1] * 66
        assert [p.numerators for p in s.centers] == [
            tuple(ones[:z] + [0] + ones[z + 1:]) for z in reversed(range(66))]
        # (2, 1^64, 0): one orbit member per placement of the 2 and the 0
        dominant = np.array([(2,) + (1,) * 64 + (0,)])
        assert _orbit_sizes(dominant).tolist() == [66 * 65]
        orbit = _orbit_block(dominant, np.empty((66 * 65, 66), dtype=np.int64))
        expected = []
        for top, bottom in itertools.permutations(range(66), 2):
            row = [1] * 66
            row[top], row[bottom] = 2, 0
            expected.append(tuple(row))
        assert list(map(tuple, orbit.tolist())) == sorted(expected, reverse=True)

    def test_verify_rejects_squares_overflowing_int64(self, diagrams):
        big = 1 << 40
        s = Scattering(diagrams[(2, 1, 1)], 0,
                       [(big, 0, 0, 0), (0, big, 0, 0)], [0])
        with pytest.raises(ValueError, match="overflow int64 squared"):
            verify_scattering(s)
