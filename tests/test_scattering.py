import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qusc import (ScaledPoint, Scattering, YoungDiagram, build_scattering,
                  embed_scattering, verify_scattering)
from qusc import scattering
from qusc.enumeration import enumerate_level
from qusc.formats import read_scattering, write_scattering
from qusc.scattering import (_network, _orbit_block, _orbit_sizes,
                             _perm_table, _sorted_columns, canonical_levels)
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


class TestScatteringFields:
    """A Scattering reads its level blocks off its numerators, and takes a
    scale that is an integer of at least 0."""

    def test_refuses_negative_levels(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        with pytest.raises(ValueError, match="levels_built must be >= 0"):
            Scattering(s.diagram, -1, s.numerators)

    def test_empty_sequence_has_one_offset(self, diagrams):
        s = build_scattering(diagrams[(2, 1, 1)], 1, max_points=0)
        assert (len(s), s.level_offsets, s.level_blocks()) == (0, (0,),
                                                               [(0, 0)])

    def test_block_starts_where_a_level_exceeds_all_before(self, diagrams):
        # own levels 1, 0, 2, 1, 2, 3 at scale 2**3
        rows = [(4, 4, 0, 0), (8, 0, 0, 0), (6, 2, 0, 0), (4, 0, 4, 0),
                (2, 2, 4, 0), (3, 3, 2, 0)]
        s = Scattering(diagrams[(2, 1, 1)], 3, rows)
        assert s.level_offsets == (0, 2, 5)
        assert s.level_blocks() == [(0, 2), (2, 5), (5, 6)]

    def test_built_centers_alone_are_complete(self, scatterings):
        # the same centers give the same blocks, however they are made
        s = scatterings[(2, 1, 1), 2]
        again = Scattering(s.diagram, 2, s.numerators)
        assert again.level_offsets == (0, 12, 42)
        assert again.is_complete()
        assert [st.length for st in verify_scattering(again).prefixes] == [
            12, 42, 162]

    @pytest.mark.parametrize("value", [True, False, 1.5, 2.0, "1"])
    def test_integer_arguments_refuse_non_integers(self, scatterings, value):
        s = scatterings[(2, 1, 1), 1]
        calls = {
            "levels_built": lambda v: Scattering(s.diagram, v, s.numerators),
            "level": lambda v: enumerate_level(s.diagram, v),
            "max_levels": lambda v: build_scattering(s.diagram, v),
            "max_points": lambda v: build_scattering(s.diagram, 1,
                                                     max_points=v),
            "prefix_stride": lambda v: verify_scattering(s, prefix_stride=v),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError,
                               match=f"^{name} must be an integer, got "):
                call(value)

    def test_integer_arguments_refuse_negatives(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        for name, call in [
                ("max_levels", lambda: build_scattering(s.diagram, -1)),
                ("max_points", lambda: build_scattering(s.diagram, 1,
                                                        max_points=-2))]:
            with pytest.raises(ValueError, match=f"^{name} must be >= 0, got"):
                call()

    def test_integer_arguments_take_numpy_integers(self, scatterings):
        s = scatterings[(2, 1, 1), 1]
        cut = build_scattering(s.diagram, np.int64(1), max_points=np.int32(30))
        assert cut.centers == s.centers[:30]
        again = Scattering(s.diagram, np.uint8(1), s.numerators)
        assert type(again.levels_built) is int and again.levels_built == 1
        assert ([st.length for st in verify_scattering(
            s, prefix_stride=np.int16(20)).prefixes] == [12, 20, 40, 42])


class TestIotaEmbedding:
    def test_append_one(self, scatterings):
        s = scatterings[(2, 1, 1), 0]
        e = embed_scattering(s)
        assert e.centers[0] == ScaledPoint((2, 1, 1, 0, 1))
        assert [p.numerators for p in e.centers] == \
            [p.numerators + (1,) for p in s.centers]
        assert (e.levels_built, e.level_offsets) == (0, s.level_offsets)

    def test_append_one_at_level(self, diagrams):
        s = Scattering(diagrams[(2, 1, 1)], 1, [(3, 3, 2, 0)])
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
            first = {p: i for i, p in reversed(list(enumerate(big.centers)))}
            at = [first.get(p) for p in embed_scattering(small).centers]
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
        s = Scattering(base.diagram, 1, nums)
        with pytest.raises(ValueError,
                           match=rf"zero vector \(center {at}\)"):
            verify_scattering(s)

    @pytest.mark.parametrize("peak", [23_726_566, 1 << 28])
    def test_squared_distances_exact_across_2_53(self, diagrams, peak):
        # 4*d*peak**2 is just below 2**53 (float64 products) or far above
        # it (int64 products); every prefix's extremes are exact either way
        rng = np.random.default_rng(peak)
        rows = rng.integers(-peak, peak + 1, (40, 4), dtype=np.int64)
        rows[7, 2] = peak
        s = Scattering(diagrams[(2, 1, 1)], 0, rows)
        rep = verify_scattering(s, prefix_stride=1)
        pts = rows.tolist()
        for st in rep.prefixes:
            nn = [min(sum((x - y) ** 2 for x, y in zip(pts[i], pts[j]))
                      for j in range(st.length) if j != i)
                  for i in range(st.length)]
            assert (st.min_sq_numerator, st.max_sq_numerator) == (min(nn),
                                                                  max(nn))

    def test_rejects_negative_stride(self, scatterings):
        with pytest.raises(ValueError, match="prefix_stride"):
            verify_scattering(scatterings[(2, 1, 1), 1], prefix_stride=-3)

    def test_one_level_pass(self, diagrams, monkeypatch):
        """On a fresh sequence verify_scattering makes one canonical_levels
        pass over all the centers, for the level blocks, and reads its scale
        off them: the own level of the last block's first center, the
        largest.  The same centers at a finer scale report the same
        prefixes, and a cut inside level 3 of an L4 build has scale 3."""
        lam = diagrams[(2, 2, 1, 1)]
        base = build_scattering(lam, 2)
        want = verify_scattering(base).prefixes
        assert {st.scale_level for st in want} == {2}
        levels, passes = scattering.canonical_levels, []

        def counted(nums, level):
            passes.append(len(nums))
            return levels(nums, level)

        monkeypatch.setattr(scattering, "canonical_levels", counted)
        for s in (build_scattering(lam, 2),
                  Scattering(lam, 4, base.numerators << 2),
                  build_scattering(lam, 4, max_points=1700)):
            passes.clear()
            got = verify_scattering(s).prefixes
            assert passes.count(len(s)) == 1, passes
            if len(s) == len(base):
                assert got == want
            else:
                assert s.level_offsets == (0, 35, 220, 1640)
                assert {st.scale_level for st in got} == {3}


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
                       [(big, 0, 0, 0), (0, big, 0, 0)])
        with pytest.raises(ValueError, match="overflow int64 squared"):
            verify_scattering(s)


@pytest.mark.parametrize("m", range(1, 13))
def test_network_sorts_every_zero_one_input(m):
    """Batcher's network sorts all 2**m inputs of zeros and ones, so it sorts
    every input (the 0-1 principle, Knuth TAOCP 3, 5.3.4), with the pair
    counts its docstring names."""
    pairs = _network(m)
    assert all(0 <= i < j < m for i, j in pairs)
    assert len(pairs) == [0, 0, 1, 3, 5, 9, 12, 16, 19, 28, 32, 38, 42][m]
    bits = np.array(list(itertools.product((0, 1), repeat=m)), dtype=np.int64)
    cols = list(bits.T)
    for i, j in pairs:
        cols[i], cols[j] = np.maximum(cols[i], cols[j]), np.minimum(cols[i],
                                                                    cols[j])
    assert (np.stack(cols, axis=1) == -np.sort(-bits, axis=1)).all()


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (5, 9), (3000, 4),
                                   (40, 64)])
def test_sorted_columns_match_np_sort(shape):
    """By Batcher's network over whole columns, each row's values come out
    sorted descending, in new columns."""
    rows = np.random.default_rng(shape[0]).integers(-(1 << 62), 1 << 62,
                                                    shape)
    rows[::3, 1:] = rows[::3, :1]  # runs of equal values
    columns = list(rows.T)
    out = _sorted_columns(columns)
    assert all(c is not o for c, o in zip(columns, out))
    want = -np.sort(-rows, axis=1)
    assert np.array_equal(np.stack(out, axis=1).reshape(want.shape), want)


def test_canonical_levels_match_reduce():
    """The columns ORed in place give bitwise_or.reduce's levels, with zero
    rows, negative entries and the int64 extremes."""
    rng = np.random.default_rng(6)
    nums = rng.integers(-(1 << 20), 1 << 20, (500, 4)) << rng.integers(
        0, 40, (500, 1))
    nums[::7] = 0
    nums[1] = [np.iinfo(np.int64).min, 0, 0, 0]
    nums[2] = [np.iinfo(np.int64).max, 2, 4, 8]
    low = np.bitwise_or.reduce(nums, axis=1)
    low &= -low
    twos = np.frexp(np.abs(low.astype(np.float64)))[1] - 1
    want = 62 - np.where(low == 0, 62, np.minimum(twos, 62))
    assert np.array_equal(canonical_levels(nums, 62), want)
    assert canonical_levels(nums[:0], 3).shape == (0,)
