import pytest

from qusc import (BOUNDARY, LevelSet, ScaledPoint, YoungDiagram,
                  brute_boundary, enumerate_dominant_boundary, enumerate_level,
                  membership)


def check_level_set(ls: LevelSet) -> None:
    """Assert the structural invariants of a level set."""
    seen = set()
    prev = None
    for p in ls.points:
        if p.level != ls.level and ls.level > 0:
            raise AssertionError(f"{p} is not new at level {ls.level}")
        if not p.is_dominant():
            raise AssertionError(f"{p} is not dominant")
        if membership(p, ls.diagram) != BOUNDARY:
            raise AssertionError(f"{p} is not a boundary point")
        key = p.numerators
        if key in seen:
            raise AssertionError(f"duplicate point {p}")
        seen.add(key)
        if prev is not None and key >= prev:
            raise AssertionError("points not in descending lexicographic order")
        prev = key


def pts(*tuples, level=0):
    return tuple(ScaledPoint(t, level) for t in tuples)


class TestLevelZero:
    def test_single_orbit_diagram(self):
        ls = enumerate_dominant_boundary(YoungDiagram.from_rows((2, 1, 1)))
        assert ls.points == pts((2, 1, 1, 0))

    def test_two_orbit_diagram(self):
        ls = enumerate_dominant_boundary(YoungDiagram.from_rows((2, 2, 1, 1)))
        assert ls.points == pts((2, 2, 1, 1, 0), (2, 1, 1, 1, 1))

    def test_level_set_hashes_like_its_points_and_is_read_only(self):
        ls = enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 1)
        assert hash(ls.points) == hash(tuple(ls.points))
        assert hash(ls) == hash(enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 1))
        with pytest.raises(ValueError):
            ls.points.numerators[0, 0] = 0

    def test_interior_point_excluded(self):
        ls = enumerate_dominant_boundary(YoungDiagram.from_rows((3, 2, 1)))
        assert ls.points == pts((3, 2, 1, 0), (3, 1, 1, 1), (2, 2, 2, 0))
        assert ScaledPoint((2, 2, 1, 1)) not in ls.points


class TestSubdivision:
    def test_level_one_211(self):
        ls = enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 1)
        assert ls.points == pts((4, 2, 1, 1), (3, 3, 2, 0), (3, 3, 1, 1), level=1)

    def test_level_two_211(self):
        # full level-2 set, hand-derived and frozen after oracle cross-check
        ls = enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 2)
        listed = pts((8, 4, 3, 1), (8, 3, 3, 2), (7, 5, 4, 0), (7, 5, 3, 1),
                     (7, 5, 2, 2), level=2)
        assert set(listed) <= set(ls.points)
        assert ls.points == pts((8, 4, 3, 1), (8, 3, 3, 2), (7, 5, 4, 0),
                                (7, 5, 3, 1), (7, 5, 2, 2), (6, 6, 3, 1),
                                (6, 5, 5, 0), level=2)

    def test_level_one_2211(self):
        ls = enumerate_level(YoungDiagram.from_rows((2, 2, 1, 1)), 1)
        listed = pts((4, 4, 2, 1, 1), (4, 3, 3, 2, 0), (4, 3, 3, 1, 1),
                     (4, 3, 2, 2, 1), level=1)
        assert set(listed) <= set(ls.points)
        assert ls.points == listed + pts((3, 3, 3, 3, 0), level=1)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 0)

    def test_new_points_have_odd_numerator(self, diagrams):
        for lam in diagrams.values():
            for k in (1, 2):
                for p in enumerate_level(lam, k).points:
                    assert p.level == k
                    assert any(v % 2 for v in p.numerators)


class TestInvariants:
    def test_level_set_structure(self, diagrams):
        for lam in diagrams.values():
            check_level_set(enumerate_dominant_boundary(lam))
            for k in (1, 2):
                check_level_set(enumerate_level(lam, k))

    def test_oracle_equivalence(self, diagrams):
        for lam in diagrams.values():
            coarser = frozenset()
            for k in (0, 1, 2):
                full = brute_boundary(lam, k)
                mine = (set(enumerate_dominant_boundary(lam).points) if k == 0
                        else set(enumerate_level(lam, k).points))
                assert mine == full - coarser, (lam, k)
                coarser = full

    def test_levels_disjoint_and_cover(self, diagrams):
        for lam in diagrams.values():
            union, total = set(), 0
            for k in (0, 1, 2):
                new = (set(enumerate_dominant_boundary(lam).points) if k == 0
                       else set(enumerate_level(lam, k).points))
                assert not (union & new)
                union |= new
                total += len(new)
            assert union == set(brute_boundary(lam, 2))
            assert len(union) == total

    def test_linear_work_bound(self, diagrams):
        for lam in diagrams.values():
            n = lam.rank
            ls = enumerate_dominant_boundary(lam)
            assert ls.candidates_visited <= (1 << n) * len(ls.points)
            for k in (1, 2):
                ls = enumerate_level(lam, k)
                assert ls.candidates_visited <= (1 << n) * len(ls.points), (lam, k)
