import hashlib

import numpy as np
import pytest

from qusc import ScaledPoint, YoungDiagram
from qusc.core import BOUNDARY, PointView, membership
from qusc.enumeration import LevelSet, enumerate_level, walk_boundary
from qusc.oracle import brute_boundary


def check_level_set(ls: LevelSet) -> None:
    """Assert the structural invariants of a level set."""
    seen = set()
    prev = None
    for p in ls.points:
        if p.level != ls.level and ls.level > 0:
            raise AssertionError(f"{p} is not new at level {ls.level}")
        if list(p.numerators) != sorted(p.numerators, reverse=True):
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
        ls = enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 0)
        assert ls.points == pts((2, 1, 1, 0))

    def test_two_orbit_diagram(self):
        ls = enumerate_level(YoungDiagram.from_rows((2, 2, 1, 1)), 0)
        assert ls.points == pts((2, 2, 1, 1, 0), (2, 1, 1, 1, 1))

    def test_level_set_hashes_like_its_points_and_is_read_only(self):
        ls = enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 1)
        assert hash(ls.points) == hash(tuple(ls.points))
        assert hash(ls) == hash(enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 1))
        with pytest.raises(ValueError):
            ls.points.numerators[0, 0] = 0

    def test_interior_point_excluded(self):
        ls = enumerate_level(YoungDiagram.from_rows((3, 2, 1)), 0)
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

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            enumerate_level(YoungDiagram.from_rows((2, 1, 1)), -1)

    def test_new_points_have_odd_numerator(self, diagrams):
        for lam in diagrams.values():
            for k in (1, 2):
                for p in enumerate_level(lam, k).points:
                    assert p.level == k
                    assert any(v % 2 for v in p.numerators)


class TestInvariants:
    def test_level_set_structure(self, diagrams):
        for lam in diagrams.values():
            check_level_set(enumerate_level(lam, 0))
            for k in (1, 2):
                check_level_set(enumerate_level(lam, k))

    def test_walk_peels_into_levels(self, diagrams):
        """walk_boundary lists the whole boundary at scale 2**k, descending
        lex; its points with an odd coordinate are level k's, and the rest,
        halved, are the walk of level k - 1."""
        cases = [(lam, 2) for lam in diagrams.values()] + [
            (YoungDiagram.from_rows((3, 2, 1, 1, 1, 1)), 1)]
        for lam, top in cases:
            below = None
            for k in range(top + 1):
                rows, visited = walk_boundary(lam, k)
                assert visited == enumerate_level(lam, k).candidates_visited
                assert set(PointView(rows, k)) == brute_boundary(lam, k)
                assert sorted(map(tuple, rows.tolist()), reverse=True) == \
                    list(map(tuple, rows.tolist()))
                odd = (rows & 1).any(axis=1) if k else np.ones(len(rows), bool)
                assert np.array_equal(rows[odd],
                                      enumerate_level(lam, k).points.numerators)
                if k:
                    assert np.array_equal(rows[~odd] >> 1, below)
                below = rows

    def test_oracle_equivalence(self, diagrams):
        cases = [(lam, 2) for lam in diagrams.values()] + [
            (YoungDiagram.from_rows(r), 1)
            for r in ((3, 2, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1, 1))]
        for lam, top in cases:
            coarser = frozenset()
            for k in range(top + 1):
                full = brute_boundary(lam, k)
                mine = set(enumerate_level(lam, k).points)
                assert mine == full - coarser, (lam, k)
                coarser = full

    def test_levels_disjoint_and_cover(self, diagrams):
        for lam in diagrams.values():
            union, total = set(), 0
            for k in (0, 1, 2):
                new = set(enumerate_level(lam, k).points)
                assert not (union & new)
                union |= new
                total += len(new)
            assert union == set(brute_boundary(lam, 2))
            assert len(union) == total

    def test_linear_work_bound(self, diagrams):
        for lam in diagrams.values():
            n = lam.rank
            ls = enumerate_level(lam, 0)
            assert ls.candidates_visited <= (1 << n) * len(ls.points)
            for k in (1, 2):
                ls = enumerate_level(lam, k)
                assert ls.candidates_visited <= (1 << n) * len(ls.points), (lam, k)


# (rows, level, fresh points, candidates visited, SHA-256 of the points'
# little-endian int64 numerators), as the depth-first walk this one replaced
# gave them
FROZEN_WALKS = [
    ((3, 2, 1), 0, 3, 12,
     "3dcd97214dd8b6ee821b7d4dd988b965bc0c6bc44508f6a176d71b73abc33c65"),
    ((3, 2, 1), 1, 6, 28,
     "ef779da2862c4885bbaf47e4dd56b9b7396305130098cca9419d1c6815b65e59"),
    ((3, 2, 1), 2, 18, 75,
     "a4cc3fe1bc18a01ca5ce927bc51bbb17f8fbc1ab26bb7c755b927d7cd5310979"),
    ((3, 2, 1), 3, 66, 241,
     "4b376e9317761fcf820e43c8f6489dd4605158759b41ab3ee4e58efbbf9967b6"),
    ((3, 2, 1), 4, 252, 861,
     "4fad6fdef4341fffb867981b0c23f041d5595509e28e45c0f74818f32beb647e"),
    ((3, 2, 1), 5, 984, 3253,
     "5bb06855ddcaad7f3644db15c2b4c62140fbba84ec8cdf19242bf5a5a380bb6e"),
    ((3, 2, 1), 6, 3888, 12645,
     "60f53d6bb69ddfd353141b89be44f5d31c4ef07cad0a3d27605eb8b47dd9df82"),
    ((3, 2, 1), 7, 15456, 49861,
     "b8fb80a7b2b07018792573194a0d2be0c589f45206042bf8d94e9a30d4896ca2"),
    ((2, 2, 1, 1), 0, 2, 10,
     "d65c9ae9b9a4f6ab4b8e9a328894dc2f762ba97ab95af1cdf93ce3d05ee364f2"),
    ((2, 2, 1, 1), 1, 5, 26,
     "f007d08500f001c935c22e9f514444009683cd7165a3215ca36b5de4458ed174"),
    ((2, 2, 1, 1), 2, 22, 85,
     "2b8ad6e4a3ad54c7d991bcc54329f860954f0be6b72620917bf6f1b6f2453f6e"),
    ((2, 2, 1, 1), 3, 131, 403,
     "5677672489ba77be8f49b07aa52951b4f49e983adad9c9e75ba139f60b327f30"),
    ((2, 2, 1, 1), 4, 890, 2438,
     "6e856cd239d5cdf921a8b4adf6c962d933e305788fb5523a21eb5ea810b475b1"),
    ((2, 2, 1, 1), 5, 6532, 16881,
     "abafd2912abeaf30093f4a19fb160286b3d655bca602607137b02cc57e154e82"),
    ((3, 2, 1, 1, 1, 1), 0, 3, 21,
     "4cf677c0cfa2ac69faf917c41178bc9cfeb3906ded108ecbddb44c3d733cd73a"),
    ((3, 2, 1, 1, 1, 1), 1, 16, 85,
     "8f07b8d823243265307375547d35a1fd690048071af44319ead5af678faeb1e8"),
    ((3, 2, 1, 1, 1, 1), 2, 167, 619,
     "28c7dface4c5909d92924ef5c35a3f7450a71c6a6713c131f94a5c8e0c95ac18"),
    ((2, 2, 1, 1, 1, 1, 1), 0, 2, 16,
     "dab957bcb2de33c897d1434c46b4bf9a017ca10e004288fbd02a37967809a71c"),
    ((2, 2, 1, 1, 1, 1, 1), 1, 6, 43,
     "d0e2b0f137b9886661f30be1ea92b67158a8e2d1ad63d0aa3455e94b6a11dbf1"),
    ((2, 2, 1, 1, 1, 1, 1), 2, 66, 271,
     "9d9de50ee79ff2113f07b4d8387f11035caca8d2319c39d3e5b9b56338f10914"),
    ((2, 1, 1, 1, 1, 1, 1, 1), 0, 1, 10,
     "5e829515168a8b0acc8a13f8083d5239be09d403c28583c84f565aa960688a56"),
    ((2, 1, 1, 1, 1, 1, 1, 1), 1, 3, 23,
     "3c035f4ae2324f0de9acf4c5ec4ce9971fbbcf16ddcb7d9240ce34c57ad196f5"),
    ((2, 1, 1, 1, 1, 1, 1, 1), 2, 21, 100,
     "e5da4905c4e6865827bce669e9144728eee2b51ddb7cb7a645853837fb0775a6"),
]


@pytest.mark.parametrize("rows,k,count,visited,digest", FROZEN_WALKS,
                         ids=[f"{''.join(map(str, r))}_L{k}"
                              for r, k, *_ in FROZEN_WALKS])
def test_frozen_walk(rows, k, count, visited, digest):
    lam = YoungDiagram.from_rows(rows)
    ls = enumerate_level(lam, k)
    raw = np.ascontiguousarray(ls.points.numerators, dtype="<i8").tobytes()
    assert (len(ls.points), ls.candidates_visited) == (count, visited)
    assert hashlib.sha256(raw).hexdigest() == digest
