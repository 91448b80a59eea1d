"""Seeded random codebooks, every shape the search serves, against the
full-scan oracle: generated diagrams with d = 2-9 at levels 0-2, cut,
embedded once or twice, cut then embedded and embedded then cut, and
arbitrary integer matrices with repeats and negative entries.  Each case
is drawn from its own seed, so a failure names the seed that reproduces
it.  Every case's table is also held to the invariants of its node tree."""

import math
import types

import numpy as np
import pytest

from qusc import (Scattering, YoungDiagram, brute_nearest, build_scattering,
                  embed_scattering, nearest_centers)
from qusc.enumeration import enumerate_level

KS = (1, 4, 17)
# the most centers a generated case builds, and the most it searches
BUILD_CAP = 20_000
SEARCH_CAP = 600
SHAPES = ("complete", "cut", "embedded", "embedded-twice", "cut-embedded",
          "embedded-cut", "matrix")


def orbit_size(row):
    out = math.factorial(len(row))
    for v in set(row):
        out //= math.factorial(row.count(v))
    return out


def random_diagram(rng):
    """A diagram of dimension 2-9 and a level of 0-2 whose codebook holds at
    most BUILD_CAP centers."""
    while True:
        d = int(rng.integers(2, 10))
        rows = sorted(rng.integers(1, 4 if d <= 5 else 3, size=d - 1).tolist(),
                      reverse=True)
        diagram = YoungDiagram.from_rows(rows)
        levels = int(rng.integers(0, 3))
        size = sum(orbit_size(r) for k in range(levels + 1)
                   for r in enumerate_level(diagram, k).points.numerators
                   .tolist())
        if size <= BUILD_CAP:
            return diagram, levels


def cut(s, m):
    """The first m centers of s."""
    return Scattering(s.diagram, s.levels_built, s.numerators[:m])


def random_matrix(rng):
    """Rows of a few orbits, each whole or in part, and stray rows, with
    entries from -4 to 4 at scale 2**0-2**2, shuffled or not, and with
    repeats: d = 2-9, as the diagrams."""
    d = int(rng.integers(2, 10))
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        dominant = np.sort(rng.integers(-4, 5, size=d))[::-1]
        perms = {tuple(dominant[rng.permutation(d)]) for _ in range(40)}
        rows += sorted(perms, reverse=True)[:rng.integers(1, len(perms) + 1)]
    rows += [tuple(r) for r in rng.integers(-4, 5, size=(rng.integers(0, 6), d))]
    if rng.random() < 0.2:  # a zero center, which cosine search refuses
        rows.append((0,) * d)
    if rng.random() < 0.5:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    for _ in range(int(rng.integers(0, 6))):
        rows.insert(int(rng.integers(0, len(rows) + 1)),
                    rows[int(rng.integers(0, len(rows)))])
    return Scattering(types.SimpleNamespace(dim=d), int(rng.integers(0, 3)),
                      np.array(rows, dtype=np.int64))


def random_codebook(rng, shape):
    if shape == "matrix":
        return random_matrix(rng)
    s = build_scattering(*random_diagram(rng))
    if shape in ("cut", "cut-embedded") or len(s) > SEARCH_CAP:
        s = cut(s, int(rng.integers(1, min(len(s), SEARCH_CAP) + 1)))
    for _ in range(shape.count("embedded") + shape.endswith("twice")):
        s = embed_scattering(s)
    if shape == "embedded-cut":
        s = cut(s, int(rng.integers(1, len(s) + 1)))
    return s


def assert_node_tree(t, nums):
    """The center table's node tree is well formed: the rows' runs
    partition the members; a split node's run is its children's runs in
    turn, its children numbered after it, each a child of no other node,
    and a node splits into at least two; a leaf's kids are all padding;
    and the depth is 0 exactly when there is no coset node.  Each node's
    key center is its first member with the free values past its depth
    sorted ascending, and a coset's squared norm is its row's; the
    padding's entry is NaN, and the partial rows' first members in the
    sequence follow it."""
    nodes, n = len(t.kids), len(t.members)
    ends, sizes = t.spans.tolist()
    starts = [e - z for e, z in zip(ends, sizes)]
    assert sorted(t.members.tolist()) == list(range(n))
    assert starts[:t.rows] == ([0] + ends[:t.rows - 1])[:t.rows]
    assert ends[t.rows - 1:t.rows] == [n][:t.rows]
    assert t.spans.shape == (2, nodes) and min(sizes, default=1) > 0
    assert (t.depth == 0) == (nodes == t.rows)
    partial = len(t.keys) - nodes - 1
    assert len(t.key_sq) == len(t.norms) == len(t.keys)
    assert 0 <= partial <= t.rows
    parent, depth, row_of = {}, [0] * nodes, list(range(nodes))
    for node, row in enumerate(t.kids.tolist()):
        kids = [kid for kid in row if kid != nodes]
        assert row == kids + [nodes] * (len(row) - len(kids))
        if kids:
            assert len(kids) > 1 and min(kids) > node
            assert starts[kids[0]] == starts[node]
            assert ends[kids[-1]] == ends[node]
            assert all(ends[a] == starts[b] for a, b in zip(kids, kids[1:]))
            for kid in kids:
                assert parent.setdefault(kid, node) == node
                depth[kid], row_of[kid] = depth[node] + 1, row_of[node]
    assert sorted(parent) == list(range(t.rows, nodes))
    free = t.free.tolist()
    for node in range(nodes):
        center = nums[t.members[starts[node]]].copy()
        past = free[depth[node]:]
        center[past] = np.sort(center[past])
        assert t.keys[node].tolist() == (center / t.lattice).tolist()
        assert t.key_sq[node] == t.key_sq[row_of[node]]
    assert np.isnan(t.keys[nodes]).all() and np.isnan(t.key_sq[nodes])
    firsts = [min(t.members[starts[r]:ends[r]].tolist())
              for r in range(t.rows - partial, t.rows)]
    assert t.keys[nodes + 1:].tolist() == (nums[firsts] / t.lattice).tolist()


def random_queries(rng, s, count):
    """Box queries, centers with noise, exact centers, midpoints of two
    centers (where ties decide) and far queries, in turn."""
    vals = s.values()
    low, high = vals.min() - 0.5, vals.max() + 0.5
    out = []
    for i in range(count):
        a, b = vals[rng.integers(0, len(vals), size=2)]
        out.append([rng.uniform(low, high, size=s.dim),
                    a + rng.normal(0, 0.3, s.dim), a, (a + b) / 2,
                    rng.normal(0, 8, s.dim)][i % 5].tolist())
    return out


@pytest.mark.parametrize("seed", range(105))
def test_random_codebook_matches_brute(seed):
    rng = np.random.default_rng(seed)
    shape = SHAPES[seed % len(SHAPES)]
    s = random_codebook(rng, shape)
    queries = random_queries(rng, s, 6)
    table = s.dominant_table()
    assert_node_tree(table, s.numerators)
    # on a table with cosets, k = rows keeps a finite bound, which refines
    # the chunk where its rows hold more than _ROUND members, and one more
    # an infinite one, which scores every member unrefined
    ks = KS + (table.rows, table.rows + 1) * (table.depth > 0)
    for metric in ("euclidean", "cosine"):
        if metric == "cosine":  # a zero query has no cosine distance
            queries = [e for e in queries if any(e)]
        if metric == "cosine" and not s.numerators.any(axis=1).all():
            with pytest.raises(ValueError, match="zero vector"):
                nearest_centers(queries, s, 1, metric)
            continue
        refs = [brute_nearest(e, s, max(ks), metric) for e in queries]
        for k in ks:
            got = nearest_centers(queries, s, k, metric)
            for e, res, ref in zip(queries, got, refs):
                assert (res.indices, res.distances, res.points) == (
                    ref.indices[:k], ref.distances[:k], ref.points[:k]), \
                    (shape, len(s), e, k, metric)
                # a block of one answers as the block, its count included
                # (repr shows it, and its type: a Python int for JSON)
                one = nearest_centers([e], s, k, metric)[0]
                assert (one, repr(one)) == (res, repr(res)), (shape, e, k,
                                                              metric)
    # a block of one's cosine frame, read from Python scalars, at scales
    # where the squares of its coordinates underflow or overflow
    if s.numerators.any(axis=1).all():
        for e in queries[:2]:
            for scaled in ([v * 1e-200 for v in e], [v * 1e300 for v in e]):
                assert nearest_centers([scaled], s, 4, "cosine") == [
                    brute_nearest(scaled, s, 4, "cosine")], (shape, scaled)
