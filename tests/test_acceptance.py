"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run pytest with -s to watch them)."""

import random
import struct
import time
from contextlib import contextmanager

import numpy as np

from qusc import (ScaledPoint, YoungDiagram, build_scattering, cosine_nearest,
                  embed_scattering, nearest_center, verify_scattering)
from qusc.cli import main
from qusc.core import INTERIOR, membership
from qusc.enumeration import enumerate_level
from qusc.formats import FORMATS, read_scattering, write_scattering
from qusc.oracle import _oracle_cos, brute_boundary, brute_nn_sq_numerators

SWEEP_ROWS = [(2, 1, 1), (3, 2, 1), (2, 2, 1, 1)]


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(f"time budget {budget}s exceeded ({dt:.1f}s)")
        ok = True
        print(f"ACCEPTANCE {num:2d} PASS  {desc} [{dt:.2f}s]")
    finally:
        if not ok:
            print(f"ACCEPTANCE {num:2d} FAIL  {desc}")


def mixed_queries(rng, sc, count):
    top = sc.diagram.rows[0]
    out = []
    while len(out) < count:
        kind = len(out) % 5
        if kind == 0:
            e = [rng.uniform(-0.5, top + 0.5) for _ in range(sc.dim)]
        elif kind == 1:
            c = rng.choice(sc.centers).values()
            e = [v + rng.gauss(0, 0.3) for v in c]
        elif kind == 2:
            e = [rng.gauss(0, 1) * 5 for _ in range(sc.dim)]
        elif kind == 3:
            e = list(rng.choice(sc.centers).values())
        else:
            c = rng.choice(sc.centers).values()
            e = [round(v * 2) / 2.0 for v in c]
        if any(abs(v) > 1e-9 for v in e):
            out.append(e)
    return out


def test_criterion_1_golden_enumeration():
    with criterion(1, "golden level-0 enumeration", budget=1.0):
        got = enumerate_level(YoungDiagram.from_rows((2, 1, 1)), 0)
        assert set(got.points) == {ScaledPoint((2, 1, 1, 0))}
        got = enumerate_level(YoungDiagram.from_rows((2, 2, 1, 1)), 0)
        assert set(got.points) == {ScaledPoint((2, 2, 1, 1, 0)),
                                   ScaledPoint((2, 1, 1, 1, 1))}
        got = enumerate_level(YoungDiagram.from_rows((3, 2, 1)), 0)
        assert set(got.points) == {ScaledPoint((3, 2, 1, 0)),
                                   ScaledPoint((3, 1, 1, 1)),
                                   ScaledPoint((2, 2, 2, 0))}
        assert ScaledPoint((2, 2, 1, 1)) not in got.points


def test_criterion_2_golden_subdivision():
    with criterion(2, "golden subdivision levels", budget=10.0):
        lam = YoungDiagram.from_rows((2, 1, 1))
        lvl1 = enumerate_level(lam, 1)
        assert set(lvl1.points) == {ScaledPoint((4, 2, 1, 1), 1),
                                    ScaledPoint((3, 3, 2, 0), 1),
                                    ScaledPoint((3, 3, 1, 1), 1)}
        lvl2 = set(enumerate_level(lam, 2).points)
        golden2 = {ScaledPoint((8, 4, 3, 1), 2), ScaledPoint((8, 3, 3, 2), 2),
                   ScaledPoint((7, 5, 4, 0), 2), ScaledPoint((7, 5, 3, 1), 2),
                   ScaledPoint((7, 5, 2, 2), 2)}
        assert golden2 <= lvl2
        assert lvl2 == brute_boundary(lam, 2) - brute_boundary(lam, 1)

        lam5 = YoungDiagram.from_rows((2, 2, 1, 1))
        lvl1b = set(enumerate_level(lam5, 1).points)
        # (3,3,2,2,2) has every prefix sum strictly below its cap, so it is
        # interior and must not appear; the exhaustive oracle decides the set
        assert membership(ScaledPoint((3, 3, 2, 2, 2), 1), lam5) == INTERIOR
        golden5 = {ScaledPoint((4, 4, 2, 1, 1), 1), ScaledPoint((4, 3, 3, 2, 0), 1),
                   ScaledPoint((4, 3, 3, 1, 1), 1), ScaledPoint((4, 3, 2, 2, 1), 1)}
        assert golden5 <= lvl1b
        assert lvl1b == brute_boundary(lam5, 1) - brute_boundary(lam5, 0)


def test_criterion_3_oracle_equivalence_sweep():
    with criterion(3, "oracle equivalence sweep (3 diagrams, k <= 2)", budget=60.0):
        for rows in SWEEP_ROWS:
            lam = YoungDiagram.from_rows(rows)
            coarser = frozenset()
            for k in (0, 1, 2):
                full = brute_boundary(lam, k)
                mine = set(enumerate_level(lam, k).points)
                assert mine == full - coarser, (rows, k)
                coarser = full


def test_criterion_4_quasi_uniformity():
    with criterion(4, "equidistant completed levels, euclidean exponent <= 2"):
        for rows in SWEEP_ROWS:
            lam = YoungDiagram.from_rows(rows)
            s = build_scattering(lam, 2)
            rep = verify_scattering(s, prefix_stride=1)
            for st in rep.prefixes:
                if st.at_level_boundary:
                    assert st.min_sq_numerator == st.max_sq_numerator, (rows, st.length)
            assert rep.euclidean_exponent <= 2.0 + 1e-9, rows
            # independent integer cross-check of the completed-level claim
            for K in (0, 1, 2):
                pts = build_scattering(lam, K).centers
                sq, _ = brute_nn_sq_numerators(list(pts))
                assert min(sq) == max(sq), (rows, K)


def test_criterion_5_sequence_prefix():
    with criterion(5, "published sequence prefix reproduced element-wise"):
        s = build_scattering(YoungDiagram.from_rows((2, 1, 1)), 1)
        expect0 = [
            (2, 1, 1, 0), (2, 1, 0, 1), (2, 0, 1, 1),
            (1, 2, 1, 0), (1, 2, 0, 1), (1, 1, 2, 0), (1, 1, 0, 2),
            (1, 0, 2, 1), (1, 0, 1, 2),
            (0, 2, 1, 1), (0, 1, 2, 1), (0, 1, 1, 2),
        ]
        assert [p.numerators_at(0) for p in s.centers[:12]] == expect0
        expect1 = [(4, 2, 1, 1), (4, 1, 2, 1), (4, 1, 1, 2),
                   (3, 3, 2, 0), (3, 3, 1, 1)]
        assert [p.numerators_at(1) for p in s.centers[12:17]] == expect1


def test_criterion_6_series_property():
    with criterion(6, "chaining: isometry, composition, subsequence"):
        lam = YoungDiagram.from_rows((2, 1, 1))
        lam4 = YoungDiagram.from_rows((2, 1, 1, 1))
        for K in (0, 1, 2):
            a = build_scattering(lam, K)
            b = build_scattering(lam4, K)
            lifted = embed_scattering(a)
            # a subsequence: each lifted center is in b, in the same order
            first = {p: i for i, p in reversed(list(enumerate(b.centers)))}
            at = [first.get(p) for p in lifted.centers]
            assert None not in at, K
            assert all(i < j for i, j in zip(at, at[1:])), K
            for p, q in zip(a.centers[:20], lifted.centers[:20]):
                for p2, q2 in zip(a.centers[:20], lifted.centers[:20]):
                    d0 = sum((x - y) ** 2 for x, y in
                             zip(p.numerators_at(K), p2.numerators_at(K)))
                    d1 = sum((x - y) ** 2 for x, y in
                             zip(q.numerators_at(K), q2.numerators_at(K)))
                    assert d0 == d1
            twice = embed_scattering(lifted)
            for p, q in zip(a.centers, twice.centers):
                assert q == ScaledPoint(p.numerators_at(K) + (1 << K,) * 2, K)


def tie_normalized_match(indices, dist_row, k):
    """Index set equality with brute force modulo ties at the k-th distance."""
    kk = min(k, dist_row.shape[0])
    if len(set(indices)) != kk:
        return False
    tau = np.partition(dist_row, kk - 1)[kk - 1]
    tol = 1e-9 * (1.0 + abs(tau))
    got = np.asarray(indices)
    if np.any(dist_row[got] > tau + tol):
        return False
    must = np.nonzero(dist_row < tau - tol)[0]
    return set(must) <= set(indices)


def test_criterion_7_search_exactness():
    with criterion(7, "1000-query oracle agreement per configuration",
                   budget=120.0):
        rng = random.Random(20240515)
        for rows in SWEEP_ROWS:
            lam = YoungDiagram.from_rows(rows)
            for K in (0, 1, 2):
                s = build_scattering(lam, K)
                mat = np.array([c.values() for c in s.centers])
                norms = np.linalg.norm(mat, axis=1)
                for metric in ("euclidean", "cosine"):
                    for k in (1, 3, 8):
                        queries = mixed_queries(rng, s, 1000)
                        q = np.array(queries)
                        if metric == "euclidean":
                            dmat = np.linalg.norm(q[:, None, :] - mat[None], axis=2)
                        else:
                            qn = np.linalg.norm(q, axis=1)
                            dmat = 1.0 - (q @ mat.T) / np.outer(qn, norms)
                        for row, e in enumerate(queries):
                            if metric == "euclidean":
                                res = nearest_center(e, s, k)
                            else:
                                res = cosine_nearest(e, s, k)
                            assert tie_normalized_match(res.indices, dmat[row], k), \
                                (rows, K, metric, k, e)


def test_criterion_8_fast_search_scaling():
    with criterion(8, "candidate counts flat in depth, linear in k, 10x bench"):
        lam = YoungDiagram.from_rows((3, 2, 1))
        rng = random.Random(99)
        queries = [[rng.uniform(-0.5, 3.5) for _ in range(4)] for _ in range(150)]

        means = []
        for K in (1, 2, 3):
            s = build_scattering(lam, K)
            tot = sum(nearest_center(e, s, 3).candidates_examined for e in queries)
            means.append(tot / len(queries))
        assert means[1] <= means[0] * 1.05 + 2.0, means
        assert means[2] <= means[1] * 1.05 + 2.0, means

        s = build_scattering(lam, 2)
        by_k = {}
        for k in (1, 2, 4, 8):
            tot = sum(nearest_center(e, s, k).candidates_examined for e in queries)
            by_k[k] = tot / len(queries)
        base = max(by_k[1], 1.0)
        for k in (2, 4, 8):
            assert by_k[k] <= 2.0 * k * base, by_k

        big = build_scattering(lam, 5)
        assert len(big) >= 10_000
        bench = queries[:40]
        t0 = time.perf_counter()
        for e in bench:
            nearest_center(e, big, 1)
        structured = time.perf_counter() - t0
        flat = [c.values() for c in big.centers]
        t0 = time.perf_counter()
        for e in bench:
            best = None
            for i, vals in enumerate(flat):
                acc = 0.0
                for x, y in zip(e, vals):
                    dd = x - y
                    acc += dd * dd
                if best is None or acc < best[0]:
                    best = (acc, i)
        brute = time.perf_counter() - t0
        assert brute >= 10.0 * structured, (structured, brute)


def test_criterion_9_weyl_equivariance():
    with criterion(9, "200 random (query, permutation) pairs commute"):
        s = build_scattering(YoungDiagram.from_rows((3, 2, 1)), 1)
        lvl = s.levels_built
        first = {p: i for i, p in reversed(list(enumerate(s.centers)))}
        rng = random.Random(424242)
        for _ in range(200):
            e = [rng.uniform(-1.0, 4.0) for _ in range(4)]
            order = list(range(4))
            rng.shuffle(order)
            direct = set(nearest_center([e[i] for i in order], s, 3).indices)
            base = nearest_center(e, s, 3)
            mapped = {first[ScaledPoint(
                          [p.numerators_at(lvl)[i] for i in order], lvl)]
                      for p in base.points}
            assert direct == mapped, (e, order)


def test_criterion_10_formats_and_exit_codes(tmp_path, capsys):
    with criterion(10, "format round-trips and exit-code contract"):
        s = build_scattering(YoungDiagram.from_rows((2, 1, 1)), 1)
        # byte-identical binary re-serialization
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_scattering(s, p1, "binary")
        write_scattering(read_scattering(p1), p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()
        # jsonl keeps exact rationals; all formats agree on the sequence
        decoded = []
        for fmt in FORMATS:
            path = tmp_path / f"c.{fmt}"
            write_scattering(s, path, fmt)
            decoded.append(read_scattering(path).centers)
        assert decoded[0] == decoded[1] == decoded[2] == s.centers

        out = tmp_path / "g.bin"
        assert main(["generate", "--lambda", "2,1,1", "--levels", "1",
                     "--out", str(out)]) == 0
        assert main(["generate", "--lambda", "1", "--levels", "0",
                     "--out", str(tmp_path / "x.bin")]) == 2
        assert main(["query", "--centers", str(out),
                     "--point", "2,1,1,0"]) == 0
        assert main(["query", "--centers", str(out), "--point", "1,2"]) == 2
        assert main(["verify", "--centers", str(out)]) == 0
        # duplicate a record: zero nearest-neighbor distance must fail verify
        raw = bytearray(p1.read_bytes())
        head = struct.calcsize("<4sIIQII") + 4 * 4
        rec = 8 * 4
        raw[head + rec: head + 2 * rec] = raw[head: head + rec]
        corrupt = tmp_path / "dup.bin"
        corrupt.write_bytes(bytes(raw))
        assert main(["verify", "--centers", str(corrupt)]) == 3
        capsys.readouterr()


def test_criterion_11_cosine_search_scaling():
    with criterion(11, "cosine candidates flat in depth, 10x faster than a scan"):
        lam = YoungDiagram.from_rows((3, 2, 1))
        rng = random.Random(11)
        # box queries and far gaussians; about half the gaussians have a
        # nonpositive sum
        queries = [[rng.uniform(-0.5, 3.5) for _ in range(4)] if i % 2 else
                   [rng.gauss(0, 1) * 5 for _ in range(4)] for i in range(150)]

        means = []
        for K in (1, 2, 3):
            s = build_scattering(lam, K)
            tot = sum(cosine_nearest(e, s, 4).candidates_examined for e in queries)
            means.append(tot / len(queries))
        assert means[1] <= means[0] * 1.05 + 2.0, means
        assert means[2] <= means[1] * 1.05 + 2.0, means

        big = build_scattering(lam, 5)
        bench = queries[:20]
        cosine_nearest(bench[0], big, 1)  # builds the dominant table
        t0 = time.perf_counter()
        for e in bench:
            cosine_nearest(e, big, 1)
        structured = time.perf_counter() - t0
        flat = [c.values() for c in big.centers]
        t0 = time.perf_counter()
        for e in bench:
            min((_oracle_cos(e, vals), i) for i, vals in enumerate(flat))
        brute = time.perf_counter() - t0
        assert brute >= 10.0 * structured, (structured, brute)
