"""Command-line interface: generate, query, verify, embed.

Exit codes: 0 success, 2 input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import COSINE, EUCLIDEAN, YoungDiagram
from .formats import (FORMATS, coordinate_texts, read_scattering,
                      write_scattering)
from .oracle import brute_nearest
from .scattering import (Scattering, build_scattering, embed_scattering,
                         verify_scattering)
from .search import nearest_centers

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3


class InputError(Exception):
    pass


def _parse_rows(text: str) -> YoungDiagram:
    try:
        rows = tuple(int(t) for t in text.replace(" ", "").split(",") if t != "")
    except ValueError:
        raise InputError(f"cannot parse row list {text!r}")
    if not rows:
        raise InputError("empty row list")
    try:
        lam = YoungDiagram.from_rows(rows)
    except ValueError as exc:
        raise InputError(str(exc))
    if lam.rank < 2:
        raise InputError(
            f"diagram {lam} is degenerate: rank {lam.rank} scatterings do not grow")
    return lam


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    text = text.strip()
    try:
        if text.startswith("["):
            vals = json.loads(text)
            # JSON numbers only; exact types, as a bool is an int too
            if not all(type(v) in (int, float) for v in vals):
                raise ValueError
            vals = [float(v) for v in vals]
        else:
            vals = [float(t) for t in text.replace(",", " ").split()]
    except (ValueError, OverflowError, RecursionError):
        raise InputError(f"cannot parse query point {text!r}")
    if len(vals) != dim:
        raise InputError(f"query has {len(vals)} coordinates, centers have {dim}")
    return tuple(vals)


def _read_centers(path: str) -> Scattering:
    try:
        return read_scattering(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read centers: {exc}")


def cmd_generate(args) -> int:
    lam = _parse_rows(args.lam)
    if args.rank is not None and args.rank != lam.rank:
        raise InputError(f"--rank {args.rank} does not match diagram rank {lam.rank}")
    s = build_scattering(lam, args.levels, max_points=args.max_points)
    try:
        write_scattering(s, args.out, args.format)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    for k, (lo, hi) in enumerate(s.level_blocks()):
        print(f"level {k}: {hi - lo} centers")
    print(f"total: {len(s)} centers -> {args.out} ({args.format})")
    return EXIT_OK


def _records(results, scale: int, metric: str) -> list[str]:
    """One JSON line per result, the bytes ``json.dumps`` writes for its
    record (its separators, floats as repr), filled into one %-template.
    Every distinct coordinate of the block's hit centers is reduced and
    formatted once."""
    if not results:
        return []
    kk, d = results[0].numerators.shape
    nums = np.concatenate([res.numerators for res in results])
    exact, coords, _ = coordinate_texts(nums, scale, float.__repr__)
    # each record's centers: d exact strings, then d coordinates, per hit
    centers = np.concatenate((exact.reshape(-1, kk, d),
                              coords.reshape(-1, kk, d)), axis=2)
    hit = ('{"exact": [' + ", ".join(['"%s"'] * d) + '], "coords": ['
           + ", ".join(["%s"] * d) + "]}")
    template = ('{"query": [' + ", ".join(["%r"] * d) + '], "indices": ['
                + ", ".join(["%d"] * kk) + '], "distances": ['
                + ", ".join(["%r"] * kk) + '], "centers": ['
                + ", ".join([hit] * kk) + '], "metric": ' + json.dumps(metric)
                + ', "candidates_examined": %d}\n')
    return [template % (*res.query, *res.indices, *res.distances, *row,
                        res.candidates_examined)
            for res, row in zip(results, centers.reshape(len(results),
                                                         -1).tolist())]


def cmd_query(args) -> int:
    s = _read_centers(args.centers)
    if args.point is not None:
        raw_points = [args.point]
    else:
        raw_points = [line for line in sys.stdin if line.strip()]
    queries = [_parse_point(t, s.dim) for t in raw_points]
    results = nearest_centers(queries, s, args.k, args.metric)
    failed = False
    if args.verify:
        # the oracle scans points: make them once, not once per query
        centers = list(s.centers)
        failed = any(res != brute_nearest(q, centers, args.k, args.metric)
                     for q, res in zip(queries, results))
    try:
        sys.stdout.writelines(_records(results, s.levels_built, args.metric))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; the interpreter's flush at exit must not
        # raise again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if failed:
        print("self-check against the full-scan oracle failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _number(x: float):
    """x for a JSON report, or None (null) when it is not finite."""
    return x if math.isfinite(x) else None


def cmd_verify(args) -> int:
    s = _read_centers(args.centers)
    rep = verify_scattering(s, prefix_stride=args.stride)
    print(json.dumps({
        "euclidean_exponent": _number(rep.euclidean_exponent),
        "cosine_exponent": _number(rep.cosine_exponent),
        "cosine_exponent_bound": _number(rep.cosine_exponent_bound),
        "shape_ratio": _number(rep.shape_ratio),
        "prefixes": [{
            "length": st.length,
            "min_distance": _number(st.min_distance),
            "max_distance": _number(st.max_distance),
            "min_cosine": _number(st.min_cosine),
            "max_cosine": _number(st.max_cosine),
            "at_level_boundary": st.at_level_boundary,
        } for st in rep.prefixes],
    }, allow_nan=False))
    if not rep.euclidean_exponent <= 2.0 + 1e-9:
        print(f"euclidean ratio {rep.euclidean_exponent} exceeds 2", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_embed(args) -> int:
    out = embed_scattering(_read_centers(args.centers))
    try:
        write_scattering(out, args.out, args.format)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    print(f"embedded {len(out)} centers into dimension {out.dim} -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qusc",
                                 description="quasi-uniform scatterings on "
                                             "weight polytope boundaries")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a center sequence and write it")
    g.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated diagram rows, e.g. 2,1,1")
    g.add_argument("--rank", type=int, default=None,
                   help="optional cross-check: rank of the root system")
    g.add_argument("--levels", type=int, default=0)
    g.add_argument("--max-points", type=int, default=None)
    g.add_argument("--format", choices=FORMATS, default="binary")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    q = sub.add_parser("query", help="nearest-center queries against a file")
    q.add_argument("--centers", required=True)
    q.add_argument("--point", default=None,
                   help="one query; omit to stream queries from stdin")
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--metric", choices=(EUCLIDEAN, COSINE), default=EUCLIDEAN)
    q.add_argument("--verify", action="store_true",
                   help="check each result equals the full-scan oracle's, "
                        "tie order included (exit 3 if not)")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="quasi-uniformity report for a file")
    v.add_argument("--centers", required=True)
    v.add_argument("--stride", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("embed", help="append a unit coordinate to every center")
    e.add_argument("--centers", required=True)
    e.add_argument("--format", choices=FORMATS, default="binary")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_embed)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
