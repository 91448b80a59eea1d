"""`qusc query` output, byte for byte, against files recorded from the
implementation that wrote every record with one ``json.dumps`` call
(commit 1cb17ff).

Each file under ``tests/golden/`` holds one codebook's output: for each
metric and each k of ``KS`` in turn, the stdin stream of ``QUERIES``.  The
same bytes must come from one ``--point`` call per query.  To record them
again, run this module as a script with the implementation to record on
``PYTHONPATH``.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qusc import Scattering, YoungDiagram, build_scattering
from qusc.cli import main
from qusc.formats import read_scattering, write_scattering

GOLDEN = Path(__file__).resolve().parent / "golden"
METRICS = ("euclidean", "cosine")
# a lone nearest center, a few, and more than the codebook holds
KS = (1, 4, None)

QUERIES4 = [
    "2 1 1 0",  # a center
    "0.1 0.2 0.3 0.4",
    "1.5 0.5 1 1",  # ties on the level-1 lattice
    "-0.0 3 -1.25 0.75",
    "1e-200 2e-200 3e-200 -1e-200",  # squares underflow
    "123456.789 -98765.4321 0.5 1e22",  # every squared distance ties
    "1 1 1 1",
    "0.333333333333333 2.718281828459045 -1.4142135623730951 1.7320508075688772",
]
QUERIES5 = [q + " " + x for q, x in
            zip(QUERIES4, ("1", "0.5", "1", "-2", "1e-200", "7", "1", "0.1"))]


def _codebooks(tmp: Path) -> dict[str, tuple[Path, list[str]]]:
    """The recorded codebooks as binary files: a complete one, a prefix cut
    inside a level-1 orbit, that cut embedded into dimension 5, and one
    whose centers repeat."""
    complete = build_scattering(YoungDiagram.from_rows((2, 1, 1)), 1)
    cut = build_scattering(YoungDiagram.from_rows((3, 2, 1)), 1, max_points=50)
    nums = complete.numerators.copy()
    nums[1] = nums[0]
    repeated = Scattering(complete.diagram, complete.levels_built,
                          np.vstack((nums, nums[[0, 5, 13, 20, 41]])))
    paths = {name: tmp / f"{name}.bin" for name in
             ("complete", "cut", "embedded", "duplicated")}
    write_scattering(complete, paths["complete"])
    write_scattering(cut, paths["cut"])
    write_scattering(repeated, paths["duplicated"])
    with redirect_stdout(io.StringIO()):
        assert main(["embed", "--centers", str(paths["cut"]),
                     "--out", str(paths["embedded"])]) == 0
    return {name: (path, QUERIES5 if name == "embedded" else QUERIES4)
            for name, path in paths.items()}


def _query(path: Path, metric: str, k: int, stdin: str = "",
           point: str | None = None) -> str:
    argv = ["query", "--centers", str(path), "--metric", metric, "--k", str(k)]
    if point is not None:
        argv.append("--point=" + point)
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out):
            assert main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def _runs(path: Path):
    size = len(read_scattering(path))
    for metric in METRICS:
        for k in KS:
            yield metric, size + 3 if k is None else k


def stream_output(path: Path, queries: list[str]) -> str:
    stdin = "".join(q + "\n" for q in queries)
    return "".join(_query(path, metric, k, stdin) for metric, k in _runs(path))


@pytest.fixture(scope="module")
def codebooks(tmp_path_factory):
    return _codebooks(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", ["complete", "cut", "embedded", "duplicated"])
def test_stream_matches_golden(codebooks, name):
    path, queries = codebooks[name]
    want = (GOLDEN / f"query-{name}.jsonl").read_text()
    assert stream_output(path, queries) == want


@pytest.mark.parametrize("name", ["complete", "cut", "embedded", "duplicated"])
def test_point_matches_golden(codebooks, name):
    path, queries = codebooks[name]
    want = (GOLDEN / f"query-{name}.jsonl").read_text()
    # every other query in the JSON list form
    points = [q if i % 2 else "[" + q.replace(" ", ", ") + "]"
              for i, q in enumerate(queries)]
    got = "".join(_query(path, metric, k, point=p)
                  for metric, k in _runs(path) for p in points)
    assert got == want


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (path, queries) in _codebooks(Path(tmp)).items():
            (GOLDEN / f"query-{name}.jsonl").write_text(
                stream_output(path, queries))
