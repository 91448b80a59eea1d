"""qusc benchmark: one closed-loop client, one process, no threads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload euclid-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

``--trace 0`` measures the end-to-end metrics.  Set-up builds the
workload's codebooks several times.  Then rounds of library queries, format
round trips, a CLI query stream and a verification run until ``--seconds``
divided by the workload's number of passes has gone by and its tail
percentile has enough samples; then the same rounds run again with the same
inputs, up to that number of passes.  Every operation is timed between two
calibration probes (see ``Bench.finish``), and each operation's time is the
median over its executions; medians and percentiles are then taken over
operations.  ``--trace 1`` runs a fixed number of rounds twice, untraced
and with the layer tracer of ``tracing.py`` installed, alternating round by
round, and reports per-layer counts and self times together with the
tracing overhead (traced minus untraced time of the timed operations).  Every
answer is checked outside the timed regions.  The metric names and units
printed are those listed in ``BENCHMARK.json``; the last line of standard
output is one JSON object, and the full report is written to
``perfbench/results/``.

qusc is imported from ``src/`` of the checkout and nowhere else; without it
the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
MAX_SECONDS_FACTOR = 3  # stop at 3x --seconds even if the tail lacks samples
FORMATS = ("binary", "jsonl", "csv")
CALIBRATION_ITERS = 500
# the calibration loop's uncontended duration on the machine the benchmark was
# defined on (2 vCPUs, Python 3.11); calibrated times are at that speed
CALIBRATION_REF_NS = 30_000


def import_qusc():
    """Import qusc from this checkout's src/, refusing any other copy."""
    pkg = ROOT / "src" / "qusc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from a qusc checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import qusc
    if Path(qusc.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported qusc from {qusc.__file__}, not {pkg}")


def _calibration_ns() -> int:
    """Duration of fixed interpreter-bound work (about 30 us), measured
    around every operation: it follows the machine's momentary speed.  It
    touches almost no memory, so the operation before it does not slow it."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc = (acc + i * i) % 1000003
    return perf_counter_ns() - t0


def _percentile(sorted_xs, pct):
    """Linear interpolation between closest ranks."""
    if not sorted_xs:
        return 0.0
    pos = (len(sorted_xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


class Bench:
    """One pass over a workload: set-up, then rounds of operations, each
    checked after its timed region.

    Times are kept per operation slot.  A slot is one library query, or one
    kind of repeated identical operation (a build, a format's write, read or
    completeness check, the CLI stream, a verification).  Replays of a
    query must reproduce its first answer exactly.
    """

    def __init__(self, w, seed: int, tmp: Path, tracer=None):
        self.w, self.seed, self.tmp, self.tracer = w, seed, tmp, tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.runs: dict[tuple, list[tuple[int, int]]] = {}  # slot -> (ns, probe ns)
        self.probes: list[int] = []
        self.times: dict[tuple, float] = {}  # slot -> ns, see finish()
        self.answers: dict[tuple, object] = {}  # slot -> first correct answer
        self.query_meta: dict[int, tuple[int, int, int]] = {}  # cb, k, candidates
        self.bytes_per_center: dict[str, float] = {}
        self._op = 0

    # -- timing -----------------------------------------------------------------

    def _probe(self) -> int:
        """The faster of two calibration loops: one may lose a time slice to
        another tenant of the machine, two in a row rarely do."""
        best = min(_calibration_ns(), _calibration_ns())
        self.probes.append(best)
        return best

    def _run(self, slot, fn, *args):
        """Time one call of fn for an op slot, between two calibration
        probes.  An exception is returned; the call site counts it as a
        failed operation."""
        self._op += 1
        if self.tracer is not None:
            self.tracer.op = self._op
        p0 = self._probe()
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:
            out = exc
        dt = perf_counter_ns() - t0
        p1 = self._probe()
        if not isinstance(out, Exception):
            self.runs.setdefault(slot, []).append((dt, min(p0, p1)))
        return out

    def finish(self, calibrated: bool = True):
        """Reduce each slot to the median of its executions.

        Calibrated, an execution's time is first scaled by
        ``CALIBRATION_REF_NS`` over the probe next to it.  Other tenants of
        the machine change its speed by up to half for tens of seconds at a
        time; the scaled time is the time at the reference speed, so runs made
        at different moments agree.
        """
        self.times = {
            slot: statistics.median(ns * CALIBRATION_REF_NS / p if calibrated else ns
                                    for ns, p in runs)
            for slot, runs in self.runs.items()}

    def seconds(self, *slots) -> float:
        return sum(self.times[s] for s in slots) / 1e9 if all(
            s in self.times for s in slots) else 0.0

    def query_times(self, keep=lambda c, k: True) -> list[float]:
        return sorted(self.times[("q", i)] for i, (c, k, _) in self.query_meta.items()
                      if keep(c, k) and ("q", i) in self.times)

    def _fail(self, what: str, count: int = 1):
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    # -- set-up -----------------------------------------------------------------

    def setup(self, reps: int):
        from qusc import YoungDiagram, scattering
        from checks import AnswerChecker, VerifyChecker
        from workloads import QueryStream

        w = self.w

        def build():
            return [scattering.build_scattering(YoungDiagram.from_rows(cb.rows),
                                                cb.level) for cb in w.codebooks]

        for _ in range(reps):
            self.scs = None
            gc.collect()
            self.attempted += len(w.codebooks)
            self.scs = self._run(("setup",), build)
            if isinstance(self.scs, Exception):
                raise self.scs
        m = w.codebooks.index(w.maintained)
        self.maint = self.scs[m]
        self.checkers = [AnswerChecker(s, w.metric) for s in self.scs]
        self.maint_checker = self.checkers[m]
        self.verified = self.scs[w.codebooks.index(w.verified)]
        self.verify_checker = VerifyChecker(self.verified)
        self.qstreams = [QueryStream(self.seed, "query:" + cb.name, s)
                         for cb, s in zip(w.codebooks, self.scs)]
        stream = QueryStream(self.seed, "stream:" + w.maintained.name, self.maint)
        self.stream_queries = [stream.get(t) for t in range(w.stream_queries)]
        self._warm_up()

    def _warm_up(self):
        """Fill lazy caches (completeness, norm range) and the CLI's imports
        before timing; these calls are neither timed nor checked."""
        from qusc import cli, formats
        self.stream_path = self.tmp / "stream.bin"
        formats.write_scattering(self.maint, self.stream_path, "binary")
        for s in self.scs:
            self._query(list(map(float, s.diagram.rows)), s, 1)
        with redirect_stdout(io.StringIO()):
            cli.main(["query", "--centers", str(self.stream_path),
                      "--point", " ".join(map(str, self.maint.diagram.rows)),
                      "--metric", self.w.metric])

    def _query(self, q, s, k):
        from qusc import search
        if self.w.metric == "cosine":
            return search.cosine_nearest(q, s, k)
        return search.nearest_center(q, s, k)

    # -- rounds -------------------------------------------------------------------

    def measure(self, seconds: float):
        """First pass: new rounds until its share of ``seconds`` is spent and
        the tail percentile has its samples.  Then replay those rounds."""
        w = self.w
        t0 = perf_counter()
        while True:
            self.round(self.rounds)
            self.rounds += 1
            spent = perf_counter() - t0
            if spent * w.passes >= seconds and len(self.query_meta) >= w.min_queries:
                break
            if spent >= MAX_SECONDS_FACTOR * seconds / w.passes:
                break
        for _ in range(w.passes - 1):
            for r in range(self.rounds):
                self.round(r)

    def round(self, r: int):
        self._library_queries(r)
        self._roundtrip()
        self._stream()
        self._verify()

    def _library_queries(self, r: int):
        w = self.w
        n_cb = len(self.scs)
        per = w.queries_per_round
        batch = []
        for i in range(r * per, (r + 1) * per):
            c, j = i % n_cb, i // n_cb
            q, k = self.qstreams[c].get(j), w.ks[j % len(w.ks)]
            batch.append((i, c, q, k, self._run(("q", i), self._query, q,
                                                self.scs[c], k)))
        self.attempted += per
        for i, c, q, k, res in batch:
            where = f"query {q} k={k} on {w.codebooks[c].name}"
            if isinstance(res, Exception):
                self._fail(f"{where}: {res!r}")
                continue
            answer = (res.indices, res.distances)
            if ("q", i) in self.answers:
                ok = self.answers["q", i] == answer
            else:
                ok = self.checkers[c].ok(q, k, *answer)
                self.answers["q", i] = answer if ok else None
            if not ok:
                self._fail(f"{where}: wrong answer")
            self.query_meta[i] = (c, k, res.candidates_examined)

    def _roundtrip(self):
        from qusc import formats
        from checks import roundtrip_ok

        s = self.maint
        for fmt in FORMATS:
            path = self.tmp / f"roundtrip.{fmt}"
            self.attempted += 1
            out = self._run(("write", fmt), formats.write_scattering, s, path, fmt)
            if isinstance(out, Exception):
                self._fail(f"write {fmt}: {out!r}")
                continue
            loaded = self._run(("read", fmt), formats.read_scattering, path, fmt)
            if isinstance(loaded, Exception):
                self._fail(f"read {fmt}: {loaded!r}")
                continue
            complete = self._run(("complete", fmt), loaded.is_complete)
            if not roundtrip_ok(s, loaded, complete):
                self._fail(f"round trip {fmt}: centers differ or incomplete")
            self.bytes_per_center[fmt] = path.stat().st_size / len(s)

    def _stream(self):
        """The same query stream through ``qusc query`` every round."""
        from qusc import cli

        w = self.w
        queries = self.stream_queries
        n = len(queries)
        text = "".join(" ".join(map(repr, q)) + "\n" for q in queries)
        argv = ["query", "--centers", str(self.stream_path),
                "--k", str(w.stream_k), "--metric", w.metric]
        buf = io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with redirect_stdout(buf):
                rc = self._run(("stream",), cli.main, argv)
        finally:
            sys.stdin = saved_stdin
        self.attempted += n
        out = buf.getvalue()
        lines = out.splitlines()
        if rc != 0 or len(lines) != n:
            if not isinstance(rc, Exception):
                self.runs["stream",].pop()  # a failed stream is not timed
            self._fail(f"cli query stream: exit {rc!r}, {len(lines)} of {n} lines", n)
        elif ("stream",) in self.answers:
            if self.answers["stream",] != out:
                self._fail("cli query stream differs from its first run", n)
        else:
            bad = [q for q, line in zip(queries, lines)
                   if not self.maint_checker.ok(q, w.stream_k,
                                                *_indices_distances(line))]
            self.answers["stream",] = None if bad else out
            if bad:
                self._fail(f"cli query {bad[0]} and {len(bad) - 1} more: wrong "
                           "answer", len(bad))

    def _verify(self):
        from qusc import scattering

        self.attempted += 1
        rep = self._run(("verify",), scattering.verify_scattering, self.verified)
        if isinstance(rep, Exception):
            self._fail(f"verify: {rep!r}")
        elif not self.verify_checker.ok(rep):
            self._fail(f"verify: exponent {rep.euclidean_exponent} or prefix "
                       "statistics disagree with brute force")


def _indices_distances(line: str):
    rec = json.loads(line)
    return rec["indices"], rec["distances"]


# -- metrics --------------------------------------------------------------------

ROUNDTRIP = [(op, fmt) for fmt in FORMATS for op in ("write", "read", "complete")]


def end_to_end(b: Bench) -> dict:
    lat = b.query_times()
    stream = b.seconds(("stream",))
    return {
        "setup_s": b.seconds(("setup",)),
        "query_p50_us": _percentile(lat, 50) / 1e3,
        "query_tail_us": _percentile(lat, b.w.tail_pct) / 1e3,
        "queries_per_s": len(lat) / (sum(lat) / 1e9) if lat else 0.0,
        "verify_s": b.seconds(("verify",)),
        "roundtrip_s": b.seconds(*ROUNDTRIP),
        "stream_queries_per_s": len(b.stream_queries) / stream if stream else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: Bench, traced: Bench, tracer) -> dict:
    """Per-layer values: counts and self times from the traced pass, timings
    of public calls from the untraced pass that did the same work."""
    w = plain.w
    out = {}
    for layer, st in tracer.stats.items():
        for key, v in st.items():
            out[f"{layer}.self_s" if key == "self_ns" else f"{layer}.{key}"] = (
                v / 1e9 if key == "self_ns" else v)
    rank = tracer.stats.get("search.rank", {})
    out["search.fallback_scans"] = rank.get("fallbacks", 0)
    if rank.get("calls"):
        out["search.fallback_share"] = rank["fallbacks"] / rank["calls"]
    enum = tracer.stats.get("enumeration.level", {})
    if enum.get("visited"):
        out["enumeration.yield_ratio"] = enum["points"] / enum["visited"]
    n = len(plain.verified)
    out["scattering.verify.pairs"] = (len(traced.runs.get(("verify",), ()))
                                      * n * (n - 1) // 2)

    meta = plain.query_meta.values()
    cands = sorted(c for *_, c in meta)
    if cands:
        out["search.candidates_p50"] = _percentile(cands, 50)
        out["search.candidates_max"] = cands[-1]
        out["search.useful_ratio"] = sum(k for _, k, _ in meta) / sum(cands)
    for c, cb in enumerate(w.codebooks):
        out[f"search.p50_us.{cb.name}"] = _percentile(
            plain.query_times(lambda cc, k: cc == c), 50) / 1e3
        mine = [n for cc, _, n in meta if cc == c]
        out[f"search.candidates_mean.{cb.name}"] = sum(mine) / len(mine)
    for k in w.ks:
        out[f"search.p50_us.k{k}"] = _percentile(
            plain.query_times(lambda c, kk: kk == k), 50) / 1e3
    out["scattering.verify.s"] = plain.seconds(("verify",))
    for op in ("write", "read"):
        for fmt in FORMATS:
            out[f"formats.{op}.{fmt}.s"] = plain.seconds((op, fmt))
    for fmt, v in plain.bytes_per_center.items():
        out[f"formats.bytes_per_center.{fmt}"] = v
    plain_ns, traced_ns = (sum(ns for runs in b.runs.values() for ns, _ in runs)
                           for b in (plain, traced))
    out["trace.overhead_s"] = (traced_ns - plain_ns) / 1e9
    out["trace.overhead_share"] = (traced_ns - plain_ns) / plain_ns
    out["trace.absent_layers"] = len(tracer.absent)
    return out


# -- entry point -----------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "commit": _commit(),
        "QUSC_THREADS": "unset",
        "client": "one closed-loop client, one process, no threads",
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(w, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    from tracing import Tracer
    from workloads import KINDS

    os.environ.pop("QUSC_THREADS", None)  # never measure the thread pool
    (HERE / "results").mkdir(exist_ok=True)
    tracer = None
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as tmp:
        tmp = Path(tmp)
        t_start = perf_counter()
        if not trace:
            b = Bench(w, seed, tmp)
            b.setup(SETUP_REPS)
            b.measure(seconds)
            b.finish(calibrated=False)
            uncalibrated = end_to_end(b)
            b.finish()
            values = end_to_end(b)
            benches = [b]
            names = spec["end_to_end"]
        else:
            # the untraced and traced passes alternate step by step, and take
            # turns going first, so the machine's changing speed and the cost
            # of first touching memory fall on both alike
            tracer = Tracer()
            plain, traced = Bench(w, seed, tmp), Bench(w, seed, tmp, tracer)
            steps = [lambda b: b.setup(1)] + [
                lambda b, r=r: b.round(r) for r in range(w.trace_rounds)]
            for i, step in enumerate(steps):
                for b in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                    if b is traced:
                        tracer.install()
                    try:
                        step(b)
                    finally:
                        tracer.uninstall()
            for b in (plain, traced):
                b.rounds = w.trace_rounds
                b.finish()
            benches = [plain, traced]
            uncalibrated = {}
            values = per_layer(plain, traced, tracer)
            names = spec["per_layer"]
        wall = perf_counter() - t_start

    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    metrics = {}
    not_measured = []
    for m in names:
        if m["name"] not in values:
            not_measured.append(m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    first = benches[0]
    report = {
        "workload": w.name,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
        "trace": int(trace),
        "environment": environment(seed),
        "inputs": {
            "metric": w.metric,
            "codebooks": {cb.name: len(s) for cb, s in zip(w.codebooks, first.scs)},
            "query_kinds": {kind: 1 / len(KINDS) for kind in KINDS},
            "k_cycle": list(w.ks),
            "queries_per_round": w.queries_per_round,
            "maintained_codebook": w.maintained.name,
            "verified_codebook": w.verified.name,
            "stream_queries": w.stream_queries,
            "stream_k": w.stream_k,
        },
        "rounds": first.rounds,
        "passes": 1 if trace else w.passes,
        "queries": len(first.query_meta),
        "tail_percentile": w.tail_pct,
        "samples_beyond_tail": int(len(first.query_meta) * (1 - w.tail_pct / 100)),
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": [f for b in benches for f in b.failures],
        "values": values,
        "uncalibrated_values": uncalibrated,
        "probe_floor_ns": _percentile(sorted(first.probes), 1),
        "probe_median_ns": _percentile(sorted(first.probes), 50),
        "not_measured_here": not_measured,
    }
    if trace:
        report["absent_layers"] = tracer.absent
        report["spans"] = {"fields": ["op", "id", "parent", "layer", "start_ns", "end_ns"],
                           "records": tracer.spans}
    out_file = HERE / "results" / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(report, indent=1))

    for name, m in metrics.items():
        print(f"{w.name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{w.name} error_rate {report['error_rate']:.6g} ratio "
          f"({failed} failed of {attempted})")
    print(f"{w.name} tail percentile p{w.tail_pct:g} over {report['queries']} queries,"
          f" {first.rounds} rounds, report {out_file.relative_to(ROOT)}")
    for f in report["failures"]:
        print(f"FAILED: {f}", file=sys.stderr)
    if tracer is not None and tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak memory is per workload."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            merged["metrics"][f"{name}.{m}"] = v
    return merged


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    import_qusc()
    from workloads import WORKLOADS
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), spec)
    else:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
