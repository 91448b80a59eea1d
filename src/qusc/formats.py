"""Center-file serialization: binary, JSON-lines and CSV.

The binary format is exact and byte-stable: a little-endian header (magic
"QUSC", version, dimension, center count, levels built, diagram rows)
followed by count x dimension signed 64-bit numerators at the common scale
2**levels.  The text formats carry the same rationals as reduced "num/2^k"
strings next to decimal floats.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from .core import ScaledPoint, YoungDiagram
from .scattering import Scattering

MAGIC = b"QUSC"
FORMAT_VERSION = 1
FORMATS = ("binary", "jsonl", "csv")

_HEADER = struct.Struct("<4sIIQII")


@dataclass(frozen=True)
class CenterFileHeader:
    version: int
    dimension: int
    count: int
    levels: int
    rows: tuple[int, ...]


def _header_of(s: Scattering) -> CenterFileHeader:
    return CenterFileHeader(FORMAT_VERSION, s.dim, len(s), s.levels_built,
                            s.diagram.rows)


def _parse_exact(txt: str) -> tuple[int, int]:
    """Parse a reduced "num/2^k" coordinate string to (numerator, level)."""
    if "/" in txt:
        num, den = txt.split("/", 1)
        d = int(den)
        if d <= 0 or d & (d - 1):
            raise ValueError(f"denominator {d} is not a power of two")
        return int(num), d.bit_length() - 1
    return int(txt), 0


def _point_from_exact(parts, dim) -> ScaledPoint:
    pairs = [_parse_exact(p) for p in parts]
    if len(pairs) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(pairs)}")
    level = max(lv for _, lv in pairs)
    return ScaledPoint(tuple(n << (level - lv) for n, lv in pairs), level)


def write_scattering(s: Scattering, path, fmt: str = "binary") -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "binary":
        with open(path, "wb") as fh:
            _write_binary(s, fh)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            (_write_jsonl if fmt == "jsonl" else _write_csv)(s, fh)


def read_scattering(path, fmt: str | None = None) -> Scattering:
    with open(path, "rb") as fh:
        head = fh.read(4)
    if fmt is None:
        if head == MAGIC:
            fmt = "binary"
        elif head[:1] == b"{":
            fmt = "jsonl"
        elif head[:1] == b"#":
            fmt = "csv"
        else:
            raise ValueError(f"cannot sniff format of {path}")
    if fmt == "binary":
        with open(path, "rb") as fh:
            return _read_binary(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return (_read_jsonl if fmt == "jsonl" else _read_csv)(fh)


def _rebuild(header: CenterFileHeader, points) -> Scattering:
    """The scattering of a file, after checking its records against its
    header: one coordinate per diagram row, and no record finer than the
    header's ``levels``."""
    diagram = YoungDiagram(header.rows)
    if header.dimension != diagram.dim:
        raise ValueError(f"header dimension {header.dimension} does not match "
                         f"the {diagram.dim} rows of diagram {diagram}")
    offsets = []
    prev_level = None
    for i, p in enumerate(points):
        if p.level > header.levels:
            raise ValueError(f"record {i} is at level {p.level}, finer than "
                             f"the header's levels={header.levels}")
        if prev_level is None or p.level > prev_level:
            offsets.append(i)
            prev_level = p.level
    if not offsets:
        offsets = [0]
    return Scattering(diagram, header.levels, points, offsets)


# -- binary -------------------------------------------------------------------

def _write_binary(s: Scattering, fh) -> None:
    h = _header_of(s)
    fh.write(_HEADER.pack(MAGIC, h.version, h.dimension, h.count, h.levels,
                          len(h.rows)))
    fh.write(struct.pack(f"<{len(h.rows)}I", *h.rows))
    for p in s.centers:
        fh.write(struct.pack(f"<{h.dimension}q", *p.numerators_at(h.levels)))


def _read_binary(fh) -> Scattering:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated header")
    magic, version, dim, count, levels, nrows = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError("bad magic, not a center file")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    rows = struct.unpack(f"<{nrows}I", fh.read(4 * nrows))
    header = CenterFileHeader(version, dim, count, levels, tuple(rows))
    rec = struct.Struct(f"<{dim}q")
    points = []
    for _ in range(count):
        chunk = fh.read(rec.size)
        if len(chunk) != rec.size:
            raise ValueError("truncated record block")
        points.append(ScaledPoint(rec.unpack(chunk), levels))
    return _rebuild(header, points)


# -- jsonl --------------------------------------------------------------------

def _write_jsonl(s: Scattering, fh) -> None:
    h = _header_of(s)
    fh.write(json.dumps({
        "magic": MAGIC.decode(), "version": h.version, "dimension": h.dimension,
        "count": h.count, "levels": h.levels, "rows": list(h.rows),
    }) + "\n")
    for i, p in enumerate(s.centers):
        fh.write(json.dumps({
            "index": i, "level": p.level, "exact": list(p.exact_strings()),
            "coords": list(p.values()),
        }) + "\n")


def _read_jsonl(fh) -> Scattering:
    first = json.loads(fh.readline())
    if first.get("magic") != MAGIC.decode():
        raise ValueError("missing jsonl header record")
    header = CenterFileHeader(first["version"], first["dimension"],
                              first["count"], first["levels"],
                              tuple(first["rows"]))
    points = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        points.append(_point_from_exact(rec["exact"], header.dimension))
    if len(points) != header.count:
        raise ValueError(f"expected {header.count} records, got {len(points)}")
    return _rebuild(header, points)


# -- csv ----------------------------------------------------------------------

def _write_csv(s: Scattering, fh) -> None:
    h = _header_of(s)
    fh.write(f"# QUSC v{h.version} dimension={h.dimension} count={h.count} "
             f"levels={h.levels} rows={','.join(map(str, h.rows))}\n")
    dim = h.dimension
    cols = (["index", "level"] + [f"exact_{i}" for i in range(dim)]
            + [f"coord_{i}" for i in range(dim)])
    fh.write(",".join(cols) + "\n")
    for i, p in enumerate(s.centers):
        cells = [str(i), str(p.level)]
        cells += list(p.exact_strings())
        cells += [f"{v:.17g}" for v in p.values()]
        fh.write(",".join(cells) + "\n")


def _read_csv(fh) -> Scattering:
    meta = fh.readline().strip()
    if not meta.startswith("# QUSC"):
        raise ValueError("missing csv metadata line")
    tokens = meta.split()
    version = int(tokens[2].lstrip("v"))
    fields = dict(part.split("=", 1) for part in tokens[3:])
    header = CenterFileHeader(version, int(fields["dimension"]),
                              int(fields["count"]), int(fields["levels"]),
                              tuple(int(r) for r in fields["rows"].split(",")))
    fh.readline()  # column names
    dim = header.dimension
    points = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        points.append(_point_from_exact(cells[2:2 + dim], dim))
    if len(points) != header.count:
        raise ValueError(f"expected {header.count} records, got {len(points)}")
    return _rebuild(header, points)
