"""Center-file serialization: binary, JSON-lines and CSV.

The binary format is exact and byte-stable: a little-endian header (magic
"QUSC", version, dimension, center count, levels built, diagram rows)
followed by count x dimension signed 64-bit numerators at the common scale
2**levels, which are read and written as one block.  The text formats carry
the same rationals as reduced "num/2^k" strings next to decimal floats, and
are parsed to and printed from the same integer rows.

Readers raise ValueError for a file they cannot hold exactly: a header
whose dimension differs from its diagram's row count or whose diagram
overflows int64 at scale 2**levels, a truncated header or record block,
trailing bytes after the last binary record, a record count that differs
from the header's, a text header or record that lacks a field, and a text
record finer than the header's levels or whose numerator at that scale
overflows int64 (the messages name the record).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import YoungDiagram
from .scattering import Scattering, canonical_levels, check_scale

MAGIC = b"QUSC"
FORMAT_VERSION = 1
FORMATS = ("binary", "jsonl", "csv")

_HEADER = struct.Struct("<4sIIQII")
_INT64 = np.iinfo(np.int64)
_TEXT_BLOCK = 4096


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


def _field(header: dict, key: str, where: str):
    """A text header's field, or a ValueError naming the one it lacks."""
    try:
        return header[key]
    except KeyError:
        raise ValueError(f"{where} has no {key!r} field") from None


def _row_from_exact(parts, header: CenterFileHeader, i: int) -> list[int]:
    """The numerators of text record i at the header's scale 2**levels."""
    if len(parts) != header.dimension:
        raise ValueError(f"record {i}: expected {header.dimension} coordinates, "
                         f"got {len(parts)}")
    levels = header.levels
    row = []
    for txt in parts:
        num, lv = _parse_exact(txt)
        if lv > levels:
            if num % (1 << (lv - levels)):
                raise ValueError(f"record {i}: coordinate {txt} is finer than "
                                 f"the header's levels={levels}")
            num >>= lv - levels
        else:
            num <<= levels - lv
        if not _INT64.min <= num <= _INT64.max:
            raise ValueError(f"record {i}: coordinate {txt} overflows int64 "
                             f"at the header's scale 2**{levels}")
        row.append(num)
    return row


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


def _diagram_of(header: CenterFileHeader) -> YoungDiagram:
    """The header's diagram, after checking that the header describes
    centers the reader can hold: one coordinate per diagram row, and
    numerators within int64 at scale 2**levels."""
    diagram = YoungDiagram(header.rows)
    if header.dimension != diagram.dim:
        raise ValueError(f"header dimension {header.dimension} does not match "
                         f"the {diagram.dim} rows of diagram {diagram}")
    check_scale(diagram, header.levels)
    return diagram


def _rebuild(header: CenterFileHeader, diagram: YoungDiagram,
             nums: np.ndarray) -> Scattering:
    """The scattering of a file's numerator rows, with a level block
    starting at every record coarser than none before it."""
    if len(nums) != header.count:
        raise ValueError(f"expected {header.count} records, got {len(nums)}")
    levels = canonical_levels(nums, header.levels)
    seen = np.maximum.accumulate(levels)
    offsets = [0] + (np.flatnonzero(levels[1:] > seen[:-1]) + 1).tolist()
    return Scattering(diagram, header.levels, nums, offsets)


# -- binary -------------------------------------------------------------------

def _write_binary(s: Scattering, fh) -> None:
    h = _header_of(s)
    fh.write(_HEADER.pack(MAGIC, h.version, h.dimension, h.count, h.levels,
                          len(h.rows)))
    fh.write(struct.pack(f"<{len(h.rows)}I", *h.rows))
    fh.write(s.numerators.astype("<i8", copy=False).tobytes())


def _read_binary(fh) -> Scattering:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated header")
    magic, version, dim, count, levels, nrows = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError("bad magic, not a center file")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    # sizes are checked against the bytes left before anything is read
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if 4 * nrows > left:
        raise ValueError("truncated header")
    rows = struct.unpack(f"<{nrows}I", fh.read(4 * nrows))
    left -= 4 * nrows
    header = CenterFileHeader(version, dim, count, levels, tuple(rows))
    diagram = _diagram_of(header)
    size = count * dim * 8
    if size > left:
        raise ValueError("truncated record block")
    if size < left:
        raise ValueError(f"{left - size} trailing bytes after the last record")
    nums = np.frombuffer(fh.read(size), dtype="<i8").reshape(count, dim)
    return _rebuild(header, diagram, nums.astype(np.int64, copy=False))


# -- jsonl --------------------------------------------------------------------

def _text_records(s: Scattering):
    """Each center's level in lowest terms, exact strings and float
    coordinates, from its numerator row; rows are converted _TEXT_BLOCK at
    a time, so the temporaries stay small."""
    scale = s.levels_built
    for lo in range(0, len(s), _TEXT_BLOCK):
        nums = s.numerators[lo:lo + _TEXT_BLOCK]
        # every coordinate reduced on its own; a row's level is its largest
        levels = canonical_levels(nums.reshape(-1, 1), scale).reshape(nums.shape)
        reduced = nums >> (scale - levels)
        for level, row, lvs, coords in zip(levels.max(axis=1).tolist(),
                                           reduced.tolist(), levels.tolist(),
                                           (nums / float(1 << scale)).tolist()):
            yield (level, [str(v) if lv == 0 else f"{v}/{1 << lv}"
                           for v, lv in zip(row, lvs)], coords)


def _write_jsonl(s: Scattering, fh) -> None:
    h = _header_of(s)
    fh.write(json.dumps({
        "magic": MAGIC.decode(), "version": h.version, "dimension": h.dimension,
        "count": h.count, "levels": h.levels, "rows": list(h.rows),
    }) + "\n")
    for i, (level, exact, coords) in enumerate(_text_records(s)):
        fh.write(json.dumps({
            "index": i, "level": level, "exact": exact, "coords": coords,
        }) + "\n")


def _read_jsonl(fh) -> Scattering:
    first = json.loads(fh.readline())
    if first.get("magic") != MAGIC.decode():
        raise ValueError("missing jsonl header record")
    version, dimension, count, levels, lengths = (
        _field(first, key, "jsonl header")
        for key in ("version", "dimension", "count", "levels", "rows"))
    header = CenterFileHeader(version, dimension, count, levels,
                              tuple(lengths))
    diagram = _diagram_of(header)
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        try:
            exact = json.loads(line)["exact"]
        except (KeyError, TypeError):  # no such key, or no JSON object
            raise ValueError(f"record {len(rows)} has no 'exact' field") from None
        rows.append(_row_from_exact(exact, header, len(rows)))
    return _rebuild(header, diagram,
                    np.array(rows, dtype=np.int64).reshape(-1, header.dimension))


# -- csv ----------------------------------------------------------------------

def _write_csv(s: Scattering, fh) -> None:
    h = _header_of(s)
    fh.write(f"# QUSC v{h.version} dimension={h.dimension} count={h.count} "
             f"levels={h.levels} rows={','.join(map(str, h.rows))}\n")
    dim = h.dimension
    cols = (["index", "level"] + [f"exact_{i}" for i in range(dim)]
            + [f"coord_{i}" for i in range(dim)])
    fh.write(",".join(cols) + "\n")
    for i, (level, exact, coords) in enumerate(_text_records(s)):
        cells = [str(i), str(level)] + exact + [f"{v:.17g}" for v in coords]
        fh.write(",".join(cells) + "\n")


def _read_csv(fh) -> Scattering:
    meta = fh.readline().strip()
    if not meta.startswith("# QUSC"):
        raise ValueError("missing csv metadata line")
    tokens = meta.split()
    version = int(tokens[2].lstrip("v"))
    fields = dict(part.split("=", 1) for part in tokens[3:])
    dimension, count, levels, lengths = (
        _field(fields, key, "csv header")
        for key in ("dimension", "count", "levels", "rows"))
    header = CenterFileHeader(version, int(dimension), int(count), int(levels),
                              tuple(int(r) for r in lengths.split(",")))
    diagram = _diagram_of(header)
    fh.readline()  # column names
    dim = header.dimension
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        rows.append(_row_from_exact(cells[2:2 + dim], header, len(rows)))
    return _rebuild(header, diagram, np.array(rows, dtype=np.int64).reshape(-1, dim))
