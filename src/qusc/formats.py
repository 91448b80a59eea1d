"""Center-file serialization: binary, JSON-lines and CSV.

The binary format is exact and byte-stable: a little-endian header (magic
"QUSC", version, dimension, center count, levels built, diagram rows)
followed by count x dimension signed 64-bit numerators at the common scale
2**levels, which are read and written as one block.  The text formats carry
the same rationals as reduced "num/2^k" strings next to decimal floats, and
are parsed to and printed from the same integer rows.  A text record is
read from its exact strings alone: its index, level and float fields are
written for people and other tools, and the readers never read them.  No
format stores level blocks: a Scattering reads them off its numerators,
read from a file or built in memory alike.
Every coordinate of a codebook lies on the lattice 2**-levels, so its
values repeat: the text writers format each distinct value of a block of
rows once (through ``coordinate_texts``, which ``qusc query`` shares), and
the text readers parse each distinct coordinate string of a file once.

The text readers take a file _TEXT_BLOCK lines at a time, and decode each
line on its own (``json.loads``, or a comma split for csv), numbering
records across the whole file.  jsonl also has one compiled pattern for
the exact line its writer makes: an integer index and level, coordinate
strings of digits, "-" and "/", and float coordinates that are JSON
numbers, with the writer's separators.  A jsonl block whose every line
matches takes one ``findall`` pass that pulls out the strings and skips
the floats.  Any other block (other key order, spacing or extra fields,
escapes, blank lines, surrounding whitespace), and a block holding a
string that does not parse, goes to the per-line decoder.  It is the only
source of record errors, so a file reads to the same centers, or fails
with the same message, whichever path a block takes.

A format name other than those in FORMATS raises ValueError, on write and
on read.  Readers raise ValueError for a file they cannot hold exactly: a
csv metadata line whose second token is not "QUSC", a format version
other than FORMAT_VERSION, a header whose dimension differs from its
diagram's row count or whose diagram overflows int64 at scale 2**levels, a
truncated header or record block, trailing bytes after the last binary
record, a record count that differs from the header's, a text
header that lacks a field or whose field is not a non-negative integer (a
list of them for the diagram rows), a text line that is not a record
(invalid JSON, or no 'exact' field), a jsonl 'exact' that is not a list of
strings, a coordinate string that is not an integer or a "num/2^k"
fraction in ASCII digits (header integers too), and a text record finer
than the header's levels or whose numerator at that scale overflows int64
(the messages name the record or the header field).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
import struct

import numpy as np

from .core import YoungDiagram
from .scattering import Scattering, canonical_levels, check_scale

MAGIC = b"QUSC"
FORMAT_VERSION = 1
FORMATS = ("binary", "jsonl", "csv")

_HEADER = struct.Struct("<4sIIQII")
_INT64 = np.iinfo(np.int64)
_TEXT_BLOCK = 4096


# an integer as int() reads it, but in ASCII digits: int() also takes "_"
# separators and other scripts' digits; a coordinate is one or a fraction
_INT = r"\s*[-+]?[0-9]+\s*"
_COORDINATE = re.compile(f"({_INT})(?:/({_INT}))?")


def _numerator(txt: str, levels: int) -> int:
    """The numerator at scale 2**levels of a reduced "num/2^k" coordinate
    string."""
    match = _COORDINATE.fullmatch(txt)
    if match is None:
        raise ValueError(f"invalid literal for int() with base 10: {txt!r}")
    num, den = match.groups()
    num, lv = int(num), 0
    if den is not None:
        d = int(den)
        if d <= 0 or d & (d - 1):
            raise ValueError(f"denominator {d} is not a power of two")
        lv = d.bit_length() - 1
    if lv > levels:
        if num % (1 << (lv - levels)):
            raise ValueError(f"coordinate {txt} is finer than the header's "
                             f"levels={levels}")
        num >>= lv - levels
    else:
        num <<= levels - lv
    if not _INT64.min <= num <= _INT64.max:
        raise ValueError(f"coordinate {txt} overflows int64 at the header's "
                         f"scale 2**{levels}")
    return num


def _text_header(fields: dict, where: str):
    """The dimension, count, levels and diagram rows of a text file's
    header fields, each a non-negative int and "rows" a list of them, or a
    ValueError naming the field at fault."""
    values = []
    for key in ("version", "dimension", "count", "levels", "rows"):
        if key not in fields:
            raise ValueError(f"{where} has no {key!r} field")
        value = fields[key]
        items = value if key == "rows" else [value]
        if type(items) is not list or not all(type(v) is int and v >= 0
                                              for v in items):
            kind = ("a list of non-negative integers" if key == "rows"
                    else "a non-negative integer")
            raise ValueError(f"{where} field {key!r} is not {kind}: {value!r}")
        values.append(value)
    version, dimension, count, levels, rows = values
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    return dimension, count, levels, rows


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def write_scattering(s: Scattering, path, fmt: str = "binary") -> None:
    _check_format(fmt)
    if fmt == "binary":
        with open(path, "wb") as fh:
            _write_binary(s, fh)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            (_write_jsonl if fmt == "jsonl" else _write_csv)(s, fh)


def read_scattering(path, fmt: str | None = None) -> Scattering:
    if fmt is not None:
        _check_format(fmt)
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
        fh.seek(0)
        if fmt == "binary":
            return _read_binary(fh)
        text = io.TextIOWrapper(fh, encoding="utf-8")
        return (_read_jsonl if fmt == "jsonl" else _read_csv)(text)


def _diagram_of(rows, dimension: int, levels: int) -> YoungDiagram:
    """The diagram of a header's rows, after checking that the header
    describes centers the reader can hold: one coordinate per diagram row,
    and numerators within int64 at scale 2**levels."""
    diagram = YoungDiagram(rows)
    if dimension != diagram.dim:
        raise ValueError(f"header dimension {dimension} does not match "
                         f"the {diagram.dim} rows of diagram {diagram}")
    check_scale(diagram, levels)
    return diagram


# -- binary -------------------------------------------------------------------

def _write_binary(s: Scattering, fh) -> None:
    rows = s.diagram.rows
    fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, s.dim, len(s), s.levels_built,
                          len(rows)))
    fh.write(struct.pack(f"<{len(rows)}I", *rows))
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
    diagram = _diagram_of(rows, dim, levels)
    size = count * dim * 8
    if size > left:
        raise ValueError("truncated record block")
    if size < left:
        raise ValueError(f"{left - size} trailing bytes after the last record")
    nums = np.frombuffer(fh.read(size), dtype="<i8").reshape(count, dim)
    return Scattering(diagram, levels, nums.astype(np.int64, copy=False))


# -- text ---------------------------------------------------------------------

def coordinate_texts(nums: np.ndarray, scale: int, float_text):
    """The reduced "num/2^k" string, the float text and the level of every
    entry of an integer numerator array at scale 2**scale, as three arrays
    of its shape.  Each distinct value is reduced and formatted once and
    reaches its entries through the inverse index."""
    values, inverse = np.unique(nums.ravel(), return_inverse=True)
    inverse = inverse.reshape(nums.shape)
    # every value reduced on its own
    levels = canonical_levels(values.reshape(-1, 1), scale)
    exact = np.array([str(v) if lv == 0 else f"{v}/{1 << lv}"
                      for v, lv in zip((values >> (scale - levels)).tolist(),
                                       levels.tolist())], dtype=object)
    floats = np.array(list(map(float_text,
                               (values / float(1 << scale)).tolist())),
                      dtype=object)
    return exact[inverse], floats[inverse], levels[inverse]


def _text_blocks(s: Scattering, template: str, float_text):
    """The records of s filled into ``template`` (index, level, exact
    strings, float texts), one string per _TEXT_BLOCK rows, each block's
    distinct values formatted once."""
    for lo in range(0, len(s), _TEXT_BLOCK):
        nums = s.numerators[lo:lo + _TEXT_BLOCK]
        exact, floats, levels = coordinate_texts(nums, s.levels_built,
                                                 float_text)
        # a row's level is its largest
        cells = zip(range(lo, lo + len(nums)), levels.max(axis=1).tolist(),
                    *exact.T.tolist(), *floats.T.tolist())
        yield "".join(map(template.__mod__, cells))


def _line_blocks(fh):
    """The lines of fh, _TEXT_BLOCK at a time.  A block cut short by bytes
    that do not decode is yielded before the error is raised, so its
    records are read first, as they would be line by line."""
    while True:
        block = []
        try:
            block.extend(itertools.islice(fh, _TEXT_BLOCK))
        except UnicodeDecodeError:
            yield block
            raise
        if not block:
            return
        yield block


def _read_records(fh, diagram: YoungDiagram, count: int, levels: int,
                  coordinates, record: re.Pattern | None = None) -> Scattering:
    """The scattering of a text file's records, the non-blank lines of fh
    after its header, which declares ``count`` of them at scale 2**levels.
    Each block of lines is decoded line by line, ``coordinates(line, i)``
    giving record i's coordinate strings, so an error names the first
    record that holds the bad string.  Only jsonl gives a ``record``, the
    line its writer makes: a block of lines that all match it takes one
    pattern pass instead, unless it holds a string that does not parse.
    Each distinct string that parses is parsed once per file."""
    dim = diagram.dim
    known: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    i = 0
    for lines in _line_blocks(fh):
        nums = (None if record is None
                else _match_block(lines, record, levels, known))
        if nums is None:
            nums = _decode_lines(lines, i, dim, levels, known, coordinates)
        blocks.append(nums)
        i += len(nums) // dim
    if i != count:
        raise ValueError(f"expected {count} records, got {i}")
    nums = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
    return Scattering(diagram, levels, nums.reshape(-1, dim))


def _match_block(lines: list[str], record: re.Pattern, levels: int,
                 known: dict[str, int]):
    """The numerators of a block of jsonl lines that each match ``record``
    in full, with every coordinate string parsed, or None.  The pattern's
    one group holds a record's strings, between the '", "' its writer puts
    between them."""
    # a block of another writer's lines is turned away by its first line,
    # before a pass over all of them
    if not record.match(lines[0]):
        return None
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    # a match starts at a line's start and ends at its newline, so one
    # match per line means every line matched in full
    groups = record.findall(text)
    if len(groups) != len(lines):
        return None
    strings = '", "'.join(groups).split('", "')
    try:
        for txt in set(strings).difference(known):
            known[txt] = _numerator(txt, levels)
    except ValueError:
        return None
    return np.fromiter(map(known.__getitem__, strings), np.int64,
                       len(strings))


def _decode_lines(lines: list[str], i: int, dim: int, levels: int,
                  known: dict[str, int], coordinates) -> np.ndarray:
    """The numerators of a block's records, record i first, each line
    decoded on its own and each new string parsed on its first
    occurrence in record order."""
    nums: list[int] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = coordinates(line, i)
        if len(parts) != dim:
            raise ValueError(f"record {i}: expected {dim} coordinates, "
                             f"got {len(parts)}")
        try:
            nums += [known[txt] for txt in parts]
        except (KeyError, TypeError):  # a new string, or a non-string entry
            for txt in parts:
                if type(txt) is not str:
                    raise ValueError(f"record {i}: coordinate {txt!r} is not "
                                     f"a string") from None
                if txt not in known:
                    try:
                        known[txt] = _numerator(txt, levels)
                    except ValueError as exc:
                        raise ValueError(f"record {i}: {exc}") from None
            nums += [known[txt] for txt in parts]
        i += 1
    return np.array(nums, dtype=np.int64)


# -- jsonl --------------------------------------------------------------------

# The parts of the record line the writer makes.  An index or level of at
# most 18 digits parses as an int under any limit Python sets on digits; a
# JSON float with a fraction or an exponent never parses as an int.
_INDEX = "(?:0|[1-9][0-9]{0,17})"
_EXACT = "[-0-9/]+"
_JSON_FLOAT = (r"-?(?:0|[1-9][0-9]*)"
               r"(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")


def _write_jsonl(s: Scattering, fh) -> None:
    fh.write(json.dumps({
        "magic": MAGIC.decode(), "version": FORMAT_VERSION, "dimension": s.dim,
        "count": len(s), "levels": s.levels_built,
        "rows": list(s.diagram.rows),
    }) + "\n")
    # the bytes json.dumps writes: its separators, and floats as repr
    template = ('{"index": %d, "level": %d, "exact": ['
                + ", ".join(['"%s"'] * s.dim) + '], "coords": ['
                + ", ".join(["%s"] * s.dim) + "]}\n")
    fh.writelines(_text_blocks(s, template, float.__repr__))


def _read_jsonl(fh) -> Scattering:
    try:
        first = json.loads(fh.readline())
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
        raise ValueError(f"jsonl header: {exc}") from None
    if type(first) is not dict or first.get("magic") != MAGIC.decode():
        raise ValueError("missing jsonl header record")
    dim, count, levels, rows = _text_header(first, "jsonl header")
    return _read_records(fh, _diagram_of(rows, dim, levels), count, levels,
                         _jsonl_exact, _jsonl_record(dim))


def _jsonl_record(dim: int) -> re.Pattern:
    """The pattern of the line _write_jsonl makes for a record of dim
    coordinates, its 'exact' strings in one group.  A line it matches is
    one JSON object whose 'exact' list holds those strings."""
    exact = '", "'.join([_EXACT] * dim)
    floats = ", ".join([_JSON_FLOAT] * dim)
    return re.compile('^\\{"index": %s, "level": %s, "exact": \\["(%s)"\\], '
                      '"coords": \\[%s\\]\\}\n'
                      % (_INDEX, _INDEX, exact, floats), re.MULTILINE)


def _jsonl_exact(line: str, i: int):
    """The 'exact' list of jsonl record i."""
    try:
        exact = json.loads(line)["exact"]
    except (KeyError, TypeError):  # no such key, or no JSON object
        raise ValueError(f"record {i} has no 'exact' field") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"record {i}: {exc}") from None
    if type(exact) is not list:
        raise ValueError(f"record {i}: 'exact' is not a list of strings")
    return exact


# -- csv ----------------------------------------------------------------------

def _write_csv(s: Scattering, fh) -> None:
    dim = s.dim
    fh.write(f"# QUSC v{FORMAT_VERSION} dimension={dim} count={len(s)} "
             f"levels={s.levels_built} "
             f"rows={','.join(map(str, s.diagram.rows))}\n")
    cols = (["index", "level"] + [f"exact_{i}" for i in range(dim)]
            + [f"coord_{i}" for i in range(dim)])
    fh.write(",".join(cols) + "\n")
    template = ",".join(["%d", "%d"] + ["%s"] * (2 * dim)) + "\n"
    fh.writelines(_text_blocks(s, template, "{:.17g}".format))


def _csv_int(text: str):
    """text as an int, or as it is for _text_header to refuse."""
    return int(text) if re.fullmatch(_INT, text) else text


def _read_csv(fh) -> Scattering:
    meta = fh.readline().strip()
    tokens = meta.split()
    if tokens[:2] != ["#", "QUSC"]:
        raise ValueError("missing csv metadata line")
    fields = dict(part.partition("=")[::2] for part in tokens[3:])
    if len(tokens) > 2:
        fields["version"] = tokens[2].lstrip("v")
    fields = {key: ([_csv_int(r) for r in value.split(",")] if key == "rows"
                    else _csv_int(value)) for key, value in fields.items()}
    dim, count, levels, rows = _text_header(fields, "csv header")
    fh.readline()  # column names
    # the float cells, which the reader never reads, are left unsplit
    return _read_records(fh, _diagram_of(rows, dim, levels), count, levels,
                         lambda line, i: line.split(",", 2 + dim)[2:2 + dim])
