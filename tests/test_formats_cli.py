import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qusc import (Scattering, YoungDiagram, build_scattering,
                  embed_scattering, formats, scattering, verify_scattering)
from qusc import cli
from qusc.cli import main
from qusc.formats import FORMATS, read_scattering, write_scattering


@pytest.fixture()
def sample(scatterings):
    return scatterings[(2, 1, 1), 1]


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_exact_roundtrip(self, sample, fmt, tmp_path):
        path = tmp_path / f"centers.{fmt}"
        write_scattering(sample, path, fmt)
        back = read_scattering(path)
        assert back.centers == sample.centers
        assert back.diagram == sample.diagram
        assert back.levels_built == sample.levels_built
        assert back.level_offsets == sample.level_offsets

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_signed_zero_and_coarse_rows(self, fmt, tmp_path):
        # rows of a foreign file need not lie on the polytope: negative,
        # zero and coarser-than-levels numerators keep their exact values
        rows = [(5, -3, 0, 1), (0, 0, 0, 0), (-8, 4, 12, 0), (6, -2, 2, 2)]
        s = Scattering(YoungDiagram.from_rows((3, 2, 1)), 2, rows)
        path = tmp_path / f"c.{fmt}"
        write_scattering(s, path, fmt)
        back = read_scattering(path)
        assert back.centers == s.centers
        assert [p.exact_strings() for p in back.centers] == [
            ("5/4", "-3/4", "0", "1/4"), ("0", "0", "0", "0"),
            ("-2", "1", "3", "0"), ("3/2", "-1/2", "1/2", "1/2")]
        assert back.level_offsets == (0,)

    @staticmethod
    def check_text_records(s, fmt, tmp_path):
        """s round-trips exactly through fmt, and its records at the edges
        of the writer's 4096-row blocks hold each center's level, exact
        strings and floats."""
        assert len(s) > 4096 + 1
        path = tmp_path / f"c.{fmt}"
        write_scattering(s, path, fmt)
        back = read_scattering(path)
        assert np.array_equal(back.numerators, s.numerators)
        assert back.centers == s.centers
        assert back.level_offsets == s.level_offsets
        lines = path.read_text().splitlines()[1 if fmt == "jsonl" else 2:]
        for i in (0, 4095, 4096, len(s) - 1):
            p = s.centers[i]
            if fmt == "jsonl":
                rec = json.loads(lines[i])
                got = rec["level"], tuple(rec["exact"]), tuple(rec["coords"])
            else:
                cells = lines[i].split(",")
                got = (int(cells[1]), tuple(cells[2:6]),
                       tuple(float(c) for c in cells[6:]))
            assert got == (p.level, p.exact_strings(), p.values()), i

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_text_records_across_conversion_blocks(self, fmt, tmp_path):
        s = build_scattering(YoungDiagram.from_rows((3, 2, 1)), 4)
        self.check_text_records(s, fmt, tmp_path)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_distinct_signed_numerators_across_conversion_blocks(self, fmt,
                                                                 tmp_path):
        # no value repeats, so every coordinate is formatted and parsed on
        # its own: negative, odd, even and extreme numerators at the
        # largest scale the diagram admits
        rng = np.random.default_rng(7)
        nums = np.unique(rng.integers(-(1 << 63), 1 << 63, 5000 * 4,
                                      dtype=np.int64))
        nums[:4] = (-(1 << 63), (1 << 63) - 1, 0, -1)
        s = Scattering(YoungDiagram.from_rows((3, 2, 1)), 61,
                       rng.permutation(nums).reshape(-1, 4))
        self.check_text_records(s, fmt, tmp_path)

    @staticmethod
    def altered(sample, kind):
        """sample, (2,1,1) L1, as itself, cut at its level boundary, or
        changed in one way that leaves it incomplete."""
        if kind == "complete":
            return sample
        if kind == "level-cut":
            return build_scattering(sample.diagram, 1, max_points=12)
        nums = sample.numerators.copy()
        if kind == "non-center":
            # (5,1,1,1)/2 lies outside the polytope
            at = [tuple(r) for r in nums.tolist()].index((4, 2, 1, 1))
            nums[at] = (5, 1, 1, 1)
        elif kind == "reordered":
            nums[12:] = nums[12:][::-1].copy()
        elif kind == "missing":
            nums = np.delete(nums, 20, axis=0)
        elif kind == "added":
            nums = np.vstack((nums, nums[:1]))
        elif kind == "deep-header":
            # ten centers that claim 40 levels
            return Scattering(sample.diagram, 40, nums[:10] << 39)
        return Scattering(sample.diagram, 1, nums)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("kind,complete", [
        ("complete", True), ("level-cut", True), ("non-center", False),
        ("reordered", False), ("missing", False), ("added", False),
        ("deep-header", False)])
    def test_is_complete_after_round_trip(self, sample, fmt, kind, complete,
                                          tmp_path):
        # complete means equal to the construction, center for center
        s = self.altered(sample, kind)
        path = tmp_path / f"c.{fmt}"
        write_scattering(s, path, fmt)
        back = read_scattering(path)
        assert np.array_equal(back.numerators, s.numerators)
        assert s.is_complete() is complete
        assert back.is_complete() is complete

    def test_binary_reserialization_byte_identical(self, sample, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_scattering(sample, p1, "binary")
        write_scattering(read_scattering(p1), p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()

    def test_all_formats_decode_identically(self, sample, tmp_path):
        decoded = []
        for fmt in FORMATS:
            path = tmp_path / f"c.{fmt}"
            write_scattering(sample, path, fmt)
            decoded.append(read_scattering(path).centers)
        assert decoded[0] == decoded[1] == decoded[2]

    def test_sniffing(self, sample, tmp_path):
        for fmt in FORMATS:
            path = tmp_path / f"sniff.{fmt}"
            write_scattering(sample, path, fmt)
            assert read_scattering(path, fmt=None).centers == sample.centers

    def test_unknown_read_format(self, sample, tmp_path):
        # an unknown name is refused as on write, not read as csv
        for fmt in FORMATS:
            path = tmp_path / f"c.{fmt}"
            write_scattering(sample, path, fmt)
            for bad in ("xml", "jsonx", "CSV", ""):
                with pytest.raises(ValueError,
                                   match=f"^unknown format {bad!r}, expected"):
                    read_scattering(path, bad)

    @pytest.mark.parametrize("token", ["QUSCX", "QUSC1", "QUSCv1"])
    def test_csv_metadata_needs_the_qusc_token(self, sample, tmp_path, token):
        path = tmp_path / "c.csv"
        write_scattering(sample, path, "csv")
        path.write_text(path.read_text().replace("# QUSC ", f"# {token} ", 1))
        with pytest.raises(ValueError, match="missing csv metadata line"):
            read_scattering(path)

    @staticmethod
    def agreement_kinds(scatterings):
        """Sequences whose level blocks a reader could get wrong: built,
        cut inside an orbit, embedded, with repeated centers, reordered,
        and shuffled rows off the polytope at mixed levels."""
        built = scatterings[(2, 1, 1), 2]
        cut = build_scattering(YoungDiagram.from_rows((3, 2, 1)), 2,
                               max_points=50)
        rng = np.random.default_rng(33)
        nums = built.numerators
        return {
            "built": built,
            "cut": cut,
            "embedded": embed_scattering(cut),
            "duplicated": Scattering(built.diagram, 2,
                                     np.vstack((nums, nums[::7]))),
            "shuffled": Scattering(built.diagram, 2, rng.permutation(nums)),
            "foreign": Scattering(built.diagram, 3,
                                  rng.integers(1, 17, (40, 4))),
        }

    @pytest.mark.parametrize("kind", ["built", "cut", "embedded",
                                      "duplicated", "shuffled", "foreign"])
    def test_blocks_agree_in_memory_and_on_read(self, scatterings, kind,
                                                tmp_path):
        def seen(s):
            prefixes = verify_scattering(s, prefix_stride=16).prefixes
            return (s.level_offsets, s.is_complete(),
                    [(st.length, st.at_level_boundary) for st in prefixes])

        s = self.agreement_kinds(scatterings)[kind]
        want = seen(s)
        for fmt in FORMATS:
            path = tmp_path / f"c.{fmt}"
            write_scattering(s, path, fmt)
            assert seen(read_scattering(path, fmt)) == want, fmt

    def test_level_offsets_are_derived_on_first_read(self, sample, tmp_path,
                                                     monkeypatch):
        paths = [tmp_path / f"c.{fmt}" for fmt in FORMATS]
        for fmt, path in zip(FORMATS, paths):
            write_scattering(sample, path, fmt)
        calls = []
        levels = scattering.canonical_levels

        def counted(*args):
            calls.append(args)
            return levels(*args)

        monkeypatch.setattr(scattering, "canonical_levels", counted)
        monkeypatch.setattr(formats, "canonical_levels", counted)
        made = [build_scattering(sample.diagram, 1)] + list(map(
            read_scattering, paths))
        assert calls == []
        for s in made:
            assert s.level_blocks() == [(0, 12), (12, 42)]
            assert s.level_offsets == (0, 12)
        # one derivation each, kept
        assert len(calls) == len(made)

    def test_header_round_trip_binary(self, sample, tmp_path):
        path = tmp_path / "c.bin"
        write_scattering(sample, path, "binary")
        raw = path.read_bytes()
        magic, version, dim, count, levels, nrows = struct.unpack_from("<4sIIQII", raw)
        assert magic == b"QUSC" and version == 1
        assert dim == 4 and count == len(sample) and levels == 1 and nrows == 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_scattering(path, "binary")

    def test_header_dimension_disagrees_with_diagram(self, sample, tmp_path):
        # a header dimension of 3 over a 4-row diagram once loaded, and
        # queries then compared only 3 of 4 coordinates
        path = tmp_path / "c.bin"
        write_scattering(sample, path, "binary")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="header dimension 3"):
            read_scattering(path)
        assert run_cli("query", "--centers", str(path), "--point", "1,1,1,1") == 2

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_record_finer_than_header_levels(self, sample, fmt, tmp_path):
        path = tmp_path / f"c.{fmt}"
        write_scattering(sample, path, fmt)
        text = path.read_text()
        old = '"levels": 1' if fmt == "jsonl" else "levels=1"
        assert old in text
        path.write_text(text.replace(old, old[:-1] + "0", 1))
        with pytest.raises(ValueError, match="finer than the header's levels=0"):
            read_scattering(path)
        assert run_cli("query", "--centers", str(path), "--point", "1,1,1,1") == 2


def run_cli(*argv):
    return main(list(argv))


def json_set(key, value):
    """An edit setting ``key`` of a jsonl line to ``value``."""
    def edit(line):
        rec = json.loads(line)
        rec[key] = value
        return json.dumps(rec)
    return edit


def csv_cells(k, *texts):
    """An edit setting the cells of a csv line from cell k on to texts."""
    def edit(line):
        cells = line.split(",")
        cells[k:k + len(texts)] = texts
        return ",".join(cells)
    return edit


class TestReaderBoundary:
    """Files the reader cannot hold exactly are refused with ValueError,
    and every command exits 2 on them."""

    @staticmethod
    def binary(sample, tmp_path):
        path = tmp_path / "c.bin"
        write_scattering(sample, path, "binary")
        return path, bytearray(path.read_bytes())

    def test_huge_declared_count_is_truncated_without_allocating(self, sample,
                                                                  tmp_path):
        path, raw = self.binary(sample, tmp_path)
        struct.pack_into("<Q", raw, 12, 10 ** 12)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated record block"):
                read_scattering(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert run_cli("query", "--centers", str(path), "--point", "1,1,1,1") == 2

    @pytest.mark.parametrize("cut", [3, 8])
    def test_cut_record_block(self, sample, tmp_path, cut):
        path, raw = self.binary(sample, tmp_path)
        path.write_bytes(bytes(raw[:-cut]))
        with pytest.raises(ValueError, match="truncated record block"):
            read_scattering(path)
        assert run_cli("query", "--centers", str(path), "--point", "1,1,1,1") == 2

    def test_trailing_bytes(self, sample, tmp_path):
        path, raw = self.binary(sample, tmp_path)
        path.write_bytes(bytes(raw) + b"\x00" * 7)
        with pytest.raises(ValueError, match="7 trailing bytes"):
            read_scattering(path)
        assert run_cli("query", "--centers", str(path), "--point", "1,1,1,1") == 2

    def test_truncated_diagram_rows(self, sample, tmp_path):
        path, raw = self.binary(sample, tmp_path)
        struct.pack_into("<I", raw, 24, 1 << 30)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated header"):
            read_scattering(path)

    @staticmethod
    def with_first_numerator(sample, fmt, tmp_path, text):
        path = tmp_path / f"c.{fmt}"
        write_scattering(sample, path, fmt)
        lines = path.read_text().splitlines()
        if fmt == "jsonl":
            rec = json.loads(lines[1])
            rec["exact"][0] = text
            lines[1] = json.dumps(rec)
        else:
            cells = lines[2].split(",")
            cells[2] = text
            lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("command", ["query", "verify", "embed"])
    def test_numerator_overflowing_int64_exit2(self, sample, fmt, command,
                                               tmp_path, capsys):
        path = self.with_first_numerator(sample, fmt, tmp_path, str(1 << 64))
        with pytest.raises(ValueError, match="record 0: .* overflows int64"):
            read_scattering(path)
        extra = {"query": ["--point", "1,1,1,1"], "verify": [],
                 "embed": ["--out", str(tmp_path / "e.bin")]}[command]
        assert run_cli(command, "--centers", str(path), *extra) == 2
        assert "record 0" in capsys.readouterr().err

    @staticmethod
    def without_field(sample, fmt, part, tmp_path):
        """A text file whose header or first record lacks a field."""
        path = tmp_path / f"c.{fmt}"
        write_scattering(sample, path, fmt)
        lines = path.read_text().splitlines()
        if fmt == "jsonl":
            at, key = (0, "count") if part == "header" else (1, "exact")
            rec = json.loads(lines[at])
            del rec[key]
            lines[at] = json.dumps(rec)
        elif part == "header":
            lines[0] = " ".join(t for t in lines[0].split()
                                if not t.startswith("count="))
        else:
            lines[2] = ",".join(lines[2].split(",")[:3])
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("fmt,part,message", [
        ("jsonl", "header", "jsonl header has no 'count' field"),
        ("jsonl", "record", "record 0 has no 'exact' field"),
        ("csv", "header", "csv header has no 'count' field"),
        ("csv", "record", "record 0: expected 4 coordinates, got 1"),
    ])
    @pytest.mark.parametrize("command", ["query", "verify"])
    def test_missing_field_exit2(self, sample, fmt, part, message, command,
                                 tmp_path, capsys):
        path = self.without_field(sample, fmt, part, tmp_path)
        with pytest.raises(ValueError, match=message):
            read_scattering(path)
        extra = ["--point", "1,1,1,1"] if command == "query" else []
        assert run_cli(command, "--centers", str(path), *extra) == 2
        assert message in capsys.readouterr().err

    def test_jsonl_record_not_an_object_exit2(self, sample, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        write_scattering(sample, path, "jsonl")
        lines = path.read_text().splitlines()
        lines[1] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("query", "--centers", str(path), "--point", "1,1,1,1") == 2
        assert "record 0 has no 'exact' field" in capsys.readouterr().err

    @staticmethod
    def edited(sample, fmt, tmp_path, edits):
        """A text file of sample with each line ``at`` of ``edits``
        replaced by ``edit(line)``."""
        path = tmp_path / f"c.{fmt}"
        write_scattering(sample, path, fmt)
        lines = path.read_text().splitlines()
        for at, edit in edits.items():
            lines[at] = edit(lines[at])
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("fmt,at,edit,message", [
        pytest.param("jsonl", 1, json_set("exact", [2, 1, 1, 0]),
                     "record 0: coordinate 2 is not a string", id="jsonl-int"),
        pytest.param("jsonl", 1, json_set("exact", [["2"], "1", "1", "0"]),
                     "record 0: coordinate ['2'] is not a string",
                     id="jsonl-nested"),
        pytest.param("jsonl", 1, json_set("exact", "2110"),
                     "record 0: 'exact' is not a list of strings",
                     id="jsonl-string"),
        pytest.param("jsonl", 0, json_set("rows", 5),
                     "jsonl header field 'rows' is not a list of non-negative "
                     "integers: 5", id="jsonl-rows-int"),
        pytest.param("jsonl", 0, json_set("levels", "1"),
                     "jsonl header field 'levels' is not a non-negative "
                     "integer: '1'", id="jsonl-levels-string"),
        pytest.param("jsonl", 0, json_set("levels", -1),
                     "jsonl header field 'levels' is not a non-negative "
                     "integer: -1", id="jsonl-levels-negative"),
        pytest.param("jsonl", 0, lambda line: line[:8],
                     "jsonl header: Expecting ':' delimiter",
                     id="jsonl-header-broken"),
        pytest.param("jsonl", 1, lambda line: "{broken",
                     "record 0: Expecting property name", id="jsonl-broken"),
        pytest.param("jsonl", 1,
                     lambda line: '{"exact": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}",
                     "record 0: maximum recursion depth exceeded",
                     id="jsonl-deep"),
        pytest.param("jsonl", 0, json_set("version", 7),
                     "unsupported format version 7", id="jsonl-version-7"),
        pytest.param("csv", 0, lambda line: "# QUSC",
                     "csv header has no 'version' field", id="csv-bare-meta"),
        pytest.param("csv", 0, lambda line: line.replace("# QUSC v1 ",
                                                         "# QUSC v7 "),
                     "unsupported format version 7", id="csv-version-7"),
        pytest.param("csv", 0, lambda line: line.replace("levels=1", "levels=x"),
                     "csv header field 'levels' is not a non-negative "
                     "integer: 'x'", id="csv-levels-string"),
        pytest.param("csv", 0, lambda line: line.replace("count=42",
                                                         "count=4_2"),
                     "csv header field 'count' is not a non-negative "
                     "integer: '4_2'", id="csv-count-underscore"),
        pytest.param("csv", 2, csv_cells(2, "abc"),
                     "record 0: invalid literal for int() with base 10: 'abc'",
                     id="csv-abc"),
    ])
    @pytest.mark.parametrize("command", ["query", "verify"])
    def test_malformed_text_exit2(self, sample, fmt, at, edit, message,
                                  command, tmp_path, capsys):
        path = self.edited(sample, fmt, tmp_path, {at: edit})
        with pytest.raises(ValueError, match=re.escape(message)):
            read_scattering(path)
        extra = ["--point", "1,1,1,1"] if command == "query" else []
        assert run_cli(command, "--centers", str(path), *extra) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("bad,message", [
        ("abc", "invalid literal"),
        ("1/3", "denominator 3 is not a power of two"),
        ("1/4", "finer than the header's levels=1"),
    ])
    def test_repeated_bad_string_named_on_its_first_record(
            self, sample, fmt, bad, message, tmp_path):
        # the reader parses each distinct string once; its error still
        # names the first record that holds it
        first = 1 if fmt == "jsonl" else 2
        edit = (json_set("exact", [bad, "1", "1", "0"]) if fmt == "jsonl"
                else csv_cells(2, bad))
        path = self.edited(sample, fmt, tmp_path,
                           {first + i: edit for i in (3, 5, 9)})
        with pytest.raises(ValueError, match=f"^record 3: .*{message}"):
            read_scattering(path)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("bad", ["2_0", "\u0662", "4/\u0662", "1_0/4"])
    def test_only_ascii_digits(self, sample, fmt, bad, tmp_path, capsys):
        """int() also reads "_" separators and other scripts' digits; a
        coordinate is refused for either, and exits the CLI with 2, while
        surrounding whitespace and a "+" sign still read."""
        first = 1 if fmt == "jsonl" else 2
        spelled = [" +2", "+2/2 ", "4/ 4", "0"]  # record 0 is (2, 1, 1, 0)
        edit = (json_set("exact", spelled) if fmt == "jsonl"
                else csv_cells(2, *spelled))
        path = self.edited(sample, fmt, tmp_path, {first: edit})
        assert np.array_equal(read_scattering(path).numerators,
                              sample.numerators)
        edit = (json_set("exact", [bad, "1", "1", "0"]) if fmt == "jsonl"
                else csv_cells(2, bad))
        path = self.edited(sample, fmt, tmp_path, {first: edit})
        message = f"record 0: invalid literal for int() with base 10: {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_scattering(path)
        assert run_cli("query", "--centers", str(path), "--point",
                       "1,1,1,1") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_one_value_written_three_ways(self, sample, fmt, tmp_path):
        # record 0 is (2, 1, 1, 0) and record 1 writes its 1 as "1"
        first = 1 if fmt == "jsonl" else 2
        exact = ["2", "2/2", "4/4", "0"]
        edit = (json_set("exact", exact) if fmt == "jsonl"
                else csv_cells(2, *exact))
        path = self.edited(sample, fmt, tmp_path, {first: edit})
        second = path.read_text().splitlines()[first + 1]
        assert ("1" in json.loads(second)["exact"] if fmt == "jsonl"
                else "1" in second.split(",")[2:6])
        back = read_scattering(path)
        assert back.numerators[0, 1] == back.numerators[0, 2] == 2
        assert np.array_equal(back.numerators, sample.numerators)
        assert back.level_offsets == sample.level_offsets

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_header_levels_overflowing_int64(self, sample, fmt, tmp_path):
        path = tmp_path / f"c.{fmt}"
        write_scattering(sample, path, fmt)
        if fmt == "binary":
            raw = bytearray(path.read_bytes())
            struct.pack_into("<I", raw, 20, 63)
            path.write_bytes(bytes(raw))
        else:
            old = '"levels": 1' if fmt == "jsonl" else "levels=1"
            path.write_text(path.read_text().replace(old, old[:-1] + "63", 1))
        with pytest.raises(ValueError, match="overflow int64"):
            read_scattering(path)


def compact(line):
    """A jsonl line with json.dumps's compact separators."""
    return json.dumps(json.loads(line), separators=(",", ":"))


class TestTextReaderPaths:
    """A block of jsonl records the writer made is read by one pattern
    pass, any other block, and every csv block, line by line; both give
    the same scattering or error."""

    @staticmethod
    def written(s, fmt, tmp_path):
        path = tmp_path / f"c.{fmt}"
        write_scattering(s, path, fmt)
        return path, path.read_text().split("\n")

    @staticmethod
    def same_as(s, back):
        assert np.array_equal(back.numerators, s.numerators)
        assert back.level_offsets == s.level_offsets
        assert (back.diagram, back.levels_built) == (s.diagram, s.levels_built)

    @pytest.mark.parametrize("fmt,edit", [
        pytest.param("jsonl", compact, id="jsonl-compact"),
        pytest.param("jsonl", lambda line: json.dumps(json.loads(line),
                                                      sort_keys=True),
                     id="jsonl-sorted-keys"),
        pytest.param("jsonl", lambda line: line[:-1] + ', "note": "x, y"}',
                     id="jsonl-extra-key"),
        pytest.param("jsonl", lambda line: line + "\r", id="jsonl-crlf"),
        pytest.param("csv", lambda line: line + "\r", id="csv-crlf"),
        pytest.param("csv", lambda line: line + ",x,", id="csv-extra-columns"),
        pytest.param("csv", lambda line: " " + line + "\t", id="csv-spaces"),
    ])
    def test_valid_non_canonical_files(self, sample, fmt, edit, tmp_path):
        path, lines = self.written(sample, fmt, tmp_path)
        first = 1 if fmt == "jsonl" else 2
        lines[first:-1] = map(edit, lines[first:-1])
        path.write_text("\n".join(lines), newline="")
        self.same_as(sample, read_scattering(path))

    @pytest.fixture(scope="class")
    def two_blocks(self):
        """(3,2,1) L4: 7,682 records, two blocks of the reader."""
        return build_scattering(YoungDiagram.from_rows((3, 2, 1)), 4)

    # csv has no pattern pass: every csv block is decoded line by line
    @pytest.mark.parametrize("fmt", ["jsonl"])
    def test_reformatted_line_falls_back_in_its_block_only(
            self, two_blocks, fmt, tmp_path):
        path, lines = self.written(two_blocks, fmt, tmp_path)
        lines[5001] = compact(lines[5001])
        path.write_text("\n".join(lines))
        with mock.patch.object(formats, "_decode_lines",
                               wraps=formats._decode_lines) as decode:
            back = read_scattering(path)
        self.same_as(two_blocks, back)
        # only the second block, whose first record is 4096, is decoded
        # line by line
        assert [c.args[1] for c in decode.call_args_list] == [4096]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("bad,message", [
        ("1/3", "denominator 3 is not a power of two"),
        ("1/32", "finer than the header's levels=4"),
        ("abc", "invalid literal"),
    ])
    def test_bad_coordinate_in_second_block_names_its_record(
            self, two_blocks, fmt, bad, message, tmp_path):
        path, lines = self.written(two_blocks, fmt, tmp_path)
        first = 1 if fmt == "jsonl" else 2
        edit = (json_set("exact", [bad, "1", "1", "0"]) if fmt == "jsonl"
                else csv_cells(2, bad))
        lines[first + 5000] = edit(lines[first + 5000])
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=f"^record 5000: .*{message}"):
            read_scattering(path)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_record_error_before_undecodable_bytes(self, two_blocks, fmt,
                                                   tmp_path):
        # record 0 is bad and record 3000, 150 kB on, does not decode: the
        # record is read first, as it would be line by line
        path, lines = self.written(two_blocks, fmt, tmp_path)
        first = 1 if fmt == "jsonl" else 2
        edit = (json_set("exact", ["1/3", "1", "1", "0"]) if fmt == "jsonl"
                else csv_cells(2, "1/3"))
        lines[first] = edit(lines[first])
        raw = "\n".join(lines).encode().split(b"\n")
        raw[first + 3000] += b"\xff"
        path.write_bytes(b"\n".join(raw))
        with pytest.raises(ValueError, match="^record 0: denominator 3"):
            read_scattering(path)

    @staticmethod
    def outcome(path):
        try:
            s = read_scattering(path)
        except ValueError as exc:
            return str(exc)
        return s.numerators.tolist(), s.level_offsets

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pattern_pass_agrees_with_line_decoder(self, scatterings, tmp_path,
                                                   data):
        # (2,2,1,1) L2, 1,640 jsonl records in one block, with one line
        # edited
        path, lines = self.written(scatterings[(2, 2, 1, 1), 2], "jsonl",
                                   tmp_path)
        at = data.draw(st.integers(1, len(lines) - 2), label="line")
        line = lines[at]
        pos = data.draw(st.integers(0, len(line)), label="position")
        char = data.draw(st.sampled_from('0123456789-/.,:" []{}eE+\t\r\x0b\xa0x٣')
                         | st.characters(max_codepoint=0xD7FF),
                         label="character")
        kind = data.draw(st.sampled_from(
            ["insert", "delete", "replace", "whitespace", "sorted", "blank"]),
            label="edit")
        if kind == "insert":
            line = line[:pos] + char + line[pos:]
        elif kind == "delete":
            line = line[:pos] + line[pos + 1:]
        elif kind == "replace":
            line = line[:pos] + char + line[pos + 1:]
        elif kind == "whitespace":
            line = line[:pos] + data.draw(st.sampled_from([" ", "\t", "  "]),
                                          label="space") + line[pos:]
        elif kind == "sorted":
            line = json.dumps(json.loads(line), sort_keys=True)
        elif kind == "blank":
            line += "\n"
        lines[at] = line
        path.write_text("\n".join(lines), newline="")
        fast = self.outcome(path)
        with mock.patch.object(formats, "_match_block", return_value=None):
            assert self.outcome(path) == fast


# sha256 of the files written for these codebooks by the implementation that
# held every center as a ScaledPoint (commit d338975); the matrix store must
# write the same bytes
DIGESTS = {
    ((2, 1, 1), 2, None): (
        "2f0e964e10fa90a90dc9e8d885bd763a2103097ad2b9e41080a15a33f9f32bf8",
        "01ba406e0b763b86c2b9f7e0b5a72804019b0936aee7c5a82095770d6a84c96f",
        "c638703a6dffaa0e6d778c38c75f30a3fe85f36fc8f0ec7eba34f2fd35fa4628"),
    ((3, 2, 1), 3, None): (
        "71acaa06a02d7ee676c184a1013fb339edd9bb95ed3d5771ad56f680283706d2",
        "66b6e3f43a15e03e95226393f9e3bf6c0c7ca0080433ce9ae5c978dab98e1b87",
        "f42dfc7cfaacd2553e3f5462a79e09ab54b7a7b037b32fcbde992032884ec738"),
    ((2, 2, 1, 1), 2, None): (
        "864dd5eec0d298bb3273d2c7c41afa887de8a321cf542d9b4ffb42191b733ca6",
        "1ada9da1ba8b2c3dccba32be833da618482b336475c303f2edc35b89baa805a2",
        "e4ae196ec42be0da4fda48d84b869b8c8d28a282a4afa9e34bb18abd35c563a5"),
    ((3, 2, 1), 3, 1000): (
        "3c4774b6c3e2308d647aeccbf9e95b973792e9ad12465c07b3f78ba2cf393881",
        "ffbdbf54662b7b318f19fe4744b0a61acb5998ad0e5d011458e655150d17388d",
        "4334fc55b0a79a606c18badb5fc1598334702092c08ea39b8b84ab05137b6efc"),
}
# `qusc embed` of the (3,2,1) L3 cut at 1000 centers, written in each format
EMBED_DIGESTS = (
    "56d8b80013ca8d374c3c6525621a68761ec0feca32d2a6800a7aafa26c721d23",
    "4f6abdcd5e1ebe30b3aac1abb0608316463ecd4f85dc741fbdd23efc11eb0145",
    "d4d61c0bcd33808de6fcb9adf870e91d140ea0ceae2f02fcc942579294785dc5")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestByteStability:
    @pytest.mark.parametrize("case", sorted(DIGESTS, key=str))
    def test_written_files(self, case, tmp_path):
        rows, levels, max_points = case
        s = build_scattering(YoungDiagram.from_rows(rows), levels,
                             max_points=max_points)
        for fmt, digest in zip(FORMATS, DIGESTS[case]):
            path = tmp_path / f"c.{fmt}"
            write_scattering(s, path, fmt)
            assert sha256(path) == digest, fmt
            again = tmp_path / f"again.{fmt}"
            write_scattering(read_scattering(path), again, fmt)
            assert sha256(again) == digest, fmt

    def test_embedded_files(self, tmp_path, capsys):
        s = build_scattering(YoungDiagram.from_rows((3, 2, 1)), 3, max_points=1000)
        for src_fmt in FORMATS:
            src = tmp_path / f"c.{src_fmt}"
            write_scattering(s, src, src_fmt)
            for fmt, digest in zip(FORMATS, EMBED_DIGESTS):
                out = tmp_path / f"e.{fmt}"
                assert run_cli("embed", "--centers", str(src), "--format", fmt,
                               "--out", str(out)) == 0
                assert sha256(out) == digest, (src_fmt, fmt)
        capsys.readouterr()


class TestCliGenerate:
    def test_twelve_records(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert run_cli("generate", "--lambda", "2,1,1", "--levels", "0",
                       "--format", "jsonl", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 12  # header + records
        assert "level 0: 12 centers" in capsys.readouterr().out

    def test_orbit_count_sum(self, tmp_path, capsys):
        out = tmp_path / "c.bin"
        assert run_cli("generate", "--lambda", "2,2,1,1", "--levels", "0",
                       "--out", str(out)) == 0
        assert "level 0: 35 centers" in capsys.readouterr().out

    def test_cut_far_below_overflowing_levels(self, tmp_path):
        out = tmp_path / "c.bin"
        assert run_cli("generate", "--lambda", "3,2,1", "--levels", "100",
                       "--max-points", "1000", "--out", str(out)) == 0
        assert len(read_scattering(out)) == 1000
        assert run_cli("generate", "--lambda", "3,2,1", "--levels", "100",
                       "--out", str(out)) == 2

    def test_degenerate_diagram_exit2(self, tmp_path, capsys):
        assert run_cli("generate", "--lambda", "1", "--levels", "0",
                       "--out", str(tmp_path / "x.bin")) == 2

    def test_non_monotone_rows_exit2(self, tmp_path):
        assert run_cli("generate", "--lambda", "1,2,3", "--levels", "0",
                       "--out", str(tmp_path / "x.bin")) == 2

    def test_rank_mismatch_exit2(self, tmp_path):
        assert run_cli("generate", "--lambda", "2,1,1", "--rank", "5",
                       "--levels", "0", "--out", str(tmp_path / "x.bin")) == 2

    def test_unwritable_output_exit2(self, tmp_path):
        assert run_cli("generate", "--lambda", "2,1,1", "--levels", "0",
                       "--out", str(tmp_path / "no" / "dir" / "x.bin")) == 2


class TestCliQuery:
    @pytest.fixture()
    def centers_file(self, sample, tmp_path):
        path = tmp_path / "c.bin"
        write_scattering(sample, path, "binary")
        return path

    def test_center_query_distance_zero(self, centers_file, capsys):
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", "2,1,1,0") == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["distances"][0] == 0.0
        assert rec["indices"][0] == 0
        assert rec["centers"][0]["exact"] == ["2", "1", "1", "0"]

    def test_cosine_scaled_center(self, centers_file, capsys):
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", "10,5,5,0", "--metric", "cosine") == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["distances"][0] == pytest.approx(0.0, abs=1e-12)

    def test_refused_call_leaves_the_cached_parser_as_new(self, centers_file,
                                                          capsys):
        """main reuses one parser per process: a call it refuses (--k x,
        exit 2) leaves the next valid query printing what it prints on a
        fresh parser."""
        query = ["query", "--centers", str(centers_file), "--point",
                 "1.9,1.1,0.9,0.1", "--k", "3"]
        outputs = []
        for refused_first in (False, True):
            cli.build_parser.cache_clear()
            if refused_first:
                assert main(query[:-1] + ["x"]) == 2
                assert "--k" in capsys.readouterr().err
            assert main(query) == 0
            outputs.append(capsys.readouterr())
            assert cli.build_parser() is cli.build_parser()
        assert outputs[0] == outputs[1] and outputs[0].out

    def test_thousand_point_stream_with_verify(self, centers_file, monkeypatch,
                                               capsys):
        import io
        import random
        rng = random.Random(0)
        lines = "\n".join(
            ",".join(f"{rng.uniform(-1, 3):.6f}" for _ in range(4))
            for _ in range(1000))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert run_cli("query", "--centers", str(centers_file),
                       "--k", "3", "--verify") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1000

    def test_verify_holds_tie_order(self, tmp_path, monkeypatch, capsys):
        """A k=2 query at the midpoint of two centers ties them; an answer
        with the right index set in the wrong order fails the check."""
        from qusc import QueryResult, nearest_centers
        path = tmp_path / "c.bin"
        write_scattering(build_scattering(YoungDiagram.from_rows((2, 1, 1)), 0),
                         path, "binary")
        argv = ("query", "--centers", str(path), "--point", "1.5,1.5,1,0",
                "--k", "2", "--verify")
        assert run_cli(*argv) == 0

        def swapped(queries, s, k, metric):
            out = []
            for res in nearest_centers(queries, s, k, metric):
                assert res.distances[0] == res.distances[1]
                out.append(QueryResult(res.indices[::-1], res.distances[::-1],
                                       res.numerators[::-1], res.level,
                                       res.metric, res.query,
                                       res.candidates_examined))
            return out

        monkeypatch.setattr("qusc.cli.nearest_centers", swapped)
        assert run_cli(*argv) == 3
        assert "oracle" in capsys.readouterr().err

    def test_malformed_point_exit2(self, centers_file):
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", "1,2") == 2
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", "a,b,c,d") == 2

    @pytest.mark.parametrize("text", ["1_0 1 1 0", "1,1,\u0661,0",
                                      "1 1 1 \u0661.5"])
    def test_point_of_non_ascii_digits_exit2(self, centers_file, monkeypatch,
                                             capsys, text):
        """float() also reads "_" separators and other scripts' digits; a
        query point is refused for either, given with --point or on
        standard input, while surrounding whitespace and "+" still read."""
        import io
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", text) == 2
        self.check_quoted(capsys.readouterr().err, text)
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1,1,1,1\n{text}\n"))
        assert run_cli("query", "--centers", str(centers_file)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        self.check_quoted(err, text)
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", " +2, 1 ,+1.0,\t0 ") == 0
        assert json.loads(capsys.readouterr().out)["distances"][0] == 0.0

    @pytest.mark.parametrize("text", [
        "[null,1,2,3]", "[[1],2,3,4]", '[1,2,3,"x"]', "[true,1,2,3]",
        '["1",2,3,4]', f"[{10 ** 309},1,2,3]",
        # nested past the interpreter's recursion limit
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000")])
    def test_json_point_of_non_numbers_exit2(self, centers_file, capsys, text):
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", text) == 2
        self.check_quoted(capsys.readouterr().err, text)

    @staticmethod
    def check_quoted(err, text):
        """err quotes text in full up to 80 characters, else by its first
        80 and its length, and stays short."""
        assert f"cannot parse query point {text[:80]!r}" in err
        if len(text) > 80:
            assert f"{text[:80]!r}... ({len(text)} characters)" in err
        assert len(err) < 1024

    def test_json_point_of_non_numbers_in_stream_exit2(self, centers_file,
                                                       monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("[1,1,1,1]\n[null,1,2,3]\n"))
        assert run_cli("query", "--centers", str(centers_file)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot parse query point '[null,1,2,3]'" in err
        deep = "[" * 100000 + "]" * 100000
        monkeypatch.setattr("sys.stdin", io.StringIO(f"[1,1,1,1]\n{deep}\n"))
        assert run_cli("query", "--centers", str(centers_file)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        self.check_quoted(err, deep)

    def test_nonfinite_point_exit2(self, centers_file, capsys):
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", "nan,1,1,1") == 2
        assert "non-finite coordinate" in capsys.readouterr().err

    def test_point_too_large_at_scale_exit2(self, centers_file, capsys):
        # finite, and its sum of squares fits, but not once scaled to the
        # level-1 lattice
        assert run_cli("query", "--centers", str(centers_file),
                       "--point", "1e154,3e153,-2e153,0.1") == 2
        assert "query is too large" in capsys.readouterr().err
        assert run_cli("query", "--centers", str(centers_file), "--metric",
                       "cosine", "--point", "1e154,3e153,-2e153,0.1") == 0

    def test_missing_file_exit2(self, tmp_path):
        assert run_cli("query", "--centers", str(tmp_path / "nope.bin"),
                       "--point", "1,1,1,1") == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e300"])
    def test_bad_stream_row_exit2_without_output(self, centers_file,
                                                 monkeypatch, capsys, bad):
        import io
        lines = ["1,1,1,1", "2,1,1,0", f"1,{bad},1,1", "0,1,2,1"]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        assert run_cli("query", "--centers", str(centers_file)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "(row 2)" in err

    def test_closed_stdout_stops_quietly(self, tmp_path):
        # the reader takes 300 bytes of about 800 kB and closes the pipe
        path = tmp_path / "c.bin"
        write_scattering(build_scattering(YoungDiagram.from_rows((3, 2, 1)), 3),
                         path, "binary")
        queries = tmp_path / "q.txt"
        queries.write_text("".join(f"{i % 7 * 0.5} 1.25 {i % 3} 0.5\n"
                                   for i in range(2000)))
        with open(queries) as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "qusc.cli", "query", "--centers",
                 str(path), "--k", "4"],
                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            head = proc.stdout.read(300)
            proc.stdout.close()
            with proc.stderr:
                err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
        assert len(head) == 300
        assert err == b""

    @pytest.mark.parametrize("command,code", [
        ("generate", 0), ("verify", 0), ("verify-failing", 3), ("embed", 0)])
    def test_closed_stdout_ends_every_command_quietly(self, centers_file,
                                                      tmp_path, command, code):
        """Whatever it writes, a command whose stdout reader is gone ends
        with the exit code it would have had, and no traceback."""
        failing = tmp_path / "ratio.bin"
        write_scattering(three_centers(2), failing, "binary")
        argv = {
            "generate": ["generate", "--lambda", "3,2,1", "--levels", "1",
                         "--out", str(tmp_path / "g.bin")],
            "verify": ["verify", "--centers", str(centers_file),
                       "--stride", "1"],
            "verify-failing": ["verify", "--centers", str(failing)],
            "embed": ["embed", "--centers", str(centers_file),
                      "--out", str(tmp_path / "e.bin")]}[command]
        read, write = os.pipe()
        os.close(read)
        with open(write, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-m", "qusc.cli", *argv],
                                  stdout=stdout, stderr=subprocess.PIPE,
                                  timeout=120)
        assert proc.returncode == code
        assert b"Traceback" not in proc.stderr
        assert (proc.stderr == b"") == (code == 0)

    def test_stdin_stream_keeps_order(self, centers_file, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("1,1,1,1\n2,1,1,0\n"))
        assert run_cli("query", "--centers", str(centers_file)) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["query"] for line in out] == \
            [[1, 1, 1, 1], [2, 1, 1, 0]]


def three_centers(spread: int) -> Scattering:
    """Three centers whose squared nearest-neighbour numerators are 10**10
    and 4 * 10**10 + (spread - 1)**2: a prefix ratio of exactly 2 for
    spread 1, and of 2.000000000025 for spread 2."""
    return Scattering(YoungDiagram((300001, 0)), 0,
                      [(1, 1), (100001, 1), (300001, spread)])


class TestCliVerify:
    def test_ratio_decided_exactly(self, tmp_path, capsys):
        """A ratio within 1e-9 of 2 fails when it is above 2, and one of
        exactly 2 passes."""
        path = tmp_path / "ratio.bin"
        write_scattering(three_centers(2), path, "binary")
        assert run_cli("verify", "--centers", str(path)) == 3
        out, err = capsys.readouterr()
        assert 2.0 < json.loads(out)["euclidean_exponent"] < 2.0 + 1e-9
        assert "euclidean ratio 2.000000000025 exceeds 2" in err
        write_scattering(three_centers(1), path, "binary")
        assert run_cli("verify", "--centers", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["euclidean_exponent"] == 2.0

    def test_reports_peak_prefix_and_seconds(self, scatterings, tmp_path,
                                             capsys):
        """verify names the first prefix length where the euclidean ratio
        peaks, and the seconds the check took, whether it passes or
        fails."""
        path = tmp_path / "c.bin"
        write_scattering(scatterings[(2, 1, 1), 2], path, "binary")
        assert run_cli("verify", "--centers", str(path), "--stride", "7") == 0
        rep = json.loads(capsys.readouterr().out)
        ratios = [p["max_distance"] / p["min_distance"]
                  for p in rep["prefixes"]]
        # ratio 1 up to 12 centers, then 2 from the prefix of 14 on
        assert ratios[:3] == [1.0, 1.0, 2.0] and max(ratios) == 2.0
        assert rep["euclidean_peak_length"] == rep["prefixes"][2]["length"] \
            == 14
        assert 0 < rep["verify_seconds"] < 60
        write_scattering(three_centers(2), path, "binary")
        assert run_cli("verify", "--centers", str(path)) == 3
        rep = json.loads(capsys.readouterr().out)
        assert rep["euclidean_peak_length"] == 3
        assert 0 < rep["verify_seconds"] < 60

    def test_passes_to_level2(self, scatterings, tmp_path, capsys):
        path = tmp_path / "c.bin"
        write_scattering(scatterings[(2, 1, 1), 2], path, "binary")
        assert run_cli("verify", "--centers", str(path), "--stride", "7") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["euclidean_exponent"] <= 2.0 + 1e-9

    def test_single_level_ratio_one(self, scatterings, tmp_path, capsys):
        path = tmp_path / "c.bin"
        write_scattering(scatterings[(2, 1, 1), 0], path, "binary")
        assert run_cli("verify", "--centers", str(path)) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["euclidean_exponent"] == 1.0
        assert rep["prefixes"][-1]["min_distance"] == pytest.approx(math.sqrt(2))

    def test_duplicated_point_exit3(self, scatterings, tmp_path, capsys):
        s = scatterings[(2, 1, 1), 0]
        path = tmp_path / "c.bin"
        write_scattering(s, path, "binary")
        raw = bytearray(path.read_bytes())
        # overwrite the second record with a copy of the first
        head = struct.calcsize("<4sIIQII") + 4 * 4
        rec = 8 * 4
        raw[head + rec: head + 2 * rec] = raw[head: head + rec]
        corrupt = tmp_path / "dup.bin"
        corrupt.write_bytes(bytes(raw))
        assert run_cli("verify", "--centers", str(corrupt)) == 3
        # the infinite ratio is written as null: standard JSON, no Infinity

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rep = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert rep["euclidean_exponent"] is None

    def test_malformed_file_exit2(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"QUSC" + b"\x01" * 8)
        assert run_cli("verify", "--centers", str(bad)) == 2

    def test_zero_center_exit2(self, scatterings, tmp_path, capsys):
        s = scatterings[(2, 1, 1), 1]
        path = tmp_path / "zero.bin"
        write_scattering(Scattering(s.diagram, 1, np.vstack(
            (s.numerators, np.zeros((1, 4), dtype=np.int64)))), path, "binary")
        assert run_cli("verify", "--centers", str(path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "zero vector (center 42)" in err

    def test_negative_stride_exit2(self, scatterings, tmp_path, capsys):
        path = tmp_path / "c.bin"
        write_scattering(scatterings[(2, 1, 1), 1], path, "binary")
        assert run_cli("verify", "--centers", str(path), "--stride", "-3") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "prefix_stride must be >= 0" in err


class TestCliEmbed:
    def test_embed_appends_unit_coordinate(self, sample, tmp_path, capsys):
        src, dst = tmp_path / "c.bin", tmp_path / "e.bin"
        write_scattering(sample, src, "binary")
        assert run_cli("embed", "--centers", str(src), "--out", str(dst)) == 0
        emb = read_scattering(dst)
        assert emb.dim == 5
        assert emb.diagram.rows == (2, 1, 1, 1, 0)
        for p in emb.centers:
            assert p.values()[-1] == 1.0

    def test_embed_twice_is_two_suffix(self, sample, tmp_path):
        src, d1, d2 = (tmp_path / n for n in ("c.bin", "e1.bin", "e2.bin"))
        write_scattering(sample, src, "binary")
        assert run_cli("embed", "--centers", str(src), "--out", str(d1)) == 0
        assert run_cli("embed", "--centers", str(d1), "--out", str(d2)) == 0
        twice = read_scattering(d2)
        for p, q in zip(sample.centers, twice.centers):
            assert q.values() == p.values() + (1.0, 1.0)

    def test_embedded_is_subsequence_of_target(self, sample, tmp_path):
        src, dst = tmp_path / "c.bin", tmp_path / "e.bin"
        write_scattering(sample, src, "binary")
        run_cli("embed", "--centers", str(src), "--out", str(dst))
        emb = read_scattering(dst)
        target = build_scattering(YoungDiagram.from_rows((2, 1, 1, 1)), 1)
        first = {p: i for i, p in reversed(list(enumerate(target.centers)))}
        at = [first.get(p) for p in emb.centers]
        assert None not in at and all(a < b for a, b in zip(at, at[1:]))

    def test_embedded_file_is_queryable(self, sample, tmp_path, capsys):
        from qusc import brute_nearest
        src, dst = tmp_path / "c.bin", tmp_path / "e.bin"
        write_scattering(sample, src, "binary")
        run_cli("embed", "--centers", str(src), "--out", str(dst))
        capsys.readouterr()
        assert run_cli("query", "--centers", str(dst),
                       "--point", "2,1,1,0,1", "--k", "2") == 0
        rec = json.loads(capsys.readouterr().out)
        emb = read_scattering(dst)
        assert rec["indices"] == brute_nearest((2, 1, 1, 0, 1), emb, 2).indices


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "qusc.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_missing_required_flag_exit2(capsys, tmp_path):
    assert run_cli("generate", "--lambda", "2,1,1") == 2
    # a removed flag is an unknown one
    assert run_cli("generate", "--lambda", "2,1,1", "--levels", "1",
                   "--max-points", "17", "--whole-orbits",
                   "--out", str(tmp_path / "c.bin")) == 2
    # so is a removed subcommand
    assert run_cli("bench", "--lambda", "2,1,1", "--levels", "0") == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,option,value", [
    ("generate", "--lambda", "2_0,1"), ("generate", "--lambda", "٢,١,١"),
    ("generate", "--rank", "٣"), ("generate", "--levels", "0_0"),
    ("generate", "--levels", "٠"), ("generate", "--max-points", "٥"),
    ("generate", "--max-points", "1_2"), ("query", "--k", "٤"),
    ("query", "--k", "1_6"), ("verify", "--stride", "٧")],
    ids=["lambda-underscore", "lambda-arabic-indic", "rank-arabic-indic",
         "levels-underscore", "levels-arabic-indic", "max-points-arabic-indic",
         "max-points-underscore", "k-arabic-indic", "k-underscore",
         "stride-arabic-indic"])
def test_integer_options_read_ascii_digits_only(sample, tmp_path, capsys,
                                                command, option, value):
    """Every integer option, and each row of --lambda, is read through the
    center files' ASCII integer pattern: a "_" separator or another
    script's digit, which int() would read, exits 2 naming the option."""
    path = tmp_path / "c.bin"
    write_scattering(sample, path, "binary")
    args = {"generate": {"--lambda": "2,1,1", "--levels": "0",
                         "--out": str(tmp_path / "out.bin")},
            "query": {"--centers": str(path), "--point": "2,1,1,0"},
            "verify": {"--centers": str(path)}}[command]
    args[option] = value
    assert run_cli(command, *[a for pair in args.items() for a in pair]) == 2
    assert option in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()
