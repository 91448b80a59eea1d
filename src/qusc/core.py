"""Exact primitives: diagrams, dyadic lattice points, metric names and
polytope membership.

Everything here is integer-exact.  Distances are computed in ``search``,
and independently in ``oracle``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EUCLIDEAN = "euclidean"
COSINE = "cosine"
METRICS = (EUCLIDEAN, COSINE)

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def check_metric(kind: str) -> str:
    if kind not in METRICS:
        raise ValueError(f"unknown metric {kind!r}, expected one of {METRICS}")
    return kind


def check_int(value, name: str, low: int | None = 0) -> int:
    """value as an int of at least ``low`` (of any value where ``low`` is
    None): any integer but a bool, numpy's too, or a ValueError that names
    the argument."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


@dataclass(frozen=True)
class YoungDiagram:
    """A partition written as row lengths lambda_1 >= ... >= lambda_{n+1}.

    The row vector includes trailing zeros; the rank n of the ambient
    coordinate system is ``len(rows) - 1``.  A diagram with all rows equal is
    rejected: its polytope is a single point and carries no boundary.
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(check_int(r, "row length", None) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) < 2:
            raise ValueError("diagram needs at least two rows (incl. trailing zero)")
        if any(r < 0 for r in rows):
            raise ValueError(f"negative row length in {rows}")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ValueError(f"rows must be weakly decreasing, got {rows}")
        if len(set(rows)) == 1:
            raise ValueError(f"degenerate diagram {rows}: all rows equal")

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "YoungDiagram":
        """Build from positive row lengths, appending one empty row.

        ``from_rows((2, 1, 1))`` is the rank-3 diagram with weight vector
        (2, 1, 1, 0).  A trailing zero that is already present is kept as is.
        """
        rows = tuple(check_int(r, "row length", None) for r in rows)
        if rows and rows[-1] > 0:
            rows = rows + (0,)
        return cls(rows)

    @property
    def rank(self) -> int:
        return len(self.rows) - 1

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def boxes(self) -> int:
        return sum(self.rows)

    def prefix_sums(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.rows))

    def scaled(self, factor: int) -> "YoungDiagram":
        """The diagram with every column repeated ``factor`` times."""
        factor = check_int(factor, "scale factor", 1)
        return YoungDiagram(tuple(r * factor for r in self.rows))

    def __str__(self):
        return "(" + ",".join(str(r) for r in self.rows) + ")"


@dataclass(frozen=True, slots=True)
class ScaledPoint:
    """A lattice point with coordinates ``numerators[i] / 2**level``.

    Kept in canonical form: at level > 0 at least one numerator is odd, so
    equal rational points always compare equal.
    """

    numerators: tuple[int, ...]
    level: int = 0

    def __post_init__(self):
        # exact ints, the common case, skip the per-entry checks
        nums = tuple(self.numerators)
        if not all(type(v) is int for v in nums):
            nums = tuple([check_int(v, "numerator", None) for v in nums])
        level = self.level
        if type(level) is not int or level < 0:
            level = check_int(level, "level")
        # the lowest set bit of the numerators' bitwise or is theirs
        low = functools.reduce(operator.or_, nums, 0)
        if level and not low & 1:
            shift = min(level, (low & -low).bit_length() - 1) if low else level
            nums = tuple([v >> shift for v in nums])
            level -= shift
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "level", level)

    @property
    def dim(self) -> int:
        return len(self.numerators)

    def numerators_at(self, level: int) -> tuple[int, ...]:
        """Numerators rescaled to a coarser-than-or-equal target scale."""
        if level < self.level:
            raise ValueError(f"point at level {self.level} not representable at {level}")
        shift = level - self.level
        return tuple(v << shift for v in self.numerators)

    def values(self) -> tuple[float, ...]:
        den = float(1 << self.level)
        return tuple(v / den for v in self.numerators)

    def exact_strings(self) -> tuple[str, ...]:
        """Per-coordinate reduced "num/2^k" strings, e.g. "3/2" or "1"."""
        return tuple(str(Fraction(v, 1 << self.level))
                     for v in self.numerators)

    def __str__(self):
        return "(" + ",".join(self.exact_strings()) + ")"


class PointView(Sequence):
    """The rows of an (n, d) int64 numerator matrix at scale 2**level, read
    as ScaledPoints.  A point is made when it is read; a slice is a view of
    the same matrix, which the view holds read-only.  It compares and
    hashes like the tuple of its points."""

    __slots__ = ("numerators", "level")

    def __init__(self, numerators: np.ndarray, level: int):
        self.numerators = numerators.view()
        self.numerators.flags.writeable = False
        self.level = level

    def __len__(self):
        return len(self.numerators)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PointView(self.numerators[i], self.level)
        return ScaledPoint(self.numerators[i].tolist(), self.level)

    def __iter__(self):
        level = self.level
        return (ScaledPoint(row, level) for row in self.numerators.tolist())

    def __eq__(self, other):
        if isinstance(other, PointView) and other.level == self.level:
            return bool(np.array_equal(self.numerators, other.numerators))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"PointView({len(self)} points at level {self.level})"


def membership(p: ScaledPoint, lam: YoungDiagram) -> str:
    """Classify a lattice point against the weight polytope of ``lam``.

    Uses the majorization test on the descending rearrangement, so the result
    is invariant under coordinate permutations of ``p``.
    """
    if p.dim != lam.dim:
        raise ValueError(f"point dim {p.dim} != diagram dim {lam.dim}")
    caps = [c << p.level for c in lam.prefix_sums()]
    sums = list(itertools.accumulate(sorted(p.numerators, reverse=True)))
    if sums[-1] != caps[-1] or any(a > c for a, c in zip(sums, caps)):
        return OUTSIDE
    # a tight proper prefix puts the point on a facet
    tight = any(a == c for a, c in zip(sums[:-1], caps))
    return BOUNDARY if tight else INTERIOR


def polytope_center(lam: YoungDiagram) -> tuple[float, ...]:
    """Barycenter of the weight polytope, the unique permutation-fixed point."""
    c = lam.boxes / lam.dim
    return (c,) * lam.dim
