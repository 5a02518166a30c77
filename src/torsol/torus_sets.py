"""Measurable subsets of the circle as finite unions of rational intervals.

A set is stored as a normalized (sorted, disjoint, non-adjacent) tuple of
half-open intervals [a, b) with exact rational endpoints in [0, 1].  All
set algebra (complement, union, intersection by De Morgan's law, symmetric
difference, shift around the circle) stays exact.  Sets aligned to a 1/p
grid correspond to subsets of Z_p and convert back and forth losslessly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Integral

from .errors import GridAlignmentError, InvalidInputError, PreconditionError
from .rationals import format_rational, parse_rational, require_int
from .records import Record

__all__ = ["IntervalUnion", "DiscreteSet", "from_discrete", "sets_to_json", "sets_from_json"]

# the most cells a membership array over Z_p may have
MEMBERSHIP_LIMIT = 1 << 24


def require_grid(p) -> int:
    """p as the length of a membership array: an int in [1, MEMBERSHIP_LIMIT]."""
    require_int("grid modulus", p, 1)
    if p > MEMBERSHIP_LIMIT:
        raise PreconditionError(
            f"grid modulus {p} exceeds {MEMBERSHIP_LIMIT}: a set over Z_p would need a membership array of {p} cells"
        )
    return p


def _normalize(pairs) -> tuple[tuple[Fraction, Fraction], ...]:
    items = []
    for a, b in pairs:
        a, b = parse_rational(a), parse_rational(b)
        if not (0 <= a < b <= 1):
            raise InvalidInputError(f"interval [{a}, {b}) not inside [0, 1]")
        items.append((a, b))
    items.sort()
    return _merge(items)


def _merge(items) -> tuple[tuple[Fraction, Fraction], ...]:
    """Blocks sorted by their left ends, with the overlapping and touching ones merged."""
    merged: list[list[Fraction]] = []
    for a, b in items:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def _cell(v: Fraction, p: int) -> int:
    """The grid index v p of an endpoint v on the 1/p grid."""
    k, rest = divmod(v.numerator * p, v.denominator)
    if rest:
        raise GridAlignmentError(f"endpoint {format_rational(v)} is not a multiple of 1/{p}", endpoint=v)
    return k


def _fill(blocks, p: int) -> bytearray:
    """Membership bytes over Z_p of integer blocks: byte x is 1 when lo <= x < hi for a block (lo, hi)."""
    cells = bytearray(p)
    for lo, hi in blocks:
        cells[lo:hi] = b"\x01" * (hi - lo)
    return cells


class IntervalUnion(Record):
    """Normalized finite union of half-open rational intervals in the circle.

    Endpoints, points and shifts are ints, Fractions or "n/d" strings; bools
    and floats raise InvalidInputError (0.1 is not 1/10, and (False, True)
    is no interval).  A frozen Record.
    """

    __slots__ = ("intervals",)
    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, pairs=()):
        object.__setattr__(self, "intervals", _normalize(pairs))

    @classmethod
    def _of(cls, intervals) -> "IntervalUnion":
        """The set of a tuple of blocks that is normalized already, taken as it is."""
        out = object.__new__(cls)
        object.__setattr__(out, "intervals", intervals)
        return out

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls(((Fraction(0), Fraction(1)),))

    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def contains(self, x) -> bool:
        x = parse_rational(x) % 1
        return any(a <= x < b for a, b in self.intervals)

    def complement(self) -> "IntervalUnion":
        out = []
        cursor = Fraction(0)
        for a, b in self.intervals:
            if cursor < a:
                out.append((cursor, a))
            cursor = b
        if cursor < 1:
            out.append((cursor, Fraction(1)))
        return IntervalUnion._of(tuple(out))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion._of(_merge(sorted(self.intervals + other.intervals)))  # Timsort merges the two runs

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.complement().union(other.complement()).complement()

    def symmetric_difference(self, other: "IntervalUnion") -> "IntervalUnion":
        both = self.intersect(other)
        return self.union(other).intersect(both.complement())

    def shift(self, t) -> "IntervalUnion":
        """Rotate the set by t around the circle (wraps modulo 1)."""
        t = parse_rational(t) % 1
        out = []
        for a, b in self.intervals:
            a, b = a + t, b + t
            if b <= 1:
                out.append((a, b))
            elif a >= 1:
                out.append((a - 1, b - 1))
            else:
                out.append((a, Fraction(1)))
                out.append((Fraction(0), b - 1))
        return IntervalUnion(out)

    def snap_to_grid(self, n: int) -> "IntervalUnion":
        """Inner approximation by whole cells [x/n, (x+1)/n).

        The symmetric difference with the original has measure at most
        2 * (number of intervals) / n.
        """
        require_int("grid modulus", n, 1)
        out = []
        for a, b in self.intervals:
            first = math.ceil(a * n)
            last = math.floor(b * n)
            if first < last:
                out.append((Fraction(first, n), Fraction(last, n)))
        return IntervalUnion(out)

    def is_grid_aligned(self, p: int) -> bool:
        return all((a * p).denominator == 1 and (b * p).denominator == 1 for a, b in self.intervals)

    def cells(self, p: int) -> bytearray:
        """Membership bytes of a p-grid-aligned set: byte x is 1 when [x/p, (x+1)/p) lies in it.

        One slice assignment per block (_fill); an endpoint off the grid
        raises GridAlignmentError.  The Z_p counter reads these bytes as
        they are.
        """
        p = require_grid(p)
        return _fill([(_cell(a, p), _cell(b, p)) for a, b in self.intervals], p)

    def to_discrete(self, p: int) -> "DiscreteSet":
        """Subset of Z_p matching a p-grid-aligned set cell by cell: its cells as bools."""
        return DiscreteSet(p, map(bool, self.cells(p)))

    def density_points(self) -> list[tuple[Fraction, Fraction]]:
        """Points of local density 1: the interior of the closure.

        Each maximal closed block [a, b] (merging across 0 when the set
        wraps) contributes the open interval (a, b); a wrapping block is
        reported with b > 1 and is to be read modulo 1.  The full circle is
        reported as (0, 1).
        """
        if not self.intervals:
            return []
        blocks = [list(iv) for iv in self.intervals]
        if len(blocks) > 1 and blocks[0][0] == 0 and blocks[-1][1] == 1:
            first = blocks.pop(0)
            blocks[-1][1] = first[1] + 1
        return [(a, b) for a, b in blocks]

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(f"[{format_rational(a)},{format_rational(b)})" for a, b in self.intervals)


class DiscreteSet(Record):
    """Subset of Z_p as a boolean membership array of length p; a frozen Record."""

    __slots__ = ("p", "members")
    members: tuple[bool, ...]

    def __init__(self, p: int, members):
        require_int("modulus", p, 1)
        members = tuple(members)
        if len(members) != p:
            raise InvalidInputError(f"membership array must have length {p}")
        if not set(map(type, members)) <= {bool}:
            if not all(isinstance(v, Integral) and v in (0, 1) for v in members):
                raise InvalidInputError("membership entries must be bool or 0/1")
            members = tuple(map(bool, members))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_indices(cls, p: int, indices) -> "DiscreteSet":
        members = [False] * require_grid(p)
        for x in indices:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InvalidInputError(f"index {x!r} is not an integer")
            members[x % p] = True
        return cls(p, members)

    def indices(self) -> list[int]:
        return [x for x, inside in enumerate(self.members) if inside]

    def size(self) -> int:
        return sum(self.members)

    def to_interval_union(self) -> IntervalUnion:
        """One interval [start/p, end/p) per run of members."""
        runs = re.finditer(rb"\x01+", bytes(self.members))
        return IntervalUnion([(Fraction(r.start(), self.p), Fraction(r.end(), self.p)) for r in runs])


def from_discrete(dset: DiscreteSet) -> IntervalUnion:
    return dset.to_interval_union()


def sets_to_json(sets) -> list:
    return [
        [[format_rational(a), format_rational(b)] for a, b in s.intervals] for s in sets
    ]


def sets_from_json(data) -> list[IntervalUnion]:
    if not isinstance(data, list):
        raise InvalidInputError("sets JSON must be a list of sets")
    out = []
    for entry in data:
        if not isinstance(entry, list):
            raise InvalidInputError(f"set {entry!r} must be a list of intervals")
        pairs = []
        for pair in entry:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InvalidInputError(f"interval {pair!r} must have two endpoints")
            pairs.append((parse_rational(pair[0]), parse_rational(pair[1])))
        out.append(IntervalUnion(pairs))
    return out
