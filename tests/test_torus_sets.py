import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsol import DiscreteSet, IntMatrix, IntervalUnion, approximation_bound, from_discrete, sets_from_json, sets_to_json
from torsol.errors import GridAlignmentError, InvalidInputError, PreconditionError
from torsol.torus_sets import MEMBERSHIP_LIMIT


def iv(*pairs):
    return IntervalUnion([(F(a), F(b)) for a, b in pairs])


@st.composite
def interval_unions(draw, max_parts=4, max_den=24):
    parts = []
    for _ in range(draw(st.integers(0, max_parts))):
        den = draw(st.integers(1, max_den))
        a = draw(st.integers(0, den - 1))
        b = draw(st.integers(a + 1, den))
        parts.append((F(a, den), F(b, den)))
    return IntervalUnion(parts)


def test_normalization_merges_and_sorts():
    a = IntervalUnion([(F(1, 4), F(1, 2)), (F(0), F(1, 4))])
    assert a.intervals == ((F(0), F(1, 2)),)
    b = IntervalUnion([(F(0), F(1, 3)), (F(1, 4), F(1, 2))])
    assert b.intervals == ((F(0), F(1, 2)),)


def test_measure_examples():
    assert iv((0, F(1, 2))).measure() == F(1, 2)
    assert IntervalUnion.full().measure() == 1
    assert IntervalUnion.empty().measure() == 0


def test_symmetric_difference_example():
    a = iv((0, F(1, 3)))
    b = iv((0, F(2, 7)))
    d = a.symmetric_difference(b)
    assert d.intervals == ((F(2, 7), F(1, 3)),)
    assert d.measure() == F(1, 21)


def test_shift_wraparound_example():
    a = iv((F(5, 6), 1), (0, F(1, 6)))
    assert a.shift(F(1, 6)).intervals == ((F(0), F(1, 3)),)


def test_bad_interval_rejected():
    with pytest.raises(InvalidInputError):
        IntervalUnion([(F(1, 2), F(1, 4))])
    with pytest.raises(InvalidInputError):
        IntervalUnion([(F(-1, 4), F(1, 4))])


def test_snap_examples():
    a = iv((0, F(1, 3)))
    s = a.snap_to_grid(7)
    assert s.intervals == ((F(0), F(2, 7)),)
    assert a.symmetric_difference(s).measure() == F(1, 21)

    b = iv((0, F(1, 2)))
    assert b.snap_to_grid(10) == b

    c = iv((F(1, 7), F(2, 7)))
    s = c.snap_to_grid(3)
    assert s.is_empty()
    assert c.symmetric_difference(s).measure() == F(1, 7)


def test_to_discrete_examples():
    assert iv((0, F(2, 5))).to_discrete(5).indices() == [0, 1]
    assert IntervalUnion.full().to_discrete(7).indices() == list(range(7))
    assert iv((F(1, 5), F(2, 5)), (F(4, 5), 1)).to_discrete(5).indices() == [1, 4]


def test_to_discrete_rejects_misaligned():
    with pytest.raises(GridAlignmentError, match="1/3"):
        iv((0, F(1, 3))).to_discrete(5)


def test_cells_are_the_membership_bytes():
    # the bytes the counter reads, against the drawn cells and the DiscreteSet's bools:
    # empty, full and seeded sets, p = 1 included; each call hands out a fresh bytearray
    rng = random.Random(17)
    cases = [(IntervalUnion.empty(), (False,) * p) for p in (1, 2, 13)]
    cases += [(IntervalUnion.full(), (True,) * p) for p in (1, 2, 13)]
    for p in (1, 2, 3, 7, 13, 101, 1009):
        for density in (0.1, 0.5, 0.9):
            members = tuple(rng.random() < density for _ in range(p))
            cases.append((DiscreteSet(p, members).to_interval_union(), members))
    for s, members in cases:
        p = len(members)
        cells = s.cells(p)
        assert isinstance(cells, bytearray) and cells.count(1) + cells.count(0) == p
        assert tuple(map(bool, cells)) == members == s.to_discrete(p).members
        assert s.cells(p) is not cells
    assert IntervalUnion.full().cells(1) == b"\x01" and IntervalUnion.empty().cells(1) == b"\x00"
    assert iv((F(1, 5), F(2, 5)), (F(4, 5), 1)).cells(5) == b"\x00\x01\x00\x00\x01"
    for p in (2, 4, 5):
        with pytest.raises(GridAlignmentError, match="1/3"):
            iv((0, F(1, 3))).cells(p)
    with pytest.raises(GridAlignmentError, match=r"2/7 is not a multiple of 1/5"):
        iv((F(1, 5), F(2, 7))).cells(5)


def test_the_first_endpoint_off_the_grid_is_named():
    """cells and to_discrete name the first misaligned endpoint, in block order and left end before right end.

    The message names it, and the error carries it as .endpoint.
    """
    cases = [
        (iv((F(1, 5), F(2, 5)), (F(1, 2), F(2, 3))), F(1, 2)),  # both ends of the second block off
        (iv((F(1, 5), F(1, 3)), (F(1, 2), F(3, 5))), F(1, 3)),  # a right end before a later left end
        (iv((F(1, 7), F(1, 3))), F(1, 7)),
        (iv((0, F(1, 5)), (F(2, 5), F(5, 7))), F(5, 7)),
    ]
    for s, first in cases:
        for convert in (s.cells, s.to_discrete):
            with pytest.raises(GridAlignmentError, match=f"^endpoint {first} is not a multiple of 1/5$") as err:
                convert(5)
            assert err.value.endpoint == first


def test_membership_arrays_longer_than_the_limit_are_refused():
    # refused before the array is allocated
    for p in (MEMBERSHIP_LIMIT + 1, 2**61 - 1):
        with pytest.raises(PreconditionError, match=f"exceeds {MEMBERSHIP_LIMIT}"):
            IntervalUnion.full().to_discrete(p)
        with pytest.raises(PreconditionError, match=f"exceeds {MEMBERSHIP_LIMIT}"):
            DiscreteSet.from_indices(p, [0])


def test_density_points_examples():
    a = IntervalUnion([(F(0), F(1, 4)), (F(1, 4), F(1, 2))])
    assert a.density_points() == [(F(0), F(1, 2))]
    assert iv((F(1, 3), F(2, 3))).density_points() == [(F(1, 3), F(2, 3))]
    wrap = iv((F(5, 6), 1), (0, F(1, 6)))
    assert wrap.density_points() == [(F(5, 6), F(7, 6))]
    assert IntervalUnion.full().density_points() == [(F(0), F(1))]
    assert IntervalUnion.empty().density_points() == []


def test_density_points_measure_preserved():
    a = iv((0, F(1, 8)), (F(1, 4), F(3, 8)), (F(7, 8), 1))
    total = sum(b - x for x, b in a.density_points())
    assert total == a.measure()


@settings(max_examples=120, deadline=None)
@given(interval_unions())
def test_complement_measure(a):
    assert a.measure() + a.complement().measure() == 1
    assert a.complement().complement() == a


@settings(max_examples=120, deadline=None)
@given(interval_unions(), interval_unions())
def test_symdiff_inclusion_exclusion(a, b):
    expected = a.measure() + b.measure() - 2 * a.intersect(b).measure()
    assert a.symmetric_difference(b).measure() == expected


@settings(max_examples=120, deadline=None)
@given(interval_unions(), st.integers(-40, 40), st.integers(1, 24))
def test_shift_preserves_measure(a, num, den):
    t = F(num, den)
    assert a.shift(t).measure() == a.measure()
    assert a.shift(t).shift(-t) == a


@settings(max_examples=120, deadline=None)
@given(interval_unions(), st.integers(1, 40))
def test_snap_bound_and_inner(a, n):
    s = a.snap_to_grid(n)
    assert s.is_grid_aligned(n)
    assert s.intersect(a) == s  # inner approximation
    assert a.symmetric_difference(s).measure() <= F(2 * len(a.intervals), n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.lists(st.integers(0, 29), max_size=12))
def test_discrete_roundtrip(p, idx):
    d = DiscreteSet.from_indices(p, [x % p for x in idx])
    assert from_discrete(d).to_discrete(p) == d
    # p-grid-aligned interval unions roundtrip the other way
    a = from_discrete(d)
    assert a.to_discrete(p).to_interval_union() == a


def test_union_intersect_basic():
    a = iv((0, F(1, 2)))
    b = iv((F(1, 4), F(3, 4)))
    assert a.union(b).intervals == ((F(0), F(3, 4)),)
    assert a.intersect(b).intervals == ((F(1, 4), F(1, 2)),)


def test_str_lists_the_blocks():
    assert str(iv((0, F(1, 2)), (F(3, 4), 1))) == "[0,1/2) u [3/4,1)"
    assert str(IntervalUnion.empty()) == "{}"


def test_set_algebra_at_scale_matches_the_membership_bytes():
    """Intersection, union and symmetric difference of ~250-block sets on the 1009-grid, cell by cell.

    The bytewise and, or and xor of the operands' cells are the oracle.
    The approximation bound is the differing cells over p.
    """
    p, rng = 1009, random.Random(5)
    sets = [DiscreteSet(p, [rng.random() < 0.5 for _ in range(p)]).to_interval_union() for _ in range(6)]
    assert min(len(s.intervals) for s in sets) > 200
    differing = 0
    for a, b in zip(sets[:3], sets[3:]):
        ca, cb = a.cells(p), b.cells(p)
        assert a.intersect(b).cells(p) == bytes(x & y for x, y in zip(ca, cb))
        assert a.union(b).cells(p) == bytes(x | y for x, y in zip(ca, cb))
        assert a.symmetric_difference(b).cells(p) == bytes(x ^ y for x, y in zip(ca, cb))
        differing += sum(x != y for x, y in zip(ca, cb))
    assert approximation_bound(IntMatrix([[1, 1, -1]]), sets[:3], sets[3:]) == F(differing, p) == F(1542, p)


def test_contains():
    a = iv((F(1, 4), F(1, 2)))
    assert a.contains(F(1, 4))
    assert not a.contains(F(1, 2))
    assert not a.contains(F(3, 4))


def test_sets_json_roundtrip():
    sets = [iv((0, F(1, 2))), iv((F(1, 3), F(2, 3)), (F(5, 6), 1))]
    data = sets_to_json(sets)
    assert data[0] == [["0", "1/2"]]
    assert sets_from_json(data) == sets
    with pytest.raises(InvalidInputError):
        sets_from_json([[["oops", "1/2"]]])


def test_sets_json_refuses_booleans():
    # [false, true] was once read as the full set [0, 1)
    for pair in ([False, True], [0, True], ["0", False]):
        with pytest.raises(InvalidInputError, match="rational"):
            sets_from_json([[pair]])
