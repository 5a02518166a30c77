"""The package's 14 value records behave as the frozen dataclasses they replaced.

Each record is built twice from equal inputs, through the pipeline where
it comes from one and is not cached there.  Frozen records refuse
assignment and deletion; JobSpec stays mutable and unhashable.  Equal
records hash alike, records of different types are never equal, and
pickle and copy give back an equal record.  Record.__init__ binds
positional and keyword arguments to the slots in order, fills in a
record's defaults, and refuses a bad call with TypeError as a function
would.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from torsol import DiscreteSet, IntervalUnion
from torsol.cli import JobSpec, _spec_echo
from torsol.discrete import KernelParametrization, parametrize_kernel
from torsol.intmat import DegenerateColumn, IntMatrix, MatrixProfile, analyze_matrix
from torsol.kernel_geometry import (
    CentralSectionResult,
    KernelComponent,
    KernelDecomposition,
    SliceLeaf,
    WeightedShift,
    central_section_check,
    enumerate_components,
    shift_cover,
    slice_leaves,
)
from torsol.measures import MeasureReport, decompose, solution_measure
from torsol.records import Record
from torsol.removal_lab import RemovalOutcome, greedy_removal

AP4 = [[1, -2, 1, 0], [0, 1, -2, 1]]
PINNED = [[2, 2, 0], [0, 0, 4]]
HALVES = [[(F(0), F(1, 2))], [(F(1, 4), F(3, 4))], [(F(0), F(1, 2))], [(F(1, 2), F(1))]]


def sets():
    return [IntervalUnion(pairs) for pairs in HALVES]


def fresh_decomposition():
    return enumerate_components.__wrapped__(IntMatrix(AP4))


def fresh_leaf():
    decomp = fresh_decomposition()
    comp = next(c for c in decomp.components if c.volume_param)
    return next(slice_leaves(decomp, comp, [[(F(0), F(1))]] * 4))


# each record with its first field and a builder of a fresh instance
RECORDS = {
    JobSpec: ("command", lambda: JobSpec("measure", matrix_path="m.json", sets_path="s.json")),
    KernelParametrization: ("p", lambda: parametrize_kernel.__wrapped__(IntMatrix(AP4), 7)),
    DegenerateColumn: ("column", lambda: analyze_matrix.__wrapped__(IntMatrix(PINNED)).degenerate_columns[0]),
    IntMatrix: ("entries", lambda: IntMatrix(AP4)),
    MatrixProfile: ("rank", lambda: analyze_matrix.__wrapped__(IntMatrix(PINNED))),
    KernelComponent: ("level", lambda: fresh_decomposition().components[1]),
    KernelDecomposition: ("matrix", fresh_decomposition),
    WeightedShift: ("p", lambda: WeightedShift(p=7, j=(0, 1, 2, 3), lam=F(1, 6), level=(0, -1))),
    SliceLeaf: ("size", fresh_leaf),
    CentralSectionResult: ("vol_param", lambda: central_section_check(IntMatrix(AP4))),
    MeasureReport: ("value", lambda: solution_measure(IntMatrix(AP4), sets())),
    RemovalOutcome: ("removed", lambda: greedy_removal(IntMatrix(AP4), 7, [s.snap_to_grid(7) for s in sets()])),
    IntervalUnion: ("intervals", lambda: IntervalUnion(HALVES[1])),
    DiscreteSet: ("p", lambda: DiscreteSet(5, [1, 0, 1, 1, 0])),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    name, build = RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    value = getattr(a, name)
    if cls is JobSpec:
        with pytest.raises(TypeError):
            hash(a)
        a.command = "decompose"
        assert a.command == "decompose" and a != b
        a.command = value
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(copied) is cls and copied == a
    others = [other_build() for other, (_, other_build) in RECORDS.items() if other is not cls]
    assert all(a != other and not a == other for other in others)


def test_records_of_different_types_with_equal_fields_differ():
    shift = WeightedShift(p=7, j=(0,), lam=F(1), level=(0,))
    assert shift != (7, (0,), F(1), (0,))
    assert IntervalUnion(HALVES[0]) != HALVES[0]


def test_decomposition_equality_ignores_vertices():
    decomp = fresh_decomposition()
    bare = KernelDecomposition(
        matrix=decomp.matrix,
        basis_columns=decomp.basis_columns,
        components=decomp.components,
        total_volume_param=decomp.total_volume_param,
        c_param=decomp.c_param,
    )
    assert bare._vertices is None and decomp._vertices
    assert bare == decomp and hash(bare) == hash(decomp)
    assert repr(bare) == repr(decomp) and "_vertices" not in repr(decomp)
    restored = pickle.loads(pickle.dumps(decomp))
    assert restored._vertices == decomp._vertices
    assert restored._by_level == decomp._by_level


def test_reprs_read_as_dataclass_reprs():
    mat = IntMatrix([[1, 1, -1]])
    decomp = enumerate_components(mat)
    assert repr(mat) == "IntMatrix(entries=((1, 1, -1),))"
    assert repr(decomp.components[0]) == (
        "KernelComponent(level=(0,), representative=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
        "volume_param=Fraction(1, 2))"
    )
    assert repr(shift_cover(decomp, 5)[0]) == "WeightedShift(p=5, j=(0, 0, 0), lam=Fraction(1, 2), level=(0,))"
    assert repr(MeasureReport(value=F(1, 2), route="geometric")) == (
        "MeasureReport(value=Fraction(1, 2), route='geometric', p_used=None, per_shift=None, "
        "ci99=None, n_samples=None, seed=None, workers=None)"
    )


def test_spec_echo_keeps_field_order():
    spec = JobSpec("decompose", matrix_path="m.json", sets_path="s.json", p=7)
    assert list(_spec_echo(spec)) == [
        "command", "matrix_path", "sets_path", "p", "samples", "seed", "workers", "format", "mode",
    ]


def test_dataclasses_functions_still_read_records():
    # callers that import dataclasses themselves may still replace and convert records
    report = decompose(IntMatrix(AP4), 7, [s.snap_to_grid(7) for s in sets()])
    shifted = dataclasses.replace(report, value=report.value + 1)
    assert type(shifted) is MeasureReport and shifted.value == report.value + 1
    assert shifted.per_shift == report.per_shift and shifted.p_used == 7
    assert [f.name for f in dataclasses.fields(report)][:3] == ["value", "route", "p_used"]
    assert dataclasses.asdict(JobSpec("kernel", matrix_path="m.json"))["matrix_path"] == "m.json"


# the records whose arguments Record.__init__ binds; the other three validate theirs
BOUND = [cls for cls in RECORDS if cls not in (IntMatrix, IntervalUnion, DiscreteSet)]


def test_only_validating_or_deriving_records_write_a_constructor():
    own = {cls for cls in RECORDS if "__init__" in vars(cls)}
    assert own == {IntMatrix, IntervalUnion, DiscreteSet, KernelDecomposition}


@pytest.mark.parametrize("cls", BOUND, ids=lambda cls: cls.__name__)
def test_arguments_bind_to_slots_in_order(cls):
    record = RECORDS[cls][1]()
    values = [getattr(record, name) for name in cls._params]
    assert cls(*values) == record
    assert cls(**dict(zip(cls._params, values))) == record
    assert cls(*values[:2], **dict(zip(cls._params[2:], values[2:]))) == record
    assert cls(**dict(reversed(list(zip(cls._params, values))))) == record


@pytest.mark.parametrize("cls", BOUND, ids=lambda cls: cls.__name__)
def test_bad_calls_raise_type_error(cls):
    record = RECORDS[cls][1]()
    values = [getattr(record, name) for name in cls._params]
    first = cls._params[0]
    with pytest.raises(TypeError, match=f"missing required arguments: '{first}'"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**dict(zip(cls._params[1:], values[1:])), bogus=values[0])
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, None)


def test_defaults_of_jobspec_report_and_decomposition():
    spec = JobSpec("measure")
    assert [getattr(spec, name) for name in JobSpec.__slots__] == [
        "measure", None, None, None, 100000, 0, 1, "json", "exhaustive", None,
    ]
    report = MeasureReport(F(1, 2), "geometric")
    assert [getattr(report, name) for name in MeasureReport.__slots__] == [F(1, 2), "geometric"] + [None] * 6
    decomp = fresh_decomposition()
    bare = KernelDecomposition(decomp.matrix, decomp.basis_columns, decomp.components, decomp.total_volume_param, decomp.c_param)
    assert bare._vertices is None and bare._by_level == decomp._by_level
    with pytest.raises(TypeError):
        KernelDecomposition(*(getattr(decomp, name) for name in KernelDecomposition.__slots__))




def test_records_without_fields():
    """Empty or all-private slots make a field-less record: it builds, equals its own type, hashes and shows as Name()."""

    class Base(Record):
        __slots__ = ()

    class Hidden(Record):
        __slots__ = ("_note",)

    class Child(Base):
        __slots__ = ("a",)

    def shown(record):
        return repr(record).rsplit(".", 1)[-1]  # the class is local: its qualified name has a prefix

    assert Base() == Base() and hash(Base()) == hash(()) and shown(Base()) == "Base()"
    assert Hidden(1) == Hidden(2) and hash(Hidden(1)) == hash(()) and shown(Hidden(1)) == "Hidden()"
    assert Hidden(1)._note == 1 and Base() != Hidden(1)
    assert Child(1) == Child(a=1) != Child(2) and shown(Child(1)) == "Child(a=1)" and Child(1) != Base()
    with pytest.raises(TypeError, match="positional arguments but"):
        Base(1)
