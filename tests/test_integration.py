"""End-to-end fuzz: random and structured matrices through the whole stack.

The slice enumeration carries a built-in exact cross-check (total parameter
volume against the product of Smith invariants), so running it together
with the cover, the weight partition and both measure routes on arbitrary
matrices is a strong integration oracle.
"""

import random
from fractions import Fraction as F

import pytest

from torsol import (
    DiscreteSet,
    IntervalUnion,
    IntMatrix,
    decompose,
    enumerate_components,
    parametrize_kernel,
    shift_cover,
    solution_measure,
)
from torsol.discrete import list_solutions, solution_density
from torsol.errors import BadModulusError, InvalidInputError
from torsol.intmat import is_prime
from torsol.kernel_geometry import product_measure, weight
from torsol.measures import monte_carlo_estimate
from torsol.polytope import HPolytope
from torsol.rationals import int_from_json, parse_rational
from torsol.removal_lab import (
    density_search,
    density_trend,
    find_violating_boxes,
    greedy_removal,
    szemeredi_probe,
)

from oracles import random_full_rank_matrix, random_grid_sets, suitable_prime

NASTY = [
    [[2, 2]],
    [[3, 6]],
    [[0, 1, 0]],
    [[2, 0, 2]],
    [[4, 6]],
    [[1, 1, 0], [0, 0, 2]],
    [[2, 2, 0], [0, 0, 3]],
    [[1, 2, 3, 4], [0, 1, 2, 3]],
    [[5, 1, 0], [0, 0, 1]],
    [[-1, -1, 1]],
    [[2, -2]],
]


def _full_stack(mat, rng):
    decomp = enumerate_components(mat)  # exact Smith cross-check inside
    p = suitable_prime(mat)
    cover = shift_cover(decomp, p)
    assert sum(sh.lam for sh in cover) == 1
    assert all(sh.lam > 0 for sh in cover)
    sets = random_grid_sets(rng, p, mat.cols, density=0.5)
    assert solution_measure(mat, sets).value == decompose(mat, p, sets).value
    assert product_measure(decomp, [s.intervals for s in sets]) == decompose(mat, p, sets).value


def test_structured_matrices_full_stack():
    rng = random.Random(404)
    for entries in NASTY:
        _full_stack(IntMatrix(entries), rng)


def test_random_matrices_full_stack():
    rng = random.Random(405)
    for _ in range(12):
        r = rng.randint(1, 2)
        m = rng.randint(r + 1, 5)
        _full_stack(random_full_rank_matrix(rng, r, m), rng)


_SUM3 = IntMatrix([[1, 1, -1]])
_AP3 = IntMatrix([[1, -2, 1]])
_GRID = [IntervalUnion([(F(0), F(2, 5))])] * 3
_MEMBERS = [DiscreteSet(5, [1, 1, 0, 0, 0])] * 3
_LISTS = [[1, 1, 0, 0, 0]] * 3


def _decomp():
    return enumerate_components(_SUM3)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: decompose(_SUM3, 5.0, _GRID), BadModulusError, id="decompose-p"),
        pytest.param(lambda: shift_cover(_decomp(), 7.0), BadModulusError, id="shift_cover-p"),
        pytest.param(
            lambda: shift_cover(_decomp(), True),
            BadModulusError,
            id="shift_cover-bool-p",
        ),
        pytest.param(
            lambda: solution_density(_SUM3, 5.0, _MEMBERS),
            BadModulusError,
            id="solution_density-p",
        ),
        pytest.param(
            lambda: solution_density(_SUM3, 5.0, _LISTS),
            InvalidInputError,
            id="solution_density-p-of-lists",
        ),
        pytest.param(lambda: density_search(_SUM3, 7.0), BadModulusError, id="density_search-p"),
        pytest.param(lambda: density_trend(_SUM3, [5.0]), BadModulusError, id="density_trend-p"),
        # the modulus is checked before the exhaustive limit compares it with 22
        pytest.param(
            lambda: density_search(_SUM3, "7"), BadModulusError, id="density_search-str-p"
        ),
        pytest.param(
            lambda: density_search(_SUM3, None), BadModulusError, id="density_search-none-p"
        ),
        pytest.param(
            lambda: density_trend(_SUM3, ["7"]), BadModulusError, id="density_trend-str-p"
        ),
        pytest.param(
            lambda: find_violating_boxes(_SUM3, 5, _MEMBERS),
            InvalidInputError,
            id="find_violating_boxes-discrete-sets",
        ),
        pytest.param(
            lambda: find_violating_boxes(_SUM3, 5, [[(0, F(2, 5))]] * 3),
            InvalidInputError,
            id="find_violating_boxes-pair-lists",
        ),
        pytest.param(
            lambda: greedy_removal(_SUM3, 5, _MEMBERS),
            InvalidInputError,
            id="greedy_removal-discrete-sets",
        ),
        pytest.param(
            lambda: greedy_removal(_SUM3, 5, [[(0, F(2, 5))]] * 3),
            InvalidInputError,
            id="greedy_removal-pair-lists",
        ),
        pytest.param(
            lambda: find_violating_boxes(_SUM3, 5.0, _GRID),
            InvalidInputError,
            id="find_violating_boxes-p",
        ),
        pytest.param(lambda: weight(_decomp(), (0, 0, 0), 5.0), InvalidInputError, id="weight-p"),
        pytest.param(lambda: DiscreteSet(5.0, [1] * 5), InvalidInputError, id="DiscreteSet-p"),
        pytest.param(
            lambda: DiscreteSet.from_indices(5.0, [1]),
            InvalidInputError,
            id="from_indices-p",
        ),
        pytest.param(
            lambda: DiscreteSet.from_indices(5, [1.0]),
            InvalidInputError,
            id="from_indices-float-index",
        ),
        pytest.param(
            lambda: DiscreteSet.from_indices(5, ["1"]),
            InvalidInputError,
            id="from_indices-str-index",
        ),
        pytest.param(
            lambda: DiscreteSet.from_indices(5, [True]),
            InvalidInputError,
            id="from_indices-bool-index",
        ),
        pytest.param(lambda: _GRID[0].contains(0.1), InvalidInputError, id="contains-float"),
        pytest.param(lambda: _GRID[0].contains(True), InvalidInputError, id="contains-bool"),
        pytest.param(lambda: _GRID[0].shift(0.1), InvalidInputError, id="shift-float"),
        pytest.param(lambda: _GRID[0].shift(True), InvalidInputError, id="shift-bool"),
        pytest.param(lambda: _GRID[0].to_discrete(5.0), InvalidInputError, id="to_discrete-p"),
        pytest.param(lambda: _GRID[0].snap_to_grid(5.0), InvalidInputError, id="snap_to_grid-n"),
        pytest.param(
            lambda: szemeredi_probe(_AP3, F(1, 2), 1.5, 0),
            InvalidInputError,
            id="szemeredi_probe-trials",
        ),
        pytest.param(
            lambda: szemeredi_probe(_AP3, F(1, 2), True, 0),
            InvalidInputError,
            id="szemeredi_probe-bool-trials",
        ),
        pytest.param(
            lambda: list_solutions(_SUM3, 5, _MEMBERS, limit=2.5),
            InvalidInputError,
            id="list_solutions-limit",
        ),
        pytest.param(
            lambda: list_solutions(_SUM3, 5, _MEMBERS, limit=True),
            InvalidInputError,
            id="list_solutions-bool-limit",
        ),
        pytest.param(
            lambda: monte_carlo_estimate(_SUM3, _GRID, 10.5, 0),
            InvalidInputError,
            id="monte_carlo-n_samples",
        ),
    ],
)
def test_non_integer_moduli_and_counts_are_refused(call, error):
    with pytest.raises(error):
        call()
    assert not any(is_prime(v) for v in (5.0, 2.0, True, F(5), "5"))


def test_cached_parametrizations_admit_no_float_or_bool_moduli():
    # an untyped cache let 5.0 read the entry of 5, and True that of 1, past the prime check
    parametrize_kernel(_SUM3, 5)
    shift_cover(_decomp(), 5)
    decompose(_SUM3, 5, _GRID)
    solution_density(_SUM3, 5, _MEMBERS)
    with pytest.raises(BadModulusError):
        parametrize_kernel(_SUM3, 1)
    for bad, members in ((5.0, _MEMBERS), (True, [DiscreteSet(1, [True])] * 3)):
        calls = (
            lambda: parametrize_kernel(_SUM3, bad),
            lambda: shift_cover(_decomp(), bad),
            lambda: decompose(_SUM3, bad, _GRID),
            lambda: solution_density(_SUM3, bad, members),
        )
        for call in calls:
            with pytest.raises(BadModulusError):
                call()


_AP3_PROBE = IntMatrix([[1, -2, 1]])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: IntervalUnion([(False, True)]), id="IntervalUnion-bools"),
        pytest.param(lambda: IntervalUnion([(0.1, 0.5)]), id="IntervalUnion-floats"),
        pytest.param(lambda: IntervalUnion([(0, 0.5)]), id="IntervalUnion-exact-float"),
        pytest.param(lambda: IntervalUnion([(F(1, 4), 1.0)]), id="IntervalUnion-float-one"),
        pytest.param(lambda: HPolytope(1, [((1,), 0.5)]), id="HPolytope-float-bound"),
        pytest.param(lambda: HPolytope(1, [((1.0,), 1)]), id="HPolytope-float-normal"),
        pytest.param(lambda: HPolytope(1, [((True,), 1)]), id="HPolytope-bool-normal"),
        pytest.param(lambda: HPolytope(1, [((1,), False)]), id="HPolytope-bool-bound"),
        pytest.param(lambda: szemeredi_probe(_AP3_PROBE, 0.5, 1, 0), id="szemeredi_probe-float-alpha"),
        pytest.param(lambda: szemeredi_probe(_AP3_PROBE, True, 1, 0), id="szemeredi_probe-bool-alpha"),
    ],
)
def test_bool_and_float_rationals_are_refused(call):
    # (False, True) was once the full circle, and 0.1 became 3602879701896397/2^55
    with pytest.raises(InvalidInputError):
        call()


def test_exact_rationals_still_accepted():
    assert IntervalUnion([(0, "1/3"), (F(1, 2), 1)]).intervals == ((0, F(1, 3)), (F(1, 2), 1))
    assert HPolytope(1, [((1,), "1/2"), ((F(-1),), 0)]).constraints == (((1,), F(1, 2)), ((-1,), 0))
    best, _ = szemeredi_probe(_AP3_PROBE, "1/2", 1, 0)
    assert best == szemeredi_probe(_AP3_PROBE, F(1, 2), 1, 0)[0] > 0
    assert [int_from_json(v) for v in ("0", "-12", "007", str(2**80))] == [0, -12, 7, 2**80]
    assert [parse_rational(v) for v in ("3", "-3", "2/4", "-0/5")] == [3, -3, F(1, 2), 0]


# strings that int() or Fraction() would read but the file formats do not allow
_NOT_ASCII_INTEGERS = ["1_000", "\u0663", "\uff17", " 7 ", "7\n", "+5"]


@pytest.mark.parametrize("text", _NOT_ASCII_INTEGERS)
def test_integer_strings_must_be_ascii_digits(text):
    with pytest.raises(InvalidInputError):
        int_from_json(text)


@pytest.mark.parametrize("text", _NOT_ASCII_INTEGERS + ["1_0/3", " 1/2", "+1/2", "0.5", ".5", "5.", "1e3", "1E3"])
def test_rational_strings_must_be_ascii_n_or_n_over_d(text):
    with pytest.raises(InvalidInputError):
        parse_rational(text)
