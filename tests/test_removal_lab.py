import random
import warnings
from fractions import Fraction as F

import pytest

from torsol import (
    DiscreteSet,
    IntMatrix,
    IntervalUnion,
    density_search,
    density_trend,
    find_violating_boxes,
    greedy_removal,
    solution_measure,
    szemeredi_probe,
    zero_measure_check,
)
from torsol import discrete, removal_lab
from torsol.errors import InvalidInputError, PositiveMeasureError, PreconditionError

from oracles import (
    brute_max_free_density,
    enumerated_greedy,
    enumerated_violating,
    pairwise_minimal_supports,
    random_grid_sets,
)

SUM3 = IntMatrix([[1, 1, -1]])
AP3 = IntMatrix([[1, -2, 1]])
AP4 = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])
R4 = IntMatrix([[2, 3, -1, 5]])
AP5 = IntMatrix([[1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1]])
PINNED = IntMatrix([[1, 1, 0], [0, 0, 2]])
PINNED_SCALED = IntMatrix([[2, 2, 0], [0, 0, 4]])


def iv(*pairs):
    return IntervalUnion([(F(a), F(b)) for a, b in pairs])


TWO_FIFTHS = iv((0, F(2, 5)))


def test_find_violating_boxes_worked_example():
    boxes, witness = find_violating_boxes(SUM3, 5, [TWO_FIFTHS] * 3)
    assert {j for j, _ in boxes} == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1)}
    assert all(lam == F(1, 2) for _, lam in boxes)
    assert witness is not None
    assert all(TWO_FIFTHS.contains(v) for v in witness)
    lx = SUM3.apply_fraction(witness)
    assert all(v.denominator == 1 for v in lx)


def test_find_violating_boxes_sum_free_snap():
    sets = [iv((F(2, 7), F(4, 7)))] * 3
    assert solution_measure(SUM3, sets).value == 0
    boxes, witness = find_violating_boxes(SUM3, 7, sets)
    assert boxes == []
    assert witness is None


def test_find_violating_boxes_empty_sets():
    boxes, witness = find_violating_boxes(SUM3, 5, [IntervalUnion.empty()] * 3)
    assert boxes == []


def test_freeness_soundness_random():
    rng = random.Random(3)
    for _ in range(10):
        sets = random_grid_sets(rng, 7, 3)
        boxes, _ = find_violating_boxes(SUM3, 7, sets)
        measure = solution_measure(SUM3, sets).value
        assert (not boxes) == (measure == 0)


def test_greedy_removal_worked_example():
    out = greedy_removal(SUM3, 5, [TWO_FIFTHS] * 3)
    assert out.iterations == 2
    assert out.removed_measures == (F(2, 5), F(0), F(0))
    assert out.removed[0] == TWO_FIFTHS
    assert out.removed[1].is_empty() and out.removed[2].is_empty()
    assert out.verified_free


def test_greedy_removal_already_free():
    sets = [iv((F(2, 7), F(4, 7)))] * 3
    out = greedy_removal(SUM3, 7, sets)
    assert out.iterations == 0
    assert all(s.is_empty() for s in out.removed)
    assert out.verified_free


def test_greedy_removal_full_circles_terminates():
    out = greedy_removal(SUM3, 5, [IntervalUnion.full()] * 3)
    assert out.verified_free
    assert sum(out.removed_measures, F(0)) < 3


def test_greedy_removal_postcondition_random():
    rng = random.Random(5)
    for p in (5, 7, 11):
        for _ in range(4):
            sets = random_grid_sets(rng, p, 3)
            out = greedy_removal(SUM3, p, sets)
            assert out.verified_free
            remaining = [
                s.intersect(e.complement()) for s, e in zip(sets, out.removed)
            ]
            assert solution_measure(SUM3, remaining).value == 0
            boxes, _ = find_violating_boxes(SUM3, p, remaining)
            assert boxes == []


def _seeded_cases():
    """Seeded grid sets, sparse and dense, on every matrix the removal lab is run on."""
    rng = random.Random(12)
    moduli = [
        (SUM3, 5), (SUM3, 11), (AP3, 7), (AP4, 5), (AP4, 7), (R4, 13),
        (AP5, 5), (AP5, 7), (PINNED, 3), (PINNED, 7), (PINNED_SCALED, 5), (PINNED_SCALED, 7),
    ]
    return [(mat, p, random_grid_sets(rng, p, mat.cols, density)) for mat, p in moduli for density in (0.4, 0.8)]


def test_violating_boxes_match_enumeration():
    # walking the free coordinates' members lists the same boxes, in the same order
    listed = 0
    for mat, p, sets in _seeded_cases():
        boxes, _ = find_violating_boxes(mat, p, sets)
        assert boxes == enumerated_violating(mat, p, sets), (mat.entries, p)
        listed += len(boxes)
    assert listed >= 500, listed


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "free-tuples"])
def test_greedy_removal_matches_enumeration(monkeypatch, packed):
    # the counted greedy removes the cells that the enumerating greedy removes, in the same order
    real_incidences = removal_lab._incidences
    snapshots = []

    def violating(*args):
        raise AssertionError("boxes listed by the greedy")

    def incidences(mat, p, members, cover):
        snapshots.append([list(arr) for arr in members])
        return real_incidences(mat, p, members, cover)

    monkeypatch.setattr(removal_lab, "_violating", violating)
    monkeypatch.setattr(removal_lab, "_incidences", incidences)
    if not packed:
        monkeypatch.setattr(discrete, "_PACKED_BITS_LIMIT", 0)
    rounds = 0
    for mat, p, sets in _seeded_cases():
        snapshots.clear()
        out = greedy_removal(mat, p, sets)
        cells = enumerated_greedy(mat, p, sets)
        order = [
            next((i, x) for i, (a, b) in enumerate(zip(before, after)) for x in range(p) if a[x] != b[x])
            for before, after in zip(snapshots, snapshots[1:])
        ]
        assert order == cells, (mat.entries, p)
        assert out.iterations == len(cells)
        assert [set(e.to_discrete(p).indices()) for e in out.removed] == [
            {x for i, x in cells if i == k} for k in range(mat.cols)
        ]
        assert out.verified_free
        rounds += len(cells)
    assert rounds >= 50, rounds


def test_greedy_removal_ap5_counts_over_the_free_tuples(monkeypatch):
    """AP5 at p = 53 on 60%-dense sets: the cost model walks the free tuples, and the
    outcome is the one the packed leave-one-out vectors gave."""

    def refuse(*args):
        raise AssertionError("packed count vector built")

    monkeypatch.setattr(discrete, "_packed_counts", refuse)
    rng = random.Random(2)
    sets = [DiscreteSet(53, [rng.random() < 0.6 for _ in range(53)]).to_interval_union() for _ in range(5)]
    out = greedy_removal(AP5, 53, sets)
    assert out.verified_free
    assert out.iterations == 29
    assert out.removed_measures == (F(29, 53), 0, 0, 0, 0)
    assert out.removed[0].to_discrete(53).indices() == [
        2, 3, 7, 10, 11, 12, 13, 17, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32, 35, 42, 45, 48, 49, 50, 52
    ]


def test_zero_measure_check_worked_example():
    third = iv((F(1, 3), F(2, 3)))
    density_sets, empty = zero_measure_check(SUM3, [third] * 3)
    assert empty
    assert density_sets == [[(F(1, 3), F(2, 3))]] * 3


def test_zero_measure_check_empty_factor():
    sets = [IntervalUnion.empty(), IntervalUnion.full(), IntervalUnion.full()]
    density_sets, empty = zero_measure_check(SUM3, sets)
    assert empty
    assert density_sets[0] == []


def test_zero_measure_check_rejects_positive_with_witness():
    half = iv((0, F(1, 2)))
    with pytest.raises(PositiveMeasureError) as exc:
        zero_measure_check(AP3, [half] * 3)
    w = exc.value.witness
    assert w is not None
    assert all(half.contains(v) for v in w)
    lw = AP3.apply_fraction(w)
    assert all(v.denominator == 1 for v in lw)
    assert exc.value.value == F(1, 8)


def test_zero_measure_check_after_removal():
    rng = random.Random(7)
    for _ in range(5):
        sets = random_grid_sets(rng, 7, 3)
        out = greedy_removal(SUM3, 7, sets)
        remaining = [s.intersect(e.complement()) for s, e in zip(sets, out.removed)]
        _, empty = zero_measure_check(SUM3, remaining)
        assert empty


def test_szemeredi_probe_includes_half_interval():
    best, best_set = szemeredi_probe(AP3, F(1, 2), trials=10, seed=2)
    assert 0 < best <= F(1, 8)
    assert best_set.measure() >= F(1, 2)


def test_szemeredi_probe_alpha_one():
    best, best_set = szemeredi_probe(AP3, F(1), trials=3, seed=2)
    assert best == 1
    assert best_set.measure() == 1


def test_szemeredi_probe_rejects_non_invariant():
    with pytest.raises(PreconditionError):
        szemeredi_probe(SUM3, F(1, 2), trials=2, seed=1)


@pytest.mark.parametrize("alpha", [F(0), F(3, 2)])
def test_szemeredi_probe_alpha_outside_the_unit_interval_refused(alpha):
    with pytest.raises(InvalidInputError, match=r"alpha must be in \(0, 1\]"):
        szemeredi_probe(AP3, alpha, trials=2, seed=1)


def test_density_search_exhaustive_p5():
    dens, best = density_search(SUM3, 5)
    assert dens == F(2, 5)
    assert best.size() == 2


def test_density_search_matches_brute_oracle():
    for p in (5, 7, 11):
        dens, best = density_search(SUM3, p)
        oracle_dens, _ = brute_max_free_density(SUM3.entries, p)
        assert dens == oracle_dens
        # the returned set really is solution-free
        members = set(best.indices())
        for a in members:
            for b in members:
                assert (a + b) % p not in members


def test_density_search_local_matches_exhaustive():
    for p in (7, 11, 13):
        ex, _ = density_search(SUM3, p, mode="exhaustive")
        loc, _ = density_search(SUM3, p, mode="local", seed=4)
        assert loc == ex


def test_density_search_local_never_exceeds_exhaustive():
    for p in (5, 7, 11):
        ex, _ = density_search(SUM3, p, mode="exhaustive")
        loc, _ = density_search(SUM3, p, mode="local", seed=9)
        assert loc <= ex


def test_density_search_invariant_warns_zero():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dens, best = density_search(AP3, 11)
    assert dens == 0
    assert best.size() == 0
    assert any("invariant" in str(w.message) for w in caught)


def test_density_search_unknown_mode_refused():
    with pytest.raises(InvalidInputError, match="unknown mode 'greedy'"):
        density_search(SUM3, 5, mode="greedy")


def test_density_search_exhaustive_size_guard():
    with pytest.raises(PreconditionError):
        density_search(SUM3, 23, mode="exhaustive")


def test_density_search_deterministic_local():
    a = density_search(SUM3, 17, mode="local", seed=11)
    b = density_search(SUM3, 17, mode="local", seed=11)
    assert a == b


# (matrix, primes): m - r = 3 for R4, [[1,1,-1,-2]] and the 2 x 5 matrix; p > 64 at r = 1 and r = 2
_EDGE_CASES = [
    ([[1, 1, -1]], (2, 3, 5, 7, 11, 13, 67)),
    ([[1, 1, -3]], (5, 7, 11, 71)),
    ([[2, 3, -1, 5]], (7, 11, 13, 17)),
    ([[1, 1, -1, -2]], (5, 7, 11, 13)),
    ([[2, 1, -1]], (5, 13, 73)),
    ([[1, -2, 1]], (5, 67)),
    ([[1, -2, 1, 0], [0, 1, -2, 1]], (7, 13)),
    ([[1, 1, 0], [0, 0, 2]], (3, 67)),
    ([[1, 2, -1, 0, 1], [0, 1, 1, -2, 1]], (7, 11)),
    ([[1, 3, 4], [4, 1, 5]], (13,)),
]


@pytest.mark.parametrize("rows, p", [(rows, p) for rows, ps in _EDGE_CASES for p in ps])
def test_edges_are_the_pairwise_minimal_supports(rows, p):
    param = discrete.parametrize_kernel(IntMatrix(rows), p)
    assert removal_lab._edges_mod_p(param, len(rows[0])) == pairwise_minimal_supports(param, len(rows[0]))


@pytest.mark.parametrize(
    "rows, p, members",
    [
        ([[1, 1, -1]], 67, [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 46, 48, 50, 52, 54, 56, 58, 60, 62, 64, 66]),
        ([[1, 1, -1]], 71, [2, 3, 8, 9, 13, 14, 19, 20, 24, 25, 30, 35, 36, 41, 46, 47, 51, 52, 57, 58, 62, 63, 68, 69]),
        ([[1, 1, -3]], 67, [3, 8, 14, 19, 20, 25, 31, 36, 42, 47, 48, 53, 59, 64]),
        ([[1, 1, -3]], 71, [2, 9, 16, 23, 27, 30, 34, 37, 41, 48, 55, 59, 62, 66]),
    ],
)
def test_density_search_local_above_64_is_pinned(rows, p, members):
    # the answers of a local search over all supports, which a set avoids
    # exactly when it avoids the minimal ones
    dens, best = density_search(IntMatrix(rows), p, mode="local", seed=0)
    assert dens == F(len(members), p)
    assert best.indices() == members


def test_density_trend_rows():
    rows = density_trend(SUM3, [5, 7])
    assert rows[0] == (5, 2, 5, 0.4)
    assert rows[1][0] == 7 and F(rows[1][1], rows[1][2]) == F(2, 7)
