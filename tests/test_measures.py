import random
import sys
import time
from fractions import Fraction as F

import pytest

from torsol import (
    DiscreteSet,
    IntMatrix,
    IntervalUnion,
    approximation_bound,
    box_measure,
    decompose,
    find_positive_witness,
    monte_carlo_estimate,
    solution_measure,
)
from torsol import discrete, intmat, kernel_geometry, measures
from torsol.discrete import _count_plan, _packed_cost, _packed_counts
from torsol.errors import (
    BadModulusError,
    DegenerateColumnsError,
    GridAlignmentError,
    InternalInvariantError,
    InvalidInputError,
    PreconditionError,
)
from torsol.measures import _SAMPLE_LIMIT, _count_identity, _identity_plan
from torsol.kernel_geometry import enumerate_components
from torsol.torus_sets import MEMBERSHIP_LIMIT

from oracles import (
    random_block_sets,
    random_full_rank_matrix,
    random_grid_sets,
    random_pinned_matrix,
    random_run_sets,
    scan_witness,
)

SUM3 = IntMatrix([[1, 1, -1]])
AP3 = IntMatrix([[1, -2, 1]])
AP4 = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])
R4 = IntMatrix([[2, 3, -1, 5]])
AP5 = IntMatrix([[1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1]])
PINNED = IntMatrix([[1, 1, 0], [0, 0, 2]])
PINNED_SCALED = IntMatrix([[2, 2, 0], [0, 0, 4]])
SMITH = IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]])
D3 = IntMatrix([[1, 2, -1, 0, 1], [0, 1, 1, -2, 1]])
M3X7 = IntMatrix([[1, -1, 2, -1, 3, 2, 3], [2, 2, 1, -3, 3, 0, 3], [-2, 2, -3, -2, -3, -1, 0]])


def iv(*pairs):
    return IntervalUnion([(F(a), F(b)) for a, b in pairs])


HALF = iv((0, F(1, 2)))
THIRD = iv((F(1, 3), F(2, 3)))
TWO_FIFTHS = iv((0, F(2, 5)))


def test_full_space_measure_one():
    assert solution_measure(SUM3, [IntervalUnion.full()] * 3).value == 1
    assert solution_measure(AP4, [IntervalUnion.full()] * 4).value == 1


def test_benchmark_halves():
    assert solution_measure(SUM3, [HALF] * 3).value == F(1, 8)
    assert solution_measure(AP3, [HALF] * 3).value == F(1, 8)


def test_benchmark_sum_free_middle_third():
    assert solution_measure(SUM3, [THIRD] * 3).value == 0


def test_benchmark_two_fifths_both_routes():
    geo = solution_measure(SUM3, [TWO_FIFTHS] * 3)
    dec = decompose(SUM3, 5, [TWO_FIFTHS] * 3)
    assert geo.value == F(2, 25)
    assert dec.value == F(2, 25)
    per = {tuple(j): (lam, s) for j, lam, s in dec.per_shift}
    assert per[(0, 0, 0)] == (F(1, 2), F(3, 25))
    assert per[(0, 0, 1)] == (F(1, 2), F(1, 25))
    # per_shift is a read-only sequence of the triples, equal to their tuple
    triples = tuple(dec.per_shift)
    assert len(dec.per_shift) == 2 and dec.per_shift[-1] == triples[-1]
    assert dec.per_shift[::-1] == triples[::-1]
    again = decompose(SUM3, 5, [TWO_FIFTHS] * 3)
    assert again == dec and hash(again) == hash(dec) and dec.per_shift == triples
    assert repr(dec.per_shift) == repr(triples)


def test_decompose_full_and_empty():
    assert decompose(SUM3, 5, [IntervalUnion.full()] * 3).value == 1
    empty = decompose(SUM3, 5, [IntervalUnion.empty()] * 3)
    assert empty.value == 0
    assert [dens for _j, _lam, dens in empty.per_shift] == [0, 0]


def test_decompose_requires_aligned_sets():
    with pytest.raises(GridAlignmentError):
        decompose(SUM3, 5, [iv((0, F(1, 3)))] * 3)


def test_decompose_names_the_first_endpoint_off_the_grid():
    """Sets in order, blocks in order, left end before right end; a bad modulus is refused before any set is read."""
    both = iv((F(1, 5), F(2, 5)), (F(1, 2), F(2, 3)))
    right = iv((F(1, 5), F(1, 3)), (F(1, 2), F(3, 5)))
    for sets, first in (([TWO_FIFTHS, both, right], F(1, 2)), ([TWO_FIFTHS, right, both], F(1, 3))):
        with pytest.raises(GridAlignmentError, match=f"^endpoint {first} is not a multiple of 1/5$") as err:
            decompose(SUM3, 5, sets)
        assert err.value.endpoint == first
        for p, reason in ((6, "not prime"), (3, "too small"), (5.0, "not prime")):
            with pytest.raises(BadModulusError, match=reason):
                decompose(SUM3, p, sets)


def walk(mat, sets):
    """The walker alone: product_measure on the sets' blocks."""
    return kernel_geometry.product_measure(enumerate_components(mat), [s.intervals for s in sets])


def refuse_counts(*args):
    raise AssertionError("built the packed counts")


def test_route_agreement_randomized():
    rng = random.Random(7)
    for mat in (SUM3, AP3):
        for p in (5, 7, 11):
            for _ in range(4):
                sets = random_grid_sets(rng, p, mat.cols)
                assert solution_measure(mat, sets).value == decompose(mat, p, sets).value
                assert walk(mat, sets) == decompose(mat, p, sets).value
    for _ in range(2):
        sets = random_grid_sets(rng, 5, 4)
        assert solution_measure(AP4, sets).value == decompose(AP4, 5, sets).value
        assert walk(AP4, sets) == decompose(AP4, 5, sets).value
    sets = random_block_sets(rng, 101, 3)
    assert solution_measure(SUM3, sets).value == decompose(SUM3, 101, sets).value
    assert walk(SUM3, sets) == decompose(SUM3, 101, sets).value


def test_route_agreement_at_large_moduli(monkeypatch):
    """Both exact routes at the benchmark's moduli, with up to 3 blocks per set.

    AP5 at p = 307 (r = 3) would need a packed count vector of ~0.6 GB;
    decompose counts it over the free tuples instead, and solution_measure
    walks the slices.
    """
    rng = random.Random(307)
    for mat, p, counts in ((SUM3, 307, (1, 2, 3)), (AP4, 101, (1, 2, 2, 3)), (AP5, 307, (1, 2, 1, 2, 1))):
        for _ in range(2):
            order = rng.sample(counts, len(counts))
            sets = random_run_sets(rng, p, order)
            assert [len(s.intervals) for s in sets] == order
            dec = decompose(mat, p, sets)
            with monkeypatch.context() as patch:
                if mat is AP5:
                    patch.setattr(measures, "_packed_counts", refuse_counts)
                assert dec.value == solution_measure(mat, sets).value
            assert walk(mat, sets) == dec.value
            assert sum(lam for _j, lam, _s in dec.per_shift) == 1


def test_solution_measure_equals_the_walker_on_random_instances(monkeypatch):
    """solution_measure against the walker alone on 320 seeded instances.

    r <= 3, m <= 6, entries in -2..2 (zero columns included), every other
    matrix with a pinned column, sets of one or two runs on a grid q <= 12,
    prime or composite.  At least half the answers come from the count
    identity, which shares no code with the walker.
    """
    rng = random.Random(26)
    counted = []
    packed = measures._packed_counts
    monkeypatch.setattr(measures, "_packed_counts", lambda *args: counted.append(args[0].q) or packed(*args))
    for n in range(320):
        r = rng.randint(1, 3)
        m = rng.randint(r + 1, 6)
        mat = (random_pinned_matrix if n % 2 else random_full_rank_matrix)(rng, r, m, -2, 2)
        q = rng.randint(2, 12)
        sets = random_run_sets(rng, q, [rng.randint(1, 1 + (q > 3)) for _ in range(m)])
        assert solution_measure(mat, sets).value == walk(mat, sets), (mat.entries, q)
    assert len(counted) >= 160 and {4, 6, 8, 9, 10, 12} <= set(counted)


def test_small_grids_run_both_routes(monkeypatch):
    # q^m <= 200: the walker and the count identity both run and must agree
    calls = []
    for name in ("product_measure", "_packed_counts"):
        real = getattr(measures, name)
        monkeypatch.setattr(measures, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assert solution_measure(SUM3, [TWO_FIFTHS] * 3).value == F(2, 25)
    assert solution_measure(AP4, [HALF] * 4).value == F(1, 12)
    assert calls == ["product_measure", "_packed_counts"] * 2
    monkeypatch.setattr(measures, "product_measure", lambda decomp, grid: F(0))
    with pytest.raises(InternalInvariantError, match="count identity"):
        solution_measure(SUM3, [TWO_FIFTHS] * 3)


def test_huge_grids_are_walked():
    """Sets on the 2^26 grid, past MEMBERSHIP_LIMIT, get the walker's value with no membership bytes."""
    q = 2**26
    assert q > MEMBERSHIP_LIMIT
    sets = [iv((0, F(q // 2 + 1, q))), iv((F(1, 3), F(5, 6))), iv((F(3, q), F(1, 2)), (F(3, 4), 1))]
    assert solution_measure(SUM3, sets).value == walk(SUM3, sets) > 0
    sets.append(iv((F(1, q), F(2, 3))))
    assert solution_measure(AP4, sets).value == walk(AP4, sets) > 0


def test_dense_d4_sets_are_counted(monkeypatch):
    """The 3 x 7 matrix (d = 4) on dense 17-grid sets: the count identity answers, no slice is walked."""
    rng = random.Random(1)
    sets = [DiscreteSet(17, [rng.random() < 0.5 for _ in range(17)]).to_interval_union() for _ in range(7)]

    def refuse(*args):
        raise AssertionError("walked the slices")

    monkeypatch.setattr(kernel_geometry, "slice_leaves", refuse)
    assert solution_measure(M3X7, sets).value == decompose(M3X7, 17, sets).value


def test_dense_ap5_sets_are_walked(monkeypatch):
    """AP5 on dense 29-grid sets: the walker's estimate prunes the block products, so it answers, with no counts."""
    rng = random.Random(1)
    sets = [DiscreteSet(29, [rng.random() < 0.5 for _ in range(29)]).to_interval_union() for _ in range(5)]
    expected = decompose(AP5, 29, sets).value
    monkeypatch.setattr(measures, "_packed_counts", refuse_counts)
    assert solution_measure(AP5, sets).value == expected > 0


def benchmark_sets(rng, q, counts):
    """q-grid-aligned sets as perfbench's grid_set draws them: set i is counts[i] separated runs over 30-60% of the cells."""
    out = []
    for k in counts:
        cells = min(max(k, round(rng.uniform(0.3, 0.6) * q)), q - k + 1)
        cuts = sorted(rng.sample(range(1, cells), k - 1))
        lengths = [b - a for a, b in zip((0, *cuts), (*cuts, cells))]
        spare = q - cells - (k - 1)
        marks = sorted(rng.randint(0, spare) for _ in range(k))
        gaps = [b - a for a, b in zip((0, *marks), (*marks, spare))]
        x, pairs = gaps[0], []
        for length, gap in zip(lengths, gaps[1:]):
            pairs.append((F(x, q), F(x + length, q)))
            x += length + 1 + gap
        out.append(IntervalUnion(pairs))
    return out


def test_benchmark_side_and_route_choices(monkeypatch):
    """The side decompose counts on and the route solution_measure takes, for each job kind of the benchmark.

    20 seeded rounds of sets drawn as the benchmark draws them, with its runs
    per set.  decompose takes the packed side for SUM3 and AP3 at 211 and 307
    and for R4 at 37 and 53, and the free side for AP4 at 101.
    solution_measure counts SUM3 and AP3 at q = 7, 11 and 13, AP4 at q = 5
    to 13 and R4 at 13, and runs both routes for SUM3 and AP3 at q = 5,
    where q^m <= 200.  Each choice is pinned by refusing the other path.
    """

    def refuse(*args):
        raise AssertionError("took the other path")

    runs = {SUM3: (1, 2, 3), AP3: (1, 2, 3), AP4: (1, 2, 2, 3), R4: (1, 2, 2, 3)}
    zp_runs = {**runs, R4: (1, 1, 1, 2)}
    packed = [(SUM3, 211), (SUM3, 307), (AP3, 211), (AP3, 307), (R4, 37), (R4, 53)]
    decomposed = [(mat, p, "_free_tuple_counts") for mat, p in packed] + [(AP4, 101, "_packed_counts")]
    counted = [(mat, q, "product_measure") for mat in (SUM3, AP3) for q in (7, 11, 13)]
    counted += [(AP4, q, "product_measure") for q in (5, 7, 11, 13)] + [(R4, 13, "product_measure")]
    rng = random.Random(29)
    for _ in range(20):
        for mat, p, other in decomposed:
            sets = benchmark_sets(rng, p, rng.sample(zp_runs[mat], mat.cols))
            with monkeypatch.context() as patch:
                patch.setattr(discrete, other, refuse)
                decompose(mat, p, sets)
        for mat, q, other in counted:
            sets = benchmark_sets(rng, q, rng.sample(runs[mat], mat.cols))
            with monkeypatch.context() as patch:
                patch.setattr(measures, other, refuse)
                solution_measure(mat, sets)
        for mat in (SUM3, AP3):
            calls = []
            with monkeypatch.context() as patch:
                for name in ("product_measure", "_packed_counts"):
                    real = getattr(measures, name)
                    patch.setattr(measures, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
                solution_measure(mat, benchmark_sets(rng, 5, rng.sample(runs[mat], 3)))
            assert calls == ["product_measure", "_packed_counts"]


def packed_counts(mat, q, members, slots):
    """_packed_counts at these slots, as wide as _packed_cost makes them for the sets' sizes."""
    plan = _count_plan(mat, q)
    return _packed_counts(plan, members, slots, _packed_cost(plan, [arr.count(1) for arr in members])[1])


def count_identity(mat, q, sets):
    """c_param / q^(m-r) * sum_b vol_b N_q(-b), with N_q the packed counts of the sets mod q at slots of its own."""
    decomp = enumerate_components(mat)
    slots = [_count_plan(mat, q).slot([-v for v in b]) for b in decomp._by_level]
    return _count_identity(_identity_plan(mat, q), packed_counts(mat, q, [s.to_discrete(q).members for s in sets], slots))


def test_count_identity_matches_block_sum():
    """The count identity equals the geometric route at any grid q, also past its self-check's gate.

    Composite q, q at most the row bound (several levels in one class mod q),
    pinned matrices, the Smith matrix and a d = 3 matrix.
    """
    rng = random.Random(9)
    cases = [(SUM3, 5), (AP3, 6), (SUM3, 7), (PINNED, 4), (PINNED_SCALED, 4)]
    cases += [(SUM3, 2), (SUM3, 4), (AP3, 3), (AP3, 4), (IntMatrix([[2, 1, -1]]), 6), (R4, 6), (R4, 9)]
    cases += [(AP4, 4), (AP4, 6), (PINNED, 6), (PINNED_SCALED, 3), (SMITH, 4), (D3, 3)]
    for mat, q in cases:
        for _ in range(6):
            sets = random_grid_sets(rng, q, mat.cols)
            assert count_identity(mat, q, sets) == solution_measure(mat, sets).value, (mat.entries, q)
            assert count_identity(mat, q, sets) == walk(mat, sets), (mat.entries, q)


def dense_sets(rng, q, m):
    return [DiscreteSet(q, [rng.random() < 0.5 for _ in range(q)]).to_interval_union() for _ in range(m)]


def frames_entered(call, *args) -> int:
    """The sys.setprofile "call" events of one call: each Python frame it enters, each generator resume included."""
    entered, previous = [], sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and entered.append(frame.f_code.co_name))
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return len(entered)


def test_one_warm_call_enters_few_python_frames():
    """The Python frames that one warm call enters, on the benchmark's job shapes, within the counts of 3.10 and 3.11.

    decompose on SUM3 at p = 211, AP4 at 101 and R4 at 37, and
    solution_measure on SUM3 and AP4 with sets on the 13-grid.  On 3.10
    and 3.11 every comprehension, generator expression, generator resume
    and property enters a frame of its own, at about 0.2 us each; the code
    of one call avoids them.  3.12 inlines comprehensions and enters fewer.
    The per-matrix caches are emptied first, so that the warm call keys
    them on this module's matrices: a lookup that finds an equal matrix
    of another test enters IntMatrix.__eq__.
    """
    for cached in (enumerate_components, kernel_geometry._shift_cover, _identity_plan, _count_plan, discrete.parametrize_kernel):
        cached.cache_clear()
    rng = random.Random(35)
    cases = [
        (decompose, (SUM3, 211, random_run_sets(rng, 211, (1, 2, 3))), 36),
        (decompose, (AP4, 101, random_run_sets(rng, 101, (2, 1, 3, 2))), 64),
        (decompose, (R4, 37, random_run_sets(rng, 37, (1, 2, 1, 1))), 35),
        (solution_measure, (SUM3, random_run_sets(rng, 13, (3, 1, 2))), 36),
        (solution_measure, (AP4, random_run_sets(rng, 13, (2, 2, 1, 3))), 46),
    ]
    for call, args, budget in cases:
        call(*args)  # fills every cache the call reads
        assert frames_entered(call, *args) <= budget, (call.__name__, args[0].entries)


def test_count_plans_are_built_once_per_matrix_and_modulus(monkeypatch):
    """A second decompose, and a second counted solution_measure, on new sets at the same (L, q) build no plan."""
    counted = []
    packed = measures._packed_counts
    monkeypatch.setattr(measures, "_packed_counts", lambda *args: counted.append(args[0].q) or packed(*args))
    rng = random.Random(28)
    for call, mat, q in ((decompose, R4, 53), (decompose, AP4, 101), (solution_measure, R4, 17), (solution_measure, AP4, 16)):
        args = (mat, q) if call is decompose else (mat,)
        call(*args, dense_sets(rng, q, mat.cols))
        before = [plan.cache_info() for plan in (_count_plan, _identity_plan)]
        call(*args, dense_sets(rng, q, mat.cols))
        after = [plan.cache_info() for plan in (_count_plan, _identity_plan)]
        assert [a.misses for a in after] == [b.misses for b in before], (call.__name__, mat.entries, q)
        assert all(a.hits > b.hits for a, b in zip(after, before)), (call.__name__, mat.entries, q)
    assert counted == [17, 17, 16, 16]


def test_count_plans_key_on_the_modulus_type():
    """True and 5.0 never read the plans of 1 and 5: True builds its own, and a float fails in math.gcd."""
    for plan in (_count_plan, _identity_plan):
        assert plan(SUM3, True) is not plan(SUM3, 1)
        plan(SUM3, 5)
        with pytest.raises(TypeError):
            plan(SUM3, 5.0)
    assert _count_plan(SUM3, True).q is True and _count_plan(SUM3, 1).q is not True
    for p in (True, 5.0):
        with pytest.raises(BadModulusError):
            decompose(SUM3, p, [HALF] * 3)


def test_cold_and_warm_plans_give_the_same_reports():
    rng = random.Random(5)
    cases = [(SUM3, 307), (AP4, 101), (R4, 37), (M3X7, 17)]
    inputs = [(mat, p, dense_sets(rng, p, mat.cols)) for mat, p in cases]
    for clear in (True, False):
        if clear:
            _count_plan.cache_clear()
            _identity_plan.cache_clear()
        reports = [(decompose(mat, p, sets), solution_measure(mat, sets)) for mat, p, sets in inputs]
        if clear:
            cold = reports
    for (dec, geo), (dec_cold, geo_cold) in zip(reports, cold):
        assert (dec, geo) == (dec_cold, geo_cold)
        assert tuple(dec.per_shift) == tuple(dec_cold.per_shift) and dec.value == geo.value


def test_planned_identity_at_composite_grids():
    """At q = 12 and 16 the identity read at the plan's slots equals the walker, levels sharing a class mod q too."""
    rng = random.Random(12)
    for mat in (SUM3, AP3, AP4, R4, PINNED, PINNED_SCALED, SMITH, IntMatrix([[2, 1, -1]])):
        for q in (12, 16):
            plan = _identity_plan(mat, q)
            for sets in (random_grid_sets(rng, q, mat.cols), dense_sets(rng, q, mat.cols)):
                value = _count_identity(plan, packed_counts(mat, q, [s.cells(q) for s in sets], plan[1]))
                assert value == walk(mat, sets) == count_identity(mat, q, sets), (mat.entries, q)


def test_composite_worked_example():
    """SUM3 on [0, 1/3), [1/4, 3/4) and [1/6, 5/6), common grid 12: every route gives 13/96.

    solution_measure, product_measure, and the count identity read at the
    plan's slots on the 12-grid and on the 24-grid.
    """
    sets = [iv((0, F(1, 3))), iv((F(1, 4), F(3, 4))), iv((F(1, 6), F(5, 6)))]
    assert solution_measure(SUM3, sets).value == F(13, 96)
    assert kernel_geometry.product_measure(enumerate_components(SUM3), [s.intervals for s in sets]) == F(13, 96)
    for q in (12, 24):
        plan = _identity_plan(SUM3, q)
        assert _count_identity(plan, packed_counts(SUM3, q, [s.cells(q) for s in sets], plan[1])) == F(13, 96), q


def test_per_shift_reads_its_own_cover():
    """A report's per_shift iterates off the cover it holds: with the caches cleared, the same triples and no new cover."""
    rng = random.Random(33)
    for mat, p in ((SUM3, 7), (AP4, 11), (PINNED, 5)):
        dec = decompose(mat, p, dense_sets(rng, p, mat.cols))
        triples = tuple(dec.per_shift)
        enumerate_components.cache_clear()
        kernel_geometry._shift_cover.cache_clear()
        assert tuple(dec.per_shift) == triples and len(dec.per_shift) == len(triples), (mat.entries, p)
        assert kernel_geometry._shift_cover.cache_info().misses == 0, (mat.entries, p)


def test_self_check_catches_a_wrong_closed_form(monkeypatch):
    """A sign error on l_1 in the r = 1 closed form is refused on the 5-grid, where the check runs."""
    rng = random.Random(11)
    inputs = [random_grid_sets(rng, 5, 3) for _ in range(30)]
    truth = [solution_measure(SUM3, sets).value for sets in inputs]
    closed_form = kernel_geometry._single_row_measure
    monkeypatch.setattr(kernel_geometry, "_single_row_measure", lambda row, grid: closed_form((-row[0], *row[1:]), grid))
    decomp = enumerate_components(SUM3)
    wrong = [sets for sets, value in zip(inputs, truth) if kernel_geometry.product_measure(decomp, [s.intervals for s in sets]) != value]
    assert len(wrong) >= 5
    for sets in wrong:
        with pytest.raises(InternalInvariantError, match="count identity"):
            solution_measure(SUM3, sets)


def test_pinned_coordinate_is_tested_half_open():
    # x_3 is pinned to {0, 1/2}: only x_3 = 0 lies in [0, 1/2), neither in [1/4, 1/2)
    full = IntervalUnion.full()
    assert solution_measure(PINNED, [full, full, HALF]).value == F(1, 2)
    assert solution_measure(PINNED, [full, full, iv((F(1, 4), F(1, 2)))]).value == 0


def test_monte_carlo_agrees_on_pinned_matrices():
    rng = random.Random(23)
    n = 20000
    for _ in range(10):
        r = rng.choice((1, 2))
        mat = random_pinned_matrix(rng, r, r + 2)
        sets = random_grid_sets(rng, 6, mat.cols, density=0.6)
        exact = solution_measure(mat, sets).value
        est = monte_carlo_estimate(mat, sets, n, seed=1).value
        assert abs(est - exact) <= 3 * (float(exact * (1 - exact)) / n) ** 0.5, (mat.entries, sets)


def test_multilinear_additivity():
    rng = random.Random(11)
    p = 10
    for _ in range(5):
        cells = [x for x in range(p) if rng.random() < 0.6]
        rng.shuffle(cells)
        cut = len(cells) // 2
        mk = lambda idx: IntervalUnion(
            [(F(x, p), F(x + 1, p)) for x in idx]
        )
        others = [mk([x for x in range(p) if rng.random() < 0.5]) for _ in range(2)]
        s1 = solution_measure(SUM3, [mk(cells[:cut])] + others).value
        s2 = solution_measure(SUM3, [mk(cells[cut:])] + others).value
        sw = solution_measure(SUM3, [mk(cells)] + others).value
        assert s1 + s2 == sw


def test_monotone_in_each_argument():
    small = iv((0, F(1, 4)))
    large = iv((0, F(1, 2)))
    base = [large, large]
    assert (
        solution_measure(SUM3, [small] + base).value
        <= solution_measure(SUM3, [large] + base).value
    )


def test_invariant_matrix_positive_measure():
    rng = random.Random(13)
    for _ in range(5):
        sets = random_grid_sets(rng, 6, 3, density=0.5)
        if any(s.is_empty() for s in sets):
            continue
        common = sets[0]
        if common.is_empty():
            continue
        assert solution_measure(AP3, [common] * 3).value > 0


def test_approximation_bound_worked_example():
    c = iv((0, F(1, 3)))
    a = iv((0, F(2, 7)))
    assert approximation_bound(SUM3, [c] * 3, [a] * 3) == F(1, 7)


def test_approximation_bound_identical_and_single():
    a = iv((0, F(1, 2)))
    assert approximation_bound(SUM3, [a] * 3, [a] * 3) == 0
    b = iv((0, F(2, 5)))
    assert approximation_bound(SUM3, [a, a, a], [b, a, a]) == F(1, 10)


def test_approximation_bound_soundness():
    rng = random.Random(17)
    for _ in range(6):
        originals = random_grid_sets(rng, 8, 3)
        approx = [s.snap_to_grid(4) for s in originals]
        bound = approximation_bound(SUM3, originals, approx)
        diff = abs(
            solution_measure(SUM3, originals).value
            - solution_measure(SUM3, approx).value
        )
        assert diff <= bound


def test_approximation_bound_refuses_degenerate():
    degen = IntMatrix([[1, 1, 0], [0, 0, 2]])
    a = [iv((0, F(1, 2)))] * 3
    with pytest.raises(DegenerateColumnsError, match="column 3"):
        approximation_bound(degen, a, a)


def test_monte_carlo_bench():
    rep = monte_carlo_estimate(SUM3, [HALF] * 3, 50000, seed=20)
    assert abs(rep.value - 0.125) <= 3 * (rep.ci99 / 2.5758293035489004)
    assert rep.route == "monte_carlo"


def test_monte_carlo_full_circle_exact():
    rep = monte_carlo_estimate(SUM3, [IntervalUnion.full()] * 3, 2000, seed=1)
    assert rep.value == 1.0
    assert rep.ci99 == 0.0


def test_monte_carlo_deterministic():
    a = monte_carlo_estimate(AP3, [THIRD] * 3, 5000, seed=5)
    b = monte_carlo_estimate(AP3, [THIRD] * 3, 5000, seed=5)
    assert a.value == b.value
    c = monte_carlo_estimate(AP3, [THIRD] * 3, 5000, seed=6)
    assert c.value != a.value or c.seed != a.seed


def test_monte_carlo_workers_deterministic():
    a = monte_carlo_estimate(SUM3, [HALF] * 3, 4000, seed=5, workers=2)
    b = monte_carlo_estimate(SUM3, [HALF] * 3, 4000, seed=5, workers=2)
    assert a.value == b.value
    assert a.workers == 2


def test_monte_carlo_builds_one_adjugate(monkeypatch):
    """sample on a seeded 7 x 14 matrix builds the adjugate of its pivot minor only.

    basis_minors, which builds all 3,432 of them, is refused, and a second
    adjugate fails the call.
    """
    mat = random_full_rank_matrix(random.Random(1), 7, 14, -3, 4)
    calls = []

    def one_adjugate(rows, real=measures._adjugate):
        assert not calls, "a second adjugate was built"
        calls.append(rows)
        return real(rows)

    def refuse(*args):
        raise AssertionError("basis_minors was called")

    monkeypatch.setattr(measures, "_adjugate", one_adjugate)
    monkeypatch.setattr(intmat, "basis_minors", refuse)
    rep = monte_carlo_estimate(mat, [HALF] * 14, 100, 1)
    assert rep.n_samples == 100 and len(calls) == 1
    assert calls[0] == [[row[c] for c in intmat._minor_dets(mat)[0][0]] for row in mat.entries]


def test_monte_carlo_validates_input():
    for n in (0, -1, 10.5, 100.0, True, F(100), "100", None):
        with pytest.raises(InvalidInputError):
            monte_carlo_estimate(SUM3, [HALF] * 3, n, seed=1)
    for w in (0, 2.0, True, F(2), "2", None):
        with pytest.raises(InvalidInputError):
            monte_carlo_estimate(SUM3, [HALF] * 3, 100, seed=1, workers=w)


def test_monte_carlo_workers_beyond_the_samples():
    """Workers past the sample count draw nothing, so 10^12 of them answer at once.

    With more workers than samples the last stream draws them all; the
    pinned estimates are those of the code that seeded every stream.
    """
    start = time.perf_counter()
    rep = monte_carlo_estimate(SUM3, [HALF] * 3, 100, seed=1, workers=10**12)
    assert time.perf_counter() - start < 1
    assert (rep.n_samples, rep.workers) == (100, 10**12)
    for n, workers, seed, want in ((3, 5, 1, 0.0), (3, 5, 2, 1 / 3), (50, 51, 0, 0.14), (50, 51, 4, 0.16)):
        assert monte_carlo_estimate(SUM3, [HALF] * 3, n, seed, workers=workers).value == want


def test_monte_carlo_refuses_samples_past_the_limit():
    """More than _SAMPLE_LIMIT samples are refused at once, before any is drawn."""
    for n in (10**12, _SAMPLE_LIMIT + 1):
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match=f"n_samples {n} exceeds the limit of {_SAMPLE_LIMIT}"):
            monte_carlo_estimate(SUM3, [HALF] * 3, n, seed=1)
        assert time.perf_counter() - start < 1


def test_monte_carlo_shares_no_geometry(monkeypatch):
    # the sampler must not read the slices of the geometric route
    import torsol.kernel_geometry
    import torsol.measures

    def refuse(mat):
        raise AssertionError("monte_carlo_estimate read enumerate_components")

    for module in (torsol.measures, torsol.kernel_geometry):
        monkeypatch.setattr(module, "enumerate_components", refuse)
    for mat, sets in ((AP4, [HALF] * 4), (PINNED, [IntervalUnion.full(), IntervalUnion.full(), HALF])):
        assert 0 < monte_carlo_estimate(mat, sets, 2000, seed=1).value < 1


def _polytope_names_bound_outside_polytope():
    """(module, name) for every torsol module but polytope, the package root included, that binds a polytope routine.

    Patching torsol.polytope then reaches every caller: none can hold its own reference.
    """
    import importlib
    import pkgutil

    import torsol

    names = ("volume", "enumerate_vertices", "slice_polytope")
    found = [("torsol", n) for n in names if hasattr(torsol, n)]
    for info in pkgutil.iter_modules(torsol.__path__):
        if info.name == "polytope":
            continue
        module = importlib.import_module(f"torsol.{info.name}")
        found += [(info.name, n) for n in names if hasattr(module, n)]
    return found


def test_package_imports_leave_polytope_out():
    # the H-polytope engine is the tests' oracle: neither the package nor the CLI loads it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import torsol

    src = str(Path(torsol.__file__).resolve().parents[1])
    code = (
        "import sys; import torsol; a = 'torsol.polytope' in sys.modules; "
        "import torsol.cli; print(a, 'torsol.polytope' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False False\n"), out.stderr


def test_package_imports_leave_dataclasses_out():
    # the records are plain slotted classes: a cold CLI process loads neither dataclasses nor inspect
    import os
    import subprocess
    import sys
    from pathlib import Path

    import torsol

    src = str(Path(torsol.__file__).resolve().parents[1])
    code = (
        "import sys; heavy = {'dataclasses', 'inspect'}; import torsol; a = sorted(heavy & set(sys.modules)); "
        "import torsol.cli; print(a, sorted(heavy & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[] []\n"), out.stderr


def test_single_equations_walk_no_slices(monkeypatch):
    # r = 1 takes the closed form; only r >= 2 reaches the slice walker
    import torsol.kernel_geometry
    import torsol.measures
    import torsol.polytope

    rng = random.Random(9)
    pinned = IntMatrix([[0, 0, 2]])
    cases = [(mat, random_grid_sets(rng, 13, mat.cols)) for mat in (SUM3, AP3, R4, pinned, AP4)]
    expected = [solution_measure(mat, sets).value for mat, sets in cases]
    boxes = [box_measure(enumerate_components(mat), (1,) * mat.cols, 13) for mat, _ in cases]

    def refuse(*args):
        raise AssertionError("walked the slices")

    for module, name in (
        (torsol.kernel_geometry, "slice_leaves"),
        (torsol.measures, "slice_leaves"),
        (torsol.polytope, "volume"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert _polytope_names_bound_outside_polytope() == []
    for (mat, sets), value, box in list(zip(cases, expected, boxes))[:-1]:
        assert solution_measure(mat, sets).value == value
        assert walk(mat, sets) == value
        assert box_measure(enumerate_components(mat), (1,) * mat.cols, 13) == box
    with pytest.raises(AssertionError, match="walked the slices"):
        walk(AP4, cases[-1][1])


def test_single_equation_with_many_blocks():
    # 25 blocks per set: 25^3 block products for a walker, one merged product here
    sets = random_run_sets(random.Random(25), 101, [25, 25, 25])
    assert all(len(s.intervals) == 25 for s in sets)
    assert solution_measure(SUM3, sets).value == decompose(SUM3, 101, sets).value
    assert walk(SUM3, sets) == decompose(SUM3, 101, sets).value


@pytest.mark.parametrize("q", [10, 6])
def test_monte_carlo_tests_pinned_coordinates_exactly(q):
    # x_3 takes the values k/q exactly; float rounding must not decide the
    # half-open test (in floats (1/6) * 5 falls below 5/6)
    mat = IntMatrix([[1, 1, 0], [0, 0, q]])
    full = IntervalUnion.full()
    eps = F(1, 10 * q)
    below = IntervalUnion([(F(k, q) - eps, F(k, q)) for k in range(1, q + 1)])
    above = IntervalUnion([(F(k, q), F(k, q) + eps) for k in range(q)])
    assert solution_measure(mat, [full, full, below]).value == 0
    assert solution_measure(mat, [full, full, above]).value == 1
    assert monte_carlo_estimate(mat, [full, full, below], 5000, seed=3).value == 0.0
    assert monte_carlo_estimate(mat, [full, full, above], 5000, seed=3).value == 1.0


def test_find_positive_witness():
    x = find_positive_witness(SUM3, [HALF] * 3)
    assert x is not None
    assert all(s.contains(v) for s, v in zip([HALF] * 3, x))
    lx = SUM3.apply_fraction(x)
    assert all(v.denominator == 1 for v in lx)
    assert find_positive_witness(SUM3, [THIRD] * 3) is None


def test_positive_witness_matches_full_scan():
    # the slices looked up by level give the witness that scanning every slice gives
    rng = random.Random(15)
    smith = IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]])
    fixed = [SUM3, AP3, AP4, R4, AP5, smith, PINNED, PINNED_SCALED]
    mats = fixed * 12 + [random_pinned_matrix(rng, rng.choice((1, 2)), 4) for _ in range(30)]
    mats += [random_full_rank_matrix(rng, 2, rng.choice((3, 4))) for _ in range(30)]
    found = empty = 0
    for mat in mats:
        p = rng.choice((5, 7))
        if rng.random() < 0.5:
            sets = random_grid_sets(rng, p, mat.cols, density=rng.choice((0.05, 0.15, 0.3)))
        else:
            sets = random_block_sets(rng, p, mat.cols, max_blocks=2)
        if rng.random() < 0.1:
            sets[rng.randrange(mat.cols)] = IntervalUnion([])
        empty += any(not s.intervals for s in sets)
        x = find_positive_witness(mat, sets)
        assert x == scan_witness(mat, sets), (mat.entries, sets)
        found += x is not None
        if x is not None:
            assert all(s.contains(v) for s, v in zip(sets, x))
            assert all(v.denominator == 1 for v in mat.apply_fraction(x))
    assert 40 <= found <= len(mats) - 40 and empty >= 5, (found, empty)


def test_exact_routes_equal_on_worked_pair():
    geo = solution_measure(AP3, [iv((0, F(2, 5)))] * 3)
    dec = decompose(AP3, 5, [iv((0, F(2, 5)))] * 3)
    assert geo.value == dec.value


def test_measure_paths_build_no_polytope(monkeypatch):
    # the slice geometry runs in integers: no H-polytope, no vertex enumeration
    import torsol.polytope
    from torsol import zero_measure_check

    def refuse(*args):
        raise AssertionError("built an H-polytope")

    for name in ("volume", "enumerate_vertices", "slice_polytope"):
        monkeypatch.setattr(torsol.polytope, name, refuse)
    assert _polytope_names_bound_outside_polytope() == []
    sets = [
        iv((0, F(1, 2))),
        iv((F(1, 3), F(5, 6))),
        iv((0, F(1, 4)), (F(1, 2), F(3, 4))),
        iv((F(1, 5), F(4, 5))),
    ]
    assert solution_measure(AP4, sets).value == F(41, 450)
    ap5_sets = [HALF, iv((F(1, 4), F(3, 4))), HALF, iv((0, F(1, 3)), (F(2, 3), 1)), HALF]
    assert solution_measure(AP5, ap5_sets).value == F(31, 864)
    pinned_sets = [IntervalUnion.full(), iv((0, F(2, 3))), iv((0, F(1, 3)), (F(1, 2), F(3, 4)))]
    assert solution_measure(PINNED, pinned_sets).value == F(2, 3)
    assert find_positive_witness(AP4, sets) == (F(1, 16), F(193, 240), F(131, 240), F(23, 80))
    zero = [iv((F(1, 6), F(1, 2))), iv((F(1, 3), F(1, 2))), iv((0, F(1, 6))), iv((F(1, 2), F(2, 3)))]
    assert zero_measure_check(AP4, zero) == ([list(s.intervals) for s in zero], True)

    # bypass the cache so that the slices are enumerated under the patch
    decomp = enumerate_components.__wrapped__(IntMatrix([[1, 2, -1, 0], [0, 1, 1, -3]]))
    rows = [
        ((0, -2), "0 0 0 2/3", "1/18"),
        ((0, -1), "0 0 0 1/3", "1/12"),
        ((0, 0), "0 0 0 0", "1/12"),
        ((0, 1), "0 1/3 2/3 0", "1/36"),
        ((1, -2), "0 1/2 0 5/6", "1/12"),
        ((1, -1), "0 1/2 0 1/2", "1/6"),
        ((1, 0), "0 1/2 0 1/6", "1/6"),
        ((1, 1), "0 2/3 1/3 0", "1/12"),
        ((2, -2), "0 1 0 1", "1/36"),
        ((2, -1), "0 1 0 2/3", "1/12"),
        ((2, 0), "0 1 0 1/3", "1/12"),
        ((2, 1), "0 1 0 0", "1/18"),
    ]
    expected = [(level, tuple(F(v) for v in rep.split()), F(vol)) for level, rep, vol in rows]
    assert [(c.level, c.representative, c.volume_param) for c in decomp.components] == expected
