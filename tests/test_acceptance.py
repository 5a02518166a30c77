"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] <n> <name>: PASS` line (visible with
pytest -s); all exact criteria are zero-tolerance comparisons of rationals,
the Monte Carlo criterion is the stated seed-pinned 19-of-20 3-sigma rule.
"""

import math
import random
from fractions import Fraction as F

import pytest

from torsol import (
    DiscreteSet,
    IntMatrix,
    IntervalUnion,
    analyze_matrix,
    approximation_bound,
    central_section_check,
    decompose,
    density_search,
    density_trend,
    enumerate_components,
    find_violating_boxes,
    greedy_removal,
    kernel_elements,
    monte_carlo_estimate,
    parametrize_kernel,
    shift_cover,
    solution_density,
    solution_measure,
    szemeredi_probe,
    weight,
    zero_measure_check,
)
from torsol.errors import DegenerateColumnsError, PositiveMeasureError
from torsol.kernel_geometry import product_measure

from oracles import (
    naive_density,
    random_block_sets,
    random_full_rank_matrix,
    random_grid_sets,
    sweep_area,
)

SUM3 = IntMatrix([[1, 1, -1]])
AP3 = IntMatrix([[1, -2, 1]])
AP4 = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])
MATRICES = (SUM3, AP3, AP4)


def report(num, name):
    print(f"\n[acceptance] {num} {name}: PASS")


def iv(*pairs):
    return IntervalUnion([(F(a), F(b)) for a, b in pairs])


def test_criterion_01_decomposition_identity():
    rng = random.Random(101)
    for mat in MATRICES:
        for p in (5, 7, 11, 101):
            for _ in range(50):
                if p == 101:
                    sets = random_block_sets(rng, p, mat.cols, max_blocks=4)
                else:
                    sets = random_grid_sets(rng, p, mat.cols)
                geo = solution_measure(mat, sets).value
                dec = decompose(mat, p, sets).value
                assert geo == dec, (mat.entries, p, [str(s) for s in sets])
                assert product_measure(enumerate_components(mat), [s.intervals for s in sets]) == dec
    report(1, "decomposition identity (geometric == shift cover, exact)")


def test_criterion_02_weight_partition_and_spectrum():
    expected = {
        SUM3: [F(1, 2), F(1, 2)],
        AP3: [F(1, 4), F(1, 4), F(1, 2)],
    }
    for mat in MATRICES:
        decomp = enumerate_components(mat)
        for p in (5, 7, 11, 101):
            cover = shift_cover(decomp, p)
            assert sum(sh.lam for sh in cover) == 1
            assert min(sh.lam for sh in cover) > 0
            if mat in expected:
                assert sorted(sh.lam for sh in cover) == expected[mat]
        spectra = [sorted(sh.lam for sh in shift_cover(decomp, p)) for p in (101, 103, 107)]
        assert spectra[0] == spectra[1] == spectra[2]

    # independent per-box slice-volume oracle for the pinned values
    for mat, p in ((SUM3, 5), (AP3, 5)):
        decomp = enumerate_components(mat)
        for sh in shift_cover(decomp, p):
            area = F(0)
            for comp in decomp.components:
                cons = []
                for i in range(mat.cols):
                    row = tuple(F(c[i]) for c in decomp.basis_columns)
                    cons.append((row, F(sh.j[i] + 1, p) - comp.representative[i]))
                    cons.append((tuple(-v for v in row), comp.representative[i] - F(sh.j[i], p)))
                area += sweep_area(cons)
            assert sh.lam == area * decomp.c_param * p ** (mat.cols - mat.rows)
    report(2, "weight partition, finite spectrum, pinned values {1/2,1/2} and {1/2,1/4,1/4}")


def test_criterion_03_coset_constancy():
    rng = random.Random(303)
    for mat in MATRICES:
        p = 7
        decomp = enumerate_components(mat)
        cover = shift_cover(decomp, p)
        param = parametrize_kernel(mat, p)
        elements = list(kernel_elements(param, mat.cols))
        for sh in cover:
            for _ in range(100):
                k = rng.choice(elements)
                j = tuple((a + b) % p for a, b in zip(sh.j, k))
                assert weight(decomp, j, p) == sh.lam
    report(3, "coset constancy of weights (100 random members per coset)")


def test_criterion_04_exact_benchmark_values():
    half = iv((0, F(1, 2)))
    assert solution_measure(SUM3, [half] * 3).value == F(1, 8)
    assert solution_measure(AP3, [half] * 3).value == F(1, 8)
    assert solution_measure(SUM3, [iv((F(1, 3), F(2, 3)))] * 3).value == 0
    two_fifths = iv((0, F(2, 5)))
    assert solution_measure(SUM3, [two_fifths] * 3).value == F(2, 25)
    assert decompose(SUM3, 5, [two_fifths] * 3).value == F(2, 25)
    report(4, "benchmark values 1/8, 1/8, 0, 2/25 (zero tolerance)")


def test_criterion_05_discrete_oracle_equivalence():
    rng = random.Random(505)
    for mat in MATRICES:
        for p in (5, 7, 11, 13):
            for _ in range(3):
                sets = [
                    DiscreteSet(p, [rng.random() < 0.5 for _ in range(p)])
                    for _ in range(mat.cols)
                ]
                shifts = tuple(rng.randrange(p) for _ in range(mat.cols))
                assert solution_density(mat, p, sets, shifts) == naive_density(
                    mat.entries, p, [s.members for s in sets], shifts
                )
    report(5, "discrete counting equals naive p^m enumeration")


def test_criterion_06_monte_carlo_consistency():
    rng = random.Random(606)
    within = 0
    total = 20
    for i in range(total):
        mat = (SUM3, AP3)[i % 2]
        p = rng.choice((4, 5, 6, 7, 8))
        sets = random_grid_sets(rng, p, 3, density=0.5)
        exact = float(solution_measure(mat, sets).value)
        rep = monte_carlo_estimate(mat, sets, 100000, seed=1000 + i)
        sigma = math.sqrt(max(rep.value * (1 - rep.value), 0.0) / rep.n_samples)
        if abs(rep.value - exact) <= 3 * sigma:
            within += 1
    assert within >= 19, f"only {within}/20 inside 3 sigma"
    report(6, f"monte carlo within 3 sigma on {within}/20 seed-pinned instances")


def test_criterion_07_central_section_bound():
    rng = random.Random(707)
    for _ in range(25):
        r = rng.randint(1, 2)
        m = rng.randint(r + 1, 5)
        mat = random_full_rank_matrix(rng, r, m, lo=-3, hi=3)
        res = central_section_check(mat)
        assert res.passes, (mat.entries, res)
    report(7, "central cube sections satisfy vol^2 * gram >= 1 (25 random matrices)")


def test_criterion_08_removal_soundness():
    rng = random.Random(808)
    count = 0
    for p in (5, 7, 11):
        for _ in range(17 if p != 11 else 16):
            mat = (SUM3, AP3)[count % 2]
            sets = random_grid_sets(rng, p, 3)
            out = greedy_removal(mat, p, sets)
            assert out.verified_free
            remaining = [s.intersect(e.complement()) for s, e in zip(sets, out.removed)]
            assert solution_measure(mat, remaining).value == 0
            count += 1
    assert count == 50

    worked = greedy_removal(SUM3, 5, [iv((0, F(2, 5)))] * 3)
    assert worked.iterations == 2
    assert worked.verified_free
    report(8, "greedy removal verified free on 50 instances; worked instance removes 2 cells")


def test_criterion_09_zero_measure_removal():
    rng = random.Random(909)
    checked = 0
    while checked < 50:
        p = rng.choice((5, 7, 11))
        mat = (SUM3, AP3)[checked % 2]
        sets = random_grid_sets(rng, p, 3)
        out = greedy_removal(mat, p, sets)
        remaining = [s.intersect(e.complement()) for s, e in zip(sets, out.removed)]
        density_sets, empty = zero_measure_check(mat, remaining)
        assert empty
        assert len(density_sets) == 3
        checked += 1

    witnessed = 0
    attempts = 0
    while witnessed < 10 and attempts < 100:
        attempts += 1
        p = rng.choice((5, 7))
        sets = random_grid_sets(rng, p, 3, density=0.6)
        if solution_measure(AP3, sets).value == 0:
            continue
        with pytest.raises(PositiveMeasureError) as exc:
            zero_measure_check(AP3, sets)
        x = exc.value.witness
        assert x is not None
        lx = AP3.apply_fraction(x)
        assert all(v.denominator == 1 for v in lx)
        assert all(s.contains(v) for s, v in zip(sets, x))
        witnessed += 1
    assert witnessed == 10
    report(9, "zero-measure instances empty after density points; witnesses verified exactly")


def test_criterion_10_szemeredi_probe():
    minima = {}
    for mat, label in ((AP3, "3-term"), (AP4, "4-term")):
        for alpha in (F(1, 4), F(1, 2)):
            best, best_set = szemeredi_probe(mat, alpha, trials=200, seed=10)
            assert best > 0, (label, alpha)
            assert best_set.measure() >= alpha
            minima[(label, str(alpha))] = best
    report(10, f"szemeredi probe strictly positive; minima {{{', '.join(f'{k}: {v}' for k, v in sorted(minima.items()))}}}")


def test_criterion_11_density_search():
    dens5, _ = density_search(SUM3, 5, mode="exhaustive")
    assert dens5 == F(2, 5)
    for p in (7, 11, 13, 17, 19):
        ex, _ = density_search(SUM3, p, mode="exhaustive")
        loc, _ = density_search(SUM3, p, mode="local", seed=11)
        assert ex == loc, p
    rows = density_trend(SUM3, [5, 7, 11, 13, 17, 19])
    dists = []
    for p, num, den, _dec in rows:
        d = F(num, den)
        assert d >= F(1, 3) - F(2, p)
        dists.append(abs(d - F(1, 3)))
    assert all(a >= b for a, b in zip(dists, dists[1:]))
    trend_str = ", ".join(f"p={p}: {num}/{den}" for p, num, den, _ in rows)
    report(11, f"density search exact at p=5 (2/5), local==exhaustive; trend {trend_str}")


def test_criterion_12_degenerate_reduction():
    mat = IntMatrix([[1, 1, 0], [0, 0, 2]])
    prof = analyze_matrix(mat)
    assert len(prof.degenerate_columns) == 1
    dc = prof.degenerate_columns[0]
    assert dc.column == 3
    assert dc.multiplier == 2
    sets = [iv((0, F(1, 2)))] * 3
    with pytest.raises(DegenerateColumnsError, match="column 3"):
        approximation_bound(mat, sets, sets)
    report(12, "degenerate column reported (column 3, multiplier 2) and bound refused")
