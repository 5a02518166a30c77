import random
import time
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from torsol import (
    DiscreteSet,
    IntMatrix,
    IntervalUnion,
    analyze_matrix,
    box_measure,
    central_section_check,
    enumerate_components,
    kernel_elements,
    parametrize_kernel,
    shift_cover,
    weight,
)
from torsol import intmat, kernel_geometry
from torsol.errors import BadModulusError, InvalidInputError, PreconditionError
from torsol.kernel_geometry import _GridBlocks, _reachable, _slice_data, _walk_cost, product_measure, slice_leaves
from torsol.polytope import slice_polytope, volume

from oracles import (
    _laplace_det,
    _solve_exact,
    candidate_levels,
    greedy_columns,
    lifted_half_open,
    random_full_rank_matrix,
    random_pinned_matrix,
    random_run_sets,
    scan_components,
    slice_leaf,
    suitable_prime,
    sweep_area,
    unpruned_measure,
    walker_measure,
)

SUM3 = IntMatrix([[1, 1, -1]])
AP3 = IntMatrix([[1, -2, 1]])
AP4 = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])
R4 = IntMatrix([[2, 3, -1, 5]])
PINNED = IntMatrix([[1, 1, 0], [0, 0, 2]])
PINNED_SCALED = IntMatrix([[2, 2, 0], [0, 0, 4]])


def test_sum3_components():
    d = enumerate_components(SUM3)
    assert [(c.level, c.volume_param) for c in d.components] == [
        ((0,), F(1, 2)),
        ((1,), F(1, 2)),
    ]
    assert d.total_volume_param == 1
    assert d.c_param == 1
    for c in d.components:
        assert SUM3.apply_fraction(c.representative) == tuple(F(v) for v in c.level)


def test_ap3_components():
    d = enumerate_components(AP3)
    assert [(c.level, c.volume_param) for c in d.components] == [
        ((-1,), F(1, 4)),
        ((0,), F(1, 2)),
        ((1,), F(1, 4)),
    ]
    assert d.total_volume_param == 1


def test_two_two_component_count_matches_smith():
    d = enumerate_components(IntMatrix([[2, 2]]))
    assert [c.level for c in d.components] == [(0,), (1,), (2,), (3,)]
    assert [c.volume_param for c in d.components] == [F(0), F(1, 2), F(1), F(1, 2)]
    assert d.total_volume_param == 2
    assert d.components[0].is_flat
    prof = analyze_matrix(IntMatrix([[2, 2]]))
    prod = 1
    for v in prof.smith_invariants:
        prod *= v
    assert prod == 2


def _components(mat):
    return [(c.level, c.representative, c.volume_param) for c in enumerate_components(mat).components]


def test_pinned_column_components():
    # x_3 is pinned to {0, 1/2}; the levels with b_1 = 0 are single points
    assert _components(PINNED) == [
        ((0, 0), (F(0), F(0), F(0)), F(0)),
        ((0, 1), (F(0), F(0), F(1, 2)), F(0)),
        ((1, 0), (F(0), F(1), F(0)), F(1)),
        ((1, 1), (F(0), F(1), F(1, 2)), F(1)),
    ]


def test_pinned_column_components_scaled():
    # x_3 is pinned to {0, 1/4, 1/2, 3/4} and 2(x_1 + x_2) = b_1 takes four levels
    firsts = {0: (F(0), F(0)), 1: (F(0), F(1, 2)), 2: (F(0), F(1)), 3: (F(1, 2), F(1))}
    volumes = {0: F(0), 1: F(1, 2), 2: F(1), 3: F(1, 2)}
    assert _components(PINNED_SCALED) == [
        ((a, c), firsts[a] + (F(c, 4),), volumes[a]) for a in range(4) for c in range(4)
    ]


def _point_on_level(mat, b):
    """A rational x with Lx = b, supported on the first nonsingular r-minor."""
    for cols in combinations(range(mat.cols), mat.rows):
        minor = [[row[c] for c in cols] for row in mat.entries]
        if _laplace_det(minor) != 0:
            x = [F(0)] * mat.cols
            for c, v in zip(cols, _solve_exact(minor, b)):
                x[c] = v
            return x


def test_kept_levels_match_oracles():
    rng = random.Random(20)
    degenerate = 0
    for r, m in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)] * 5:
        mat = random_pinned_matrix(rng, r, m)
        degenerate += bool(analyze_matrix(mat).degenerate_columns)
        decomp = enumerate_components(mat)
        basis = decomp.basis_columns
        expected = [b for b in candidate_levels(mat) if lifted_half_open(_point_on_level(mat, b), basis)]
        assert [c.level for c in decomp.components] == expected, mat.entries
    assert degenerate >= 10


def test_components_match_candidate_scan():
    # the levels scattered from the vertices against a slice_leaf at every candidate level
    rng = random.Random(16)
    mats = [
        IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]]),
        IntMatrix([[2, 3, -3, 0, 2], [3, -2, -2, 3, -2], [-2, 2, 2, 2, 1]]),
        PINNED,
        PINNED_SCALED,
    ]
    shapes = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)]
    for k in range(36):
        for r, m in shapes + [(3, 5)] * (k % 3 == 0):
            mats.append(random_pinned_matrix(rng, r, m) if k % 2 else random_full_rank_matrix(rng, r, m, -2, 2))
    assert len(mats) >= 300
    assert sum(bool(analyze_matrix(mat).degenerate_columns) for mat in mats) >= 50
    for mat in mats:
        assert enumerate_components(mat) == scan_components(mat), mat.entries


def test_component_volumes_against_sweep_oracle():
    # rebuild each slice polytope's constraints by hand and integrate by sweep
    for mat in (SUM3, AP3, AP4):
        d = enumerate_components(mat)
        cols = d.basis_columns
        for comp in d.components:
            cons = []
            for i in range(mat.cols):
                row = tuple(F(c[i]) for c in cols)
                cons.append((row, F(1) - comp.representative[i]))
                cons.append((tuple(-v for v in row), comp.representative[i]))
            assert sweep_area(cons) == comp.volume_param


def test_box_measure_examples():
    d = enumerate_components(SUM3)
    assert box_measure(d, (0, 0, 0), 5) == F(1, 50)
    assert box_measure(d, (1, 0, 0), 5) == 0
    assert weight(d, (0, 0, 0), 5) == F(1, 2)
    assert weight(d, (4, 4, 3), 5) == F(1, 2)  # Lj = 5, the level-1 family


def test_box_index_must_be_integral():
    # (0.9, 0, 0) was once truncated to (0, 0, 0), a box of measure 1/50, and
    # (True, False, True) read as (1, 0, 1)
    d = enumerate_components(SUM3)
    bads = ((0.9, 0, 0), (1.0, 0, 0), (F(9, 10), 0, 0), ("1", 0, 0), (None, 0, 0), (True, False, True), (0, 0, False))
    for bad in bads:
        with pytest.raises(InvalidInputError, match="box index"):
            box_measure(d, bad, 5)
        with pytest.raises(InvalidInputError, match="box index"):
            weight(d, bad, 5)
    assert box_measure(d, (F(0), 0, 0), 5) == box_measure(d, (0, 0, 0), 5) == F(1, 50)


def test_ap3_weight_at_two_primes():
    d = enumerate_components(AP3)
    assert weight(d, (0, 0, 1), 101) == F(1, 4)
    assert weight(d, (0, 0, 1), 103) == F(1, 4)


def test_partition_of_mass_over_all_boxes():
    # boxes tile the m-torus, so measures must sum to exactly 1 (any modulus)
    for mat, p in ((SUM3, 3), (SUM3, 4), (AP3, 5), (PINNED, 4)):
        d = enumerate_components(mat)
        total = sum(
            (box_measure(d, j, p) for j in product(range(p), repeat=mat.cols)),
            F(0),
        )
        assert total == 1


def test_shift_cover_sum3():
    d = enumerate_components(SUM3)
    cover = shift_cover(d, 5)
    assert len(cover) == 2
    assert sorted(sh.lam for sh in cover) == [F(1, 2), F(1, 2)]
    assert sum(sh.lam for sh in cover) == 1
    by_level = {sh.level: sh.j for sh in cover}
    assert by_level[(0,)] == (0, 0, 0)
    assert by_level[(1,)] == (0, 0, 1)


def test_shift_cover_ap3_weights():
    d = enumerate_components(AP3)
    for p in (5, 7, 11, 101):
        cover = shift_cover(d, p)
        assert sorted(sh.lam for sh in cover) == [F(1, 4), F(1, 4), F(1, 2)]
        assert sum(sh.lam for sh in cover) == 1


def test_shift_representatives_are_lex_minimal():
    cases = [(AP3, 5)] + [(mat, 13) for mat in (SUM3, AP3, AP4, R4)]
    cases += [(mat, p) for mat in (PINNED, PINNED_SCALED) for p in (5, 7)]
    rng = random.Random(41)
    for r, m in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        for draw in (random_full_rank_matrix, random_pinned_matrix):
            mat = draw(rng, r, m, -2, 2)
            cases.append((mat, suitable_prime(mat)))
    for mat, p in cases:
        first = {}
        for j in product(range(p), repeat=mat.cols):
            first.setdefault(tuple(v % p for v in mat.apply_int(j)), j)
        for sh in shift_cover(enumerate_components(mat), p):
            assert sh.j == first[tuple((-v) % p for v in sh.level)], (mat.entries, p, sh.level)


def test_weight_spectrum_stable_across_primes():
    for mat in (SUM3, AP3, AP4):
        d = enumerate_components(mat)
        spectra = []
        for p in (101, 103, 107):
            cover = shift_cover(d, p)
            assert sum(sh.lam for sh in cover) == 1
            spectra.append(sorted(sh.lam for sh in cover))
        assert spectra[0] == spectra[1] == spectra[2]
        assert min(spectra[0]) > 0


def test_coset_constancy_sampled():
    # the polytope weight of every sampled coset member equals the closed-form lam
    rng = random.Random(3)
    cases = [(SUM3, 7), (AP3, 7), (AP4, 7), (R4, 13), (PINNED, 5), (PINNED_SCALED, 7)]
    for r, m in [(1, 3), (2, 3), (2, 4), (1, 4), (3, 4)] * 2:
        mat = random_pinned_matrix(rng, r, m)
        cases.append((mat, suitable_prime(mat)))
    for mat, p in cases:
        d = enumerate_components(mat)
        cover = shift_cover(d, p)
        param = parametrize_kernel(mat, p)
        elements = list(kernel_elements(param, mat.cols))
        for sh in cover:
            for _ in range(20):
                k = rng.choice(elements)
                j = tuple((a + b) % p for a, b in zip(sh.j, k))
                assert weight(d, j, p) == sh.lam, (mat.entries, p, sh.level)


def test_diagonal_boxes_positive_for_invariant_matrix():
    d = enumerate_components(AP3)
    for x in range(7):
        assert weight(d, (x, x, x), 7) > 0


def test_shift_cover_preconditions():
    d = enumerate_components(SUM3)
    with pytest.raises(BadModulusError, match="not prime"):
        shift_cover(d, 4)
    with pytest.raises(BadModulusError, match="too small"):
        shift_cover(d, 3)  # needs p > 3, the row sum of absolute entries
    bad = IntMatrix([[5, 0, 1], [0, 5, 1]])
    with pytest.raises(BadModulusError, match="rank"):
        shift_cover(enumerate_components(bad), 5)


def test_zero_weight_boxes_are_off_cover():
    # a box whose residue matches no level has measure zero
    d = enumerate_components(SUM3)
    assert box_measure(d, (1, 0, 0), 5) == 0
    assert box_measure(d, (0, 1, 0), 5) == 0


def _rational_blocks(rng, m, most):
    """Blocks with arbitrary rational endpoints, at most `most` per coordinate."""
    out = []
    for _ in range(m):
        cuts = sorted({F(rng.randint(0, d), d) for d in rng.sample([5, 7, 12, 29, 60], 4)})
        out.append(tuple(zip(cuts[::2], cuts[1::2]))[:most])
    return out


@pytest.mark.parametrize(
    "row",
    [
        [1, 1, -1],
        [1, -2, 1],
        [2, 3, -1, 5],
        [2, -4, 6],
        [3, 0, -1],
        [1, 1, 1, 1, 1],
        [0, 0, 2],
        [0, 0, -3],
        [0, -7, 0, 0],
    ],
)
def test_single_row_closed_form_matches_walker(row):
    rng = random.Random(sum(row) + 10 * len(row))
    d = enumerate_components(IntMatrix([row]))
    m = len(row)
    most = 1 if m > 4 else 2  # keeps the walker's block products few
    for trial in range(6):
        if trial % 2:
            blocks = _rational_blocks(rng, m, most)
        else:
            # on the 1/6 grid the pinned points k/2 and k/3 are block ends
            sets = random_run_sets(rng, 6, [rng.randint(1, most) for _ in range(m)])
            blocks = [s.intervals for s in sets]
        assert product_measure(d, blocks) == walker_measure(d, blocks), (row, blocks)
    full = [((F(0), F(1)),)] * m
    assert product_measure(d, full) == walker_measure(d, full) == 1
    assert product_measure(d, [()] + full[1:]) == 0


def _random_box(rng, m):
    """Rational bounds 0 <= lo < hi <= 1 per coordinate, on mixed denominators."""
    lows, highs = [], []
    for _ in range(m):
        a, b = sorted(rng.sample([F(k, q) for q in (2, 3, 5, 7) for k in range(q + 1)], 2))
        if a == b:
            b = F(1)
        lows.append(min(a, b))
        highs.append(max(a, b))
    return lows, highs


def test_slice_leaf_matches_polytope_volume():
    # integer vertices and volumes against the rational H-polytope route
    rng = random.Random(31)
    shapes = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (2, 6), (3, 6)]
    negative = pinned = full = 0
    for r, m in shapes * 4:
        mat = random_pinned_matrix(rng, r, m)
        pinned += bool(analyze_matrix(mat).degenerate_columns)
        negative += any(
            _laplace_det([[row[c] for c in cols] for row in mat.entries]) < 0 for cols in combinations(range(m), r)
        )
        decomp = enumerate_components(mat)
        basis = decomp.basis_columns
        for _ in range(4):
            comp = rng.choice(decomp.components)
            lows, highs = _random_box(rng, m)
            if rng.random() < 0.3:
                lows, highs = [0] * m, [1] * m
            leaf = slice_leaf(mat, comp.level, lows, highs)
            res = volume(slice_polytope(basis, comp.representative, lows, highs))
            assert leaf.volume == res.volume, (mat.entries, comp.level, lows, highs)
            mapped = {
                tuple(x + sum(c[i] * t for c, t in zip(basis, tv)) for i, x in enumerate(comp.representative))
                for tv in res.vertices
            }
            assert set(leaf.vertices) == mapped, (mat.entries, comp.level, lows, highs)
            assert list(leaf.vertices) == sorted(leaf.vertices)
            assert all(mat.apply_fraction(x) == comp.level for x in leaf.vertices)
            assert leaf.is_full_dimensional == res.is_full_dimensional
            full += leaf.is_full_dimensional
    assert negative >= 20 and pinned >= 10 and full >= 50, (negative, pinned, full)


def test_central_section_matches_polytope_oracle():
    # the orthant walk of [-1/2, 1/2]^m at level 0 against the rational H-polytope,
    # and the Bareiss Gram determinant against a Laplace expansion
    rng = random.Random(79)
    mats = [IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]]), IntMatrix([[1, 1, 0], [0, 0, 2]])]
    shapes = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (1, 5), (2, 6), (3, 6)]
    for r, m in shapes * 10:
        draw = random_pinned_matrix if rng.random() < 0.5 else random_full_rank_matrix
        mats.append(draw(rng, r, m))
    pinned = 0
    for mat in mats:
        prof = analyze_matrix(mat)
        pinned += bool(prof.degenerate_columns)
        cols, m = prof.kernel_columns(), mat.cols
        vol = volume(slice_polytope(cols, [0] * m, [F(-1, 2)] * m, [F(1, 2)] * m)).volume
        gram = _laplace_det([[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols])
        res = central_section_check(mat)
        assert (res.vol_param, res.gram_det, res.passes) == (vol, gram, vol * vol * gram >= 1), mat.entries
    assert len(mats) >= 100 and pinned >= 20, (len(mats), pinned)


def test_box_measure_walks_at_most_two_to_the_r_levels(monkeypatch):
    # [[6,4,2,0],[0,6,12,18]] has 356 slices; a 1/37 box reaches at most 4 levels
    import torsol.kernel_geometry as kg

    mat = IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]])
    d = enumerate_components(mat)
    assert len(d.components) == 356
    rng = random.Random(37)
    boxes = [tuple(rng.randrange(37) for _ in range(4)) for _ in range(40)]
    cells = [[[(F(v, 37), F(v + 1, 37))] for v in j] for j in boxes]
    expected = [walker_measure(d, blocks) for blocks in cells]
    walked = []
    real = kg.slice_leaves

    def counting(decomp, comp, blocks):
        walked[-1].add(comp.level)
        return real(decomp, comp, blocks)

    monkeypatch.setattr(kg, "slice_leaves", counting)
    for j, value in zip(boxes, expected):
        walked.append(set())
        assert box_measure(d, j, 37) == value, j
        assert len(walked[-1]) <= 2**mat.rows, (j, walked[-1])
    assert sum(expected) > 0


def _mixed_blocks(rng, m, most):
    """Up to `most` blocks per coordinate, endpoints on denominators 2..12.

    Half the draws put every endpoint on one grid 1/q, which keeps the
    walker's common denominator small, so that rounding matters; the
    other half mix the denominators.
    """
    grid = rng.randint(2, 12) if rng.random() < 0.5 else None
    out = []
    for _ in range(m):
        dens = [grid] * 2 * most if grid else rng.sample(range(2, 13), 2 * most)
        cuts = sorted({F(rng.randint(0, q), q) for q in dens})
        out.append(tuple(zip(cuts[::2], cuts[1::2]))[: rng.randint(1, most)] or ((F(0), F(1, 2)),))
    return out


def test_pruned_walk_matches_unpruned_oracle():
    # outward-rounded integer pruning loses no block combination that meets a slice
    rng = random.Random(11)
    cases = [
        (AP4, 3, 14),
        (IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]]), 1, 3),
        (PINNED, 3, 14),
        (PINNED_SCALED, 3, 14),
        (IntMatrix([[2, 3, -3, 0, 2], [3, -2, -2, 3, -2], [-2, 2, 2, 2, 1]]), 1, 4),
    ]
    # slices whose leaves can be slivers between two points of the walker's grid,
    # so that rounding the pruning bounds inward loses volume
    slivers = [
        [[-3, 1, 3], [-1, -1, 2]],
        [[3, -2, 3], [-2, -3, 2]],
        [[3, -1, 1, -2], [1, -1, 2, 2], [-3, -1, -2, -1]],
        [[3, 3, 2, 2], [3, 3, 1, 3], [2, -3, 0, -1]],
    ]
    cases += [(IntMatrix(entries), 2, 15) for entries in slivers]
    cases += [(random_pinned_matrix(rng, r, m), 2, 3) for r, m in [(2, 3), (2, 4), (3, 4), (2, 5)] * 3]
    pinned = positive = 0
    for mat, most, trials in cases:
        d = enumerate_components(mat)
        pinned += bool(analyze_matrix(mat).degenerate_columns)
        for _ in range(trials):
            blocks = _mixed_blocks(rng, mat.cols, most)
            value = product_measure(d, blocks)
            assert value == unpruned_measure(d, blocks), (mat.entries, blocks)
            positive += value > 0
    assert pinned >= 6 and positive >= 80, (pinned, positive)


def test_block_touching_a_slice_only_at_a_corner_yields_no_leaf():
    # [1/2, 1] x [1/2, 1] x [0, 1] meets x + y - z = 0 in the one point (1/2, 1/2, 1)
    # and x + y - z = 1 in a triangle; on x = y, [0, 1/2] x [1/2, 1] meets only (1/2, 1/2)
    d = enumerate_components(SUM3)
    blocks = [[(F(1, 2), F(1))], [(F(1, 2), F(1))], [(F(0), F(1))]]
    leaves = {comp.level: list(slice_leaves(d, comp, blocks)) for comp in d.components}
    assert leaves[(0,)] == []
    assert [leaf.volume for leaf in leaves[(1,)]] == [F(1, 4)]
    diagonal = enumerate_components(IntMatrix([[1, -1]]))
    (comp,) = diagonal.components
    assert list(slice_leaves(diagonal, comp, [[(F(0), F(1, 2))], [(F(1, 2), F(1))]])) == []


SMITH = IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]])
AP5 = IntMatrix([[1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1]])


def test_clipped_leaves_match_basis_scan():
    # every leaf of the clipping walk has the vertices and volume of the basis scan of its
    # closed block product, in walk order, and no full-dimensional block product is dropped
    rng = random.Random(23)
    cases = [(mat, 2, 20) for mat in (AP4, PINNED, PINNED_SCALED)] + [(SMITH, 1, 6), (AP5, 1, 20)]
    cases.append((IntMatrix([[2, 3, -3, 0, 2], [3, -2, -2, 3, -2], [-2, 2, 2, 2, 1]]), 1, 10))
    for r, m in [(2, 5), (1, 4), (2, 4), (3, 5), (2, 3)] * 6:
        draw = random_pinned_matrix if rng.random() < 0.5 else random_full_rank_matrix
        cases.append((draw(rng, r, m, -2, 2), 2, 7))
    pairs = products = leaves = pinned = dim3 = 0
    for mat, most, trials in cases:
        decomp = enumerate_components(mat)
        pinned += bool(analyze_matrix(mat).degenerate_columns)
        d = mat.cols - mat.rows
        dim3 += d == 3
        moving = [any(col[i] for col in decomp.basis_columns) for i in range(mat.cols)]
        for _ in range(trials):
            blocks = _mixed_blocks(rng, mat.cols, most)
            pairs += 1
            for comp in decomp.components:
                if comp.is_flat:
                    continue
                walked = list(slice_leaves(decomp, comp, blocks))
                leaves += len(walked)
                k = 0
                for combo in product(*blocks):
                    if not all(a <= x < b for (a, b), x, mv in zip(combo, comp.representative, moving) if not mv):
                        continue
                    products += 1
                    scan = slice_leaf(mat, comp.level, *zip(*combo))
                    if k < len(walked) and (walked[k].vertices, walked[k].volume) == (scan.vertices, scan.volume):
                        k += 1
                    else:
                        assert not scan.is_full_dimensional, (mat.entries, comp.level, combo)
                assert k == len(walked), (mat.entries, comp.level, blocks)
                if d == 2:
                    assert all(leaf.is_full_dimensional for leaf in walked), (mat.entries, comp.level, blocks)
    assert pairs >= 300 and pinned >= 10 and dim3 >= 8, (pairs, pinned, dim3)
    assert leaves >= 1000 and products >= 5000, (leaves, products)


def test_central_section_matches_basis_scan():
    # the section walked orthant by orthant through the level-Le slices against the
    # basis scan of [-1/2, 1/2]^m at level 0
    rng = random.Random(47)
    mats = [SUM3, AP4, AP5, SMITH, IntMatrix([[2, 3, -3, 0, 2], [3, -2, -2, 3, -2], [-2, 2, 2, 2, 1]])]
    mats += [PINNED, PINNED_SCALED]
    shapes = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (2, 6)]
    for k in range(300):
        draw = random_full_rank_matrix if k % 3 == 0 else random_pinned_matrix
        mats.append(draw(rng, *shapes[k % len(shapes)]))
    pinned = 0
    for mat in mats:
        pinned += bool(analyze_matrix(mat).degenerate_columns)
        m = mat.cols
        scan = slice_leaf(mat, (0,) * mat.rows, [F(-1, 2)] * m, [F(1, 2)] * m)
        assert central_section_check(mat).vol_param == scan.volume, mat.entries
    assert pinned >= 100, pinned


def test_free_columns_and_kernel_minor_from_the_minor_table():
    # free_det is |delta_D0| over the product of the Smith invariants; it must be |det B_F| of the kernel basis rows
    rng = random.Random(83)
    mats = [SUM3, AP3, AP4, R4, IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]]), IntMatrix([[2, 2, 0], [0, 0, 4]])]
    shapes = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 6)]
    while len(mats) < 306:
        r, m = rng.choice(shapes)
        draw = random_pinned_matrix if rng.random() < 0.5 else random_full_rank_matrix
        mat = draw(rng, r, m)
        if rng.random() < 0.3:
            mat = IntMatrix([[v * rng.choice((1, 2, 3)) for v in row] for row in mat.entries])
        mats.append(mat)
    nontrivial = 0
    for mat in mats:
        _, _, free, free_det = _slice_data(mat)
        pivots = greedy_columns(mat.entries, range(mat.cols))
        assert free == tuple(c for c in range(mat.cols) if c not in pivots), mat.entries
        basis = analyze_matrix(mat).kernel_basis
        assert free_det == abs(_laplace_det([list(basis[i]) for i in free])) > 0, mat.entries
        nontrivial += free_det > 1
    assert nontrivial >= 50, nontrivial


def test_slice_scans_past_the_candidate_limit_are_refused(monkeypatch):
    """Entries of 10^18 and 10^30 and random 5 x 9 matrices are refused before the scan, at once.

    At the limit's default the 3 x 7 matrix, with 169,024 candidates, is
    scanned (its kernel is the CI's); a limit one lower refuses it.
    """
    for big in (10**18, 10**30):
        with pytest.raises(PreconditionError, match=f"scan {4 * big + 20} candidate vertices"):
            enumerate_components(IntMatrix([[big, 1, -1]]))
    rng = random.Random(59)
    for _ in range(3):
        mat = random_full_rank_matrix(rng, 5, 9, -3, 4)
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="candidate vertices"):
            enumerate_components(mat)
        assert time.perf_counter() - start < 1
    m3x7 = IntMatrix([[1, -1, 2, -1, 3, 2, 3], [2, 2, 1, -3, 3, 0, 3], [-2, 2, -3, -2, -3, -1, 0]])
    monkeypatch.setattr(kernel_geometry, "_CANDIDATE_LIMIT", 169_023)
    with pytest.raises(PreconditionError, match="scan 169024 candidate vertices"):
        enumerate_components.__wrapped__(m3x7)


def test_wide_matrix_refused_before_any_adjugate(monkeypatch):
    """A seeded 7 x 14 matrix is refused off its 3,432 minor determinants alone, in under 1 s.

    Its 7 x 7 adjugates, 49 cofactor determinants for each minor, take
    seconds to build; the scan is refused before _slice_data asks for them.
    """
    mat = random_full_rank_matrix(random.Random(1), 7, 14, -3, 4)

    def no_adjugate(rows):
        raise AssertionError("an adjugate was built")

    monkeypatch.setattr(intmat, "_adjugate", no_adjugate)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="scan 149585422836736 candidate vertices"):
        enumerate_components(mat)
    assert time.perf_counter() - start < 1


def test_grid_bytes_are_the_sets_cells():
    """_GridBlocks.cells() holds, set by set, IntervalUnion.cells at the grid's q.

    Seeded sets on mixed grids (so q is the lcm of their denominators), with
    empty, full and one-cell sets among them, and the all-empty and all-full
    cases, where q is 1.
    """
    rng = random.Random(31)
    special = [IntervalUnion.empty(), IntervalUnion.full()]
    for _ in range(300):
        sets = []
        for _ in range(rng.randint(1, 5)):
            den = rng.choice([1, 2, 3, 4, 5, 6, 7, 12])
            kind = rng.random()
            if kind < 0.15:
                sets.append(rng.choice(special))
            elif kind < 0.3:
                x = rng.randrange(den)
                sets.append(IntervalUnion([(F(x, den), F(x + 1, den))]))
            else:
                sets.append(DiscreteSet(den, [rng.random() < 0.5 for _ in range(den)]).to_interval_union())
        grid = _GridBlocks([s.intervals for s in sets])
        assert grid.cells() == [s.cells(grid.q) for s in sets]
    for sets in ([IntervalUnion.empty()] * 3, [IntervalUnion.full()] * 2, special):
        grid = _GridBlocks([s.intervals for s in sets])
        assert grid.q == 1 and grid.cells() == [s.cells(1) for s in sets]


def test_walk_takes_the_slices_its_price_found(monkeypatch):
    """_walk_cost's search for the reachable slices is the one product_measure walks.

    With the search made to find nothing after pricing, the walk still
    takes every slice and gives the value of a fresh walk.
    """
    rng = random.Random(7)
    decomp = enumerate_components(IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]]))
    for _ in range(20):
        sets = random_run_sets(rng, 11, [rng.randint(1, 3) for _ in range(4)])
        expected = product_measure(decomp, [s.intervals for s in sets])
        grid = _GridBlocks([s.intervals for s in sets])
        _walk_cost(decomp, grid)
        found = grid.reach[1]
        with monkeypatch.context() as patch:
            patch.setattr(kernel_geometry, "product", lambda *args: iter(()))
            assert _reachable(decomp, grid) is found
            assert product_measure(decomp, grid) == expected
