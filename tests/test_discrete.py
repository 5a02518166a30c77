import random
from fractions import Fraction as F

import pytest

from torsol import (
    DiscreteSet,
    IntMatrix,
    kernel_elements,
    list_solutions,
    parametrize_kernel,
    solution_density,
)
from torsol.discrete import _count_by_dp
from torsol.errors import BadModulusError, InvalidInputError

from oracles import naive_density

SUM3 = IntMatrix([[1, 1, -1]])
AP3 = IntMatrix([[1, -2, 1]])
AP4 = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])


def dset(p, idx):
    return DiscreteSet.from_indices(p, idx)


def full(p):
    return DiscreteSet(p, [True] * p)


def test_parametrization_enumerates_kernel_exactly_once():
    for mat, p in ((SUM3, 5), (AP3, 7), (AP4, 5)):
        param = parametrize_kernel(mat, p)
        elems = list(kernel_elements(param, mat.cols))
        assert len(elems) == p ** (mat.cols - mat.rows)
        assert len(set(elems)) == len(elems)
        for x in elems:
            assert all(v % p == 0 for v in mat.apply_int(x))


def test_full_sets_density_one():
    for mat, p in ((SUM3, 5), (AP3, 7), (AP4, 11)):
        assert solution_density(mat, p, [full(p)] * mat.cols) == 1


def test_sum3_worked_example():
    sets = [dset(5, [0, 1])] * 3
    assert solution_density(SUM3, 5, sets) == F(3, 25)
    assert list_solutions(SUM3, 5, sets) == [(0, 0, 0), (0, 1, 1), (1, 0, 1)]


def test_sum3_shifted_example():
    sets = [dset(5, [0, 1])] * 3
    assert solution_density(SUM3, 5, sets, shifts=(0, 0, 1)) == F(1, 25)


def test_ap3_worked_example():
    sets = [dset(5, [0, 1])] * 3
    assert list_solutions(AP3, 5, sets) == [(0, 0, 0), (1, 1, 1)]


def test_empty_sets():
    sets = [dset(5, [])] * 3
    assert solution_density(SUM3, 5, sets) == 0
    assert list_solutions(SUM3, 5, sets) == []


def test_limit_truncates():
    sets = [full(5)] * 3
    sols = list_solutions(SUM3, 5, sets, limit=7)
    assert len(sols) == 7
    assert sols == sorted(sols)


def test_agrees_with_naive_oracle():
    rng = random.Random(13)
    for mat in (SUM3, AP3, AP4):
        for p in (5, 7, 11, 13):
            for _ in range(3):
                sets = [
                    DiscreteSet(p, [rng.random() < 0.5 for _ in range(p)])
                    for _ in range(mat.cols)
                ]
                shifts = tuple(rng.randrange(p) for _ in range(mat.cols))
                ours = solution_density(mat, p, sets, shifts)
                theirs = naive_density(
                    mat.entries, p, [s.members for s in sets], shifts
                )
                assert ours == theirs


def test_dp_path_matches_enumeration():
    rng = random.Random(19)
    for mat, p in ((SUM3, 11), (AP3, 13), (AP4, 7)):
        for _ in range(3):
            members = [
                tuple(rng.random() < 0.5 for _ in range(p)) for _ in range(mat.cols)
            ]
            count = _count_by_dp(mat, p, members)
            dens = solution_density(
                mat, p, [DiscreteSet(p, mem) for mem in members]
            )
            assert F(count, p ** (mat.cols - mat.rows)) == dens


def test_additive_in_disjoint_union_of_one_argument():
    rng = random.Random(23)
    p = 7
    for _ in range(5):
        a = [rng.random() < 0.5 for _ in range(p)]
        others = [
            DiscreteSet(p, [rng.random() < 0.6 for _ in range(p)]) for _ in range(2)
        ]
        idx = [x for x in range(p) if a[x]]
        rng.shuffle(idx)
        cut = len(idx) // 2
        part1 = dset(p, idx[:cut])
        part2 = dset(p, idx[cut:])
        whole = dset(p, idx)
        d1 = solution_density(SUM3, p, [part1] + others)
        d2 = solution_density(SUM3, p, [part2] + others)
        dw = solution_density(SUM3, p, [whole] + others)
        assert d1 + d2 == dw


def test_invariant_diagonal_lower_bound():
    p = 7
    for a in range(p):
        sets = [dset(p, [a])] * 3
        assert solution_density(AP3, p, sets) >= F(1, p**2)


def test_rank_drop_rejected():
    bad = IntMatrix([[5, 0, 1], [0, 5, 1]])
    with pytest.raises(BadModulusError):
        solution_density(bad, 5, [full(5)] * 3)


@pytest.mark.parametrize("length", [3, 9])
@pytest.mark.parametrize("count", [solution_density, list_solutions])
def test_membership_arrays_must_have_length_p(count, length):
    with pytest.raises(InvalidInputError, match="length"):
        count(SUM3, 5, [[True] * length] * 3)
    # so must shift vectors have length m = 3: (1,) and (1, 2, 3, 4) are refused
    with pytest.raises(InvalidInputError, match="length"):
        count(SUM3, 5, [[True] * 5] * 3, shifts=(1, 2, 3, 4)[: length // 2])


def test_shifts_wrap_modulo_p():
    sets = [dset(5, [0, 1])] * 3
    assert solution_density(SUM3, 5, sets, shifts=(5, 10, 6)) == solution_density(
        SUM3, 5, sets, shifts=(0, 0, 1)
    )
