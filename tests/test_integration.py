"""End-to-end fuzz: random and structured matrices through the whole stack.

The slice enumeration carries a built-in exact cross-check (total parameter
volume against the product of Smith invariants), so running it together
with the cover, the weight partition and both measure routes on arbitrary
matrices is a strong integration oracle.
"""

import random
from fractions import Fraction as F

from torsol import (
    IntMatrix,
    decompose,
    enumerate_components,
    shift_cover,
    solution_measure,
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
