import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from torsol import (
    IntMatrix,
    analyze_matrix,
    matrix_from_json,
    matrix_to_json,
    rank_mod_p,
)
from torsol.errors import InvalidInputError, RankDeficientError
from torsol.intmat import det, echelon, rank, solve

from oracles import in_lattice, random_full_rank_matrix

SUM3 = IntMatrix([[1, 1, -1]])
AP3 = IntMatrix([[1, -2, 1]])
AP4 = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])
DEGEN = IntMatrix([[1, 1, 0], [0, 0, 2]])


def test_sum3_profile():
    prof = analyze_matrix(SUM3)
    assert prof.rank == 1
    assert prof.kernel_basis == ((1, 0), (0, 1), (1, 1))
    assert prof.smith_invariants == (1,)
    assert not prof.is_invariant
    assert prof.degenerate_columns == ()


def test_ap3_is_invariant():
    prof = analyze_matrix(AP3)
    assert prof.is_invariant
    assert analyze_matrix(AP4).is_invariant


def test_degenerate_column_detection():
    prof = analyze_matrix(DEGEN)
    assert len(prof.degenerate_columns) == 1
    dc = prof.degenerate_columns[0]
    assert dc.column == 3
    assert dc.witness == (0, 1)
    assert dc.multiplier == 2
    assert prof.smith_invariants == (1, 2)


def test_kernel_basis_annihilated_and_full_rank():
    for mat in (SUM3, AP3, AP4, DEGEN):
        prof = analyze_matrix(mat)
        cols = prof.kernel_columns()
        assert len(cols) == mat.cols - mat.rows
        for c in cols:
            assert mat.apply_int(c) == (0,) * mat.rows
        # columns are linearly independent over Q
        rows = [[Fraction(c[i]) for c in cols] for i in range(mat.cols)]
        nonzero = [r for r in rows if any(v != 0 for v in r)]
        assert len({tuple(r) for r in nonzero}) >= 1


def test_saturation_brute_force_small_vectors():
    # every small integer vector in ker_R L must be an integer combination
    for mat in (SUM3, AP3):
        cols = analyze_matrix(mat).kernel_columns()
        found = 0
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    v = (a, b, c)
                    if mat.apply_int(v) == (0,) * mat.rows:
                        assert in_lattice(cols, v)
                        found += 1
        assert found > 1


def test_saturation_random_matrices():
    rng = random.Random(11)
    for _ in range(15):
        r = rng.randint(1, 2)
        m = rng.randint(r + 1, 5)
        mat = random_full_rank_matrix(rng, r, m)
        cols = analyze_matrix(mat).kernel_columns()
        # random rational kernel vectors, scaled to integers
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in cols]
            vec = [
                sum(c * Fraction(col[i]) for c, col in zip(coeffs, cols))
                for i in range(m)
            ]
            lcm = 1
            for v in vec:
                lcm = lcm * v.denominator // __import__("math").gcd(lcm, v.denominator)
            w = tuple(int(v * lcm) for v in vec)
            assert mat.apply_int(w) == (0,) * r
            assert in_lattice(cols, w)


def test_degeneracy_agrees_with_direct_rank():
    from torsol.intmat import rank as _rational_rank

    rng = random.Random(5)
    for _ in range(20):
        r = rng.randint(1, 2)
        m = rng.randint(r + 1, 5)
        mat = random_full_rank_matrix(rng, r, m)
        flagged = {dc.column for dc in analyze_matrix(mat).degenerate_columns}
        for j in range(m):
            sub = [[Fraction(row[k]) for k in range(m) if k != j] for row in mat.entries]
            assert (j + 1 in flagged) == (_rational_rank(sub) < r)


def test_degenerate_witness_content_and_sign():
    prof = analyze_matrix(IntMatrix([[2, 2, 0], [0, 0, 4]]))
    for dc in prof.degenerate_columns:
        assert dc.multiplier > 0
        from math import gcd

        g = 0
        for v in dc.witness:
            g = gcd(g, v)
        assert g == 1


def test_rank_deficient_rejected_with_minor_diagnostic():
    with pytest.raises(RankDeficientError, match="minor"):
        IntMatrix([[1, 2, 3], [2, 4, 6]])


def test_shape_validation():
    with pytest.raises(InvalidInputError):
        IntMatrix([[1, 2], [3, 4]])  # m > r required
    with pytest.raises(InvalidInputError):
        IntMatrix([[1, 2, 3], [4, 5]])


def test_rank_mod_p():
    assert rank_mod_p(SUM3, 5) == 1
    assert rank_mod_p(AP4, 101) == 2
    assert rank_mod_p(IntMatrix([[5, 1, 0], [0, 0, 1]]), 5) == 2
    assert rank_mod_p(IntMatrix([[5, 0, 1], [0, 5, 1]]), 5) == 1


def test_canonical_basis_reproducible():
    a = analyze_matrix(IntMatrix([[1, -2, 1]]))
    b = analyze_matrix(IntMatrix([[1, -2, 1]]))
    assert a.kernel_basis == b.kernel_basis
    assert a.kernel_basis == ((1, 0), (0, 1), (-1, 2))


def test_matrix_json_roundtrip():
    mat = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])
    assert matrix_from_json(matrix_to_json(mat)) == mat
    big = IntMatrix([[2**60, 1, 0], [0, 0, 1]])
    data = matrix_to_json(big)
    assert isinstance(data["entries"][0][0], str)
    assert matrix_from_json(data) == big


def _random_matrix(rng, nrows, ncols, rational):
    def entry():
        if rng.random() < 0.3:
            return 0
        if rational:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randint(-4, 4)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        # force a dependent row now and then
        k = rng.randint(-2, 2)
        rows[-1] = [k * a + b for a, b in zip(rows[0], rows[1])]
    return rows


def _leibniz(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _matvec(rows, x, p=None):
    out = [sum(a * b for a, b in zip(row, x)) for row in rows]
    return out if p is None else [v % p for v in out]


def _brute_rank_mod_p(rows, p):
    """log_p of the number of vectors in the row space mod p."""
    ncols = len(rows[0])
    span = {
        tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(ncols))
        for coeffs in product(range(p), repeat=len(rows))
    }
    r = 0
    while p**r < len(span):
        r += 1
    return r


def test_echelon_shape():
    rows, pivots, sign = echelon([[0, 2, 4], [1, 1, 1], [2, 2, 2]])
    assert pivots == [0, 1]
    assert sign == -1
    assert all(v == 0 for v in rows[2])
    for i, col in enumerate(pivots):
        assert rows[i][col] != 0
        assert all(rows[k][col] == 0 for k in range(i + 1, len(rows)))


def test_rank_det_solve_over_q_random():
    rng = random.Random(3)
    for _ in range(200):
        rational = rng.random() < 0.5
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = _random_matrix(rng, nrows, ncols, rational)
        r = rank(rows)
        assert r == len(echelon(rows)[1]) <= min(nrows, ncols)
        # the rank is the size of the largest nonsingular minor
        best = 0
        for k in range(1, min(nrows, ncols) + 1):
            for rs in combinations(range(nrows), k):
                for cs in combinations(range(ncols), k):
                    if _leibniz([[rows[i][j] for j in cs] for i in rs]) != 0:
                        best = k
        assert r == best

        n = min(nrows, ncols)
        square = [row[:n] for row in rows[:n]]
        d = det(square)
        assert isinstance(d, Fraction)
        assert d == _leibniz(square)
        rhs = [rng.randint(-6, 6) for _ in range(n)]
        x = solve(square, rhs)
        assert (x is None) == (d == 0)
        if x is not None:
            assert all(isinstance(v, Fraction) for v in x)
            assert _matvec(square, x) == rhs


def test_integer_input_stays_exact():
    # a 1x1 system and an untouched first row are where int / int would leak a float
    assert solve([[3]], [1]) == (Fraction(1, 3),)
    assert all(isinstance(v, Fraction) for v in solve([[2, 1], [0, 3]], [1, 1]))
    assert det([[2, 1], [1, 1]]) == 1 and isinstance(det([[2, 1], [1, 1]]), Fraction)
    assert det([[1, 2], [2, 4]]) == 0
    for row in echelon([[3, 1], [2, 5]])[0]:
        assert not any(isinstance(v, float) for v in row)


def test_rank_and_solve_mod_p_brute_force():
    rng = random.Random(9)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            nrows = rng.randint(1, 3)
            ncols = rng.randint(1, 4)
            rows = _random_matrix(rng, nrows, ncols, rational=False)
            assert rank(rows, p) == _brute_rank_mod_p(rows, p)

            n = rng.randint(1, 3)
            square = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-6, 6) for _ in range(n)]
            target = [v % p for v in rhs]
            found = [x for x in product(range(p), repeat=n) if _matvec(square, x, p) == target]
            x = solve(square, rhs, p)
            # a square system mod p has exactly one solution iff it is nonsingular
            if len(found) == 1:
                assert x == found[0]
                assert all(type(v) is int and 0 <= v < p for v in x)
            else:
                assert x is None
