import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

from torsol import (
    IntMatrix,
    analyze_matrix,
    matrix_from_json,
    matrix_to_json,
)
from torsol import intmat
from torsol.discrete import kernel_element, parametrize_kernel
from torsol.errors import BadModulusError, InternalInvariantError, InvalidInputError, RankDeficientError
from torsol.intmat import PRIME_BOUND, _bareiss, basis_minors, is_prime
from torsol.intmat import _det as int_det
from torsol.polytope import _det, _rank, _solve

from oracles import (
    _laplace_det,
    greedy_columns,
    in_lattice,
    minor_rank,
    random_full_rank_matrix,
    random_pinned_matrix,
    smith_by_minors,
)

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
    rng = random.Random(5)
    for _ in range(20):
        r = rng.randint(1, 2)
        m = rng.randint(r + 1, 5)
        mat = random_full_rank_matrix(rng, r, m)
        flagged = {dc.column for dc in analyze_matrix(mat).degenerate_columns}
        for j in range(m):
            sub = [[row[k] for k in range(m) if k != j] for row in mat.entries]
            assert (j + 1 in flagged) == (_bareiss(sub)[0] < r)


def test_degenerate_witness_content_and_sign():
    prof = analyze_matrix(IntMatrix([[2, 2, 0], [0, 0, 4]]))
    for dc in prof.degenerate_columns:
        assert dc.multiplier > 0
        from math import gcd

        g = 0
        for v in dc.witness:
            g = gcd(g, v)
        assert g == 1


def test_smith_invariants_match_minors_oracle():
    rng = random.Random(19)
    nontrivial = 0
    for _ in range(80):
        r = rng.randint(1, 4)
        mat = random_full_rank_matrix(rng, r, rng.randint(r + 1, r + 3))
        scaled = IntMatrix([[v * rng.choice((1, 2, 3, 4, 6, 12)) for v in row] for row in mat.entries])
        for x in (mat, scaled):
            inv = analyze_matrix(x).smith_invariants
            assert inv == smith_by_minors(x.entries)
            assert len(inv) == x.rows and all(b % a == 0 for a, b in zip(inv, inv[1:]))
            nontrivial += inv[-1] > 1
    assert nontrivial > 40


def test_degenerate_columns_match_rank_drop_on_pinned_matrices():
    rng = random.Random(23)
    flagged_total = 0
    for _ in range(80):
        r = rng.randint(1, 3)
        m = rng.randint(r + 1, r + 3)
        mat = random_pinned_matrix(rng, r, m)
        found = {dc.column: dc for dc in analyze_matrix(mat).degenerate_columns}
        for j in range(m):
            sub = [[row[k] for k in range(m) if k != j] for row in mat.entries]
            # deleting column j drops the rank exactly when it is degenerate
            assert (j + 1 in found) == (len(smith_by_minors(sub)) < r)
        for j, dc in found.items():
            combo = [sum(v * row[k] for v, row in zip(dc.witness, mat.entries)) for k in range(m)]
            assert combo == [dc.multiplier if k == j - 1 else 0 for k in range(m)]
            assert dc.multiplier > 0 and gcd(*dc.witness) == 1
        flagged_total += len(found)
    assert flagged_total > 20


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "3", None])
def test_matrix_entries_must_be_integers(bad):
    with pytest.raises(InvalidInputError, match="not an integer"):
        IntMatrix([[bad, 1, -1]])
    assert IntMatrix([[Fraction(4, 2), 1, -1]]).entries == ((2, 1, -1),)


def test_rank_deficient_rejected_with_minor_diagnostic():
    with pytest.raises(RankDeficientError, match="minor"):
        IntMatrix([[1, 2, 3], [2, 4, 6]])


def test_shape_validation():
    with pytest.raises(InvalidInputError):
        IntMatrix([[1, 2], [3, 4]])  # m > r required
    with pytest.raises(InvalidInputError):
        IntMatrix([[1, 2, 3], [4, 5]])


def test_rank_mod_p():
    # parametrize_kernel is the package's rank test mod p: it refuses exactly when L loses rank
    for mat, p in ((SUM3, 5), (AP4, 101), (IntMatrix([[5, 1, 0], [0, 0, 1]]), 5)):
        assert len(parametrize_kernel(mat, p).dependent_columns) == mat.rows
    for mat, p in ((IntMatrix([[5, 0, 1], [0, 5, 1]]), 5), (IntMatrix([[1, 3, 4], [4, 1, 5]]), 11)):
        with pytest.raises(BadModulusError, match="loses rank"):
            parametrize_kernel(mat, p)


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


def test_matrix_json_refuses_floats_beyond_safe_range():
    # 2^53 + 1 has no float; json reads it as 2^53, so the file no longer says which integer it meant
    assert matrix_from_json({"entries": [[1.0, 2, -1]]}) == IntMatrix([[1, 2, -1]])
    assert matrix_from_json({"entries": [[float(2**53 - 1), 1, 0]]}) == IntMatrix([[2**53 - 1, 1, 0]])
    for v in (float(2**53 + 1), -float(2**53 + 1), 1e300):
        with pytest.raises(InvalidInputError, match="2\\^53"):
            matrix_from_json({"entries": [[v, 1, -1]]})
    with pytest.raises(InvalidInputError):
        matrix_from_json({"rows": float(2**60), "entries": [[1, 1, -1]]})
    assert matrix_from_json({"entries": [[str(2**53 + 1), 1, -1]]}).entries[0][0] == 2**53 + 1


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
    # the echelon pivots of L, columns 0 and 1 here, are the columns of its first basis minor
    rows = [[0, 2, 4], [1, 1, 1], [2, 2, 2]]
    assert _bareiss(rows) == (2, 0)
    assert _bareiss(rows[:2]) == (2, 0)
    assert basis_minors(IntMatrix(rows[:2]))[0] == ((0, 1), -2, ((1, -2), (-1, 0)))


def test_rank_det_solve_over_q_random():
    # _bareiss on integers, and the oracle's _rank, _det and _solve on rationals
    rng = random.Random(3)
    for _ in range(200):
        rational = rng.random() < 0.5
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = _random_matrix(rng, nrows, ncols, rational)
        # the rank is the size of the largest nonsingular minor
        best = 0
        for k in range(1, min(nrows, ncols) + 1):
            for rs in combinations(range(nrows), k):
                for cs in combinations(range(ncols), k):
                    if _leibniz([[rows[i][j] for j in cs] for i in rs]) != 0:
                        best = k
        assert _rank(rows) == best
        if not rational:
            assert _bareiss(rows)[0] == best

        n = min(nrows, ncols)
        square = [row[:n] for row in rows[:n]]
        d = _det(square)
        assert isinstance(d, Fraction)
        assert d == _leibniz(square)
        if not rational:
            assert _bareiss(square)[1] == d
        rhs = [rng.randint(-6, 6) for _ in range(n)]
        x = _solve(square, rhs)
        assert (x is None) == (d == 0)
        if x is not None:
            assert all(isinstance(v, Fraction) for v in x)
            assert _matvec(square, x) == rhs


def test_cofactor_determinants_match_bareiss():
    # _det, one per fan simplex of the volume walk, agrees with _bareiss and Leibniz, sparse or singular
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(40):
            values = (0, 0, 1, -1, 3, -7, 12) if rng.random() < 0.5 else range(-9, 10)
            rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
            d = int_det(rows)
            assert type(d) is int and d == _bareiss(rows)[1] == _leibniz(rows)
    # the empty minor of a 1 x 1 matrix's adjugate
    assert int_det([]) == _bareiss([])[1] == _leibniz([]) == 1


def test_integer_input_stays_exact():
    # a 1x1 system and an untouched first row are where int / int would leak a float
    assert _solve([[3]], [1]) == (Fraction(1, 3),)
    assert all(isinstance(v, Fraction) for v in _solve([[2, 1], [0, 3]], [1, 1]))
    assert _det([[2, 1], [1, 1]]) == 1 and isinstance(_det([[2, 1], [1, 1]]), Fraction)
    assert _det([[1, 2], [2, 4]]) == 0
    assert all(type(v) is int for v in _bareiss([[3, 1], [2, 5]]))
    # each row is cleared of its own denominators
    rows, rhs = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]], [1, Fraction(1, 7)]
    assert _det(rows) == Fraction(13, 30)
    assert _solve(rows, rhs) == (Fraction(200, 91), Fraction(-27, 91))


def test_rank_and_solve_mod_p_brute_force():
    # parametrize_kernel refuses iff the brute-force rank mod p is below r, and
    # kernel_element gives the one solution of L x = c with the chosen free part
    rng = random.Random(9)
    refused = 0
    for p in (2, 3, 5, 7):
        for _ in range(40):
            r = rng.randint(1, 3)
            m = rng.randint(r + 1, 4)
            try:
                mat = IntMatrix([[rng.randint(-6, 6) for _ in range(m)] for _ in range(r)])
            except RankDeficientError:
                continue
            if _brute_rank_mod_p(mat.entries, p) < r:
                with pytest.raises(BadModulusError, match="loses rank"):
                    parametrize_kernel(mat, p)
                refused += 1
                continue
            param = parametrize_kernel(mat, p)
            target = [rng.randint(-6, 6) for _ in range(r)]
            free_vals = [rng.randrange(p) for _ in param.free_columns]
            found = []
            for dep in product(range(p), repeat=r):
                x = [0] * m
                for c, v in (*zip(param.free_columns, free_vals), *zip(param.dependent_columns, dep)):
                    x[c] = v
                if _matvec(mat.entries, x, p) == [v % p for v in target]:
                    found.append(tuple(x))
            assert [kernel_element(param, m, free_vals, target)] == found
    assert refused >= 10, refused


def test_basis_minors_table():
    rng = random.Random(41)
    mats = [SUM3, AP3, AP4, DEGEN, IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]])]
    mats += [random_pinned_matrix(rng, r, r + rng.randint(1, 3)) for r in (1, 2, 3, 4) for _ in range(10)]
    for mat in mats:
        r, m = mat.rows, mat.cols
        table = basis_minors(mat)
        nonzero = [
            cols for cols in combinations(range(m), r) if _laplace_det([[row[c] for c in cols] for row in mat.entries])
        ]
        assert [cols for cols, _, _ in table] == nonzero  # lexicographic, every invertible minor
        for cols, delta, adj in table:
            l_d = [[row[c] for c in cols] for row in mat.entries]
            assert delta == _laplace_det(l_d)
            assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*l_d)] for row in adj] == [
                [delta * (i == j) for j in range(r)] for i in range(r)
            ]
        # the first minor is the greedy basis from the left, the echelon pivots
        assert table[0][0] == greedy_columns(mat.entries, range(m)) and len(table[0][0]) == minor_rank(mat.entries)
        if r == 1:
            assert all(adj == ((1,),) for _, _, adj in table)  # the 0 x 0 minor has determinant 1
    assert basis_minors(SUM3) == (((0,), 1, ((1,),)), ((1,), 1, ((1,),)), ((2,), -1, ((1,),)))


def _sieve(n):
    flags = [False, False] + [True] * (n - 2)
    for k in range(2, int(n**0.5) + 1):
        if flags[k]:
            flags[k * k :: k] = [False] * len(flags[k * k :: k])
    return flags


def test_is_prime_miller_rabin():
    assert [is_prime(n) for n in range(200_000)] == _sieve(200_000)
    # strong pseudoprimes to every smaller set of the prime bases
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    assert PRIME_BOUND == 3317044064679887385961981
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 2**127 - 1):
        with pytest.raises(BadModulusError, match=str(PRIME_BOUND)):
            is_prime(n)


def test_internal_kernel_check_raises_internal_error(monkeypatch):
    # a kernel vector that L does not annihilate is a bug, not bad input
    monkeypatch.setattr(intmat, "_integer_kernel", lambda entries: [(1, 0, 0)])
    with pytest.raises(InternalInvariantError, match="not in the kernel"):
        intmat.analyze_matrix.__wrapped__(SUM3)
