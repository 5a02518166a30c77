"""Exact integer linear algebra for the coefficient matrices of the pipeline.

Everything here is computed over arbitrary-precision integers and rationals:
a saturated basis of the integer kernel lattice (in a canonical column
Hermite normal form so downstream output is reproducible), Smith invariants,
the translation-invariance flag, and detection of degenerate columns whose
deletion drops the rank.  There is no floating-point code in this module.

`echelon` is the package's only row reduction, over Q or GF(p); `rank`,
`det` and `solve` are built on it and serve every other module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError, RankDeficientError
from .rationals import int_from_json, int_to_json

__all__ = [
    "IntMatrix",
    "MatrixProfile",
    "DegenerateColumn",
    "analyze_matrix",
    "echelon",
    "rank",
    "det",
    "solve",
    "is_prime",
    "rank_mod_p",
    "matrix_to_json",
    "matrix_from_json",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _inverse(v, p):
    """1/v over Q (as a Fraction, never a float) or over GF(p)."""
    return Fraction(1) / v if p is None else pow(v, p - 2, p)


def echelon(rows, p=None) -> tuple[list[list], list[int], int]:
    """Row echelon form over Q (p None) or GF(p), by forward elimination.

    Returns the echelon rows, the pivot column of each nonzero row, and the
    sign (-1)^(row swaps).  Pivots are neither normalized nor cleared
    above, so the product of the pivots times the sign is the determinant
    of a square input.  Over GF(p) entries are reduced into [0, p); over Q
    they stay the caller's exact ints or become Fractions.
    """
    if p is None:
        work = [list(row) for row in rows]
    else:
        work = [[v % p for v in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if work[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        top = work[r]
        inv = _inverse(top[col], p)
        for i in range(r + 1, nrows):
            row = work[i]
            if row[col]:
                f = row[col] * inv
                if p is None:
                    work[i] = [a - f * b for a, b in zip(row, top)]
                else:
                    work[i] = [(a - f * b) % p for a, b in zip(row, top)]
        pivots.append(col)
    return work, pivots, sign


def rank(rows, p=None) -> int:
    """Rank over Q (p None) or GF(p)."""
    return len(echelon(rows, p)[1])


def det(rows) -> Fraction:
    """Determinant of a square matrix over Q."""
    work, pivots, sign = echelon(rows)
    if len(pivots) < len(work):
        return Fraction(0)
    out = Fraction(sign)
    for i, col in enumerate(pivots):
        out *= work[i][col]
    return out


def solve(rows, rhs, p=None):
    """The unique solution of the square system rows @ x = rhs, or None if singular.

    Over Q the entries are Fractions; over GF(p) ints in [0, p).
    """
    n = len(rows)
    work, pivots, _ = echelon([(*row, b) for row, b in zip(rows, rhs)], p)
    if len(pivots) < n or pivots[n - 1] != n - 1:
        return None
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = work[i]
        s = row[n] - sum(row[k] * x[k] for k in range(i + 1, n))
        x[i] = Fraction(s) / row[i] if p is None else s * _inverse(row[i], p) % p
    return tuple(x)


@dataclass(frozen=True)
class DegenerateColumn:
    """A column whose deletion drops the rank to r-1.

    `column` is 1-based.  `witness` is an integer vector v of content 1 with
    v^T L zero everywhere except the entry `multiplier` != 0 at `column`;
    on the circle it forces multiplier * x_column = 0 for every solution.
    """

    column: int
    witness: tuple[int, ...]
    multiplier: int


@dataclass(frozen=True)
class IntMatrix:
    """An r x m integer matrix of full row rank r, with m > r.

    Entries are arbitrary-precision integers; full rank over the rationals
    is enforced at construction.
    """

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        if not rows or not rows[0]:
            raise InvalidInputError("matrix must have at least one row and one column")
        m = len(rows[0])
        if any(len(row) != m for row in rows):
            raise InvalidInputError("ragged matrix rows")
        r = len(rows)
        if m <= r:
            raise InvalidInputError(f"need more columns than rows, got {r}x{m}")
        object.__setattr__(self, "entries", rows)
        found = rank(rows)
        if found != r:
            cols = tuple(range(1, r + 1))
            raise RankDeficientError(
                f"matrix has rank {found} < {r}; every {r}x{r} minor vanishes, "
                f"e.g. the minor on columns {cols}"
            )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def apply_int(self, vec) -> tuple[int, ...]:
        """L @ vec for an integer vector."""
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def apply_fraction(self, vec) -> tuple[Fraction, ...]:
        """L @ vec for a rational vector."""
        return tuple(
            sum((Fraction(a) * b for a, b in zip(row, vec)), Fraction(0))
            for row in self.entries
        )

    def max_row_abs_sum(self) -> int:
        return max(sum(abs(v) for v in row) for row in self.entries)

    def row_ranges(self) -> list[tuple[int, int]]:
        """Per-row (sum of negative entries, sum of positive entries)."""
        return [
            (sum(v for v in row if v < 0), sum(v for v in row if v > 0))
            for row in self.entries
        ]


@dataclass(frozen=True)
class MatrixProfile:
    """Derived lattice data of an IntMatrix.

    kernel_basis is an m x (m-r) integer matrix (row-major) whose columns
    are a basis of the saturated lattice ker L over the integers, held in
    canonical column Hermite normal form.  smith_invariants are the
    elementary divisors d_1 | d_2 | ... | d_r of L; their product counts the
    connected components of the kernel subgroup of the torus.
    """

    rank: int
    kernel_basis: tuple[tuple[int, ...], ...]
    smith_invariants: tuple[int, ...]
    is_invariant: bool
    degenerate_columns: tuple[DegenerateColumn, ...]

    def kernel_columns(self) -> list[tuple[int, ...]]:
        """The basis as a list of m-dimensional column vectors."""
        d = len(self.kernel_basis[0]) if self.kernel_basis else 0
        return [tuple(row[k] for row in self.kernel_basis) for k in range(d)]


def _integer_kernel_basis(entries: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Columns generating ker L over the integers, saturated.

    Column-reduce L to echelon form with unimodular column operations while
    mirroring them on an identity matrix; the mirrored columns matching the
    zero columns of the reduced L span the full integer kernel lattice.
    """
    r = len(entries)
    m = len(entries[0])
    a = [list(row) for row in entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap(j, k):
        for i in range(r):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(m):
            u[i][j], u[i][k] = u[i][k], u[i][j]

    def addmul(j, k, q):
        # column j -= q * column k
        for i in range(r):
            a[i][j] -= q * a[i][k]
        for i in range(m):
            u[i][j] -= q * u[i][k]

    def negate(j):
        for i in range(r):
            a[i][j] = -a[i][j]
        for i in range(m):
            u[i][j] = -u[i][j]

    col = 0
    for row in range(r):
        while True:
            nz = [j for j in range(col, m) if a[row][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(a[row][j]))
            if j0 != col:
                swap(j0, col)
            if a[row][col] < 0:
                negate(col)
            done = True
            for j in range(col + 1, m):
                if a[row][j] != 0:
                    q = a[row][j] // a[row][col]
                    if q:
                        addmul(j, col, q)
                    if a[row][j] != 0:
                        done = False
            if done:
                break
        if col < m and a[row][col] != 0:
            col += 1
    return [[u[i][j] for i in range(m)] for j in range(col, m)]


def _column_hnf(cols: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """Canonical column Hermite normal form of a full-column-rank basis.

    Pivots are positive, each column's first nonzero sits strictly below the
    previous column's, later columns vanish on earlier pivot rows, and
    entries of earlier columns on a pivot row are reduced into [0, pivot).
    """
    cols = [list(c) for c in cols]
    d = len(cols)
    pc = 0
    for row in range(m):
        if pc == d:
            break
        nz = [k for k in range(pc, d) if cols[k][row] != 0]
        if not nz:
            continue
        while True:
            nz = [k for k in range(pc, d) if cols[k][row] != 0]
            k0 = min(nz, key=lambda k: abs(cols[k][row]))
            if k0 != pc:
                cols[k0], cols[pc] = cols[pc], cols[k0]
            if cols[pc][row] < 0:
                cols[pc] = [-v for v in cols[pc]]
            rest = [k for k in range(pc + 1, d) if cols[k][row] != 0]
            if not rest:
                break
            for k in rest:
                q = cols[k][row] // cols[pc][row]
                if q:
                    cols[k] = [a - q * b for a, b in zip(cols[k], cols[pc])]
        piv = cols[pc][row]
        for k in range(pc):
            q = cols[k][row] // piv
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[pc])]
        pc += 1
    return [tuple(c) for c in cols]


def _smith_invariants(entries: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Elementary divisors of an integer matrix (nonzero ones only)."""
    a = [list(row) for row in entries]
    nr, nc = len(a), len(a[0])
    s = 0
    while s < min(nr, nc):
        best = None
        for i in range(s, nr):
            for j in range(s, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        a[s], a[i0] = a[i0], a[s]
        for row in a:
            row[s], row[j0] = row[j0], row[s]
        while True:
            for i in range(s + 1, nr):
                q = a[i][s] // a[s][s]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[s])]
            for j in range(s + 1, nc):
                q = a[s][j] // a[s][s]
                if q:
                    for row in a:
                        row[j] -= q * row[s]
            nz_col = [i for i in range(s + 1, nr) if a[i][s] != 0]
            nz_row = [j for j in range(s + 1, nc) if a[s][j] != 0]
            if not nz_col and not nz_row:
                bad = None
                for i in range(s + 1, nr):
                    for j in range(s + 1, nc):
                        if a[i][j] % a[s][s] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                a[s] = [x + y for x, y in zip(a[s], a[bad])]
                continue
            # remainder became the new smallest entry; re-pivot on it
            cand = [(abs(a[i][s]), i, s) for i in nz_col] + [(abs(a[s][j]), s, j) for j in nz_row]
            _, i0, j0 = min(cand)
            if i0 != s:
                a[s], a[i0] = a[i0], a[s]
            if j0 != s:
                for row in a:
                    row[s], row[j0] = row[j0], row[s]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
        s += 1
    return tuple(a[i][i] for i in range(s))


def _degenerate_columns(mat: IntMatrix) -> tuple[DegenerateColumn, ...]:
    r, m = mat.rows, mat.cols
    found = []
    for j in range(m):
        sub = [[row[k] for k in range(m) if k != j] for row in mat.entries]
        if rank(sub) == r:
            continue
        # 1-dimensional left kernel of the deleted submatrix, saturated
        v = tuple(_integer_kernel_basis(tuple(zip(*sub)))[0])
        ell = sum(v[i] * mat.entries[i][j] for i in range(r))
        if ell < 0:
            v = tuple(-x for x in v)
            ell = -ell
        found.append(DegenerateColumn(column=j + 1, witness=v, multiplier=ell))
    return tuple(found)


@lru_cache(maxsize=256)
def analyze_matrix(mat: IntMatrix) -> MatrixProfile:
    """Full lattice profile: kernel basis, Smith invariants, flags.

    The kernel basis is saturated (any integer vector in the rational kernel
    is an integer combination of its columns) and emitted in column Hermite
    normal form for reproducibility.
    """
    r, m = mat.rows, mat.cols
    raw = _integer_kernel_basis(mat.entries)
    cols = _column_hnf(raw, m)
    basis_rows = tuple(tuple(cols[k][i] for k in range(len(cols))) for i in range(m))
    for c in cols:
        if any(v != 0 for v in mat.apply_int(c)):
            raise InvalidInputError("internal kernel computation failed")  # pragma: no cover
    return MatrixProfile(
        rank=r,
        kernel_basis=basis_rows,
        smith_invariants=_smith_invariants(mat.entries),
        is_invariant=all(sum(row) == 0 for row in mat.entries),
        degenerate_columns=_degenerate_columns(mat),
    )


def rank_mod_p(mat: IntMatrix, p: int) -> int:
    """Rank of the matrix with entries reduced mod p (p prime)."""
    return rank(mat.entries, p)


def matrix_to_json(mat: IntMatrix) -> dict:
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "entries": [[int_to_json(v) for v in row] for row in mat.entries],
    }


def matrix_from_json(data) -> IntMatrix:
    if not isinstance(data, dict) or "entries" not in data:
        raise InvalidInputError("matrix JSON must be an object with an 'entries' field")
    entries = [[int_from_json(v) for v in row] for row in data["entries"]]
    mat = IntMatrix(entries)
    if "rows" in data and int_from_json(data["rows"]) != mat.rows:
        raise InvalidInputError("matrix JSON 'rows' disagrees with entries")
    if "cols" in data and int_from_json(data["cols"]) != mat.cols:
        raise InvalidInputError("matrix JSON 'cols' disagrees with entries")
    return mat
