"""Exact integer linear algebra for the coefficient matrices of the pipeline.

Everything here is computed over arbitrary-precision integers and rationals:
a saturated basis of the integer kernel lattice (in a canonical column
Hermite normal form so downstream output is reproducible), Smith invariants,
the translation-invariance flag, and detection of degenerate columns whose
deletion drops the rank.  There is no floating-point code in this module.

`echelon` is the package's only row reduction, over Q or GF(p); `rank`,
`det` and `solve` are built on it and serve every other module.
`_column_hnf` is the only integer elimination: the kernel basis, the Smith
invariants, the degenerate-column witnesses and the Monte Carlo coset
ranges all come from it.  `_bareiss` is the fraction-free rank and
determinant that the slice geometry runs on, in place of `det` over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError, RankDeficientError
from .rationals import int_from_json, int_to_json, is_integral

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
    "matrix_to_json",
    "matrix_from_json",
]


def is_prime(n: int) -> bool:
    """Whether n is a prime int; floats, bools and other types never are."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
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


def _bareiss(rows) -> tuple[int, int]:
    """Rank and determinant of an integer matrix by fraction-free elimination.

    Every intermediate entry is a minor of the input (Bareiss, Math. Comp.
    22, 1968), so each division is exact and no Fraction is made.  The
    determinant is 0 unless the matrix is square of full rank.
    """
    work = [list(row) for row in rows]
    n = len(work)
    ncols = len(work[0]) if n else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, n) if work[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
            sign = -sign
        top = work[rank]
        p = top[col]
        for i in range(rank + 1, n):
            f = work[i][col]
            work[i] = [(p * a - f * b) // prev for a, b in zip(work[i], top)]
        prev = p
        rank += 1
    return rank, (sign * prev if rank == n == ncols else 0)


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
        rows = tuple(tuple(row) for row in entries)
        for v in (v for row in rows for v in row):
            if not is_integral(v):
                raise InvalidInputError(f"matrix entry {v!r} is not an integer")
        rows = tuple(tuple(map(int, row)) for row in rows)
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


def _column_hnf(cols: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """Canonical column Hermite normal form of integer columns of length m.

    Pivots are positive, each column's first nonzero sits strictly below the
    previous column's, later columns vanish on earlier pivot rows, and
    entries of earlier columns on a pivot row are reduced into [0, pivot).
    Columns beyond the rank come out zero, at the end.
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


def _integer_kernel(entries) -> list[tuple[int, ...]]:
    """Saturated basis of the integer kernel of a matrix, in column HNF.

    The m columns (L e_j ; e_j) generate the lattice {(Lx ; x) : x in Z^m};
    in its Hermite normal form the columns vanishing on the first r rows
    are a basis of {(0 ; x) : Lx = 0}, and their last m entries are the
    kernel basis in its own (unique) Hermite normal form.
    """
    r, m = len(entries), len(entries[0])
    stacked = [[row[j] for row in entries] + [int(i == j) for i in range(m)] for j in range(m)]
    return [c[r:] for c in _column_hnf(stacked, r + m) if not any(c[:r])]


def _smith_invariants(entries: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Elementary divisors d_1 | ... | d_r of a full-row-rank integer matrix.

    Column Hermite forms of the columns and of the rows alternate until the
    matrix is diagonal (Kannan and Bachem, SIAM J. Comput. 8(4), 1979).
    Each form makes the corner entry the gcd of its row or of its column,
    so the corner only shrinks until its row and column are clear; then it
    stays, and the same holds for the block below it.  Pairwise gcd/lcm
    exchanges put the diagonal in divisibility order.
    """
    r = len(entries)
    a = list(zip(*entries))
    while True:
        a = _column_hnf(a, r)[:r]
        if not any(a[k][i] for k in range(r) for i in range(k + 1, r)):
            break
        a = list(zip(*a))
    d = [a[k][k] for k in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return tuple(d)


def _degenerate_columns(mat: IntMatrix, basis_rows) -> tuple[DegenerateColumn, ...]:
    """Columns j with e_j in the row space of L: row j of the kernel basis is zero."""
    found = []
    for j, basis_row in enumerate(basis_rows):
        if any(basis_row):
            continue
        # 1-dimensional left kernel of L without column j, saturated
        (v,) = _integer_kernel([[row[k] for row in mat.entries] for k in range(mat.cols) if k != j])
        ell = sum(a * row[j] for a, row in zip(v, mat.entries))
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
    cols = _integer_kernel(mat.entries)
    basis_rows = tuple(tuple(cols[k][i] for k in range(len(cols))) for i in range(m))
    for c in cols:
        if any(v != 0 for v in mat.apply_int(c)):
            raise InvalidInputError("internal kernel computation failed")  # pragma: no cover
    return MatrixProfile(
        rank=r,
        kernel_basis=basis_rows,
        smith_invariants=_smith_invariants(mat.entries),
        is_invariant=all(sum(row) == 0 for row in mat.entries),
        degenerate_columns=_degenerate_columns(mat, basis_rows),
    )


def matrix_to_json(mat: IntMatrix) -> dict:
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "entries": [[int_to_json(v) for v in row] for row in mat.entries],
    }


def matrix_from_json(data) -> IntMatrix:
    if not isinstance(data, dict) or "entries" not in data:
        raise InvalidInputError("matrix JSON must be an object with an 'entries' field")
    rows = data["entries"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InvalidInputError("matrix JSON 'entries' must be a list of rows, each a list of integers")
    entries = [[int_from_json(v) for v in row] for row in rows]
    mat = IntMatrix(entries)
    if "rows" in data and int_from_json(data["rows"]) != mat.rows:
        raise InvalidInputError("matrix JSON 'rows' disagrees with entries")
    if "cols" in data and int_from_json(data["cols"]) != mat.cols:
        raise InvalidInputError("matrix JSON 'cols' disagrees with entries")
    return mat
