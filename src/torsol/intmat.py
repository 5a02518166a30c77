"""Exact integer linear algebra for the coefficient matrices of the pipeline.

Everything here is computed over arbitrary-precision integers and rationals:
a saturated basis of the integer kernel lattice (in a canonical column
Hermite normal form so downstream output is reproducible), Smith invariants,
the translation-invariance flag, and detection of degenerate columns whose
deletion drops the rank.  There is no floating-point code in this module.

`_column_hnf` and `_bareiss` are the package's only eliminations.  The
column Hermite form gives the kernel basis, the Smith invariants, the
degenerate-column witnesses and the Monte Carlo coset ranges; the
fraction-free `_bareiss` gives ranks and the determinants above 4 x 4;
outside the polytope oracle every determinant is a `_det`, by cofactors
up to 4 x 4, among them those of `_minor_dets`, the cached table of L's
invertible r x r minors; `basis_minors` adds their adjugates, and every
module takes its basis minor and its inverse there, over Q and mod p, but
the Monte Carlo sampler, which builds the one adjugate of its first minor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import BadModulusError, InternalInvariantError, InvalidInputError, RankDeficientError
from .rationals import int_from_json, int_to_json, is_integral
from .records import Record

__all__ = [
    "IntMatrix",
    "MatrixProfile",
    "DegenerateColumn",
    "analyze_matrix",
    "basis_minors",
    "is_prime",
    "PRIME_BOUND",
    "matrix_to_json",
    "matrix_from_json",
]


# the 13 prime bases 2, ..., 41 decide primality below this bound (Sorenson
# and Webster, Math. Comp. 86, 2017)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is a prime int; floats, bools and other types never are.

    Miller-Rabin to the bases of _WITNESSES, proven exact below
    PRIME_BOUND; from the bound on it raises BadModulusError.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        return False
    if n >= PRIME_BOUND:
        raise BadModulusError(f"modulus {n} too large: primality is proven only below {PRIME_BOUND}")
    if any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in _WITNESSES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


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


def _det(rows) -> int:
    """Determinant of a square integer matrix, with no elimination up to 4 x 4; 1 for 0 x 0.

    Closed forms up to 3 x 3, and the cofactors of the first row at
    4 x 4, take a few dozen multiplications; that is what each simplex of
    kernel_geometry._leaf's fans costs.  From 5 x 5 on, where cofactors
    grow as n!, the matrix goes to _bareiss.
    """
    n = len(rows)
    if n < 2:
        return rows[0][0] if n else 1
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n > 4:
        return _bareiss(rows)[1]
    first, rest = rows[0], rows[1:]
    total, sign = 0, 1
    for j, a in enumerate(first):
        if a:
            total += sign * a * _det([row[:j] + row[j + 1 :] for row in rest])
        sign = -sign
    return total


def _adjugate(rows) -> list[list[int]]:
    """The integer adjugate of a square integer matrix, from its cofactors; [[1]] for 1 x 1."""
    n = len(rows)
    return [
        [
            (-1) ** (i + j) * _det([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


class DegenerateColumn(Record):
    """A column whose deletion drops the rank to r-1.

    `column` is 1-based.  `witness` is an integer vector v of content 1 with
    v^T L zero everywhere except the entry `multiplier` != 0 at `column`;
    on the circle it forces multiplier * x_column = 0 for every solution.
    A frozen Record.
    """

    __slots__ = ("column", "witness", "multiplier")


class IntMatrix(Record):
    """An r x m integer matrix of full row rank r, with m > r.

    Entries are arbitrary-precision integers; full rank over the rationals
    is enforced at construction.  A frozen Record; as the key of every
    per-matrix cache it compares its entries directly and computes its
    hash once, here.
    """

    __slots__ = ("entries", "_hash")
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
        object.__setattr__(self, "_hash", hash((rows,)))
        found = _bareiss(rows)[0]
        if found != r:
            cols = tuple(range(1, r + 1))
            raise RankDeficientError(
                f"matrix has rank {found} < {r}; every {r}x{r} minor vanishes, "
                f"e.g. the minor on columns {cols}"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return self._hash

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


class MatrixProfile(Record):
    """Derived lattice data of an IntMatrix.

    kernel_basis is an m x (m-r) integer matrix (row-major) whose columns
    are a basis of the saturated lattice ker L over the integers, held in
    canonical column Hermite normal form.  smith_invariants are the
    elementary divisors d_1 | d_2 | ... | d_r of L; their product counts the
    connected components of the kernel subgroup of the torus.  A frozen
    Record.
    """

    __slots__ = ("rank", "kernel_basis", "smith_invariants", "is_invariant", "degenerate_columns")

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
def _minor_dets(mat: IntMatrix) -> tuple:
    """(D, det L_D) for every r-subset D of columns with det L_D != 0, in lexicographic order; no adjugate is built."""
    subsets = combinations(range(mat.cols), mat.rows)
    dets = ((cols, _det([[row[c] for c in cols] for row in mat.entries])) for cols in subsets)
    return tuple((cols, delta) for cols, delta in dets if delta)


@lru_cache(maxsize=256)
def basis_minors(mat: IntMatrix) -> tuple:
    """(D, det L_D, adj L_D) for every D of _minor_dets.

    The subsets D come in lexicographic order, so the first is the greedy
    basis from the left: each of its columns lies outside the span of the
    columns before it, the pivots of elimination from the left.  Since
    adj L_D L_D = det L_D I, the inverse of L_D is adj / det over Q, and
    adj * det^-1 mod p over GF(p) for every p not dividing det.
    """
    return tuple(
        (cols, delta, tuple(map(tuple, _adjugate([[row[c] for c in cols] for row in mat.entries]))))
        for cols, delta in _minor_dets(mat)
    )


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
            raise InternalInvariantError(f"kernel basis column {c} is not in the kernel of L")
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
