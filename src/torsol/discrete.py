"""Exact solution counting for L x = 0 over Z_p.

The kernel mod p has exactly p^(m-r) elements once L keeps full rank mod p;
it is enumerated through a deterministic parametrization (dependent
coordinates expressed as linear functions of the free ones).  Densities are
exact rationals: solution count over p^(m-r).  For large p with few
equations a dynamic-programming count over residue vectors replaces the
kernel enumeration; both paths are exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import BadModulusError, InvalidInputError
from .intmat import IntMatrix, echelon, is_prime, solve
from .torus_sets import DiscreteSet

__all__ = [
    "KernelParametrization",
    "parametrize_kernel",
    "kernel_elements",
    "solution_density",
    "list_solutions",
]


@dataclass(frozen=True)
class KernelParametrization:
    """ker L over Z_p as dependent coordinates of free ones.

    dependent_columns are the first r columns (in lexicographic subset
    order) with an invertible minor mod p; coefficients give each dependent
    coordinate as a linear map of the free tuple, so iterating all p^(m-r)
    free tuples hits every kernel element exactly once.
    """

    p: int
    free_columns: tuple[int, ...]
    dependent_columns: tuple[int, ...]
    coefficients: tuple[tuple[int, ...], ...]  # r x (m-r), dependent = coeff @ free mod p


def parametrize_kernel(mat: IntMatrix, p: int) -> KernelParametrization:
    """Deterministic parametrization of ker L over Z_p (p prime)."""
    if not is_prime(p):
        raise BadModulusError(f"composite modulus {p}: counting works over prime fields only")
    # the greedy pivots are the lexicographically first invertible r-minor
    dependent = tuple(echelon(mat.entries, p)[1])
    if len(dependent) != mat.rows:
        raise BadModulusError(f"matrix loses rank mod p = {p}")
    minor = [[row[c] for c in dependent] for row in mat.entries]
    free = tuple(c for c in range(mat.cols) if c not in dependent)
    # M y_f = L_f for each free column f, so dependent = -sum_f y_f * free_f
    sols = [solve(minor, [row[f] for row in mat.entries], p) for f in free]
    coeff = tuple(tuple((-y[i]) % p for y in sols) for i in range(mat.rows))
    return KernelParametrization(
        p=p, free_columns=free, dependent_columns=dependent, coefficients=coeff
    )


def kernel_elements(param: KernelParametrization, m: int):
    """Yield all kernel elements, free tuples in lexicographic order."""
    p = param.p
    d = len(param.free_columns)
    for free_vals in product(range(p), repeat=d):
        x = [0] * m
        for c, v in zip(param.free_columns, free_vals):
            x[c] = v
        for i, c in enumerate(param.dependent_columns):
            x[c] = sum(a * v for a, v in zip(param.coefficients[i], free_vals)) % p
        yield tuple(x)


def _check_sets(mat: IntMatrix, p: int, sets) -> list[tuple[bool, ...]]:
    if len(sets) != mat.cols:
        raise InvalidInputError(f"need {mat.cols} sets, got {len(sets)}")
    arrays = []
    for s in sets:
        if isinstance(s, DiscreteSet):
            if s.p != p:
                raise InvalidInputError(f"set modulus {s.p} != {p}")
            arrays.append(s.members)
        else:
            arr = tuple(bool(v) for v in s)
            if len(arr) != p:
                raise InvalidInputError(f"membership array of length {len(arr)} for modulus {p}")
            arrays.append(arr)
    return arrays


def _check_shifts(mat: IntMatrix, p: int, shifts) -> tuple[int, ...]:
    if shifts is None:
        return (0,) * mat.cols
    shifts = tuple(int(v) % p for v in shifts)
    if len(shifts) != mat.cols:
        raise InvalidInputError(f"shifts of length {len(shifts)} for {mat.cols} coordinates")
    return shifts


def _count_by_enumeration(mat, param, members) -> int:
    p = param.p
    m = mat.cols
    count = 0
    free = param.free_columns
    dep = param.dependent_columns
    coeff = param.coefficients
    free_members = [members[c] for c in free]
    dep_members = [members[c] for c in dep]
    d = len(free)
    for free_vals in product(range(p), repeat=d):
        ok = True
        for arr, v in zip(free_members, free_vals):
            if not arr[v]:
                ok = False
                break
        if not ok:
            continue
        for i in range(len(dep)):
            v = sum(a * w for a, w in zip(coeff[i], free_vals)) % p
            if not dep_members[i][v]:
                ok = False
                break
        if ok:
            count += 1
    return count


def _count_by_dp(mat, p, members) -> int:
    """Count solutions of Lx = 0 mod p with x_i restricted, by residue DP.

    State: vector of partial row sums in Z_p^r, updated one coordinate at a
    time.  Cost O(m * p^(r+1)) independent of the kernel dimension.
    """
    r, m = mat.rows, mat.cols
    size = p**r
    state = [0] * size
    state[0] = 1
    for i in range(m):
        col = [mat.entries[k][i] % p for k in range(r)]
        allowed = [x for x in range(p) if members[i][x]]
        new = [0] * size
        for base in range(size):
            cnt = state[base]
            if not cnt:
                continue
            digits = []
            tmp = base
            for _ in range(r):
                digits.append(tmp % p)
                tmp //= p
            digits.reverse()
            for x in allowed:
                idx = 0
                for k in range(r):
                    idx = idx * p + (digits[k] + col[k] * x) % p
                new[idx] += cnt
        state = new
    return state[0]


def solution_density(mat: IntMatrix, p: int, sets, shifts=None) -> Fraction:
    """Fraction of kernel elements x with x_i + shift_i in the i-th set.

    Exact rational: the count of admissible kernel elements over p^(m-r).
    """
    members = _check_sets(mat, p, sets)
    shifts = _check_shifts(mat, p, shifts)
    shifted = [
        tuple(members[i][(x + shifts[i]) % p] for x in range(p)) for i in range(mat.cols)
    ]
    param = parametrize_kernel(mat, p)
    d = mat.cols - mat.rows
    enum_cost = p**d * mat.cols
    dp_cost = mat.cols * p ** (mat.rows + 1)
    if enum_cost <= dp_cost or enum_cost <= 4_000_000:
        count = _count_by_enumeration(mat, param, shifted)
    else:
        count = _count_by_dp(mat, p, shifted)
    return Fraction(count, p**d)


def list_solutions(mat: IntMatrix, p: int, sets, shifts=None, limit: int = 100) -> list[tuple[int, ...]]:
    """Up to `limit` admissible kernel elements, lexicographically sorted."""
    members = _check_sets(mat, p, sets)
    shifts = _check_shifts(mat, p, shifts)
    param = parametrize_kernel(mat, p)
    out = []
    for x in kernel_elements(param, mat.cols):
        if all(members[i][(x[i] + shifts[i]) % p] for i in range(mat.cols)):
            out.append(x)
    out.sort()
    return out[:limit]
