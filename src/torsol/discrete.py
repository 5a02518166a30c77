"""Exact solution counting for L x = 0 over Z_p.

`residue_counts` gives N(c), the number of y in A_1 x ... x A_m with
L y = c (mod p), for a list of targets c, counted over the smaller of two
sides.  One side is the whole count vector as a product of polynomials:
coordinate i contributes sum_{x in A_i} z^(x L_i), modulo z^p - 1 in each
of the r residue digits, and the running product is packed into one big
int (Kronecker substitution), so each shift and add of it works on every
coefficient at once.  The other side walks the free coordinates through
their own sets; the dependent ones follow from the target, and the last
free coordinate runs as a bit mask.  A shifted density is one count over
p^(m-r), the kernel size once L keeps full rank mod p.
`parametrize_kernel` writes the kernel as dependent coordinates that are
linear functions of the free ones; `kernel_element` maps one free tuple
through it, and `kernel_elements` lists the whole kernel, for callers
that need the solutions.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from numbers import Rational

from .errors import BadModulusError, InvalidInputError
from .intmat import IntMatrix, echelon, is_prime, solve
from .rationals import require_int
from .torus_sets import DiscreteSet

__all__ = [
    "KernelParametrization",
    "parametrize_kernel",
    "kernel_element",
    "kernel_elements",
    "residue_counts",
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


def _pivots_mod_p(mat: IntMatrix, p: int) -> tuple[int, ...]:
    """Pivot columns of L over GF(p); refuses composite p and rank loss mod p."""
    if not is_prime(p):
        raise BadModulusError(f"modulus {p!r} is not prime: counting works over prime fields only")
    pivots = tuple(echelon(mat.entries, p)[1])
    if len(pivots) != mat.rows:
        raise BadModulusError(f"matrix loses rank mod p = {p}")
    return pivots


def parametrize_kernel(mat: IntMatrix, p: int) -> KernelParametrization:
    """Deterministic parametrization of ker L over Z_p (p prime)."""
    # the greedy pivots are the lexicographically first invertible r-minor
    dependent = _pivots_mod_p(mat, p)
    minor = [[row[c] for c in dependent] for row in mat.entries]
    free = tuple(c for c in range(mat.cols) if c not in dependent)
    # M y_f = L_f for each free column f, so dependent = -sum_f y_f * free_f
    sols = [solve(minor, [row[f] for row in mat.entries], p) for f in free]
    coeff = tuple(tuple((-y[i]) % p for y in sols) for i in range(mat.rows))
    return KernelParametrization(
        p=p, free_columns=free, dependent_columns=dependent, coefficients=coeff
    )


def kernel_element(param: KernelParametrization, m: int, free_vals) -> tuple[int, ...]:
    """The kernel element whose free coordinates take the values free_vals."""
    x = [0] * m
    for c, v in zip(param.free_columns, free_vals):
        x[c] = v
    for row, c in zip(param.coefficients, param.dependent_columns):
        x[c] = sum(a * v for a, v in zip(row, free_vals)) % param.p
    return tuple(x)


def kernel_elements(param: KernelParametrization, m: int):
    """Yield all kernel elements, free tuples in lexicographic order."""
    for free_vals in product(range(param.p), repeat=len(param.free_columns)):
        yield kernel_element(param, m, free_vals)


def _check_sets(mat: IntMatrix, p: int, sets) -> list[tuple[bool, ...]]:
    if len(sets) != mat.cols:
        raise InvalidInputError(f"need {mat.cols} sets, got {len(sets)}")
    arrays = []
    for s in sets:
        s = s if isinstance(s, DiscreteSet) else DiscreteSet(p, s)
        if s.p != p:
            raise InvalidInputError(f"set modulus {s.p} != {p}")
        arrays.append(s.members)
    return arrays


def _check_shifts(mat: IntMatrix, p: int, shifts) -> tuple[int, ...]:
    if shifts is None:
        return (0,) * mat.cols
    shifts = tuple(shifts)
    if len(shifts) != mat.cols:
        raise InvalidInputError(f"shifts of length {len(shifts)} for {mat.cols} coordinates")
    if not all(isinstance(v, Rational) and v.denominator == 1 for v in shifts):
        raise InvalidInputError(f"shifts must be integers, got {shifts}")
    return tuple(int(v) % p for v in shifts)


# a packed count vector larger than this many bits is never built
_PACKED_BITS_LIMIT = 1 << 27
# packed bits that one shift and add handles in the time of one mask test
_BITS_PER_TEST = 1 << 14


def residue_counts(mat: IntMatrix, p: int, members, targets) -> list[int]:
    """N(c) = #{y in A_1 x ... x A_m : L y = c (mod p)} for each target c.

    Counts over the smaller side.  The packed count vector of all p^r
    residues costs one shift and add of its p (2p)^(r-1) slots per set
    member, whatever the targets.  The free tuples cost r mask tests per
    target and per tuple of all but the last free coordinate.  A test and
    a shift and add of _BITS_PER_TEST bits take about the same time (by
    timing SUM3 to AP5 at p = 37 to 1009).  The vector is built only when
    it is the cheaper side and fits in _PACKED_BITS_LIMIT bits.
    """
    free = [c for c in range(mat.cols) if c not in _pivots_mod_p(mat, p)]
    bits = _packed_bits(mat, p, members)
    tests = len(targets) * mat.rows * math.prod(sum(members[c]) for c in free[:-1])
    if bits <= _PACKED_BITS_LIMIT and sum(map(sum, members)) * (1 + bits // _BITS_PER_TEST) < tests:
        count = _packed_counts(mat, p, members)
        return [count(c) for c in targets]
    return _free_tuple_counts(mat, p, members, targets)


def _free_tuple_counts(mat: IntMatrix, p: int, members, targets) -> list[int]:
    """N(c) by walking the free coordinates through their own sets.

    With the free coordinates y_F fixed, L y = c has the one solution
    y_D = M^-1 c + K y_F (K from parametrize_kernel).  The last free
    coordinate t runs as a bit mask: dependent coordinate k lies in A_k
    for the t in {t : K_kt t in A_k} rotated by (M^-1 c + K y_F)_k / K_kt,
    so each tuple of the other free coordinates costs r ands and one
    popcount per target.
    """
    param = parametrize_kernel(mat, p)
    minor = [[row[c] for c in param.dependent_columns] for row in mat.entries]
    *outer, last = param.free_columns
    rotations = []  # per dependent coordinate: its doubled mask and 1 / K_kt, or its set and 0
    for row, arr in zip(param.coefficients, (members[c] for c in param.dependent_columns)):
        if row[-1]:
            mask = sum(1 << t for t in range(p) if arr[row[-1] * t % p])
            rotations.append((mask | mask << p, pow(row[-1], -1, p)))
        else:
            rotations.append((arr, 0))
    last_mask = sum(1 << t for t in range(p) if members[last][t])
    bases = [solve(minor, [v % p for v in c], p) for c in targets]
    counts = [0] * len(targets)
    for y in product(*([x for x in range(p) if members[c][x]] for c in outer)):
        offsets = [sum(a * v for a, v in zip(row, y)) for row in param.coefficients]
        for i, base in enumerate(bases):
            hits = last_mask
            for (arr, inv), b, o in zip(rotations, base, offsets):
                if inv:
                    hits &= arr >> ((b + o) * inv % p)
                elif not arr[(b + o) % p]:
                    hits = 0
            counts[i] += hits.bit_count()
    return counts


def _packed_bits(mat: IntMatrix, p: int, members) -> int:
    """Size in bits of the count vector that _packed_counts builds."""
    return p * (2 * p) ** (mat.rows - 1) * (math.prod(map(sum, members)).bit_length() + 1)


def _packed_counts(mat: IntMatrix, p: int, members) -> Callable[[Sequence[int]], int]:
    """The whole count vector c -> N(c), as one product of polynomials.

    N is the product over i of sum_{x in A_i} z^(x L_i), in r variables
    each taken modulo z^p - 1.  Residue c sits in slot sum_k (c_k mod p)
    (2p)^k: every digit but the last has 2p slots, so adding two reduced
    digits never carries.  The product is one int with w bits per slot;
    w exceeds the bit length of prod |A_i|, which bounds every
    coefficient.  A factor has at most p terms, so it goes in as one shift
    and add per term, several times faster at r = 2 than a Karatsuba
    product with the packed factor.  Then the last digit folds back into
    [0, p) by a shift and every other one by a mask of its slots >= p.
    """
    strides = [(2 * p) ** k for k in range(mat.rows)]
    slots = p * strides[-1]
    w = math.prod(sum(a) for a in members).bit_length() + 1

    def slot(c) -> int:
        return sum(v % p * s for v, s in zip(c, strides))

    low = (1 << (slots * w)) - 1
    folds = []
    for s in strides[:-1]:
        half = p * s * w  # digit k >= p: the upper half of each 2p s slots
        mask, span = ((1 << half) - 1) << half, 2 * half
        while span < slots * w:
            mask, span = mask | mask << span, 2 * span
        folds.append((mask & low, half))
    acc = 1  # the empty product
    for i, arr in enumerate(members):
        col = [row[i] for row in mat.entries]
        acc = sum(acc << (slot([a * x for a in col]) * w) for x in range(p) if arr[x])
        acc = (acc & low) + (acc >> (slots * w))
        for mask, half in folds:
            hi = acc & mask
            acc = (acc ^ hi) + (hi >> half)
    top = (1 << w) - 1
    return lambda c: (acc >> (slot(c) * w)) & top


def solution_density(mat: IntMatrix, p: int, sets, shifts=None) -> Fraction:
    """Fraction of kernel elements x with x_i + shift_i in the i-th set.

    Exact rational N(L shifts) / p^(m-r): y = x + shifts maps ker L onto
    the solutions of L y = L shifts (mod p).
    """
    members = _check_sets(mat, p, sets)
    shifts = _check_shifts(mat, p, shifts)
    target = [sum(a * s for a, s in zip(row, shifts)) for row in mat.entries]
    (count,) = residue_counts(mat, p, members, [target])
    return Fraction(count, p ** (mat.cols - mat.rows))


def list_solutions(mat: IntMatrix, p: int, sets, shifts=None, limit: int = 100) -> list[tuple[int, ...]]:
    """Up to `limit` admissible kernel elements, lexicographically sorted."""
    require_int("limit", limit, 0)
    members = _check_sets(mat, p, sets)
    shifts = _check_shifts(mat, p, shifts)
    param = parametrize_kernel(mat, p)
    out = []
    for x in kernel_elements(param, mat.cols):
        if all(members[i][(x[i] + shifts[i]) % p] for i in range(mat.cols)):
            out.append(x)
    out.sort()
    return out[:limit]
