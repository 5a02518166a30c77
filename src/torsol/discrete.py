"""Exact solution counting for L x = 0 over Z_p.

`residue_counts` gives N(c), the number of y in A_1 x ... x A_m with
L y = c (mod p), for a list of targets c, counted over the cheaper of two
sides.  One side is the whole count vector as a product of polynomials:
coordinate i contributes sum_{x in A_i} z^(x L_i), modulo z^p - 1 in each
of the r residue digits, packed into one big int with whole-byte slots
(Kronecker substitution; Harvey, J. Symb. Comput. 2009).  At r = 1 a
factor with gcd(L_i, p) = 1 is laid out from the membership bytes and
multiplied in as one big-int product; each other factor is one shift and
add per member, so the vector is exact at any modulus.  It is read out as
bytes once, so a count is a slice of its slot.  The other side walks the
free coordinates through their own sets; the dependent ones follow from
the target, and the last free coordinate runs as a bit mask, whose set
bits list_solutions and removal_lab expand into points.  A shifted density is
one count over p^(m-r), the kernel size once L keeps full rank mod p.
`parametrize_kernel` inverts a basis minor of L mod p and writes the
solutions of L x = c as linear functions of the free coordinates and c;
`kernel_element` maps one free tuple through it, and `kernel_elements`
lists the whole kernel.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import BadModulusError, InvalidInputError
from .intmat import IntMatrix, basis_minors, is_prime
from .rationals import is_integral, require_int
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

    dependent_columns are the greedy basis from the right: each column
    outside the span of the columns after it, mod p.  Every other column
    lies in that span, so the solution of L x = c with free part 0 is the
    lexicographically smallest.  inverse is M^-1 mod p for the minor M on
    the dependent columns, and coefficients K = -M^-1 L_F, so
    x_D = M^-1 c + K x_F and the p^(m-r) free tuples give the kernel once.
    """

    p: int
    free_columns: tuple[int, ...]
    dependent_columns: tuple[int, ...]
    coefficients: tuple[tuple[int, ...], ...]  # r x (m-r), dependent = coeff @ free mod p
    inverse: tuple[tuple[int, ...], ...]  # r x r, M^-1 mod p


@lru_cache(maxsize=256, typed=True)
def parametrize_kernel(mat: IntMatrix, p: int) -> KernelParametrization:
    """Parametrization of ker L over Z_p by a minor M of intmat.basis_minors.

    Of the minors with det != 0 mod p, M has the lexicographically largest
    columns, largest first, and M^-1 = adj M * (det M)^-1 mod p.  Refuses
    a p that is not a prime int below intmat.PRIME_BOUND, or at which L
    loses rank.  The cache keys on the type of p, so 5.0 or True never
    reads the entry of 5 or 1.
    """
    if not is_prime(p):
        raise BadModulusError(f"modulus {p!r} is not prime: counting works over prime fields only")
    bases = [minor for minor in basis_minors(mat) if minor[1] % p]
    if not bases:
        raise BadModulusError(f"matrix loses rank mod p = {p}")
    dependent, delta, adj = max(bases, key=lambda minor: minor[0][::-1])
    free = tuple(c for c in range(mat.cols) if c not in dependent)
    inverse = tuple(tuple(a * pow(delta, -1, p) % p for a in row) for row in adj)
    coeff = tuple(
        tuple(-sum(a * row[f] for a, row in zip(inv, mat.entries)) % p for f in free) for inv in inverse
    )
    return KernelParametrization(
        p=p, free_columns=free, dependent_columns=dependent, coefficients=coeff, inverse=inverse
    )


def kernel_element(param: KernelParametrization, m: int, free_vals, target=()) -> tuple[int, ...]:
    """The x with L x = target (mod p), by default 0, whose free coordinates are free_vals."""
    x = [0] * m
    for c, v in zip(param.free_columns, free_vals):
        x[c] = v
    for c, row, inv in zip(param.dependent_columns, param.coefficients, param.inverse):
        dep = sum(a * v for a, v in zip(row, free_vals)) + sum(a * t for a, t in zip(inv, target))
        x[c] = dep % param.p
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
    if not all(map(is_integral, shifts)):
        raise InvalidInputError(f"shifts must be integers, got {shifts}")
    return tuple(int(v) % p for v in shifts)


# a packed count vector larger than this many bits is never built
_PACKED_BITS_LIMIT = 1 << 27
# r >= 2: packed bits that one shift and add handles in the time of one mask test
_BITS_PER_TEST = 1 << 14
# r = 1, in the time of one mask test: the membership cells that one pass
# over a set reads, and the size in bits of two packed vectors that
# Karatsuba multiplies in (size / _PRODUCT_BITS_PER_TEST)^log2(3) tests
_CELLS_PER_TEST = 64
_PRODUCT_BITS_PER_TEST = 720


def residue_counts(mat: IntMatrix, p: int, members, targets) -> list[int]:
    """N(c) = #{y in A_1 x ... x A_m : L y = c (mod p)} for each target c.

    Counts over the smaller side, in units of one mask test.  The free
    tuples cost r mask tests per target and per tuple of all but the last
    free coordinate.  The packed count vector of all p^r residues costs
    the same whatever the targets.  For r = 1 that is, per set with
    L_i != 0 mod p, one pass over its p cells, one slice assignment per
    stride step of _factor (a test each), and one product of two packed
    vectors; each other set costs one shift and add of the whole vector per
    member, a test per _BITS_PER_TEST bits (timed on SUM3 to AP5 at p = 37
    to 1009).  The r = 1 constants come from timing passes, slices and
    products at p = 101 to 2003 against the mask tests of R4 at p = 101,
    and were checked on SUM3, AP3 and R4 at p = 37 to 1009.  The vector is
    built only when it is the cheaper side and fits in _PACKED_BITS_LIMIT
    bits; else the free tuples, which hold no vector, are walked.
    """
    free = parametrize_kernel(mat, p).free_columns
    bits = p * (2 * p) ** (mat.rows - 1) * 8 * _slot_bytes(members)  # _packed_counts' vector
    tests = len(targets) * mat.rows * math.prod(sum(members[c]) for c in free[:-1])
    row = mat.entries[0] if mat.rows == 1 else (0,) * mat.cols  # _factor lays out the l % p != 0
    steps = [min(l % p, -l % p) for l in row if l % p]
    cost = sum(sum(arr) for l, arr in zip(row, members) if not l % p) * (1 + bits // _BITS_PER_TEST)
    cost += sum(steps) + len(steps) * (p / _CELLS_PER_TEST + (bits / _PRODUCT_BITS_PER_TEST) ** math.log2(3))
    if bits <= _PACKED_BITS_LIMIT and cost < tests:
        count = _packed_counts(mat, p, members)
        return [count(c) for c in targets]
    return _free_tuple_counts(mat, p, members, targets)


def _line_masks(param: KernelParametrization, members, targets):
    """Walk the free coordinates but the last through their own sets.

    Yields (i, y, hits) for each such tuple y and each target index i
    with hits nonzero: bit t of hits is set exactly when the solution x of
    L x = targets[i] with free part (y, t) lies in A_1 x ... x A_m.  Its
    dependent coordinate k is b_k + o_k + K_kt t, with b = M^-1 c and
    o = K y, so it lies in A_k for the t in {t : K_kt t in A_k} rotated by
    (b_k + o_k) / K_kt: r ands per target and tuple.
    """
    p = param.p
    *outer, last = param.free_columns
    rotations = []  # per dependent coordinate: its doubled mask and 1 / K_kt, or its set and 0
    for row, arr in zip(param.coefficients, (members[c] for c in param.dependent_columns)):
        if row[-1]:
            mask = sum(1 << t for t in range(p) if arr[row[-1] * t % p])
            rotations.append((mask | mask << p, pow(row[-1], -1, p)))
        else:
            rotations.append((arr, 0))
    last_mask = sum(1 << t for t in range(p) if members[last][t])
    bases = [[sum(a * v for a, v in zip(inv, c)) for inv in param.inverse] for c in targets]
    for y in product(*([x for x in range(p) if members[c][x]] for c in outer)):
        offsets = [sum(a * v for a, v in zip(row, y)) for row in param.coefficients]
        for i, base in enumerate(bases):
            hits = last_mask
            for (arr, inv), b, o in zip(rotations, base, offsets):
                if inv:
                    hits &= arr >> ((b + o) * inv % p)
                elif not arr[(b + o) % p]:
                    hits = 0
            if hits:
                yield i, y, hits


def _free_tuple_counts(mat: IntMatrix, p: int, members, targets) -> list[int]:
    """N(c) by walking the free coordinates through their own sets: the popcounts of _line_masks."""
    counts = [0] * len(targets)
    for i, _, hits in _line_masks(parametrize_kernel(mat, p), members, targets):
        counts[i] += hits.bit_count()
    return counts


def _solutions(param: KernelParametrization, members, targets):
    """(i, x) for each x in A_1 x ... x A_m with L x = targets[i] (mod p): _line_masks' set bits."""
    m = len(members)
    for i, y, hits in _line_masks(param, members, targets):
        while hits:
            t = (hits & -hits).bit_length() - 1
            hits ^= 1 << t
            yield i, kernel_element(param, m, (*y, t), targets[i])


def _slot_bytes(members) -> int:
    """Bytes per slot of the count vector.

    The bit length of prod |A_i|, which bounds every count, plus 1,
    rounded up to whole bytes so that a count is read as a slice.
    """
    return (math.prod(map(sum, members)).bit_length() + 8) // 8


def _factor(l: int, p: int, arr, size: int) -> int:
    """sum_{x in A} z^(l x mod p) for 0 < l < p with gcd(l, p) = 1, with size-byte slots.

    Laid out from the membership bytes by strided slice assignments: the x
    with k p <= l x < (k + 1) p go to l x - k p, one slice per k, and no
    two x share a slot.  When l > p/2 the reflection x -> -x of A goes at
    stride p - l instead, so there are at most (p - 1)/2 slices and the
    buffer stays p slots long.
    """
    a = bytes(arr)
    if 2 * l > p:
        a, l = a[:1] + a[:0:-1], p - l
    buf = bytearray(p * size)
    for k in range(l):
        lo, hi = -(-k * p // l), -(-(k + 1) * p // l)
        buf[(l * lo - k * p) * size :: l * size] = a[lo:hi]
    return int.from_bytes(buf, "little")


def _packed_counts(mat: IntMatrix, p: int, members) -> Callable[[Sequence[int]], int]:
    """The whole count vector c -> N(c), as one product of polynomials.

    N is the product over i of sum_{x in A_i} z^(x L_i), in r variables
    each taken modulo z^p - 1.  Residue c sits in slot sum_k (c_k mod p)
    (2p)^k: every digit but the last has 2p slots, so adding two reduced
    digits never carries.  The product is one int with a whole number of
    bytes per slot (_slot_bytes), enough for every count.  At r = 1 a
    factor with gcd(L_i, p) = 1 is a dense vector of p slots from _factor,
    one big-int product, folded back mod z^p - 1 by a shift.  Every other
    factor (gcd(L_i, p) > 1, p = 1, or r >= 2) is one shift and add per
    term, several times faster at r >= 2 than a Karatsuba product; then
    the last digit folds back into [0, p) by a shift and every other one
    by a mask of its slots >= p.  The finished vector is read out as bytes
    once, so each count is a slice of its slot.
    """
    strides = [(2 * p) ** k for k in range(mat.rows)]
    slots = p * strides[-1]
    size = _slot_bytes(members)
    w = 8 * size

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
        if mat.rows == 1 and math.gcd(col[0], p) == 1 < p:
            acc *= _factor(col[0] % p, p, arr, size)
        else:
            acc = sum(acc << (slot([a * x for a in col]) * w) for x in range(p) if arr[x])
        acc = (acc & low) + (acc >> (slots * w))
        for mask, half in folds:
            hi = acc & mask
            acc = (acc ^ hi) + (hi >> half)
    vec = acc.to_bytes(slots * size, "little")

    def count(c) -> int:
        at = slot(c) * size
        return int.from_bytes(vec[at : at + size], "little")

    return count


def solution_density(mat: IntMatrix, p: int, sets, shifts=None) -> Fraction:
    """Fraction of kernel elements x with x_i + shift_i in the i-th set.

    Exact rational N(L shifts) / p^(m-r): y = x + shifts maps ker L onto
    the solutions of L y = L shifts (mod p).
    """
    members = _check_sets(mat, p, sets)
    shifts = _check_shifts(mat, p, shifts)
    (count,) = residue_counts(mat, p, members, [mat.apply_int(shifts)])
    return Fraction(count, p ** (mat.cols - mat.rows))


def list_solutions(mat: IntMatrix, p: int, sets, shifts=None, limit: int = 100) -> list[tuple[int, ...]]:
    """Up to `limit` admissible kernel elements x (x + shifts in the product), sorted."""
    require_int("limit", limit, 0)
    members = _check_sets(mat, p, sets)
    shifts = _check_shifts(mat, p, shifts)
    solutions = _solutions(parametrize_kernel(mat, p), members, [mat.apply_int(shifts)])
    return sorted(tuple((v - s) % p for v, s in zip(y, shifts)) for _, y in solutions)[:limit]
