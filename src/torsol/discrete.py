"""Exact solution counting for L x = 0 over Z_p.

`residue_counts` gives N(c), the number of y in A_1 x ... x A_m with
L y = c (mod p), for a list of targets c, counted over the cheaper of two
sides.  The sets come in as membership bytes (IntervalUnion.cells), one
byte per cell, and are read as they are: sizes by .count(1), members by
itertools.compress, layouts by strided slices.  One side is the whole
count vector as a product of polynomials: coordinate i contributes
sum_{x in A_i} z^(x L_i), modulo z^p - 1 in each of the r residue digits,
packed into one big int with whole-byte slots (Kronecker substitution;
Harvey, J. Symb. Comput. 2009).  At r = 1 a factor with gcd(L_i, p) = 1
is laid out from the membership bytes and multiplied in as one big-int
product; each other factor is one shift and add per member, read off its
slot table, so the vector is exact at any modulus.  A slot is as wide as
prod |A_i| / max{|A_i| : column i laid} (prod |A_i| when none is), in
whole bytes, decided by _packed_cost alone: a laid column's coefficient
is a unit mod p, so its coordinate is fixed by the others and the
target, and no count, nor any partial product, exceeds that bound.  The
vector is read out as bytes once, so a count is a slice of its slot.  What depends on (L, p) alone
(the slot strides, laid-out factors and slot tables, the free side's
scales, the set-free terms of both sides' prices) is built once per pair
by the cached _count_plan, at any modulus; measures keeps the slots and
free-side shifts of its own targets.  The other side walks
the tuples of all free coordinates but the last through their own sets, as
the rows of one big-int bit matrix per dependent coordinate: each target
costs a few shifts and ands of whole matrices, whose set bits
list_solutions and removal_lab expand into points.  A shifted density is
one count over p^(m-r), the kernel size once L keeps full rank mod p.
`parametrize_kernel` inverts a basis minor of L mod p and writes the
solutions of L x = c as linear functions of the free coordinates and c;
`kernel_element` maps one free tuple through it, and `kernel_elements`
lists the whole kernel.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, cycle, islice, product
from operator import mul

from .errors import BadModulusError, InvalidInputError
from .intmat import PRIME_BOUND, IntMatrix, basis_minors, is_prime
from .rationals import is_integral, require_int
from .records import Record
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


class KernelParametrization(Record):
    """ker L over Z_p as dependent coordinates of free ones.

    dependent_columns are the greedy basis from the right: each column
    outside the span of the columns after it, mod p.  Every other column
    lies in that span, so the solution of L x = c with free part 0 is the
    lexicographically smallest.  inverse is M^-1 mod p for the minor M on
    the dependent columns, and coefficients K = -M^-1 L_F, so
    x_D = M^-1 c + K x_F and the p^(m-r) free tuples give the kernel once.
    coefficients is r x (m-r) (dependent = coefficients @ free mod p) and
    inverse r x r.  A frozen Record.
    """

    __slots__ = ("p", "free_columns", "dependent_columns", "coefficients", "inverse")


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
# slot-table entries that one _CountPlan holds at most, over all its columns
_TABLE_LIMIT = 1 << 15
# bits of one bit matrix of the free side held at once
_CHUNK_BITS = 1 << 20
# big-int bits that one shift and add, or shift and and, handles in one unit of work
_BITS_PER_TEST = 1 << 14
# r = 1, in one unit of work: the membership cells that one pass over a
# set reads, and the size in bits of two packed vectors that Karatsuba
# multiplies in (size / _PRODUCT_BITS_PER_TEST)^log2(3) units
_CELLS_PER_TEST = 64
_PRODUCT_BITS_PER_TEST = 900
# the free side: units of work that its set-up takes whatever the sets, and
# rows of a bit matrix that it slices from the masks in one unit
_WALK_TESTS = 20
_ROWS_PER_TEST = 4
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


class _CountPlan(Record):
    """What counting mod q takes from (L, q) alone; _count_plan builds it once per pair.

    strides are the slot strides (2q)^k of the r residue digits and slots
    the count vector's slot count.  factors holds, per column, l mod q when
    _layout lays the column out (r = 1 and gcd(l, q) = 1 < q), else None,
    laid lists the indices of those columns (_slot_bytes divides by the
    largest of their sets) and shifted marks the other columns; tables
    holds the slot table x -> slot(x L_i) of each shifted column L_i over
    one period of x, [0, q / gcd(q, L_i)) (None for a laid one), so a zero
    column's is (0,).
    Memory bound: the tables exist only when the count vector fits
    _PACKED_BITS_LIMIT and they hold at most _TABLE_LIMIT ints in all
    (~1.2 MB), else tables is None and the packed side is not taken.
    laid_cost is what _packed_cost charges the laid columns whatever their
    sets: their _slicing strides and one pass over q cells each; products
    counts their big-int products.
    When q is a prime at which L keeps its rank, outer are the free columns
    but the last and walk the free side's set-up units, scales the
    1 / K_kt mod q of _line_masks (1 for a pinned coordinate) and unpin the
    rows of M^-1 times those scales, from which .shifts reads each target's
    shifts; else all four are None.  The masks, as long as the count
    vector, are built per call.
    """

    __slots__ = ("q", "strides", "slots", "factors", "laid", "shifted", "tables", "laid_cost", "products", "outer", "walk",
                 "scales", "unpin")

    def slot(self, c) -> int:
        """The slot of residue c in the packed count vector."""
        return sum(v % self.q * s for v, s in zip(c, self.strides))

    def shifts(self, targets) -> list[list[int]]:
        """Per target c, the shift (M^-1 c)_k / K_kt mod q of each dependent coordinate's bit matrix in _line_masks."""
        return [[sum(map(mul, row, c)) % self.q for row in self.unpin] for c in targets]


@lru_cache(maxsize=256, typed=True)
def _count_plan(mat: IntMatrix, q: int) -> _CountPlan:
    """The _CountPlan of L at modulus q, any q >= 1; typed, so 5.0 or True never reads the entry of 5 or 1."""
    strides = tuple((2 * q) ** k for k in range(mat.rows))
    row = mat.entries[0] if mat.rows == 1 else (0,) * mat.cols
    factors = tuple(l % q if math.gcd(l, q) == 1 < q else None for l in row)
    laid = tuple(i for i, l in enumerate(factors) if l is not None)
    shifted = tuple(l is None for l in factors)
    periods = [q // math.gcd(q, *col) if sh else 0 for col, sh in zip(zip(*mat.entries), shifted)]
    fits = 8 * q * strides[-1] <= _PACKED_BITS_LIMIT and sum(periods) <= _TABLE_LIMIT
    tables = tuple(tuple(sum(a * x % q * s for a, s in zip(col, strides)) for x in range(n)) if n else None
                   for col, n in zip(zip(*mat.entries), periods)) if fits else None
    laid_cost = sum(_slicing(factors[i], q)[1] for i in laid) + len(laid) * q / _CELLS_PER_TEST
    try:
        param = parametrize_kernel(mat, q)
    except BadModulusError:  # q is not prime, or L loses rank mod q: only the packed side counts
        outer = walk = scales = unpin = None
    else:
        outer, walk = param.free_columns[:-1], _WALK_TESTS + sum(_slicing(k, q)[1] for *_, k in param.coefficients if k)
        scales = tuple(pow(k, -1, q) if k else 1 for *_, k in param.coefficients)  # 1 / K_kt, 1 if pinned
        unpin = tuple(tuple(a * s % q for a in inv) for inv, s in zip(param.inverse, scales))
    return _CountPlan(q, strides, q * strides[-1], factors, laid, shifted, tables, laid_cost, max(len(laid) - 1, 0),
                      outer, walk, scales, unpin)


def residue_counts(mat: IntMatrix, p: int, members, targets, slots=None, shifts=None) -> list[int]:
    """N(c) = #{y in A_1 x ... x A_m : L y = c (mod p)} for each target c.

    members are the sets' membership bytes (or any sequences of 0/1 or
    bools), one per column of L, each p cells long, and each target has one
    residue per row of L; any other count, length or cell value raises
    InvalidInputError, after a bad p's BadModulusError.  The _count_plan is
    looked up once and handed on: _packed_cost gives the packed side's price
    and width from the members' .count(1) once.  slots and shifts, if given,
    are the targets' _CountPlan.slot and .shifts, kept by a caller whose
    targets are fixed.  Counts over the cheaper side, in units of work of about a
    microsecond (2-vCPU host, Python 3.11), its set-free terms from
    _count_plan.  The free side (_line_masks) has a per-tuple set-up: for
    each tuple of all but the last free coordinate, r rows sliced from the
    masks, _ROWS_PER_TEST to a unit, after _WALK_TESTS units and the
    _slicing strides of its unpinned masks.  Then each target costs r + 1
    shifts and ands of the bit matrices, a unit per _BITS_PER_TEST bits and
    one per chunk, and reading the matrices in costs about two targets more.  The packed
    count vector of all p^r residues costs the same whatever the targets:
    _packed_cost prices it from the set sizes alone, the one model that
    measures.solution_measure also reads to price its count identity.
    The constants come from timing both sides on SUM3, AP3, AP4, R4, AP5
    and [[1,1,0],[0,0,2]] at p = 37 to 1009, with 1 to 100 targets.  The
    vector is built only when it is the cheaper side; else the free side,
    which holds no vector, counts.
    """
    # no unpin: p is not prime, or L loses rank mod p; floats and the like never reach _count_plan's math.gcd
    plan = _count_plan(mat, p) if type(p) is int and 1 < p < PRIME_BOUND else None
    if plan is None or plan.unpin is None:
        plan = _count_plan(mat, parametrize_kernel(mat, p).p)  # refuses; past it only a prime int subclass
    m, r = len(plan.factors), len(plan.strides)
    if len(members) != m:
        raise InvalidInputError(f"need {m} members, got {len(members)}")
    sizes = []
    for arr in members:
        sizes.append(size := arr.count(1))
        if len(arr) != p or arr.count(0) + size != p:
            raise InvalidInputError(f"each member must be {p} cells of 0 or 1")
    if any(map(r.__ne__, map(len, targets))):
        raise InvalidInputError(f"each target must have {r} residues")
    rows = math.prod(map(sizes.__getitem__, plan.outer))
    matrix = rows * 8 * _row_bytes(p)  # bits of one of _line_masks' bit matrices
    walk = plan.walk + r * rows / _ROWS_PER_TEST
    walk += (len(targets) + 2) * (r + 1) * (-(-matrix // _CHUNK_BITS) + matrix / _BITS_PER_TEST)
    cost, size = _packed_cost(plan, sizes)
    if cost < walk:
        return _packed_counts(plan, members, map(plan.slot, targets) if slots is None else slots, size)
    return _free_tuple_counts(mat, p, members, targets, shifts)


def _packed_cost(plan: _CountPlan, sizes) -> tuple[float, int]:
    """(units, slot_bytes) of _packed_counts on sets of these sizes mod plan.q; units is inf past _PACKED_BITS_LIMIT bits or without slot tables.

    slot_bytes, _slot_bytes on the sizes and the plan's laid columns, is
    the width that every caller hands on as _packed_counts' size: it is
    decided here only.  At r = 1 a set with gcd(L_i, p) = 1 < p costs one
    pass over its p cells and one slice per _slicing stride, and from the
    second such set on one product of two packed vectors.  Every other set
    costs one shift and add of the whole vector per member, a unit per
    _BITS_PER_TEST bits.  Any modulus p >= 1 works, prime or not; plan is its _count_plan.
    """
    size = _slot_bytes(sizes, plan.laid)
    bits = plan.slots * 8 * size
    if bits > _PACKED_BITS_LIMIT or plan.tables is None:
        return math.inf, size
    cost = sum(compress(sizes, plan.shifted)) * (1 + bits // _BITS_PER_TEST) + plan.laid_cost
    return cost + plan.products * (bits / _PRODUCT_BITS_PER_TEST) ** math.log2(3), size  # the first meets one slot


def _line_masks(mat: IntMatrix, p: int, members, targets, shifts=None):
    """Walk the free coordinates but the last through their own sets, as rows of bit matrices.

    Yields (i, tuples, hits) for each chunk of tuples y of the outer free
    coordinates and each target index i with hits nonzero.  hits holds one
    row of _row_bytes(p) bytes per tuple, row n from bit 8 n _row_bytes(p):
    bit t of row n is set exactly when the solution x of L x = targets[i]
    with free part (tuples[n], t) lies in A_1 x ... x A_m.

    Its dependent coordinate k is b_k + o_k + K_kt t, with b = M^-1 c and
    o = K y, so it lies in A_k for the t in S_k = {t : K_kt t in A_k}
    rotated by (b_k + o_k) / K_kt.  Row n of coordinate k's matrix holds S_k
    rotated by o_k / K_kt and doubled, in its low 2p bits, so one shift of
    the whole matrix by b_k / K_kt rotates every row at once: a target
    costs r shifts and ands and an and with A_last in the low p bits of
    every row, which also clears what the shift brings down from the bits
    above 2p.  When K_kt = 0 the coordinate is pinned at b_k + o_k: its
    rows hold A_k rotated by o_k, and after the shift by b_k the low bit
    of each row, spread over p bits, says whether the pin lies in A_k.

    S_k is _layout's strided bytes, read as one int by a translate to
    '0'/'1' and int(..., 2), and repeated m - r + 1 times, since the
    offset o_k / K_kt is kept as a sum of m - r - 1 residues.  A row is a
    byte slice of that int shifted right by its offset mod 8, so a chunk is
    one join and one int.from_bytes per matrix, and no Python loop runs
    over the p cells.  A chunk holds at most _CHUNK_BITS bits per matrix,
    or one row.
    """
    param, plan, size = parametrize_kernel(mat, p), _count_plan(mat, p), _row_bytes(p)
    *outer, last = param.free_columns
    outer_members = [list(compress(range(p), members[c])) for c in outer]
    pins = [not row[-1] for row in param.coefficients]
    offsets = []  # per dependent coordinate: o_k / K_kt, tuple by tuple, each a sum of residues
    views = []  # per dependent coordinate: S_k repeated, shifted right by 0, ..., 7 bits, as bytes
    for row, s, c in zip(param.coefficients, plan.scales, param.dependent_columns):
        terms = [[a * s * y % p for y in ys] for a, ys in zip(row, outer_members)]
        offsets.append(map(sum, product(*terms)))
        mask = _bits(_layout(s, p, members[c]))
        repeated = sum(map(mask.__lshift__, range(0, (len(outer) + 2) * p, p)))  # a row reads 2p bits from below len(outer) p
        views.append([(repeated >> j).to_bytes((len(outer) + 2) * size, "little") for j in range(8)])
    last_row = _bits(members[last]).to_bytes(size, "little")
    low_bit = b"\x01".ljust(size, b"\x00")
    shifts = plan.shifts(targets) if shifts is None else shifts
    tuples = product(*outer_members)
    per_chunk = max(1, _CHUNK_BITS // (8 * size))
    while chunk := list(islice(tuples, per_chunk)):
        matrices = []
        for offs, view in zip(offsets, views):
            row_slices = [view[o & 7][o >> 3 : (o >> 3) + size] for o in islice(offs, len(chunk))]
            matrices.append(int.from_bytes(b"".join(row_slices), "little"))
        lows = int.from_bytes(last_row * len(chunk), "little")
        ones = int.from_bytes(low_bit * len(chunk), "little") if any(pins) else 0
        for i, shift in enumerate(shifts):
            hits = lows
            for matrix, s, pinned in zip(matrices, shift, pins):
                if pinned:
                    flag = matrix >> s & ones
                    hits &= (flag << p) - flag
                else:
                    hits &= matrix >> s
            if hits:
                yield i, chunk, hits


def _free_tuple_counts(mat: IntMatrix, p: int, members, targets, shifts=None) -> list[int]:
    """N(c) over the free tuples: the popcounts of _line_masks' bit matrices."""
    counts = [0] * len(targets)
    for i, _, hits in _line_masks(mat, p, members, targets, shifts):
        counts[i] += hits.bit_count()
    return counts


def _solutions(mat: IntMatrix, p: int, members, targets):
    """(i, x) for each x in A_1 x ... x A_m with L x = targets[i] (mod p): _line_masks' set bits."""
    param, m, width = parametrize_kernel(mat, p), len(members), 8 * _row_bytes(p)
    for i, tuples, hits in _line_masks(mat, p, members, targets):
        bits = bin(hits)[:1:-1]
        at = bits.find("1")
        while at >= 0:
            yield i, kernel_element(param, m, (*tuples[at // width], at % width), targets[i])
            at = bits.find("1", at + 1)


def _slot_bytes(sizes, laid) -> int:
    """Bytes per slot of the count vector of sets of these sizes, laid the columns that _layout lays out.

    The bit length of B = prod |A_i| / max{|A_i| : i laid} (prod |A_i| if
    none is), at least one byte, rounded up to whole bytes so that a count
    is read as a slice.  B bounds every count and every partial product on
    the way: a laid column's coefficient is a unit mod q, so its x_i is
    fixed by the other coordinates and the target.  An empty set makes
    B = 0 and the finished vector 0, whatever its partial products held.
    """
    bound = math.prod(sizes)
    if laid:
        bound //= max(map(sizes.__getitem__, laid)) or 1
    return (bound.bit_length() + 7 >> 3) or 1


def _row_bytes(p: int) -> int:
    """Bytes per row of _line_masks' bit matrices: 2p bits, padded to whole bytes."""
    return (2 * p + 7) // 8


def _bits(arr) -> int:
    """The int with bit x set exactly when arr[x] is 1: one translate and one int(..., 2)."""
    return int(bytes(arr)[::-1].translate(_BIT_CHARS), 2)


@lru_cache(maxsize=1024)
def _slicing(l: int, p: int) -> tuple[bool, int, bool]:
    """How _layout(l, p, ...) slices, 0 < l < p coprime to p: (gather by l^-1 mod p, stride = slices, reflect)."""
    g = pow(l, -1, p)
    gather = min(g, p - g) < min(l, p - l)
    s = g if gather else l
    return gather, min(s, p - s), 2 * s > p


def _layout(l: int, p: int, arr, size: int = 1) -> bytearray:
    """The bytes with arr[x] at slot l x mod p, size bytes a slot, for 0 < l < p coprime to p.

    Strided slices, as _slicing(l, p) chooses.  Either the x with
    k p <= l x < (k + 1) p go to l x - k p, every l-th slot, one slice per
    k; or slot u reads arr[g u] for g = l^-1 mod p, the u with
    k p <= g u < (k + 1) p from every g-th byte from g u - k p, one slice
    per k, whichever stride is nearer 0 or p.  When that stride s exceeds
    p/2 the reflection x -> -x of arr goes at stride p - s instead.
    """
    gather, s, reflect = _slicing(l, p)
    arr = bytes(arr)
    if reflect:
        arr = arr[:1] + arr[:0:-1]
    buf = bytearray(p * size)
    if gather:
        buf[::size] = b"".join([arr[-k * p % s :: s] for k in range(s)])
    else:
        for k in range(s):
            lo, hi = -(-k * p // s), -(-(k + 1) * p // s)
            buf[(s * lo - k * p) * size :: s * size] = arr[lo:hi]
    return buf


def _packed_counts(plan: _CountPlan, members, slots, size: int) -> list[int]:
    """The counts at slots (_CountPlan.slot) of the count vector c -> N(c), one product of polynomials.

    N is the product over i of sum_{x in A_i} z^(x L_i), in r variables
    each taken modulo z^p - 1.  Residue c sits in slot sum_k (c_k mod p)
    (2p)^k: every digit but the last has 2p slots, so adding two reduced
    digits never carries.  The product is one int with size bytes per
    slot, the width that _packed_cost gives for the sets' sizes, enough for
    every count.  At r = 1 a factor with gcd(L_i, p) = 1 is a dense vector
    of p slots from _layout, one big-int product, folded back mod z^p - 1
    by a shift.  Every other factor (gcd(L_i, p) > 1, p = 1, or r >= 2) is
    one shift and add per term read off the column's slot table, several
    times faster at r >= 2 than a Karatsuba product; then the last digit
    folds back into [0, p) by a shift and every other one by a mask of its
    slots >= p.  The strides, the laid-out columns and the slot tables
    (within their memory bound) come from plan, the caller's _count_plan;
    the masks, as long as the vector, are built per call.  The finished
    vector is read out as bytes once, so each count is a slice of its slot.
    """
    p, w = plan.q, 8 * size
    bits = plan.slots * w
    low = (1 << bits) - 1
    folds = []
    for s in plan.strides[:-1]:
        half = p * s * w  # digit k >= p: the upper half of each 2p s slots
        mask, span = ((1 << half) - 1) << half, 2 * half
        while span < bits:
            mask, span = mask | mask << span, 2 * span
        folds.append((mask & low, half))
    acc = 1  # the empty product
    for arr, l, table in zip(members, plan.factors, plan.tables):
        if l is not None:
            acc *= int.from_bytes(_layout(l, p, arr, size), "little")
        else:
            acc = sum(map(acc.__lshift__, map(w.__mul__, compress(cycle(table), arr))))  # acc << s w per member slot s
        acc = (acc & low) + (acc >> bits)
        for mask, half in folds:
            hi = acc & mask
            acc = (acc ^ hi) + (hi >> half)
    vec = acc.to_bytes(plan.slots * size, "little")
    return [int.from_bytes(vec[s * size : s * size + size], "little") for s in slots]


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
    solutions = _solutions(mat, p, members, [mat.apply_int(shifts)])
    return sorted(tuple((v - s) % p for v, s in zip(y, shifts)) for _, y in solutions)[:limit]
