"""Geometry of the solution subgroup {x in T^m : Lx = 0} of the torus.

Inside the unit cube the subgroup splits into finitely many affine slices:
one for each integer vector b (a "level") attained by Lx on [0,1)^m, the
slice being {x in [0,1)^m : Lx = b}.  Each slice is parametrized over the
canonical integer kernel basis B as x = x_b + B t, and for r >= 2 all
Haar-measure evaluations reduce to exact rational volumes of polytopes in
the t parameters.  Because every measure is a ratio of such volumes in one
fixed parametrization, the irrational Hausdorff normalization cancels and
never appears.  A single equation (r = 1) needs no slices: the measure of
a product of blocks is a sum of truncated powers over the integer levels
(see product_measure).

The same machinery yields the weight of a 1/p grid box (p^(m-r) times its
normalized Haar measure) and the cover of all positive-weight boxes by at
most one shift per level, which is what connects the continuous measure to
counting in Z_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from numbers import Rational

from .errors import BadModulusError, InternalInvariantError, InvalidInputError
from .intmat import IntMatrix, analyze_matrix, echelon, is_prime, rank_mod_p, solve
from .polytope import slice_polytope, volume
from .rationals import require_int

__all__ = [
    "KernelComponent",
    "KernelDecomposition",
    "WeightedShift",
    "enumerate_components",
    "slice_leaves",
    "product_measure",
    "box_measure",
    "weight",
    "shift_cover",
]


@dataclass(frozen=True)
class KernelComponent:
    """One affine slice of the kernel subgroup inside the unit cube.

    level: the integer vector b = Lx shared by all points of the slice.
    representative: a rational point x_b of the closed slice with
        L x_b = b exactly (the lexicographically smallest vertex).
    volume_param: the (m-r)-volume of {t : x_b + B t in [0,1]^m} in the
        canonical kernel-basis coordinates; slices touching the cube only
        in a face have volume 0 and are retained but flagged.
    hull: the bounding box of that parameter polytope, one (low, high)
        pair per kernel-basis coordinate, taken relative to x_b (so t = 0
        is x_b); every point of the closed slice is x_b + B t for some t
        in the box.
    """

    level: tuple[int, ...]
    representative: tuple[Fraction, ...]
    volume_param: Fraction
    hull: tuple[tuple[Fraction, Fraction], ...]

    @property
    def is_flat(self) -> bool:
        return self.volume_param == 0


@dataclass(frozen=True)
class KernelDecomposition:
    """All slices of the kernel subgroup, with normalization data.

    total_volume_param equals the product of the Smith invariants of L
    (the number of connected components of the subgroup); c_param is its
    reciprocal, the constant turning parameter volumes into normalized
    Haar measure.
    """

    matrix: IntMatrix
    basis_columns: tuple[tuple[int, ...], ...]
    components: tuple[KernelComponent, ...]
    total_volume_param: Fraction
    c_param: Fraction


@dataclass(frozen=True)
class WeightedShift:
    """A coset representative j with its weight.

    j is the lexicographically smallest solution of L j = -level (mod p)
    with entries in [0, p); lam is p^(m-r) times the normalized Haar
    measure of the grid box at j/p, a positive rational constant across
    the whole coset of j.  In closed form lam = c_param * vol_b, the Haar
    share of the level-b slice: the box holds that slice scaled by 1/p.
    """

    p: int
    j: tuple[int, ...]
    lam: Fraction
    level: tuple[int, ...]


def _particular_solution(mat: IntMatrix, pivots: list[int], b, p=None) -> tuple:
    """A solution of Lx = b over Q (p None) or GF(p), zero outside the pivot columns."""
    sol = solve([[row[c] for c in pivots] for row in mat.entries], b, p)
    if sol is None:
        raise InternalInvariantError(f"columns {pivots} give a singular minor")
    x = [Fraction(0) if p is None else 0] * mat.cols
    for c, v in zip(pivots, sol):
        x[c] = v
    return tuple(x)


@lru_cache(maxsize=128)
def enumerate_components(mat: IntMatrix) -> KernelDecomposition:
    """Enumerate all kernel slices with exact representatives and volumes.

    Candidate levels range over the closed integer box of row sums of
    negative/positive entries and are kept exactly when the slice meets the
    half-open cube [0,1)^m; slices meeting only the closed cube boundary
    belong to other slices modulo 1 and are discarded.

    Everything comes from one vertex enumeration of the closed slice per
    candidate level.  A convex subset of [0,1]^m misses [0,1)^m only when
    one coordinate equals 1 on all of it (a relative-interior point with
    x_i = 1 pins x_i = 1 throughout), hence on all of its vertices: the
    level is kept unless some coordinate is 1 at every vertex.
    """
    profile = analyze_matrix(mat)
    columns = tuple(profile.kernel_columns())
    pivots = echelon(mat.entries)[1]
    m = mat.cols
    comps = []
    ranges = mat.row_ranges()
    for b in product(*[range(lo, hi + 1) for lo, hi in ranges]):
        x_any = _particular_solution(mat, pivots, b)
        res = volume(slice_polytope(columns, x_any, [0] * m, [1] * m))
        points = sorted(
            (tuple(x_any[i] + sum(Fraction(c[i]) * t[k] for k, c in enumerate(columns)) for i in range(m)), t)
            for t in res.vertices
        )
        if not points or any(all(x[i] == 1 for x, _ in points) for i in range(m)):
            continue
        x_rep, t0 = points[0]
        hull = tuple(
            (min(t[k] for _, t in points) - t0[k], max(t[k] for _, t in points) - t0[k])
            for k in range(len(columns))
        )
        comps.append(
            KernelComponent(level=tuple(b), representative=x_rep, volume_param=res.volume, hull=hull)
        )
    comps.sort(key=lambda c: c.level)
    total = sum((c.volume_param for c in comps), Fraction(0))
    expected = math.prod(profile.smith_invariants)
    if total != expected:
        raise InternalInvariantError(
            f"total parameter volume {total} != product of Smith invariants {expected}"
        )
    return KernelDecomposition(
        matrix=mat,
        basis_columns=columns,
        components=tuple(comps),
        total_volume_param=total,
        c_param=Fraction(1, 1) / total,
    )


def _form_range(row, hull):
    """The range of row . t over the box hull."""
    lo = Fraction(0)
    hi = Fraction(0)
    for c, (l, u) in zip(row, hull):
        if c >= 0:
            lo += c * l
            hi += c * u
        else:
            lo += c * u
            hi += c * l
    return lo, hi


def _tighten(hull, row, lo, hi):
    """Intersect the hull with lo <= row . t <= hi (one propagation pass)."""
    hull = list(hull)
    for k, c in enumerate(row):
        if c == 0:
            continue
        omin, omax = _form_range(row[:k] + row[k + 1 :], hull[:k] + hull[k + 1 :])
        num_lo, num_hi = lo - omax, hi - omin
        if c > 0:
            tk_lo, tk_hi = num_lo / c, num_hi / c
        else:
            tk_lo, tk_hi = num_hi / c, num_lo / c
        l, u = hull[k]
        l, u = max(l, tk_lo), min(u, tk_hi)
        if l > u:
            return None
        hull[k] = (l, u)
    return hull


def slice_leaves(decomp: KernelDecomposition, comp: KernelComponent, blocks):
    """Yield the VolumeResult of the slice restricted to each block product.

    blocks[i] lists the blocks (a, b) of the i-th coordinate, each standing
    for the half-open [a, b).  A coordinate whose row of B is zero (a
    degenerate column) is the constant x_b[i] on the slice, so its block is
    kept exactly when a <= x_b[i] < b.  Every other coordinate varies on
    the slice and its block is taken closed, which changes no volume.
    Block combinations whose interval hull misses the slice are pruned,
    starting from the slice's bounding box comp.hull.  The parameter
    volumes of the leaves sum to that of the slice inside the product of
    the half-open blocks.
    """
    m = decomp.matrix.cols
    columns = decomp.basis_columns
    x_rep = comp.representative
    rows = [tuple(Fraction(c[i]) for c in columns) for i in range(m)]
    chosen: list[tuple[Fraction, Fraction]] = []

    def rec(i, hull):
        if i == m:
            lows, highs = zip(*chosen)
            yield volume(slice_polytope(columns, x_rep, lows, highs))
            return
        flo, fhi = _form_range(rows[i], hull)
        pinned = not any(rows[i])
        for a, b in blocks[i]:
            lo, hi = a - x_rep[i], b - x_rep[i]
            if hi < flo or lo > fhi or (pinned and hi == 0):
                continue
            new_hull = _tighten(hull, rows[i], lo, hi)
            if new_hull is None:
                continue
            chosen.append((a, b))
            yield from rec(i + 1, new_hull)
            chosen.pop()

    yield from rec(0, comp.hull)


def _single_row_measure(row, blocks) -> Fraction:
    """product_measure for one equation l . x in Z, with no slices walked.

    Zero entries leave their coordinates free, each contributing its
    measure.  If one entry l_i is nonzero, x_i is pinned to the points
    k/|l_i|, each of Haar weight 1/|l_i|, and the block [a, b) holds those
    with ceil(a|l_i|) <= k < ceil(b|l_i|).  With n >= 2 nonzero entries,
    the mass over the integer levels is a lattice sum of the univariate
    box spline of the directions l_i (b_i - a_i): the density of l . x on
    a block product is sum_c E_c (t - c)_+^(n-1) / ((n-1)! prod l_i), with
    signed prod l_i, where E is the product of the factors
    sum (z^(l_i a) - z^(l_i b)) over the blocks (de Boor, Hollig and
    Riemenschneider, Box Splines, 1993).  It is continuous, so its values
    at the integer levels lo..hi give the exact half-open measure.  All
    exponents are integers on the common denominator q of the endpoints,
    and only the final value is a Fraction.
    """
    moving = [i for i, l in enumerate(row) if l]
    rest = math.prod(sum((b - a for a, b in blocks[i]), Fraction(0)) for i, l in enumerate(row) if not l)
    if len(moving) == 1:
        (i,) = moving
        n = abs(row[i])
        return rest * Fraction(sum(math.ceil(b * n) - math.ceil(a * n) for a, b in blocks[i]), n)
    q = math.lcm(*(v.denominator for i in moving for pair in blocks[i] for v in pair))
    poly = {0: 1}
    for i in moving:
        factor = {}
        for a, b in blocks[i]:
            for v, sign in ((a, 1), (b, -1)):
                e = row[i] * q // v.denominator * v.numerator
                factor[e] = factor.get(e, 0) + sign
        merged = {}
        for c, w in poly.items():
            for e, s in factor.items():
                merged[c + e] = merged.get(c + e, 0) + w * s
        poly = {c: w for c, w in merged.items() if w}
    n = len(moving)
    lo, hi = sum(min(0, l) for l in row), sum(max(0, l) for l in row)
    total = sum(w * (q * y - c) ** (n - 1) for c, w in poly.items() for y in range(lo, hi + 1) if q * y > c)
    return rest * Fraction(total, math.factorial(n - 1) * math.prod(row[i] for i in moving) * q ** (n - 1))


def product_measure(decomp: KernelDecomposition, blocks) -> Fraction:
    """Normalized Haar measure of the subgroup inside the product of blocks.

    blocks[i] lists disjoint half-open blocks of the i-th coordinate.  A
    single equation (r = 1) has the closed form of _single_row_measure.
    For r >= 2 the value is c_param times the parameter volumes of
    slice_leaves over all slices.
    """
    if decomp.matrix.rows == 1:
        return _single_row_measure(decomp.matrix.entries[0], blocks)
    total = sum(
        (res.volume for comp in decomp.components for res in slice_leaves(decomp, comp, blocks)),
        Fraction(0),
    )
    return total * decomp.c_param


def box_measure(decomp: KernelDecomposition, j, p: int) -> Fraction:
    """Normalized Haar measure of the grid box j/p + [0, 1/p)^m.

    The product_measure of the one-block sets [j_i/p, (j_i+1)/p), exact
    under the half-open rule of slice_leaves.  p must be an int, and the
    entries of j ints or integral Rationals; floats are refused, even 1.0.
    """
    m = decomp.matrix.cols
    require_int("grid modulus", p, 1)
    j = tuple(j)
    if len(j) != m or not all(isinstance(v, Rational) and v.denominator == 1 and 0 <= v < p for v in j):
        raise InvalidInputError(f"box index {j} not an integer point of [0, {p})^{m}")
    j = tuple(map(int, j))
    return product_measure(decomp, [[(Fraction(v, p), Fraction(v + 1, p))] for v in j])


def weight(decomp: KernelDecomposition, j, p: int) -> Fraction:
    """p^(m-r) times the box measure; constant on cosets of the kernel mod p."""
    mat = decomp.matrix
    return box_measure(decomp, j, p) * Fraction(p) ** (mat.cols - mat.rows)


def _lex_min_solution_mod_p(mat: IntMatrix, target, p: int) -> tuple[int, ...]:
    """Lexicographically smallest j in [0,p)^m with L j = target (mod p).

    Eliminating L with its columns reversed picks, from the right, each
    column outside the span of the columns after it.  Every other column
    lies in that span, so its coordinate can be 0 without losing
    solvability; the r picked columns form an invertible minor, which
    fixes their coordinates uniquely.  Requires full rank mod p.
    """
    m = mat.cols
    pivots = [m - 1 - c for c in echelon([row[::-1] for row in mat.entries], p)[1]]
    return _particular_solution(mat, pivots, target, p)


def shift_cover(decomp: KernelDecomposition, p: int) -> list[WeightedShift]:
    """One weighted shift per positive-weight residue class of grid boxes.

    Every positive-measure grid box j satisfies L j = -b (mod p) for a
    positive-volume level b, and all boxes in one residue class share the
    same weight; the representative returned for the class of b is the
    lexicographically smallest solution of the congruence.  The weights of
    the cover sum to exactly 1.

    The weight of the class of b is c_param * vol_b, read off the slice
    volumes: for x = (j + y)/p with y in [0,1]^m, Lx is integral iff
    Ly = b (mod p), and Ly lies in the row-range box of width < p, so
    Ly = b exactly.  The box therefore holds the level-b slice scaled by
    1/p, of measure c_param * vol_b / p^(m-r).

    Requires p prime, full rank mod p, and p strictly larger than every row
    sum of absolute entries (so distinct levels stay distinct mod p and
    each box meets a single slice family).
    """
    mat = decomp.matrix
    if not is_prime(p):
        raise BadModulusError(f"p = {p} is not prime")
    if rank_mod_p(mat, p) != mat.rows:
        raise BadModulusError(f"matrix loses rank mod p = {p}")
    bound = mat.max_row_abs_sum()
    if p <= bound:
        raise BadModulusError(
            f"p = {p} too small: need p > {bound}, the largest row sum of absolute entries"
        )
    shifts = []
    for comp in decomp.components:
        if comp.volume_param == 0:
            continue
        target = tuple((-v) % p for v in comp.level)
        j = _lex_min_solution_mod_p(mat, target, p)
        lam = comp.volume_param * decomp.c_param
        shifts.append(WeightedShift(p=p, j=j, lam=lam, level=comp.level))
    return shifts
