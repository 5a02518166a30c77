"""Geometry of the solution subgroup {x in T^m : Lx = 0} of the torus.

Inside the unit cube the subgroup splits into finitely many affine slices:
one for each integer vector b (a "level") attained by Lx on [0,1)^m, the
slice being {x in [0,1)^m : Lx = b}.  Each slice is parametrized over the
canonical integer kernel basis B as x = x_b + B t, and all Haar-measure
evaluations reduce to exact rational volumes of polytopes in the t
parameters.  Because every measure is a ratio of such volumes in one fixed
parametrization, the irrational Hausdorff normalization cancels and never
appears.

The same machinery yields the weight of a 1/p grid box (p^(m-r) times its
normalized Haar measure) and the cover of all positive-weight boxes by at
most one shift per level, which is what connects the continuous measure to
counting in Z_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import BadModulusError, InternalInvariantError, InvalidInputError
from .intmat import IntMatrix, MatrixProfile, analyze_matrix, echelon, is_prime, rank_mod_p, solve
from .polytope import (
    HPolytope,
    VolumeResult,
    _vertices_raw,
    enumerate_vertices,
    slice_polytope,
    volume,
)

__all__ = [
    "KernelComponent",
    "KernelDecomposition",
    "WeightedShift",
    "enumerate_components",
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
    """

    level: tuple[int, ...]
    representative: tuple[Fraction, ...]
    volume_param: Fraction

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
    the whole coset of j.
    """

    p: int
    j: tuple[int, ...]
    lam: Fraction
    level: tuple[int, ...]


def _particular_solution(mat: IntMatrix, pivots: list[int], b) -> tuple[Fraction, ...]:
    """A rational solution of Lx = b with zeros outside the pivot columns."""
    sol = solve([[row[c] for c in pivots] for row in mat.entries], b)
    x = [Fraction(0)] * mat.cols
    for c, v in zip(pivots, sol):
        x[c] = v
    return tuple(x)


def _half_open_feasible(x_rep, columns) -> bool:
    """Does {x in [0,1)^m : x = x_rep + B t} meet the half-open cube?

    Lift to (t, s) and minimize s subject to 0 <= x_rep + Bt <= s <= 1;
    the minimum of the largest coordinate sits at a vertex of the lifted
    polytope, and the slice meets [0,1)^m exactly when it is < 1.
    """
    d = len(columns)
    m = len(x_rep)
    zero = Fraction(0)
    cons = []
    for i in range(m):
        row = [Fraction(c[i]) for c in columns]
        cons.append((tuple(-v for v in row) + (zero,), x_rep[i]))
        cons.append((tuple(row) + (Fraction(-1),), -x_rep[i]))
    cons.append(((zero,) * d + (Fraction(1),), Fraction(1)))
    # bounded by construction: 0 <= x + Bt <= s <= 1 with B of full column rank
    verts = _vertices_raw(d + 1, HPolytope(d + 1, cons).constraints)
    if not verts:
        return False
    return min(v[d] for v in verts) < 1


@lru_cache(maxsize=128)
def enumerate_components(mat: IntMatrix, profile: MatrixProfile | None = None) -> KernelDecomposition:
    """Enumerate all kernel slices with exact representatives and volumes.

    Candidate levels range over the closed integer box of row sums of
    negative/positive entries and are kept exactly when the slice meets the
    half-open cube [0,1)^m; slices meeting only the closed cube boundary
    belong to other slices modulo 1 and are discarded.
    """
    if profile is None:
        profile = analyze_matrix(mat)
    columns = tuple(profile.kernel_columns())
    pivots = echelon(mat.entries)[1]
    comps = []
    ranges = mat.row_ranges()
    for b in product(*[range(lo, hi + 1) for lo, hi in ranges]):
        x_any = _particular_solution(mat, pivots, b)
        poly = slice_polytope(columns, x_any, [0] * mat.cols, [1] * mat.cols)
        verts = enumerate_vertices(poly)
        if not verts:
            continue
        if not _half_open_feasible(x_any, columns):
            continue
        points = sorted(
            tuple(x_any[i] + sum(Fraction(c[i]) * t[k] for k, c in enumerate(columns)) for i in range(mat.cols))
            for t in verts
        )
        x_rep = points[0]
        vol = volume(poly).volume
        comps.append(KernelComponent(level=tuple(b), representative=x_rep, volume_param=vol))
    comps.sort(key=lambda c: c.level)
    total = sum((c.volume_param for c in comps), Fraction(0))
    expected = 1
    for inv in profile.smith_invariants:
        expected *= inv
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


def box_slices(decomp: KernelDecomposition, j, p: int):
    """Yield (component, VolumeResult) for each slice the closed grid box
    j/p + [0, 1/p]^m can meet; the result is the slice's parameter polytope
    restricted to the box."""
    mat = decomp.matrix
    lj = mat.apply_int(j)
    ranges = mat.row_ranges()
    lows = [Fraction(v, p) for v in j]
    highs = [Fraction(v + 1, p) for v in j]
    for comp in decomp.components:
        # the box can only meet the slice at p*b' = Lj + b for a level b
        shifted = [p * bv - ljv for bv, ljv in zip(comp.level, lj)]
        if any(not (lo <= s <= hi) for s, (lo, hi) in zip(shifted, ranges)):
            continue
        yield comp, volume(slice_polytope(decomp.basis_columns, comp.representative, lows, highs))


def slice_point(decomp: KernelDecomposition, comp: KernelComponent, res: VolumeResult):
    """The point x_b + B c of the slice, for c the centroid of res's vertices."""
    columns = decomp.basis_columns
    n = len(res.vertices)
    centroid = [sum((v[k] for v in res.vertices), Fraction(0)) / n for k in range(len(columns))]
    return tuple(
        x + sum(c[i] * t for c, t in zip(columns, centroid)) for i, x in enumerate(comp.representative)
    )


def box_measure(decomp: KernelDecomposition, j, p: int) -> Fraction:
    """Normalized Haar measure of the grid box j/p + [0, 1/p)^m.

    Computed on the closed box (a null-set difference for slices meeting
    the box in full dimension): sum over slices of the parameter volume of
    {t : x_b + B t in box}, scaled by c_param.
    """
    m = decomp.matrix.cols
    j = tuple(int(v) for v in j)
    if len(j) != m or any(not (0 <= v < p) for v in j):
        raise InvalidInputError(f"box index {j} not in [0, {p})^{m}")
    total = sum((res.volume for _, res in box_slices(decomp, j, p)), Fraction(0))
    return total * decomp.c_param


def weight(decomp: KernelDecomposition, j, p: int) -> Fraction:
    """p^(m-r) times the box measure; constant on cosets of the kernel mod p."""
    mat = decomp.matrix
    return box_measure(decomp, j, p) * Fraction(p) ** (mat.cols - mat.rows)


def _lex_min_solution_mod_p(mat: IntMatrix, target, p: int) -> tuple[int, ...]:
    """Lexicographically smallest j in [0,p)^m with L j = target (mod p).

    Each coordinate takes the smallest value that keeps the rest solvable,
    i.e. leaves the augmented column of the remaining system off the pivots.
    """
    m = mat.cols
    assigned: list[int] = []
    rhs = [v % p for v in target]
    for c in range(m):
        found = None
        for v in range(p):
            new_rhs = [(b - row[c] * v) % p for b, row in zip(rhs, mat.entries)]
            augmented = [row[c + 1 :] + (b,) for row, b in zip(mat.entries, new_rhs)]
            if m - c - 1 not in echelon(augmented, p)[1]:
                found = v
                rhs = new_rhs
                break
        if found is None:
            raise InternalInvariantError("congruence system unexpectedly unsolvable")
        assigned.append(found)
    return tuple(assigned)


def shift_cover(decomp: KernelDecomposition, p: int) -> list[WeightedShift]:
    """One weighted shift per positive-weight residue class of grid boxes.

    Every positive-measure grid box j satisfies L j = -b (mod p) for a
    positive-volume level b, and all boxes in one residue class share the
    same weight; the representative returned for the class of b is the
    lexicographically smallest solution of the congruence.  The weights of
    the cover sum to exactly 1.

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
        lam = weight(decomp, j, p)
        if lam <= 0:
            raise InternalInvariantError(
                f"residue class of level {comp.level} produced weight {lam}"
            )
        shifts.append(WeightedShift(p=p, j=j, lam=lam, level=comp.level))
    return shifts
