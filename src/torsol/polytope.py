"""Exact rational H-polytope computations in low dimension.

The polytopes handled here are sections of cubes by affine subspaces, so the
dimension is small (the kernel dimension m - r, at most 4 or so in practice)
and constraint counts stay modest.  Vertices come from exhaustive d-subsets
of constraints solved exactly over the rationals; volumes from a fan
triangulation anchored at the lexicographically smallest vertex.  Intrinsic
(Hausdorff) quantities are only ever compared through their squares so the
whole module stays inside the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from .errors import InvalidInputError, UnboundedPolytopeError
from .intmat import IntMatrix, analyze_matrix, det, rank, solve

__all__ = [
    "HPolytope",
    "VolumeResult",
    "CentralSectionResult",
    "enumerate_vertices",
    "volume",
    "slice_polytope",
    "central_section_check",
]


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces a . t <= c with exact rational data."""

    dim: int
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __init__(self, dim: int, constraints):
        if dim < 1:
            raise InvalidInputError("polytope dimension must be >= 1")
        rows = []
        for a, c in constraints:
            a = tuple(Fraction(x) for x in a)
            if len(a) != dim:
                raise InvalidInputError("constraint normal has wrong length")
            rows.append((a, Fraction(c)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constraints", tuple(rows))


@dataclass(frozen=True)
class VolumeResult:
    volume: Fraction
    vertices: tuple[tuple[Fraction, ...], ...]
    is_full_dimensional: bool


@dataclass(frozen=True)
class CentralSectionResult:
    """Exact data of the central cube section spanned by a kernel basis.

    passes is the squared form vol^2 * det(B^T B) >= 1 of the intrinsic
    lower bound for central sections of the unit cube.
    """

    vol_param: Fraction
    gram_det: int
    passes: bool


def _dot(a, t) -> Fraction:
    return sum((x * y for x, y in zip(a, t)), Fraction(0))


def _feasible_point(P: HPolytope, t) -> bool:
    return all(_dot(a, t) <= c for a, c in P.constraints)


def _vertices_raw(dim: int, constraints) -> list[tuple[Fraction, ...]]:
    """Basic feasible solutions from all d-subsets; no boundedness check."""
    seen = {}
    idx = range(len(constraints))
    for subset in combinations(idx, dim):
        rows = [constraints[i][0] for i in subset]
        rhs = [constraints[i][1] for i in subset]
        t = solve(rows, rhs)
        if t is None:
            continue
        if all(_dot(a, t) <= c for a, c in constraints):
            seen[t] = True
    return sorted(seen)


def _two_sided_span(P: HPolytope) -> bool:
    """Quick sufficient boundedness test.

    Normals appearing in both orientations force the recession cone into
    their common orthogonal complement; if those normals span the space the
    cone is trivial.  Cube sections always pass this test.
    """

    def canon(a):
        lcm = 1
        for v in a:
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        ints = [int(v * lcm) for v in a]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g == 0:
            return None, 1
        ints = [v // g for v in ints]
        lead = next(v for v in ints if v != 0)
        sign = 1 if lead > 0 else -1
        return tuple(sign * v for v in ints), sign

    dirs = {}
    for a, _ in P.constraints:
        key, sign = canon(a)
        if key is None:
            continue
        dirs.setdefault(key, set()).add(sign)
    spanning = [key for key, signs in dirs.items() if len(signs) == 2]
    if not spanning:
        return False
    rows = [[Fraction(v) for v in key] for key in spanning]
    return rank(rows) == P.dim


def _recession_direction(P: HPolytope):
    """A nonzero direction t with a . t <= 0 for all constraints, or None.

    Any nonzero cone element can be scaled so its largest coordinate is
    +-1, so it suffices to probe the 2d bounded slices t_i = +-1 of the
    cone intersected with the unit box.
    """
    d = P.dim
    zero = Fraction(0)
    one = Fraction(1)
    homogeneous = [(a, zero) for a, _ in P.constraints]
    for i in range(d):
        for sign in (one, -one):
            cons = list(homogeneous)
            ei = tuple(one if j == i else zero for j in range(d))
            nei = tuple(-v for v in ei)
            cons.append((ei, sign))
            cons.append((nei, -sign))
            for j in range(d):
                ej = tuple(one if k == j else zero for k in range(d))
                cons.append((ej, one))
                cons.append((tuple(-v for v in ej), one))
            verts = _vertices_raw(d, cons)
            if verts:
                return verts[0]
    return None


def _fm_feasible(dim: int, constraints) -> bool:
    """Fourier-Motzkin feasibility of a . t <= c (possibly unbounded)."""
    cons = [(tuple(a), c) for a, c in constraints]
    for var in range(dim):
        pos, neg, rest = [], [], []
        for a, c in cons:
            if a[var] > 0:
                pos.append((a, c))
            elif a[var] < 0:
                neg.append((a, c))
            else:
                rest.append((a, c))
        new = rest
        for ap, cp in pos:
            for an, cn in neg:
                scale_p = Fraction(1, 1) / ap[var]
                scale_n = Fraction(-1, 1) / an[var]
                a = tuple(x * scale_p + y * scale_n for x, y in zip(ap, an))
                c = cp * scale_p + cn * scale_n
                new.append((a, c))
        seen = set()
        cons = []
        for a, c in new:
            if all(v == 0 for v in a):
                if c < 0:
                    return False
                continue
            key = (a, c)
            if key not in seen:
                seen.add(key)
                cons.append((a, c))
    # once every variable is eliminated all normals are zero, so each
    # constraint was checked and dropped above
    return True


def enumerate_vertices(P: HPolytope) -> list[tuple[Fraction, ...]]:
    """Exact vertex set, deduplicated and sorted lexicographically.

    Empty list exactly when the feasible set is empty.  Raises
    UnboundedPolytopeError, naming a recession direction, when the feasible
    set is nonempty and unbounded.
    """
    if not P.constraints:
        raise UnboundedPolytopeError(
            "polytope with no constraints is unbounded", direction=(Fraction(1),) * P.dim
        )
    if not _two_sided_span(P):
        direction = _recession_direction(P)
        if direction is not None:
            if _fm_feasible(P.dim, P.constraints):
                raise UnboundedPolytopeError(
                    f"unbounded polytope: recession direction {direction}",
                    direction=direction,
                )
            return []
    return _vertices_raw(P.dim, P.constraints)


def _affine_dim(points) -> int:
    if not points:
        return -1
    base = points[0]
    rows = [[q - p for q, p in zip(v, base)] for v in points[1:]]
    if not rows:
        return 0
    return rank(rows)


def _simplices(verts, constraints, k):
    """Fan triangulation of a k-dimensional face into k-simplices.

    verts must affinely span dimension k.  Facets are recovered as tight
    sets of individual constraints; the fan is anchored at the smallest
    vertex.
    """
    if len(verts) == k + 1:
        return [tuple(sorted(verts))]
    if k == 1:
        return [(min(verts), max(verts))]
    v0 = min(verts)
    out = []
    seen = set()
    for a, c in constraints:
        if _dot(a, v0) == c:
            continue
        face = [v for v in verts if _dot(a, v) == c]
        if len(face) < k:
            continue
        key = frozenset(face)
        if key in seen:
            continue
        seen.add(key)
        if _affine_dim(face) != k - 1:
            continue
        for s in _simplices(face, constraints, k - 1):
            out.append((v0,) + s)
    return out


def volume(P: HPolytope) -> VolumeResult:
    """Exact d-dimensional volume; 0 for lower-dimensional feasible sets."""
    verts = enumerate_vertices(P)
    if not verts:
        return VolumeResult(Fraction(0), (), False)
    d = P.dim
    if _affine_dim(verts) < d:
        return VolumeResult(Fraction(0), tuple(verts), False)
    total = Fraction(0)
    fact = factorial(d)
    for simplex in _simplices(verts, P.constraints, d):
        base = simplex[0]
        rows = [[q - p for q, p in zip(v, base)] for v in simplex[1:]]
        total += abs(det(rows))
    vol = total / fact
    return VolumeResult(vol, tuple(verts), vol > 0)


def slice_polytope(columns, offset, lows, highs) -> HPolytope:
    """The parameter polytope {t : lows_i <= (offset + B t)_i <= highs_i for all i}.

    columns are the columns of B; offset, lows and highs give one value per
    coordinate i.
    """
    cons = []
    for i, x in enumerate(offset):
        row = tuple(Fraction(c[i]) for c in columns)
        cons.append((row, Fraction(highs[i]) - x))
        cons.append((tuple(-v for v in row), x - Fraction(lows[i])))
    return HPolytope(len(columns), cons)


def central_section_check(mat: IntMatrix, kernel_columns=None) -> CentralSectionResult:
    """Central cube section spanned by the kernel: volume and Gram data.

    The (m-r)-dimensional section of [-1/2, 1/2]^m by the kernel subspace
    has intrinsic volume vol_param * sqrt(det(B^T B)); the >= 1 lower bound
    is checked exactly on squares.
    """
    if kernel_columns is None:
        kernel_columns = analyze_matrix(mat).kernel_columns()
    cols = [tuple(int(v) for v in c) for c in kernel_columns]
    m = len(cols[0])
    res = volume(slice_polytope(cols, [0] * m, [Fraction(-1, 2)] * m, [Fraction(1, 2)] * m))
    d = len(cols)
    gram = [[sum(cols[i][k] * cols[j][k] for k in range(m)) for j in range(d)] for i in range(d)]
    gram_det = int(det(gram))
    passes = res.volume * res.volume * gram_det >= 1
    return CentralSectionResult(vol_param=res.volume, gram_det=gram_det, passes=passes)
