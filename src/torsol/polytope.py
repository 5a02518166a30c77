"""Exact rational H-polytope computations in low dimension.

The polytopes handled here are sections of cubes by affine subspaces, so the
dimension is small (the kernel dimension m - r, at most 4 or so in practice)
and constraint counts stay modest.  Vertices come from exhaustive d-subsets
of constraints solved exactly by Cramer's rule; the same enumeration on the
recession cone decides boundedness and emptiness (enumerate_vertices).
Volumes come from a fan triangulation anchored at the lexicographically
smallest vertex.  Ranks, determinants and Cramer's rule run on
intmat._bareiss, with each row cleared of its denominators.

No code path of the package builds H-polytopes, and neither `import
torsol` nor the CLI imports this module: box slices, the central cube
section included, come from kernel_geometry.slice_leaves in integers.
The test suite uses this module as an independent oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod

from .errors import InvalidInputError, UnboundedPolytopeError
from .intmat import _bareiss
from .rationals import parse_rational

# perfbench/tracing.py wraps central_section_check under this module's name
from .kernel_geometry import central_section_check  # noqa: F401

__all__ = [
    "HPolytope",
    "VolumeResult",
    "enumerate_vertices",
    "volume",
    "slice_polytope",
]


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces a . t <= c with exact rational data.

    Entries are ints, Fractions or "n/d" strings; bools and floats raise
    InvalidInputError.
    """

    dim: int
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __init__(self, dim: int, constraints):
        if dim < 1:
            raise InvalidInputError("polytope dimension must be >= 1")
        rows = []
        for a, c in constraints:
            a = tuple(parse_rational(x) for x in a)
            if len(a) != dim:
                raise InvalidInputError("constraint normal has wrong length")
            rows.append((a, parse_rational(c)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constraints", tuple(rows))


@dataclass(frozen=True)
class VolumeResult:
    volume: Fraction
    vertices: tuple[tuple[Fraction, ...], ...]
    is_full_dimensional: bool


def _dot(a, t) -> Fraction:
    return sum((x * y for x, y in zip(a, t)), Fraction(0))


def _cleared(rows):
    """_bareiss of rational rows, each times the lcm of its denominators, and the product of those multipliers."""
    scales = [lcm(*(v.denominator for v in row)) for row in rows]
    return _bareiss([[v.numerator * (q // v.denominator) for v in row] for row, q in zip(rows, scales)]), prod(scales)


def _rank(rows) -> int:
    return _cleared(rows)[0][0]


def _det(rows) -> Fraction:
    (_, det), scale = _cleared(rows)
    return Fraction(det, scale)


def _solve(rows, rhs):
    """The unique solution of the square rational system rows @ t = rhs by Cramer's rule, or None if singular."""
    den = _det(rows)
    if not den:
        return None
    return tuple(_det([(*row[:k], b, *row[k + 1 :]) for row, b in zip(rows, rhs)]) / den for k in range(len(rows)))


def _vertices_raw(dim: int, constraints) -> list[tuple[Fraction, ...]]:
    """Basic feasible solutions from all d-subsets; no boundedness check."""
    seen = {}
    idx = range(len(constraints))
    for subset in combinations(idx, dim):
        rows = [constraints[i][0] for i in subset]
        rhs = [constraints[i][1] for i in subset]
        t = _solve(rows, rhs)
        if t is None:
            continue
        if all(_dot(a, t) <= c for a, c in constraints):
            seen[t] = True
    return sorted(seen)


def enumerate_vertices(P: HPolytope) -> list[tuple[Fraction, ...]]:
    """Exact vertex set, deduplicated and sorted lexicographically.

    Empty list exactly when the feasible set is empty.  Raises
    UnboundedPolytopeError, naming a recession direction, when the feasible
    set is nonempty and unbounded.

    Every answer is a basic-solution enumeration (_vertices_raw).  The
    vertices stand when the normals that occur beside their exact negation
    span the space, as in every slice_polytope.  Otherwise the recession
    cone {a . t <= 0} meets [-1, 1]^d in a polytope that is the point 0
    exactly when P is bounded; else any nonzero vertex of it is the
    direction raised with, if P is nonempty.  Its vertices with a . v = 0
    for every a come in pairs +-v and span the lineality space, so (v, 0)
    for each cuts P to its part orthogonal to that space, which has a
    vertex exactly when P is nonempty (Schrijver, Theory of Linear and
    Integer Programming, 1986, sections 8.2-8.5).
    """
    d = P.dim
    if not P.constraints:
        raise UnboundedPolytopeError(
            "polytope with no constraints is unbounded", direction=(Fraction(1),) * d
        )
    verts = _vertices_raw(d, P.constraints)
    normals = {a for a, _ in P.constraints}
    if _rank([a for a in normals if tuple(-x for x in a) in normals]) == d:
        return verts
    zero, one = Fraction(0), Fraction(1)
    box = [(tuple(s if j == i else zero for j in range(d)), one) for i in range(d) for s in (one, -one)]
    cone = [v for v in _vertices_raw(d, [(a, zero) for a in normals] + box) if any(v)]
    if not cone:
        return verts
    lines = [(v, zero) for v in cone if not any(_dot(a, v) for a in normals)]
    if verts or _vertices_raw(d, [*P.constraints, *lines]):
        raise UnboundedPolytopeError(f"unbounded polytope: recession direction {cone[0]}", direction=cone[0])
    return []


def _affine_dim(points) -> int:
    if not points:
        return -1
    base = points[0]
    rows = [[q - p for q, p in zip(v, base)] for v in points[1:]]
    if not rows:
        return 0
    return _rank(rows)


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
        total += abs(_det(rows))
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
