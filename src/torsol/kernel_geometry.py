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

Each such polytope is the slice of a box, {x : Lx = b, lo <= x <= hi},
held as its integer vertices, each with the mask of the bounds it meets;
its volume is taken in the coordinates x_F outside L's first basis minor
by a fan whose facets are read off the masks, divided by |det B_F|
(_leaf).  No H-polytope is built.  The vertices of the unit cube's slices
are its basic solutions (one 0/1 choice per coordinate outside an
invertible r x r minor, solved with the minor's adjugate from
intmat.basis_minors), and enumerate_components finds every level and
every vertex in one scan of them.  The walker
(slice_leaves) starts from those vertices and clips them by each block's
two half-spaces, one coordinate after the other, as the double description
method does: a new vertex is an edge crossing the cut, two vertices span
an edge by the combinatorial test on the bounds they meet, and every
crossing is an exact integer point on the blocks' grid, so nothing is
rounded.  Only the slices the blocks can reach are walked (_reachable), and
product_measure makes one Fraction per call.  The central cube section is
one walk per orthant (central_section_check).

The same machinery yields the weight of a 1/p grid box (p^(m-r) times its
normalized Haar measure) and the cover of all positive-weight boxes by at
most one shift per level, which is what connects the continuous measure to
counting in Z_p; the shifts come from discrete.parametrize_kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import add, mul, or_

from .errors import BadModulusError, InternalInvariantError, InvalidInputError, PreconditionError
from .discrete import kernel_element, parametrize_kernel
from .intmat import IntMatrix, _det, _minor_dets, analyze_matrix, basis_minors
from .rationals import is_integral, require_int
from .records import Record
from .torus_sets import _fill

__all__ = [
    "KernelComponent",
    "KernelDecomposition",
    "WeightedShift",
    "SliceLeaf",
    "CentralSectionResult",
    "enumerate_components",
    "slice_leaves",
    "product_measure",
    "box_measure",
    "weight",
    "shift_cover",
    "central_section_check",
]

# candidates (a minor, a point b0 of its box, a 0/1 choice) that enumerate_components scans at most
_CANDIDATE_LIMIT = 1 << 20


class KernelComponent(Record):
    """One affine slice of the kernel subgroup inside the unit cube.

    level: the integer vector b = Lx shared by all points of the slice.
    representative: a rational point x_b of the closed slice with
        L x_b = b exactly (the lexicographically smallest vertex).
    volume_param: the (m-r)-volume of {t : x_b + B t in [0,1]^m} in the
        canonical kernel-basis coordinates; slices touching the cube only
        in a face have volume 0 and are retained but flagged.
    A frozen Record.
    """

    __slots__ = ("level", "representative", "volume_param")

    @property
    def is_flat(self) -> bool:
        return self.volume_param == 0


class KernelDecomposition(Record):
    """All slices of the kernel subgroup, with normalization data.

    total_volume_param equals the product of the Smith invariants of L
    (the number of connected components of the subgroup); c_param is its
    reciprocal, the constant turning parameter volumes into normalized
    Haar measure.  _vertices maps each level to the vertices of its slice
    in the unit cube, as integer points at scale unit (see _slice_data),
    each with the mask of the cube bounds it meets (see _clip).
    _by_level maps each level of positive volume to its component.  A
    frozen Record; _vertices and _by_level stay out of ==, hash and repr.
    """

    __slots__ = ("matrix", "basis_columns", "components", "total_volume_param", "c_param", "_vertices", "_by_level")
    _defaults = {"_vertices": None}
    _derived = ("_by_level",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_by_level", {c.level: c for c in self.components if c.volume_param})


class WeightedShift(Record):
    """A coset representative j with its weight.

    j is the lexicographically smallest solution of L j = -level (mod p)
    with entries in [0, p); lam is p^(m-r) times the normalized Haar
    measure of the grid box at j/p, a positive rational constant across
    the whole coset of j.  In closed form lam = c_param * vol_b, the Haar
    share of the level-b slice: the box holds that slice scaled by 1/p.
    A frozen Record.
    """

    __slots__ = ("p", "j", "lam", "level")


@lru_cache(maxsize=128)
def _slice_data(mat: IntMatrix):
    """Integer data of L shared by every box slice {Lx = b, lo <= x <= hi}.

    Returns (minors, unit, free, free_det), all read off basis_minors(L):
    minors: one (D, S, M_D) per r-subset D of columns with
        delta_D = det L_D != 0, where S is the complement of D and
        M_D = (unit / delta_D) adj L_D; a point with Lx = b has
        unit * x_D = M_D (b - L_S x_S).
    unit: lcm of the |delta_D|, the common denominator of every vertex of
        the slice of an integer box.
    free: the complement F of the first minor D0, the greedy basis from
        the left; x_F is a coordinate system on each slice, with
        x_F = x_b,F + B_F t.
    free_det: |det B_F| = |delta_D0| / (product of the Smith invariants),
        as the saturated kernel's maximal minors are L's complementary
        ones over their gcd; enumerate_components' total volume checks it.
    """
    m = mat.cols
    table = basis_minors(mat)
    unit = math.lcm(*(abs(delta) for _, delta, _ in table))
    minors = []
    for cols, delta, adj in table:
        m_d = [[unit // delta * v for v in row] for row in adj]
        rest = tuple(c for c in range(m) if c not in cols)
        minors.append((cols, rest, m_d))
    free_det = abs(table[0][1]) // math.prod(analyze_matrix(mat).smith_invariants)
    return minors, unit, minors[0][1], free_det


class SliceLeaf(Record):
    """The polytope {x : Lx = b, lows <= x <= highs} of one slice and one box.

    points are its vertices as integer vectors, scale * x for each vertex
    x, sorted (so lexicographically by x); volume = size / den is its
    (m-r)-volume in the parameters t of x = x_b + B t; den = d! scale^d |det B_F|.
    A frozen Record.
    """

    __slots__ = ("size", "den", "points", "scale")

    @property
    def volume(self) -> Fraction:
        return Fraction(self.size, self.den)

    @property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices as rational points x of the slice."""
        return tuple(tuple(Fraction(v, self.scale) for v in pt) for pt in self.points)

    @property
    def is_full_dimensional(self) -> bool:
        return self.size > 0


def _simplices(verts, k):
    """Fan triangulation of a k-dimensional face into k-simplices.

    verts are the face's (point, mask) pairs, sorted.  Each facet of the
    face is its set of vertices whose masks have some bit the anchor's
    lacks; the fan is anchored at the smallest point.  A tight set of lower
    dimension is recursed into as well, but it adds only simplices of
    volume zero.
    """
    if len(verts) == k + 1:
        return [tuple(pt for pt, _ in verts)]
    if k == 1:
        return [(verts[0][0], verts[-1][0])]
    v0, mask0 = verts[0]
    bits = reduce(or_, (mask for _, mask in verts)) & ~mask0
    out = []
    seen = set()
    while bits:
        bit = bits & -bits
        bits ^= bit
        face = [v for v in verts if v[1] & bit]
        key = tuple(face)
        if len(face) < k or key in seen:
            continue
        seen.add(key)
        out.extend((v0,) + s for s in _simplices(face, k - 1))
    return out


def _leaf(verts, scale: int, free, free_det: int) -> SliceLeaf:
    """The SliceLeaf of a box slice from its vertices, integer points at scale.

    verts are the vertices of {x : Lx = b, lows <= x <= highs}, scaled
    like the bounds, each with its mask of bounds as in _clip.  The volume
    comes in the free coordinates x_F from a fan triangulation, with one
    integer determinant (intmat._det, by cofactors) per simplex, and is
    kept as an integer size over den = d! scale^d |det B_F|, the
    parameter volume size / den.
    """
    verts = sorted(verts)
    d = len(free)
    total = 0
    if len(verts) > d:
        for v0, *rest in _simplices(verts, d):
            total += abs(_det([[v[i] - v0[i] for i in free] for v in rest]))
    den = math.factorial(d) * scale**d * abs(free_det)
    return SliceLeaf(size=total, den=den, points=tuple(pt for pt, _ in verts), scale=scale)


@lru_cache(maxsize=128)
def enumerate_components(mat: IntMatrix) -> KernelDecomposition:
    """Enumerate all kernel slices with exact representatives and volumes.

    A nonempty slice {Lx = b} of [0,1]^m has a vertex (Ziegler, Lectures on
    Polytopes, 1995, Lecture 7): x_S in {0,1}^(m-r) outside an invertible minor
    L_D, and b0 = b - L_S x_S = L_D x_D an integer point of L_D [0,1]^r, so of
    its bounding box with 0 <= M_D b0 = unit x_D <= unit.  These b0 of each
    minor plus L_S x_S for each 0/1 choice are exactly the levels whose closed
    slice is nonempty, and the points (x_D, x_S) are exactly the vertices of
    those slices, so one scan gives both; no zonotope facet is needed.  Each
    level's vertices make its _leaf.  A level is kept when its slice meets
    [0,1)^m (one meeting only the closed boundary belongs to another slice
    modulo 1), that is unless a coordinate is 1 at every vertex: a relative
    interior point with x_i = 1 pins x_i = 1 throughout.  The representative
    is the smallest vertex.  The vertices of the kept slices, each with the
    mask of the cube bounds it meets, are where slice_leaves starts.
    More than _CANDIDATE_LIMIT candidates, counted off L's minor
    determinants before any adjugate is built, raise PreconditionError.
    """
    profile = analyze_matrix(mat)
    columns = tuple(profile.kernel_columns())
    m = mat.cols
    boxes = [[range(sum(min(row[c], 0) for c in cols), sum(max(row[c], 0) for c in cols) + 1) for row in mat.entries]
             for cols, _ in _minor_dets(mat)]
    candidates = sum(math.prod(b.stop - b.start for b in box) for box in boxes) << (m - mat.rows)  # len() overflows
    if candidates > _CANDIDATE_LIMIT:
        raise PreconditionError(f"slice enumeration would scan {candidates} candidate vertices, over {_CANDIDATE_LIMIT}")
    minors, unit, free, free_det = _slice_data(mat)
    found = {}
    for (cols, rest, m_d), box in zip(minors, boxes):
        solved = ((b0, [sum(map(mul, m_row, b0)) for m_row in m_d]) for b0 in product(*box))
        corners = [(b0, y_d) for b0, y_d in solved if all(0 <= y <= unit for y in y_d)]
        pt = [0] * m
        for choice in product((0, 1), repeat=len(rest)):
            shift = [sum(row[s] for s, x in zip(rest, choice) if x) for row in mat.entries]
            for s, x in zip(rest, choice):
                pt[s] = x * unit
            for b0, y_d in corners:
                for c, y in zip(cols, y_d):
                    pt[c] = y
                found.setdefault(tuple(map(add, b0, shift)), set()).add(tuple(pt))
    comps, vertices = [], {}
    for b in sorted(found):
        if any(all(pt[i] == unit for pt in found[b]) for i in range(m)):
            continue
        verts = sorted((pt, sum((v == 0) << 2 * i | (v == unit) << 2 * i + 1 for i, v in enumerate(pt))) for pt in found[b])
        rep = tuple(Fraction(v, unit) for v in verts[0][0])
        comps.append(KernelComponent(level=b, representative=rep, volume_param=_leaf(verts, unit, free, free_det).volume))
        vertices[b] = verts
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
        _vertices=vertices,
    )


def _clip(verts, i: int, c: int, upper: bool, d: int):
    """The vertices of a polytope cut by the half-space x_i >= c, or x_i <= c if upper.

    verts are (point, mask) pairs: the integer vertices of a polytope of
    the d-dimensional slice {Lx = b}, each with the mask of the box bounds
    it meets, bit 2i for the lower bound of x_i and bit 2i + 1 for the
    upper one.  The cut keeps the vertices inside, marks those on the
    hyperplane with the new bound, and adds the point where each edge from
    an inside vertex u to an outside vertex w crosses it.  u and w span an
    edge when the bounds both meet are tight at no third vertex and number
    at least d - 1: the combinatorial adjacency test of the double
    description method (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda
    and Prodon, Double description method revisited, 1996).  It holds for
    any set of bounds that cuts out the polytope, so a bound that cuts off
    no vertex need not be recorded.  The crossing
    (s_u w - s_w u) / (s_u - s_w), with s = x_i - c, is a vertex of a box
    slice on the same grid, so it is an integer point at the same scale.
    """
    bit = 1 << 2 * i + upper
    inside, outside, on = [], [], []
    above, below = (outside, inside) if upper else (inside, outside)
    for v in verts:
        x = v[0][i]
        if x > c:
            above.append(v)
        elif x < c:
            below.append(v)
        else:
            on.append((v[0], v[1] | bit))
    kept = inside + on
    masks = [mask for _, mask in verts]
    for u, mu in inside:
        su = u[i] - c
        for w, mw in outside:
            common = mu & mw
            if common.bit_count() < d - 1 or [mask & common for mask in masks].count(common) > 2:
                continue
            sw, cross = w[i] - c, []
            den = su - sw
            for a, b in zip(u, w):
                y, rem = divmod(su * b - sw * a, den)
                if rem:
                    raise InternalInvariantError(f"edge {u} -> {w} crosses x_{i} = {c} off the integer grid")
                cross.append(y)
            kept.append((tuple(cross), common | bit))
    return kept


class _GridBlocks(list):
    """Blocks with each endpoint v as the integer q * v, for q the common denominator of them all.

    reach holds what _reachable found on these blocks, with the decomposition it was found for.
    """

    def __init__(self, blocks):
        ratios = [[(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in bl] for bl in blocks]
        self.q = q = math.lcm(*{d for bl in ratios for pair in bl for _, d in pair})
        super().__init__([[(n * (q // d), k * (q // e)) for (n, d), (k, e) in bl] for bl in ratios])
        self.reach = None

    def cells(self) -> list[bytearray]:
        """The membership bytes of each coordinate's blocks over Z_q, as IntervalUnion.cells(q) gives them."""
        return [_fill(bl, self.q) for bl in self]


def slice_leaves(decomp: KernelDecomposition, comp: KernelComponent, blocks):
    """Yield the SliceLeaf of the slice restricted to each block product.

    blocks[i] lists the blocks (a, b) of the i-th coordinate, each standing
    for the half-open [a, b) inside [0, 1].  A coordinate whose row of B is
    zero (a degenerate column) is the constant x_b[i] on the slice, so its
    block is kept exactly when a <= x_b[i] < b.  Every other coordinate
    varies on the slice and its block is taken closed, which changes no
    volume.  The walk starts from the vertices of the slice in the unit
    cube, scaled to integers over the blocks' common denominator q, and
    goes coordinate by coordinate: each block clips the current polytope
    by its two half-spaces (_clip), exactly in integers with no rounding.
    A block that meets the polytope's range of x_i in at most one value,
    or a polytope left with at most d vertices, is dropped: since m > r
    such a block product cuts the slice in a set of volume 0.  The
    parameter volumes of the leaves sum to that of the slice inside the
    product of the half-open blocks.  Each leaf has the vertices of the
    slice of its closed blocks, each with the mask of the bounds it
    meets, and its volume from _leaf; the leaves of one call share den.
    """
    mat = decomp.matrix
    m = mat.cols
    _, unit, free, free_det = _slice_data(mat)
    d = len(free)
    blocks = blocks if isinstance(blocks, _GridBlocks) else _GridBlocks(blocks)
    moving = [any(col[i] for col in decomp.basis_columns) for i in range(m)]

    def rec(i, verts):
        if i == m:
            yield _leaf(verts, blocks.q * unit, free, free_det)
            return
        xs = [pt[i] for pt, _ in verts]
        lo, hi = min(xs), max(xs)
        for a, b in blocks[i]:
            a, b = a * unit, b * unit
            if not moving[i]:
                if not a <= lo < b:
                    continue
                cut = verts
            elif b <= lo or a >= hi:
                continue
            else:
                cut = verts if a <= lo else _clip(verts, i, a, False, d)
                if b < hi:
                    cut = _clip(cut, i, b, True, d)
                if len(cut) <= d:
                    continue
            yield from rec(i + 1, cut)

    yield from rec(0, [(tuple(blocks.q * v for v in pt), mask) for pt, mask in decomp._vertices[comp.level]])


def _leaf_sum(decomp: KernelDecomposition, walks, scale) -> Fraction:
    """scale times the volume of the slice_leaves of each (component, blocks) of walks; their leaves share one den."""
    size = den = 0
    for comp, blocks in walks:
        for leaf in slice_leaves(decomp, comp, blocks):
            size, den = size + leaf.size, leaf.den
    return Fraction(size * scale.numerator, den * scale.denominator) if size else Fraction(0)


def _single_row_measure(row, grid: _GridBlocks) -> Fraction:
    """product_measure for one equation l . x in Z, with no slices walked.

    Zero entries leave their coordinates free, each contributing its
    measure.  Over the n nonzero entries, the mass at the integer levels
    is a lattice sum of the univariate box spline of the directions
    l_i (b_i - a_i): the density of l . x on a block product is
    sum_c E_c (t - c)_+^(n-1) / ((n-1)! prod l_i), with signed prod l_i,
    where E is the product of the factors sum (z^(l_i a) - z^(l_i b)) over
    the blocks (de Boor, Hollig and Riemenschneider, Box Splines, 1993).
    With n >= 2 it is continuous, so its values at the integer levels
    lo..hi give the exact half-open measure.  With n = 1 it is a step
    function: x_i is pinned to the points k/|l_i|, each of Haar weight
    1/|l_i|, so l_i is taken as |l_i| and the step at c counts at t = c,
    which keeps the blocks half-open; for n >= 2 the term at t = c is 0.
    E's terms, sorted by exponent c, are met once as the levels t = q y
    rise: each level expands sum_{c <= t} E_c (t - c)^(n-1) binomially in t
    over the running moments sum_{c <= t} E_c (-c)^k, k < n, so no power
    is taken per term and level.  All exponents are the integer endpoints on
    the grid q of _GridBlocks, and only the final value is a Fraction.
    """
    q, moving = grid.q, [i for i, l in enumerate(row) if l]
    n = len(moving)
    if n == 1:
        row = [abs(l) for l in row]
    rest = math.prod(sum(b - a for a, b in grid[i]) for i, l in enumerate(row) if not l)
    poly = {0: 1}
    for i in moving:
        l, merged = row[i], {}
        ends = [(l * a, l * b) for a, b in grid[i]]
        get = merged.get
        for c, w in poly.items():
            for a, b in ends:
                a += c
                b += c
                merged[a] = get(a, 0) + w
                merged[b] = get(b, 0) - w
        poly = {c: w for c, w in merged.items() if w}
    t = q * sum(l for l in row if l < 0)  # the lowest level; the highest is q times the sum of the positive l
    poly[q * sum(l for l in row if l > 0) + 1] = 0  # a term past it closes every level
    binomials = [math.comb(n - 1, k) for k in range(n)]
    moments, total = [0] * n, 0  # moments[k] = sum w (-c)^k over the terms met so far
    for c, w in sorted(poly.items()):
        while c > t:  # level t: sum w (t - c)^(n-1) over the terms with c <= t, expanded in t
            level = 0
            for b, m in zip(binomials, moments):
                level = level * t + b * m
            total += level
            t += q
        for k in range(n):
            moments[k] += w
            w *= -c
    # rest is the free coordinates' measure times q^(m - n)
    return Fraction(rest * total, q ** (len(row) - 1) * math.factorial(n - 1) * math.prod(row[i] for i in moving))


def _reachable(decomp: KernelDecomposition, grid: _GridBlocks) -> list[KernelComponent]:
    """The slices of positive volume whose level Lx takes on the blocks' bounding box.

    No other slice meets the closed blocks.  The box is taken in integers
    on the blocks' grid.  Levels are looked up in the decomposition's
    index, in lexicographic order; an empty set reaches none.  Found once
    per grid and decomposition and kept on grid.reach, so pricing a walk
    (_walk_cost) and taking it (product_measure) share one search.
    """
    if grid.reach is not None and grid.reach[0] is decomp:
        return grid.reach[1]
    found = []
    if all(grid):
        box = [(min(bl)[0], max(bl)[1]) for bl in grid]  # disjoint blocks: the last to start ends last
        levels = []
        for row in decomp.matrix.entries:
            lo = hi = 0
            for l, (a, b) in zip(row, box):
                lo, hi = (lo + l * a, hi + l * b) if l > 0 else (lo + l * b, hi + l * a)
            levels.append(range(-(-lo // grid.q), hi // grid.q + 1))
        index = decomp._by_level
        found = [index[level] for level in product(*levels) if level in index]
    grid.reach = decomp, found
    return found


def product_measure(decomp: KernelDecomposition, blocks) -> Fraction:
    """Normalized Haar measure of the subgroup inside the product of blocks.

    blocks[i] lists disjoint half-open blocks of the i-th coordinate.  A
    single equation (r = 1) has the closed form of _single_row_measure.
    For r >= 2 the value is c_param times the parameter volumes of
    slice_leaves over the _reachable slices, with the blocks put on their
    integer grid once.  A box of side 1/p with p above every row sum of
    |entries| reaches at most 2^r of them.  The leaves share one den, so
    only the sum is a Fraction.  blocks may come as a _GridBlocks already.
    """
    mat = decomp.matrix
    grid = blocks if isinstance(blocks, _GridBlocks) else _GridBlocks(blocks)
    if mat.rows == 1:
        return _single_row_measure(mat.entries[0], grid)
    return _leaf_sum(decomp, ((comp, grid) for comp in _reachable(decomp, grid)), decomp.c_param)


# _walk_cost's divisors: clip work (block combinations times squared vertex
# counts) and closed-form terms per unit.  Fitted, with
# measures._IDENTITY_SETUP, to the best-of-3 times of both routes, each on
# blocks put on their grid afresh, on the 94 named inputs with q^m > 200:
# four rounds of the benchmark's geometric jobs (seeds 7 and 11); SUM3,
# AP3 and R4 at q = 60, 200 and 1009 with dense sets and with 1-9 blocks
# per set; AP4 at 30, 60 and 101, AP5 at 12, 20, 29 and 53, the Smith
# matrix at 11, 36 and 37, a 2 x 5 and a 3 x 5 matrix at 11 and 23 and
# the 3 x 7 matrix at 11 and 17, each with dense sets and with 1-6 blocks
# per set.  The route priced lower is the faster one on every geometric
# job for any _TERMS_PER_UNIT from 3 to 8 with _IDENTITY_SETUP 12, and for
# any _IDENTITY_SETUP up to 16 with _TERMS_PER_UNIT 6.  A unit came to a
# median of 0.95 us of the closed form, 1.1 us of the slice walk and 1.1 us
# of the count identity (quartiles 0.6-1.2, 0.6-3.7 and 0.9-1.4 us).  The
# identity was priced lower on 86 inputs, and the route priced lower was
# at most 1.5 times slower than the other (AP4 with 1-6 blocks per set at
# q = 60: 1096 us walked, 749 us counted).
_CLIP_WORK_PER_UNIT = 8
_TERMS_PER_UNIT = 6


def _walk_cost(decomp: KernelDecomposition, grid: _GridBlocks) -> float:
    """Units of work of product_measure on grid, in discrete.residue_counts' units.

    For r >= 2, each reachable slice costs one _clip, of the slice's
    squared vertex count, per block combination that slice_leaves can
    reach on it: at most min(prod n_i, e_d(n)) with n_i blocks on
    coordinate i, where e_d, the d-th elementary symmetric sum, counts the
    cells of a grid that a d-flat can cross.  The cap keeps dense sets
    from being priced as if no block product were pruned.  For r = 1, the
    closed form's polynomial terms: those of each product of factors, at
    most one per exponent, and the finished product's terms once per
    integer level.  Reads only the grid's endpoints and the slices' vertex
    counts.
    """
    mat = decomp.matrix
    if mat.rows == 1:
        terms, work, span = 1, 0, 0
        for l, bl in zip(mat.entries[0], grid):
            if l:
                span += abs(l)
                work += terms * 2 * len(bl)
                terms = min(terms * 2 * len(bl), span * grid.q + 1)
        return (work + terms * (span + 1)) / _TERMS_PER_UNIT
    d = mat.cols - mat.rows
    combos, cross = 1, [1] + [0] * d
    for bl in grid:
        combos *= len(bl)
        for k in range(d, 0, -1):
            cross[k] += cross[k - 1] * len(bl)
    clip = sum(len(decomp._vertices[comp.level]) ** 2 for comp in _reachable(decomp, grid))
    return min(combos, cross[d]) * clip / _CLIP_WORK_PER_UNIT


def box_measure(decomp: KernelDecomposition, j, p: int) -> Fraction:
    """Normalized Haar measure of the grid box j/p + [0, 1/p)^m.

    The product_measure of the one-block sets [j_i/p, (j_i+1)/p), exact
    under the half-open rule of slice_leaves.  p must be an int, and the
    entries of j ints or integral Rationals; floats and bools are refused,
    even 1.0 and True.
    """
    m = decomp.matrix.cols
    require_int("grid modulus", p, 1)
    j = tuple(j)
    if len(j) != m or not all(is_integral(v) and 0 <= v < p for v in j):
        raise InvalidInputError(f"box index {j} not an integer point of [0, {p})^{m}")
    j = tuple(map(int, j))
    return product_measure(decomp, [[(Fraction(v, p), Fraction(v + 1, p))] for v in j])


def weight(decomp: KernelDecomposition, j, p: int) -> Fraction:
    """p^(m-r) times the box measure; constant on cosets of the kernel mod p."""
    mat = decomp.matrix
    return box_measure(decomp, j, p) * Fraction(p) ** (mat.cols - mat.rows)


def shift_cover(decomp: KernelDecomposition, p: int) -> tuple[WeightedShift, ...]:
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

    Requires p prime, full rank mod p (both checked by parametrize_kernel,
    whose solution with free part 0 is each representative), and p strictly
    larger than every row sum of absolute entries (so distinct levels stay
    distinct mod p and each box meets a single slice family).  Built once
    per (L, p) in an lru_cache that keys on decomp.matrix, of which decomp
    is a function, and on the type of p, so 7.0 or True never reads the
    entry of 7 or 1.
    """
    return _shift_cover(decomp.matrix, p)


@lru_cache(maxsize=256, typed=True)
def _shift_cover(mat: IntMatrix, p: int) -> tuple[WeightedShift, ...]:
    decomp = enumerate_components(mat)
    param = parametrize_kernel(mat, p)
    bound = mat.max_row_abs_sum()
    if p <= bound:
        raise BadModulusError(
            f"p = {p} too small: need p > {bound}, the largest row sum of absolute entries"
        )
    zero = (0,) * len(param.free_columns)
    shifts = []
    for comp in decomp._by_level.values():
        j = kernel_element(param, mat.cols, zero, [-v for v in comp.level])
        shifts.append(WeightedShift(p=p, j=j, lam=comp.volume_param * decomp.c_param, level=comp.level))
    return tuple(shifts)


class CentralSectionResult(Record):
    """The central cube section of a kernel basis B; passes is vol^2 * det(B^T B) >= 1 (Vaaler, 1979).

    A frozen Record.
    """

    __slots__ = ("vol_param", "gram_det", "passes")


def central_section_check(mat: IntMatrix) -> CentralSectionResult:
    """The section of [-1/2, 1/2]^m by the kernel, walked one orthant at a time.

    x mod 1 carries the points with x_i < 0 exactly where e_i = 1 onto the
    level-Le slice in the half-open blocks [e_i/2, (e_i + 1)/2), so
    vol_param sums the slice_leaves volumes over e in {0, 1}^m.  The
    intrinsic volume is vol_param * sqrt(det(B^T B)); the >= 1 lower bound
    is checked exactly on squares.
    """
    decomp = enumerate_components(mat)
    halves = (Fraction(0), Fraction(1, 2), Fraction(1))
    orthants = ((e, decomp._by_level.get(mat.apply_int(e))) for e in product((0, 1), repeat=mat.cols))
    walks = ((comp, [[halves[k : k + 2]] for k in e]) for e, comp in orthants if comp is not None)
    vol = _leaf_sum(decomp, walks, 1)
    cols = analyze_matrix(mat).kernel_columns()
    gram_det = _det([[sum(map(mul, a, b)) for b in cols] for a in cols])
    return CentralSectionResult(vol_param=vol, gram_det=gram_det, passes=vol * vol * gram_det >= 1)
