"""Independent oracles used by the test suite.

Each oracle re-derives a quantity with a different algorithm than the
package uses: brute-force tuple enumeration for counting at any modulus,
a sweep-line integrator for planar areas, exhaustive subset search for
extremal densities, a direct rational check of lattice membership, a
lifted min-max program for whether a kernel slice meets the half-open
cube, the polytope walk over every slice for single equations, whose
measure the package takes in closed form, the basis scan of each box
slice (slice_leaf), where the package clips the vertices of a slice of
the unit cube, every block combination of every slice with no pruning,
every slice scanned for a positive witness, where the package looks up
the levels the sets can reach, a slice_leaf at every candidate level of
the row-sum box, where the package finds the levels from the vertices of
the slices, Smith invariants from gcds of minors, which the package gets
by alternating Hermite forms, ranks from Laplace minors for the greedy
basis columns and the mod-p kernel parametrization, which the package
reads off its table of basis minors, the pairwise pass over all supports
for the minimal kernel supports, which the package finds by submask
lookup, and every member of every coset for the violating boxes and the
greedy removal, which the package walks through the sets' members and
counts with packed products.  They are deliberately slow and simple.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product


def naive_density(entries, p, member_arrays, shifts=None):
    """Count solutions of Lx = 0 mod p by full p^m enumeration."""
    r = len(entries)
    m = len(entries[0])
    if shifts is None:
        shifts = (0,) * m
    count = 0
    for x in product(range(p), repeat=m):
        if any(sum(entries[i][k] * x[k] for k in range(m)) % p for i in range(r)):
            continue
        if all(member_arrays[i][(x[i] + shifts[i]) % p] for i in range(m)):
            count += 1
    d = m - r
    return Fraction(count, p**d)


def residue_histogram(entries, q, member_arrays):
    """N(c) for every residue c mod q: each tuple of the product counted at L y mod q."""
    counts = Counter()
    for y in product(*([x for x in range(q) if arr[x]] for arr in member_arrays)):
        counts[tuple(sum(a * v for a, v in zip(row, y)) % q for row in entries)] += 1
    return counts


def sweep_area(constraints):
    """Exact area of {t in R^2 : a . t <= c} by a sweep over t1.

    Breakpoints are the t1-coordinates of pairwise constraint
    intersections; between consecutive breakpoints the section length is
    linear, so trapezoids are exact.  Only valid on bounded inputs.
    """
    cons = [(tuple(Fraction(v) for v in a), Fraction(c)) for a, c in constraints]
    breakpoints = set()
    for i in range(len(cons)):
        (a1, c1) = cons[i]
        if a1[1] == 0 and a1[0] != 0:
            breakpoints.add(c1 / a1[0])
        for j in range(i + 1, len(cons)):
            (a2, c2) = cons[j]
            det = a1[0] * a2[1] - a1[1] * a2[0]
            if det != 0:
                breakpoints.add((c1 * a2[1] - c2 * a1[1]) / det)
    xs = sorted(breakpoints)

    def section(t1):
        lo = None
        hi = None
        for a, c in cons:
            if a[1] == 0:
                if a[0] * t1 > c:
                    return None
                continue
            bound = (c - a[0] * t1) / a[1]
            if a[1] > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        assert lo is not None and hi is not None, "unbounded section"
        return max(Fraction(0), hi - lo)

    area = Fraction(0)
    for x1, x2 in zip(xs, xs[1:]):
        mid = (x1 + x2) / 2
        if section(mid) is None:
            continue
        l1, l2 = section(x1), section(x2)
        if l1 is None or l2 is None:
            continue
        area += (l1 + l2) / 2 * (x2 - x1)
    return area


def walker_measure(decomp, blocks):
    """c_param times the leaf volumes of slice_leaves, summed over all slices."""
    from torsol.kernel_geometry import slice_leaves

    leaves = (res.volume for comp in decomp.components for res in slice_leaves(decomp, comp, blocks))
    return decomp.c_param * sum(leaves, Fraction(0))


def unpruned_measure(decomp, blocks):
    """c_param times the slice_leaf volumes of every block combination of every slice of positive volume.

    No clipping and no pruning: a coordinate whose row of the kernel basis is
    zero is the constant x_b[i] on a slice and is tested half-open at x_b,
    every other block is taken closed.
    """
    pinned = [not any(col[i] for col in decomp.basis_columns) for i in range(decomp.matrix.cols)]
    total = Fraction(0)
    for comp in decomp.components:
        if not comp.volume_param:
            continue
        for combo in product(*blocks):
            if all(a <= x < b for (a, b), x, pin in zip(combo, comp.representative, pinned) if pin):
                lows, highs = zip(*combo)
                total += slice_leaf(decomp.matrix, comp.level, lows, highs).volume
    return decomp.c_param * total


def candidate_levels(mat):
    """Every integer level in the box of row sums of negative and positive entries, in lexicographic order.

    Lx lies in that box for every x in [0,1]^m, so it holds every level
    whose closed slice of the unit cube is nonempty.
    """
    ranges = [(sum(v for v in row if v < 0), sum(v for v in row if v > 0)) for row in mat.entries]
    return product(*[range(lo, hi + 1) for lo, hi in ranges])


def slice_leaf(mat, level, lows, highs):
    """Vertices and parameter volume of {x : Lx = level, lows <= x <= highs} by a basis scan.

    A vertex is a basic solution of a bounded-variable LP (Chvatal, Linear
    Programming, 1983, ch. 8): for some r-subset D of columns with
    det L_D != 0, the other m - r coordinates sit at a bound and L_D fixes
    x_D.  With the box scaled to integers by the common denominator q of
    its bounds, each of the 2^(m-r) bound choices of each such D is one
    integer matrix-vector product and r integer comparisons.  The package
    clips a cube slice instead (slice_leaves); the volume is its _leaf,
    with each vertex's mask naming every bound it meets.
    """
    from torsol.kernel_geometry import _leaf, _slice_data

    minors, unit, free, free_det = _slice_data(mat)
    q = math.lcm(*(v.denominator for v in (*lows, *highs)))
    lo_q, hi_q = [int(v * q) for v in lows], [int(v * q) for v in highs]
    lo_s, hi_s = [v * unit for v in lo_q], [v * unit for v in hi_q]
    found = set()
    for cols, rest, m_d in minors:
        gains = [[sum(a * row[s] for a, row in zip(m_row, mat.entries)) for m_row in m_d] for s in rest]
        base = [q * sum(a * v for a, v in zip(m_row, level)) for m_row in m_d]
        for choice in product(*[(lo_q[s], hi_q[s]) for s in rest]):
            y_d = base
            for x, g in zip(choice, gains):
                if x:
                    y_d = [y - x * a for y, a in zip(y_d, g)]
            if all(lo_s[c] <= y <= hi_s[c] for c, y in zip(cols, y_d)):
                pt = [0] * mat.cols
                for c, y in zip(cols, y_d):
                    pt[c] = y
                for s, x in zip(rest, choice):
                    pt[s] = x * unit
                found.add(tuple(pt))
    bounds = list(enumerate(zip(lo_s, hi_s)))
    verts = [(pt, sum((pt[i] == lo) << 2 * i | (pt[i] == hi) << 2 * i + 1 for i, (lo, hi) in bounds)) for pt in found]
    return _leaf(verts, q * unit, free, free_det)


def scan_components(mat):
    """enumerate_components by a slice_leaf of the unit cube at every candidate level.

    A level is kept unless its closed slice is empty or some coordinate is
    1 at every vertex (then the slice misses [0,1)^m).  The representative
    is the smallest vertex.
    """
    from torsol.intmat import analyze_matrix
    from torsol.kernel_geometry import KernelComponent, KernelDecomposition

    columns = tuple(analyze_matrix(mat).kernel_columns())
    m = mat.cols
    comps = []
    for b in candidate_levels(mat):
        leaf = slice_leaf(mat, b, [0] * m, [1] * m)
        points, scale = leaf.points, leaf.scale
        if not points or any(all(pt[i] == scale for pt in points) for i in range(m)):
            continue
        rep = tuple(Fraction(v, scale) for v in points[0])
        comps.append(KernelComponent(level=tuple(b), representative=rep, volume_param=leaf.volume))
    total = sum((c.volume_param for c in comps), Fraction(0))
    return KernelDecomposition(
        matrix=mat, basis_columns=columns, components=tuple(comps), total_volume_param=total, c_param=1 / total
    )


def scan_witness(mat, sets):
    """find_positive_witness by scanning every slice of positive volume, with no level lookup.

    The centroid of the vertices of each slice's first full-dimensional
    leaf, taken mod 1, is returned for the first slice where it lies in
    every set.
    """
    from torsol.kernel_geometry import enumerate_components, slice_leaves

    decomp = enumerate_components(mat)
    blocks = [s.intervals for s in sets]
    for comp in decomp.components:
        if comp.is_flat:
            continue
        leaf = next((leaf for leaf in slice_leaves(decomp, comp, blocks) if leaf.is_full_dimensional), None)
        if leaf is None:
            continue
        verts = leaf.vertices
        x = [sum(coords, Fraction(0)) / len(verts) % 1 for coords in zip(*verts)]
        if all(s.contains(v) for s, v in zip(sets, x)):
            return tuple(x)
    return None


def _laplace_det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** k * v * _laplace_det([row[:k] + row[k + 1 :] for row in rows[1:]])
        for k, v in enumerate(rows[0])
        if v
    )


def minor_rank(rows, p=None):
    """Rank over Q, or over GF(p) when p is given: the largest k with a k x k minor nonzero (mod p)."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    rank = 0
    for k in range(1, min(nrows, ncols) + 1):
        minors = (
            _laplace_det([[rows[i][j] for j in cs] for i in rs])
            for rs in combinations(range(nrows), k)
            for cs in combinations(range(ncols), k)
        )
        if any(d % p if p else d for d in minors):
            rank = k
    return rank


def greedy_columns(rows, order, p=None):
    """The columns taken in the given order that raise the rank of those taken before (minor_rank), sorted."""
    taken = []
    for c in order:
        if minor_rank([[row[k] for k in (*taken, c)] for row in rows], p) > len(taken):
            taken.append(c)
    return tuple(sorted(taken))


def reference_parametrization(mat, p):
    """parametrize_kernel(mat, p) by brute force, or None when L loses rank mod p.

    The dependent columns are picked from the right, each raising the
    GF(p) rank of those picked before (greedy_columns); M^-1 comes from
    Laplace cofactors and the modular inverse of det M, and the
    coefficients are -M^-1 L_F mod p.
    """
    from torsol.discrete import KernelParametrization

    rows, r, m = mat.entries, mat.rows, mat.cols
    dependent = greedy_columns(rows, reversed(range(m)), p)
    if len(dependent) < r:
        return None
    free = tuple(c for c in range(m) if c not in dependent)
    minor = [[row[c] for c in dependent] for row in rows]
    scale = pow(_laplace_det(minor), -1, p)
    cofactor = [
        [
            (-1) ** (i + j) * _laplace_det([row[:j] + row[j + 1 :] for k, row in enumerate(minor) if k != i])
            for j in range(r)
        ]
        for i in range(r)
    ]
    inverse = tuple(tuple(cofactor[j][i] * scale % p for j in range(r)) for i in range(r))
    coefficients = tuple(
        tuple(-sum(a * row[f] for a, row in zip(inv, rows)) % p for f in free) for inv in inverse
    )
    return KernelParametrization(
        p=p, free_columns=free, dependent_columns=dependent, coefficients=coefficients, inverse=inverse
    )


def smith_by_minors(entries):
    """Nonzero Smith invariants d_k = g_k / g_(k-1), g_k the gcd of all k x k minors.

    g_0 = 1, and the invariants stop at the rank, the last k with g_k != 0.
    """
    r, m = len(entries), len(entries[0])
    g = [1]
    for k in range(1, min(r, m) + 1):
        g.append(
            math.gcd(
                *(
                    _laplace_det([[entries[i][j] for j in cols] for i in rows])
                    for rows in combinations(range(r), k)
                    for cols in combinations(range(m), k)
                )
            )
        )
        if not g[-1]:
            g.pop()
            break
    return tuple(b // a for a, b in zip(g, g[1:]))


def brute_max_free_density(entries, p):
    """Maximal density of A in Z_p with no kernel element in A^m, by 2^p scan."""
    r = len(entries)
    m = len(entries[0])
    solutions = [
        x
        for x in product(range(p), repeat=m)
        if all(sum(entries[i][k] * x[k] for k in range(m)) % p == 0 for i in range(r))
    ]
    best = 0
    best_set = frozenset()
    for bits in range(1 << p):
        members = frozenset(x for x in range(p) if bits >> x & 1)
        if len(members) <= best:
            continue
        if any(all(v in members for v in x) for x in solutions):
            continue
        best = len(members)
        best_set = members
    return Fraction(best, p), best_set


def pairwise_minimal_supports(param, m):
    """The minimal supports of ker L mod p by a pairwise pass, as bitmasks.

    All supports, sorted by size and then by mask; each is kept unless a
    support kept before it is a submask of it.  Quadratic in their number.
    """
    from torsol.discrete import kernel_elements

    supports = {sum(1 << v for v in set(x)) for x in kernel_elements(param, m)}
    minimal = []
    for e in sorted(supports, key=lambda e: (e.bit_count(), e)):
        if not any(f & e == f for f in minimal):
            minimal.append(e)
    return minimal


def in_lattice(columns, vec):
    """Is vec an integer combination of the given integer columns?"""
    m = len(vec)
    d = len(columns)
    rows = [[Fraction(columns[k][i]) for k in range(d)] for i in range(m)]
    rhs = [Fraction(v) for v in vec]
    # least-squares-free exact solve: row reduce the overdetermined system
    aug = [rows[i] + [rhs[i]] for i in range(m)]
    rank = 0
    for col in range(d):
        piv = next((i for i in range(rank, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = Fraction(1, 1) / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        rank += 1
    for i in range(rank, m):
        if aug[i][d] != 0:
            return False
    coeffs = [aug[i][d] for i in range(rank)]
    return all(c.denominator == 1 for c in coeffs)


def _solve_exact(rows, rhs):
    """Gauss-Jordan solve of a square rational system; None when singular."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def lifted_half_open(point, columns):
    """Does {point + B t : t} meet the half-open cube [0,1)^m?

    Lifts to (t, s) and minimizes s over 0 <= point + B t <= s <= 1 by
    brute-force vertex enumeration (every (d+1)-subset of constraints
    solved as equalities); the slice meets [0,1)^m exactly when the
    program is feasible with minimum < 1.
    """
    d, m = len(columns), len(point)
    cons = []
    for i in range(m):
        row = [Fraction(c[i]) for c in columns]
        cons.append(([-v for v in row] + [0], Fraction(point[i])))
        cons.append((row + [-1], -Fraction(point[i])))
    cons.append(([0] * d + [1], Fraction(1)))
    best = None
    for subset in combinations(cons, d + 1):
        v = _solve_exact([a for a, _ in subset], [c for _, c in subset])
        if v is None or any(sum(x * y for x, y in zip(a, v)) > c for a, c in cons):
            continue
        best = v[d] if best is None else min(best, v[d])
    return best is not None and best < 1


def random_full_rank_matrix(rng: random.Random, r, m, lo=-3, hi=3):
    """Random IntMatrix with entries in [lo, hi], retried until full rank."""
    from torsol import IntMatrix
    from torsol.errors import RankDeficientError

    while True:
        entries = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(r)]
        try:
            return IntMatrix(entries)
        except RankDeficientError:
            continue


def random_pinned_matrix(rng: random.Random, r, m, lo=-2, hi=2):
    """Random full-rank IntMatrix that usually has a degenerate column.

    With probability 2/3 one row is replaced by a multiple of a unit
    vector (pinning that coordinate to finitely many values), possibly
    mixed into another row so the pin is not visible in a single row.
    """
    from torsol import IntMatrix
    from torsol.errors import RankDeficientError

    while True:
        entries = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(r)]
        if rng.random() < 2 / 3:
            i, j = rng.randrange(r), rng.randrange(m)
            entries[i] = [rng.choice((1, 2, 3, -2)) if k == j else 0 for k in range(m)]
            if r > 1 and rng.random() < 0.5:
                o = (i + 1) % r
                c = rng.randint(-2, 2)
                entries[o] = [a + c * b for a, b in zip(entries[o], entries[i])]
        try:
            return IntMatrix(entries)
        except RankDeficientError:
            continue


def suitable_prime(mat):
    """The smallest odd prime above L's largest absolute row sum at which L keeps full rank."""
    from torsol.intmat import is_prime

    q = max(mat.max_row_abs_sum() + 1, 3)
    while not (is_prime(q) and minor_rank(mat.entries, q) == mat.rows):
        q += 1
    return q


def random_grid_sets(rng: random.Random, p, m, density=0.4):
    """Random p-grid-aligned interval unions from Bernoulli cell membership."""
    from torsol import DiscreteSet

    out = []
    for _ in range(m):
        members = [rng.random() < density for _ in range(p)]
        out.append(DiscreteSet(p, members).to_interval_union())
    return out


def random_block_sets(rng: random.Random, p, m, max_blocks=6):
    """Random p-grid-aligned sets built from a few random cell runs."""
    from fractions import Fraction as F

    from torsol import IntervalUnion

    out = []
    for _ in range(m):
        pairs = []
        for _ in range(rng.randint(1, max_blocks)):
            a = rng.randrange(p)
            w = rng.randint(1, max(1, p // 8))
            b = min(p, a + w)
            if a < b:
                pairs.append((F(a, p), F(b, p)))
        out.append(IntervalUnion(pairs))
    return out


def random_run_sets(rng: random.Random, p, counts):
    """p-grid-aligned sets, the i-th a union of exactly counts[i] separated cell runs."""
    from fractions import Fraction as F

    from torsol import IntervalUnion

    out = []
    for k in counts:
        cuts = sorted(rng.sample(range(p + 1), 2 * k))
        out.append(IntervalUnion([(F(a, p), F(b, p)) for a, b in zip(cuts[::2], cuts[1::2])]))
    return out


def enumerated_violating(mat, p, sets):
    """Positive-weight grid boxes inside the product, by listing every coset member.

    For each shift of the cover, every one of the p^(m-r) kernel elements
    is added to the shift and kept when all its coordinates lie in the
    sets; sorted lexicographically within each coset.
    """
    from torsol.discrete import kernel_elements, parametrize_kernel
    from torsol.kernel_geometry import enumerate_components, shift_cover

    members = [s.to_discrete(p).members for s in sets]
    param = parametrize_kernel(mat, p)
    out = []
    for sh in shift_cover(enumerate_components(mat), p):
        coset = []
        for k in kernel_elements(param, mat.cols):
            j = tuple((a + b) % p for a, b in zip(sh.j, k))
            if all(arr[v] for arr, v in zip(members, j)):
                coset.append(j)
        coset.sort()
        out.extend((j, sh.lam) for j in coset)
    return out


def enumerated_greedy(mat, p, sets):
    """The greedy removal loop on enumerated boxes: the removed cells (i, x) in order.

    Each round lists the violating boxes of what is left, counts the boxes
    on each cell, and removes the cell with the largest count, ties broken
    by smallest coordinate, then smallest cell.
    """
    from torsol import DiscreteSet

    members = [list(s.to_discrete(p).members) for s in sets]
    removed = []
    while True:
        left = [DiscreteSet(p, arr).to_interval_union() for arr in members]
        counts = {}
        for j, _lam in enumerated_violating(mat, p, left):
            for cell in enumerate(j):
                counts[cell] = counts.get(cell, 0) + 1
        if not counts:
            return removed
        (i, x), _ = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))[0]
        members[i][x] = False
        removed.append((i, x))
