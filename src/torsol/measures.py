"""Solution measures S_L(A_1, ..., A_m) by three independent routes.

geometric      exact: sum over kernel slices of parameter-polytope volumes,
               one polytope per combination of interval blocks of the sets,
               with interval-hull pruning.  Works for any rational interval
               unions.
decomposition  exact: weighted sum of shifted counting densities over Z_p,
               for p-grid-aligned sets at a suitable prime p.  Independently
               coded from the geometric route; the two agree exactly.
monte_carlo    statistical: samples from the normalized Haar measure on the
               kernel subgroup by component choice plus rejection inside the
               parameter polytope.  The only floating-point code in the
               package lives here.

The L1-continuity bound sum_i mu(C_i delta A_i) certifies how far the
measure can move when each set is replaced by an approximant, provided every
coordinate projection of the kernel subgroup is surjective (no degenerate
columns).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DegenerateColumnsError, InternalInvariantError, InvalidInputError
from .intmat import IntMatrix, analyze_matrix
from .kernel_geometry import (
    KernelDecomposition,
    box_measure,
    enumerate_components,
    shift_cover,
    slice_point,
)
from .polytope import enumerate_vertices, slice_polytope, volume
from .torus_sets import IntervalUnion
from .discrete import solution_density

__all__ = [
    "MeasureReport",
    "solution_measure",
    "decompose",
    "monte_carlo_estimate",
    "approximation_bound",
    "find_positive_witness",
]

# grid sizes up to which the geometric route re-derives its value cell by
# cell as an internal consistency check
_BOX_CROSS_CHECK_LIMIT = 200


@dataclass(frozen=True)
class MeasureReport:
    value: object  # Fraction for exact routes, float for monte_carlo
    route: str
    p_used: int | None = None
    per_shift: tuple | None = None  # (j, lambda, density) triples
    ci99: float | None = None
    n_samples: int | None = None
    seed: int | None = None
    workers: int | None = None


def _check_sets(mat: IntMatrix, sets) -> list[IntervalUnion]:
    sets = list(sets)
    if len(sets) != mat.cols:
        raise InvalidInputError(f"need {mat.cols} sets, got {len(sets)}")
    for s in sets:
        if not isinstance(s, IntervalUnion):
            raise InvalidInputError("sets must be IntervalUnion instances")
    return sets


def _form_range(row, hull):
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
    d = len(hull)
    for k in range(d):
        c = row[k]
        if c == 0:
            continue
        omin = Fraction(0)
        omax = Fraction(0)
        for j in range(d):
            if j == k:
                continue
            cj = row[j]
            l, u = hull[j]
            if cj >= 0:
                omin += cj * l
                omax += cj * u
            else:
                omin += cj * u
                omax += cj * l
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


def _component_hull(decomp: KernelDecomposition, comp):
    """Bounding box of {t : x_b + Bt in [0,1]^m} in parameter space."""
    m = decomp.matrix.cols
    poly = slice_polytope(decomp.basis_columns, comp.representative, [0] * m, [1] * m)
    verts = enumerate_vertices(poly)
    if not verts:
        return None
    d = len(decomp.basis_columns)
    return [
        (min(v[k] for v in verts), max(v[k] for v in verts)) for k in range(d)
    ]


def _component_leaves(decomp: KernelDecomposition, comp, blocks):
    """Yield the VolumeResult of the slice restricted to each block product.

    blocks[i] is the list of closed blocks [a, b] of the i-th set; block
    combinations whose interval hull misses the slice are pruned.  The
    parameter volumes of the leaves sum to that of the slice inside the
    product of the blocks.
    """
    m = decomp.matrix.cols
    columns = decomp.basis_columns
    x_rep = comp.representative
    rows = [tuple(Fraction(c[i]) for c in columns) for i in range(m)]
    hull0 = _component_hull(decomp, comp)
    if hull0 is None:
        return
    chosen: list[tuple[Fraction, Fraction]] = []

    def rec(i, hull):
        if i == m:
            lows, highs = zip(*chosen)
            yield volume(slice_polytope(columns, x_rep, lows, highs))
            return
        flo, fhi = _form_range(rows[i], hull)
        for a, b in blocks[i]:
            lo, hi = a - x_rep[i], b - x_rep[i]
            if hi < flo or lo > fhi:
                continue
            new_hull = _tighten(hull, rows[i], lo, hi)
            if new_hull is None:
                continue
            chosen.append((a, b))
            yield from rec(i + 1, new_hull)
            chosen.pop()

    yield from rec(0, hull0)


def _first_full_dimensional(decomp: KernelDecomposition, comp, blocks):
    """The first leaf of the slice that is full-dimensional, or None."""
    return next((res for res in _component_leaves(decomp, comp, blocks) if res.is_full_dimensional), None)


def _closed_blocks(sets) -> list[list[tuple[Fraction, Fraction]]]:
    return [[(a, b) for a, b in s.intervals] for s in sets]


def _grid_box_sum(mat: IntMatrix, decomp: KernelDecomposition, sets, q: int) -> Fraction:
    """Cell-by-cell summation over the q-grid (small q only)."""
    discrete = [s.to_discrete(q) for s in sets]
    total = Fraction(0)
    for j in product(*[d.indices() for d in discrete]):
        total += box_measure(decomp, j, q)
    return total


def solution_measure(mat: IntMatrix, sets) -> MeasureReport:
    """Exact solution measure of rational interval unions, geometric route.

    The value is c_param times the sum, over kernel slices and interval
    block combinations, of the parameter volume of the restricted slice.
    On small grids the same value is re-derived cell by cell and the two
    summations are checked to agree.
    """
    sets = _check_sets(mat, sets)
    decomp = enumerate_components(mat)
    blocks = _closed_blocks(sets)
    total = Fraction(0)
    for comp in decomp.components:
        total += sum((res.volume for res in _component_leaves(decomp, comp, blocks)), Fraction(0))
    value = total * decomp.c_param

    q = 1
    for s in sets:
        for a, b in s.intervals:
            q = q * a.denominator // math.gcd(q, a.denominator)
            q = q * b.denominator // math.gcd(q, b.denominator)
    if q**mat.cols <= _BOX_CROSS_CHECK_LIMIT and not analyze_matrix(mat).degenerate_columns:
        alt = _grid_box_sum(mat, decomp, sets, q)
        if alt != value:
            raise InternalInvariantError(
                f"block summation {value} != cell summation {alt} on the {q}-grid"
            )
    return MeasureReport(value=value, route="geometric")


def decompose(mat: IntMatrix, p: int, sets) -> MeasureReport:
    """Exact solution measure via the weighted shift cover over Z_p.

    Requires p-grid-aligned sets and a prime p accepted by shift_cover.
    The report carries every (shift, weight, shifted density) triple; the
    value is their weighted sum and equals the geometric route exactly.
    """
    sets = _check_sets(mat, sets)
    decomp = enumerate_components(mat)
    cover = shift_cover(decomp, p)
    discrete_sets = [s.to_discrete(p) for s in sets]
    per = []
    value = Fraction(0)
    for sh in cover:
        dens = solution_density(mat, p, discrete_sets, shifts=sh.j)
        per.append((sh.j, sh.lam, dens))
        value += sh.lam * dens
    return MeasureReport(value=value, route="decomposition", p_used=p, per_shift=tuple(per))


def _float_membership(sets):
    tables = []
    for s in sets:
        tables.append([(float(a), float(b)) for a, b in s.intervals])
    return tables


def monte_carlo_estimate(
    mat: IntMatrix, sets, n_samples: int, seed: int, workers: int = 1
) -> MeasureReport:
    """Statistical estimate of the solution measure with a 99% interval.

    Draws from the normalized Haar measure on the kernel subgroup: pick a
    slice with probability proportional to its parameter volume, then
    rejection-sample the parameter uniformly from the slice's bounding box.
    Deterministic for fixed (seed, n_samples, workers); each worker w uses
    the derived stream seed "seed:w".
    """
    sets = _check_sets(mat, sets)
    if n_samples < 1:
        raise InvalidInputError("need at least one sample")
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
    decomp = enumerate_components(mat)
    comps = [c for c in decomp.components if c.volume_param > 0]
    weights = [float(c.volume_param / decomp.total_volume_param) for c in comps]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    cum[-1] = 1.0

    m = decomp.matrix.cols
    d = len(decomp.basis_columns)
    cols_f = [[float(v) for v in c] for c in decomp.basis_columns]
    prepared = []
    for comp in comps:
        hull = _component_hull(decomp, comp)
        rep = [float(v) for v in comp.representative]
        box = [(float(l), float(u)) for l, u in hull]
        prepared.append((rep, box))
    tables = _float_membership(sets)

    chunk = n_samples // workers
    counts = [chunk] * workers
    counts[-1] += n_samples - chunk * workers

    hits = 0
    proposals = 0
    accepted = 0
    for w, n_chunk in enumerate(counts):
        rng = random.Random(f"{seed}:{w}")
        for _ in range(n_chunk):
            u = rng.random()
            ci = next(i for i, c in enumerate(cum) if u <= c)
            rep, box = prepared[ci]
            while True:
                proposals += 1
                t = [rng.uniform(l, u2) for l, u2 in box]
                x = [rep[i] + sum(cols_f[k][i] * t[k] for k in range(d)) for i in range(m)]
                if all(-1e-12 <= xi <= 1 + 1e-12 for xi in x):
                    accepted += 1
                    break
                if proposals > 5000 and accepted * 500 < proposals:
                    raise InvalidInputError(
                        "rejection sampling efficiency below 1/500; refine the "
                        "component bounding boxes before sampling"
                    )
            x = [xi % 1.0 for xi in x]
            ok = True
            for i in range(m):
                xi = x[i]
                if not any(a <= xi < b for a, b in tables[i]):
                    ok = False
                    break
            if ok:
                hits += 1

    mean = hits / n_samples
    sigma = math.sqrt(mean * (1.0 - mean) / n_samples)
    return MeasureReport(
        value=mean,
        route="monte_carlo",
        ci99=2.5758293035489004 * sigma,
        n_samples=n_samples,
        seed=seed,
        workers=workers,
    )


def approximation_bound(mat: IntMatrix, originals, approximants) -> Fraction:
    """Certified bound sum_i mu(C_i delta A_i) on the measure difference.

    Valid only when every coordinate projection of the kernel subgroup is
    surjective, i.e. the matrix has no degenerate columns; otherwise the
    instance is refused.
    """
    originals = _check_sets(mat, originals)
    approximants = _check_sets(mat, approximants)
    profile = analyze_matrix(mat)
    if profile.degenerate_columns:
        cols = ", ".join(
            f"column {dc.column} (multiplier {dc.multiplier})"
            for dc in profile.degenerate_columns
        )
        raise DegenerateColumnsError(
            "the L1 continuity bound needs surjective coordinate projections, "
            f"but the matrix has degenerate columns: {cols}; delete the pinned "
            "solution points for those coordinates first",
            columns=profile.degenerate_columns,
        )
    return sum(
        (c.symmetric_difference(a).measure() for c, a in zip(originals, approximants)),
        Fraction(0),
    )


def find_positive_witness(mat: IntMatrix, sets):
    """A rational point x of the product of sets with Lx integral, or None.

    Searches the same slice/block restrictions as the geometric route and
    returns the centroid of the first full-dimensional one whose point
    verifies exact membership in every (half-open) set.
    """
    sets = _check_sets(mat, sets)
    decomp = enumerate_components(mat)
    blocks = _closed_blocks(sets)
    for comp in decomp.components:
        res = _first_full_dimensional(decomp, comp, blocks)
        if res is None:
            continue
        x = slice_point(decomp, comp, res)
        if all(s.contains(v % 1) for s, v in zip(sets, x)):
            return tuple(v % 1 for v in x)
    return None
