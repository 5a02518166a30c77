"""Solution measures S_L(A_1, ..., A_m) by three independent routes.

geometric      exact, for any rational interval unions.  A single equation
               (r = 1) has a closed form: the mass of l . x over the
               integer levels, a lattice sum of a univariate box spline
               (de Boor, Hollig and Riemenschneider, 1993) taken from one
               integer product of the sets' endpoint polynomials; a lone
               nonzero l_i pins x_i to the points k/|l_i|, tested
               half-open.  For r >= 2: a sum over the kernel slices that
               the sets' bounding box can reach of the parameter volumes
               of box slices, one per combination of interval blocks,
               each slice's integer vertices clipped block by block
               (kernel_geometry.slice_leaves), with no H-polytope.
               find_positive_witness reads a point off the same slices.
               The same value is the count identity of decomposition at
               the sets' own grid q, any q >= 1, its bytes filled from the
               grid's integer blocks.  Both are priced from the blocks'
               endpoints before either runs (the walker by the block
               products its slices can meet times their squared vertex
               counts, or for r = 1 by the closed form's terms; the identity
               by the Z_p counter's packed-side model), and the cheaper
               answers.  When q^m <= 200 both run and must agree.
decomposition  exact: the count identity c_param / p^(m-r) sum_b vol_b N(-b)
               of p-grid-aligned sets at a suitable prime p, all counts from
               one call of the Z_p counter.  Its targets -b, their slots and
               the weights over one denominator are built once per (L, q)
               (_identity_plan), for the geometric route's identity too.
               Independently coded from the walker; the two agree exactly.
monte_carlo    statistical: samples the normalized Haar measure on the
               kernel subgroup directly, from uniform free coordinates and
               a uniform coset of the pivot minor, and reads off the pivot
               coordinates.  It shares no geometry with the exact routes.
               The only floating-point code in the package lives here.

The L1-continuity bound sum_i mu(C_i delta A_i) certifies how far the
measure can move when each set is replaced by an approximant, provided every
coordinate projection of the kernel subgroup is surjective (no degenerate
columns).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DegenerateColumnsError, InternalInvariantError, InvalidInputError, PreconditionError
from .intmat import IntMatrix, _adjugate, _column_hnf, _minor_dets, analyze_matrix
from .kernel_geometry import (
    _reachable,
    _walk_cost,
    enumerate_components,
    product_measure,
    shift_cover,
    slice_leaves,
)
from .rationals import require_int
from .records import Record
from .torus_sets import MEMBERSHIP_LIMIT, IntervalUnion, _cells, _GridBlocks
from .discrete import _count_plan, _packed_cost, _packed_counts, residue_counts

__all__ = [
    "MeasureReport",
    "solution_measure",
    "decompose",
    "monte_carlo_estimate",
    "approximation_bound",
    "find_positive_witness",
]

# q^m up to which the geometric route checks its value against the count
# identity at the sets' own grid q
_BOX_CROSS_CHECK_LIMIT = 200

# the most samples monte_carlo_estimate draws: about 30 s at a CLI run's ~3 us a sample
_SAMPLE_LIMIT = 10**7

# units of discrete._packed_cost that the count identity pays on any sets:
# the membership bytes, the counter's set-up and the final Fraction
# (fitted with kernel_geometry._walk_cost's divisors)
_IDENTITY_SETUP = 12


class MeasureReport(Record):
    """The answer of one route: value is a Fraction for the exact routes, a float for monte_carlo.

    per_shift holds decompose's (j, lambda, density) triples.  A frozen Record.
    """

    __slots__ = ("value", "route", "p_used", "per_shift", "ci99", "n_samples", "seed", "workers")
    _defaults = dict.fromkeys(("p_used", "per_shift", "ci99", "n_samples", "seed", "workers"))


def _check_sets(mat: IntMatrix, sets) -> list[IntervalUnion]:
    sets, m = list(sets), len(mat.entries[0])
    if len(sets) != m:
        raise InvalidInputError(f"need {m} sets, got {len(sets)}")
    for s in sets:
        if not isinstance(s, IntervalUnion):
            raise InvalidInputError("sets must be IntervalUnion instances")
    return sets


@lru_cache(maxsize=256, typed=True)
def _identity_plan(mat: IntMatrix, q: int) -> tuple:
    """(targets, slots, weights, den, shifts): what the count identity of L at grid q takes from (L, q) alone.

    For the k-th level b of enumerate_components(L)._by_level, in shift_cover's
    order, targets[k] = -b, slots[k] and shifts[k] are its discrete._count_plan
    slot and free-side shifts mod q (shifts is None where the free side does
    not count: q not prime, or L losing rank mod q) and
    weights[k] / den = c_param vol_b / q^(m-r).  Typed, as the other (L, q) caches.
    """
    decomp = enumerate_components(mat)
    targets = tuple(tuple(-v for v in b) for b in decomp._by_level)
    vols = [comp.volume_param for comp in decomp._by_level.values()]
    den, c = math.lcm(*(v.denominator for v in vols)), decomp.c_param
    weights = tuple(v.numerator * (den // v.denominator) * c.numerator for v in vols)
    plan = _count_plan(mat, q)
    slots, shifts = tuple(map(plan.slot, targets)), None if plan.unpin is None else plan.shifts(targets)
    return targets, slots, weights, den * c.denominator * q ** (mat.cols - mat.rows), shifts


def _count_identity(plan: tuple, counts) -> Fraction:
    """c_param / q^(m-r) sum_b vol_b N(-b), the measure of q-grid-aligned sets, as one Fraction.

    plan is the _identity_plan(L, q) entry that the caller read the counts
    at: counts[k] = N(-b) counts the cells j with L j = -b (mod q) for its
    k-th target -b, weighted by plan[2][k] / plan[3].  The box at j/q holds
    every such level-b slice scaled by 1/q, so any q >= 1 works.
    """
    return Fraction(sum(map(mul, plan[2], counts)), plan[3])


def solution_measure(mat: IntMatrix, sets) -> MeasureReport:
    """Exact solution measure of rational interval unions, geometric route.

    Two exact routes give the value, both on the sets' blocks on their
    grid q (_GridBlocks, every endpoint an integer), and neither shares
    code with the other: the walker (product_measure: the closed form for a
    single equation, else c_param times the parameter volumes of the kernel
    slices restricted to block combinations) and _count_identity with the
    packed counts mod q of the grid's membership bytes.  Both are priced
    from the blocks' endpoints, before either runs, and no membership byte
    is built to price them: the walker by kernel_geometry._walk_cost, the
    identity by _IDENTITY_SETUP plus one unit per level plus
    discrete._packed_cost on the set sizes (fitted, see
    kernel_geometry._TERMS_PER_UNIT).  The last is skipped when the walker
    costs no more than the first two.  The walk takes the slices its price
    found.  The cheaper answers; the walker does when q > MEMBERSHIP_LIMIT
    or when the packed vector would exceed its size limit.  When
    q^m <= _BOX_CROSS_CHECK_LIMIT both run, the walker first, and must
    agree.  The packed slots are as wide as _packed_cost makes them.
    """
    sets = _check_sets(mat, sets)
    decomp = enumerate_components(mat)
    grid = _GridBlocks([s.intervals for s in sets])
    q, sizes = grid.q, grid.sizes

    def identity(size) -> Fraction:
        plan = _identity_plan(mat, q)
        return _count_identity(plan, _packed_counts(_count_plan(mat, q), grid.cells(), plan[1], size))

    if q**mat.cols <= _BOX_CROSS_CHECK_LIMIT:
        value, alt = product_measure(decomp, grid), identity(_packed_cost(_count_plan(mat, q), sizes)[1])
        if alt != value:
            raise InternalInvariantError(f"block summation {value} != count identity {alt} on the {q}-grid")
        return MeasureReport(value=value, route="geometric")
    if q <= MEMBERSHIP_LIMIT:
        walk, price = _walk_cost(decomp, grid), _IDENTITY_SETUP + len(decomp._by_level)
        if walk > price:  # else the identity cannot be cheaper, whatever its counts cost
            cost, size = _packed_cost(_count_plan(mat, q), sizes)  # inf past the vector's limit
            if walk > price + cost:
                return MeasureReport(value=identity(size), route="geometric")
    return MeasureReport(value=product_measure(decomp, grid), route="geometric")


class PerShift(Sequence):
    """The (j, lambda, density) triples of a decomposition, built on access.

    Holds the cached shift_cover tuple that decompose fetched and the
    count of each shift, packed into one int, and reads p, m and r off the
    cover, so iterating reads no cache.  A caller that keeps many reports
    holds a fifth of the memory that tuples of triples would take.
    """

    __slots__ = ("cover", "packed", "width")

    def __init__(self, cover, counts):
        packed, width = 0, max(counts, default=0).bit_length()
        for c in reversed(counts):  # count i lands at bit i * width
            packed = packed << width | c
        self.cover, self.packed, self.width = cover, packed, width

    def __iter__(self):
        first, top = self.cover[0], (1 << self.width) - 1
        size = first.p ** (len(first.j) - len(first.level))
        for i, sh in enumerate(self.cover):
            yield sh.j, sh.lam, Fraction(self.packed >> (i * self.width) & top, size)

    def __len__(self):
        return len(self.cover)

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, PerShift) else other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def decompose(mat: IntMatrix, p: int, sets) -> MeasureReport:
    """Exact solution measure via the weighted shift cover over Z_p.

    Requires p-grid-aligned sets and a prime p accepted by shift_cover.
    One call of residue_counts on the discretized sets gives every
    shifted density: the shift j of level b solves L j = -b (mod p), so
    its density is N(-b) / p^(m-r).  The report carries every (shift, weight,
    shifted density) triple; the value is their weighted sum,
    _count_identity at q = p, and equals the geometric route exactly.  The
    report's PerShift keeps the cached shift_cover tuple.
    """
    sets = _check_sets(mat, sets)
    cover = shift_cover(enumerate_components(mat), p)  # refuses a p that the cover does not accept
    targets, slots, _, _, shifts = plan = _identity_plan(mat, p)
    counts = residue_counts(mat, p, _cells(sets, p), targets, slots, shifts)
    return MeasureReport(value=_count_identity(plan, counts), route="decomposition", p_used=p,
                         per_shift=PerShift(cover, counts))


def _member(table, v) -> bool:
    """Whether v lies in the half-open blocks [starts[i], ends[i]) of table."""
    starts, ends = table
    i = bisect_right(starts, v) - 1
    return i >= 0 and v < ends[i]


def monte_carlo_estimate(
    mat: IntMatrix, sets, n_samples: int, seed: int, workers: int = 1
) -> MeasureReport:
    """Statistical estimate of the solution measure with a 99% interval.

    Samples the normalized Haar measure on {x in T^m : Lx = 0} through the
    pivot columns D of L (the first minor of intmat._minor_dets, with
    inverse adj L_D / det L_D, the one adjugate built) and the free
    columns F.  The map x -> x_F takes the subgroup onto T^(m-r); its
    fibre over x_F is the |det L_D| points x_D = L_D^-1 (k - L_F x_F) mod 1,
    one for each coset k of Z^r / L_D Z^r, and the diagonal h of the
    column HNF of L_D lists the cosets as 0 <= k_i < h_i.  Each sample
    draws x_F, one uniform per free column in column order, then k_i
    uniformly for each i with h_i > 1 in order, and reads off x_D.  A
    pivot coordinate whose row of L_D^-1 L_F is zero is pinned to the
    exact rational (L_D^-1 k)_i mod 1 and tested half-open exactly; the
    other coordinates are floats.

    Deterministic for fixed (seed, n_samples, workers); each worker w uses
    the derived stream seed "seed:w".  Every worker but the last draws
    n_samples // workers samples, and the last the rest, so workers beyond
    the sample count draw nothing and no stream is seeded for them.  More
    than _SAMPLE_LIMIT samples are refused before any is drawn.
    """
    sets = _check_sets(mat, sets)
    require_int("n_samples", n_samples, 1)
    require_int("workers", workers, 1)
    if n_samples > _SAMPLE_LIMIT:
        raise PreconditionError(f"n_samples {n_samples} exceeds the limit of {_SAMPLE_LIMIT} (about 3 us a sample)")
    r, rows = mat.rows, mat.entries
    piv, delta = _minor_dets(mat)[0]
    adj = _adjugate([[row[c] for c in piv] for row in rows])
    free = [c for c in range(mat.cols) if c not in piv]
    inv = [[Fraction(a, delta) for a in row] for row in adj]
    drawn = [(i, col[i]) for i, col in enumerate(_column_hnf([[row[c] for row in rows] for c in piv], r)) if col[i] > 1]

    def table(s, kind):
        return [kind(a) for a, _ in s.intervals], [kind(b) for _, b in s.intervals]

    free_tables = [table(sets[c], float) for c in free]
    pivots = []  # x_c = (q . k - s . x_F) mod 1 for pivot column c
    for c, q in zip(piv, inv):
        s = [sum(a * row[f] for a, row in zip(q, rows)) for f in free]
        if any(s):
            pivots.append((table(sets[c], float), [float(v) for v in q], [float(v) for v in s]))
        else:
            pivots.append((table(sets[c], Fraction), q, []))

    chunk = n_samples // workers  # 0 when workers > n_samples: the last stream alone draws
    hits = 0
    for w in range(0 if chunk else workers - 1, workers):
        rng = random.Random(f"{seed}:{w}")
        for _ in range(chunk if w < workers - 1 else n_samples - chunk * (workers - 1)):
            xf = [rng.random() for _ in free]
            k = [0] * r
            for i, h in drawn:
                k[i] = rng.randrange(h)
            hits += all(_member(t, x) for t, x in zip(free_tables, xf)) and all(
                _member(t, (sum(map(mul, q, k)) - sum(map(mul, s, xf))) % 1) for t, q, s in pivots
            )

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

    Walks the slices that the sets' blocks can reach with slice_leaves,
    as the geometric route does, takes the centroid of the vertices of
    each slice's first full-dimensional leaf (a point x of the slice), and
    returns the first such point, mod 1, that lies in every (half-open) set.
    """
    sets = _check_sets(mat, sets)
    decomp = enumerate_components(mat)
    grid = _GridBlocks([s.intervals for s in sets])
    for comp in _reachable(decomp, grid):
        leaf = next((leaf for leaf in slice_leaves(decomp, comp, grid) if leaf.is_full_dimensional), None)
        if leaf is not None:
            x = tuple(Fraction(sum(c), len(leaf.points) * leaf.scale) % 1 for c in zip(*leaf.points))
            if all(s.contains(v) for s, v in zip(sets, x)):
                return x
    return None
