"""Operational removal, probe and extremal-density experiments.

Everything here is built from the exact primitives: finding the grid boxes
that witness solutions inside a product of sets, greedily deleting grid
cells until none remain (with the outcome re-verified by the independent
geometric route), checking that zero-measure instances lose all solutions
after passing to density points, probing the guaranteed-positive measure of
invariant systems on random sets, and searching for the densest
solution-free subset of Z_p.

The sets are handled as membership bytes (IntervalUnion.cells).  The
boxes are listed coset by coset of the shift cover by the walk that counts
over the free tuples (discrete._solutions): the free coordinates but the
last run through their own sets, as rows of bit matrices over the last,
so the cost follows the sets' sizes and the number of boxes rather than
p^(m-r).  The greedy lists no boxes: it reads how many boxes lie on each
cell off one residue_counts call per coordinate, with that coordinate's
set left out, and clears a removed cell's byte in place.  The density
search, exhaustive or local, at every p, keeps a set solution-free
against one edge set: the minimal supports of ker L mod p, found by
submask lookup (_edges_mod_p).
"""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction
from itertools import compress

from . import discrete
from .discrete import kernel_elements, parametrize_kernel, residue_counts
from .errors import InvalidInputError, PositiveMeasureError, PreconditionError
from .intmat import IntMatrix, analyze_matrix
from .kernel_geometry import enumerate_components, shift_cover
from .measures import _check_sets, find_positive_witness, solution_measure
from .rationals import parse_rational, require_int
from .records import Record
from .torus_sets import DiscreteSet, IntervalUnion

__all__ = [
    "RemovalOutcome",
    "find_violating_boxes",
    "greedy_removal",
    "zero_measure_check",
    "szemeredi_probe",
    "density_search",
    "density_trend",
]


class RemovalOutcome(Record):
    """Result of greedy cell removal.

    removed holds the deleted p-grid-aligned sets E_i; verified_free means
    the geometric route confirms the remaining sets have solution measure
    exactly 0 (and no positive-weight box survives).  A frozen Record.
    """

    __slots__ = ("removed", "removed_measures", "verified_free", "iterations")


def _member_arrays(mat: IntMatrix, p: int, sets) -> list[bytearray]:
    return [s.cells(p) for s in _check_sets(mat, sets)]


def _violating(mat: IntMatrix, p: int, members, cover):
    """All grid boxes with positive weight inside the discrete product.

    The boxes of the level-b shift of the cover are the j in the product
    with L j = -b (mod p): the solutions that discrete._solutions walks
    for the target -b, with the free coordinates but the last through
    their own sets and the last as a bit mask.  Sorted lexicographically
    within each coset.
    """
    cosets = [[] for _ in cover]
    targets = [[-b for b in sh.level] for sh in cover]
    for i, j in discrete._solutions(mat, p, members, targets):
        cosets[i].append(j)
    return [(j, sh.lam) for sh, coset in zip(cover, cosets) for j in sorted(coset)]


def find_violating_boxes(mat: IntMatrix, p: int, sets):
    """Positive-weight boxes inside the product, plus a rational witness.

    Empty list exactly when the sets are essentially solution-free (the
    product meets the kernel subgroup in a null set).  The boxes are listed
    coset by coset of the shift cover, walking the free coordinates through
    their own sets.  The witness, None when there are no boxes, is an
    interior point of the first box's slice with L x integral: a box of
    positive weight has a full-dimensional leaf, whose centroid serves.
    """
    members = _member_arrays(mat, p, sets)
    boxes = _violating(mat, p, members, shift_cover(enumerate_components(mat), p))
    if not boxes:
        return boxes, None
    cells = [IntervalUnion([(Fraction(v, p), Fraction(v + 1, p))]) for v in boxes[0][0]]
    return boxes, find_positive_witness(mat, cells)


def _incidences(mat: IntMatrix, p: int, members, cover) -> dict[tuple[int, int], int]:
    """inc(i, x): the positive-weight boxes inside the product with j_i = x.

    A box j lies in the coset of the level-b shift exactly when
    L j = -b (mod p), so inc(i, x) = sum_b N_-i(-b - x L_i), where N_-i
    counts L y over the product with A_i replaced by {0}: one
    residue_counts call per coordinate, a target per member x and level b.
    Cells that lie on no box are left out.
    """
    counts: dict[tuple[int, int], int] = {}
    for i in range(mat.cols):
        rest = members[:i] + [b"\x01" + bytes(p - 1)] + members[i + 1 :]
        col = [row[i] for row in mat.entries]
        xs = list(compress(range(p), members[i]))
        targets = [[-b - x * a for b, a in zip(sh.level, col)] for x in xs for sh in cover]
        n = residue_counts(mat, p, rest, targets)
        for k, x in enumerate(xs):
            if c := sum(n[k * len(cover) : (k + 1) * len(cover)]):
                counts[(i, x)] = c
    return counts


def greedy_removal(mat: IntMatrix, p: int, sets) -> RemovalOutcome:
    """Delete grid cells until no positive-weight box survives.

    Each round removes the cell (coordinate i, cell x) lying on the most
    currently-violating boxes, ties broken by smallest i then smallest x;
    the counts come from _incidences, which lists no box.  The shift cover
    is computed once.  Terminates on the finite grid; the outcome is
    re-verified with an independent geometric measure computation.  No
    optimality is claimed.
    """
    members = _member_arrays(mat, p, sets)
    cover = shift_cover(enumerate_components(mat), p)
    m = mat.cols
    removed: list[set[int]] = [set() for _ in range(m)]
    iterations = 0
    while counts := _incidences(mat, p, members, cover):
        i, x = min(counts, key=lambda cell: (-counts[cell], cell))
        members[i][x] = 0
        removed[i].add(x)
        iterations += 1
    removed_sets = tuple(
        DiscreteSet(p, [x in cells for x in range(p)]).to_interval_union() for cells in removed
    )
    remaining = [DiscreteSet(p, mem).to_interval_union() for mem in members]
    verified = solution_measure(mat, remaining).value == 0
    return RemovalOutcome(
        removed=removed_sets,
        removed_measures=tuple(Fraction(len(cells), p) for cells in removed),
        verified_free=verified,
        iterations=iterations,
    )


def zero_measure_check(mat: IntMatrix, sets):
    """Density points of zero-measure instances carry no solutions at all.

    Requires solution_measure(sets) == 0 (otherwise raises, attaching a
    rational witness solution).  Returns the per-set density points (open
    intervals, wrapping blocks reported with right endpoint > 1) and the
    exact emptiness of the open product's intersection with the kernel:
    the product meets the kernel iff some slice restricted to the density
    blocks is full-dimensional, and then find_positive_witness returns the
    centroid of such a leaf, which lies inside it.
    """
    rep = solution_measure(mat, sets)
    if rep.value != 0:
        witness = find_positive_witness(mat, sets)
        raise PositiveMeasureError(
            f"solution measure is {rep.value} != 0; witness solution {witness}",
            witness=witness,
            value=rep.value,
        )
    density_sets = [s.density_points() for s in sets]
    # a wrapping block (a, b), b > 1, stands for [a, 1) and [0, b - 1)
    density_blocks = [
        IntervalUnion([(a, min(b, 1)) for a, b in pairs] + [(0, b - 1) for a, b in pairs if b > 1])
        for pairs in density_sets
    ]
    return density_sets, find_positive_witness(mat, density_blocks) is None


def szemeredi_probe(mat: IntMatrix, alpha, trials: int, seed: int):
    """Minimum exact solution measure over random sets of measure >= alpha.

    Only meaningful for invariant systems (L applied to the all-ones vector
    vanishes), where every set of positive measure has positive solution
    measure; the probe reports the smallest value observed and the set that
    attains it.  The first trial is always the interval [0, alpha).
    """
    profile = analyze_matrix(mat)
    if not profile.is_invariant:
        raise PreconditionError("matrix is not invariant (row sums do not vanish)")
    alpha = parse_rational(alpha)
    if not (0 < alpha <= 1):
        raise InvalidInputError("alpha must be in (0, 1]")
    require_int("trials", trials, 1)
    rng = random.Random(seed)
    m = mat.cols
    best = None
    best_set = None
    for trial in range(trials):
        if trial == 0:
            candidate = IntervalUnion([(Fraction(0), alpha)])
        else:
            q = rng.randint(4, 10)
            k = math.ceil(alpha * q)
            cells = rng.sample(range(q), k)
            pairs = [(Fraction(c, q), Fraction(c + 1, q)) for c in cells]
            candidate = IntervalUnion(pairs)
            if rng.random() < 0.5:
                den = rng.randint(5, 12)
                a = rng.randrange(den)
                b = rng.randint(a + 1, den)
                candidate = candidate.union(IntervalUnion([(Fraction(a, den), Fraction(b, den))]))
        value = solution_measure(mat, [candidate] * m).value
        if best is None or value < best:
            best, best_set = value, candidate
    return best, best_set


def _edges_mod_p(param, m: int) -> list[int]:
    """The minimal supports of ker L mod p, as bitmasks over Z_p.

    The support of a kernel element x is the set {x_1, ..., x_m} of
    residues.  A set avoids every support exactly when it avoids the
    minimal ones, so both searches run on these alone.  A support is kept
    when none of its proper submasks is a support too: at most 2^m set
    lookups each.  Sorted by size, then by mask.
    """
    supports = set()
    for x in kernel_elements(param, m):
        mask = 0
        for v in x:
            mask |= 1 << v
        supports.add(mask)
    minimal = []
    for e in supports:
        sub = (e - 1) & e
        while sub and sub not in supports:
            sub = (sub - 1) & e
        if not sub:
            minimal.append(e)
    return sorted(minimal, key=lambda e: (e.bit_count(), e))


def _greedy_fill(addable, order) -> int:
    mask = 0
    for e in order:
        if addable(mask, e):
            mask |= 1 << e
    return mask


def _conflicts(p: int, edges: list[int]):
    """addable(mask, e): whether e can join the solution-free set mask.

    It cannot when adding it fills an edge through e, a singleton edge
    {e} included.  Each edge is listed under its own bits.
    """
    edges_by_elem = [[] for _ in range(p)]
    for e in edges:
        rest = e
        while rest:
            low = rest & -rest
            edges_by_elem[low.bit_length() - 1].append(e)
            rest ^= low

    def addable(mask: int, e: int) -> bool:
        new = mask | 1 << e
        return all(edge & ~new for edge in edges_by_elem[e])

    return addable


def _exhaustive_search(p: int, edges: list[int]) -> int:
    addable = _conflicts(p, edges)
    best_mask = _greedy_fill(addable, range(p))
    best = [best_mask.bit_count(), best_mask]

    def rec(idx: int, mask: int, count: int):
        if count + (p - idx) <= best[0]:
            return
        if idx == p:
            best[0] = count
            best[1] = mask
            return
        if addable(mask, idx):
            rec(idx + 1, mask | 1 << idx, count + 1)
        rec(idx + 1, mask, count)

    rec(0, 0, 0)
    return best[1]


def _local_search(p: int, edges: list[int], rng: random.Random) -> int:
    addable = _conflicts(p, edges)
    candidates = [e for e in range(p) if addable(0, e)]
    best_mask = 0
    restarts = 30
    steps = 40 * p
    for _ in range(restarts):
        order = list(range(p))
        rng.shuffle(order)
        mask = _greedy_fill(addable, order)
        if mask.bit_count() > best_mask.bit_count():
            best_mask = mask
        if not candidates:
            break
        for _ in range(steps):
            e = rng.choice(candidates)
            if mask >> e & 1:
                continue
            if addable(mask, e):
                mask |= 1 << e
            else:
                inside = [x for x, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
                if not inside:
                    continue
                out = rng.choice(inside)
                trial = mask & ~(1 << out)
                if addable(trial, e):
                    mask = trial | (1 << e)
            if mask.bit_count() > best_mask.bit_count():
                best_mask = mask
    return best_mask


def density_search(mat: IntMatrix, p: int, mode: str = "exhaustive", seed: int = 0):
    """Densest subset of Z_p whose m-fold product avoids the kernel.

    All solutions count, including diagonal ones, so invariant systems
    admit only the empty set: a warning is issued and density 0 returned.
    Exhaustive mode (p <= 22) is optimal by construction; local mode runs
    seeded hill climbing with restarts and reports the best set found.
    Both modes test candidates against the minimal kernel supports of
    _edges_mod_p at every p.  The mode, the modulus (a prime int, full
    rank mod p) and then the exhaustive size limit are checked first, for
    invariant systems too.
    """
    if mode not in ("exhaustive", "local"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    param = parametrize_kernel(mat, p)
    if mode == "exhaustive" and p > 22:
        raise PreconditionError(f"exhaustive search limited to p <= 22, got {p}")
    if analyze_matrix(mat).is_invariant:
        warnings.warn(
            "invariant system: every diagonal point is a solution, so no nonempty "
            "set is solution-free; density is 0 under the all-solutions convention"
        )
        return Fraction(0), DiscreteSet(p, [False] * p)
    edges = _edges_mod_p(param, mat.cols)
    if mode == "exhaustive":
        mask = _exhaustive_search(p, edges)
    else:
        mask = _local_search(p, edges, random.Random(seed))
    members = [bool(mask >> x & 1) for x in range(p)]
    return Fraction(mask.bit_count(), p), DiscreteSet(p, members)


def density_trend(mat: IntMatrix, ps) -> list[tuple[int, int, int, float]]:
    """Exhaustive extremal densities across moduli, as (p, num, den, decimal)."""
    rows = []
    for p in ps:
        dens, _ = density_search(mat, p, mode="exhaustive")
        rows.append((p, dens.numerator, dens.denominator, float(dens)))
    return rows
