"""Operational removal, probe and extremal-density experiments.

Everything here is built from the exact primitives: finding the grid boxes
that witness solutions inside a product of sets, greedily deleting grid
cells until none remain (with the outcome re-verified by the independent
geometric route), checking that zero-measure instances lose all solutions
after passing to density points, probing the guaranteed-positive measure of
invariant systems on random sets, and searching for the densest
solution-free subset of Z_p.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .discrete import kernel_elements, parametrize_kernel
from .errors import InvalidInputError, PositiveMeasureError, PreconditionError
from .intmat import IntMatrix, analyze_matrix
from .kernel_geometry import box_slices, enumerate_components, shift_cover, slice_point
from .measures import _first_full_dimensional, find_positive_witness, solution_measure
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


@dataclass(frozen=True)
class RemovalOutcome:
    """Result of greedy cell removal.

    removed holds the deleted p-grid-aligned sets E_i; verified_free means
    the geometric route confirms the remaining sets have solution measure
    exactly 0 (and no positive-weight box survives).
    """

    removed: tuple[IntervalUnion, ...]
    removed_measures: tuple[Fraction, ...]
    verified_free: bool
    iterations: int


def _member_arrays(mat: IntMatrix, p: int, sets) -> list[list[bool]]:
    if len(sets) != mat.cols:
        raise InvalidInputError(f"need {mat.cols} sets, got {len(sets)}")
    return [list(s.to_discrete(p).members) for s in sets]


def _violating(mat: IntMatrix, p: int, members):
    """All grid boxes with positive weight inside the discrete product.

    Enumerated coset by coset: for each shift of the cover, run through its
    p^(m-r) coset members and keep those whose coordinates all belong to the
    sets.  Sorted lexicographically within each coset.
    """
    decomp = enumerate_components(mat)
    cover = shift_cover(decomp, p)
    param = parametrize_kernel(mat, p)
    m = mat.cols
    out = []
    for sh in cover:
        coset = []
        for k in kernel_elements(param, m):
            j = tuple((a + b) % p for a, b in zip(sh.j, k))
            if all(members[i][j[i]] for i in range(m)):
                coset.append(j)
        coset.sort()
        out.extend((j, sh.lam) for j in coset)
    return out


def _box_witness(mat: IntMatrix, p: int, j, sets):
    """Rational interior point of the kernel inside the box at j, verified
    to lie in every (half-open) set; None when only degenerate contact."""
    decomp = enumerate_components(mat)
    for comp, res in box_slices(decomp, j, p):
        if not res.is_full_dimensional:
            continue
        x = slice_point(decomp, comp, res)
        if all(s.contains(v % 1) for s, v in zip(sets, x)):
            return tuple(v % 1 for v in x)
    return None


def find_violating_boxes(mat: IntMatrix, p: int, sets):
    """Positive-weight boxes inside the product, plus a rational witness.

    Empty list exactly when the sets are essentially solution-free (the
    product meets the kernel subgroup in a null set).  The witness, when
    one exists, is an interior point of one box's slice with L x integral.
    """
    members = _member_arrays(mat, p, sets)
    boxes = _violating(mat, p, members)
    witness = None
    for j, _lam in boxes:
        witness = _box_witness(mat, p, j, sets)
        if witness is not None:
            break
    return boxes, witness


def greedy_removal(mat: IntMatrix, p: int, sets) -> RemovalOutcome:
    """Delete grid cells until no positive-weight box survives.

    Each round removes the cell (coordinate i, cell x) lying on the most
    currently-violating boxes, ties broken by smallest i then smallest x.
    Terminates on the finite grid; the outcome is re-verified with an
    independent geometric measure computation.  No optimality is claimed.
    """
    members = _member_arrays(mat, p, sets)
    m = mat.cols
    removed: list[set[int]] = [set() for _ in range(m)]
    iterations = 0
    while True:
        boxes = _violating(mat, p, members)
        if not boxes:
            break
        counts: dict[tuple[int, int], int] = {}
        for j, _lam in boxes:
            for i, x in enumerate(j):
                counts[(i, x)] = counts.get((i, x), 0) + 1
        (i, x), _ = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))[0]
        members[i][x] = False
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
    the product meets the kernel iff some slice restricted to the closures
    is full-dimensional, which is checked slice by slice.
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
    closed_blocks = []
    for pairs in density_sets:
        blocks = []
        for a, b in pairs:
            if b <= 1:
                blocks.append((a, b))
            else:
                blocks.append((a, Fraction(1)))
                blocks.append((Fraction(0), b - 1))
        closed_blocks.append(blocks)
    decomp = enumerate_components(mat)
    empty = all(_first_full_dimensional(decomp, comp, closed_blocks) is None for comp in decomp.components)
    return density_sets, empty


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
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise InvalidInputError("alpha must be in (0, 1]")
    if trials < 1:
        raise InvalidInputError("need at least one trial")
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


def _edges_mod_p(mat: IntMatrix, p: int, minimalize: bool) -> list[int]:
    """Support bitmasks of kernel elements; optionally reduced to minimal ones."""
    param = parametrize_kernel(mat, p)
    supports = set()
    for x in kernel_elements(param, mat.cols):
        mask = 0
        for v in x:
            mask |= 1 << v
        supports.add(mask)
    edges = sorted(supports, key=lambda e: (e.bit_count(), e))
    if not minimalize:
        return edges
    minimal: list[int] = []
    for e in edges:
        if not any((f & e) == f for f in minimal):
            minimal.append(e)
    return minimal


def _greedy_fill(p: int, edges_by_elem, banned, order):
    mask = 0
    for e in order:
        if e in banned:
            continue
        bit = 1 << e
        new = mask | bit
        if all(edge & ~new for edge in edges_by_elem[e]):
            mask = new
    return mask


def _conflicts(p: int, edges: list[int]):
    """Elements banned outright (singleton edges) and, per element, the larger edges through it."""
    banned = {e.bit_length() - 1 for e in edges if e.bit_count() == 1}
    edges_by_elem = [[] for _ in range(p)]
    for e in edges:
        if e.bit_count() == 1:
            continue
        for x in range(p):
            if e >> x & 1:
                edges_by_elem[x].append(e)
    return banned, edges_by_elem


def _exhaustive_search(p: int, edges: list[int]) -> int:
    banned, edges_by_elem = _conflicts(p, edges)
    best_mask = _greedy_fill(p, edges_by_elem, banned, range(p))
    best = [best_mask.bit_count(), best_mask]

    def rec(idx: int, mask: int, count: int):
        if count + (p - idx) <= best[0]:
            return
        if idx == p:
            best[0] = count
            best[1] = mask
            return
        if idx not in banned:
            new = mask | (1 << idx)
            if all(edge & ~new for edge in edges_by_elem[idx]):
                rec(idx + 1, new, count + 1)
        rec(idx + 1, mask, count)

    rec(0, 0, 0)
    return best[1]


def _local_search(p: int, edges: list[int], rng: random.Random) -> int:
    banned, edges_by_elem = _conflicts(p, edges)

    def addable(mask: int, e: int) -> bool:
        if e in banned:
            return False
        new = mask | (1 << e)
        return all(edge & ~new for edge in edges_by_elem[e])

    candidates = [e for e in range(p) if e not in banned]
    best_mask = 0
    restarts = 30
    steps = 40 * p
    for _ in range(restarts):
        order = list(range(p))
        rng.shuffle(order)
        mask = _greedy_fill(p, edges_by_elem, banned, order)
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
                inside = [x for x in range(p) if mask >> x & 1]
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
    """
    profile = analyze_matrix(mat)
    if profile.is_invariant:
        warnings.warn(
            "invariant system: every diagonal point is a solution, so no nonempty "
            "set is solution-free; density is 0 under the all-solutions convention"
        )
        return Fraction(0), DiscreteSet(p, [False] * p)
    if mode == "exhaustive":
        if p > 22:
            raise PreconditionError(f"exhaustive search limited to p <= 22, got {p}")
        edges = _edges_mod_p(mat, p, minimalize=True)
        mask = _exhaustive_search(p, edges)
    elif mode == "local":
        edges = _edges_mod_p(mat, p, minimalize=p <= 64)
        mask = _local_search(p, edges, random.Random(seed))
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")
    members = [bool(mask >> x & 1) for x in range(p)]
    return Fraction(mask.bit_count(), p), DiscreteSet(p, members)


def density_trend(mat: IntMatrix, ps) -> list[tuple[int, int, int, float]]:
    """Exhaustive extremal densities across moduli, as (p, num, den, decimal)."""
    rows = []
    for p in ps:
        dens, _ = density_search(mat, p, mode="exhaustive")
        rows.append((p, dens.numerator, dens.denominator, float(dens)))
    return rows
