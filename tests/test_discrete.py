import math
import random
from itertools import compress, product
from fractions import Fraction as F

import pytest

from torsol import (
    DiscreteSet,
    IntMatrix,
    decompose,
    kernel_elements,
    list_solutions,
    parametrize_kernel,
    solution_density,
    solution_measure,
)
from torsol import discrete
from torsol.discrete import _TABLE_LIMIT, _count_plan, _free_tuple_counts, _packed_counts, kernel_element, residue_counts
from torsol.errors import BadModulusError, InvalidInputError

from oracles import (
    naive_density,
    random_full_rank_matrix,
    random_pinned_matrix,
    reference_parametrization,
    residue_histogram,
    suitable_prime,
)

SUM3 = IntMatrix([[1, 1, -1]])
AP3 = IntMatrix([[1, -2, 1]])
AP4 = IntMatrix([[1, -2, 1, 0], [0, 1, -2, 1]])
R4 = IntMatrix([[1, 1, -1, -1]])
AP5 = IntMatrix([[1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1]])
PINNED = IntMatrix([[1, 1, 0], [0, 0, 2]])
ZERO_COLUMN = IntMatrix([[5, 1, 1]])  # column 0 vanishes mod 5


def dset(p, idx):
    return DiscreteSet.from_indices(p, idx)


def full(p):
    return DiscreteSet(p, [True] * p)


def test_parametrization_enumerates_kernel_exactly_once():
    for mat, p in ((SUM3, 5), (AP3, 7), (AP4, 5)):
        param = parametrize_kernel(mat, p)
        elems = list(kernel_elements(param, mat.cols))
        assert len(elems) == p ** (mat.cols - mat.rows)
        assert len(set(elems)) == len(elems)
        for x in elems:
            assert all(v % p == 0 for v in mat.apply_int(x))


def test_parametrization_matches_brute_force_reference():
    # every field against dependent columns picked from the right by brute-force GF(p) rank;
    # refused exactly where the reference finds fewer than r of them
    rng = random.Random(47)
    mats = [SUM3, AP3, AP4, R4, AP5, PINNED, ZERO_COLUMN, IntMatrix([[1, 3, 4], [4, 1, 5]])]
    mats += [IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]]), IntMatrix([[2, 2, 0], [0, 0, 4]]), IntMatrix([[5, 0, 1], [0, 5, 1]])]
    while len(mats) < 45:
        r = rng.randint(1, 3)
        draw = random_pinned_matrix if rng.random() < 0.5 else random_full_rank_matrix
        mat = draw(rng, r, r + rng.randint(1, 3))
        if rng.random() < 0.6:
            # a row that vanishes mod two of the primes
            k = rng.randrange(r)
            scale = rng.choice((2, 3, 5, 7)) * rng.choice((11, 13, 17, 37))
            mat = IntMatrix([[v * scale for v in row] if i == k else row for i, row in enumerate(mat.entries)])
        mats.append(mat)
    pairs = lost = 0
    for mat in mats:
        for p in (2, 3, 5, 7, 11, 13, 17, 37, 101):
            expected = reference_parametrization(mat, p)
            if expected is None:
                with pytest.raises(BadModulusError, match=f"loses rank mod p = {p}"):
                    parametrize_kernel(mat, p)
                lost += 1
            else:
                assert parametrize_kernel(mat, p) == expected, (mat.entries, p)
            pairs += 1
    assert reference_parametrization(IntMatrix([[1, 3, 4], [4, 1, 5]]), 11) is None
    assert pairs >= 300 and lost >= 50, (pairs, lost)


def test_full_sets_density_one():
    for mat, p in ((SUM3, 5), (AP3, 7), (AP4, 11)):
        assert solution_density(mat, p, [full(p)] * mat.cols) == 1


def test_sum3_worked_example():
    sets = [dset(5, [0, 1])] * 3
    assert solution_density(SUM3, 5, sets) == F(3, 25)
    assert list_solutions(SUM3, 5, sets) == [(0, 0, 0), (0, 1, 1), (1, 0, 1)]


def test_sum3_shifted_example():
    sets = [dset(5, [0, 1])] * 3
    assert solution_density(SUM3, 5, sets, shifts=(0, 0, 1)) == F(1, 25)


def test_ap3_worked_example():
    sets = [dset(5, [0, 1])] * 3
    assert list_solutions(AP3, 5, sets) == [(0, 0, 0), (1, 1, 1)]


def test_empty_sets():
    sets = [dset(5, [])] * 3
    assert solution_density(SUM3, 5, sets) == 0
    assert list_solutions(SUM3, 5, sets) == []


def test_limit_truncates():
    sets = [full(5)] * 3
    sols = list_solutions(SUM3, 5, sets, limit=7)
    assert len(sols) == 7
    assert sols == sorted(sols)
    assert list_solutions(SUM3, 5, sets, limit=0) == []


def test_negative_limit_refused():
    # limit=-1 once sliced off the last solution: 2 of the 3 for {0,1}^3
    with pytest.raises(InvalidInputError, match="limit"):
        list_solutions(SUM3, 5, [dset(5, [0, 1])] * 3, limit=-1)


def test_agrees_with_naive_oracle():
    rng = random.Random(13)
    cases = [(mat, p) for mat in (SUM3, AP3, AP4) for p in (5, 7, 11, 13)]
    for r, m in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        for draw in (random_full_rank_matrix, random_pinned_matrix):
            mat = draw(rng, r, m, -2, 2)
            cases.append((mat, suitable_prime(mat)))
    for mat, p in cases:
        for _ in range(3):
            sets = [
                DiscreteSet(p, [rng.random() < 0.5 for _ in range(p)])
                for _ in range(mat.cols)
            ]
            shifts = tuple(rng.randrange(p) for _ in range(mat.cols))
            ours = solution_density(mat, p, sets, shifts)
            theirs = naive_density(
                mat.entries, p, [s.members for s in sets], shifts
            )
            assert ours == theirs
            # every admissible kernel element, against all p^m points in lexicographic order
            brute = [
                x
                for x in product(range(p), repeat=mat.cols)
                if not any(v % p for v in mat.apply_int(x))
                and all(s.members[(v + t) % p] for s, v, t in zip(sets, x, shifts))
            ]
            assert list_solutions(mat, p, sets, shifts, limit=p**mat.cols) == brute, (mat.entries, p)


def test_residue_counts_match_naive_oracle():
    """N(c) for every residue class c, by both routes, against brute force at a shift s with Ls = c.

    Besides random sets: a coefficient 0 mod p, coefficients beyond p of both signs,
    p = 2, and SUM3 at p = 17 with set sizes (15, 17, 17), whose counts fit one-byte
    slots (at most 15 * 17 = 255, one column fixed by the others), while (16, 16, 16)
    takes two (up to 256).
    """
    rng = random.Random(19)
    cases = [(SUM3, 11), (SUM3, 17), (AP3, 13), (AP4, 7), (AP5, 5), (PINNED, 5), (ZERO_COLUMN, 5)]
    cases += [(SUM3, 2), (AP3, 2), (R4, 2), (IntMatrix([[9, -13, 4]]), 5), (IntMatrix([[-7, 12, 30]]), 11)]
    cases += [(IntMatrix([[1, 12, -3], [0, 5, 14]]), 7)]
    sized = {(SUM3, 17): ((15, 17, 17), (16, 16, 16))}
    for mat, p in cases:
        m, r = mat.cols, mat.rows
        shift_of = {}
        for s in product(range(p), repeat=m):
            shift_of.setdefault(tuple(v % p for v in mat.apply_int(s)), s)
        assert len(shift_of) == p**r
        targets = list(shift_of)
        drawn = [tuple(rng.random() < 0.5 for _ in range(p)) for _ in range(m)]
        empty_first = [(False,) * p] + drawn[1:]
        full_last = drawn[:-1] + [(True,) * p]
        by_size = [[dset(p, rng.sample(range(p), k)).members for k in ks] for ks in sized.get((mat, p), ())]
        laid = _count_plan(mat, p).laid
        assert [discrete._slot_bytes([arr.count(1) for arr in members], laid) for members in by_size] == [1, 2][: len(by_size)]
        for members in (drawn, empty_first, full_last, *by_size):
            want = [naive_density(mat.entries, p, members, shift_of[c]) * p ** (m - r) for c in targets]
            assert _packed_counts(mat, p, members, map(discrete._count_plan(mat, p).slot, targets)) == want
            assert _free_tuple_counts(mat, p, members, targets) == want
            assert residue_counts(mat, p, members, targets) == want


def test_packed_counts_exact_at_every_modulus():
    """_packed_counts against brute force on every residue mod q, q prime or not.

    A coefficient sharing a factor g with q (2 in [[2, 1, -1]] at q = 6, 3 in
    [[2, 3, -1, 5]] at q = 9) sends g members of a set to one residue, so its
    factor must be shifted and added, not laid out by _layout; q = 1 has the
    one residue 0.  Random and full sets, r = 1 and r = 2.
    """
    rng = random.Random(41)
    for mat in (IntMatrix([[2, 1, -1]]), IntMatrix([[2, 3, -1, 5]]), AP3, AP4, PINNED):
        for q in (1, 4, 6, 8, 9, 10, 12):
            residues = list(product(range(q), repeat=mat.rows))
            drawn = [tuple(rng.random() < 0.5 for _ in range(q)) for _ in range(mat.cols)]
            for members in (drawn, [(True,) * q] * mat.cols):
                want = residue_histogram(mat.entries, q, members)
                packed = _packed_counts(mat, q, members, map(discrete._count_plan(mat, q).slot, residues))
                assert packed == [want[c] for c in residues], (mat.entries, q)


SMITH = IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]])
WIDTH_CASES = [
    ("SUM3-full", SUM3, 17, "full"),  # every count is 17^2 = 289, the bound: two bytes
    ("R4-full", R4, 7, "full"),  # every count is 7^3 = 343, the bound
    ("SUM3-drawn", SUM3, 19, 0.8),
    ("R4-drawn", IntMatrix([[2, 3, -1, 5]]), 7, 0.7),
    ("shifted-column-q12", IntMatrix([[2, 1, -1]]), 12, 0.7),  # column 0 shifted (gcd 2), columns 1 and 2 laid
    ("shifted-column-q24", IntMatrix([[2, 1, -1]]), 24, "evens"),  # N(0) = 2 * 12^2 = 288 > 12^2
    ("AP4-full", AP4, 5, "full"),
    ("AP4-drawn", AP4, 7, 0.6),
    ("PINNED-full", PINNED, 7, "full"),
    ("SMITH-drawn", SMITH, 6, 0.7),
]


@pytest.mark.parametrize("name, mat, q, density", WIDTH_CASES, ids=[case[0] for case in WIDTH_CASES])
def test_packed_counts_at_the_slot_width(name, mat, q, density):
    """_packed_counts against the residue histogram, on slots exactly as wide as _slot_bytes makes them.

    At r = 1 the width bounds prod |A_i| / max{|A_i| : column i laid}: full
    sets meet that bound at every residue.  [[2, 1, -1]] at q = 24 with A_0
    full and A_1 = A_2 the 12 even residues has N(0) = 288, two bytes, though
    the two laid sets' product is 144: the bound divides by a laid set only.
    At r >= 2 no column is laid and the bound is prod |A_i|.
    """
    rng = random.Random(name)
    if density == "full":
        members = [(True,) * q] * mat.cols
    elif density == "evens":
        members = [(True,) * q] + [tuple(x % 2 == 0 for x in range(q))] * 2
    else:
        members = [tuple(rng.random() < density for _ in range(q)) for _ in range(mat.cols)]
    plan = _count_plan(mat, q)
    sizes = [arr.count(True) for arr in members]
    size = discrete._slot_bytes(sizes, plan.laid)
    want = residue_histogram(mat.entries, q, members)
    assert max(want.values()) < 1 << 8 * size
    if mat.rows == 1 and density in ("full", "evens"):  # a count meets the bound, past one byte
        assert max(want.values()) == math.prod(sizes) // max(sizes[i] for i in plan.laid) > 255
    residues = list(product(range(q), repeat=mat.rows))
    assert _packed_counts(mat, q, members, map(plan.slot, residues), size) == [want[c] for c in residues]
    assert _packed_counts(mat, q, members, map(plan.slot, residues)) == [want[c] for c in residues]


def test_full_sets_count_on_the_packed_side_at_two_and_three_bytes(monkeypatch):
    """SUM3 on full sets at p = 251 and 257: every count is p^2, 63,001 in two bytes and 66,049 in three.

    decompose counts both on the packed side and gives value 1.
    """

    def refuse(*args):
        raise AssertionError("counted over the free tuples")

    monkeypatch.setattr(discrete, "_free_tuple_counts", refuse)
    for p, size in ((251, 2), (257, 3)):
        assert discrete._slot_bytes([p] * 3, _count_plan(SUM3, p).laid) == size
        assert decompose(SUM3, p, [full(p).to_interval_union()] * 3).value == 1


def test_residue_counts_r3_at_large_p(monkeypatch):
    """AP5 at p = 307 counts over the free tuples; its packed vector would take ~0.6 GB."""

    def refuse(*args):
        raise AssertionError("packed count vector built")

    monkeypatch.setattr(discrete, "_packed_counts", refuse)
    rng = random.Random(29)
    p = 307
    runs = [rng.sample(range(p), 4) for _ in range(5)]
    sets = [dset(p, [x for a in starts for x in range(a, a + 15)]) for starts in runs]
    shifts = tuple(rng.randrange(p) for _ in range(5))
    kernel_hits = list_solutions(AP5, p, sets, shifts, limit=p**2)
    assert solution_density(AP5, p, sets, shifts) == F(len(kernel_hits), p**2)


def test_counts_over_the_smaller_side(monkeypatch):
    """Dense SUM3 at p = 211 and R4 at p = 101 build the packed vector; sparse SUM3 at
    p = 10007, AP4 at p = 211 and R4 past the size limit walk the free tuples."""

    def refuse(*args):
        raise AssertionError("counted over the larger side")

    rng = random.Random(31)
    cases = []
    for mat, p, density in ((SUM3, 211, 0.5), (R4, 101, 0.5), (SUM3, 10007, 0.0005), (AP4, 211, 0.5)):
        members = [tuple(rng.random() < density for _ in range(p)) for _ in range(mat.cols)]
        targets = [tuple(rng.randrange(p) for _ in range(mat.rows)) for _ in range(8)]
        cases.append((mat, p, members, targets))
    want = [_free_tuple_counts(*case) for case in cases]
    with monkeypatch.context() as patch:
        patch.setattr(discrete, "_free_tuple_counts", refuse)
        assert [residue_counts(*case) for case in cases[:2]] == want[:2]
    for case, counts in zip(cases[2:], want[2:]):
        assert _packed_counts(*case[:3], map(discrete._count_plan(*case[:2]).slot, case[3])) == counts
    monkeypatch.setattr(discrete, "_packed_counts", refuse)
    assert [residue_counts(*case) for case in cases[2:]] == want[2:]
    monkeypatch.setattr(discrete, "_PACKED_BITS_LIMIT", 0)
    assert residue_counts(*cases[1]) == want[1]


def test_decompose_side_on_two_named_inputs(monkeypatch):
    """decompose on dense sets: SUM3 at p = 307 builds the packed vector, AP4 at p = 101 walks the free tuples."""

    def refuse(*args):
        raise AssertionError("counted over the other side")

    values = {}
    for mat, p, other in ((SUM3, 307, "_free_tuple_counts"), (AP4, 101, "_packed_counts")):
        rng = random.Random(2)
        sets = [DiscreteSet(p, [rng.random() < 0.6 for _ in range(p)]).to_interval_union() for _ in range(mat.cols)]
        with monkeypatch.context() as patch:
            patch.setattr(discrete, other, refuse)
            values[p] = decompose(mat, p, sets).value
        assert values[p] == solution_measure(mat, sets).value > 0


M3X7 = IntMatrix([[1, -1, 2, -1, 3, 2, 3], [2, 2, 1, -3, 3, 0, 3], [-2, 2, -3, -2, -3, -1, 0]])
FREE_SIDE_CASES = [
    ("R4", IntMatrix([[2, 3, -1, 5]]), 13, 0.5),
    ("R4-ones", IntMatrix([[1, 1, -1, -1]]), 13, 0.5),
    ("AP5", AP5, 11, 0.5),
    ("3x7", M3X7, 17, 0.3),
    ("pinned", PINNED, 13, 0.6),
    ("pinned-with-outer", IntMatrix([[1, 1, 0, 1], [0, 0, 2, 0]]), 13, 0.6),
    ("zero-column", ZERO_COLUMN, 5, 0.8),
]


@pytest.mark.parametrize("rows_per_chunk", [None, 2], ids=["one-chunk", "two-row-chunks"])
@pytest.mark.parametrize("name, mat, p, density", FREE_SIDE_CASES, ids=[case[0] for case in FREE_SIDE_CASES])
def test_free_side_matches_brute_force(monkeypatch, rows_per_chunk, name, mat, p, density):
    """_free_tuple_counts and list_solutions against the product listed point by point.

    d = m - r is 3 for the r = 1 matrices and 4 for the 3x7 one; PINNED has a
    dependent coordinate whose coefficient on the last free coordinate is 0 mod p
    (with no outer free coordinate, and with one), ZERO_COLUMN a column that
    vanishes mod p.  Each case also runs with its first outer free set empty (the
    last free set when there is no outer one), and 120 random targets with repeats
    follow every residue that the product reaches, as _incidences sends them.
    With two rows per chunk, the outer tuples span several chunks.
    """
    if rows_per_chunk:
        monkeypatch.setattr(discrete, "_CHUNK_BITS", rows_per_chunk * 8 * discrete._row_bytes(p))
    rng = random.Random(name)
    param = parametrize_kernel(mat, p)
    outer = param.free_columns[:-1]
    drawn = [bytes(rng.random() < density for _ in range(p)) for _ in range(mat.cols)]
    empty_outer = [bytes(p) if c == param.free_columns[0] else arr for c, arr in enumerate(drawn)]
    assert math.prod(drawn[c].count(1) for c in outer) > 2 or not outer
    for members in (drawn, empty_outer):
        by_residue = {}
        for y in product(*(list(compress(range(p), arr)) for arr in members)):
            by_residue.setdefault(tuple(v % p for v in mat.apply_int(y)), []).append(y)
        targets = list(by_residue) + [tuple(rng.randrange(p) for _ in range(mat.rows)) for _ in range(120)]
        assert _free_tuple_counts(mat, p, members, targets) == [len(by_residue.get(c, ())) for c in targets]
        sets = [DiscreteSet(p, arr) for arr in members]
        for c in targets[:: max(1, len(targets) // 25)]:
            shifts = kernel_element(param, mat.cols, (0,) * len(param.free_columns), c)  # L shifts = c
            want = sorted(tuple((v - s) % p for v, s in zip(y, shifts)) for y in by_residue.get(c, ()))
            assert list_solutions(mat, p, sets, shifts, limit=p**mat.cols) == want, (name, c)
        assert (members is drawn) == bool(by_residue)


def test_additive_in_disjoint_union_of_one_argument():
    rng = random.Random(23)
    p = 7
    for _ in range(5):
        a = [rng.random() < 0.5 for _ in range(p)]
        others = [
            DiscreteSet(p, [rng.random() < 0.6 for _ in range(p)]) for _ in range(2)
        ]
        idx = [x for x in range(p) if a[x]]
        rng.shuffle(idx)
        cut = len(idx) // 2
        part1 = dset(p, idx[:cut])
        part2 = dset(p, idx[cut:])
        whole = dset(p, idx)
        d1 = solution_density(SUM3, p, [part1] + others)
        d2 = solution_density(SUM3, p, [part2] + others)
        dw = solution_density(SUM3, p, [whole] + others)
        assert d1 + d2 == dw


def test_invariant_diagonal_lower_bound():
    p = 7
    for a in range(p):
        sets = [dset(p, [a])] * 3
        assert solution_density(AP3, p, sets) >= F(1, p**2)


def test_set_count_and_modulus_must_match():
    with pytest.raises(InvalidInputError, match="need 3 sets, got 2"):
        solution_density(SUM3, 5, [full(5)] * 2)
    with pytest.raises(InvalidInputError, match="set modulus 7 != 5"):
        solution_density(SUM3, 5, [full(5), full(7), full(5)])


def test_rank_drop_rejected():
    bad = IntMatrix([[5, 0, 1], [0, 5, 1]])
    with pytest.raises(BadModulusError):
        solution_density(bad, 5, [full(5)] * 3)


@pytest.mark.parametrize("length", [3, 9])
@pytest.mark.parametrize("count", [solution_density, list_solutions])
def test_membership_arrays_must_have_length_p(count, length):
    with pytest.raises(InvalidInputError, match="length"):
        count(SUM3, 5, [[True] * length] * 3)
    # so must shift vectors have length m = 3: (1,) and (1, 2, 3, 4) are refused
    with pytest.raises(InvalidInputError, match="length"):
        count(SUM3, 5, [[True] * 5] * 3, shifts=(1, 2, 3, 4)[: length // 2])


def test_shifts_wrap_modulo_p():
    sets = [dset(5, [0, 1])] * 3
    assert solution_density(SUM3, 5, sets, shifts=(5, 10, 6)) == solution_density(
        SUM3, 5, sets, shifts=(0, 0, 1)
    )


@pytest.mark.parametrize("count", [solution_density, list_solutions])
def test_non_integral_shifts_refused(count):
    sets = [dset(5, [0, 1])] * 3
    # (0.5, 0, 1) was once truncated to (0, 0, 1), and (True, False, False) read as (1, 0, 0)
    for bad in ((0.5, 0, 1), (1.0, 0, 1), (F(1, 2), 0, 1), ("1", 0, 0), (None, 0, 0), (True, False, False), (0, 0, True)):
        with pytest.raises(InvalidInputError, match="shifts"):
            count(SUM3, 5, sets, shifts=bad)
    assert count(SUM3, 5, sets, shifts=(F(5), -5, 1)) == count(SUM3, 5, sets, shifts=(0, 0, 1))


@pytest.mark.parametrize("count", [solution_density, list_solutions])
def test_membership_entries_must_be_bool_or_01(count):
    # any truthy entry once counted as a member, so "abcde" read as a full set
    for bad in (["abcde"] * 3, [[2, 0, 0, 0, 0]] * 3, [[0.5, 1, 0, 0, 0]] * 3, [[None] * 5] * 3):
        with pytest.raises(InvalidInputError, match="membership"):
            count(SUM3, 5, bad)
        # wrapping the array in a DiscreteSet does not get it past the check
        with pytest.raises(InvalidInputError, match="membership"):
            count(SUM3, 5, [DiscreteSet(5, arr) for arr in bad])
    as_ints = [[1, 1, 0, 0, 0]] * 3
    as_bools = [[True, True, False, False, False]] * 3
    assert count(SUM3, 5, as_ints) == count(SUM3, 5, as_bools) == count(SUM3, 5, [dset(5, [0, 1])] * 3)
    assert DiscreteSet(5, as_ints[0]) == DiscreteSet(5, as_bools[0])


@pytest.mark.parametrize("q", [1, 2, 5, 6, 9, 12, 13])
@pytest.mark.parametrize("mat", [AP4, PINNED, AP5, IntMatrix([[6, 4, 2, 0], [0, 6, 12, 18]])], ids=["AP4", "PINNED", "AP5", "SMITH"])
def test_slot_tables_are_the_slots_of_each_multiple(mat, q):
    """Every slot-table entry of the count plan is plan.slot(x L_i), at r = 2 and 3, prime and composite q.

    A table holds one period of x, q / gcd(q, L_i) entries.
    """
    plan = _count_plan(mat, q)
    assert len(plan.tables) == mat.cols
    for col, table in zip(zip(*mat.entries), plan.tables):
        assert len(table) == q // math.gcd(q, *col)
        assert [table[x % len(table)] for x in range(2 * q)] == [plan.slot([a * x for a in col]) for x in range(2 * q)]


def test_slot_tables_at_one_equation_and_their_bound():
    """At r = 1 only the columns that _layout cannot lay out get a table; past the bound no plan holds one.

    A zero column's table is (0,) at any modulus, so the packed side stays
    open to it at large primes.  Without tables it is priced inf.
    """
    mat = IntMatrix([[2, 5, 0, 1]])
    plan = _count_plan(mat, 12)
    assert plan.tables[1] is plan.tables[3] is None
    assert plan.tables[0] == (0, 2, 4, 6, 8, 10) and plan.tables[2] == (0,)
    q = 2 * _TABLE_LIMIT + 2  # column 0 repeats every q / 2 > _TABLE_LIMIT cells
    assert _count_plan(mat, q).tables is None and discrete._packed_cost(mat, q, [1] * 4) == math.inf
    assert _count_plan(IntMatrix([[2, 5, 1]]), q - 2).tables[0] == tuple(range(0, q - 2, 2))  # at the bound
    assert _count_plan(AP4, 2**61 - 1).tables is None
    assert _count_plan(IntMatrix([[1, 1, -1, 0]]), 2 * _TABLE_LIMIT + 1).tables == (None, None, None, (0,))
