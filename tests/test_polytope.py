import random
from fractions import Fraction as F

import pytest

from torsol import IntMatrix, central_section_check
from torsol.errors import UnboundedPolytopeError
from torsol.polytope import HPolytope, enumerate_vertices, volume

from oracles import random_full_rank_matrix, sweep_area


def box2(lo=F(0), hi=F(1)):
    return [
        ((F(1), F(0)), hi),
        ((F(-1), F(0)), -lo),
        ((F(0), F(1)), hi),
        ((F(0), F(-1)), -lo),
    ]


def test_unit_square_vertices():
    verts = enumerate_vertices(HPolytope(2, box2()))
    assert verts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_triangle_vertices():
    cons = [
        ((F(-1), F(0)), F(0)),
        ((F(0), F(-1)), F(0)),
        ((F(1), F(1)), F(1)),
    ]
    verts = enumerate_vertices(HPolytope(2, cons))
    assert verts == [(0, 0), (0, 1), (1, 0)]


def test_cut_square_five_vertices():
    cons = box2() + [((F(1), F(1)), F(3, 2))]
    verts = enumerate_vertices(HPolytope(2, cons))
    assert verts == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1, 2), F(1)),
        (F(1), F(0)),
        (F(1), F(1, 2)),
    ]
    assert volume(HPolytope(2, cons)).volume == F(7, 8)


def test_unit_cube_volume():
    cons = []
    for i in range(3):
        e = [F(0)] * 3
        e[i] = F(1)
        cons.append((tuple(e), F(1)))
        cons.append((tuple(-v for v in e), F(0)))
    res = volume(HPolytope(3, cons))
    assert res.volume == 1
    assert res.is_full_dimensional


def test_simplex_volume():
    cons = [
        ((F(-1), F(0)), F(0)),
        ((F(0), F(-1)), F(0)),
        ((F(1), F(1)), F(1)),
    ]
    assert volume(HPolytope(2, cons)).volume == F(1, 2)


def test_centered_square_cut_by_band():
    cons = box2(F(-1, 2), F(1, 2)) + [
        ((F(1), F(1)), F(1, 2)),
        ((F(-1), F(-1)), F(1, 2)),
    ]
    assert volume(HPolytope(2, cons)).volume == F(3, 4)


def test_lower_dimensional_volume_zero():
    cons = box2() + [((F(1), F(0)), F(0))]  # the segment t1 = 0
    res = volume(HPolytope(2, cons))
    assert res.volume == 0
    assert not res.is_full_dimensional
    assert res.vertices == ((0, 0), (0, 1))


def test_empty_polytope():
    cons = [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1))]  # t1 <= 0 and t1 >= 1
    cons += box2()
    assert enumerate_vertices(HPolytope(2, cons)) == []
    assert volume(HPolytope(2, cons)).volume == 0


def test_unbounded_raises_with_direction():
    cons = [((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]  # positive quadrant
    with pytest.raises(UnboundedPolytopeError) as exc:
        enumerate_vertices(HPolytope(2, cons))
    direction = exc.value.direction
    assert direction is not None
    assert any(v != 0 for v in direction)
    # the witness really is a recession direction
    for a, _c in cons:
        assert sum(x * y for x, y in zip(a, direction)) <= 0


def test_empty_but_unbounded_recession_cone_reports_empty():
    # contradictory bounds on t1, t2 free: feasible set empty
    cons = [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1))]
    assert enumerate_vertices(HPolytope(2, cons)) == []


def test_nonempty_strip_raises():
    cons = [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0))]  # 0 <= t1 <= 1, t2 free
    with pytest.raises(UnboundedPolytopeError) as exc:
        enumerate_vertices(HPolytope(2, cons))
    assert exc.value.direction in ((0, 1), (0, -1))


def test_zero_normal_raises_or_empties_by_its_sign():
    for d in (1, 2):
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(HPolytope(d, [((F(0),) * d, F(0))]))
        assert enumerate_vertices(HPolytope(d, [((F(0),) * d, F(-1))])) == []


def test_empty_slab():
    cons = [((F(-1), F(-1)), F(-1)), ((F(1), F(1)), F(0))]  # t1 + t2 >= 1 and t1 + t2 <= 0
    assert enumerate_vertices(HPolytope(2, cons)) == []


def test_square_with_scaled_opposite_normals():
    cons = [((F(2), F(0)), F(2)), ((F(-1), F(0)), F(0)), ((F(0), F(3)), F(3)), ((F(0), F(-1)), F(0))]
    assert enumerate_vertices(HPolytope(2, cons)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_classification_on_random_polyhedra():
    """Vertices are feasible; an empty answer stays empty inside [-10^6, 10^6]^d; a raise
    names a recession direction of a polyhedron with a point in that box."""
    rng = random.Random(43)
    for _ in range(150):
        d = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 6)):
            if cons and rng.random() < 0.25:
                a = tuple(-rng.randint(1, 3) * x for x in rng.choice(cons)[0])
            else:
                a = tuple(F(rng.randint(-2, 2)) for _ in range(d))
            cons.append((a, F(rng.randint(-3, 3))))
        big = [(tuple(F(s) if j == i else F(0) for j in range(d)), F(10**6)) for i in range(d) for s in (1, -1)]
        try:
            verts = enumerate_vertices(HPolytope(d, cons))
        except UnboundedPolytopeError as exc:
            direction = exc.direction
            assert any(direction)
            assert all(sum(x * y for x, y in zip(a, direction)) <= 0 for a, _ in cons)
            assert enumerate_vertices(HPolytope(d, cons + big))
            continue
        for v in verts:
            assert all(sum(x * y for x, y in zip(a, v)) <= c for a, c in cons)
        if not verts:
            assert enumerate_vertices(HPolytope(d, cons + big)) == []


def _random_poly(rng, extra=3):
    cons = box2()
    for _ in range(extra):
        a = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        if a == (0, 0):
            continue
        c = F(rng.randint(-2, 4), rng.randint(1, 3))
        cons.append((a, c))
    return cons


def test_volume_matches_sweep_oracle():
    rng = random.Random(17)
    nonempty = 0
    for _ in range(40):
        cons = _random_poly(rng)
        vol = volume(HPolytope(2, cons)).volume
        assert vol == sweep_area(cons)
        if vol > 0:
            nonempty += 1
    assert nonempty > 10


def test_split_additivity():
    rng = random.Random(23)
    for _ in range(20):
        cons = _random_poly(rng)
        a = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        if a == (0, 0):
            a = (F(1), F(1))
        c = F(rng.randint(-1, 2), rng.randint(1, 2))
        total = volume(HPolytope(2, cons)).volume
        left = volume(HPolytope(2, cons + [(a, c)])).volume
        right = volume(HPolytope(2, cons + [(tuple(-v for v in a), -c)])).volume
        assert left + right == total


def test_monotonicity_under_extra_constraint():
    rng = random.Random(29)
    for _ in range(20):
        cons = _random_poly(rng)
        a = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        if a == (0, 0):
            continue
        c = F(rng.randint(-1, 2))
        assert volume(HPolytope(2, cons + [(a, c)])).volume <= volume(HPolytope(2, cons)).volume


def _apply_unimodular(cons, u):
    # polytope {t : a . (U t) <= c} is the preimage of the original under U
    out = []
    for a, c in cons:
        new_a = tuple(
            sum(a[i] * u[i][j] for i in range(len(a))) for j in range(len(a))
        )
        out.append((new_a, c))
    return out


def test_permutation_invariance():
    rng = random.Random(41)
    for _ in range(10):
        cons = _random_poly(rng)
        base = volume(HPolytope(2, cons)).volume
        shuffled = cons[:]
        rng.shuffle(shuffled)
        assert volume(HPolytope(2, shuffled)).volume == base


def test_unimodular_invariance():
    rng = random.Random(31)
    mats = [
        [[1, 1], [0, 1]],
        [[1, 0], [-2, 1]],
        [[2, 1], [1, 1]],
        [[0, 1], [-1, 0]],
    ]
    for _ in range(10):
        cons = _random_poly(rng)
        base = volume(HPolytope(2, cons)).volume
        for u in mats:
            transformed = _apply_unimodular(cons, [[F(v) for v in row] for row in u])
            assert volume(HPolytope(2, transformed)).volume == base


def test_central_sections_worked_examples():
    res = central_section_check(IntMatrix([[1, 1, -1]]))
    assert (res.vol_param, res.gram_det, res.passes) == (F(3, 4), 3, True)
    res = central_section_check(IntMatrix([[1, -1]]))
    assert (res.vol_param, res.gram_det, res.passes) == (F(1), 2, True)
    res = central_section_check(IntMatrix([[1, -2, 1]]))
    assert res.passes
    assert res.vol_param * res.vol_param * res.gram_det >= 1


def test_central_section_random_matrices():
    rng = random.Random(37)
    for _ in range(10):
        r = rng.randint(1, 2)
        m = rng.randint(r + 1, 5)
        mat = random_full_rank_matrix(rng, r, m)
        assert central_section_check(mat).passes
