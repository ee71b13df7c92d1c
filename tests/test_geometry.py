"""Exact geometry kernel: hulls, 2d clipping, halfspaces."""

from fractions import Fraction as F

import pytest

from tesstopo.errors import NonConvexCellError
from tesstopo.complexes import GENERATORS, generate
from tesstopo.complexes.geometry import (
    add,
    convex_hull,
    convex_intersection2,
    det3,
    hull_from_halfspaces,
    inverse,
    on_segment,
    orient3d,
    point_in_ring2,
    primitive,
    signed_area2,
    solve3,
)

CUBE = [(F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
TETRA = [(F(0), F(0), F(0)), (F(1), F(0), F(0)),
         (F(0), F(1), F(0)), (F(0), F(0), F(1))]


def test_cube_hull_structure():
    hull = convex_hull(CUBE)
    assert len(hull.apices) == 8
    assert len(hull.facets) == 6
    assert len(hull.ridges) == 12
    assert hull.volume == 1
    assert all(len(f.ring) == 4 for f in hull.facets)


def test_tetra_volume():
    assert convex_hull(TETRA).volume == F(1, 6)


def test_hull_ignores_interior_and_duplicate_points():
    noisy = CUBE + [(F(1, 2), F(1, 2), F(1, 2)), CUBE[0], (F(1, 3), F(1, 4), F(1, 5))]
    hull = convex_hull(noisy)
    assert len(hull.apices) == 8
    assert hull.volume == 1


def test_hull_strips_collinear_ring_points():
    points = CUBE + [(F(1, 2), F(0), F(0))]  # midpoint of a cube edge
    hull = convex_hull(points)
    assert len(hull.apices) == 8
    assert all(len(f.ring) == 4 for f in hull.facets)


def test_flat_point_set_rejected():
    flat = [(F(x), F(y), F(0)) for x in (0, 1) for y in (0, 1)]
    with pytest.raises(NonConvexCellError):
        convex_hull(flat)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_hull_commutes_with_translation(name):
    # the builder hulls one cell per translation class and translates it
    s = (F(-7, 3), F(5, 8), F(11, 2))
    for cell in generate(name).cells:
        points = list(cell.apices)
        moved = convex_hull([add(p, s) for p in reversed(points)])
        assert moved == convex_hull(points).translate(s)


def test_facet_equalities_classification():
    hull = convex_hull(CUBE)
    assert hull.facet_equalities((F(1, 2), F(1, 2), F(1, 2))) == []
    assert len(hull.facet_equalities((F(1, 2), F(1, 2), F(0)))) == 1
    assert len(hull.facet_equalities((F(1, 2), F(0), F(0)))) == 2
    assert len(hull.facet_equalities((F(0), F(0), F(0)))) == 3
    assert hull.facet_equalities((F(2), F(0), F(0))) is None


def test_halfspace_cube_matches_point_hull():
    planes = []
    for axis in range(3):
        n_lo = [0, 0, 0]
        n_lo[axis] = -1
        n_hi = [0, 0, 0]
        n_hi[axis] = 1
        planes.append((tuple(F(v) for v in n_lo), F(0)))
        planes.append((tuple(F(v) for v in n_hi), F(1)))
    hull = hull_from_halfspaces(planes)
    assert len(hull.apices) == 8
    assert hull.volume == 1


def test_unbounded_halfspaces_rejected():
    planes = [((F(1), F(0), F(0)), F(1)),
              ((F(-1), F(0), F(0)), F(0)),
              ((F(0), F(1), F(0)), F(1)),
              ((F(0), F(-1), F(0)), F(0))]  # open in z
    with pytest.raises(NonConvexCellError):
        hull_from_halfspaces(planes)


def test_convex_intersection_of_offset_squares():
    sq = [(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2))]
    shifted = [(x + 1, y + 1) for x, y in sq]
    ring = convex_intersection2(sq, shifted)
    assert signed_area2(ring) == 1
    assert sorted(ring) == [(F(1), F(1)), (F(1), F(2)), (F(2), F(1)), (F(2), F(2))]


def test_convex_intersection_disjoint_is_empty():
    sq = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    far = [(x + 5, y) for x, y in sq]
    assert convex_intersection2(sq, far) == []


def test_point_in_ring_strict_vs_boundary():
    sq = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    assert point_in_ring2((F(1, 2), F(1, 2)), sq, strict=True)
    assert not point_in_ring2((F(1, 2), F(0)), sq, strict=True)
    assert point_in_ring2((F(1, 2), F(0)), sq, strict=False)
    assert not point_in_ring2((F(2), F(0)), sq, strict=False)


def test_on_segment_modes():
    a = (F(0), F(0), F(0))
    b = (F(2), F(2), F(0))
    mid = (F(1), F(1), F(0))
    assert on_segment(mid, a, b, strict=True)
    assert not on_segment(a, a, b, strict=True)
    assert on_segment(a, a, b, strict=False)
    assert not on_segment((F(3), F(3), F(0)), a, b, strict=False)
    assert not on_segment((F(1), F(0), F(0)), a, b, strict=False)


def test_orient3d_sign_flips_with_swap():
    a, b, c, d = TETRA
    assert orient3d(a, b, c, d) > 0 or orient3d(a, c, b, d) > 0
    assert orient3d(a, b, c, d) == -orient3d(a, c, b, d)


def test_primitive_direction():
    assert primitive((F(2, 3), F(-4, 3), F(0))) == (1, -2, 0)
    assert primitive((F(0), F(0), F(-5))) == (0, 0, -1)


def test_inverse_and_solve():
    m = ((F(2), F(1), F(0)), (F(0), F(1), F(0)), (F(1), F(0), F(3)))
    inv = inverse(m)
    assert det3(m) == 6
    ident = tuple(
        tuple(sum(m[i][k] * inv[k][j] for k in range(3)) for j in range(3))
        for i in range(3))
    assert ident == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rhs = (F(5), F(1), F(10))
    x = solve3(m, rhs)
    assert tuple(sum(m[i][k] * x[k] for k in range(3)) for i in range(3)) == rhs
