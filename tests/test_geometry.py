"""Exact geometry kernel: hulls, mapped cells, halfspaces, and the planar
kernel's clipping and ring cleanup, checked against the code it replaced."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tesstopo.errors import NonConvexCellError
from tesstopo.scalar import PI2, Scalar, fraction_free
from tesstopo.complexes import GENERATORS, generate
from tesstopo.complexes.geometry import (
    Facet,
    Polyhedron,
    _initial_tetrahedron,
    add,
    clip_cell,
    cross,
    convex_hull,
    convex_intersection2,
    det3,
    dot,
    hull_from_halfspaces,
    inverse,
    lift3,
    map_cell,
    mat_vec,
    neg,
    on_segment,
    orient3d,
    point_in_ring2,
    primitive,
    sub,
    ZERO3,
)
from tesstopo.planar import clean_ring, clip, cross2, exact_div, ring_of_lines, ring_of_points

from plane_solver import solve3


# ring orientation by signed area, as fixtures: the builder now reads a
# facet ring's turn off its normal
def signed_area2(ring):
    total = 0
    for i, p in enumerate(ring):
        q = ring[(i + 1) % len(ring)]
        total += p[0] * q[1] - q[0] * p[1]
    return exact_div(total, 2)


def ring_ccw2(ring):
    return ring if signed_area2(ring) > 0 else ring[::-1]


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
    # a supercell moves each cell by a lattice vector without a new hull
    s = (F(-7, 3), F(5, 8), F(11, 2))
    for cell in generate(name).cells:
        moved = [add(p, s) for p in cell.apices]
        assert repr(map_cell(cell, moved)) == repr(convex_hull(moved[::-1]))


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
    assert point_in_ring2((F(1, 2), F(1, 2)), sq)
    assert not point_in_ring2((F(1, 2), F(0)), sq)


def test_on_segment_modes():
    a = (F(0), F(0), F(0))
    b = (F(2), F(2), F(0))
    mid = (F(1), F(1), F(0))
    assert on_segment(mid, a, b)
    assert not on_segment(a, a, b)


def test_orient3d_sign_flips_with_swap():
    a, b, c, d = TETRA
    assert orient3d(a, b, c, d) > 0 or orient3d(a, c, b, d) > 0
    assert orient3d(a, b, c, d) == -orient3d(a, c, b, d)


def test_primitive_direction():
    assert primitive((F(2, 3), F(-4, 3), F(0))) == (1, -2, 0)
    assert primitive((F(0), F(0), F(-5))) == (0, 0, -1)
    # a halfspace row (n, c) scales as one vector
    assert primitive((F(1, 3), 0, 0, F(-2, 3))) == (1, 0, 0, -2)
    with pytest.raises(ValueError):
        primitive((0, F(0), 0, 0))


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


def _left_of(a, b):
    """The halfplane a·x + b·y + c <= 0 left of the directed line ab."""
    return b[1] - a[1], a[0] - b[0], (b[0] - a[0]) * a[1] - (b[1] - a[1]) * a[0]


def _kernel_clip(points, *lines):
    """The kernel's clip of an affine counterclockwise ring, cleaned."""
    return clean_ring(clip(ring_of_points(points), lines))


def _corners(ring):
    """The affine points of a kernel ring, before any cleanup."""
    return [p if p is not None else (exact_div(x, w), exact_div(y, w))
            for x, y, w, _, p in ring]


def test_clip_keep_left_stays_exact_on_int_input():
    square = [(0, 0), (3, 0), (3, 3), (0, 3)]
    ring, kind = _kernel_clip(square, _left_of((2, 3), (1, 0)))
    assert kind == "region" and ring == ((1, 0), (3, 0), (3, 3), (2, 3))
    assert all(type(x) is int for p in ring for x in p)
    half, _ = _kernel_clip(square, _left_of((0, 1), (2, 2)))  # crosses x = 3 at y = 5/2
    assert half == ((3, F(5, 2)), (3, 3), (0, 3), (0, 1))
    assert type(half[0][1]) is F and type(half[0][0]) is int


@pytest.mark.parametrize("a, b, want", [
    (6, 3, 2),
    (-7, 2, F(-7, 2)),
    (F(3, 2), F(3, 4), 2),
    (F(1, 2), 3, F(1, 6)),
    (Scalar(3), Scalar(2), Scalar(3, 2)),
    (Scalar(6), 3, Scalar(2)),
    (2 * PI2, PI2, Scalar(2)),
    (PI2, Scalar((3, 1)), Scalar((0, 1), (3, 1))),
], ids=["int-whole", "int-fraction", "fraction-whole", "fraction", "scalar-rational",
        "scalar-whole", "scalar-pi2-whole", "scalar-pi2"])
def test_exact_div_keeps_the_field_of_its_operands(a, b, want):
    # a whole quotient of ints or Fractions is an int; a Scalar quotient stays a
    # Scalar, whose canonical form needs no narrowing
    got = exact_div(a, b)
    assert got == want and type(got) is type(want)


# Integer-scaled input against its Fraction original: every function of the
# kernel must give the Fraction result times the scale, and never a float.
_COORD = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_POINT3 = st.tuples(_COORD, _COORD, _COORD)
_POINT2 = st.tuples(_COORD, _COORD)


def _numbers(obj):
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _numbers(item)
    elif hasattr(obj, "apices"):
        yield from _numbers((obj.apices, obj.volume,
                             [(f.normal, f.offset) for f in obj.facets]))
    else:
        yield obj


def _exact(obj) -> bool:
    return all(type(x) in (int, F) for x in _numbers(obj))


def _common_scale(*objs) -> int:
    return lcm(*(F(x).denominator for obj in objs for x in _numbers(obj)))


def _scaled(obj, d):
    """Each number of obj times d, as an int (d clears every denominator)."""
    if isinstance(obj, (list, tuple)):
        return type(obj)(_scaled(item, d) for item in obj)
    return int(obj * d)


def _times(obj, d):
    if isinstance(obj, (list, tuple)):
        return type(obj)(_times(item, d) for item in obj)
    return obj * d


@settings(max_examples=60, deadline=None)
@given(st.lists(_POINT3, min_size=4, max_size=9), st.integers(1, 3))
def test_hull_on_scaled_ints_is_the_scaled_hull(points, extra):
    d = _common_scale(points) * extra
    try:
        want = convex_hull(points)
    except NonConvexCellError:
        with pytest.raises(NonConvexCellError):
            convex_hull(_scaled(points, d))
        return
    got = convex_hull(_scaled(points, d))
    assert _exact(got) and all(type(x) is int for p in got.apices for x in p)
    assert got.apices == _times(want.apices, d)
    assert got.volume == want.volume * d ** 3
    assert got.ridges == want.ridges
    assert [(f.normal, f.ring) for f in got.facets] == \
        [(f.normal, f.ring) for f in want.facets]
    assert [f.offset for f in got.facets] == [f.offset * d for f in want.facets]
    assert all(type(x) is int for f in got.facets for x in f.normal)


def _triangle(points):
    a, b, c = points
    return ring_ccw2([a, b, c]) if cross2(a, b, c) != 0 else None


@settings(max_examples=80, deadline=None)
@given(st.lists(_POINT2, min_size=3, max_size=3),
       st.lists(_POINT2, min_size=3, max_size=3),
       st.tuples(_POINT2, _POINT2))
def test_planar_clipping_on_scaled_ints_is_scaled(tri_p, tri_q, line):
    p_ring, q_ring = _triangle(tri_p), _triangle(tri_q)
    if p_ring is None or q_ring is None or line[0] == line[1]:
        return
    d = _common_scale(p_ring, q_ring, line)
    p_int, q_int = _scaled(p_ring, d), _scaled(q_ring, d)
    cut = convex_intersection2(p_int, q_int)
    assert _exact(cut)
    assert cut == _times(convex_intersection2(p_ring, q_ring), d)
    clipped, kind = _kernel_clip(p_int, _left_of(*_scaled(line, d)))
    assert _exact(clipped)
    want, want_kind = _kernel_clip(p_ring, _left_of(*line))
    assert (clipped, kind) == (_times(want, d), want_kind)
    assert (clipped, kind) == _affine_clean_ring(
        _reference_clip_keep_left(p_int, *_scaled(line, d)))
    assert cut == _reference_convex_intersection2(p_int, q_int)
    area = signed_area2(p_int)
    assert _exact([area]) and area == signed_area2(p_ring) * d * d


@settings(max_examples=80, deadline=None)
@given(_POINT2, st.integers(0, 2),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)), _COORD)
def test_lift_on_scaled_ints_is_scaled(xy, k, normal, offset):
    if normal[k] == 0:
        return
    d = _common_scale(xy, [offset])
    got = lift3(_scaled(xy, d), k, normal, int(offset * d))
    assert _exact(got)
    assert got == _times(lift3(xy, k, normal, offset), d)


@settings(max_examples=80, deadline=None)
@given(st.lists(_POINT3, min_size=3, max_size=3), _POINT3)
def test_solve_and_inverse_on_scaled_ints_are_scaled(rows, rhs):
    m = tuple(rows)
    if det3(m) == 0:
        return
    e = _common_scale(m)
    d = _common_scale(rhs) * e
    m_int = _scaled(m, e)
    x = solve3(m_int, _scaled(rhs, d))
    assert _exact(x)
    assert x == _times(solve3(m, rhs), d // e)
    inv = inverse(m_int)
    assert _exact(inv)
    assert _times(inv, e) == inverse(m)


def _reference_assemble_ring(edges):
    """The facet boundary walk as it was before convexity was relied on:
    a vertex with two successors, a walk that does not close, or several
    cycles were refused."""
    succ = {}
    for u, v in edges:
        if u in succ:
            raise NonConvexCellError("facet boundary is not a simple cycle")
        succ[u] = v
    start = edges[0][0]
    ring = [start]
    cur = succ[start]
    while cur != start:
        ring.append(cur)
        cur = succ[cur]
        if len(ring) > len(edges):
            raise NonConvexCellError("facet boundary is not a single cycle")
    if len(ring) != len(edges):
        raise NonConvexCellError("facet boundary splits into several cycles")
    return ring


def _reference_strip_collinear(ring, points):
    """Drop one collinear point at a time and look again from the start."""
    out = list(ring)
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            o = points[out[i - 1]]
            a = points[out[i]]
            b = points[out[(i + 1) % len(out)]]
            if cross(sub(a, o), sub(b, a)) == ZERO3:
                out.pop(i)
                changed = True
                break
    return out


def _reference_hull(raw_points):
    """The hull as it ran before it scaled its points to int: every step on
    the caller's coordinates. Kept as the reference of the test below."""
    points = []
    seen = set()
    for p in raw_points:
        if p not in seen:
            seen.add(p)
            points.append(p)
    start = _initial_tetrahedron(points)
    if start is None:
        raise NonConvexCellError("cell is not three-dimensional")
    corners, tris_list = start
    tris = set(tris_list)
    used = set(corners)
    for idx, p in enumerate(points):
        if idx in used:
            continue
        visible = [t for t in tris
                   if orient3d(points[t[0]], points[t[1]], points[t[2]], p) > 0]
        if not visible:
            continue
        vis_edges = set()
        for a, b, c in visible:
            vis_edges.update(((a, b), (b, c), (c, a)))
        horizon = [(u, v) for (u, v) in vis_edges if (v, u) not in vis_edges]
        tris.difference_update(visible)
        tris.update((u, v, idx) for u, v in horizon)
    groups = {}
    for t in tris:
        n = cross(sub(points[t[1]], points[t[0]]), sub(points[t[2]], points[t[0]]))
        np_ = primitive(n)
        groups.setdefault((np_, dot(np_, points[t[0]])), []).append(t)
    facet_rings = []
    for (n, c), group in groups.items():
        edges = set()
        for a, b, cc in group:
            for e in ((a, b), (b, cc), (cc, a)):
                if (e[1], e[0]) in edges:
                    edges.remove((e[1], e[0]))
                else:
                    edges.add(e)
        ring = _reference_strip_collinear(_reference_assemble_ring(sorted(edges)), points)
        if len(ring) < 3:
            raise NonConvexCellError("degenerate facet after merging")
        facet_rings.append((n, c, ring))
    hull_indices = sorted({i for _, _, ring in facet_rings for i in ring},
                          key=lambda i: points[i])
    remap = {old: new for new, old in enumerate(hull_indices)}
    apices = tuple(points[i] for i in hull_indices)
    facets = []
    for n, c, ring in facet_rings:
        mapped = [remap[i] for i in ring]
        low = mapped.index(min(mapped))
        facets.append(Facet(n, c, tuple(mapped[low:] + mapped[:low])))
    facets.sort(key=lambda f: (f.normal, f.offset))
    edge_count = {}
    for f in facets:
        for i in range(len(f.ring)):
            a, b = f.ring[i], f.ring[(i + 1) % len(f.ring)]
            key = (a, b) if a < b else (b, a)
            edge_count[key] = edge_count.get(key, 0) + 1
    if any(v != 2 for v in edge_count.values()):
        raise NonConvexCellError("hull surface is not closed")
    volume = 0
    for f in facets:
        q0 = apices[f.ring[0]]
        for i in range(1, len(f.ring) - 1):
            volume += dot(q0, cross(apices[f.ring[i]], apices[f.ring[i + 1]]))
    volume = exact_div(volume, 6)
    if volume <= 0:
        raise NonConvexCellError("cell volume is not positive")
    return Polyhedron(apices, tuple(facets), tuple(sorted(edge_count)), volume)


def _mixed(q):
    """ints in [-3, 3] mixed with Fractions in [-3, 3] over the denominator
    q: integer numerators are far cheaper to draw than ``st.fractions``."""
    return st.integers(-3, 3) | st.builds(F, st.integers(-3 * q, 3 * q), st.just(q))


@st.composite
def _hull_inputs(draw):
    """Points with int and Fraction coordinates mixed, with repeats, points
    inside segments of the set, and one draw in eight all in one plane, so
    most sets build a hull and some test the refusal."""
    coord = _mixed(draw(st.integers(1, 6)))
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=10))
    if draw(st.booleans()):  # a point between two of them, a third of the way
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        points.append(tuple(x + F(y - x) / 3 for x, y in zip(a, b)))
    if draw(st.integers(0, 7)) == 0:
        points = [(x, y, 0) for x, y, _ in points]
    repeats = draw(st.lists(st.sampled_from(points), max_size=3))
    if repeats:
        # the same point again, with every int written as a Fraction
        points += [tuple(F(x) for x in p) for p in repeats]
    return draw(st.permutations(points))


def _hull_text(points):
    try:
        return repr(convex_hull(points))
    except NonConvexCellError as exc:
        return f"NonConvexCellError: {exc}"


def _reference_text(points):
    try:
        return repr(_reference_hull(points))
    except NonConvexCellError as exc:
        return f"NonConvexCellError: {exc}"


@settings(max_examples=200, deadline=None)
@given(_hull_inputs())
def test_hull_matches_the_fraction_reference(points):
    # same apex objects, facet offsets of the same type, same volume, same
    # refusal, to the character
    assert _hull_text(points) == _reference_text(points)


# invertible rational maps of either orientation, entries over one denominator
_MATRICES = st.builds(
    lambda q, rows: tuple(tuple(F(x, q) for x in row) for row in rows),
    st.integers(1, 6), st.tuples(*(st.tuples(*(st.integers(-4, 4),) * 3),) * 3),
).filter(lambda m: det3(m) != 0)


def _assert_mapping_matches_the_hull(points, m, t):
    cell = convex_hull(points)
    images = [add(mat_vec(m, p), t) for p in cell.apices]
    mapped = map_cell(cell, images)
    assert repr(mapped) == repr(convex_hull([add(mat_vec(m, p), t)
                                             for p in reversed(points)]))
    assert all(any(a is q for q in images) for a in mapped.apices)


@settings(max_examples=50, deadline=None)
@given(_hull_inputs(), _MATRICES, _POINT3)
def test_mapped_cell_matches_the_hull_of_the_mapped_points(points, m, t):
    # every coordinate of the image is a Fraction, so each facet offset has
    # one type whichever corner it is taken from
    try:
        convex_hull(points)
    except NonConvexCellError:
        assume(False)
    _assert_mapping_matches_the_hull(points, m, t)


@pytest.mark.parametrize("name", sorted(GENERATORS))
@settings(max_examples=10, deadline=None)
@given(_MATRICES, _POINT3)
def test_mapped_generator_cells_match_their_hulls(name, m, t):
    for cell in generate(name).cells:
        _assert_mapping_matches_the_hull(list(cell.apices), m, t)


def test_a_mirror_keeps_the_outward_normals_outward():
    cell = convex_hull(TETRA)
    mirror = ((F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    mapped = map_cell(cell, [mat_vec(mirror, p) for p in cell.apices])
    assert [f.normal for f in mapped.facets] == sorted(
        (-x, y, z) for x, y, z in (f.normal for f in cell.facets))
    assert mapped.volume == cell.volume
    assert repr(mapped) == repr(convex_hull([mat_vec(mirror, p) for p in TETRA]))


def test_hull_keeps_the_callers_point_objects():
    points = [(0, 0, 0), (F(1), 0, 0), (0, F(1, 2), 0), (0, 0, 3)]
    hull = convex_hull(points)
    assert repr(hull) == repr(_reference_hull(points))
    assert all(any(a is p for p in points) for a in hull.apices)
    # the type of an offset follows the corner it is taken from
    assert [type(f.offset) for f in hull.facets] == [F, int, F, F]


# ---- halfspace cells against the recession-ray test they replaced ----

def _recession_ray_exists(normals):
    """Whether some direction d != 0 has n . d <= 0 for every normal."""
    base = [n for n in normals if n != ZERO3]
    if not base:
        return True
    # rank below 3: a direction orthogonal to every normal exists
    rank_dirs = []
    for n in base:
        if not rank_dirs:
            rank_dirs.append(n)
        elif len(rank_dirs) == 1:
            if cross(rank_dirs[0], n) != ZERO3:
                rank_dirs.append(n)
        elif det3((rank_dirs[0], rank_dirs[1], n)) != 0:
            rank_dirs.append(n)
    if len(rank_dirs) < 3:
        return True
    candidates = []
    for a, b in combinations(base, 2):
        d = cross(a, b)
        if d != ZERO3:
            candidates.extend((d, neg(d)))
    candidates.extend(neg(n) for n in base)
    return any(all(dot(n, d) <= 0 for n in base) for d in candidates)


def _reference_halfspace_hull(planes):
    """The cell of a halfspace set, refusing an unbounded one by a search for
    a recession ray before any corner is solved."""
    if len(planes) < 4:
        raise NonConvexCellError("fewer than four halfspaces cannot bound a cell")
    if _recession_ray_exists([n for n, _ in planes]):
        raise NonConvexCellError("halfspace intersection is unbounded")
    pts = set()
    for (n1, c1), (n2, c2), (n3, c3) in combinations(planes, 3):
        if det3((n1, n2, n3)) == 0:
            continue
        x = solve3((n1, n2, n3), (c1, c2, c3))
        if all(dot(n, x) <= c for n, c in planes):
            pts.add(x)
    if len(pts) < 4:
        raise NonConvexCellError("halfspace intersection is empty or flat")
    return convex_hull(sorted(pts))


def _cell_repr(build, planes):
    try:
        return repr(build(planes))
    except NonConvexCellError:
        return "refused"


def _random_planes(rng):
    # int planes keep the 1,000 sets fast; a Fraction plane set is one case
    # of a scaled int set, with the same corners and the same decisions
    return [(tuple(rng.randint(-2, 2) for _ in range(3)), rng.randint(-1, 3))
            for _ in range(rng.randint(3, 9))]


def test_halfspace_hull_matches_the_recession_ray_reference():
    rng = random.Random(13)
    outcomes = []
    for _ in range(1000):
        planes = _random_planes(rng)
        got = _cell_repr(hull_from_halfspaces, planes)
        assert got == _cell_repr(_reference_halfspace_hull, planes), planes
        outcomes.append(got == "refused")
    # both outcomes are common, so each branch of the new test is exercised
    assert outcomes.count(True) > 200 and outcomes.count(False) > 200


@pytest.mark.parametrize("planes", [
    # three planes: at most one corner
    [((F(1), F(0), F(0)), F(1)), ((F(0), F(1), F(0)), F(1)), ((F(0), F(0), F(1)), F(1))],
    # an open slab in z over a square: corners exist only on the walls
    [((F(1), F(0), F(0)), F(1)), ((F(-1), F(0), F(0)), F(0)),
     ((F(0), F(1), F(0)), F(1)), ((F(0), F(-1), F(0)), F(0))],
    # open downward below a unit square: four corners, all at z = 1
    [((F(1), F(0), F(0)), F(1)), ((F(-1), F(0), F(0)), F(0)),
     ((F(0), F(1), F(0)), F(1)), ((F(0), F(-1), F(0)), F(0)),
     ((F(0), F(0), F(1)), F(1))],
])
def test_halfspace_sets_with_few_corners_are_named_unbounded(planes):
    with pytest.raises(NonConvexCellError, match="unbounded"):
        hull_from_halfspaces(planes)


def test_unbounded_prism_with_many_corners_is_refused():
    # y in [0, 1], and z above the lower chain (-1, 1), (0, 0), (2, 0) in the
    # xz plane: six corners span a prism, yet the set is open upward
    planes = [((F(-1), F(0), F(-1)), F(0)), ((F(0), F(0), F(-1)), F(0)),
              ((F(1), F(0), F(-1)), F(2)), ((F(-2), F(0), F(-1)), F(1)),
              ((F(0), F(-1), F(0)), F(0)), ((F(0), F(1), F(0)), F(1))]
    with pytest.raises(NonConvexCellError, match="halfspace intersection is unbounded"):
        hull_from_halfspaces(planes)
    with pytest.raises(NonConvexCellError, match="unbounded"):
        _reference_halfspace_hull(planes)
    # a lid makes it a cell: the facets of the corners' hull are input planes
    cell = hull_from_halfspaces(planes + [((F(0), F(0), F(1)), F(3))])
    assert len(cell.apices) == 10 and len(cell.facets) == 7


# ---- clipping a cell by one halfspace, off the cube of the halfspace hull ----

# canonical rationals, as a solved corner is: an int wherever it is whole
_CANONICAL = st.builds(exact_div, st.integers(-12, 12), st.integers(1, 4))
INT_TETRA = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def _assert_halves_match_the_reference(cell, n, c):
    """Both sides of the plane n . x = c against the halfspace reference of
    the cell's facet planes and the cut; their volumes make up the cell's."""
    volume = 0
    for m, d in ((n, c), (neg(n), -c)):
        half = clip_cell(cell, m, d)
        volume += 0 if half is None else half.volume
        assert ("refused" if half is None else repr(half)) == \
            _cell_repr(_reference_halfspace_hull,
                       [(f.normal, f.offset) for f in cell.facets] + [(m, d)]), (m, d)
    assert volume == cell.volume


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_CANONICAL, _CANONICAL, _CANONICAL), min_size=4, max_size=8),
       st.tuples(*(st.integers(-3, 3),) * 3).filter(any), st.integers(-4, 4))
def test_clipped_halves_match_the_halfspace_reference(points, n, c):
    try:
        corners = convex_hull(points).apices
    except NonConvexCellError:
        assume(False)
    # the hull of the sorted corners, as a clip and the reference build it,
    # so that each facet offset is read from the same corner
    _assert_halves_match_the_reference(convex_hull(sorted(corners)), n, c)


def test_a_plane_that_misses_or_touches_a_cell_cuts_nothing_off():
    cell = convex_hull(INT_TETRA)
    assert clip_cell(cell, (1, 1, 1), 5) is cell
    assert clip_cell(cell, (-1, -1, -1), -5) is None
    # x + y + z = 0 meets the tetrahedron in its apex at the origin
    assert clip_cell(cell, (-1, -1, -1), 0) is cell
    assert clip_cell(cell, (1, 1, 1), 0) is None


def test_a_plane_through_one_apex_cuts_two_ridges():
    # x + y = 2z passes through the origin and crosses the ridges from
    # (1, 0, 0) and (0, 1, 0) up to (0, 0, 1) at their thirds
    cell = convex_hull(INT_TETRA)
    above, below = clip_cell(cell, (1, 1, -2), 0), clip_cell(cell, (-1, -1, 2), 0)
    assert above.apices == ((0, 0, 0), (0, 0, 1), (0, F(2, 3), F(1, 3)),
                            (F(2, 3), 0, F(1, 3)))
    assert below.apices == ((0, 0, 0), (0, F(2, 3), F(1, 3)), (0, 1, 0),
                            (F(2, 3), 0, F(1, 3)), (1, 0, 0))
    _assert_halves_match_the_reference(cell, (1, 1, -2), 0)


_SLAB = [((1, 0, 0), 1), ((-1, 0, 0), 0), ((0, 1, 0), 1), ((0, -1, 0), 0)]
_UNIT_CUBE = _SLAB + [((0, 0, 1), 1), ((0, 0, -1), 0)]


def _thirds(planes):
    """The same halfspaces as Fraction rows, each a third of its int row."""
    return [(tuple(F(x, 3) for x in n), F(c, 3)) for n, c in planes]


@pytest.mark.parametrize("planes, message", [
    ([], "halfspace intersection is unbounded"),
    ([((0, 0, 0), -1)], "halfspace intersection is empty, flat or unbounded"),
    ([((0, 0, 0), 0)], "halfspace intersection is unbounded"),
    (_SLAB, "halfspace intersection is unbounded"),
    (_thirds(_SLAB), "halfspace intersection is unbounded"),
    (_thirds(_UNIT_CUBE + [((1, 0, 0), 0)]),
     "halfspace intersection is empty, flat or unbounded"),
], ids=["no-planes", "zero-normal-infeasible", "zero-row", "open-slab",
        "fraction-open-slab", "fraction-flat-cube"])
def test_halfspace_refusals_name_their_reason(planes, message):
    with pytest.raises(NonConvexCellError) as info:
        hull_from_halfspaces(planes)
    assert type(info.value) is NonConvexCellError and str(info.value) == message
    assert info.value.exit_code == 3


def test_fraction_halfspaces_build_the_cell_of_their_int_rows():
    assert repr(hull_from_halfspaces(_thirds(_UNIT_CUBE))) == \
        repr(hull_from_halfspaces(_UNIT_CUBE)) == \
        repr(convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]))


# ---- the planar kernel against the code it replaced ----
#
# Two copies of the kernel came before tesstopo.planar: the plate clipper
# of complexes/geometry.py on int and Fraction, clipping by a directed line,
# and the staged-region clipper of feasibility.py on Scalar, clipping by a
# linear form. Both are kept here as references, with the restart loops that
# the one-pass cleanups replaced. Then tesstopo.planar clipped in affine
# coordinates, one division per crossing; that clip and its cleanup are the
# reference of the homogeneous kernel.

def _affine_clip(ring, a, b, c):
    """The part of a convex ring where ``a·x + b·y + c <= 0``. A side that
    crosses the line strictly adds ``(l_p q - l_q p) / (l_p - l_q)`` from the
    levels l; a corner on the line is kept once and adds no crossing."""
    level = [a * x + b * y + c for x, y in ring]
    sign = [0 if not v else 1 if v > 0 else -1 for v in level]
    out = []
    n = len(ring)
    for i in range(n):
        k = i + 1 if i + 1 < n else 0
        if sign[i] <= 0:
            out.append(ring[i])
        if sign[i] * sign[k] < 0:
            (px, py), (qx, qy), lp, lq = ring[i], ring[k], level[i], level[k]
            den = lp - lq
            out.append((exact_div(lp * qx - lq * px, den), exact_div(lp * qy - lq * py, den)))
    return out


def _affine_clean_ring(ring):
    """The affine cleanup: repeats, then points inside a side, dropped."""
    pts = []
    for p in ring:
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if not pts:
        return (), "empty"
    base = pts[0]
    ref = next((p for p in pts if p != base), None)
    if ref is None:
        return (base,), "point"
    if all(not cross2(base, ref, p) for p in pts):
        return (min(pts), max(pts)), "segment"
    n = len(pts)
    return tuple(p for i, p in enumerate(pts)
                 if cross2(pts[i - 1], p, pts[(i + 1) % n])), "region"


_ROW_KINDS = ("free", "corner", "side", "support", "repeat")
_K = PI2 - 10  # negative at pi^2


def _side_line(p, q):
    """The line of side pq of a counterclockwise ring, positive outside."""
    return q[1] - p[1], p[0] - q[0], q[0] * p[1] - q[1] * p[0]


# module-level strategies: one built per draw would be validated per draw
_TWELFTHS = st.integers(-36, 36).map(lambda k: F(k, 12))  # in [-3, 3]
_KERNEL_RING = st.lists(st.tuples(_TWELFTHS, _TWELFTHS), min_size=3, max_size=7)
_NORMAL = st.tuples(_TWELFTHS, _TWELFTHS).filter(any)
_SCALE = st.sampled_from([F(s * k, 5) for s in (1, -1) for k in range(1, 6)])
_FIRST_KIND, _LATER_KIND = st.sampled_from(_ROW_KINDS[:4]), st.sampled_from(_ROW_KINDS)
_INDEX = st.integers(0, 41)
_NUMBER = st.sampled_from(("int", "fraction", "rational", "pi2"))


@st.composite
def _kernel_cases(draw):
    """A strictly convex counterclockwise Fraction ring and one to four rows
    a·x + b·y + c <= 0: free; through a corner; along a side, either way;
    a supporting line at a corner that keeps only that corner; or an
    earlier row times a rational of either sign, so two rows lie on one
    line."""
    ring = _convex_corners(draw(_KERNEL_RING))
    assume(len(ring) >= 3)
    rows, kinds = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(_LATER_KIND if rows else _FIRST_KIND)
        i = draw(_INDEX) % len(ring)
        v, w = ring[i], ring[i + 1 - len(ring)]
        if kind == "free":
            row = (*draw(_NORMAL), draw(_TWELFTHS))
        elif kind == "corner":
            a, b = draw(_NORMAL)
            row = (a, b, -(a * v[0] + b * v[1]))
        elif kind == "side":
            row = tuple(draw(_SCALE) * x for x in _side_line(v, w))
        elif kind == "support":  # the outward normals of both sides at v, summed
            (a0, b0, _), (a1, b1, _) = _side_line(ring[i - 1], v), _side_line(v, w)
            n = (a0 + a1, b0 + b1)
            row = (-n[0], -n[1], n[0] * v[0] + n[1] * v[1])
        else:
            row = tuple(draw(_SCALE) * x for x in rows[draw(_INDEX) % len(rows)])
        rows.append(row)
        kinds.append(kind)
    return ring, rows, kinds, draw(_NUMBER)


def _in_numbers(number, ring, rows):
    """The ring and rows on ints (times the lcm of every denominator),
    as they are on Fractions, on rational Scalars, or mapped by
    (x, y) -> (k x, k (y + pi^2 x)) with k = pi^2 - 10 < 0, a half turn with
    a shear, which keeps orientation and every level, and gives the rows the
    coefficient 1/(pi^2 - 10), whose denominator is negative at pi^2."""
    if number == "int":
        d = _common_scale(ring, rows)
        return _scaled(ring, d), [_scaled((a, b, c * d), d) for a, b, c in rows]
    if number == "fraction":
        return ring, rows
    if number == "rational":
        return ([(Scalar(x), Scalar(y)) for x, y in ring],
                [tuple(map(Scalar, row)) for row in rows])
    return ([(_K * x, _K * (y + PI2 * x)) for x, y in ring],
            [((a - b * PI2) / _K, b / _K, Scalar(c)) for a, b, c in rows])


def test_clip_matches_the_affine_reference():
    reached = set()
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]

    @settings(max_examples=300, deadline=None)
    @given(_kernel_cases(), st.booleans())
    @example(case=(square, [(F(0), F(1), F(0))], ["side"], "pi2"), from_lines=True)  # segment
    @example(case=(square, [(F(1), F(1), F(0))], ["support"], "int"), from_lines=False)  # point
    @example(case=(square, [(F(1), F(0), F(5))], ["free"], "fraction"), from_lines=False)  # empty
    def check(case, from_lines):
        ring, rows, kinds, number = case
        points, rows = _in_numbers(number, ring, rows)
        want = points
        for row in rows:
            want = _affine_clip(want, *row)
        want = _affine_clean_ring(want)
        if number in ("int", "fraction"):
            got = _kernel_clip(points, *rows)
            assert got == want
            # kept corners are the given objects, crossings exact_div quotients
            assert [type(x) for p in got[0] for x in p] == [type(x) for p in want[0] for x in p]
        elif from_lines:  # as the staged regions run it, on fraction-free lines
            start = ring_of_lines([fraction_free(*_side_line(p, q))
                                   for p, q in zip(points, points[1:] + points[:1])])
            got = clean_ring(clip(start, [fraction_free(*row) for row in rows]))
            assert got == want
        else:
            assert _kernel_clip(points, *rows) == want
        reached.update(kinds)
        reached.add(want[1])

    check()
    assert reached == {*_ROW_KINDS, "empty", "point", "segment", "region"}

def _reference_clip_keep_left(ring, a, b):
    """The plate clipper: keep the left of the directed line ab."""
    out = []
    n = len(ring)
    side = [cross2(a, b, p) for p in ring]
    for i in range(n):
        p, q = ring[i], ring[(i + 1) % n]
        sp, sq = side[i], side[(i + 1) % n]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            den = sp - sq
            out.append((exact_div(sp * q[0] - sq * p[0], den),
                        exact_div(sp * q[1] - sq * p[1], den)))
    return out


def _one_pass_clean_ring2(ring):
    """The plate cleanup: a ring without area comes back empty."""
    out = []
    for p in ring:
        if not out or p != out[-1]:
            out.append(p)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    n = len(out)
    return [a for i, a in enumerate(out) if cross2(out[i - 1], a, out[(i + 1) % n]) != 0]


def _reference_convex_intersection2(p_ring, q_ring):
    out = list(p_ring)
    for i in range(len(q_ring)):
        out = _reference_clip_keep_left(out, q_ring[i], q_ring[(i + 1) % len(q_ring)])
        if not out:
            return []
    return _one_pass_clean_ring2(out)


def _reference_clip(poly, a, b, c):
    """The staged-region clipper on the halfplane a·x + b·y + c <= 0. A
    corner on the line with its next corner outside is emitted twice, the
    second time as a crossing at t = 0, and the cleanup drops the repeat."""
    level = [a * p[0] + b * p[1] + c for p in poly]
    inside = [f.sign() <= 0 for f in level]
    out = []
    n = len(poly)
    for i in range(n):
        k = (i + 1) % n
        p, q = poly[i], poly[k]
        if inside[i]:
            out.append(p)
        if inside[i] != inside[k]:
            t = level[i] / (level[i] - level[k])
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _one_pass_polish(points):
    """The staged-region cleanup, one pass."""
    pts = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if not pts:
        return (), "empty"
    uniq = set(pts)
    if len(uniq) == 1:
        return (pts[0],), "point"
    base = pts[0]
    ref = next(p for p in pts if p != base)
    if all(not cross2(base, ref, p) for p in pts):
        return (min(uniq), max(uniq)), "segment"
    n = len(pts)
    return tuple(p for i, p in enumerate(pts)
                 if cross2(pts[i - 1], p, pts[(i + 1) % n])), "region"


def _reference_clean_ring2(ring):
    """Drop consecutive duplicates, then one collinear point at a time."""
    out = []
    for p in ring:
        if not out or p != out[-1]:
            out.append(p)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            o, a, b = out[i - 1], out[i], out[(i + 1) % len(out)]
            if cross2(o, a, b) == 0:
                out.pop(i)
                changed = True
                break
    return out


def _reference_polish(points):
    """The staged-region cleanup, repeated until no collinear point is left."""
    pts = list(points)
    while True:
        dedup = []
        for p in pts:
            if not dedup or p != dedup[-1]:
                dedup.append(p)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        if not dedup:
            return (), "empty"
        uniq = set(dedup)
        if len(uniq) == 1:
            return (dedup[0],), "point"
        base = dedup[0]
        ref = next(p for p in dedup if p != base)
        if all(not cross2(base, ref, p) for p in dedup):
            return (min(uniq), max(uniq)), "segment"
        kept = []
        n = len(dedup)
        for i, p in enumerate(dedup):
            if cross2(dedup[i - 1], p, dedup[(i + 1) % n]):
                kept.append(p)
        if len(kept) == len(dedup):
            return tuple(kept), "region"
        pts = kept


def _convex_corners(points):
    """The strictly convex counterclockwise hull of 2d points (monotone chain)."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_T = st.fractions(min_value=0, max_value=1, max_denominator=5)


@st.composite
def _convex_rings(draw):
    """Convex rings as a clip leaves them: corners with points inserted on
    their sides, repeated points and a rotated start; or rings without area,
    whose points all lie on one segment."""
    if draw(st.booleans()):
        corners = _convex_corners(draw(st.lists(st.tuples(_FRACTIONS, _FRACTIONS),
                                                min_size=3, max_size=8)))
        if len(corners) >= 3:
            ring = []
            for i, p in enumerate(corners):
                q = corners[(i + 1) % len(corners)]
                ring.append(p)
                ts = sorted(set(draw(st.lists(_T, max_size=2))) - {0, 1})
                ring += [(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])) for t in ts]
            area = True
        else:
            ring, area = corners, False
    else:
        a, b = draw(st.tuples(_FRACTIONS, _FRACTIONS)), draw(st.tuples(_FRACTIONS, _FRACTIONS))
        ts = draw(st.lists(_T, min_size=1, max_size=6))
        ring = [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])) for t in ts]
        area = False
    repeats = draw(st.lists(st.integers(0, len(ring) - 1), max_size=3)) if ring else []
    for i in sorted(repeats, reverse=True):
        ring.insert(i, ring[i])
    if ring:
        k = draw(st.integers(0, len(ring) - 1))
        ring = ring[k:] + ring[:k]
        if draw(st.booleans()):
            ring.append(ring[0])
    return ring, area


@settings(max_examples=300, deadline=None)
@given(_convex_rings())
def test_clean_ring_matches_the_restart_loop(case):
    ring, area = case
    (got, kind), want = clean_ring(ring_of_points(ring)), _reference_clean_ring2(ring)
    if area:
        assert kind == "region" and list(got) == want == _one_pass_clean_ring2(ring)
    else:
        assert kind != "region" and len(want) < 3 and _one_pass_clean_ring2(ring) == []


@settings(max_examples=150, deadline=None)
@given(_convex_rings(), st.booleans())
def test_polish_matches_the_restart_loop(case, sheared):
    ring, _ = case
    # a shear by pi^2 keeps convexity and collinearity, and puts the turn
    # signs on the interval sign test
    pts = [(Scalar(x), Scalar(y) + (PI2 * x if sheared else 0)) for x, y in ring]
    assert clean_ring(ring_of_points(pts)) == _reference_polish(pts) == _one_pass_polish(pts)


@st.composite
def _clip_cases(draw):
    """A strictly convex Fraction ring and a halfplane a·x + b·y + c <= 0,
    whose line passes through a corner in half the draws."""
    ring = _convex_corners(draw(st.lists(st.tuples(_FRACTIONS, _FRACTIONS),
                                         min_size=3, max_size=7)))
    a, b = draw(st.tuples(_FRACTIONS, _FRACTIONS).filter(any))
    on = draw(st.integers(0, len(ring) - 1)) if draw(st.booleans()) and ring else None
    c = -(a * ring[on][0] + b * ring[on][1]) if on is not None else draw(_FRACTIONS)
    return ring, (a, b, c), on


@settings(max_examples=150, deadline=None)
@given(_clip_cases())
def test_clip_commutes_with_a_pi2_shear(case):
    ring, (a, b, c), on = case
    if len(ring) < 3:
        return

    def shear(p):  # (x, y) -> (x, y + pi^2 x) keeps lines, sides and ratios
        return Scalar(p[0]), Scalar(p[1]) + PI2 * p[0]

    sheared = [shear(p) for p in ring]
    form = (Scalar(a) - b * PI2, Scalar(b), Scalar(c))  # the same halfplane, sheared
    want = _corners(clip(ring_of_points(ring), [(a, b, c)]))
    clipped = clip(ring_of_points(sheared), [form])
    got = _corners(clipped)
    assert got == [shear(p) for p in want]
    # a strictly convex ring clips to points without repeats, so a corner
    # on the line is kept once
    assert len(set(got)) == len(got)
    if on is not None:
        assert got.count(sheared[on]) == 1
    assert clean_ring(clipped) == _one_pass_polish(_reference_clip(sheared, *form))
