"""Exact rational geometry: vectors, convex polyhedra, facet rings in 2d.

Coordinates are exact rationals: Python ``int`` or
:class:`~fractions.Fraction`, mixed freely. Every division goes through
:func:`exact_div`, so integer input stays on ``int`` wherever a quotient is
whole and becomes a ``Fraction`` only where it is not; normals are primitive
``int`` vectors. :func:`convex_hull` multiplies its points by the lcm of
their denominators and runs on ``int`` whatever it is given, then reads its
apices, facet offsets and volume back in the caller's coordinates. There is
no floating point and no epsilon anywhere in this module; every incidence,
containment, and degeneracy question is decided exactly.

A cell's faces are decided once, by a hull where the cell enters: a domain
file's apices or halfspaces, or a generator's points. An invertible affine
map keeps every face, so :func:`map_cell` moves a hull into any other frame
(a translate, an affine image, the builder's scaled torus) without a new
hull, and gives exactly what that hull would. A domain file's halfspaces
cut a cube, one :func:`clip_cell` each, and a hull decides each cut.

Planar clipping and ring cleanup come from :mod:`tesstopo.planar`. Every
ring here is convex, a facet of a hull or a clip of convex polygons, so one
pass drops the points inside its sides, and :func:`convex_hull` raises
:class:`NonConvexCellError` only when its points do not span space.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from ..errors import NonConvexCellError
from ..planar import clean_ring, clip, cross2, exact_div, ring_of_points

Num = int | Fraction
Vec = tuple[Num, Num, Num]
Vec2 = tuple[Num, Num]
Mat = tuple[Vec, Vec, Vec]

_F = Fraction
ZERO3: Vec = (0, 0, 0)


def vec3(x, y, z) -> Vec:
    return (_F(x), _F(y), _F(z))


def add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def neg(a: Vec) -> Vec:
    return (-a[0], -a[1], -a[2])


def smul(t: Num, a: Vec) -> Vec:
    return (t * a[0], t * a[1], t * a[2])


def dot(a: Vec, b: Vec) -> Num:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def det3(m: Mat) -> Num:
    return dot(m[0], cross(m[1], m[2]))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return (dot(m[0], v), dot(m[1], v), dot(m[2], v))


def transpose(m: Mat) -> Mat:
    return ((m[0][0], m[1][0], m[2][0]),
            (m[0][1], m[1][1], m[2][1]),
            (m[0][2], m[1][2], m[2][2]))


def inverse(m: Mat) -> Mat:
    d = det3(m)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    c0 = cross(m[1], m[2])
    c1 = cross(m[2], m[0])
    c2 = cross(m[0], m[1])
    # rows of the adjugate are the cofactor columns
    return tuple(tuple(exact_div(c[i], d) for c in (c0, c1, c2))
                 for i in range(3))  # type: ignore[return-value]


def orient3d(a: Vec, b: Vec, c: Vec, d: Vec) -> Num:
    """Signed volume form: positive iff d lies on the side of plane(a,b,c)
    pointed to by cross(b-a, c-a)."""
    return det3((sub(b, a), sub(c, a), sub(d, a)))


def primitive(v: tuple[Num, ...]) -> tuple[int, ...]:
    """The positive multiple of a nonzero rational vector in coprime ints."""
    scale = lcm(*[x.denominator for x in v])
    ints = [x.numerator * (scale // x.denominator) for x in v]
    g = gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive form")
    return tuple([x // g for x in ints])


def on_segment(p: Vec, a: Vec, b: Vec) -> bool:
    """Whether p lies on segment ab, endpoints excluded."""
    d = sub(b, a)
    r = sub(p, a)
    return cross(d, r) == ZERO3 and 0 < dot(r, d) < dot(d, d)


# ---------------------------------------------------------------------------
# 2d helpers (used for plate computation inside a shared facet plane)

def convex_intersection2(p_ring: list[Vec2], q_ring: list[Vec2]) -> list[Vec2]:
    """Intersection of two counterclockwise convex polygons as a cleaned
    counterclockwise ring, or ``[]`` when it has no area. Each side of q
    keeps its left."""
    sides = [corner[3] for corner in ring_of_points(q_ring)]
    ring, kind = clean_ring(clip(ring_of_points(p_ring), sides))
    return list(ring) if kind == "region" else []


def point_in_ring2(pt: Vec2, ring: list[Vec2]) -> bool:
    """Point in the open interior of a counterclockwise convex polygon."""
    return all(cross2(ring[i - 1], ring[i], pt) > 0 for i in range(len(ring)))


def drop_axis(n: Vec) -> int:
    """Coordinate to drop when projecting a plane with normal n to 2d."""
    k, best = 0, abs(n[0])
    for i in (1, 2):
        if abs(n[i]) > best:
            k, best = i, abs(n[i])
    return k


def project2(p: Vec, k: int) -> Vec2:
    """Drop axis k, keeping the others in cyclic order: a ring turning
    counterclockwise about n stays counterclockwise exactly when n[k] > 0."""
    if k == 0:
        return (p[1], p[2])
    if k == 1:
        return (p[2], p[0])
    return (p[0], p[1])


def lift3(xy: Vec2, k: int, normal: Vec, offset: Num) -> Vec:
    """Inverse of project2 for points on the plane normal . x == offset."""
    if k == 0:
        y, z = xy
        x = exact_div(offset - normal[1] * y - normal[2] * z, normal[0])
        return (x, y, z)
    if k == 1:
        z, x = xy
        y = exact_div(offset - normal[2] * z - normal[0] * x, normal[1])
        return (x, y, z)
    x, y = xy
    z = exact_div(offset - normal[0] * x - normal[1] * y, normal[2])
    return (x, y, z)


# ---------------------------------------------------------------------------
# convex polyhedra

@dataclass(frozen=True)
class Facet:
    """One 2-face. The cell satisfies normal . x <= offset, with equality
    exactly on this facet; the ring lists apex indices counterclockwise as
    seen from outside."""

    normal: Vec  # primitive int vector
    offset: Num
    ring: tuple[int, ...]


@dataclass(frozen=True)
class Polyhedron:
    apices: tuple[Vec, ...]
    facets: tuple[Facet, ...]
    ridges: tuple[tuple[int, int], ...]
    volume: Num

    def bounds(self) -> tuple[Vec, Vec]:
        lo = tuple(min(p[i] for p in self.apices) for i in range(3))
        hi = tuple(max(p[i] for p in self.apices) for i in range(3))
        return lo, hi  # type: ignore[return-value]

    def facet_equalities(self, p: Vec) -> list[int] | None:
        """Indices of facet planes through p, or None when p is outside."""
        hits: list[int] = []
        for i, f in enumerate(self.facets):
            val = dot(f.normal, p)
            if val > f.offset:
                return None
            if val == f.offset:
                hits.append(i)
        return hits


def _initial_tetrahedron(points: list[Vec]) -> tuple[list[int], list[tuple[int, int, int]]] | None:
    i0 = 0
    i1 = next((i for i in range(len(points)) if points[i] != points[i0]), None)
    if i1 is None:
        return None
    i2 = next((i for i in range(len(points))
               if cross(sub(points[i1], points[i0]), sub(points[i], points[i0])) != ZERO3),
              None)
    if i2 is None:
        return None
    i3 = next((i for i in range(len(points))
               if orient3d(points[i0], points[i1], points[i2], points[i]) != 0),
              None)
    if i3 is None:
        return None
    corners = [i0, i1, i2, i3]
    tris: list[tuple[int, int, int]] = []
    for tri in combinations(range(4), 3):
        other = ({0, 1, 2, 3} - set(tri)).pop()
        a, b, c = (corners[t] for t in tri)
        d = corners[other]
        if orient3d(points[a], points[b], points[c], points[d]) > 0:
            a, b = b, a
        tris.append((a, b, c))
    return corners, tris


def _scaled(points: list[Vec]) -> tuple[int, list[Vec]]:
    """D, the lcm of the coordinate denominators, and each point times D as
    an ``int`` point."""
    d = lcm(*(x.denominator for p in points for x in p))
    return d, [tuple(x.numerator * (d // x.denominator) for x in p) for p in points]


def convex_hull(raw_points: list[Vec]) -> Polyhedron:
    """Exact incremental hull. Input points that are not extreme (interior,
    on a facet, or in the relative interior of a ridge) are dropped.

    The hull runs on ``int``: the distinct points are multiplied by D, the
    lcm of their coordinate denominators (1 for ``int`` input, which is then
    unchanged), and a positive scale keeps every orientation sign, primitive
    normal and lexicographic order. The result is read back from the
    caller's points by :func:`_canonical_cell`."""
    d, scaled = _scaled(raw_points)
    first: dict[Vec, Vec] = {}
    for q, p in zip(scaled, raw_points):
        first.setdefault(q, p)  # the caller's first object for each point
    points, originals = list(first), list(first.values())
    start = _initial_tetrahedron(points)
    if start is None:
        raise NonConvexCellError("cell is not three-dimensional")
    corners, tris_list = start
    tris: set[tuple[int, int, int]] = set(tris_list)
    used = set(corners)
    for idx, p in enumerate(points):
        if idx in used:
            continue
        visible = [t for t in tris
                   if orient3d(points[t[0]], points[t[1]], points[t[2]], p) > 0]
        if not visible:
            continue
        vis_edges: set[tuple[int, int]] = set()
        for a, b, c in visible:
            vis_edges.update(((a, b), (b, c), (c, a)))
        horizon = [(u, v) for (u, v) in vis_edges if (v, u) not in vis_edges]
        tris.difference_update(visible)
        tris.update((u, v, idx) for u, v in horizon)

    # merge coplanar triangles into facets
    groups: dict[tuple[Vec, int], list[tuple[int, int, int]]] = {}
    for t in tris:
        n = cross(sub(points[t[1]], points[t[0]]), sub(points[t[2]], points[t[0]]))
        np_ = primitive(n)
        groups.setdefault((np_, dot(np_, points[t[0]])), []).append(t)

    facet_rings: list[tuple[Vec, int, Sequence[int]]] = []
    for (n, _), group in groups.items():
        edges: set[tuple[int, int]] = set()
        for a, b, cc in group:
            for e in ((a, b), (b, cc), (cc, a)):
                if (e[1], e[0]) in edges:
                    edges.remove((e[1], e[0]))
                else:
                    edges.add(e)
        # the sides left bound a convex polygon, so they form one cycle;
        # walk it from its lowest index, then drop the points inside a side
        succ = dict(edges)
        walk = [min(succ)]
        while succ[walk[-1]] != walk[0]:
            walk.append(succ[walk[-1]])
        ring = [a for i, a in enumerate(walk)
                if cross(sub(points[a], points[walk[i - 1]]),
                         sub(points[walk[(i + 1) % len(walk)]], points[a])) != ZERO3]
        # the offset comes from the corner the key was taken from
        facet_rings.append((n, group[0][0], ring))
    return _canonical_cell(originals, points, d, facet_rings)


def map_cell(cell: Polyhedron, moved: list[Vec]) -> Polyhedron:
    """``convex_hull(moved)`` without a hull, for ``moved`` the images of
    ``cell.apices`` in order under an invertible affine map. The map keeps
    every face, so each ring is kept and its normal read off three of its
    corners; a map that reverses orientation turns every ring clockwise,
    and then each ring is reversed and each normal negated. An offset is
    taken from its ring's first corner, so its type is the hull's whenever
    the images are all ``int`` or all ``Fraction`` points."""
    d, points = _scaled(moved)
    normals = [primitive(cross(sub(points[f.ring[1]], points[f.ring[0]]),
                               sub(points[f.ring[2]], points[f.ring[0]])))
               for f in cell.facets]
    ring = cell.facets[0].ring
    off = next(i for i in range(len(points)) if i not in ring)
    step = -1 if dot(normals[0], sub(points[off], points[ring[0]])) > 0 else 1
    return _canonical_cell(moved, points, d, [
        (smul(step, n), f.ring[0], f.ring[::step])
        for n, f in zip(normals, cell.facets)])


def _canonical_cell(originals: list[Vec], points: list[Vec], d: int,
                    facet_rings: list[tuple[Vec, int, Sequence[int]]]) -> Polyhedron:
    """One canonical cell from ``points`` (``originals`` times D, on
    ``int``) and its facets, each a primitive outward normal, the index of
    the corner its offset is taken from and a counterclockwise ring of point
    indices. An offset is n . x on the scaled corner over D, of the type
    n . x has on the caller's corner: a ``Fraction`` when one of its
    coordinates is. Apices are the caller's objects in lexicographic order."""
    hull_indices = sorted({i for _, _, ring in facet_rings for i in ring},
                          key=lambda i: points[i])
    remap = {old: new for new, old in enumerate(hull_indices)}
    apices = tuple(originals[i] for i in hull_indices)

    facets: list[Facet] = []
    for n, corner, ring in facet_rings:
        mapped = [remap[i] for i in ring]
        low = mapped.index(min(mapped))
        offset = dot(n, points[corner])
        offset = (_F(offset, d) if any(type(x) is _F for x in originals[corner])
                  else offset // d)
        facets.append(Facet(n, offset, tuple(mapped[low:] + mapped[:low])))
    facets.sort(key=lambda f: (f.normal, f.offset))

    # each ridge lies on two facets, which walk it in opposite directions
    ridges = tuple(sorted((f.ring[i - 1], a) for f in facets
                          for i, a in enumerate(f.ring) if f.ring[i - 1] < a))

    scaled = [points[i] for i in hull_indices]
    volume = 0
    for f in facets:
        q0 = scaled[f.ring[0]]
        for i in range(1, len(f.ring) - 1):
            volume += dot(q0, cross(scaled[f.ring[i]], scaled[f.ring[i + 1]]))
    return Polyhedron(apices, tuple(facets), ridges, exact_div(volume, 6 * d ** 3))


def clip_cell(cell: Polyhedron, n: Vec, c: Num) -> Polyhedron | None:
    """The part of ``cell`` where n . x <= c, or None when it has no volume:
    Sutherland–Hodgman clipping (:func:`tesstopo.planar.clip`) one
    dimension up. The apices at level n . x - c <= 0 stay, and each ridge pq
    whose ends lie strictly on opposite sides adds ``(l_p q - l_q p) /
    (l_p - l_q)`` from the levels l. Those points are the corners of the
    cut, and their hull decides its faces."""
    level = [dot(n, p) - c for p in cell.apices]
    if max(level) <= 0:
        return cell
    if min(level) >= 0:
        return None
    kept = [p for p, v in zip(cell.apices, level) if v <= 0]
    for i, j in cell.ridges:
        li, lj = level[i], level[j]
        if li < 0 < lj or lj < 0 < li:
            den = li - lj
            kept.append(tuple(exact_div(li * y - lj * x, den)
                              for x, y in zip(cell.apices[i], cell.apices[j])))
    return convex_hull(sorted(kept))


def hull_from_halfspaces(planes: list[tuple[Vec, Num]]) -> Polyhedron:
    """Bounded intersection of halfspaces normal . x <= offset: a cube cut
    by each plane as a primitive ``int`` row (n, c). A corner of a bounded
    intersection solves three rows, so by Cramer's rule and Hadamard's bound
    its coordinates are at most M^(3/2) in size, for M the largest
    |(n, c)|^2; the cube of half-width M^2 + 1 holds every corner strictly
    inside, and a cut with an apex on the cube is unbounded."""
    rows = [primitive((*n, c)) for n, c in planes if any(n) or c]
    b = max((sum(x * x for x in r) for r in rows), default=0) ** 2 + 1
    cell = convex_hull([(x, y, z) for x in (-b, b) for y in (-b, b) for z in (-b, b)])
    for *n, c in rows:
        cut = clip_cell(cell, tuple(n), c)
        if cut is None:
            raise NonConvexCellError("halfspace intersection is empty, flat or unbounded")
        cell = cut
    if any(abs(x) == b for p in cell.apices for x in p):
        raise NonConvexCellError("halfspace intersection is unbounded")
    return cell
