"""Build the periodic face structure induced by a fundamental domain.

The construction works in lattice-fraction coordinates: world points map
through the inverse lattice so the translation group becomes the integer
lattice and the quotient is the unit 3-torus. These torus coordinates are
then multiplied by one common denominator D, the lcm of the denominators of
every cell apex, so that every apex is an ``int`` point and the geometry
runs on Python ``int``: the lattice is D Z^3, a shift t moves a point by
D t, a translation class of points canonicalizes to ``x % D`` and a plane
class is its normal with the offset modulo D. A point whose scaled
coordinates are not whole, such as a plate corner where two ridges cross,
is a ``Fraction`` and flows through the same code. The last step divides
every coordinate by D again, so the complex is reported in torus units with
every coordinate a ``Fraction`` in [0, 1) where it is canonical. All
counting happens on canonical class representatives; intensities divide by
the world lattice volume only at measurement time.

Pipeline, in order:

1. per-cell face lattices: each domain cell's faces, decided once by its
   hull, are mapped onto its scaled torus points (an invertible linear map
   keeps every face), with the volume certificate: cell volumes must sum to
   the lattice cell volume, D^3 in scaled coordinates;
2. plates: two-dimensional intersections of cell pairs across lattice
   translates. Such an intersection of convex bodies with disjoint interiors
   always lies on a pair of coincident facet planes with opposite
   orientations, so facets are grouped by plane class (the primitive normal
   with its sign fixed, and the offset modulo D), and only opposite facets
   of one class are clipped, at the lattice shifts that put them on one
   plane and make their projected boxes overlap in a rectangle; two facing
   facets with the same corners meet in all of the first, with no clip;
3. pairwise interior-disjointness certificates for every cell pair at every
   translate whose bounding boxes overlap in their interiors (at every other
   translate the boxes themselves separate the cells, so the enumeration is
   complete): a shared plate, or a separating plane. The candidate planes
   are normal to a facet of either cell or to one ridge direction of each;
   these normals include every facet normal of the Minkowski difference of
   the two cells, so a pair that none of them separates overlaps;
4. vertices: cell apices plus plate ring corners, deduplicated mod lattice;
5. edges: the union of all cell ridges split at every vertex lying in a
   ridge's relative interior, deduplicated into translation classes (every
   tessellation edge is a subset of some cell ridge, so this is complete);
   each translation class of segments is split once, and its pieces, edge
   ids and interior vertices are moved, and reversed where needed, to every
   later instance;
6. incidence tallies between all classes by exact containment tests,
   including the interior-adjacency counters (facet-interior vertices,
   ridge-interior vertices, plate-side-interior vertices) and the marking of
   edges whose relative interior lies inside a cell facet. Only a facet
   that two or more plates cover is tested: the plates on a facet tile it,
   so a lone plate is the whole facet and its sides lie on its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm

from ..errors import NotATessellationError
from .domain import FundamentalDomain
from .geometry import (
    ZERO3,
    Facet,
    Mat,
    Polyhedron,
    Vec,
    Vec2,
    add,
    convex_intersection2,
    cross,
    det3,
    dot,
    drop_axis,
    inverse,
    lift3,
    map_cell,
    mat_vec,
    neg,
    on_segment,
    point_in_ring2,
    project2,
    sub,
    transpose,
)

_F = Fraction
IVec = tuple[int, int, int]
# the axes project2 keeps, in its order, for each dropped axis
_PROJECTED_AXES = ((1, 2), (2, 0), (0, 1))
# one facet seen along its dropped axis: that axis, the counterclockwise
# projected ring, and the ring's 2-d box (low and high corners)
_FacetView = tuple[int, list[Vec2], Vec2, Vec2]


def _canon_point(p: Vec, d: int) -> Vec:
    return (p[0] % d, p[1] % d, p[2] % d)


def _canon_segment(a: Vec, b: Vec, d: int) -> tuple[Vec, Vec]:
    p, q = (a, b) if a <= b else (b, a)
    low = _canon_point(p, d)
    return (low, sub(q, sub(p, low)))


def _scaled_torus_points(lattice: Mat, point_sets) -> tuple[int, list[list[Vec]]]:
    """D, the lcm of the denominators of every torus coordinate, and each
    point in torus coordinates times D, as int points.

    With M the inverse of the transposed lattice and q, r the lcms of the
    denominators of M and of the points, N = (q M)(r p) is an int point and
    each N_i / (q r) reduces to denominator q r / gcd(N_i, q r); their lcm
    is D = q r / g with g = gcd(q r, N_1, N_2, ...), and D M p = N / g.
    """
    to_torus = inverse(transpose(lattice))
    q = lcm(*(x.denominator for row in to_torus for x in row))
    m = tuple(tuple(x.numerator * (q // x.denominator) for x in row) for row in to_torus)
    r = lcm(*(x.denominator for points in point_sets for p in points for x in p))
    nums = [[mat_vec(m, tuple(x.numerator * (r // x.denominator) for x in p))
             for p in points] for points in point_sets]
    g = gcd(q * r, *(x for points in nums for p in points for x in p))
    return q * r // g, [[(p[0] // g, p[1] // g, p[2] // g) for p in points]
                        for points in nums]


def _open_range(lo_a: int, hi_a: int, lo_b: int, hi_b: int, d: int) -> range:
    """The ints t with d t strictly between lo_a - hi_b and hi_a - lo_b: the
    shifts that make [lo_b, hi_b] + d t overlap [lo_a, hi_a] in an interval."""
    return range((lo_a - hi_b) // d + 1, -((lo_b - hi_a) // d))


def _coplanar_shifts(m: Vec, r: int, view_a: _FacetView, view_b: _FacetView,
                     d: int):
    """Lattice shifts t with m . t == r under which facet b, moved by d t,
    overlaps facet a's projected box in a rectangle."""
    k, _, lo_a, hi_a = view_a
    _, _, lo_b, hi_b = view_b
    u, v = _PROJECTED_AXES[k]
    mk, mu, mv = m[k], m[u], m[v]
    for tu in _open_range(lo_a[0], hi_a[0], lo_b[0], hi_b[0], d):
        for tv in _open_range(lo_a[1], hi_a[1], lo_b[1], hi_b[1], d):
            rest = r - mu * tu - mv * tv
            if rest % mk == 0:
                t = [0, 0, 0]
                t[k], t[u], t[v] = rest // mk, tu, tv
                yield (t[0], t[1], t[2])


@dataclass
class PlateOrbit:
    """One translation class of plates: the polygon where cell ``cell_a``
    meets cell ``cell_b`` shifted by the lattice vector ``shift``, stored in
    cell_a's frame."""

    cell_a: int
    cell_b: int
    shift: IVec
    facet_a: int
    facet_b: int
    ring: tuple[Vec, ...]
    corner_vertex_ids: tuple[int, ...] = ()
    side_pieces: tuple[tuple[Vec, Vec], ...] = ()
    piece_edge_ids: tuple[int, ...] = ()
    side_interior_vertex_ids: tuple[int, ...] = ()


@dataclass
class VertexRecord:
    position: Vec  # canonical, all coordinates in [0, 1) (in [0, D) while building)
    edge_count: int = 0
    pi_edge_count: int = 0
    hemi_count: int = 0            # cells with this point inside a facet
    ridge_interior_count: int = 0  # (cell, ridge) pairs, point inside the ridge
    side_interior_count: int = 0   # (plate, side) pairs, point inside the side
    plate_count: int = 0
    cell_count: int = 0
    is_apex: bool = False


@dataclass
class EdgeRecord:
    endpoints: tuple[Vec, Vec]  # canonical segment representative
    vertex_ids: tuple[int, int]
    plate_count: int = 0
    cell_count: int = 0
    is_pi: bool = False


@dataclass
class CellRecord:
    apex_count: int
    ridge_count: int
    facet_count: int
    facet_ring_lengths: tuple[int, ...]
    vertex_incidences: int = 0
    edge_incidences: int = 0
    plate_incidences: int = 0


@dataclass
class PeriodicComplex:
    """Canonical cells of one fundamental domain with the full incidence
    structure of the induced tessellation. Immutable once built."""

    domain: FundamentalDomain
    world_volume: Fraction
    cells: tuple[Polyhedron, ...]  # torus coordinates
    plates: tuple[PlateOrbit, ...]
    vertices: tuple[VertexRecord, ...]
    edges: tuple[EdgeRecord, ...]
    cell_records: tuple[CellRecord, ...]
    face_to_face: bool
    diagnostics: tuple[str, ...] = field(default_factory=tuple)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "plates": len(self.plates),
            "cells": len(self.cells),
            "pi_edges": sum(1 for e in self.edges if e.is_pi),
        }


class _Builder:
    def __init__(self, domain: FundamentalDomain):
        self.domain = domain
        self.world_volume = abs(det3(domain.lattice))
        self.scale, scaled = _scaled_torus_points(
            domain.lattice, [cell.apices for cell in domain.cells])
        d = self.scale
        self.cells = [map_cell(cell, points) for cell, points in zip(domain.cells, scaled)]
        total = sum(c.volume for c in self.cells)
        if total != d ** 3:
            raise NotATessellationError(
                f"cells fill {_F(total, d ** 3)} of the lattice cell "
                "instead of all of it")
        self.bounds = [c.bounds() for c in self.cells]
        self.facet_views: list[list[_FacetView]] = []
        for cell in self.cells:
            views = []
            for f in cell.facets:
                k = drop_axis(f.normal)
                order = f.ring if f.normal[k] > 0 else f.ring[::-1]
                ring = [project2(cell.apices[i], k) for i in order]
                lo = (min(x for x, _ in ring), min(y for _, y in ring))
                hi = (max(x for x, _ in ring), max(y for _, y in ring))
                views.append((k, ring, lo, hi))
            self.facet_views.append(views)
        self.plates: list[PlateOrbit] = []
        self.vertex_ids: dict[Vec, int] = {}
        self.vertices: list[VertexRecord] = []
        # per translation class of segments: the lower end of its first
        # instance, and its split from there (see _split_segment)
        self.segments: dict[tuple[Vec, Vec], tuple] = {}
        self.edge_ids: dict[tuple[Vec, Vec], int] = {}
        self.edges: list[EdgeRecord] = []
        self.cell_records: list[CellRecord] = []
        self.covering: dict[tuple[int, int], list[tuple[int, IVec]]] = {}
        self.ridge_pieces: list[list[tuple[int, ...]]] = []
        self.diagnostics: list[str] = []
        self._torus_units: dict = {}

    def _shift(self, t: IVec) -> Vec:
        """The scaled vector of the lattice shift t."""
        d = self.scale
        return (d * t[0], d * t[1], d * t[2])

    def _unscale(self, p: Vec) -> Vec:
        """A scaled point in torus units, every coordinate a Fraction."""
        memo = self._torus_units
        for x in p:
            if x not in memo:
                memo[x] = _F(x, self.scale)
        return (memo[p[0]], memo[p[1]], memo[p[2]])

    # -- phase 2/3: plates and disjointness ---------------------------------

    def _shift_window(self, i: int, j: int):
        """The lattice shifts t under which cell_j's box, moved by D t,
        overlaps cell_i's box in its interior."""
        (lo_i, hi_i), (lo_j, hi_j) = self.bounds[i], self.bounds[j]
        return product(*(_open_range(lo_i[k], hi_i[k], lo_j[k], hi_j[k], self.scale)
                         for k in range(3)))

    def _clip_plate(self, i: int, fa: int, j: int, fb: int,
                    t: IVec) -> PlateOrbit | None:
        k, ring_a, _, _ = self.facet_views[i][fa]
        du, dv = project2(self._shift(t), k)
        ring_b = [(x + du, y + dv) for x, y in self.facet_views[j][fb][1]]
        # facing facets with the same corners meet in all of facet a
        cut = (ring_a if set(ring_b) == set(ring_a)
               else convex_intersection2(ring_a, ring_b))
        if not cut:
            return None
        f = self.cells[i].facets[fa]
        ring3 = tuple(lift3(xy, k, f.normal, f.offset) for xy in cut)
        return PlateOrbit(i, j, t, fa, fb, ring3)

    def _plate_table(self) -> dict[tuple[int, int, IVec], PlateOrbit]:
        """Every plate, keyed by (cell_a, cell_b, shift) with cell_a <= cell_b.

        With its normal m signed so that m > 0, a facet lies on m . x == c.
        Facet b, moved by the lattice shift t (by D t in scaled coordinates),
        lies on facet a's plane when D (m . t) == c_a - c_b, which needs c_a
        and c_b equal modulo D; a plate also needs the two outward normals to
        be opposite. So facets are grouped by (m, c mod D) and split by the
        sign of their normal, and only pairs across the split are clipped.
        """
        d = self.scale
        groups: dict[tuple[Vec, int], tuple[list, list]] = {}
        for ci, cell in enumerate(self.cells):
            for fi, f in enumerate(cell.facets):
                if f.normal > ZERO3:
                    m, c, side = f.normal, f.offset, 0
                else:
                    m, c, side = neg(f.normal), -f.offset, 1
                groups.setdefault((m, c % d), ([], []))[side].append((ci, fi, c))
        table: dict[tuple[int, int, IVec], PlateOrbit] = {}
        for (m, _), (positive, negative) in groups.items():
            for ci, fi, c_a in positive:
                for cj, fj, c_b in negative:
                    views = self.facet_views[ci][fi], self.facet_views[cj][fj]
                    for t in _coplanar_shifts(m, (c_a - c_b) // d, *views, d):
                        if ci < cj or (ci == cj and t > (0, 0, 0)):
                            plate = self._clip_plate(ci, fi, cj, fj, t)
                        else:
                            plate = self._clip_plate(cj, fj, ci, fi,
                                                     (-t[0], -t[1], -t[2]))
                        if plate is not None:
                            table[(plate.cell_a, plate.cell_b, plate.shift)] = plate
        return table

    def _separated(self, i: int, j: int, t: IVec) -> bool:
        """Whether a plane puts cell_i on one side and cell_j, moved by the
        shift t, on the other, so that their interiors are disjoint.

        The interiors meet exactly when 0 lies inside the Minkowski
        difference of the two cells, whose facet normals are, up to sign,
        among the facet normals of either cell and the cross products of one
        ridge direction of each. So trying these normals, in that order and
        each lazily, decides the question. Parallel ridges give the zero vector, which
        separates nothing and is skipped.
        """
        shift = self._shift(t)
        cell_i, cell_j = self.cells[i], self.cells[j]
        apices_j = [add(q, shift) for q in cell_j.apices]

        def ridge_directions(cell: Polyhedron):
            return (sub(cell.apices[b], cell.apices[a]) for a, b in cell.ridges)

        normals = chain(
            (f.normal for f in cell_i.facets),
            (f.normal for f in cell_j.facets),
            (cross(u, v) for u in ridge_directions(cell_i)
             for v in ridge_directions(cell_j)))
        for n in normals:
            if n == ZERO3:
                continue
            along_i = [dot(n, p) for p in cell_i.apices]
            along_j = [dot(n, q) for q in apices_j]
            if max(along_i) <= min(along_j) or max(along_j) <= min(along_i):
                return True
        return False

    def find_plates_and_certify(self) -> None:
        table = self._plate_table()
        n = len(self.cells)
        for i in range(n):
            for j in range(i, n):
                for t in self._shift_window(i, j):
                    if i == j and t <= (0, 0, 0):
                        # the reversed shift covers the same unordered pair
                        continue
                    if (i, j, t) not in table and not self._separated(i, j, t):
                        raise NotATessellationError(
                            f"cells {i} and {j} (shift {t}) overlap")
        self.plates = [table[key] for key in sorted(table)]
        for idx, plate in enumerate(self.plates):
            self.covering.setdefault((plate.cell_a, plate.facet_a), []).append(
                (idx, (0, 0, 0)))
            self.covering.setdefault((plate.cell_b, plate.facet_b), []).append(
                (idx, (-plate.shift[0], -plate.shift[1], -plate.shift[2])))

    # -- phase 4: vertices ---------------------------------------------------

    def register_vertices(self) -> None:
        d = self.scale
        apex_keys: set[Vec] = set()
        for cell in self.cells:
            for p in cell.apices:
                key = _canon_point(p, d)
                apex_keys.add(key)
                if key not in self.vertex_ids:
                    self.vertex_ids[key] = len(self.vertices)
                    self.vertices.append(VertexRecord(key, is_apex=True))
        for idx, plate in enumerate(self.plates):
            ids = []
            for p in plate.ring:
                key = _canon_point(p, d)
                vid = self.vertex_ids.get(key)
                if vid is None:
                    self.vertex_ids[key] = vid = len(self.vertices)
                    self.vertices.append(VertexRecord(key))
                ids.append(vid)
                if key not in apex_keys:
                    self.diagnostics.append(
                        f"plate {idx} corner {self._unscale(key)} "
                        "is not an apex of any cell")
            plate.corner_vertex_ids = tuple(ids)

    def _instances_in_box(self, lo: Vec, hi: Vec):
        d = self.scale
        for vid, rec in enumerate(self.vertices):
            v = rec.position
            axes = []
            empty = False
            for k in range(3):
                # v + d t between lo and hi
                t_lo = -((v[k] - lo[k]) // d)
                t_hi = (hi[k] - v[k]) // d
                if t_lo > t_hi:
                    empty = True
                    break
                axes.append(range(t_lo, t_hi + 1))
            if empty:
                continue
            for t in product(*axes):
                yield vid, (v[0] + d * t[0], v[1] + d * t[1], v[2] + d * t[2])

    # -- phase 5: edges ------------------------------------------------------

    def _register_edge(self, a: Vec, b: Vec) -> int:
        key = _canon_segment(a, b, self.scale)
        eid = self.edge_ids.get(key)
        if eid is None:
            va = self.vertex_ids[key[0]]
            vb = self.vertex_ids[_canon_point(key[1], self.scale)]
            self.edge_ids[key] = eid = len(self.edges)
            self.edges.append(EdgeRecord(key, (va, vb)))
            self.vertices[va].edge_count += 1
            self.vertices[vb].edge_count += 1
        return eid

    def _split_segment(self, a: Vec, b: Vec
                       ) -> tuple[tuple[Vec, ...], tuple[int, ...], tuple[int, ...]]:
        """Split segment ab at the vertices inside it. Returns its stops from
        a to b (a, the interior vertex instances, b), the edge ids of the
        pieces between them and the interior vertex ids.

        Each translation class of segments is split once, in the direction
        of its first instance, whose pieces register their edges. The split
        is kept from the lower end to the higher, and a later instance moves
        it, reversed when the instance runs from its higher end."""
        forward = a <= b
        low = a if forward else b
        key = _canon_segment(a, b, self.scale)
        split = self.segments.get(key)
        if split is None:
            d = sub(b, a)
            hits = sorted(((vid, x) for vid, x in self._instances_in_box(
                tuple(map(min, a, b)), tuple(map(max, a, b))) if on_segment(x, a, b)),
                key=lambda item: dot(sub(item[1], a), d))
            stops = (a, *(x for _, x in hits), b)
            ids = tuple(self._register_edge(p, q) for p, q in zip(stops, stops[1:]))
            step = 1 if forward else -1
            split = self.segments[key] = (low, stops[1:-1][::step], ids[::step],
                                          tuple(vid for vid, _ in hits)[::step])
        origin, inner, ids, vids = split
        if inner and low != origin:
            t = sub(low, origin)
            inner = tuple(add(x, t) for x in inner)
        if forward:
            return (a, *inner, b), ids, vids
        return (a, *inner[::-1], b), ids[::-1], vids[::-1]

    def build_edges(self) -> None:
        for cell in self.cells:
            per_cell: list[tuple[int, ...]] = []
            for a_idx, b_idx in cell.ridges:
                _, ids, _ = self._split_segment(cell.apices[a_idx], cell.apices[b_idx])
                per_cell.append(ids)
            self.ridge_pieces.append(per_cell)

    # -- phase 6: plate sides, incidences ------------------------------------

    def annotate_plates(self) -> None:
        for plate in self.plates:
            pieces: list[tuple[Vec, Vec]] = []
            edge_ids: list[int] = []
            interior: list[int] = []
            ring = plate.ring
            for k in range(len(ring)):
                stops, ids, inner = self._split_segment(ring[k],
                                                        ring[(k + 1) % len(ring)])
                pieces.extend(zip(stops, stops[1:]))
                edge_ids.extend(ids)
                interior.extend(inner)
            plate.side_pieces = tuple(pieces)
            plate.piece_edge_ids = tuple(edge_ids)
            plate.side_interior_vertex_ids = tuple(interior)
            for eid in edge_ids:
                self.edges[eid].plate_count += 1
            for vid in interior:
                self.vertices[vid].side_interior_count += 1
                self.vertices[vid].plate_count += 1
            for vid in plate.corner_vertex_ids:
                self.vertices[vid].plate_count += 1

    def classify_cell_points(self) -> None:
        for ci, cell in enumerate(self.cells):
            apex_set = set(cell.apices)
            vertex_incidences = 0
            lo, hi = self.bounds[ci]
            for vid, p in self._instances_in_box(lo, hi):
                eq = cell.facet_equalities(p)
                if eq is None:
                    continue
                vertex_incidences += 1
                vertex = self.vertices[vid]
                vertex.cell_count += 1
                if p in apex_set:
                    continue
                if not eq:
                    raise NotATessellationError(
                        f"vertex {self._unscale(vertex.position)} lies inside cell {ci}")
                # two facets of a convex cell meet in a ridge or in an apex
                if len(eq) == 1:
                    vertex.hemi_count += 1
                else:
                    vertex.ridge_interior_count += 1
            rec = CellRecord(
                apex_count=len(cell.apices),
                ridge_count=len(cell.ridges),
                facet_count=len(cell.facets),
                facet_ring_lengths=tuple(len(f.ring) for f in cell.facets),
                vertex_incidences=vertex_incidences,
                edge_incidences=sum(len(ids) for ids in self.ridge_pieces[ci]),
                plate_incidences=0,
            )
            self.cell_records.append(rec)
        for plate in self.plates:
            self.cell_records[plate.cell_a].plate_incidences += 1
            self.cell_records[plate.cell_b].plate_incidences += 1

    def mark_facet_interior_edges(self) -> None:
        pi_orbits: set[int] = set()
        for (ci, fi), entries in sorted(self.covering.items()):
            if len(entries) == 1:
                # the plates on a facet tile it (the volume and disjointness
                # certificates hold), so a lone plate is the whole facet and
                # its sides lie on the facet's boundary
                continue
            k, facet_ring, _, _ = self.facet_views[ci][fi]
            # the midpoint of pq lies in the facet iff p + q lies in it doubled
            doubled = [(2 * x, 2 * y) for x, y in facet_ring]
            instances: dict[tuple[Vec, Vec], int] = {}
            for plate_idx, delta in entries:
                plate = self.plates[plate_idx]
                shift = self._shift(delta)
                for (p, q), eid in zip(plate.side_pieces, plate.piece_edge_ids):
                    twice = add(add(p, shift), add(q, shift))
                    if point_in_ring2(project2(twice, k), doubled):
                        inst = tuple(sorted((add(p, shift), add(q, shift))))
                        instances[inst] = eid  # type: ignore[index]
            for eid in instances.values():
                self.edges[eid].cell_count += 1
                self.cell_records[ci].edge_incidences += 1
                pi_orbits.add(eid)
        for ci, per_cell in enumerate(self.ridge_pieces):
            for ids in per_cell:
                for eid in ids:
                    self.edges[eid].cell_count += 1
        for eid in pi_orbits:
            self.edges[eid].is_pi = True
            for vid in self.edges[eid].vertex_ids:
                self.vertices[vid].pi_edge_count += 1

    def finish(self) -> PeriodicComplex:
        """Divide every coordinate by D again and assemble the complex."""
        unscale, d = self._unscale, self.scale
        cells = tuple(
            Polyhedron(tuple(unscale(p) for p in cell.apices),
                       tuple(Facet(f.normal, _F(f.offset, d), f.ring)
                             for f in cell.facets),
                       cell.ridges, _F(cell.volume, d ** 3))
            for cell in self.cells)
        for plate in self.plates:
            plate.ring = tuple(unscale(p) for p in plate.ring)
            plate.side_pieces = tuple((unscale(p), unscale(q))
                                      for p, q in plate.side_pieces)
        for rec in self.vertices:
            rec.position = unscale(rec.position)
        for edge in self.edges:
            edge.endpoints = (unscale(edge.endpoints[0]), unscale(edge.endpoints[1]))
        ftf = 2 * len(self.plates) == sum(r.facet_count for r in self.cell_records)
        return PeriodicComplex(
            domain=self.domain,
            world_volume=self.world_volume,
            cells=cells,
            plates=tuple(self.plates),
            vertices=tuple(self.vertices),
            edges=tuple(self.edges),
            cell_records=tuple(self.cell_records),
            face_to_face=ftf,
            diagnostics=tuple(self.diagnostics),
        )


def build_complex(domain: FundamentalDomain) -> PeriodicComplex:
    """Construct the canonical periodic complex of a fundamental domain.

    Raises NotATessellation when the cells fail to tile (wrong total volume,
    overlapping interiors, or incidence structure that cannot belong to a
    tessellation by convex cells); NonConvexCell when a cell is degenerate.
    """
    builder = _Builder(domain)
    builder.find_plates_and_certify()
    builder.register_vertices()
    builder.build_edges()
    builder.annotate_plates()
    builder.classify_cell_points()
    builder.mark_facet_interior_edges()
    return builder.finish()
