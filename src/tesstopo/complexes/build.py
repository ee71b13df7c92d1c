"""Build the periodic face structure induced by a fundamental domain.

The construction works in lattice-fraction coordinates: world points map
through the inverse lattice so the translation group becomes the integer
lattice and the quotient is the unit 3-torus. Translation classes of points
and segments then canonicalize by taking fractional parts. All counting
happens on canonical class representatives; intensities divide by the world
lattice volume only at measurement time.

Pipeline, in order:

1. per-cell face lattices (exact convex hulls in torus coordinates, one hull
   per translation class of cells, moved to the other members), with the
   volume certificate: cell volumes must sum to the lattice cell volume;
2. plates: two-dimensional intersections of cell pairs across lattice
   translates. Such an intersection of convex bodies with disjoint interiors
   always lies on a pair of coincident facet planes with opposite
   orientations, so facets are grouped by plane class (the primitive normal
   with its sign fixed, and the offset modulo 1), and only opposite facets
   of one class are clipped, at the integer shifts that put them on one
   plane and make their projected boxes overlap in a rectangle;
3. pairwise interior-disjointness certificates for every cell pair at every
   translate in its exact bounding-box window (outside of which the boxes
   themselves separate, so the enumeration is certified complete):
   separated bounding boxes, a shared plate, a separating facet plane, or
   an exact intersection dimension computation as a last resort;
4. vertices: cell apices plus plate ring corners, deduplicated mod lattice;
5. edges: the union of all cell ridges split at every vertex lying in a
   ridge's relative interior, deduplicated into translation classes (every
   tessellation edge is a subset of some cell ridge, so this is complete);
   the vertices inside a segment are searched once per translation class of
   segments and moved to each instance;
6. incidence tallies between all classes by exact containment tests,
   including the interior-adjacency counters (facet-interior vertices,
   ridge-interior vertices, plate-side-interior vertices) and the marking of
   edges whose relative interior lies inside a cell facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

from ..errors import NotATessellationError
from .domain import FundamentalDomain
from .geometry import (
    ZERO3,
    Polyhedron,
    Vec,
    Vec2,
    add,
    convex_hull,
    convex_intersection2,
    cross,
    det3,
    dot,
    drop_axis,
    inverse,
    lift3,
    mat_vec,
    neg,
    on_segment,
    point_in_ring2,
    project2,
    ring_ccw2,
    signed_area2,
    smul,
    solve3,
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


def _canon_point(p: Vec) -> Vec:
    return (p[0] - floor(p[0]), p[1] - floor(p[1]), p[2] - floor(p[2]))


def _int_shift(t: IVec) -> Vec:
    return (_F(t[0]), _F(t[1]), _F(t[2]))


def _canon_segment(a: Vec, b: Vec) -> tuple[Vec, Vec]:
    p, q = sorted((a, b))
    t = (_F(floor(p[0])), _F(floor(p[1])), _F(floor(p[2])))
    return (sub(p, t), sub(q, t))


def _hull_cells(point_sets: list[list[Vec]]) -> list[Polyhedron]:
    """Hull each point set once per translation class. A translate of an
    earlier set reuses that hull, moved; this is exact because the hull's
    apex order and facet order do not change under translation."""
    seen: dict[tuple[Vec, ...], tuple[Polyhedron, Vec]] = {}
    cells: list[Polyhedron] = []
    for points in point_sets:
        least = min(points)
        key = tuple(sorted(sub(p, least) for p in points))
        known = seen.get(key)
        if known is None:
            hull = convex_hull(points)
            seen[key] = (hull, least)
        else:
            hull = known[0].translate(sub(least, known[1]))
        cells.append(hull)
    return cells


def _coplanar_shifts(m: Vec, r: int, view_a: _FacetView, view_b: _FacetView):
    """Integer shifts t with m . t == r under which facet b, moved by t,
    overlaps facet a's projected box in a rectangle."""
    k, _, lo_a, hi_a = view_a
    _, _, lo_b, hi_b = view_b
    u, v = _PROJECTED_AXES[k]
    mk, mu, mv = int(m[k]), int(m[u]), int(m[v])
    for tu in range(floor(lo_a[0] - hi_b[0]) + 1, ceil(hi_a[0] - lo_b[0])):
        for tv in range(floor(lo_a[1] - hi_b[1]) + 1, ceil(hi_a[1] - lo_b[1])):
            rest = r - mu * tu - mv * tv
            if rest % mk == 0:
                t = [0, 0, 0]
                t[k], t[u], t[v] = rest // mk, tu, tv
                yield (t[0], t[1], t[2])


@dataclass
class PlateOrbit:
    """One translation class of plates: the polygon where cell ``cell_a``
    meets cell ``cell_b`` shifted by ``shift``, stored in cell_a's frame."""

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
    position: Vec  # canonical, all coordinates in [0, 1)
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
        to_torus = inverse(transpose(domain.lattice))
        self.cells = _hull_cells(
            [[mat_vec(to_torus, p) for p in cell.apices] for cell in domain.cells])
        total = sum(c.volume for c in self.cells)
        if total != 1:
            raise NotATessellationError(
                f"cells fill {total} of the lattice cell instead of all of it")
        self.bounds = [c.bounds() for c in self.cells]
        self.facet_views: list[list[_FacetView]] = []
        for cell in self.cells:
            views = []
            for fi, f in enumerate(cell.facets):
                k = drop_axis(f.normal)
                ring = ring_ccw2([project2(p, k) for p in cell.facet_ring_points(fi)])
                lo = (min(x for x, _ in ring), min(y for _, y in ring))
                hi = (max(x for x, _ in ring), max(y for _, y in ring))
                views.append((k, ring, lo, hi))
            self.facet_views.append(views)
        self.plates: list[PlateOrbit] = []
        self.vertex_ids: dict[Vec, int] = {}
        self.vertices: list[VertexRecord] = []
        self.segment_hits: dict[tuple[Vec, Vec], list[tuple[int, Vec]]] = {}
        self.edge_ids: dict[tuple[Vec, Vec], int] = {}
        self.edges: list[EdgeRecord] = []
        self.cell_records: list[CellRecord] = []
        self.covering: dict[tuple[int, int], list[tuple[int, IVec]]] = {}
        self.ridge_pieces: list[list[list[int]]] = []
        self.diagnostics: list[str] = []

    # -- phase 2/3: plates and disjointness ---------------------------------

    def _shift_window(self, i: int, j: int) -> list[IVec] | None:
        lo_i, hi_i = self.bounds[i]
        lo_j, hi_j = self.bounds[j]
        axes: list[range] = []
        for k in range(3):
            lo = ceil(lo_i[k] - hi_j[k])
            hi = floor(hi_i[k] - lo_j[k])
            if lo > hi:
                return None
            axes.append(range(lo, hi + 1))
        return [t for t in product(*axes)]  # type: ignore[misc]

    def _boxes_interior_disjoint(self, i: int, j: int, t: IVec) -> bool:
        lo_i, hi_i = self.bounds[i]
        lo_j, hi_j = self.bounds[j]
        return any(hi_j[k] + t[k] <= lo_i[k] or hi_i[k] <= lo_j[k] + t[k]
                   for k in range(3))

    def _clip_plate(self, i: int, fa: int, j: int, fb: int,
                    t: IVec) -> PlateOrbit | None:
        k, ring_a, _, _ = self.facet_views[i][fa]
        du, dv = project2(t, k)
        ring_b = [(x + du, y + dv) for x, y in self.facet_views[j][fb][1]]
        cut = convex_intersection2(ring_a, ring_b)
        if len(cut) < 3 or signed_area2(cut) == 0:
            return None
        f = self.cells[i].facets[fa]
        ring3 = tuple(lift3(xy, k, f.normal, f.offset) for xy in cut)
        return PlateOrbit(i, j, t, fa, fb, ring3)

    def _plate_table(self) -> dict[tuple[int, int, IVec], PlateOrbit]:
        """Every plate, keyed by (cell_a, cell_b, shift) with cell_a <= cell_b.

        With its normal m signed so that m > 0, a facet lies on m . x == d.
        Facet b, moved by the integer shift t, lies on facet a's plane when
        m . t == d_a - d_b, which needs d_a and d_b equal modulo 1; a plate
        also needs the two outward normals to be opposite. So facets are
        grouped by (m, d mod 1) and split by the sign of their normal, and
        only pairs across the split are clipped.
        """
        groups: dict[tuple[Vec, Fraction], tuple[list, list]] = {}
        for ci, cell in enumerate(self.cells):
            for fi, f in enumerate(cell.facets):
                if f.normal > ZERO3:
                    m, d, side = f.normal, f.offset, 0
                else:
                    m, d, side = neg(f.normal), -f.offset, 1
                groups.setdefault((m, d - floor(d)), ([], []))[side].append((ci, fi, d))
        table: dict[tuple[int, int, IVec], PlateOrbit] = {}
        for (m, _), (positive, negative) in groups.items():
            for ci, fi, d_a in positive:
                for cj, fj, d_b in negative:
                    views = self.facet_views[ci][fi], self.facet_views[cj][fj]
                    for t in _coplanar_shifts(m, int(d_a - d_b), *views):
                        if ci < cj or (ci == cj and t > (0, 0, 0)):
                            plate = self._clip_plate(ci, fi, cj, fj, t)
                        else:
                            plate = self._clip_plate(cj, fj, ci, fi,
                                                     (-t[0], -t[1], -t[2]))
                        if plate is not None:
                            table[(plate.cell_a, plate.cell_b, plate.shift)] = plate
        return table

    def _separating_facet(self, i: int, j: int, t: IVec) -> bool:
        shift = _int_shift(t)
        cell_i, cell_j = self.cells[i], self.cells[j]
        apices_j = [add(p, shift) for p in cell_j.apices]
        for f in cell_i.facets:
            if all(dot(f.normal, q) >= f.offset for q in apices_j):
                return True
        for f in cell_j.facets:
            limit = f.offset + dot(f.normal, shift)
            if all(dot(f.normal, p) >= limit for p in cell_i.apices):
                return True
        return False

    def _intersection_dimension(self, i: int, j: int, t: IVec) -> int:
        """Affine dimension of cell_i meet (cell_j + t), decided exactly."""
        shift = _int_shift(t)
        planes = [(f.normal, f.offset) for f in self.cells[i].facets]
        planes += [(f.normal, f.offset + dot(f.normal, shift))
                   for f in self.cells[j].facets]
        pts: list[Vec] = []
        for (n1, c1), (n2, c2), (n3, c3) in combinations(planes, 3):
            d = det3((n1, n2, n3))
            if d == 0:
                continue
            x = solve3((n1, n2, n3), (c1, c2, c3))
            if all(dot(n, x) <= c for n, c in planes) and x not in pts:
                pts.append(x)
        if not pts:
            return -1
        rank = 0
        base = pts[0]
        dirs: list[Vec] = []
        for p in pts[1:]:
            d = sub(p, base)
            if rank == 0:
                if d != (0, 0, 0):
                    dirs.append(d)
                    rank = 1
            elif rank == 1:
                if cross(dirs[0], d) != (_F(0), _F(0), _F(0)):
                    dirs.append(d)
                    rank = 2
            elif rank == 2 and det3((dirs[0], dirs[1], d)) != 0:
                rank = 3
                break
        return rank

    def find_plates_and_certify(self) -> None:
        plates = self._plate_table()
        n = len(self.cells)
        for i in range(n):
            for j in range(i, n):
                window = self._shift_window(i, j)
                if window is None:
                    continue
                for t in window:
                    if i == j and t <= (0, 0, 0):
                        # the reversed shift covers the same unordered pair
                        continue
                    plate = plates.get((i, j, t))
                    if plate is not None:
                        self.plates.append(plate)
                        continue
                    if self._boxes_interior_disjoint(i, j, t):
                        continue
                    if self._separating_facet(i, j, t):
                        continue
                    dim = self._intersection_dimension(i, j, t)
                    if dim >= 2:
                        raise NotATessellationError(
                            f"cells {i} and {j} (shift {t}) overlap")
        for idx, plate in enumerate(self.plates):
            self.covering.setdefault((plate.cell_a, plate.facet_a), []).append(
                (idx, (0, 0, 0)))
            self.covering.setdefault((plate.cell_b, plate.facet_b), []).append(
                (idx, (-plate.shift[0], -plate.shift[1], -plate.shift[2])))

    # -- phase 4: vertices ---------------------------------------------------

    def register_vertices(self) -> None:
        apex_keys: set[Vec] = set()
        for cell in self.cells:
            for p in cell.apices:
                key = _canon_point(p)
                apex_keys.add(key)
                if key not in self.vertex_ids:
                    self.vertex_ids[key] = len(self.vertices)
                    self.vertices.append(VertexRecord(key, is_apex=True))
        for idx, plate in enumerate(self.plates):
            ids = []
            for p in plate.ring:
                key = _canon_point(p)
                vid = self.vertex_ids.get(key)
                if vid is None:
                    self.vertex_ids[key] = vid = len(self.vertices)
                    self.vertices.append(VertexRecord(key))
                ids.append(vid)
                if key not in apex_keys:
                    self.diagnostics.append(
                        f"plate {idx} corner {key} is not an apex of any cell")
            plate.corner_vertex_ids = tuple(ids)

    def _instances_in_box(self, lo: Vec, hi: Vec):
        for vid, rec in enumerate(self.vertices):
            v = rec.position
            axes = []
            empty = False
            for k in range(3):
                t_lo = ceil(lo[k] - v[k])
                t_hi = floor(hi[k] - v[k])
                if t_lo > t_hi:
                    empty = True
                    break
                axes.append(range(t_lo, t_hi + 1))
            if empty:
                continue
            for t in product(*axes):
                yield vid, (v[0] + t[0], v[1] + t[1], v[2] + t[2])

    def _interior_vertices(self, a: Vec, b: Vec) -> list[tuple[int, Vec]]:
        """Vertex instances inside segment ab, ordered from a to b. Each
        translation class of segments is scanned once."""
        key = _canon_segment(a, b)
        hits = self.segment_hits.get(key)
        if hits is None:
            p, q = key
            lo = tuple(min(p[k], q[k]) for k in range(3))
            hi = tuple(max(p[k], q[k]) for k in range(3))
            d = sub(q, p)
            hits = [(vid, x) for vid, x in self._instances_in_box(lo, hi)
                    if on_segment(x, p, q, strict=True)]
            hits.sort(key=lambda item: dot(sub(item[1], p), d))
            self.segment_hits[key] = hits
        low = min(a, b)
        t = sub(low, key[0])
        moved = [(vid, add(x, t)) for vid, x in hits]
        return moved if low == a else moved[::-1]

    # -- phase 5: edges ------------------------------------------------------

    def _register_edge(self, a: Vec, b: Vec) -> int:
        key = _canon_segment(a, b)
        eid = self.edge_ids.get(key)
        if eid is None:
            va = self.vertex_ids.get(_canon_point(key[0]))
            vb = self.vertex_ids.get(_canon_point(key[1]))
            if va is None or vb is None:
                raise NotATessellationError(
                    "edge endpoint is not a vertex of the complex")
            self.edge_ids[key] = eid = len(self.edges)
            self.edges.append(EdgeRecord(key, (va, vb)))
            self.vertices[va].edge_count += 1
            self.vertices[vb].edge_count += 1
        return eid

    def _split_segment(self, a: Vec, b: Vec,
                       register: bool) -> tuple[list[tuple[Vec, Vec]], list[int], list[int]]:
        """Split segment ab at interior vertices. Returns the pieces, their
        edge ids (registered or looked up), and the interior vertex ids."""
        hits = self._interior_vertices(a, b)
        stops = [a] + [p for _, p in hits] + [b]
        pieces = [(stops[k], stops[k + 1]) for k in range(len(stops) - 1)]
        ids: list[int] = []
        for p, q in pieces:
            if register:
                ids.append(self._register_edge(p, q))
            else:
                key = _canon_segment(p, q)
                eid = self.edge_ids.get(key)
                if eid is None:
                    raise NotATessellationError(
                        "plate side piece is not an edge of the complex")
                ids.append(eid)
        return pieces, ids, [vid for vid, _ in hits]

    def build_edges(self) -> None:
        for cell in self.cells:
            per_cell: list[list[int]] = []
            for a_idx, b_idx in cell.ridges:
                _, ids, _ = self._split_segment(
                    cell.apices[a_idx], cell.apices[b_idx], register=True)
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
                seg_pieces, ids, inner = self._split_segment(
                    ring[k], ring[(k + 1) % len(ring)], register=False)
                pieces.extend(seg_pieces)
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
            found_apices = 0
            vertex_incidences = 0
            lo, hi = self.bounds[ci]
            for vid, p in self._instances_in_box(lo, hi):
                eq = cell.facet_equalities(p)
                if eq is None:
                    continue
                vertex_incidences += 1
                self.vertices[vid].cell_count += 1
                if p in apex_set:
                    found_apices += 1
                    continue
                if not eq:
                    raise NotATessellationError(
                        f"vertex {self.vertices[vid].position} lies inside cell {ci}")
                if len(eq) == 1:
                    self.vertices[vid].hemi_count += 1
                    continue
                if not any(on_segment(p, cell.apices[a], cell.apices[b], strict=True)
                           for a, b in cell.ridges):
                    raise NotATessellationError(
                        "boundary vertex is neither an apex nor on a ridge "
                        "nor inside a facet")
                self.vertices[vid].ridge_interior_count += 1
            if found_apices != len(cell.apices):
                raise NotATessellationError(
                    f"cell {ci} apices are not all vertices of the complex")
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
            k, facet_ring, _, _ = self.facet_views[ci][fi]
            instances: dict[tuple[Vec, Vec], int] = {}
            for plate_idx, delta in entries:
                plate = self.plates[plate_idx]
                shift = _int_shift(delta)
                for (p, q), eid in zip(plate.side_pieces, plate.piece_edge_ids):
                    mid = smul(_F(1, 2), add(add(p, shift), add(q, shift)))
                    if point_in_ring2(project2(mid, k), facet_ring, strict=True):
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
        for rec in self.vertices:
            if rec.hemi_count > 1:
                raise NotATessellationError(
                    f"vertex {rec.position} sits inside facets of "
                    f"{rec.hemi_count} cells, which forces overlapping interiors")
        ftf = 2 * len(self.plates) == sum(r.facet_count for r in self.cell_records)
        return PeriodicComplex(
            domain=self.domain,
            world_volume=self.world_volume,
            cells=tuple(self.cells),
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
