"""The exhaustive builder and the ``Fraction``-arithmetic domain maps that
``tesstopo.complexes`` replaced, kept as references.

:class:`ReferenceBuilder` does all of the work itself: it clips every facing
facet pair, tests the side pieces of every covered facet for the facet's
interior, and splits every segment instance with its own scan of the vertex
instances. :func:`replicate` and :func:`affine_image` move each cell with
``Fraction`` arithmetic and :func:`map_cell`."""

from __future__ import annotations

from tesstopo.complexes.build import PlateOrbit, _Builder
from tesstopo.complexes.domain import FundamentalDomain
from tesstopo.complexes.geometry import (
    add, convex_intersection2, dot, lift3, map_cell, mat_vec, on_segment,
    point_in_ring2, project2, smul, sub, vec3)


class ReferenceBuilder(_Builder):

    def _clip_plate(self, i, fa, j, fb, t):
        k, ring_a, _, _ = self.facet_views[i][fa]
        du, dv = project2(self._shift(t), k)
        ring_b = [(x + du, y + dv) for x, y in self.facet_views[j][fb][1]]
        cut = convex_intersection2(ring_a, ring_b)
        if not cut:
            return None
        f = self.cells[i].facets[fa]
        ring3 = tuple(lift3(xy, k, f.normal, f.offset) for xy in cut)
        return PlateOrbit(i, j, t, fa, fb, ring3)

    def _split_segment(self, a, b):
        d = sub(b, a)
        hits = sorted(((vid, x) for vid, x in self._instances_in_box(
            tuple(map(min, a, b)), tuple(map(max, a, b))) if on_segment(x, a, b)),
            key=lambda item: dot(sub(item[1], a), d))
        stops = (a, *(x for _, x in hits), b)
        ids = tuple(self._register_edge(p, q) for p, q in zip(stops, stops[1:]))
        return stops, ids, tuple(vid for vid, _ in hits)

    def mark_facet_interior_edges(self):
        pi_orbits = set()
        for (ci, fi), entries in sorted(self.covering.items()):
            k, facet_ring, _, _ = self.facet_views[ci][fi]
            doubled = [(2 * x, 2 * y) for x, y in facet_ring]
            instances = {}
            for plate_idx, delta in entries:
                plate = self.plates[plate_idx]
                shift = self._shift(delta)
                for (p, q), eid in zip(plate.side_pieces, plate.piece_edge_ids):
                    twice = add(add(p, shift), add(q, shift))
                    if point_in_ring2(project2(twice, k), doubled):
                        instances[tuple(sorted((add(p, shift), add(q, shift))))] = eid
            for eid in instances.values():
                self.edges[eid].cell_count += 1
                self.cell_records[ci].edge_incidences += 1
                pi_orbits.add(eid)
        for per_cell in self.ridge_pieces:
            for ids in per_cell:
                for eid in ids:
                    self.edges[eid].cell_count += 1
        for eid in pi_orbits:
            self.edges[eid].is_pi = True
            for vid in self.edges[eid].vertex_ids:
                self.vertices[vid].pi_edge_count += 1


def build_complex(domain):
    builder = ReferenceBuilder(domain)
    builder.find_plates_and_certify()
    builder.register_vertices()
    builder.build_edges()
    builder.annotate_plates()
    builder.classify_cell_points()
    builder.mark_facet_interior_edges()
    return builder.finish()


def replicate(domain, mx, my, mz):
    t1, t2, t3 = domain.lattice
    cells = []
    for a in range(mx):
        for b in range(my):
            for c in range(mz):
                shift = add(add(smul(a, t1), smul(b, t2)), smul(c, t3))
                cells.extend(map_cell(cell, [add(p, shift) for p in cell.apices])
                             for cell in domain.cells)
    lattice = (smul(mx, t1), smul(my, t2), smul(mz, t3))
    return FundamentalDomain(lattice, tuple(cells), dict(domain.metadata))


def affine_image(domain, m, t=vec3(0, 0, 0)):
    lattice = tuple(mat_vec(m, row) for row in domain.lattice)
    cells = tuple(map_cell(cell, [add(mat_vec(m, p), t) for p in cell.apices])
                  for cell in domain.cells)
    return FundamentalDomain(lattice, cells, dict(domain.metadata))
