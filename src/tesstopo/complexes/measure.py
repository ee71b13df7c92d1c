"""Measure tessellation parameters from a built periodic complex.

Every quantity that :func:`tesstopo.params.derive` predicts from the seven
fundamental parameters is counted here combinatorially and independently, so
a built complex cross-checks the whole calculus: the measured adjacency
means, face-class intensities, and per-cell face counts must reproduce the
formulas evaluated at the measured parameter tuple exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from ..feasibility import classify
from ..params import DerivedSummary, TessParams, check_identities, derive
from ..scalar import Scalar, as_scalar
from .build import PeriodicComplex
from .geometry import Vec

_F = Fraction
_MAP_LABELS = {"intensities": "intensity", "mean_adjacencies": "adjacency"}


@dataclass(frozen=True)
class VertexStats:
    """Local counts at one vertex class."""

    position: Vec
    edge_count: int            # emanating edges
    pi_edge_count: int         # emanating edges inside some facet
    hemi_indicator: int        # 1 when the vertex sits inside a cell facet
    ridge_interior_count: int  # (cell, ridge) pairs with the vertex inside
    side_interior_count: int   # (plate, side) pairs with the vertex inside

    def as_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


@dataclass(frozen=True)
class MeasuredParams(DerivedSummary):
    """Everything measured from one complex: the quantities a DerivedSummary
    predicts, counted, plus the object counts of one fundamental domain and
    whether the complex is face-to-face."""

    counts: dict[str, int]
    face_to_face: bool

    def as_doc(self) -> dict:
        doc = super().as_doc()
        return {"parameters": doc.pop("parameters"), "counts": dict(self.counts),
                **doc, "face_to_face": self.face_to_face}


def measure(cx: PeriodicComplex) -> MeasuredParams:
    """Count one fundamental domain and average. All values are exact."""
    n_v = len(cx.vertices)
    n_e = len(cx.edges)
    n_p = len(cx.plates)
    n_z = len(cx.cells)
    vol = cx.world_volume

    pi_count = sum(1 for e in cx.edges if e.is_pi)
    ve_total = sum(v.edge_count for v in cx.vertices)
    vp_total = sum(v.plate_count for v in cx.vertices)
    vz_total = sum(v.cell_count for v in cx.vertices)
    ep_total = sum(e.plate_count for e in cx.edges)
    ez_total = sum(e.cell_count for e in cx.edges)
    pe_total = sum(len(p.piece_edge_ids) for p in cx.plates)
    pv_total = sum(len(p.corner_vertex_ids) + len(p.side_interior_vertex_ids)
                   for p in cx.plates)
    zv_total = sum(r.vertex_incidences for r in cx.cell_records)
    ze_total = sum(r.edge_incidences for r in cx.cell_records)
    zp_total = sum(r.plate_incidences for r in cx.cell_records)

    apex_total = sum(r.apex_count for r in cx.cell_records)
    ridge_total = sum(r.ridge_count for r in cx.cell_records)
    facet_total = sum(r.facet_count for r in cx.cell_records)
    border_total = sum(sum(r.facet_ring_lengths) for r in cx.cell_records)
    plate_side_total = sum(len(p.ring) for p in cx.plates)

    hemi_total = sum(v.hemi_count for v in cx.vertices)
    ridge_interior_total = sum(v.ridge_interior_count for v in cx.vertices)
    side_interior_total = sum(v.side_interior_count for v in cx.vertices)
    pi_emanating_total = sum(v.pi_edge_count for v in cx.vertices)

    params = TessParams.create(
        edges_per_vertex=_F(ve_total, n_v),
        plates_per_edge=_F(ep_total, n_e),
        vertices_per_plate=_F(pv_total, n_p),
        pi_edge_share=_F(pi_count, n_e),
        hemi_vertex_share=_F(hemi_total, n_v),
        ridge_interior_rate=_F(ridge_interior_total, n_v),
        side_interior_rate=_F(side_interior_total, n_v),
        vertex_intensity=_F(n_v) / vol,
    )

    def per_vol(count: int) -> Scalar:
        return as_scalar(_F(count) / vol)

    intensities = {
        "vertices": per_vol(n_v),
        "edges": per_vol(n_e),
        "plates": per_vol(n_p),
        "cells": per_vol(n_z),
        "pi_edges": per_vol(pi_count),
        "cell_apices": per_vol(apex_total),
        "cell_ridges": per_vol(ridge_total),
        "cell_sides": per_vol(facet_total),
        "cell_side_borders": per_vol(border_total),
        "plate_sides": per_vol(plate_side_total),
    }
    mean_adjacencies = {
        ("vertex", "edge"): as_scalar(_F(ve_total, n_v)),
        ("vertex", "plate"): as_scalar(_F(vp_total, n_v)),
        ("vertex", "cell"): as_scalar(_F(vz_total, n_v)),
        ("edge", "vertex"): as_scalar(_F(2 * n_e, n_e)),
        ("edge", "plate"): as_scalar(_F(ep_total, n_e)),
        ("edge", "cell"): as_scalar(_F(ez_total, n_e)),
        ("plate", "vertex"): as_scalar(_F(pv_total, n_p)),
        ("plate", "edge"): as_scalar(_F(pe_total, n_p)),
        ("plate", "cell"): as_scalar(_F(2 * n_p, n_p)),
        ("cell", "vertex"): as_scalar(_F(zv_total, n_z)),
        ("cell", "edge"): as_scalar(_F(ze_total, n_z)),
        ("cell", "plate"): as_scalar(_F(zp_total, n_z)),
    }
    return MeasuredParams(
        params=params,
        counts=cx.counts,
        intensities=intensities,
        mean_adjacencies=mean_adjacencies,
        apices_per_cell=as_scalar(_F(apex_total, n_z)),
        ridges_per_cell=as_scalar(_F(ridge_total, n_z)),
        sides_per_cell=as_scalar(_F(facet_total, n_z)),
        corners_per_cell_side=as_scalar(_F(border_total, facet_total)),
        corners_per_plate=as_scalar(_F(plate_side_total, n_p)),
        pi_edges_per_vertex=as_scalar(_F(pi_emanating_total, n_v)),
        face_to_face=cx.face_to_face,
    )


def vertex_stats(cx: PeriodicComplex) -> list[VertexStats]:
    out = []
    for v in cx.vertices:
        out.append(VertexStats(
            position=v.position,
            edge_count=v.edge_count,
            pi_edge_count=v.pi_edge_count,
            hemi_indicator=v.hemi_count,
            ridge_interior_count=v.ridge_interior_count,
            side_interior_count=v.side_interior_count,
        ))
    return out


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]
    notes: tuple[str, ...]
    measured: MeasuredParams

    def as_doc(self) -> dict:
        """The verdict; the measured values have their own document."""
        return {"ok": self.ok, "failures": self.failures, "notes": self.notes}


def validate(cx: PeriodicComplex) -> ValidationReport:
    """Check every structural and formula-level invariant of the complex.

    Building already certified the partition (volume sum, pairwise interior
    disjointness by a shared plate or a separating plane), which leaves no
    vertex inside facets of two cells; this checks that count again and adds
    the local minimums, the per-vertex interior inequalities, the structural
    identities of :func:`check_identities`, and exact agreement between
    measured quantities and the derived formulas at the measured parameters.
    """
    failures: list[str] = []
    notes: list[str] = list(cx.diagnostics)
    measured = measure(cx)

    for vid, v in enumerate(cx.vertices):
        if v.edge_count < 4:
            failures.append(f"vertex {vid} has only {v.edge_count} edges")
        if v.hemi_count not in (0, 1):
            failures.append(f"vertex {vid} lies inside {v.hemi_count} facets")
        if v.side_interior_count > v.ridge_interior_count:
            failures.append(
                f"vertex {vid}: inside {v.side_interior_count} plate sides "
                f"but only {v.ridge_interior_count} cell ridges")
        slack = (v.pi_edge_count
                 - 2 * (v.ridge_interior_count - v.side_interior_count)
                 - 3 * v.hemi_count)
        if slack < 0:
            failures.append(
                f"vertex {vid}: too few emanating facet-interior edges "
                f"for its interior incidences (deficit {-slack})")
    for eid, e in enumerate(cx.edges):
        if e.plate_count < 3:
            failures.append(f"edge {eid} has only {e.plate_count} plates")
        if e.plate_count != e.cell_count:
            failures.append(
                f"edge {eid}: {e.plate_count} plates but {e.cell_count} cells "
                "around it; these must alternate equally")

    for name, residual in check_identities(measured).items():
        if residual:
            failures.append(f"identity {name} has residual {residual}, not 0")

    summary = derive(measured.params)
    failures.extend(_compare_to_formulas(measured, summary))

    report = classify(measured.params)
    if not report.feasible:
        failures.append(
            "measured parameters violate feasibility: "
            + ", ".join(report.violated))

    notes.append("face-to-face" if cx.face_to_face else "not face-to-face")
    return ValidationReport(
        ok=not failures,
        failures=tuple(failures),
        notes=tuple(notes),
        measured=measured,
    )


def _compare_to_formulas(measured: MeasuredParams,
                         summary: DerivedSummary) -> list[str]:
    failures = []
    for field in dataclasses.fields(DerivedSummary):
        if field.name == "params":
            continue  # the formulas were evaluated at the measured parameters
        got, want = getattr(measured, field.name), getattr(summary, field.name)
        if isinstance(want, dict):
            label = _MAP_LABELS[field.name]
            for key, value in want.items():
                if got[key] != value:
                    name = "->".join(key) if isinstance(key, tuple) else key
                    failures.append(
                        f"{label} {name}: measured {got[key]}, formula {value}")
        elif got != want:
            failures.append(f"{field.name.replace('_', ' ')}: "
                            f"measured {got}, formula {want}")
    return failures
