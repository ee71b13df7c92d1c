"""The Scalar formulas that the density forms replaced: ``derive``'s
positivity checks, its intensities and means, ``central_point``, ``stratum``
and ``mixture``, each written over the seven means by Scalar arithmetic.
``test_params`` and ``test_transforms`` check that the density vectors give
exactly these values and these errors."""

from typing import Sequence

from tesstopo.errors import DegenerateIntensityError, MixtureShareError
from tesstopo.params import DerivedSummary, TessParams, cell_intensity_form
from tesstopo.scalar import Scalar, ScalarLike, as_scalar
from tesstopo.transforms import PlanarParams


def positive_forms(params: TessParams) -> tuple[Scalar, Scalar, Scalar]:
    """The forms behind the cell intensity, the cells-per-vertex mean and
    the cell side intensity, checked positive in that order: otherwise a
    :class:`DegenerateIntensityError`, and no tessellation has these values."""
    ve, ep, pv = params.edges_per_vertex, params.plates_per_edge, params.vertices_per_plate
    f_pv = cell_intensity_form(ve, ep, pv)
    if f_pv.sign() <= 0:
        raise DegenerateIntensityError(
            "cell intensity is not positive for these parameters")
    f_2 = cell_intensity_form(ve, ep, 2)
    if f_2.sign() <= 0:
        raise DegenerateIntensityError(
            "cells-per-vertex mean is not positive for these parameters")
    xi, kappa = params.pi_edge_share, params.hemi_vertex_share
    sides_form = 2 * ve * ep - pv * (xi * ve - 2 * kappa)
    if sides_form.sign() <= 0:
        raise DegenerateIntensityError(
            "cell side intensity is not positive for these parameters")
    return f_pv, f_2, sides_form


def derive(params: TessParams) -> DerivedSummary:
    """Compute the full derived description, exactly.

    Raises :class:`DegenerateIntensityError` when the parameters force a
    nonpositive intensity or adjacency count, in which case no
    tessellation with these values exists.
    """
    ve = params.edges_per_vertex
    ep = params.plates_per_edge
    pv = params.vertices_per_plate
    xi = params.pi_edge_share
    kappa = params.hemi_vertex_share
    psi = params.ridge_interior_rate
    tau = params.side_interior_rate
    lv = params.vertex_intensity

    f_pv, f_2, sides_form = positive_forms(params)
    le = lv * ve / 2
    lp = lv * ve * ep / (2 * pv)
    lz = lv * f_pv / (2 * pv)

    m = {
        ("vertex", "edge"): ve,
        ("vertex", "plate"): ve * ep / 2,
        ("vertex", "cell"): f_2 / 2,
        ("edge", "vertex"): Scalar(2),
        ("edge", "plate"): ep,
        ("edge", "cell"): ep,
        ("plate", "vertex"): pv,
        ("plate", "edge"): pv,
        ("plate", "cell"): Scalar(2),
        ("cell", "vertex"): pv * f_2 / f_pv,
        ("cell", "edge"): ve * ep * pv / f_pv,
        ("cell", "plate"): 2 * ve * ep / f_pv,
    }

    ridge_form = ve * (ep - xi) - 2 * psi

    intensities = {
        "vertices": lv,
        "edges": le,
        "plates": lp,
        "cells": lz,
        "pi_edges": le * xi,
        "cell_apices": lv * (f_2 / 2 - kappa - psi),
        "cell_ridges": lv * ridge_form / 2,
        "cell_sides": lv * sides_form / (2 * pv),
        "cell_side_borders": lv * ridge_form,
        "plate_sides": lv * (ve * ep - 2 * tau) / 2,
    }

    apices = m[("cell", "vertex")] - pv * 2 * (kappa + psi) / f_pv
    ridges = m[("cell", "edge")] - pv * (xi * ve + 2 * psi) / f_pv
    sides = m[("cell", "plate")] - pv * (xi * ve - 2 * kappa) / f_pv

    return DerivedSummary(
        params=params,
        intensities=intensities,
        mean_adjacencies=m,
        apices_per_cell=apices,
        ridges_per_cell=ridges,
        sides_per_cell=sides,
        corners_per_cell_side=2 * pv * ridge_form / sides_form,
        corners_per_plate=pv * (1 - 2 * tau / (ve * ep)),
        pi_edges_per_vertex=xi * ve,
    )


def central_point(params: TessParams) -> TessParams:
    """Cone every cell to one interior point.

    Old vertices keep their edges and gain one spoke per adjacent cell;
    old plates survive and each (cell, ridge) pair spawns a new plate, so
    every count below is exact bookkeeping over the old parameters. The
    new vertex intensity is the old one plus the cell intensity.
    """
    f_pv, _, _ = positive_forms(params)
    ve, ep, pv = params.edges_per_vertex, params.plates_per_edge, params.vertices_per_plate
    xi, kappa = params.pi_edge_share, params.hemi_vertex_share
    psi, tau = params.ridge_interior_rate, params.side_interior_rate

    spread = ve * ep - pv * (ve - 4)  # positive whenever the input derives
    budget = 4 - ve + ve * ep - 2 * kappa - 2 * psi
    plate_budget = ve * ep * (pv + 1) - pv * (ve * xi + 2 * psi)
    # twice the coned edge intensity, and 2 pv times the coned plate intensity
    for value, what in ((budget, "coned edge intensity"), (plate_budget, "coned plate intensity")):
        if value <= 0:
            raise DegenerateIntensityError(f"{what} is not positive for these parameters")

    return TessParams.create(
        edges_per_vertex=2 * pv * (ve - 4 - ve * ep + 2 * kappa + 2 * psi)
        / (pv * (ve - 4) - ve * ep),
        plates_per_edge=(4 * ve * ep - 3 * ve * xi - 4 * psi) / budget,
        vertices_per_plate=pv * (4 * ve * ep - 3 * ve * xi - 4 * psi) / plate_budget,
        pi_edge_share=ve * xi / (ve * (ep - 1) + 4 - 2 * kappa - 2 * psi),
        hemi_vertex_share=2 * pv * kappa / spread,
        ridge_interior_rate=4 * pv * psi / spread,
        side_interior_rate=2 * pv * (tau + psi) / spread,
        vertex_intensity=params.vertex_intensity + params.vertex_intensity * f_pv / (2 * pv),
    )


def stratum(planar: PlanarParams) -> TessParams:
    """Stack shifted slabs over a planar tessellation.

    Only the planar mean degree and pi-vertex share matter; slab height is
    one unit, so the spatial vertex intensity equals the planar one.
    """
    ve = planar.edges_per_vertex
    phi = planar.pi_vertex_share
    return TessParams.create(
        edges_per_vertex=ve + 2,
        plates_per_edge=6 * ve / (ve + 2),
        vertices_per_plate=3 * ve / (ve - 1),
        pi_edge_share=2 * phi / (ve + 2),
        hemi_vertex_share=0,
        ridge_interior_rate=2 * phi,
        side_interior_rate=phi,
        vertex_intensity=planar.vertex_intensity,
    )


def mixture(components: Sequence[tuple[TessParams, ScalarLike]]) -> TessParams:
    """Ergodic mixture of parameter sets.

    Weights must be positive and sum to one. Each mean is averaged with
    the intensity of its subject class: vertex means with the vertex
    intensity, edge means with the edge intensity, plate means with the
    plate intensity.
    """
    if not components:
        raise MixtureShareError("a mixture needs at least one component")
    pairs = [(p, as_scalar(w)) for p, w in components]
    for _, w in pairs:
        if w.sign() <= 0:
            raise MixtureShareError("mixture weights must be positive")
    total = sum(w for _, w in pairs)
    if total != 1:
        raise MixtureShareError(f"mixture weights sum to {total}, not 1")

    wv = [w * p.vertex_intensity for p, w in pairs]
    we = [w * p.vertex_intensity * p.edges_per_vertex / 2 for p, w in pairs]
    wp = [w * p.vertex_intensity * p.edges_per_vertex * p.plates_per_edge
          / (2 * p.vertices_per_plate) for p, w in pairs]
    sv, se, sp = sum(wv), sum(we), sum(wp)

    def vertex_mean(field: str) -> Scalar:
        return sum(w * getattr(p, field) for (p, _), w in zip(pairs, wv)) / sv

    def edge_mean(field: str) -> Scalar:
        return sum(w * getattr(p, field) for (p, _), w in zip(pairs, we)) / se

    return TessParams.create(
        edges_per_vertex=vertex_mean("edges_per_vertex"),
        plates_per_edge=edge_mean("plates_per_edge"),
        vertices_per_plate=sum(
            w * p.vertices_per_plate for (p, _), w in zip(pairs, wp)) / sp,
        pi_edge_share=edge_mean("pi_edge_share"),
        hemi_vertex_share=vertex_mean("hemi_vertex_share"),
        ridge_interior_rate=vertex_mean("ridge_interior_rate"),
        side_interior_rate=vertex_mean("side_interior_rate"),
        vertex_intensity=sv,
    )
