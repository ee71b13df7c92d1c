"""Fundamental parameters of a stationary spatial tessellation.

The primitive object classes are vertices, edges, plates and cells. A
tessellation whose cells are convex polyhedra is summarised by the vertex
intensity together with seven topological means:

* three cyclic adjacency means: edges per vertex, plates per edge and
  vertices per plate;
* four interior parameters that measure the departure from the
  face-to-face case: the share of pi-edges (edges lying in the relative
  interior of a side of some cell), the share of hemi-vertices (vertices
  lying in the relative interior of a side of some cell), the mean number
  of cell ridges whose relative interior contains the typical vertex, and
  the mean number of plate sides whose relative interior contains the
  typical vertex.

Everything else - intensities of the other object classes, all twelve
mean adjacency values, and the face statistics of the typical cell -
follows from these by exact algebra. Building a :class:`TessParams`, by
calling the class or its alias :meth:`TessParams.create`, reads every value
exactly and checks its domain. :func:`derive` computes the lot;
:func:`check_identities` re-checks the structural identities on a derived
summary so corrupted data is caught.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import DegenerateIntensityError, ParameterDomainError
from .scalar import ONE, ZERO, Scalar, ScalarLike, as_scalar

__all__ = [
    "OBJECTS",
    "TessParams",
    "DerivedSummary",
    "cell_intensity_form",
    "derive",
    "check_identities",
    "is_consistent",
]

OBJECTS = ("vertex", "edge", "plate", "cell")


def cell_intensity_form(edges_per_vertex: Scalar, plates_per_edge: Scalar,
                        x: ScalarLike) -> Scalar:
    """The linear form whose value at the vertices-per-plate mean is twice
    the cell-per-plate-vertex intensity ratio, and whose value at 2 is
    twice the cells-per-vertex mean."""
    return edges_per_vertex * plates_per_edge - as_scalar(x) * (edges_per_vertex - 2)


@dataclass(frozen=True)
class TessParams:
    """The seven fundamental parameters plus the vertex intensity.

    Construction reads each field with :func:`as_scalar` and checks its
    domain, so a record that exists is valid; :meth:`create` is the same
    constructor. Interior parameters default to zero, the face-to-face case.
    """

    edges_per_vertex: Scalar
    plates_per_edge: Scalar
    vertices_per_plate: Scalar
    pi_edge_share: Scalar = ZERO
    hemi_vertex_share: Scalar = ZERO
    ridge_interior_rate: Scalar = ZERO
    side_interior_rate: Scalar = ZERO
    vertex_intensity: Scalar = ONE

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, as_scalar(getattr(self, f.name)))
        self._validate()

    @classmethod
    def create(cls, *args: ScalarLike, **kwargs: ScalarLike) -> "TessParams":
        return cls(*args, **kwargs)

    def _validate(self) -> None:
        if self.vertex_intensity.sign() <= 0:
            raise ParameterDomainError("vertex intensity must be positive")
        for name in ("edges_per_vertex", "plates_per_edge", "vertices_per_plate"):
            if getattr(self, name).sign() <= 0:
                raise ParameterDomainError(f"{name} must be positive")
        for name in ("pi_edge_share", "hemi_vertex_share"):
            v = getattr(self, name)
            if v < 0 or v > 1:
                raise ParameterDomainError(f"{name} must lie in [0, 1]")
        for name in ("ridge_interior_rate", "side_interior_rate"):
            if getattr(self, name).sign() < 0:
                raise ParameterDomainError(f"{name} must be nonnegative")

    @property
    def is_face_to_face(self) -> bool:
        return not (self.pi_edge_share or self.hemi_vertex_share
                    or self.ridge_interior_rate or self.side_interior_rate)

    def with_values(self, **kwargs: ScalarLike) -> "TessParams":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict[str, Scalar]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


@dataclass(frozen=True)
class DerivedSummary:
    """Everything the fundamental parameters determine.

    ``intensities`` holds absolute intensities for the primitive classes
    and the induced face classes of cells and plates. ``mean_adjacencies``
    maps ordered pairs of primitive class names to the mean number of
    objects of the second class adjacent to a typical object of the first.
    """

    params: TessParams
    intensities: dict[str, Scalar]
    mean_adjacencies: dict[tuple[str, str], Scalar]
    apices_per_cell: Scalar
    ridges_per_cell: Scalar
    sides_per_cell: Scalar
    corners_per_cell_side: Scalar
    corners_per_plate: Scalar
    pi_edges_per_vertex: Scalar

    def mean_adjacent(self, of: str, to: str) -> Scalar:
        if of not in OBJECTS or to not in OBJECTS or of == to:
            raise KeyError(f"no adjacency mean for ({of!r}, {to!r})")
        return self.mean_adjacencies[(of, to)]

    def as_doc(self) -> dict:
        """The summary as one document: plain values, Scalars left raw."""
        return {
            "parameters": self.params.as_dict(),
            "intensities": dict(self.intensities),
            "mean_adjacencies": {f"{a}->{b}": v
                                 for (a, b), v in self.mean_adjacencies.items()},
            "faces_per_cell": {
                "apices": self.apices_per_cell,
                "ridges": self.ridges_per_cell,
                "sides": self.sides_per_cell,
            },
            "corners_per_cell_side": self.corners_per_cell_side,
            "corners_per_plate": self.corners_per_plate,
            "pi_edges_per_vertex": self.pi_edges_per_vertex,
        }


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


def check_identities(summary: DerivedSummary) -> dict[str, Scalar]:
    """Residuals of the structural identities, computed from the summary's
    stored values. All zero iff the summary is internally consistent."""
    i = summary.intensities
    m = summary.mean_adjacencies
    lv, le, lp, lz = i["vertices"], i["edges"], i["plates"], i["cells"]
    res = {
        "euler_intensities": lv - le + lp - lz,
        "vertex_alternation":
            m[("vertex", "edge")] - m[("vertex", "plate")] + m[("vertex", "cell")] - 2,
        "cell_alternation":
            m[("cell", "vertex")] - m[("cell", "edge")] + m[("cell", "plate")] - 2,
        "cell_surface_euler":
            summary.apices_per_cell - summary.ridges_per_cell + summary.sides_per_cell - 2,
        "pi_edge_linkage":
            lv * summary.pi_edges_per_vertex - 2 * le * summary.params.pi_edge_share,
        "side_border_doubling":
            i["cell_side_borders"] - 2 * i["cell_ridges"],
    }
    by_name = {"vertex": lv, "edge": le, "plate": lp, "cell": lz}
    for a, b in [("vertex", "edge"), ("vertex", "plate"), ("vertex", "cell"),
                 ("edge", "plate"), ("edge", "cell"), ("plate", "cell")]:
        res[f"pairing_{a}_{b}"] = by_name[a] * m[(a, b)] - by_name[b] * m[(b, a)]
    return res


def is_consistent(summary: DerivedSummary) -> bool:
    return all(not v for v in check_identities(summary).values())
