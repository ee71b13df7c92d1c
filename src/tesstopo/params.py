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

The seven means are ratios of eight densities, which :func:`densities` gives
and :func:`from_densities` reads back. A tuple makes its density vector
fraction-free once and keeps it, and every derived value is one quotient of
integer forms in it.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateIntensityError, ParameterDomainError
from .scalar import ONE, ZERO, Poly, Scalar, ScalarLike, _trim, as_scalar, fraction_free

__all__ = [
    "OBJECTS",
    "TessParams",
    "DerivedSummary",
    "cell_intensity_form",
    "densities",
    "from_densities",
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


_COLUMNS = "VEIPXKST"


def _form(**coeffs: int) -> tuple[int, ...]:
    """An integer form over the densities, its coefficients given by column."""
    return tuple(coeffs.get(col, 0) for col in _COLUMNS)


class Densities(tuple):
    """The eight densities (V, E, I, P, X, K, S, T) of a tuple, or of the rates
    known so far, times one positive factor: ints when they are rational,
    otherwise integer polynomials in pi^2 (:class:`Poly`). Their coefficients
    are transposed once, by power of pi^2, into ``layers``, so an integer form
    of them is one int dot product per power; a rational vector has one layer."""

    def __new__(cls, values: Sequence) -> "Densities":
        self = super().__new__(cls, values)
        self.rational = Poly not in map(type, values)
        if self.rational:
            self.layers = (self,)
        else:
            sides = [v.c if type(v) is Poly else (v,) for v in values]
            width = max(map(len, sides))
            self.layers = tuple(zip(*(c + (0,) * (width - len(c)) for c in sides)))
        return self

    def level(self, coeffs: Sequence[int]):
        """The form with these coefficients at the densities: the dot product
        with each layer, an int on the one layer of a rational vector."""
        if self.rational:
            return sum(map(operator.mul, coeffs, self))
        return Poly(_trim([sum(map(operator.mul, coeffs, layer)) for layer in self.layers]))


def _densities(values: dict[str, Scalar]) -> Densities:
    """The densities per unit vertex intensity that values give, 0 where a
    rate they read is missing, made fraction-free."""
    ve, ep, pv, xi = map(values.get, ("edges_per_vertex", "plates_per_edge",
                                      "vertices_per_plate", "pi_edge_share"))
    e = ve / 2 if ve is not None else ZERO
    i = e * ep if ep is not None else ZERO
    return Densities(fraction_free(
        ONE, e, i, i / pv if pv is not None else ZERO, e * xi if xi is not None else ZERO,
        *(values.get(r, ZERO) for r in ("hemi_vertex_share", "ridge_interior_rate",
                                         "side_interior_rate"))))


def _ratio(n, d) -> Scalar:
    """n/d as a canonical Scalar, from ints or polynomials in pi^2."""
    return Scalar._rat(n, d) if type(n) is int and type(d) is int else n / d


def _from_vector(dens: Densities, vertex_intensity: Scalar) -> "TessParams":
    """The tuple whose densities are ``dens`` up to a positive factor, which it
    keeps as its own density vector."""
    v, e, i, p, x, k, s, t = dens
    out = TessParams(_ratio(2 * e, v), _ratio(i, e), _ratio(i, p), _ratio(x, e),
                     _ratio(k, v), _ratio(s, v), _ratio(t, v), vertex_intensity)
    out.__dict__["densities"] = dens  # where the cached property keeps it
    return out


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

    @functools.cached_property
    def densities(self) -> Densities:
        """The tuple's densities per unit vertex intensity, made fraction-free
        on first use and kept on the record."""
        return _densities(self.as_dict())

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


def densities(params: TessParams) -> tuple[Scalar, ...]:
    """The eight densities per unit volume: vertices V, edges E = V·ve/2,
    plate-edge incidences I = E·ep, plates P = I/pv, pi-edges X = E·xi,
    hemi-vertices K = V·kappa, and ridge- and side-interior incidences
    S = V·psi and T = V·tau."""
    dens, lv = params.densities, params.vertex_intensity
    return tuple(lv * _ratio(x, dens[0]) for x in dens)


def from_densities(values: Sequence[ScalarLike]) -> TessParams:
    """The tuple whose densities per unit volume are ``values``, the inverse
    of :func:`densities`. V, E, I and P must be positive."""
    dens = tuple(map(as_scalar, values))
    if len(dens) != len(_COLUMNS):
        raise ParameterDomainError(f"expected {len(_COLUMNS)} densities, got {len(dens)}")
    if any(x.sign() <= 0 for x in dens[:4]):
        raise ParameterDomainError("the densities V, E, I and P must be positive")
    return _from_vector(Densities(fraction_free(*dens)), dens[0])


# the intensities per unit volume as forms over the densities, then the other
# counts that derive divides: vertex-plate incidences I, vertex-cell and
# cell-plate incidences, and pi-edge ends
_INTENSITIES = {
    "vertices": _form(V=1), "edges": _form(E=1), "plates": _form(P=1),
    "cells": _form(V=1, E=-1, P=1), "pi_edges": _form(X=1),
    "cell_apices": _form(V=2, E=-2, I=1, K=-1, S=-1), "cell_ridges": _form(I=1, X=-1, S=-1),
    "cell_sides": _form(P=2, X=-1, K=1), "cell_side_borders": _form(I=2, X=-2, S=-2),
    "plate_sides": _form(I=1, T=-1),
}
_FORMS = {**_INTENSITIES, "incidences": _form(I=1), "vertex_cells": _form(V=2, E=-2, I=1),
          "cell_plates": _form(P=2), "pi_ends": _form(X=2)}


def positive_forms(params: TessParams) -> None:
    """Check the cell intensity, V - E + P, the vertex-cell incidences,
    2V - 2E + I, and the cell side intensity, 2P - X + K, positive at the
    tuple's densities, in that order: otherwise a
    :class:`DegenerateIntensityError`, and no tessellation has these values."""
    dens = params.densities
    for name, what in (("cells", "cell intensity"), ("vertex_cells", "cells-per-vertex mean"),
                       ("cell_sides", "cell side intensity")):
        if not dens.level(_FORMS[name]) > 0:
            raise DegenerateIntensityError(f"{what} is not positive for these parameters")


def derive(params: TessParams) -> DerivedSummary:
    """Compute the full derived description, exactly: each value is one
    quotient of integer forms in the tuple's densities.

    Raises :class:`DegenerateIntensityError` when the parameters force a
    nonpositive intensity or adjacency count, in which case no
    tessellation with these values exists.
    """
    positive_forms(params)
    dens = params.densities
    level = {name: dens.level(form) for name, form in _FORMS.items()}

    def q(top: str, bottom: str) -> Scalar:
        return _ratio(level[top], level[bottom])

    lv, ve = params.vertex_intensity, params.edges_per_vertex
    ep, pv = params.plates_per_edge, params.vertices_per_plate
    m = {
        ("vertex", "edge"): ve,
        ("vertex", "plate"): q("incidences", "vertices"),
        ("vertex", "cell"): q("vertex_cells", "vertices"),
        ("edge", "vertex"): Scalar(2),
        ("edge", "plate"): ep,
        ("edge", "cell"): ep,
        ("plate", "vertex"): pv,
        ("plate", "edge"): pv,
        ("plate", "cell"): Scalar(2),
        ("cell", "vertex"): q("vertex_cells", "cells"),
        ("cell", "edge"): q("incidences", "cells"),
        ("cell", "plate"): q("cell_plates", "cells"),
    }
    return DerivedSummary(
        params=params,
        intensities={name: lv * q(name, "vertices") for name in _INTENSITIES},
        mean_adjacencies=m,
        apices_per_cell=q("cell_apices", "cells"),
        ridges_per_cell=q("cell_ridges", "cells"),
        sides_per_cell=q("cell_sides", "cells"),
        corners_per_cell_side=q("cell_side_borders", "cell_sides"),
        corners_per_plate=q("plate_sides", "plates"),
        pi_edges_per_vertex=q("pi_ends", "vertices"),
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
