"""Constructions that turn tessellations into tessellations.

Three constructions lift planar data or existing spatial parameters to new
spatial parameter sets, exactly:

* :func:`stratum` stacks congruent slabs over a planar tessellation and
  shifts alternate layers, so the planar pattern appears in every slab.
* :func:`column` erects an infinite prism over every planar cell and cuts
  each column independently into segments.
* :func:`central_point` places one new vertex inside every cell and cones
  it to the cell boundary.

The fourth, :func:`mixture`, combines whole parameter sets with ergodic
weights. Each primitive object class carries its own weighting intensity,
which is why the mixed means are not plain convex combinations.

On the eight densities per unit volume of :func:`~tesstopo.params.densities`
(V, E, I, P, X, K, S, T), three of the four are linear and one is not:

* :func:`central_point` is an integer 8x8 matrix. Its largest eigenvalue, 4,
  belongs to the tuple (8, 9/2, 3, 0, 0, 0, 0), which it keeps with four
  times the vertex intensity; the next is 2, so every orbit tends to that
  tuple with an error of order 2^-n.
* :func:`mixture` is the convex combination of the components' density
  vectors with the mixture weights.
* :func:`stratum` is linear in the planar densities: with planar vertices
  V2, edges E2 and pi-vertices F, it gives (V2, E2 + V2, 6 E2, 2 E2 - V2, F,
  0, 2F, F).
* :func:`column` is not linear: its hemi-vertex density has a term in
  phi^2/ve, the planar pi-vertex share squared over the mean degree.

A planar input is summarised by :class:`PlanarParams`: mean edges per
vertex, the share of pi-vertices (vertices in the relative interior of a
side of some planar cell), the mean number of pi-vertex endpoints per
edge, and the second moment of the vertex degree. The last two only
matter for :func:`column`, which is sensitive to degree fluctuations.
Building a :class:`PlanarParams` checks its domain, so the constructions
take it as valid.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateIntensityError, MixtureShareError, PlanarParameterError
from .params import (Densities, TessParams, _form, _from_vector, _ratio, from_densities,
                     positive_forms)
from .scalar import ONE, ZERO, Scalar, ScalarLike, as_scalar, fraction_free

__all__ = [
    "PlanarParams",
    "planar_voronoi",
    "planar_delaunay",
    "planar_stit",
    "planar_voronoi_delaunay_overlay",
    "planar_square_grid",
    "planar_triangle_grid",
    "planar_hexagon_grid",
    "planar_cairo",
    "planar_gridded_square",
    "stratum",
    "column",
    "central_point",
    "central_point_orbit",
    "mixture",
    "MixtureCurve",
    "mixture_curve",
]


@dataclass(frozen=True)
class PlanarParams:
    """Parameters of a stationary planar tessellation. Construction reads
    each field with :func:`as_scalar` and checks the planar domain, so a
    record that exists is valid; :meth:`create` is the same constructor."""

    edges_per_vertex: Scalar
    pi_vertex_share: Scalar = ZERO
    pi_ends_per_edge: Scalar = ZERO
    degree_second_moment: Scalar | None = None
    vertex_intensity: Scalar = ONE

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:  # only an optional field stays None
                object.__setattr__(self, f.name, as_scalar(value))
        self.validate()

    @classmethod
    def create(cls, *args: ScalarLike | None, **kwargs: ScalarLike | None) -> "PlanarParams":
        return cls(*args, **kwargs)

    def as_dict(self) -> dict[str, Scalar | None]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def validate(self) -> None:
        ve = self.edges_per_vertex
        phi = self.pi_vertex_share
        ends = self.pi_ends_per_edge
        if self.vertex_intensity.sign() <= 0:
            raise PlanarParameterError("vertex intensity must be positive")
        if ve < 3:
            raise PlanarParameterError("planar vertices have at least three edges")
        if phi < 0 or phi > 1:
            raise PlanarParameterError("pi vertex share must lie in [0, 1]")
        if ends < 0 or ends > 2:
            raise PlanarParameterError("pi ends per edge must lie in [0, 2]")
        # pi-vertices have degree >= 3, other vertices too; both facts cap
        # how the per-edge and per-vertex pi counts can combine
        if ends < 6 * phi / ve:
            raise PlanarParameterError(
                "pi ends per edge too small for the pi vertex share")
        if ends > 2 - 6 * (1 - phi) / ve:
            raise PlanarParameterError(
                "pi ends per edge too large for the pi vertex share")
        # cells have >= 3 corners, and a pi vertex is a corner of one cell
        # fewer than its degree
        if ve > 6 - 2 * phi:
            raise PlanarParameterError(
                "mean degree exceeds what three-cornered planar cells allow")
        if self.degree_second_moment is not None and self.degree_second_moment < ve * ve:
            raise PlanarParameterError(
                "degree second moment cannot undercut the squared mean")


def planar_voronoi(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    """Planar Poisson-Voronoi: almost surely degree 3, side to side."""
    return PlanarParams.create(3, 0, 0, 9, vertex_intensity)


def planar_delaunay(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    """Planar Poisson-Delaunay: mean degree 6; the degree fluctuates and
    its second moment has no simple closed form, so it is left unset."""
    return PlanarParams.create(6, 0, 0, None, vertex_intensity)


def planar_stit(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    """Planar iterated division by chords: every vertex is a T-vertex."""
    return PlanarParams.create(3, 1, 2, 9, vertex_intensity)


def planar_voronoi_delaunay_overlay(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    """Superposition of a planar Voronoi tessellation with its dual;
    crossings dominate and the mean degree is 4."""
    return PlanarParams.create(4, 0, 0, None, vertex_intensity)


def planar_square_grid(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    return PlanarParams.create(4, 0, 0, 16, vertex_intensity)


def planar_triangle_grid(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    return PlanarParams.create(6, 0, 0, 36, vertex_intensity)


def planar_hexagon_grid(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    return PlanarParams.create(3, 0, 0, 9, vertex_intensity)


def planar_cairo(vertex_intensity: ScalarLike = 1) -> PlanarParams:
    """The pentagonal tiling with degree-3 and degree-4 vertices in 2:1
    proportion."""
    return PlanarParams.create(Fraction(10, 3), 0, 0, Fraction(34, 3), vertex_intensity)


def planar_gridded_square(n: int, vertex_intensity: ScalarLike = 1) -> PlanarParams:
    """Square grid with a hub vertex inside each cell, joined by 4n spokes
    whose feet land n per side; feet from the two adjoining cells
    interleave, so every grid side carries 2n degree-3 T-feet."""
    if not isinstance(n, int) or n < 1:
        raise PlanarParameterError("the spoke count n must be a positive integer")
    return PlanarParams.create(
        Fraction(2 * (4 * n + 1), 2 * n + 1),
        Fraction(2 * n, 2 * n + 1),
        Fraction(6 * n, 4 * n + 1),
        Fraction(2 * (4 * n * n + 9 * n + 4), 2 * n + 1),
        vertex_intensity,
    )


def stratum(planar: PlanarParams) -> TessParams:
    """Stack shifted slabs over a planar tessellation.

    Only the planar mean degree and pi-vertex share matter; slab height is
    one unit, so the spatial vertex intensity equals the planar one. With
    planar vertices v, edges e and pi-vertices f per unit area, the densities
    are (v, e + v, 6e, 2e - v, f, 0, 2f, f).
    """
    v = planar.vertex_intensity
    e, f = v * planar.edges_per_vertex / 2, v * planar.pi_vertex_share
    return from_densities((v, e + v, 6 * e, 2 * e - v, f, 0, 2 * f, f))


def column(planar: PlanarParams) -> TessParams:
    """Cut independent columns over the planar cells.

    Every new vertex has exactly four edges. Cut plates are the planar
    cells; wall plates feel the planar degree fluctuations, so the second
    moment of the degree is required.
    """
    if planar.degree_second_moment is None:
        raise PlanarParameterError(
            "column construction needs the degree second moment")
    ve = planar.edges_per_vertex
    phi = planar.pi_vertex_share
    ends = planar.pi_ends_per_edge
    m2 = planar.degree_second_moment
    return TessParams.create(
        edges_per_vertex=4,
        plates_per_edge=(3 * ve + m2) / (2 * ve),
        vertices_per_plate=2 * (3 * ve + m2) / (3 * ve - 2),
        pi_edge_share=Fraction(1, 2) + ends / 4,
        hemi_vertex_share=ends / 2 - phi / ve,
        ridge_interior_rate=(m2 + 3 * phi) / ve - 1 - ends / 2,
        side_interior_rate=(m2 + phi) / ve - 2,
        vertex_intensity=planar.vertex_intensity * (ve - phi),
    )


# central_point is linear on the densities: these are the rows of its integer
# matrix over (V, E, I, P, X, K, S, T), V' = V + (V - E + P) adding one vertex
# per cell
_CONED = (_form(V=2, E=-1, P=1), _form(V=2, E=-1, I=1, K=-1, S=-1),
          _form(I=4, X=-3, S=-2), _form(I=1, P=1, X=-1, S=-1),
          _form(X=1), _form(K=1), _form(S=2), _form(S=1, T=1))


def central_point(params: TessParams) -> TessParams:
    """Cone every cell to one interior point.

    Old vertices keep their edges and gain one spoke per adjacent cell;
    old plates survive and each (cell, ridge) pair spawns a new plate, so
    the new densities are an integer matrix times the old ones, and the
    new tuple is read back from them. The new vertex intensity is the old
    one plus the cell intensity. A new edge or plate intensity that is not
    positive, E' = 2V - E + I - K - S or P' = I + P - X - S, raises
    :class:`DegenerateIntensityError`, as :func:`positive_forms` does for
    the input.
    """
    positive_forms(params)
    dens = params.densities
    coned = Densities([dens.level(row) for row in _CONED])
    for j, what in ((1, "coned edge intensity"), (3, "coned plate intensity")):
        if not coned[j] > 0:
            raise DegenerateIntensityError(f"{what} is not positive for these parameters")
    return _from_vector(coned, params.vertex_intensity * _ratio(coned[0], dens[0]))


def central_point_orbit(params: TessParams, steps: int) -> tuple[TessParams, ...]:
    """The input followed by ``steps`` successive conings."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    out = [params]
    for _ in range(steps):
        out.append(central_point(out[-1]))
    return tuple(out)


def mixture(components: Sequence[tuple[TessParams, ScalarLike]]) -> TessParams:
    """Ergodic mixture of parameter sets.

    Weights must be positive and sum to one. The mixture's densities are
    the weighted sums of the components', so each mean is averaged with the
    intensity of its subject class: vertex means with the vertex intensity,
    edge means with the edge intensity, plate means with the plate intensity.
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
    # a component's densities per unit volume are lv/V times its vector
    scales = fraction_free(*(w * p.vertex_intensity * _ratio(1, p.densities[0]) for p, w in pairs))
    vector = [sum(map(operator.mul, scales, column))
              for column in zip(*(p.densities for p, _ in pairs))]
    return _from_vector(Densities(vector), sum(w * p.vertex_intensity for p, w in pairs))


@dataclass(frozen=True)
class MixtureCurve:
    """Locus traced in the (edges per vertex, plates per edge) plane as a
    two-component mixture weight sweeps from one end to the other.

    For distinct vertex degrees the locus is a hyperbola arc
    ``plates_per_edge = offset - inverse_coefficient / edges_per_vertex``.
    """

    kind: str  # "curve" | "vertical" | "point"
    endpoints: tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
    offset: Scalar | None = None
    inverse_coefficient: Scalar | None = None

    @property
    def matches_plate_cap(self) -> bool:
        """True when the locus lies on the face-to-face ceiling curve."""
        return self.offset == 6 and self.inverse_coefficient == 12

    def as_doc(self) -> dict:
        return {
            "kind": self.kind,
            "offset": self.offset,
            "inverse_coefficient": self.inverse_coefficient,
            "endpoints": self.endpoints,
        }


def mixture_curve(first: TessParams, second: TessParams) -> MixtureCurve:
    ve1, ep1 = first.edges_per_vertex, first.plates_per_edge
    ve2, ep2 = second.edges_per_vertex, second.plates_per_edge
    ends = ((ve1, ep1), (ve2, ep2))
    if ve1 == ve2:
        kind = "point" if ep1 == ep2 else "vertical"
        return MixtureCurve(kind, ends)
    offset = (ep1 * ve1 - ep2 * ve2) / (ve1 - ve2)
    inv = (ep1 - ep2) * ve1 * ve2 / (ve1 - ve2)
    return MixtureCurve("curve", ends, offset, inv)
