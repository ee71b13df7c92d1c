"""Feasibility of fundamental parameter sets.

A parameter set is realisable when some stationary spatial tessellation
with convex polyhedral cells has it as its means; it is feasible when it
meets the linear conditions every realisable set meets. Feasibility splits
into two branches: the face-to-face branch (all four interior parameters
zero) and the general branch (positive pi-edge share). Each branch is a
finite system of linear inequalities; :func:`classify` evaluates every
bound and reports which hold, which fail, and which are tight.

The inequalities are necessary conditions, not sufficient ones: a feasible
verdict means the linear constraints hold, not that a tessellation with
these means exists. For example, :func:`classify` accepts the face-to-face
tuple (8, 4, 16/5), although the diagonal-pyramid construction has
(11, 48/11, 16/5); on that catalog row only the ``adjacency_checks`` tell
the two apart.

Every row of both branches is written once, in one table, with constant int
coefficients over eight densities per unit vertex intensity (V = 1, E = ve/2,
I = E·ep, P = I/pv, X = E·xi, K = kappa, S = psi, T = tau). A row reads
``form >= 0``, or ``> 0`` when strict, and is reported as a bound on its rate.
A tuple's densities are made fraction-free once, ints or integer polynomials
in pi^2, and kept on the tuple (``TessParams.densities``), so a row's verdict
is the sign of one int dot product per power of pi^2 and its limit one
quotient. The staged helpers and the sampler extend a vector by one rate at a
time: scaled by the rate's denominator less any polynomial factor it shares
with the rate's base density, with the rate's column set. A staged region
clips its box by the rows on its two rates, their coefficients the rates'
columns times their base densities (V, or E for xi).
The (ridge rate, side rate) polygon is clipped once per plate profile, and the
ridge interval that the staged helpers read is its ridge extent; the sampler
clips the polygon of the vector it has just extended, outside that cache.
A profile that passes the cyclic rows has a non-empty polygon, and its ridge
interval starts at max(0, (ve/2)(ep - cap)): (0, 0) or, on and above the cap,
(2e, 2e) with e = (ve/4)(ep - cap) meets every rate row, and the rows
``tau <= psi`` and ``tau >= psi/2 + e`` leave no ridge rate below 2e.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass

from .errors import InfeasibleParametersError
from .params import Densities, TessParams, _densities, _form, _from_vector, _ratio
from .planar import clean_ring, clip, ring_of_lines, ring_of_points
from .scalar import ONE, ZERO, Poly, Scalar, ScalarLike, _cancel, as_scalar, fraction_free

__all__ = [
    "Bound",
    "FeasibilityReport",
    "RegionPatch",
    "RegionPolyline",
    "PlateProfileRegion",
    "plate_cap",
    "classify",
    "classify_partial",
    "row_limit",
    "ridge_rate_interval",
    "side_rate_interval",
    "interior_rate_region",
    "hemi_pi_region",
    "plate_profile_region",
    "sample_feasible",
]


def plate_cap(edges_per_vertex: ScalarLike) -> Scalar:
    """Ceiling on plates per edge in the face-to-face branch; above it the
    general branch forces interior activity."""
    ve = as_scalar(edges_per_vertex)
    return 6 * (1 - 2 / ve)


# ---- the density table ----

VE, EP, PV = "edges_per_vertex", "plates_per_edge", "vertices_per_plate"
PSI, TAU, KAPPA, XI = ("ridge_interior_rate", "side_interior_rate",
                       "hemi_vertex_share", "pi_edge_share")
_HIGH_REGIME = "vertices_per_plate_high_regime_min"

_PROFILE = {VE, EP, PV}
# the rates each density reads; an interior one reads the profile, as its rows do
_READS = tuple(frozenset(r) for r in ((), {VE}, {VE, EP}, _PROFILE, {*_PROFILE, XI},
                                      {*_PROFILE, KAPPA}, {*_PROFILE, PSI}, {*_PROFILE, TAU}))
# each rate as the columns (carrier, top, base) of rate = top·carrier/base:
# ve = 2E/V, ep = I/E, xi = X/E, kappa = K/V and so on; pv = I/P has no top
_CARRIER = {VE: (1, 2, 0), EP: (2, 1, 1), PV: (3, None, 2), XI: (4, 1, 1),
            KAPPA: (5, 1, 0), PSI: (6, 1, 0), TAU: (7, 1, 0)}


def _row(name: str, rate: str, relation: str, **coeffs: int) -> tuple:
    """Row (name, rate, relation, coefficients over the columns, rates read)."""
    c = _form(**coeffs)
    return name, rate, relation, c, frozenset().union(*(r for r, k in zip(_READS, c) if k))


_CYCLIC = (
    _row("edges_per_vertex_min", VE, ">=", E=1, V=-2),
    _row("plates_per_edge_min", EP, ">=", I=1, E=-3),
    _row("vertices_per_plate_min", PV, ">=", I=1, P=-3),
    # keeps the cell intensity positive
    _row("vertices_per_plate_max", PV, "<", V=1, E=-1, P=1),
)
_CAP = _row("plates_per_edge_cap", EP, "<=", E=6, V=-6, I=-1)
_ROWS = {
    "face_to_face": (*_CYCLIC, _CAP),
    "general": (
        *_CYCLIC,
        _row(_HIGH_REGIME, PV, ">", E=2, V=-2, P=-1),
        _row("pi_edge_share_positive", XI, ">", X=1),
        # I - 4P + 2E - 2V is the typical cell's apex count past 4 (zero hemi share)
        _row("ridge_rate_cap_apices", PSI, "<=", E=2, V=-2, I=1, P=-4, S=-1),
        # I - 3P keeps the typical plate at least triangular
        _row("ridge_rate_cap_combined", PSI, "<=", E=1, I=2, P=-6, S=-2),
        _row("hemi_share_cap", KAPPA, "<=", E=2, V=-2, I=1, P=-4, S=-1, K=-1),
        _row("side_rate_max_ridge", TAU, "<=", S=1, T=-1),
        _row("side_rate_max_plate_corners", TAU, "<=", I=1, P=-3, T=-1),
        _row("side_rate_min_ridge_gap", TAU, ">=", T=1, S=-1, E=1),
        _row("side_rate_min_excess", TAU, ">=", T=2, S=-1, I=-1, E=6, V=-6),
        # averaged per-vertex budget: pi-edges pay for interior incidences
        _row("pi_share_min_vertex_budget", XI, ">=", X=2, K=-3, S=-2, T=2),
        # keeps cell sides at least triangular
        _row("pi_share_min_side_corners", XI, ">=", X=2, K=-6, S=-4, I=4, P=-12),
        # keeps the typical cell's ridge count at least 6
        _row("pi_share_cap_cell_ridges", XI, "<=", E=6, V=-6, I=1, P=-6, X=-1, S=-1),
        # keeps the typical cell's side count at least 4
        _row("pi_share_cap_cell_sides", XI, "<=", E=4, V=-4, P=-2, X=-1, K=1),
        # keeps at least three ridges meeting at the typical apex
        _row("pi_share_cap_apex_degree", XI, "<=", E=6, V=-6, I=-1, X=-2, K=3, S=1),
    ),
}
_GENERAL = _ROWS["general"]
_BY_NAME = {row[0]: row for rows in _ROWS.values() for row in rows}


def _solve(coeffs: tuple, rate: str, dens: tuple) -> tuple:
    """A form at the densities, c times the rate's carrier plus rest, as
    (level, sign, n, d): the sign of the rate's own coefficient, c's or, for pv,
    rest's, and n/d, with d > 0 unless that is 0, the rate where it vanishes."""
    j, top, base = _CARRIER[rate]
    c = coeffs[j]
    level = dens.level(coeffs)
    rest = level - c * dens[j]
    if top is None:  # pv times the form is c·I + rest·pv
        sign = 1 if rest > 0 else -1 if rest else 0
        return level, sign, -sign * c * dens[base], sign * rest
    sign = 1 if c > 0 else -1
    return level, sign, -sign * top * rest, sign * c * dens[base]


def _extend(dens: Densities, rate: str, value: Scalar) -> Densities:
    """The densities with one more rate set: a rate n/d puts n times its base
    over top times d in its carrier column (pv = I/P puts d·I/n). The vector is
    scaled by that denominator less any polynomial factor it shares with the
    base, made positive, and the column set."""
    j, top, base = _CARRIER[rate]
    n, d = value.num_coeffs, value.den_coeffs
    num, den = (d, n) if top is None else (n, tuple([top * x for x in d]))
    b = dens[base]
    share, den, _ = _cancel(b.c if type(b) is Poly else (b,), den)
    num, den, share = (c[0] if len(c) == 1 else Poly(c) for c in (num, den, share))
    if not den > 0:
        num, den = -num, -den
    out = [x * den for x in dens]
    out[j] = num * share
    return Densities(out)


def row_limit(name: str, profile: tuple[ScalarLike, ...] = (),
              values: dict[str, ScalarLike] | None = None) -> Scalar:
    """Row ``name`` of either branch solved for its rate at the plate profile
    (ve, ep, pv) and the other ``values``, a missing one read as 0. A row needs
    the start of the profile its densities read, less its own rate."""
    _, rate, _, coeffs, reads = _BY_NAME[name]
    given = {**dict(zip((VE, EP, PV), profile)), **(values or {})}
    if not reads & _PROFILE - {rate} <= given.keys():
        raise KeyError(f"row {name!r} reads more than a profile of length {len(profile)}")
    dens = _densities({k: as_scalar(v) for k, v in given.items()})
    return _ratio(*_solve(coeffs, rate, dens)[2:])


def _rate_bounds(rows, rate: str, given, dens: tuple) -> tuple[Scalar, Scalar]:
    """Floor and ceiling of ``rate`` from the rows on it alone once the given
    rates, the profile's start before any interior one, fix the others, at
    densities that hold them. A rate is at least 0, and a share at most 1."""
    known, floor, ceiling = given | {rate}, (0, 1), (1, 1) if rate in (KAPPA, XI) else None
    for *_, coeffs, reads in rows:  # limits compared as n/d; only the binding two are reduced
        if coeffs[_CARRIER[rate][0]] and reads <= known:
            _, sign, n, d = _solve(coeffs, rate, dens)
            if sign > 0 and n * floor[1] > floor[0] * d:
                floor = n, d
            elif sign < 0 and (ceiling is None or ceiling[0] * d > n * ceiling[1]):
                ceiling = n, d
    return _ratio(*floor), _ratio(*ceiling)


@dataclass(frozen=True)
class Bound:
    """One evaluated inequality of the feasibility system."""

    name: str
    parameter: str
    relation: str  # one of "<=", "<", ">=", ">"
    limit: Scalar
    value: Scalar
    applicable: bool
    satisfied: bool
    on_boundary: bool

    def as_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _verdict(row: tuple, dens: tuple) -> tuple:
    """A row at the densities as (applies, satisfied, on_boundary, n, d), n/d its limit; it
    applies where its rate's coefficient has the sign its relation reads (pv rows: ve above 2),
    the high-regime floor on or above the cap."""
    name, rate, relation, coeffs, _ = row
    if name != _HIGH_REGIME or not dens.level(_CAP[3]) > 0:
        level, sign, n, d = _solve(coeffs, rate, dens)
        if sign == (1 if relation[0] == ">" else -1):
            return True, level > 0 or not level and relation[-1] == "=", not level, n, d
    return False, True, False, 0, 1


def _bound(row: tuple, dens: tuple, values: dict[str, Scalar]) -> Bound:
    """A row evaluated at the densities; one that does not apply reports limit 0."""
    applies, sat, on, n, d = _verdict(row, dens)
    return Bound(*row[:3], _ratio(n, d), values[row[1]], applies, sat, on)


@dataclass(frozen=True)
class FeasibilityReport:
    params: TessParams
    branch: str  # "face_to_face" or "general"
    feasible: bool
    bounds: tuple[Bound, ...]

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.bounds if not b.satisfied)

    @property
    def boundary(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.bounds if b.satisfied and b.on_boundary)

    def as_doc(self) -> dict:
        return {
            "parameters": self.params.as_dict(),
            "branch": self.branch,
            "feasible": self.feasible,
            "violated": self.violated,
            "boundary": self.boundary,
            "bounds": [b.as_doc() for b in self.bounds],
        }


def classify_partial(values: dict[str, Scalar], branch: str = "general") -> tuple[Bound, ...]:
    """The rows of a branch whose rates ``values`` all give, evaluated there.
    :func:`classify` is this on all seven, at the tuple's own densities."""
    dens = _densities(values)
    return tuple(_bound(row, dens, values) for row in _ROWS[branch] if row[4] <= values.keys())


def classify(params: TessParams) -> FeasibilityReport:
    """Evaluate the full constraint system for one parameter set.

    ``feasible`` means every linear constraint holds, not that a
    tessellation exists. (8, 4, 16/5), for one, is accepted here, which is
    why a diagonal-pyramid catalog row recording that tuple passes
    classification and is caught only by its adjacency checks.
    """
    branch = "face_to_face" if params.is_face_to_face else "general"
    dens, values = params.densities, params.as_dict()
    bounds = tuple(_bound(row, dens, values) for row in _ROWS[branch])
    return FeasibilityReport(params, branch, all(b.satisfied for b in bounds), bounds)


# ---- staged regions ----


@dataclass(frozen=True)
class RegionPatch:
    """A 2d region: empty, a point, a segment, or a convex polygon."""

    axes: tuple[str, str]
    kind: str  # "empty" | "point" | "segment" | "region"
    vertices: tuple[tuple[Scalar, Scalar], ...]
    open_edges: tuple[str, ...] = ()

    def as_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _halfplanes(rows, axes: tuple[str, str], given, dens: tuple) -> list:
    """The closures of the rows on the two rates, the given rates fixing the
    others at densities where the two are 0, as halfplanes ``a·x + b·y + c <=
    0``: a rate's coefficient is its carrier's times its base, c the level."""
    cols = [_CARRIER[rate] for rate in axes]
    return [(*(-c[j] * dens[b] for j, _, b in cols), -dens.level(c))
            for *_, c, reads in rows if reads - given <= {*axes} and any(c[j] for j, _, _ in cols)]


def _clip_box(side: Scalar, lines: list) -> tuple[tuple, str]:
    """The square [0, side]^2 clipped by the lines, cleaned, with Scalar
    corners."""
    a, c = fraction_free(ONE, -side)
    ring = clip(ring_of_lines([(0, -1, 0), (a, 0, c), (0, a, c), (-1, 0, 0)]), lines)
    return clean_ring(ring, _ratio)


def _rate_patch(dens: Densities) -> RegionPatch:
    """The (ridge rate, side rate) polygon at a plate profile's densities, which
    must pass the cyclic rows."""
    bad = [row[0] for row in _GENERAL if row[4] <= _PROFILE and not _verdict(row, dens)[1]]
    if bad:
        raise InfeasibleParametersError(
            f"plate profile is infeasible for the general branch: {', '.join(bad)}")
    _, psi_cap = _rate_bounds(_GENERAL, PSI, _PROFILE, dens)
    sides = [row for row in _GENERAL if row[3][_CARRIER[TAU][0]]]  # the psi rows made the box
    verts, kind = _clip_box(psi_cap, _halfplanes(sides, (PSI, TAU), _PROFILE, dens))
    return RegionPatch((PSI, TAU), kind, verts)


@functools.lru_cache(maxsize=8)  # every staged call on a profile reads it
def _rate_polygon(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                  vertices_per_plate: ScalarLike) -> tuple[Densities, RegionPatch]:
    """A plate profile's densities and its rate polygon, clipped once: those
    of the last eight profiles are kept."""
    profile = dict(zip((VE, EP, PV), map(as_scalar, (edges_per_vertex, plates_per_edge,
                                                     vertices_per_plate))))
    dens = _densities(profile)
    return dens, _rate_patch(dens)


def _ridge_extent(patch: RegionPatch) -> tuple[Scalar, Scalar]:
    ridges = [psi for psi, _ in patch.vertices]
    return min(ridges), max(ridges)


def interior_rate_region(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                         vertices_per_plate: ScalarLike) -> RegionPatch:
    """The (ridge rate, side rate) polygon of a plate profile that passes the
    cyclic rows, clipped once per profile."""
    return _rate_polygon(edges_per_vertex, plates_per_edge, vertices_per_plate)[1]


def ridge_rate_interval(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                        vertices_per_plate: ScalarLike) -> tuple[Scalar, Scalar]:
    """Ridge rates that leave a side rate for this plate profile: the ridge extent of
    its (ridge rate, side rate) polygon, clipped once per profile, which is never empty
    and starts at max(0, (ve/2)(ep - cap)). A profile failing the cyclic rows raises."""
    return _ridge_extent(interior_rate_region(edges_per_vertex, plates_per_edge,
                                              vertices_per_plate))


def side_rate_interval(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                       vertices_per_plate: ScalarLike,
                       ridge_interior_rate: ScalarLike) -> tuple[Scalar, Scalar]:
    """Side rates compatible with the given ridge rate. The ridge rate must lie
    in the profile's ridge interval, the extent of the same cached polygon, so
    some side rate is left; the profile's cached densities are extended by it."""
    profile = tuple(map(as_scalar, (edges_per_vertex, plates_per_edge, vertices_per_plate)))
    psi = as_scalar(ridge_interior_rate)
    lo_psi, hi_psi = ridge_rate_interval(*profile)
    if psi < lo_psi or psi > hi_psi:
        raise InfeasibleParametersError(
            f"ridge rate outside its feasible interval [{lo_psi}, {hi_psi}]")
    dens = _extend(_rate_polygon(*profile)[0], PSI, psi)
    return _rate_bounds(_GENERAL, TAU, _PROFILE | {PSI}, dens)


def hemi_pi_region(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                   vertices_per_plate: ScalarLike, ridge_interior_rate: ScalarLike,
                   side_interior_rate: ScalarLike) -> RegionPatch:
    """The (hemi share, pi share) polygon once the rates are fixed.

    Rates that no share pair can complete give an empty patch. The returned
    vertices describe the closure; points with zero pi share are excluded
    from the true region, which ``open_edges`` records.
    """
    profile = tuple(map(as_scalar, (edges_per_vertex, plates_per_edge, vertices_per_plate)))
    lo_psi, hi_psi = ridge_rate_interval(*profile)  # raises when the cyclic part is infeasible
    psi, tau = as_scalar(ridge_interior_rate), as_scalar(side_interior_rate)
    dens = _extend(_extend(_rate_polygon(*profile)[0], PSI, psi), TAU, tau)
    # (psi, tau) must lie in the rate polygon, which no choice of shares can repair
    tau_lo, tau_hi = _rate_bounds(_GENERAL, TAU, _PROFILE | {PSI}, dens)
    if not (lo_psi <= psi <= hi_psi and tau_lo <= tau <= tau_hi):
        return RegionPatch((KAPPA, XI), "empty", ())
    verts, kind = _clip_box(ONE, _halfplanes(_GENERAL, (KAPPA, XI), _PROFILE | {PSI, TAU}, dens))
    open_edges = ("pi_edge_share_positive",) if any(not xi for _, xi in verts) else ()
    return RegionPatch((KAPPA, XI), kind, verts, open_edges)


@dataclass(frozen=True)
class RegionPolyline:
    """A labelled boundary or regime line for plotting."""

    name: str
    points: tuple[tuple[Scalar, Scalar], ...]
    included: bool  # whether the line belongs to the region it bounds
    style: str  # "boundary" | "regime"

    def as_doc(self) -> dict:
        return {"name": self.name, "style": self.style, "included": self.included,
                "points": self.points}


@dataclass(frozen=True)
class PlateProfileRegion:
    """Feasible (vertices per plate, plates per edge) sets for a fixed
    edges-per-vertex mean, within a finite plotting window."""

    edges_per_vertex: Scalar
    plate_cap: Scalar
    face_to_face: RegionPatch
    boundaries: tuple[RegionPolyline, ...]
    window: tuple[Scalar, Scalar]  # (vertices_per_plate max, plates_per_edge max)

    def as_doc(self) -> dict:
        return {
            "edges_per_vertex": self.edges_per_vertex,
            "plate_cap": self.plate_cap,
            "window": {
                "vertices_per_plate_max": self.window[0],
                "plates_per_edge_max": self.window[1],
            },
            "face_to_face": self.face_to_face.as_doc(),
            "boundaries": [line.as_doc() for line in self.boundaries],
        }


def plate_profile_region(edges_per_vertex: ScalarLike,
                         plates_per_edge_max: ScalarLike | None = None) -> PlateProfileRegion:
    """Describe both branches' feasible sets in the plate-profile plane."""
    ve = as_scalar(edges_per_vertex)
    if ve < row_limit("edges_per_vertex_min"):
        raise InfeasibleParametersError(
            "no feasible plate profile below four edges per vertex")
    cap = plate_cap(ve)
    ep_floor = row_limit("plates_per_edge_min", (ve,))
    ep_max = as_scalar(plates_per_edge_max) if plates_per_edge_max is not None else cap + 3
    if ep_max <= ep_floor:
        raise InfeasibleParametersError("plotting window must extend past 3")

    def at(name: str, ep: Scalar) -> tuple[Scalar, Scalar]:  # a row's line at ep
        return row_limit(name, (ve, ep)), ep

    low, top = "vertices_per_plate_min", "vertices_per_plate_max"
    corner, foot = at(low, ep_floor), at(top, ep_floor)
    shoulder, peak = at(low, cap), at(top, cap)
    far = at(top, ep_max)
    verts, kind = clean_ring(ring_of_points([corner, foot, peak, shoulder]))
    ftf = RegionPatch((PV, EP), kind, verts, open_edges=(top,))

    lines = [
        RegionPolyline("plate_floor", (corner, foot), True, "boundary"),
        RegionPolyline("vertex_floor", (corner, shoulder), True, "boundary"),
        RegionPolyline("high_regime_edge", (at(_HIGH_REGIME, cap), at(_HIGH_REGIME, ep_max)),
                       False, "boundary"),
        RegionPolyline("intensity_edge", (foot, far), False, "boundary"),
        RegionPolyline("cap_line", (shoulder, peak), True, "regime"),
    ]
    # where ridge_rate_cap_apices meets ridge_rate_cap_combined: pv = ep / s
    s = (3 * ve - 8) / (2 * ve)
    if s != (ve - 2) / ve:  # degenerate exactly at four edges per vertex
        start = (ep_floor / s, ep_floor) if s <= 1 else (corner[0], corner[0] * s)
        lines.append(RegionPolyline(
            "ridge_cap_crossover", (start, (ep_max / s, ep_max)), True, "regime"))
    return PlateProfileRegion(ve, cap, ftf, tuple(lines), (far[0], ep_max))


# ---- sampling ----


def _rand_between(rng: random.Random, lo: Scalar, hi: Scalar,
                  include_lo: bool = True, include_hi: bool = True,
                  grain: int = 512) -> Scalar:
    if lo == hi:
        return lo
    k = rng.randint(0 if include_lo else 1, grain if include_hi else grain - 1)
    return lo + Scalar(k, grain) * (hi - lo)


# the general branch draws plates per edge up to 3/2 past the cap
_EP_WINDOW = _row("", EP, "<=", E=15, V=-12, I=-2)


# the densities of no rate: one vertex
_UNIT = Densities((1, 0, 0, 0, 0, 0, 0, 0))


def _sample_once(rng: random.Random, face_to_face: bool) -> TessParams | None:
    rows = _ROWS["face_to_face" if face_to_face else "general"]
    drawn, dens = set(), _UNIT

    def draw(rate, lo, hi, **ends):  # a value of the rate, added to the densities
        nonlocal dens
        value = _rand_between(rng, lo, hi, **ends)
        drawn.add(rate)
        dens = _extend(dens, rate, value)
        return value

    def bounds(rate, rows=rows):  # of the rate, once the rates drawn fix the rest
        return _rate_bounds(rows, rate, drawn, dens)

    ve = draw(VE, row_limit("edges_per_vertex_min"), Scalar(10))
    ep = draw(EP, *bounds(EP, (*rows, _EP_WINDOW)))
    pv_lo, pv_hi = bounds(PV)
    if face_to_face:
        draw(PV, pv_lo, pv_hi, include_hi=False)
        return _from_vector(dens, ONE)
    # on and above the cap pv_hi = 2 pv_lo, and the strict floor is left out
    draw(PV, pv_lo, pv_hi, include_lo=(ep < plate_cap(ve)), include_hi=False)

    draw(PSI, *_ridge_extent(_rate_patch(dens)))  # clipped here, not kept with the profiles
    # a ridge rate in the interval leaves some side rate
    draw(TAU, *bounds(TAU))

    # the hemi share must leave room for a pi share of at most 1, as the polygon does
    _, k_cap = _rate_bounds(rows, KAPPA, drawn | {XI}, _extend(dens, XI, ONE))
    draw(KAPPA, ZERO, k_cap)

    xi_lo, xi_hi = bounds(XI)
    if xi_lo > xi_hi or not xi_hi:  # the one draw that can fail
        return None
    draw(XI, xi_lo, xi_hi, include_lo=bool(xi_lo))
    return _from_vector(dens, ONE)


def sample_feasible(count: int = 1, seed: int = 0,
                    face_to_face: bool = False) -> list[TessParams]:
    """Draw feasible parameter sets, deterministically per seed. Every
    returned set passes :func:`classify`."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    out: list[TessParams] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 200 * (count + 1):
            raise ArithmeticError("sampler failed to find feasible points")
        p = _sample_once(rng, face_to_face)
        if p is not None and classify(p).feasible:
            out.append(p)
    return out
