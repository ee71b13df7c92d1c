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

Each branch is one table of linear inequalities: five cyclic rows on the
plate profile (ve, ep, pv), and in the general branch the interior rows on
the four interior rates. :func:`classify`, the staged helpers, the sampler,
the plate-profile region and the catalog self-check all solve the same rows,
and :func:`row_limit` solves any one of them. A staged region clips its box
by each row, as the halfplane ``side·form <= 0`` with side -1 on a ``>`` or
``>=`` row, in the exact kernel of :mod:`tesstopo.planar`. Each halfplane is
first made fraction-free: ints on a rational profile, polynomials in pi^2
otherwise, so a corner is reduced to a canonical Scalar only once, at the end.
The (ridge rate, side rate) polygon is clipped once per plate profile, and the
ridge interval that the staged helpers and the sampler read is its ridge extent.
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
from fractions import Fraction

from .errors import InfeasibleParametersError
from .params import TessParams
from .planar import clean_ring, clip, ring_of_lines, ring_of_points
from .scalar import ONE, ZERO, Scalar, ScalarLike, as_scalar, fraction_free

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


# ---- the constraint tables ----

VE, EP, PV = "edges_per_vertex", "plates_per_edge", "vertices_per_plate"
PSI, TAU, KAPPA, XI = ("ridge_interior_rate", "side_interior_rate",
                       "hemi_vertex_share", "pi_edge_share")
_HIGH_REGIME = "vertices_per_plate_high_regime_min"


# the cyclic floors, which no profile value enters
_FLOOR_ROWS = (
    ("edges_per_vertex_min", VE, ">=", {VE: ONE, "": Scalar(-4)}),
    ("plates_per_edge_min", EP, ">=", {EP: ONE, "": Scalar(-3)}),
    ("vertices_per_plate_min", PV, ">=", {PV: ONE, "": Scalar(-3)}),
)


def _cyclic_rows(ve: Scalar, branch: str) -> tuple:
    """The cyclic rows of a branch in report order, as in :func:`_interior_rows`
    over the plate profile, with coefficients set by ve."""
    return (
        *_FLOOR_ROWS,
        # keeps the cell intensity positive
        ("vertices_per_plate_max", PV, "<", {PV: ve - 2, EP: -ve}),
        ("plates_per_edge_cap", EP, "<=", {EP: ONE, "": -plate_cap(ve)})
        if branch == "face_to_face" else
        (_HIGH_REGIME, PV, ">", {PV: 2 * (ve - 2), EP: -ve}),
    )


@functools.lru_cache(maxsize=8)  # classify and the staged calls on a profile share it
def _interior_rows(ve: Scalar, ep: Scalar, pv: Scalar) -> tuple:
    """The interior inequalities of the general branch in report order: rows
    (name, rate, relation, form), read as ``form relation 0``, where a form
    maps rates to coefficients and "" to the constant. The bounded rate's
    coefficient is 1 or ve; the coefficients depend on the profile alone."""
    incidences = ve * ep / 2  # plate-edge incidences per vertex
    corners = incidences * (1 - 3 / pv)  # keeps the typical plate at least triangular
    # keeps the typical cell's apex count at least 4 (with zero hemi share)
    apices = ve - 2 + incidences * (1 - 4 / pv)
    excess = ve / 4 * (ep - plate_cap(ve))
    rows = (
        ("pi_edge_share_positive", XI, ">", {XI: 1}),
        ("ridge_rate_cap_apices", PSI, "<=", {PSI: 1, "": -apices}),
        ("ridge_rate_cap_combined", PSI, "<=", {PSI: 1, "": -ve / 4 - corners}),
        ("hemi_share_cap", KAPPA, "<=", {KAPPA: 1, PSI: 1, "": -apices}),
        ("side_rate_max_ridge", TAU, "<=", {TAU: 1, PSI: -1}),
        ("side_rate_max_plate_corners", TAU, "<=", {TAU: 1, "": -corners}),
        ("side_rate_min_ridge_gap", TAU, ">=", {TAU: 1, PSI: -1, "": ve / 2}),
        ("side_rate_min_excess", TAU, ">=", {TAU: 1, PSI: Fraction(-1, 2), "": -excess}),
        # averaged per-vertex budget: pi-edges pay for interior incidences
        ("pi_share_min_vertex_budget", XI, ">=", {XI: ve, KAPPA: -3, PSI: -2, TAU: 2}),
        # keeps cell sides at least triangular
        ("pi_share_min_side_corners", XI, ">=",
         {XI: ve, KAPPA: -6, PSI: -4, "": 4 * corners}),
        # keeps the typical cell's ridge count at least 6
        ("pi_share_cap_cell_ridges", XI, "<=",
         {XI: ve, PSI: 2, "": -6 * (ve - 2) - ve * ep * (1 - 6 / pv)}),
        # keeps the typical cell's side count at least 4
        ("pi_share_cap_cell_sides", XI, "<=",
         {XI: ve, KAPPA: -2, "": 8 - 4 * ve + 2 * ve * ep / pv}),
        # keeps at least three ridges meeting at the typical apex
        ("pi_share_cap_apex_degree", XI, "<=",
         {XI: ve, KAPPA: -3, PSI: -1, "": 6 + incidences - 3 * ve}),
    )
    return tuple((name, rate, relation, {k: as_scalar(v) for k, v in form.items()})
                 for name, rate, relation, form in rows)


def _rows(profile: tuple[Scalar, ...]):
    """The rows of both branches that a (ve, ep, pv) profile, or its start, sets."""
    yield from _FLOOR_ROWS
    if len(profile) == 3:
        yield from _interior_rows(*profile)
    if profile:
        yield from _cyclic_rows(profile[0], "general")
        yield from _cyclic_rows(profile[0], "face_to_face")


def _offset(form: dict[str, Scalar], values: dict[str, Scalar], rate: str = "") -> Scalar:
    """The form's constant with the given rates, but ``rate``, moved into it."""
    return sum((c * values[k] for k, c in form.items() if k != rate and k in values),
               form.get("", ZERO))


def _limit(form: dict[str, Scalar], rate: str, values: dict[str, Scalar]) -> Scalar:
    """The form solved for ``rate``, the other rates taken from values; a
    floor, or any row ``rate + c`` on its rate alone, is ``-c`` as it stands."""
    if len(form) == 2 and "" in form and form[rate] == ONE:
        return -form[""]
    return _offset(form, values, rate) / -form[rate]


def row_limit(name: str, profile: tuple[ScalarLike, ...] = (),
              values: dict[str, ScalarLike] | None = None) -> Scalar:
    """Row ``name`` of either branch solved for its rate at the plate profile
    (ve, ep, pv) and the other ``values``. A row reads only the start of the
    profile it needs: the floors none of it, the other cyclic rows no pv."""
    profile = tuple(map(as_scalar, profile))
    for row_name, rate, _, form in _rows(profile):
        if row_name == name:
            return _limit(form, rate, {**dict(zip((VE, EP, PV), profile)), **(values or {})})
    raise KeyError(f"no row {name!r} reads only a profile of length {len(profile)}")


def _rate_bounds(rows, rate: str, values: dict[str, Scalar]) -> tuple[Scalar, Scalar]:
    """Floor and ceiling of ``rate`` from the rows left on it alone once
    ``values`` fix their other rates. Every rate is at least 0, and a
    share is at most 1."""
    floors, ceilings = [ZERO], [ONE] if rate in (KAPPA, XI) else []
    for _, _, relation, form in rows:
        if form.keys() - values.keys() - {""} == {rate}:
            floor = (relation[0] == ">") == (form[rate].sign() > 0)
            (floors if floor else ceilings).append(_limit(form, rate, values))
    return max(floors), min(ceilings)


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


def _bound(row: tuple, values: dict[str, Scalar], applies: bool = True) -> Bound:
    """A row evaluated at values; one that does not apply reports limit 0."""
    name, rate, relation, form = row
    if not applies:
        return Bound(name, rate, relation, ZERO, values[rate], False, True, False)
    limit = _limit(form, rate, values)
    diff = values[rate]._compare(limit)
    sat = {"<=": diff <= 0, "<": diff < 0, ">=": diff >= 0, ">": diff > 0}[relation]
    return Bound(name, rate, relation, limit, values[rate], True, sat, diff == 0)


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


@functools.lru_cache(maxsize=8)  # classify and the staged calls on a profile share it
def _cyclic_bounds(ve: Scalar, ep: Scalar, pv: Scalar | None,
                   branch: str) -> tuple[Bound, ...]:
    """The cyclic rows of a branch at the profile, less those on pv when it
    is None. A row applies where its rate has a positive coefficient (ve
    above 2), and the high-regime floor only on or above the plate cap."""
    values = {VE: ve, EP: ep, PV: pv}
    return tuple(_bound(row, values, row[3][row[1]].sign() > 0
                        and (row[0] != _HIGH_REGIME or ep >= plate_cap(ve)))
                 for row in _cyclic_rows(ve, branch) if pv is not None or PV not in row[3])


def classify_partial(values: dict[str, Scalar], branch: str = "general") -> tuple[Bound, ...]:
    """The rows of a branch whose rates ``values`` all give, evaluated there;
    ve and ep must be given. :func:`classify` is this on all seven."""
    ve, ep, pv = values[VE], values[EP], values.get(PV)
    interior = _interior_rows(ve, ep, pv) if branch == "general" and pv is not None else ()
    return _cyclic_bounds(ve, ep, pv, branch) + tuple(
        _bound(row, values) for row in interior if row[3].keys() - {""} <= values.keys())


def classify(params: TessParams) -> FeasibilityReport:
    """Evaluate the full constraint system for one parameter set.

    ``feasible`` means every linear constraint holds, not that a
    tessellation exists. (8, 4, 16/5), for one, is accepted here, which is
    why a diagonal-pyramid catalog row recording that tuple passes
    classification and is caught only by its adjacency checks.
    """
    branch = "face_to_face" if params.is_face_to_face else "general"
    bounds = classify_partial(params.as_dict(), branch)
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


def _halfplane(relation: str, form: dict[str, Scalar], axes: tuple[str, str],
               values: dict[str, Scalar]) -> tuple:
    """The closure of ``form relation 0`` on the axes, the rates off them
    fixed by values, as the halfplane ``a·x + b·y + c <= 0`` in fraction-free
    form: ints on a rational profile, polynomials in pi^2 otherwise."""
    a, b, c = form.get(axes[0], ZERO), form.get(axes[1], ZERO), _offset(form, values)
    return fraction_free(a, b, c) if relation[0] == "<" else fraction_free(-a, -b, -c)


def _clip_box(side: Scalar, lines: list) -> tuple[tuple, str]:
    """The square [0, side]^2 clipped by the lines, cleaned, with Scalar
    corners."""
    box = ring_of_lines([(0, -1, 0), fraction_free(ONE, ZERO, -side),
                         fraction_free(ZERO, ONE, -side), (-1, 0, 0)])
    verts, kind = clean_ring(clip(box, lines))
    return tuple((as_scalar(x), as_scalar(y)) for x, y in verts), kind


@functools.lru_cache(maxsize=8)  # every staged call on a profile reads it
def _rate_region(ve: Scalar, ep: Scalar, pv: Scalar) -> RegionPatch:
    """The (ridge rate, side rate) polygon of a plate profile that passes the
    cyclic rows."""
    bad = [b.name for b in _cyclic_bounds(ve, ep, pv, "general") if not b.satisfied]
    if bad:
        raise InfeasibleParametersError(
            f"plate profile is infeasible for the general branch: {', '.join(bad)}")
    rows = _interior_rows(ve, ep, pv)
    _, psi_cap = _rate_bounds(rows, PSI, {})
    # the rows on the ridge rate alone made the box
    verts, kind = _clip_box(psi_cap, [_halfplane(relation, form, (PSI, TAU), {})
                                      for _, _, relation, form in rows
                                      if TAU in form and form.keys() <= {PSI, TAU, ""}])
    return RegionPatch((PSI, TAU), kind, verts)


def interior_rate_region(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                         vertices_per_plate: ScalarLike) -> RegionPatch:
    """The (ridge rate, side rate) region for one plate profile."""
    return _rate_region(*map(as_scalar, (edges_per_vertex, plates_per_edge,
                                         vertices_per_plate)))


def ridge_rate_interval(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                        vertices_per_plate: ScalarLike) -> tuple[Scalar, Scalar]:
    """Ridge rates that leave a side rate for this plate profile: the ridge extent of
    its (ridge rate, side rate) polygon, clipped once per profile, which is never empty
    and starts at max(0, (ve/2)(ep - cap)). A profile failing the cyclic rows raises."""
    ridges = [psi for psi, _ in interior_rate_region(edges_per_vertex, plates_per_edge,
                                                     vertices_per_plate).vertices]
    return min(ridges), max(ridges)


def side_rate_interval(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                       vertices_per_plate: ScalarLike,
                       ridge_interior_rate: ScalarLike) -> tuple[Scalar, Scalar]:
    """Side rates compatible with the given ridge rate. The ridge rate must lie
    in the profile's ridge interval, the extent of the same cached polygon, so
    some side rate is left."""
    profile = tuple(map(as_scalar, (edges_per_vertex, plates_per_edge, vertices_per_plate)))
    psi = as_scalar(ridge_interior_rate)
    lo_psi, hi_psi = ridge_rate_interval(*profile)
    if psi < lo_psi or psi > hi_psi:
        raise InfeasibleParametersError(
            f"ridge rate outside its feasible interval [{lo_psi}, {hi_psi}]")
    return _rate_bounds(_interior_rows(*profile), TAU, {PSI: psi})


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
    rows = _interior_rows(*profile)
    psi, tau = as_scalar(ridge_interior_rate), as_scalar(side_interior_rate)
    rates = {PSI: psi, TAU: tau}
    # (psi, tau) must lie in the rate polygon, which no choice of shares can repair
    tau_lo, tau_hi = _rate_bounds(rows, TAU, {PSI: psi})
    if not (lo_psi <= psi <= hi_psi and tau_lo <= tau <= tau_hi):
        return RegionPatch((KAPPA, XI), "empty", ())

    verts, kind = _clip_box(ONE, [_halfplane(relation, form, (KAPPA, XI), rates)
                                  for _, _, relation, form in rows
                                  if form.keys() & {KAPPA, XI}])
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
    ep_floor = row_limit("plates_per_edge_min")
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
    return lo + Scalar(Fraction(k, grain)) * (hi - lo)


def _sample_once(rng: random.Random, face_to_face: bool) -> TessParams | None:
    ve = _rand_between(rng, row_limit("edges_per_vertex_min"), Scalar(10))
    cap = plate_cap(ve)
    rows = _cyclic_rows(ve, "face_to_face" if face_to_face else "general")
    # the general branch draws plates per edge up to 3/2 past the cap
    window = ("", EP, "<=", {EP: ONE, "": -cap - Fraction(3, 2)})
    ep = _rand_between(rng, *_rate_bounds((*rows, window), EP, {VE: ve}))
    pv_lo, pv_hi = _rate_bounds(rows, PV, {VE: ve, EP: ep})
    if face_to_face:
        return TessParams.create(ve, ep, _rand_between(rng, pv_lo, pv_hi, include_hi=False))
    # on and above the cap pv_hi = 2 pv_lo, and the strict floor is left out
    pv = _rand_between(rng, pv_lo, pv_hi, include_lo=(ep < cap), include_hi=False)

    psi = _rand_between(rng, *ridge_rate_interval(ve, ep, pv))
    # a ridge rate in the interval leaves some side rate
    rows = _interior_rows(ve, ep, pv)
    tau = _rand_between(rng, *_rate_bounds(rows, TAU, {PSI: psi}))

    # the hemi share must leave room for a pi share of at most 1, as the polygon does
    _, k_cap = _rate_bounds(rows, KAPPA, {PSI: psi, TAU: tau, XI: ONE})
    kappa = _rand_between(rng, ZERO, k_cap)

    xi_lo, xi_hi = _rate_bounds(rows, XI, {PSI: psi, TAU: tau, KAPPA: kappa})
    if xi_lo > xi_hi or not xi_hi:  # the one draw that can fail
        return None
    xi = _rand_between(rng, xi_lo, xi_hi, include_lo=bool(xi_lo))
    return TessParams.create(ve, ep, pv, xi, kappa, psi, tau)


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
