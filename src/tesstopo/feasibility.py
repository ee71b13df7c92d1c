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

The staged helpers expose the same system as nested regions: an interval of
ridge rates for a plate profile, an interval of side rates once the ridge
rate is chosen, and finally a convex polygon of (hemi share, pi share)
pairs. All geometry is exact.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleParametersError
from .params import TessParams
from .scalar import ONE, ZERO, Scalar, ScalarLike, as_scalar

__all__ = [
    "Bound",
    "FeasibilityReport",
    "RegionPatch",
    "RegionPolyline",
    "PlateProfileRegion",
    "plate_cap",
    "classify",
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


# interior bound expressions; each is the exact content of one Bound row

def _ridge_cap_apices(ve, ep, pv):
    # keeps the typical cell's apex count at least 4 (with zero hemi share)
    return ve - 2 + ve * ep / 2 * (1 - 4 / pv)


def _ridge_cap_combined(ve, ep, pv):
    return ve / 4 + ve * ep / 2 * (1 - 3 / pv)


def _plate_corner_cap(ve, ep, pv):
    # keeps the typical plate at least triangular
    return ve * ep / 2 * (1 - 3 / pv)


def _excess(ve, ep):
    return ve / 4 * (ep - plate_cap(ve))


def _pi_lower_vertex(ve, psi, tau, kappa):
    # averaged per-vertex budget: pi-edges pay for interior incidences
    return (2 * (psi - tau) + 3 * kappa) / ve


def _pi_lower_corner(ve, ep, pv, psi, kappa):
    # keeps cell sides at least triangular
    return (4 * psi + 6 * kappa) / ve - 2 * ep * (1 - 3 / pv)


def _pi_cap_ridges(ve, ep, pv, psi):
    # keeps the typical cell's ridge count at least 6
    return plate_cap(ve) + ep * (1 - 6 / pv) - 2 * psi / ve


def _pi_cap_sides(ve, ep, pv, kappa):
    # keeps the typical cell's side count at least 4
    return 4 * (1 - 2 / ve) - 2 * ep / pv + 2 * kappa / ve


def _pi_cap_apex(ve, ep, psi, kappa):
    # keeps at least three ridges meeting at the typical apex
    return 3 - ep / 2 + (psi - 6 + 3 * kappa) / ve


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


def _bound(name: str, parameter: str, value: Scalar, relation: str,
           limit: Scalar, applicable: bool = True) -> Bound:
    if not applicable:
        return Bound(name, parameter, relation, limit, value, False, True, False)
    diff = (value - limit).sign()
    sat = {"<=": diff <= 0, "<": diff < 0, ">=": diff >= 0, ">": diff > 0}[relation]
    return Bound(name, parameter, relation, limit, value, True, sat, diff == 0)


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


def _cyclic_rows(ve: Scalar, ep: Scalar, pv: Scalar, branch: str) -> list[Bound]:
    rows = [
        _bound("edges_per_vertex_min", "edges_per_vertex", ve, ">=", Scalar(4)),
        _bound("plates_per_edge_min", "plates_per_edge", ep, ">=", Scalar(3)),
        _bound("vertices_per_plate_min", "vertices_per_plate", pv, ">=", Scalar(3)),
    ]
    tame = ve > 2  # below that the cell intensity form cannot vanish
    rows.append(_bound("vertices_per_plate_max", "vertices_per_plate", pv, "<",
                       ve * ep / (ve - 2) if tame else ZERO, applicable=tame))
    cap = plate_cap(ve)
    if branch == "face_to_face":
        rows.append(_bound("plates_per_edge_cap", "plates_per_edge", ep, "<=", cap))
    else:
        high = bool(tame) and ep >= cap
        rows.append(_bound("vertices_per_plate_high_regime_min", "vertices_per_plate",
                           pv, ">", ve * ep / (2 * (ve - 2)) if high else ZERO,
                           applicable=high))
    return rows


def classify(params: TessParams) -> FeasibilityReport:
    """Evaluate the full constraint system for one parameter set.

    ``feasible`` means every linear constraint holds, not that a
    tessellation exists. (8, 4, 16/5), for one, is accepted here, which is
    why a diagonal-pyramid catalog row recording that tuple passes
    classification and is caught only by its adjacency checks.
    """
    ve, ep, pv = params.edges_per_vertex, params.plates_per_edge, params.vertices_per_plate
    xi, kappa = params.pi_edge_share, params.hemi_vertex_share
    psi, tau = params.ridge_interior_rate, params.side_interior_rate

    if params.is_face_to_face:
        rows = _cyclic_rows(ve, ep, pv, "face_to_face")
        return FeasibilityReport(params, "face_to_face",
                                 all(b.satisfied for b in rows), tuple(rows))

    rows = _cyclic_rows(ve, ep, pv, "general")
    r1 = _ridge_cap_apices(ve, ep, pv)
    rows += [
        _bound("pi_edge_share_positive", "pi_edge_share", xi, ">", ZERO),
        _bound("ridge_rate_cap_apices", "ridge_interior_rate", psi, "<=", r1),
        _bound("ridge_rate_cap_combined", "ridge_interior_rate", psi, "<=",
               _ridge_cap_combined(ve, ep, pv)),
        _bound("hemi_share_cap", "hemi_vertex_share", kappa, "<=", r1 - psi),
        _bound("side_rate_max_ridge", "side_interior_rate", tau, "<=", psi),
        _bound("side_rate_max_plate_corners", "side_interior_rate", tau, "<=",
               _plate_corner_cap(ve, ep, pv)),
        _bound("side_rate_min_ridge_gap", "side_interior_rate", tau, ">=", psi - ve / 2),
        _bound("side_rate_min_excess", "side_interior_rate", tau, ">=",
               psi / 2 + _excess(ve, ep)),
        _bound("pi_share_min_vertex_budget", "pi_edge_share", xi, ">=",
               _pi_lower_vertex(ve, psi, tau, kappa)),
        _bound("pi_share_min_side_corners", "pi_edge_share", xi, ">=",
               _pi_lower_corner(ve, ep, pv, psi, kappa)),
        _bound("pi_share_cap_cell_ridges", "pi_edge_share", xi, "<=",
               _pi_cap_ridges(ve, ep, pv, psi)),
        _bound("pi_share_cap_cell_sides", "pi_edge_share", xi, "<=",
               _pi_cap_sides(ve, ep, pv, kappa)),
        _bound("pi_share_cap_apex_degree", "pi_edge_share", xi, "<=",
               _pi_cap_apex(ve, ep, psi, kappa)),
    ]
    return FeasibilityReport(params, "general",
                             all(b.satisfied for b in rows), tuple(rows))


# ---- staged regions ----


def _require_cyclic(ve: Scalar, ep: Scalar, pv: Scalar) -> None:
    bad = [b.name for b in _cyclic_rows(ve, ep, pv, "general") if not b.satisfied]
    if bad:
        raise InfeasibleParametersError(
            f"plate profile is infeasible for the general branch: {', '.join(bad)}")


def ridge_rate_interval(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                        vertices_per_plate: ScalarLike) -> tuple[Scalar, Scalar]:
    """Ridge rates compatible with the side-rate constraints for this
    plate profile. Raises when the cyclic part is already infeasible."""
    ve, ep, pv = map(as_scalar, (edges_per_vertex, plates_per_edge, vertices_per_plate))
    _require_cyclic(ve, ep, pv)
    g = _excess(ve, ep)
    t1 = _plate_corner_cap(ve, ep, pv)
    lo = max(ZERO, 2 * g)
    hi = min(_ridge_cap_apices(ve, ep, pv), _ridge_cap_combined(ve, ep, pv),
             t1 + ve / 2, 2 * (t1 - g))
    if lo > hi:
        raise InfeasibleParametersError("empty ridge rate interval")
    return lo, hi


def side_rate_interval(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                       vertices_per_plate: ScalarLike,
                       ridge_interior_rate: ScalarLike) -> tuple[Scalar, Scalar]:
    """Side rates compatible with the given ridge rate."""
    ve, ep, pv = map(as_scalar, (edges_per_vertex, plates_per_edge, vertices_per_plate))
    psi = as_scalar(ridge_interior_rate)
    lo_psi, hi_psi = ridge_rate_interval(ve, ep, pv)
    if psi < lo_psi or psi > hi_psi:
        raise InfeasibleParametersError(
            f"ridge rate outside its feasible interval [{lo_psi}, {hi_psi}]")
    lo = max(ZERO, psi - ve / 2, psi / 2 + _excess(ve, ep))
    hi = min(psi, _plate_corner_cap(ve, ep, pv))
    if lo > hi:
        raise InfeasibleParametersError("empty side rate interval")
    return lo, hi


@dataclass(frozen=True)
class RegionPatch:
    """A 2d region: empty, a point, a segment, or a convex polygon."""

    axes: tuple[str, str]
    kind: str  # "empty" | "point" | "segment" | "region"
    vertices: tuple[tuple[Scalar, Scalar], ...]
    open_edges: tuple[str, ...] = ()

    def as_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _clip(poly: list[tuple[Scalar, Scalar]], a: Scalar, b: Scalar,
          c: Scalar) -> list[tuple[Scalar, Scalar]]:
    # keep the side a*x + b*y <= c
    if not poly:
        return poly
    out: list[tuple[Scalar, Scalar]] = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp = a * p[0] + b * p[1]
        fq = a * q[0] + b * q[1]
        pin, qin = fp <= c, fq <= c
        if pin:
            out.append(p)
        if pin != qin:
            t = (c - fp) / (fq - fp)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _cross(o, a, b) -> Scalar:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _polish(points: list[tuple[Scalar, Scalar]]
            ) -> tuple[tuple[tuple[Scalar, Scalar], ...], str]:
    pts = list(points)
    while True:
        dedup: list[tuple[Scalar, Scalar]] = []
        for p in pts:
            if not dedup or p != dedup[-1]:
                dedup.append(p)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        if not dedup:
            return (), "empty"
        uniq = set(dedup)
        if len(uniq) == 1:
            return (dedup[0],), "point"
        base = dedup[0]
        ref = next(p for p in dedup if p != base)
        if all(not _cross(base, ref, p) for p in dedup):
            return (min(uniq), max(uniq)), "segment"
        kept = []
        n = len(dedup)
        for i, p in enumerate(dedup):
            if _cross(dedup[i - 1], p, dedup[(i + 1) % n]):
                kept.append(p)
        if len(kept) == len(dedup):
            return tuple(kept), "region"
        pts = kept


def interior_rate_region(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                         vertices_per_plate: ScalarLike) -> RegionPatch:
    """The (ridge rate, side rate) region for one plate profile."""
    ve, ep, pv = map(as_scalar, (edges_per_vertex, plates_per_edge, vertices_per_plate))
    _require_cyclic(ve, ep, pv)
    g = _excess(ve, ep)
    t1 = _plate_corner_cap(ve, ep, pv)
    psi_cap = min(_ridge_cap_apices(ve, ep, pv), _ridge_cap_combined(ve, ep, pv))
    if psi_cap < 0:
        return RegionPatch(("ridge_interior_rate", "side_interior_rate"), "empty", ())
    poly = [(ZERO, ZERO), (psi_cap, ZERO), (psi_cap, psi_cap), (ZERO, psi_cap)]
    # tau <= psi
    poly = _clip(poly, -ONE, ONE, ZERO)
    # tau <= plate corner cap
    poly = _clip(poly, ZERO, ONE, t1)
    # tau >= psi - ve/2
    poly = _clip(poly, ONE, -ONE, ve / 2)
    # tau >= psi/2 + excess
    poly = _clip(poly, Scalar(Fraction(1, 2)), -ONE, -g)
    verts, kind = _polish(poly)
    return RegionPatch(("ridge_interior_rate", "side_interior_rate"), kind, verts)


def _rates_admissible(ve: Scalar, ep: Scalar, pv: Scalar,
                      psi: Scalar, tau: Scalar) -> bool:
    # the constraints on (psi, tau) that no choice of shares can repair
    if psi < 0 or tau < 0 or tau > psi:
        return False
    if psi > _ridge_cap_combined(ve, ep, pv):
        return False
    if tau > _plate_corner_cap(ve, ep, pv):
        return False
    if tau < psi - ve / 2 or tau < psi / 2 + _excess(ve, ep):
        return False
    return True


def hemi_pi_region(edges_per_vertex: ScalarLike, plates_per_edge: ScalarLike,
                   vertices_per_plate: ScalarLike, ridge_interior_rate: ScalarLike,
                   side_interior_rate: ScalarLike) -> RegionPatch:
    """The (hemi share, pi share) polygon once the rates are fixed.

    Rates that no share pair can complete give an empty patch. The returned
    vertices describe the closure; points with zero pi share are excluded
    from the true region, which ``open_edges`` records.
    """
    ve, ep, pv = map(as_scalar, (edges_per_vertex, plates_per_edge, vertices_per_plate))
    psi = as_scalar(ridge_interior_rate)
    tau = as_scalar(side_interior_rate)
    _require_cyclic(ve, ep, pv)
    if not _rates_admissible(ve, ep, pv, psi, tau):
        return RegionPatch(("hemi_vertex_share", "pi_edge_share"), "empty", ())

    poly = [(ZERO, ZERO), (ONE, ZERO), (ONE, ONE), (ZERO, ONE)]
    # kappa <= apex cap
    poly = _clip(poly, ONE, ZERO, _ridge_cap_apices(ve, ep, pv) - psi)
    # vertex budget: ve*xi - 3*kappa >= 2*(psi - tau)
    poly = _clip(poly, Scalar(3), -ve, -2 * (psi - tau))
    # side corners: ve*xi - 6*kappa >= 4*psi - 2*ve*ep*(1 - 3/pv)
    poly = _clip(poly, Scalar(6), -ve, 2 * ve * ep * (1 - 3 / pv) - 4 * psi)
    # ridge count cap (no kappa term)
    poly = _clip(poly, ZERO, ONE, _pi_cap_ridges(ve, ep, pv, psi))
    # side count cap: ve*xi - 2*kappa <= ve*(4*(1-2/ve) - 2*ep/pv)
    poly = _clip(poly, Scalar(-2), ve, ve * (4 * (1 - 2 / ve) - 2 * ep / pv))
    # apex degree cap: ve*xi - 3*kappa <= 3*ve - ve*ep/2 + psi - 6
    poly = _clip(poly, Scalar(-3), ve, 3 * ve - ve * ep / 2 + psi - 6)
    verts, kind = _polish(poly)
    open_edges = ()
    if any(v[1] == 0 for v in verts):
        open_edges = ("pi_edge_share_positive",)
    return RegionPatch(("hemi_vertex_share", "pi_edge_share"), kind, verts, open_edges)


@dataclass(frozen=True)
class RegionPolyline:
    """A labelled boundary or regime line for plotting."""

    name: str
    points: tuple[tuple[Scalar, Scalar], ...]
    included: bool  # whether the line belongs to the region it bounds
    style: str  # "boundary" | "regime"


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
        """Everything but the boundaries, whose sampling is the caller's."""
        return {
            "edges_per_vertex": self.edges_per_vertex,
            "plate_cap": self.plate_cap,
            "window": {
                "vertices_per_plate_max": self.window[0],
                "plates_per_edge_max": self.window[1],
            },
            "face_to_face": self.face_to_face.as_doc(),
        }


def plate_profile_region(edges_per_vertex: ScalarLike,
                         plates_per_edge_max: ScalarLike | None = None) -> PlateProfileRegion:
    """Describe both branches' feasible sets in the plate-profile plane."""
    ve = as_scalar(edges_per_vertex)
    if ve < 4:
        raise InfeasibleParametersError(
            "no feasible plate profile below four edges per vertex")
    cap = plate_cap(ve)
    ep_max = as_scalar(plates_per_edge_max) if plates_per_edge_max is not None else cap + 3
    if ep_max <= 3:
        raise InfeasibleParametersError("plotting window must extend past 3")
    pv_max = ve * ep_max / (ve - 2)
    three = Scalar(3)

    b = 3 * ve / (ve - 2)  # where the intensity edge meets plates-per-edge 3
    ftf_pts = [(three, three), (b, three), (Scalar(6), cap), (three, cap)]
    verts, kind = _polish(ftf_pts)
    ftf = RegionPatch(("vertices_per_plate", "plates_per_edge"), kind, verts,
                      open_edges=("vertices_per_plate_max",))

    lines = [
        RegionPolyline("plate_floor", ((three, three), (b, three)), True, "boundary"),
        RegionPolyline("vertex_floor", ((three, three), (three, cap)), True, "boundary"),
        RegionPolyline(
            "high_regime_edge",
            ((three, cap), (ve * ep_max / (2 * (ve - 2)), ep_max)),
            False, "boundary"),
        RegionPolyline(
            "intensity_edge", ((b, three), (pv_max, ep_max)), False, "boundary"),
        RegionPolyline(
            "cap_line", ((three, cap), (Scalar(6), cap)), True, "regime"),
    ]
    s = (3 * ve - 8) / (2 * ve)  # ridge-cap regime slope
    if s != (ve - 2) / ve:  # degenerate exactly at four edges per vertex
        start = (3 / s, three) if s <= 1 else (three, 3 * s)
        lines.append(RegionPolyline(
            "ridge_cap_crossover", (start, (ep_max / s, ep_max)), True, "regime"))
    return PlateProfileRegion(ve, cap, ftf, tuple(lines), (pv_max, ep_max))


# ---- sampling ----


def _rand_between(rng: random.Random, lo: Scalar, hi: Scalar,
                  include_lo: bool = True, include_hi: bool = True,
                  grain: int = 512) -> Scalar:
    if lo == hi:
        return lo
    k = rng.randint(0 if include_lo else 1, grain if include_hi else grain - 1)
    return lo + Scalar(Fraction(k, grain)) * (hi - lo)


def _sample_once(rng: random.Random, face_to_face: bool) -> TessParams | None:
    ve = _rand_between(rng, Scalar(4), Scalar(10))
    cap = plate_cap(ve)
    if face_to_face:
        ep = _rand_between(rng, Scalar(3), cap)
        pv = _rand_between(rng, Scalar(3), ve * ep / (ve - 2), include_hi=False)
        return TessParams.create(ve, ep, pv)
    ep = _rand_between(rng, Scalar(3), cap + Scalar(Fraction(3, 2)))
    pv_hi = ve * ep / (ve - 2)
    pv_lo = max(Scalar(3), ve * ep / (2 * (ve - 2)))
    pv = _rand_between(rng, pv_lo, pv_hi, include_lo=(ep < cap), include_hi=False)
    if pv <= pv_lo and ep >= cap:
        return None

    g = _excess(ve, ep)
    t1 = _plate_corner_cap(ve, ep, pv)
    psi_lo = max(ZERO, 2 * g)
    psi_hi = min(_ridge_cap_apices(ve, ep, pv), _ridge_cap_combined(ve, ep, pv),
                 t1 + ve / 2, 2 * (t1 - g))
    if psi_lo > psi_hi:
        return None
    psi = _rand_between(rng, psi_lo, psi_hi)

    tau_lo = max(ZERO, psi - ve / 2, psi / 2 + g)
    tau_hi = min(psi, t1)
    if tau_lo > tau_hi:
        return None
    tau = _rand_between(rng, tau_lo, tau_hi)

    k_cap = min(ONE,
                _ridge_cap_apices(ve, ep, pv) - psi,
                (ve - 2 * (psi - tau)) / 3,
                (ve + 2 * ve * ep * (1 - 3 / pv) - 4 * psi) / 6)
    if k_cap < 0:
        return None
    kappa = _rand_between(rng, ZERO, k_cap)

    xi_lo = max(ZERO,
                _pi_lower_vertex(ve, psi, tau, kappa),
                _pi_lower_corner(ve, ep, pv, psi, kappa))
    xi_hi = min(ONE, _pi_cap_apex(ve, ep, psi, kappa))
    if xi_lo > xi_hi or not xi_hi:
        return None
    xi = _rand_between(rng, xi_lo, xi_hi, include_lo=bool(xi_lo))
    if not xi:
        return None
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
