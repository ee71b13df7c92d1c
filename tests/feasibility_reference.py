"""The per-profile row builder that the feasibility table replaced: each row
rebuilt for every plate profile as a form over the rates, with ``Scalar``
coefficients set by the profile, and solved for a rate by Scalar arithmetic.
The references of ``test_feasibility`` classify and bound rates with it, and
:func:`ridge_bounds` eliminates the side rate by Fourier–Motzkin, the route
to the ridge interval before the rate polygon was clipped."""

from fractions import Fraction

from tesstopo.feasibility import Bound, plate_cap
from tesstopo.scalar import ONE, ZERO, Scalar, as_scalar

VE, EP, PV = "edges_per_vertex", "plates_per_edge", "vertices_per_plate"
PSI, TAU, KAPPA, XI = ("ridge_interior_rate", "side_interior_rate",
                       "hemi_vertex_share", "pi_edge_share")
HIGH_REGIME = "vertices_per_plate_high_regime_min"

# the cyclic floors, which no profile value enters
FLOOR_ROWS = (
    ("edges_per_vertex_min", VE, ">=", {VE: ONE, "": Scalar(-4)}),
    ("plates_per_edge_min", EP, ">=", {EP: ONE, "": Scalar(-3)}),
    ("vertices_per_plate_min", PV, ">=", {PV: ONE, "": Scalar(-3)}),
)


def cyclic_rows(ve: Scalar, branch: str) -> tuple:
    """The cyclic rows of a branch in report order, with coefficients set by ve."""
    return (
        *FLOOR_ROWS,
        ("vertices_per_plate_max", PV, "<", {PV: ve - 2, EP: -ve}),
        ("plates_per_edge_cap", EP, "<=", {EP: ONE, "": -plate_cap(ve)})
        if branch == "face_to_face" else
        (HIGH_REGIME, PV, ">", {PV: 2 * (ve - 2), EP: -ve}),
    )


def interior_rows(ve: Scalar, ep: Scalar, pv: Scalar) -> tuple:
    """The interior inequalities of the general branch in report order: rows
    (name, rate, relation, form), read as ``form relation 0``, where a form
    maps rates to coefficients and "" to the constant."""
    incidences = ve * ep / 2
    corners = incidences * (1 - 3 / pv)
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
        ("pi_share_min_vertex_budget", XI, ">=", {XI: ve, KAPPA: -3, PSI: -2, TAU: 2}),
        ("pi_share_min_side_corners", XI, ">=",
         {XI: ve, KAPPA: -6, PSI: -4, "": 4 * corners}),
        ("pi_share_cap_cell_ridges", XI, "<=",
         {XI: ve, PSI: 2, "": -6 * (ve - 2) - ve * ep * (1 - 6 / pv)}),
        ("pi_share_cap_cell_sides", XI, "<=",
         {XI: ve, KAPPA: -2, "": 8 - 4 * ve + 2 * ve * ep / pv}),
        ("pi_share_cap_apex_degree", XI, "<=",
         {XI: ve, KAPPA: -3, PSI: -1, "": 6 + incidences - 3 * ve}),
    )
    return tuple((name, rate, relation, {k: as_scalar(v) for k, v in form.items()})
                 for name, rate, relation, form in rows)


def offset(form: dict, values: dict, rate: str = "") -> Scalar:
    """The form's constant with the given rates, but ``rate``, moved into it."""
    return sum((c * values[k] for k, c in form.items() if k != rate and k in values),
               form.get("", ZERO))


def limit(form: dict, rate: str, values: dict) -> Scalar:
    """The form solved for ``rate``, the other rates taken from values."""
    return offset(form, values, rate) / -form[rate]


def rate_bounds(rows, rate: str, values: dict) -> tuple[Scalar, Scalar]:
    """Floor and ceiling of ``rate`` from the rows left on it alone once
    ``values`` fix their other rates; every rate is at least 0, and a share
    at most 1."""
    floors, ceilings = [ZERO], [ONE] if rate in (KAPPA, XI) else []
    for _, _, relation, form in rows:
        if form.keys() - values.keys() - {""} == {rate}:
            floor = (relation[0] == ">") == (form[rate].sign() > 0)
            (floors if floor else ceilings).append(limit(form, rate, values))
    return max(floors), min(ceilings)


def ridge_bounds(rows) -> tuple[Scalar, Scalar]:
    """Ridge rates that leave some side rate: the rows on the ridge rate
    alone, and ``ceiling - floor <= 0`` for each floor (0 included) and
    ceiling row on the two rates (each has side-rate coefficient 1). Where
    the ridge terms cancel, the cyclic rows ensure the difference holds."""
    sides = [(rel[0], form) for _, rate, rel, form in rows
             if rate == TAU and form.keys() <= {TAU, PSI, ""}] + [(">", {TAU: ONE})]
    pairs = [("", PSI, "<=", {k: c.get(k, ZERO) - f.get(k, ZERO) for k in (PSI, "")})
             for f_rel, f in sides if f_rel == ">" for c_rel, c in sides if c_rel == "<"]
    return rate_bounds([*rows, *(row for row in pairs if row[3][PSI])], PSI, {})


def bound(row: tuple, values: dict, applies: bool = True) -> Bound:
    """A row evaluated at values by comparing the value with the solved
    limit; one that does not apply reports limit 0."""
    name, rate, relation, form = row
    if not applies:
        return Bound(name, rate, relation, ZERO, values[rate], False, True, False)
    lim = limit(form, rate, values)
    diff = values[rate]._compare(lim)
    sat = {"<=": diff <= 0, "<": diff < 0, ">=": diff >= 0, ">": diff > 0}[relation]
    return Bound(name, rate, relation, lim, values[rate], True, sat, diff == 0)


def classify_partial(values: dict, branch: str = "general") -> tuple[Bound, ...]:
    """The rows of a branch whose rates ``values`` all give; ve and ep must
    be given. A cyclic row applies where its rate has a positive coefficient
    (ve above 2), and the high-regime floor only on or above the plate cap."""
    ve, ep, pv = values[VE], values[EP], values.get(PV)
    cyclic = tuple(bound(row, values, row[3][row[1]].sign() > 0
                         and (row[0] != HIGH_REGIME or ep >= plate_cap(ve)))
                   for row in cyclic_rows(ve, branch) if pv is not None or PV not in row[3])
    interior = interior_rows(ve, ep, pv) if branch == "general" and pv is not None else ()
    return cyclic + tuple(bound(row, values) for row in interior
                          if row[3].keys() - {""} <= values.keys())
