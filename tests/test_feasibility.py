from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tesstopo.catalog import entries
from tesstopo.errors import InfeasibleParametersError, ParameterDomainError
from tesstopo.feasibility import (
    classify,
    classify_partial,
    hemi_pi_region,
    interior_rate_region,
    plate_cap,
    plate_profile_region,
    ridge_rate_interval,
    row_limit,
    sample_feasible,
    side_rate_interval,
)
from tesstopo.params import TessParams
from tesstopo import feasibility, params
from tesstopo.catalog import get
from tesstopo.scalar import Poly, Scalar
from tesstopo.transforms import mixture

import feasibility_reference as reference


def S(x):
    return Scalar(Fraction(x)) if not isinstance(x, tuple) else Scalar(*x)


def test_cubic_is_face_to_face_feasible():
    rep = classify(TessParams.create(6, 4, 4))
    assert rep.branch == "face_to_face"
    assert rep.feasible
    # the cubic lattice sits exactly on the plate cap
    assert "plates_per_edge_cap" in rep.boundary


def test_plate_cap_values():
    assert plate_cap(6) == 4
    assert plate_cap(4) == 3
    assert plate_cap(12) == 5


def test_infeasible_plate_overload():
    rep = classify(TessParams.create(6, 4, 12))
    assert not rep.feasible
    assert "vertices_per_plate_max" in rep.violated


def test_face_to_face_needs_cap():
    rep = classify(TessParams.create(6, Fraction(9, 2), 4))
    assert not rep.feasible
    assert rep.violated == ("plates_per_edge_cap",)


def test_interior_activity_needs_pi_edges():
    rep = classify(TessParams.create(6, 4, 4, ridge_interior_rate=1))
    assert rep.branch == "general"
    assert not rep.feasible
    assert "pi_edge_share_positive" in rep.violated


def test_iterated_division_point_sits_on_two_boundaries():
    p = TessParams.create(4, 3, Fraction(36, 7), pi_edge_share=1,
                          hemi_vertex_share=Fraction(2, 3),
                          ridge_interior_rate=2,
                          side_interior_rate=Fraction(4, 3))
    rep = classify(p)
    assert rep.feasible
    assert set(rep.boundary) == {"edges_per_vertex_min", "plates_per_edge_min",
                                 "pi_share_cap_apex_degree"}


def test_high_regime_lower_bound():
    # plates per edge above the cap forces a higher plate vertex count
    p = TessParams.create(6, 5, Fraction(7, 2), pi_edge_share=Fraction(1, 2),
                          ridge_interior_rate=3, side_interior_rate=Fraction(5, 2))
    rep = classify(p)
    assert "vertices_per_plate_high_regime_min" in rep.violated
    ok = p.with_values(vertices_per_plate=4)
    assert "vertices_per_plate_high_regime_min" not in classify(ok).violated


def test_ridge_rate_interval_basic():
    lo, hi = ridge_rate_interval(8, 4, Fraction(7, 2))
    assert lo == 0
    assert hi == Scalar(Fraction(26, 7))  # apex cap binds


def test_ridge_rate_interval_high_regime_floor():
    # above the cap the ridge rate cannot vanish
    lo, hi = ridge_rate_interval(Fraction(24, 5), Fraction(19, 5), Fraction(7, 2))
    assert lo == Scalar(Fraction(18, 25))
    assert lo > 0
    assert hi >= lo


def test_cyclic_prerequisites_enforced():
    with pytest.raises(InfeasibleParametersError):
        ridge_rate_interval(6, 5, Fraction(7, 2))  # high regime floor violated
    with pytest.raises(InfeasibleParametersError):
        side_rate_interval(8, 4, Fraction(7, 2), 100)
    with pytest.raises(InfeasibleParametersError):
        hemi_pi_region(6, 5, Fraction(7, 2), 0, 0)


def test_impossible_rates_give_empty_share_region():
    # side rate above its window: no shares can repair the rates
    assert hemi_pi_region(8, 4, Fraction(7, 2), 3, 100).kind == "empty"
    # a plate count above the ceiling forces positive rates, so offering
    # zero rates leaves nothing for the shares
    patch = hemi_pi_region(Fraction(24, 5), Fraction(19, 5), Fraction(7, 2), 0, 0)
    assert patch.kind == "empty"
    assert patch.vertices == ()


def test_side_rate_interval_values():
    lo, hi = side_rate_interval(8, 4, Fraction(7, 2), Fraction(5, 2))
    assert lo == Scalar(Fraction(1, 4))
    assert hi == Scalar(Fraction(16, 7))
    lo2, hi2 = side_rate_interval(8, 4, Fraction(7, 2), 3)
    assert lo2 == Scalar(Fraction(1, 2))
    assert hi2 == Scalar(Fraction(16, 7))


def test_hemi_pi_region_concurrency_vertex():
    # five bounding lines meet in a single region vertex
    patch = hemi_pi_region(8, 4, Fraction(7, 2), 3, Fraction(9, 5))
    assert patch.kind == "region"
    expect = {
        (Scalar(0), Scalar(Fraction(5, 14))),
        (Scalar(0), Scalar(Fraction(5, 8))),
        (Scalar(Fraction(5, 7)), Scalar(Fraction(25, 28))),
    }
    assert set(patch.vertices) == expect
    assert patch.open_edges == ()


def test_interior_rate_region_excludes_origin_in_high_regime():
    patch = interior_rate_region(Fraction(24, 5), Fraction(19, 5), Fraction(7, 2))
    assert patch.kind == "region"
    xs = [v[0] for v in patch.vertices]
    assert min(xs) == Scalar(Fraction(18, 25))
    assert (Scalar(0), Scalar(0)) not in set(patch.vertices)


def test_interior_rate_region_contains_reference_points():
    patch = interior_rate_region(8, 4, Fraction(7, 2))
    assert patch.kind == "region"

    def inside(psi, tau):
        psi, tau = Scalar(Fraction(psi)), Scalar(Fraction(tau))
        lo, hi = side_rate_interval(8, 4, Fraction(7, 2), psi)
        return lo <= tau <= hi

    assert inside("5/2", "6/5")
    assert inside(3, "9/5")


def test_divided_simplices_region_is_one_exact_point():
    # plate profile with quadratic pi^2 coordinates; the hemi share cap is
    # exactly zero and the pi share window closes to a single value
    ve = Scalar((70, 224), (35, 32))
    ep = Scalar((0, 12600, 12672), (1225, 4760, 2688))
    pv = Scalar((1575, 1584), (560, 384))
    psi = Scalar((0, 280, 4224), (1225, 1960, 768))
    tau = Scalar((0, -1120, 3264), (1225, 1960, 768))
    patch = hemi_pi_region(ve, ep, pv, psi, tau)
    assert patch.kind == "point"
    assert patch.vertices == ((Scalar(0), Scalar((0, 64), (35, 112))),)
    assert patch.open_edges == ()


def test_plate_profile_region_shape():
    reg = plate_profile_region(6)
    assert reg.plate_cap == 4
    assert reg.face_to_face.kind == "region"
    assert set(reg.face_to_face.vertices) == {
        (Scalar(3), Scalar(3)),
        (Scalar(Fraction(9, 2)), Scalar(3)),
        (Scalar(6), Scalar(4)),
        (Scalar(3), Scalar(4)),
    }
    lines = {p.name: p for p in reg.boundaries}
    assert lines["high_regime_edge"].included is False
    cross = lines["ridge_cap_crossover"]
    assert cross.style == "regime"
    assert cross.points[0] == (Scalar(Fraction(18, 5)), Scalar(3))
    assert cross.points[1] == (Scalar(Fraction(42, 5)), Scalar(7))


def test_plate_profile_region_degenerates_at_four():
    reg = plate_profile_region(4)
    # the face-to-face branch collapses onto the plate floor
    assert reg.face_to_face.kind == "segment"
    assert reg.face_to_face.vertices == ((Scalar(3), Scalar(3)), (Scalar(6), Scalar(3)))
    assert all(p.name != "ridge_cap_crossover" for p in reg.boundaries)


@pytest.mark.parametrize("ve", [Fraction(24, 5), 6, 8, 10, Fraction(121, 8)])
def test_ridge_cap_crossover_is_where_the_ridge_caps_meet(ve):
    # the line keeps a closed form; both ridge-cap rows must agree along it
    reg = plate_profile_region(ve, 9)
    cross = {p.name: p for p in reg.boundaries}["ridge_cap_crossover"]
    (pv0, ep0), (pv1, ep1) = cross.points
    for t in (0, Fraction(1, 3), 1):
        pv, ep = pv0 + t * (pv1 - pv0), ep0 + t * (ep1 - ep0)
        assert row_limit("ridge_rate_cap_apices", (ve, ep, pv)) \
            == row_limit("ridge_rate_cap_combined", (ve, ep, pv))


def test_row_limit_reads_only_the_profile_a_row_needs():
    assert row_limit("edges_per_vertex_min") == 4
    assert row_limit("vertices_per_plate_max", (6, 4)) == 6
    assert row_limit("vertices_per_plate_high_regime_min", (8, 5)) == Fraction(10, 3)
    assert row_limit("plates_per_edge_cap", (6,)) == plate_cap(6)
    # the apex-degree cap has no pv term
    rates = {"ridge_interior_rate": S(1), "hemi_vertex_share": S(0)}
    assert row_limit("pi_share_cap_apex_degree", (6, 5, 4), rates) \
        == row_limit("pi_share_cap_apex_degree", (6, 5, 9), rates)
    with pytest.raises(KeyError):
        row_limit("pi_share_cap_apex_degree", (6, 5))
    with pytest.raises(KeyError):
        row_limit("no_such_row", (6, 5, 4))


def test_row_limit_agrees_with_classify():
    for p in sample_feasible(count=5, seed=2):
        profile = (p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate)
        for b in classify(p).bounds:
            if b.applicable:
                assert row_limit(b.name, profile, p.as_dict()) == b.limit, b.name


def test_plate_profile_region_rejects_low_degree():
    with pytest.raises(InfeasibleParametersError):
        plate_profile_region(Fraction(7, 2))


def test_sampler_deterministic_and_feasible():
    a = sample_feasible(count=4, seed=11)
    b = sample_feasible(count=4, seed=11)
    assert a == b
    for p in a:
        rep = classify(p)
        assert rep.branch == "general"
        assert rep.feasible
        assert p.pi_edge_share > 0
    c = sample_feasible(count=3, seed=11, face_to_face=True)
    for p in c:
        rep = classify(p)
        assert rep.branch == "face_to_face"
        assert rep.feasible
    assert sample_feasible(count=4, seed=12) != a
    with pytest.raises(ValueError, match="^count must be nonnegative$"):
        sample_feasible(count=-1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_sampled_points_always_classify_feasible(seed):
    for p in sample_feasible(count=1, seed=seed):
        assert classify(p).feasible
    for p in sample_feasible(count=1, seed=seed, face_to_face=True):
        assert classify(p).feasible


def test_report_json_shape():
    rep = classify(TessParams.create(6, 4, 4))
    j = rep.as_doc()
    assert j["feasible"] is True
    assert j["branch"] == "face_to_face"
    names = [b["name"] for b in j["bounds"]]
    assert "edges_per_vertex_min" in names
    assert all(set(b) >= {"name", "parameter", "relation", "limit", "value",
                          "applicable", "satisfied", "on_boundary"}
               for b in j["bounds"])


def _rate_bounds(rate, values):
    """The table's floor and ceiling of ``rate`` once ``values`` fix the
    other rates, from the general branch's rows."""
    return feasibility._rate_bounds(feasibility._GENERAL, rate, values.keys(),
                                    params._densities(values))


def test_staged_regions_agree_with_classify():
    # the staged forms are projections of the classify rows: the ridge
    # interval, read off the clipped rate polygon, is the one that
    # Fourier-Motzkin elimination of the side rate gives, and every corner
    # of the share polygon with a positive pi share is a feasible tuple
    tuples = [e.to_params() for e in entries() if e.is_complete]
    tuples = [p for p in tuples if not p.is_face_to_face]
    samples = sample_feasible(count=60, seed=2)
    tuples += samples + [mixture([(get(name).to_params(), Fraction(1, 3)), (s, Fraction(2, 3))])
                         for name in ("ex08_divided_delaunay", "ex13a_weighted_mixture",
                                      "ex13b_equal_mixture")
                         for s in samples[:2]]
    for p in tuples:
        ve, ep, pv = p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate
        assert ridge_rate_interval(ve, ep, pv) == reference.ridge_bounds(
            reference.interior_rows(ve, ep, pv))
        shares = hemi_pi_region(ve, ep, pv, p.ridge_interior_rate, p.side_interior_rate)
        for kappa, xi in shares.vertices:
            if xi > 0:
                corner = p.with_values(hemi_vertex_share=kappa, pi_edge_share=xi)
                assert classify(corner).feasible, (p, kappa, xi)


def test_a_segment_shaped_rate_region_has_the_reference_ridge_interval():
    # at (9/2, 3, 3) the plate-corner ceiling is tau <= 0, so the rate
    # polygon is the segment from (0, 0) to the apex cap (1/4, 0)
    profile = (Fraction(9, 2), 3, 3)
    patch = interior_rate_region(*profile)
    assert (patch.kind, set(patch.vertices)) == ("segment", {(S(0), S(0)), (S("1/4"), S(0))})
    rows = reference.interior_rows(*map(S, profile))
    assert ridge_rate_interval(*profile) == reference.ridge_bounds(rows) == (S(0), S("1/4"))


def test_staged_regions_clip_on_ints_or_pi2_polynomials(monkeypatch):
    # a rational profile clips on int alone; a pi^2 profile on ints and
    # integer polynomials in pi^2, never on canonical Scalars
    seen = []
    clip = feasibility.clip
    monkeypatch.setattr(feasibility, "clip",
                        lambda ring, lines: seen.append((ring, lines)) or clip(ring, lines))

    def numbers():
        out = {type(x) for ring, lines in seen
               for line in [*lines, *(corner[3] for corner in ring)] for x in line}
        seen.clear()
        return out

    for entry, types in (("ex04_stit", {int}), ("ex13a_weighted_mixture", {int, Poly})):
        p = get(entry).to_params()
        ve, ep, pv = p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate
        interior_rate_region(ve, ep, pv)
        hemi_pi_region(ve, ep, pv, p.ridge_interior_rate, p.side_interior_rate)
        assert numbers() == types


def test_a_plate_profile_is_clipped_once(monkeypatch):
    # the rate polygon is clipped once per profile, and the intervals read
    # its ridge extent; only the share region clips again, on its own box
    calls = []
    clip = feasibility.clip
    monkeypatch.setattr(feasibility, "clip",
                        lambda ring, lines: calls.append(ring) or clip(ring, lines))
    feasibility._rate_polygon.cache_clear()
    for entry in ("ex04_stit", "ex13a_weighted_mixture"):
        p = get(entry).to_params()
        ve, ep, pv = p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate
        ridge_rate_interval(ve, ep, pv)
        assert len(calls) == 1
        side_rate_interval(ve, ep, pv, p.ridge_interior_rate)
        interior_rate_region(ve, ep, pv)
        assert len(calls) == 1
        hemi_pi_region(ve, ep, pv, p.ridge_interior_rate, p.side_interior_rate)
        assert len(calls) == 2
        # the unit (hemi share, pi share) box
        assert [corner[3] for corner in calls[1]] == [(0, -1, 0), (1, 0, -1), (0, 1, -1),
                                                      (-1, 0, 0)]
        calls.clear()


def test_the_sampler_clips_its_own_polygon():
    # each general-branch draw clips the rate polygon of the densities it has
    # just extended, so the staged callers' cached profiles stay in place
    feasibility._rate_polygon.cache_clear()
    p = get("ex04_stit").to_params()
    profile = (p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate)
    interval = ridge_rate_interval(*profile)
    sample_feasible(count=20, seed=1)
    assert feasibility._rate_polygon.cache_info().misses == 1
    assert ridge_rate_interval(*profile) == interval
    assert feasibility._rate_polygon.cache_info().hits == 1


def _pi2_mixtures():
    samples = sample_feasible(count=3, seed=5)
    return [mixture([(get(name).to_params(), w), (s, 1 - w)])
            for name in ("ex08_divided_delaunay", "ex13a_weighted_mixture",
                         "ex13b_equal_mixture")
            for s in samples for w in (Fraction(1, 4), Fraction(2, 3))]


PI2_MIXTURES = _pi2_mixtures()


def _rational_profile(ve_t, ep_t, pv_t):
    # strictly inside the general branch's cyclic rows, up to 4 past the cap
    ve = S(4 + 10 * ve_t)
    ep = S(3) + (plate_cap(ve) + 1) * S(ep_t)
    pv_lo = max(S(3), row_limit("vertices_per_plate_high_regime_min", (ve, ep)))
    pv_hi = row_limit("vertices_per_plate_max", (ve, ep))
    return ve, ep, pv_lo + (pv_hi - pv_lo) * S(pv_t)


UNIT = st.fractions(0, 1, max_denominator=60)
OPEN_UNIT = UNIT.filter(lambda t: 0 < t < 1)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(UNIT, UNIT, OPEN_UNIT).map(lambda t: _rational_profile(*t)),
                 st.sampled_from(PI2_MIXTURES).map(
                     lambda p: (p.edges_per_vertex, p.plates_per_edge,
                                p.vertices_per_plate))))
def test_every_cyclic_profile_has_a_rate_polygon_from_the_excess_floor(profile):
    # a second route for what the module docstring proves: the polygon is not
    # empty, its ridge interval starts at m = max(0, (ve/2)(ep - cap)), (m, m)
    # is one of its corners, and every corner leaves a hemi-share cap at pi
    # share 1
    ve, ep, pv = profile
    m = max(S(0), ve / 2 * (ep - plate_cap(ve)))
    assert ridge_rate_interval(*profile)[0] == m
    patch = interior_rate_region(*profile)
    assert (m, m) in patch.vertices
    for psi, tau in patch.vertices:
        _, kappa_cap = _rate_bounds(feasibility.KAPPA, {
            **dict(zip((feasibility.VE, feasibility.EP, feasibility.PV), profile)),
            feasibility.PSI: psi, feasibility.TAU: tau, feasibility.XI: S(1)})
        assert kappa_cap >= 0


def test_the_pi_share_window_can_be_empty():
    # why the sampler keeps its one rejection: at this profile the corner
    # psi = tau = 166/75 of the rate polygon, with hemi share 0, leaves only
    # pi share 0, which the branch excludes
    profile = tuple(map(S, ("76/15", "428/95", "49327/11500")))
    psi = tau = S("166/75")
    assert (psi, tau) in interior_rate_region(*profile).vertices
    assert _rate_bounds(feasibility.XI, {
        **dict(zip((feasibility.VE, feasibility.EP, feasibility.PV), profile)),
        feasibility.PSI: psi, feasibility.TAU: tau, feasibility.KAPPA: S(0)}) == (S(0), S(0))


# positive factors, two of them with a canonical denominator negative at pi^2
PI2_FACTORS = (S(1), S("7/3"), Scalar((-1,), (-10, 1)), Scalar((-3, 1), (-1000, 100)),
               Scalar((35, 24), (0, 12)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sample_feasible(count=6, seed=9) + PI2_MIXTURES),
       st.lists(st.sampled_from(PI2_FACTORS), min_size=7, max_size=7))
def test_a_vector_extended_rate_by_rate_is_the_tuples_densities(p, factors):
    # the staged helpers and the sampler extend a vector one rate at a time;
    # it must be the table's density vector times a positive factor, also for
    # a rate whose denominator is negative at pi^2
    values = {rate: getattr(p, rate) * f for rate, f in zip(
        (feasibility.VE, feasibility.EP, feasibility.PV, feasibility.XI, feasibility.KAPPA,
         feasibility.PSI, feasibility.TAU), factors)}
    dens = feasibility._UNIT
    for rate, value in values.items():
        dens = feasibility._extend(dens, rate, value)
    fresh = params._densities(values)
    assert dens[0] * fresh[0] > 0
    assert all(a * fresh[0] == dens[0] * b for a, b in zip(dens, fresh))


FIELDS = ("edges_per_vertex", "plates_per_edge", "vertices_per_plate", "pi_edge_share",
          "hemi_vertex_share", "ridge_interior_rate", "side_interior_rate")
SAMPLES = sample_feasible(count=20, seed=17) + sample_feasible(count=20, seed=17,
                                                               face_to_face=True)


@st.composite
def _tuples(draw):
    """Rational tuples from a box (ve = 2 and below included, so that rows
    stop applying), and sampled or pi^2 tuples with one field scaled, most of
    them infeasible."""
    kind = draw(st.sampled_from(("box", "sample", "pi2")))
    if kind == "box":
        positive = st.fractions(Fraction(1, 2), 14, max_denominator=24)
        ve = draw(st.one_of(st.just(Fraction(2)), positive))
        ep, pv = draw(positive), draw(positive)
        if draw(st.booleans()):
            return TessParams.create(ve, ep, pv)
        rates = st.fractions(0, 12, max_denominator=24)
        return TessParams.create(ve, ep, pv, draw(UNIT), draw(UNIT), draw(rates), draw(rates))
    p = draw(st.sampled_from(SAMPLES if kind == "sample" else PI2_MIXTURES))
    field = draw(st.sampled_from(FIELDS))
    try:
        return p.with_values(**{field: getattr(p, field)
                                * draw(st.fractions(0, 3, max_denominator=12))})
    except ParameterDomainError:
        return p


@settings(max_examples=150, deadline=None)
@given(_tuples())
def test_every_bound_is_the_reference_rows_bound(p):
    # the density table against the per-profile rows it replaced: the same
    # limit, value, applicable, satisfied and on_boundary for every row, on
    # rational and pi^2 tuples, feasible or not, and on partial records
    values = p.as_dict()
    report = classify(p)
    assert report.bounds == reference.classify_partial(values, report.branch)
    for keep in FIELDS[:2], FIELDS[:3], FIELDS[:3] + FIELDS[4:6]:
        part = {k: values[k] for k in keep}
        for branch in ("general", "face_to_face"):
            assert classify_partial(part, branch) == reference.classify_partial(part, branch)


@settings(max_examples=150, deadline=None)
@given(st.tuples(UNIT, UNIT, UNIT, UNIT, UNIT, UNIT, UNIT))
def test_the_other_general_rows_imply_the_high_regime_floor(t):
    # on and above the cap, with e = (ve/4)(ep - cap): tau <= psi and
    # tau >= psi/2 + e leave tau >= 2e, and the plate-corner ceiling then
    # puts pv at or above the floor, at it only with psi = tau = 2e, where the
    # pi-share rows fail; below the cap, pv >= 3 already puts it above. So a
    # tuple with pv at or under the floor that meets every other general row
    # does not exist. Here psi and tau meet the two side-rate rows, and
    # t = 0 is the one candidate. The row stays in the report, applicable
    # from the cap up.
    ve_t, ep_t, pv_t, psi_t, tau_t, kappa, xi = t
    ve = S(4 + 10 * ve_t)
    ep = plate_cap(ve) + 2 * S(ep_t)
    e = ve / 4 * (ep - plate_cap(ve))
    floor = row_limit("vertices_per_plate_high_regime_min", (ve, ep))
    pv = floor - (floor - 3) * S(pv_t)
    psi = 2 * e + 8 * S(psi_t)
    tau = psi / 2 + e + (psi / 2 - e) * S(tau_t)
    p = TessParams.create(ve, ep, pv, max(S(xi), S("1/64")), kappa, psi, tau)
    report = classify(p)
    high = {b.name: b for b in report.bounds}["vertices_per_plate_high_regime_min"]
    assert high.applicable and not high.satisfied
    assert set(report.violated) - {high.name}
    for q in SAMPLES[:20]:
        bounds = {b.name: b for b in classify(q).bounds}
        assert bounds[high.name].satisfied
        assert bounds[high.name].applicable == (q.plates_per_edge >= plate_cap(q.edges_per_vertex))
