from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tesstopo.catalog import entries
from tesstopo.errors import InfeasibleParametersError
from tesstopo.feasibility import (
    classify,
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
from tesstopo.scalar import Scalar


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


def test_staged_regions_agree_with_classify():
    # the staged forms are projections of the classify rows: the ridge
    # interval is the ridge extent of the rate polygon, and every corner of
    # the share polygon with a positive pi share is a feasible tuple
    tuples = [e.to_params() for e in entries() if e.is_complete]
    tuples = [p for p in tuples if not p.is_face_to_face]
    tuples += sample_feasible(count=60, seed=2)
    for p in tuples:
        ve, ep, pv = p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate
        rates = interior_rate_region(ve, ep, pv)
        ridges = [v[0] for v in rates.vertices]
        assert ridge_rate_interval(ve, ep, pv) == (min(ridges), max(ridges))
        shares = hemi_pi_region(ve, ep, pv, p.ridge_interior_rate, p.side_interior_rate)
        for kappa, xi in shares.vertices:
            if xi > 0:
                corner = p.with_values(hemi_vertex_share=kappa, pi_edge_share=xi)
                assert classify(corner).feasible, (p, kappa, xi)
