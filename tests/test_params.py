import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import params_reference as reference
from tesstopo.catalog import get
from tesstopo.errors import (DegenerateIntensityError, ParameterDomainError,
                             PlanarParameterError, TesstopoError, UsageError)
from tesstopo.feasibility import classify, sample_feasible
from tesstopo.io import (PLANAR_ALIASES, encode, params_from_mapping, parse_generator_args,
                         parse_pairs)
from tesstopo.params import (
    TessParams,
    cell_intensity_form,
    check_identities,
    densities,
    derive,
    from_densities,
    is_consistent,
)
from tesstopo.scalar import PI2, Scalar
from tesstopo.transforms import PlanarParams, central_point, mixture


CUBIC = TessParams.create(6, 4, 4)


def test_cubic_lattice_derivation():
    s = derive(CUBIC)
    assert s.intensities["edges"] == 3
    assert s.intensities["plates"] == 3
    assert s.intensities["cells"] == 1
    assert s.mean_adjacent("vertex", "plate") == 12
    assert s.mean_adjacent("vertex", "cell") == 8
    assert s.mean_adjacent("cell", "vertex") == 8
    assert s.mean_adjacent("cell", "edge") == 12
    assert s.mean_adjacent("cell", "plate") == 6
    assert (s.apices_per_cell, s.ridges_per_cell, s.sides_per_cell) == (8, 12, 6)
    assert s.corners_per_plate == 4
    assert s.corners_per_cell_side == 4
    assert s.pi_edges_per_vertex == 0


def test_iterated_division_cell_statistics():
    # a well-known non-face-to-face division process: cuboid cells
    p = TessParams.create(4, 3, Fraction(36, 7), pi_edge_share=1,
                          hemi_vertex_share=Fraction(2, 3),
                          ridge_interior_rate=2,
                          side_interior_rate=Fraction(4, 3))
    s = derive(p)
    assert s.mean_adjacent("cell", "vertex") == 24
    assert (s.apices_per_cell, s.ridges_per_cell, s.sides_per_cell) == (8, 12, 6)
    assert s.intensities["cells"] == Scalar(Fraction(1, 6))
    assert is_consistent(s)


def test_simplex_cell_statistics_with_pi_squared_values():
    # duals of the previous family: simplex cells, parameters in Q(pi^2)
    ve = Scalar((70, 48), (35,))
    ep = Scalar((0, 144), (35, 24))
    p = TessParams.create(ve, ep, 3)
    s = derive(p)
    assert (s.apices_per_cell, s.ridges_per_cell, s.sides_per_cell) == (4, 6, 4)
    assert s.mean_adjacent("vertex", "plate") == Scalar((0, 144), (35,))
    assert is_consistent(s)


def test_prism_family_polygon_statistics():
    p = TessParams.create(4, Fraction(7, 2), Fraction(28, 5),
                          pi_edge_share=Fraction(1, 2),
                          ridge_interior_rate=3, side_interior_rate=2)
    s = derive(p)
    assert s.corners_per_cell_side == 4
    assert s.corners_per_plate == 4
    assert is_consistent(s)


def test_form_values():
    assert cell_intensity_form(Scalar(6), Scalar(4), 4) == 8
    assert cell_intensity_form(Scalar(6), Scalar(4), 2) == 16


def test_degenerate_intensity_raises():
    with pytest.raises(DegenerateIntensityError):
        derive(TessParams.create(6, 4, 12))


def test_domain_validation():
    with pytest.raises(ParameterDomainError):
        TessParams.create(0, 4, 4)
    with pytest.raises(ParameterDomainError):
        TessParams.create(6, 4, 4, pi_edge_share=2)
    with pytest.raises(ParameterDomainError):
        TessParams.create(6, 4, 4, ridge_interior_rate=-1)
    with pytest.raises(ParameterDomainError):
        TessParams.create(6, 4, 4, vertex_intensity=0)


def test_a_record_that_exists_is_valid():
    # the class itself and dataclasses.replace check the domain, not only create
    with pytest.raises(ParameterDomainError, match="pi_edge_share"):
        TessParams(6, 4, 4, pi_edge_share=2)
    with pytest.raises(ParameterDomainError, match="pi_edge_share"):
        dataclasses.replace(CUBIC, pi_edge_share=2)
    assert TessParams("6", 4, Fraction(4)) == CUBIC
    assert all(type(v) is Scalar for v in TessParams(6, 4, 4).as_dict().values())
    with pytest.raises(PlanarParameterError, match="at least three edges"):
        PlanarParams(2)
    assert PlanarParams("3").degree_second_moment is None


def test_face_to_face_flag():
    assert CUBIC.is_face_to_face
    assert not CUBIC.with_values(pi_edge_share=Fraction(1, 2)).is_face_to_face


def test_with_values_revalidates():
    with pytest.raises(ParameterDomainError):
        CUBIC.with_values(hemi_vertex_share=3)


def test_params_from_mapping_rejects_unknown_and_missing_fields():
    with pytest.raises(UsageError, match="missing required parameter plates_per_edge"):
        params_from_mapping(TessParams, {"edges_per_vertex": 6})
    with pytest.raises(UsageError, match="unknown parameter 'bogus'"):
        params_from_mapping(TessParams, {"edges_per_vertex": 6, "plates_per_edge": 4,
                                         "vertices_per_plate": 4, "bogus": 1})
    with pytest.raises(UsageError, match="missing required parameter edges_per_vertex"):
        params_from_mapping(PlanarParams, {"pi_vertex_share": 0})


def test_tampered_summary_is_flagged():
    s = derive(CUBIC)
    bad = dataclasses.replace(
        s, intensities={**s.intensities, "plates": s.intensities["plates"] + 1})
    assert is_consistent(s)
    assert not is_consistent(bad)
    res = check_identities(bad)
    assert res["euler_intensities"] != 0
    assert res["pairing_vertex_plate"] != 0


rational = st.fractions(min_value=0, max_value=3).map(lambda q: Fraction(q).limit_denominator(12))


@st.composite
def valid_params(draw):
    ve = 3 + draw(rational)
    ep = 3 + draw(rational)
    pv = 3 + draw(rational)
    xi = draw(rational) / 3
    kappa = draw(rational) / 3
    psi = draw(rational)
    tau = draw(rational)
    p = TessParams.create(ve, ep, pv, xi, kappa, psi, tau,
                          vertex_intensity=1 + draw(rational))
    return p


@given(valid_params())
def test_identities_hold_whenever_derivation_succeeds(p):
    try:
        s = derive(p)
    except DegenerateIntensityError:
        return
    assert all(not v for v in check_identities(s).values())


@given(valid_params())
def test_intensity_scaling_is_linear(p):
    try:
        s1 = derive(p)
    except DegenerateIntensityError:
        return
    s3 = derive(p.with_values(vertex_intensity=p.vertex_intensity * 3))
    for k, v in s1.intensities.items():
        assert s3.intensities[k] == 3 * v
    assert s3.mean_adjacencies == s1.mean_adjacencies


@given(valid_params())
@example(TessParams.create(6, 4, 12))  # cell intensity not positive
@example(TessParams.create(3, 3, 8, 1))  # cell side intensity not positive
def test_central_point_checks_what_derive_checks(p):
    # the same error, message and order; otherwise the new vertex intensity
    # is the old one plus derive's cell intensity
    try:
        cells = derive(p).intensities["cells"]
    except DegenerateIntensityError as e:
        with pytest.raises(DegenerateIntensityError) as got:
            central_point(p)
        assert str(got.value) == str(e)
        return
    try:
        coned = central_point(p)
    except (ParameterDomainError, ZeroDivisionError):
        return
    assert coned.vertex_intensity == p.vertex_intensity + cells


def test_readers_refuse_what_they_cannot_read():
    with pytest.raises(UsageError, match="^expected key=value, got 've'$"):
        parse_pairs(["ve"], PLANAR_ALIASES)
    with pytest.raises(UsageError, match="^parameter 'edges_per_vertex' given twice$"):
        parse_pairs(["ve=3", "edges_per_vertex=4"], PLANAR_ALIASES)
    with pytest.raises(UsageError, match="^expected key=value generator argument, got 'k'$"):
        parse_generator_args(["k"])
    with pytest.raises(TypeError, match="^cannot encode object$"):
        encode(object(), 20)


def test_records_refuse_values_outside_their_domain():
    with pytest.raises(PlanarParameterError, match="^vertex intensity must be positive$"):
        PlanarParams(3, vertex_intensity=0)
    with pytest.raises(PlanarParameterError, match=r"^pi ends per edge must lie in \[0, 2\]$"):
        PlanarParams(3, pi_ends_per_edge=3)
    # six edges per vertex, but a single plate per edge and vertex per plate
    with pytest.raises(DegenerateIntensityError,
                       match="^cells-per-vertex mean is not positive for these parameters$"):
        derive(TessParams.create(6, 1, 1))
    with pytest.raises(KeyError, match="no adjacency mean for"):
        derive(CUBIC).mean_adjacent("cell", "cell")


SAMPLED = sample_feasible(count=12, seed=17) + sample_feasible(count=12, seed=17,
                                                               face_to_face=True)
PI2_MIXTURES = [mixture([(get(name).to_params(), w), (q, 1 - w)])
                for name in ("ex01_voronoi", "ex08_divided_delaunay", "ex13a_weighted_mixture",
                             "ex13b_equal_mixture")
                for q in SAMPLED[:2] + SAMPLED[12:13] for w in (Fraction(1, 4), Fraction(2, 3))]
PI2_POINTS = PI2_MIXTURES + [central_point(p) for p in PI2_MIXTURES]


@st.composite
def degenerate_params(draw):
    """Tuples at or past the point where one of derive's three forms, cells
    V - E + P, vertex-cell incidences 2V - 2E + I or cell sides 2P - X + K,
    stops being positive, the forms before it still positive."""
    past = 1 + draw(st.fractions(0, 2, max_denominator=12))
    which = draw(st.sampled_from(("cells", "vertex_cells", "sides")))
    if which == "cells":  # pv at or past ve·ep/(ve - 2)
        ve = draw(st.fractions(Fraction(5, 2), 12, max_denominator=12))
        ep = draw(st.fractions(Fraction(1, 4), 8, max_denominator=12))
        return TessParams.create(ve, ep, ve * ep / (ve - 2) * past)
    if which == "vertex_cells":  # ep at or under 2(ve - 2)/ve, pv small enough for cells
        ve = draw(st.fractions(Fraction(5, 2), 12, max_denominator=12))
        ep = 2 * (ve - 2) / ve / past
        return TessParams.create(ve, ep, ve * ep / (ve - 2) / 2)
    # with pi share 1 and hemi share 0, pv at or past 2 ep; ve = 3 leaves cells
    # positive below pv = 3 ep
    ep = draw(st.fractions(1, 8, max_denominator=12))
    return TessParams.create(3, ep, 2 * ep * min(past, Fraction(4, 3)), 1)


def _outcome(f, p):
    """f at p, or the type of the error it raises, with the text of a typed one."""
    try:
        return f(p)
    except TesstopoError as exc:
        return type(exc), str(exc)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=200, deadline=None)
@given(st.one_of(valid_params(), degenerate_params(), st.sampled_from(SAMPLED),
                 st.sampled_from(PI2_POINTS)))
@example(TessParams.create(6, 4, 12))  # cell intensity not positive
@example(TessParams.create(6, 1, 1))  # cells-per-vertex mean not positive
@example(TessParams.create(3, 3, 8, 1))  # cell side intensity not positive
@example(TessParams.create(4, 3, 4, ridge_interior_rate=6))  # coned edge density 0
@example(TessParams.create(4, 3, 4, 1, ridge_interior_rate=Fraction(11, 2)))  # coned plate density 0
def test_derive_and_central_point_equal_the_scalar_reference(p):
    # the quotients of integer density forms against the Scalar formulas they
    # replaced, on rational box tuples, sampled tuples of both branches, pi^2
    # mixtures and their central points, and degenerate tuples: the same
    # summary and the same central point, or the same error
    assert _outcome(derive, p) == _outcome(reference.derive, p)
    coned = _outcome(central_point, p)
    assert coned == _outcome(reference.central_point, p)
    if isinstance(coned, TessParams):
        # the matrix product it keeps classifies as a fresh record's densities do
        assert classify(coned) == classify(TessParams(**coned.as_dict()))
    # the densities per unit volume, and back
    dens = densities(p)
    lv, ve = p.vertex_intensity, p.edges_per_vertex
    ep, pv = p.plates_per_edge, p.vertices_per_plate
    assert dens == (lv, lv * ve / 2, lv * ve * ep / 2, lv * ve * ep / (2 * pv),
                    lv * ve * p.pi_edge_share / 2, lv * p.hemi_vertex_share,
                    lv * p.ridge_interior_rate, lv * p.side_interior_rate)
    assert from_densities(dens) == p


def test_from_densities_refuses_what_gives_no_tuple():
    with pytest.raises(ParameterDomainError, match="expected 8 densities, got 3"):
        from_densities([1, 3, 12])
    with pytest.raises(ParameterDomainError, match="V, E, I and P must be positive"):
        from_densities([1, 3, 12, 0, 0, 0, 0, 0])
    with pytest.raises(ParameterDomainError, match="pi_edge_share must lie in"):
        from_densities([1, 3, 12, 3, 4, 0, 0, 0])
    assert from_densities(["pi^2", 3, 12, 3, 0, 0, 0, 0]) == CUBIC.with_values(
        edges_per_vertex=6 / PI2, plates_per_edge=4, vertices_per_plate=4, vertex_intensity=PI2)
