"""Golden cases and structural properties of the four constructions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import params_reference as reference

from tesstopo.catalog import entries
from tesstopo.errors import DegenerateIntensityError, MixtureShareError, PlanarParameterError
from tesstopo.feasibility import classify, plate_cap, sample_feasible
from tesstopo.params import TessParams, densities, derive
from tesstopo.scalar import Scalar
from tesstopo.transforms import (
    MixtureCurve,
    PlanarParams,
    central_point,
    central_point_orbit,
    column,
    mixture,
    mixture_curve,
    planar_cairo,
    planar_delaunay,
    planar_gridded_square,
    planar_hexagon_grid,
    planar_square_grid,
    planar_stit,
    planar_triangle_grid,
    planar_voronoi,
    planar_voronoi_delaunay_overlay,
    stratum,
)

CUBIC = TessParams.create(6, 4, 4)
STIT = TessParams.create(4, 3, Fraction(36, 7), 1, Fraction(2, 3), 2, Fraction(4, 3))
VORONOI = TessParams.create(4, 3, Scalar((0, 144), (35, 24)))
DELAUNAY = TessParams.create(Scalar((70, 48), 35), Scalar((0, 144), (35, 24)), 3)


def cyclic(p: TessParams):
    return (p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate)


def interior(p: TessParams):
    return (p.pi_edge_share, p.hemi_vertex_share,
            p.ridge_interior_rate, p.side_interior_rate)


class TestStratum:
    def test_over_planar_voronoi(self):
        p = stratum(planar_voronoi())
        assert cyclic(p) == (5, Fraction(18, 5), Fraction(9, 2))
        assert p.is_face_to_face

    def test_over_planar_delaunay(self):
        p = stratum(planar_delaunay())
        assert cyclic(p) == (8, Fraction(9, 2), Fraction(18, 5))

    def test_over_overlay_gives_cubic_profile(self):
        p = stratum(planar_voronoi_delaunay_overlay())
        assert cyclic(p) == (6, 4, 4)
        assert interior(p) == (0, 0, 0, 0)

    def test_over_planar_stit(self):
        p = stratum(planar_stit())
        assert cyclic(p) == (5, Fraction(18, 5), Fraction(9, 2))
        assert interior(p) == (Fraction(2, 5), 0, 2, 1)

    def test_keeps_vertex_intensity(self):
        p = stratum(planar_voronoi(vertex_intensity=7))
        assert p.vertex_intensity == 7

    def test_side_to_side_strata_sit_on_the_ceiling_curve(self):
        for planar in (planar_voronoi(), planar_delaunay(),
                       planar_voronoi_delaunay_overlay(), planar_cairo()):
            p = stratum(planar)
            assert p.plates_per_edge == plate_cap(p.edges_per_vertex)
            assert classify(p).feasible

    def test_stratum_with_pi_vertices_is_feasible(self):
        for n in (1, 2, 5):
            assert classify(stratum(planar_gridded_square(n))).feasible

    def test_is_linear_in_the_planar_densities(self):
        # the density route against the Scalar formulas it replaced
        for planar in (planar_cairo(2), planar_stit(Fraction(1, 3)), planar_voronoi(),
                       planar_gridded_square(2, 5), planar_delaunay(Scalar((35, 24), 3))):
            v = planar.vertex_intensity
            e, f = v * planar.edges_per_vertex / 2, v * planar.pi_vertex_share
            assert densities(stratum(planar)) == (v, e + v, 6 * e, 2 * e - v, f, 0, 2 * f, f)
            assert stratum(planar) == reference.stratum(planar)


class TestColumn:
    def test_square_grid(self):
        p = column(planar_square_grid())
        assert cyclic(p) == (4, Fraction(7, 2), Fraction(28, 5))
        assert interior(p) == (Fraction(1, 2), 0, 3, 2)
        assert p.vertex_intensity == 4

    def test_triangle_grid(self):
        p = column(planar_triangle_grid())
        assert cyclic(p) == (4, Fraction(9, 2), Fraction(27, 4))
        assert interior(p) == (Fraction(1, 2), 0, 5, 4)

    def test_hexagon_grid(self):
        p = column(planar_hexagon_grid())
        assert cyclic(p) == (4, 3, Fraction(36, 7))
        assert interior(p) == (Fraction(1, 2), 0, 2, 1)

    def test_cairo(self):
        p = column(planar_cairo())
        assert cyclic(p) == (4, Fraction(16, 5), Fraction(16, 3))
        assert interior(p) == (Fraction(1, 2), 0, Fraction(12, 5), Fraction(7, 5))

    def test_planar_stit_columns_reproduce_iterated_division(self):
        p = column(planar_stit())
        assert cyclic(p) == cyclic(STIT)
        assert interior(p) == interior(STIT)
        assert p.vertex_intensity == 2

    def test_gridded_square_family(self):
        p = column(planar_gridded_square(8))
        assert p.plates_per_edge == Fraction(431, 66)
        assert p.pi_edge_share == Fraction(19, 22)
        assert p.hemi_vertex_share == Fraction(16, 33)
        assert p.ridge_interior_rate == Fraction(299, 33)
        assert p.side_interior_rate == Fraction(274, 33)
        assert classify(p).feasible

    def test_column_outputs_are_feasible(self):
        for planar in (planar_square_grid(), planar_triangle_grid(),
                       planar_hexagon_grid(), planar_cairo(), planar_stit(),
                       planar_gridded_square(3)):
            assert classify(column(planar)).feasible

    def test_needs_second_moment(self):
        with pytest.raises(PlanarParameterError):
            column(planar_delaunay())


class TestCentralPoint:
    def test_of_cubic(self):
        p = central_point(CUBIC)
        assert cyclic(p) == (11, Fraction(48, 11), Fraction(16, 5))
        assert interior(p) == (0, 0, 0, 0)
        assert p.vertex_intensity == 2
        assert classify(p).feasible

    def test_of_iterated_division(self):
        p = central_point(STIT)
        assert cyclic(p) == (Fraction(40, 7), Fraction(21, 5), Fraction(84, 19))
        assert interior(p) == (Fraction(3, 5), Fraction(4, 7),
                               Fraction(24, 7), Fraction(20, 7))
        assert p.vertex_intensity == Fraction(7, 6)
        assert classify(p).feasible

    def test_of_triangle_columns(self):
        p = central_point(column(planar_triangle_grid()))
        assert cyclic(p) == (6, Fraction(23, 4), Fraction(69, 13))
        assert interior(p) == (Fraction(1, 4), 0, Fraction(15, 2), Fraction(27, 4))
        assert classify(p).feasible

    def test_of_voronoi(self):
        p = central_point(VORONOI)
        assert p.edges_per_vertex == Scalar((0, 288), (35, 24))
        assert p.plates_per_edge == 4
        assert p.vertices_per_plate == Scalar((0, 576), (35, 168))
        assert p.is_face_to_face
        assert p.vertex_intensity == Scalar((35, 24), (0, 24))
        assert classify(p).feasible

    def test_of_delaunay(self):
        # checked two ways: via the transform formulas and by counting the
        # coned pieces of a tetrahedral cell directly
        p = central_point(DELAUNAY)
        assert p.edges_per_vertex == Scalar((70, 240), (35, 24))
        assert p.plates_per_edge == Scalar((0, 576), (35, 120))
        assert p.vertices_per_plate == 3
        assert p.vertex_intensity == Scalar((35, 24), 35)
        # every new cell is coned over a triangle, so the ceiling is met
        assert p.plates_per_edge == plate_cap(p.edges_per_vertex)
        assert classify(p).feasible

    @pytest.mark.parametrize("values, what", [
        ({"ridge_interior_rate": 6}, "edge"),  # E' = 0
        ({"ridge_interior_rate": 7}, "edge"),  # E' < 0
        ({"pi_edge_share": 1, "ridge_interior_rate": Fraction(11, 2)}, "plate"),  # P' = 0
        ({"pi_edge_share": 1, "ridge_interior_rate": Fraction(23, 4)}, "plate"),  # P' < 0
    ])
    def test_refuses_a_coned_intensity_that_is_not_positive(self, values, what):
        p = TessParams.create(4, 3, 4, **values)
        derive(p)  # the input itself derives
        with pytest.raises(DegenerateIntensityError,
                           match=f"^coned {what} intensity is not positive for these parameters$"):
            central_point(p)

    def test_orbit(self):
        orbit = central_point_orbit(CUBIC, 2)
        assert orbit[0] is CUBIC
        assert orbit[1] == central_point(CUBIC)
        assert orbit[2] == central_point(central_point(CUBIC))
        with pytest.raises(ValueError):
            central_point_orbit(CUBIC, -1)

    def test_orbit_stays_feasible(self):
        for p in central_point_orbit(STIT, 3)[1:]:
            assert classify(p).feasible

    def test_orbit_tends_to_the_fixed_tuple(self):
        # the matrix's eigenvalue 4 has (8, 9/2, 3, 0, 0, 0, 0) as its tuple,
        # which the transform keeps with four times the vertex intensity; the
        # next eigenvalue is 2, so every orbit nears it as 2^-n: from step 8 to
        # step 16 the largest distance of the seven means shrinks at least
        # 128-fold (the slowest catalog tuple, ex08, by 255.99)
        limit = TessParams.create(8, Fraction(9, 2), 3, vertex_intensity=Fraction(5, 3))
        assert central_point(limit) == limit.with_values(vertex_intensity=Fraction(20, 3))
        target = cyclic(limit) + interior(limit)
        for entry in entries():
            if entry.is_complete:
                orbit = central_point_orbit(entry.to_params(), 16)
                near, nearer = (max(abs(a - b) for a, b in zip(cyclic(q) + interior(q), target))
                                for q in (orbit[8], orbit[16]))
                assert 128 * nearer <= near, entry.entry_id


MIXABLE = [CUBIC, STIT.with_values(vertex_intensity=3), VORONOI,
           DELAUNAY.with_values(vertex_intensity=Fraction(2, 7)),
           *sample_feasible(3, seed=4), *sample_feasible(2, seed=4, face_to_face=True)]


class TestMixture:
    def test_self_mixture_is_identity(self):
        p = mixture([(CUBIC, Fraction(1, 2)), (CUBIC, Fraction(1, 2))])
        assert p == CUBIC

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(MIXABLE), st.integers(1, 9)), min_size=1,
                    max_size=3))
    def test_is_the_convex_combination_of_density_vectors(self, drawn):
        # the density route against the Scalar formulas it replaced, on
        # rational and pi^2 components with their own vertex intensities
        total = sum(k for _, k in drawn)
        parts = [(p, Fraction(k, total)) for p, k in drawn]
        mixed = mixture(parts)
        assert mixed == reference.mixture(parts)
        vectors = [densities(p) for p, _ in parts]
        assert densities(mixed) == tuple(
            sum(w * d[k] for (_, w), d in zip(parts, vectors)) for k in range(8))

    def test_cubic_with_iterated_division(self):
        p = mixture([(CUBIC, Fraction(1, 2)), (STIT, Fraction(1, 2))])
        assert cyclic(p) == (5, Fraction(18, 5), Fraction(108, 25))
        assert interior(p) == (Fraction(2, 5), Fraction(1, 3), 1, Fraction(2, 3))
        assert p.vertex_intensity == 1
        report = classify(p)
        assert report.feasible
        # the mix lands exactly on the apex-degree ceiling for its pi share
        assert "pi_share_cap_apex_degree" in report.boundary

    def test_weights_must_sum_to_one(self):
        with pytest.raises(MixtureShareError):
            mixture([(CUBIC, Fraction(1, 2)), (STIT, Fraction(1, 3))])

    def test_weights_must_be_positive(self):
        with pytest.raises(MixtureShareError):
            mixture([(CUBIC, 1), (STIT, 0)])
        with pytest.raises(MixtureShareError):
            mixture([(CUBIC, 2), (STIT, -1)])

    def test_empty_mixture_rejected(self):
        with pytest.raises(MixtureShareError):
            mixture([])

    def test_intensity_weighting_matters(self):
        heavy = CUBIC.with_values(vertex_intensity=3)
        p = mixture([(heavy, Fraction(1, 2)), (STIT, Fraction(1, 2))])
        # vertex means lean toward the heavier component
        assert p.edges_per_vertex == Fraction(3 * 6 + 4, 4)
        assert p.vertex_intensity == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2000),
           st.integers(min_value=1, max_value=7))
    def test_mixing_feasible_pairs_stays_feasible(self, seed, numerator):
        a, b = sample_feasible(2, seed=seed)
        w = Fraction(numerator, 8)
        p = mixture([(a, w), (b, 1 - w)])
        assert classify(p).feasible


class TestMixtureCurve:
    def test_cubic_delaunay_mix_traces_the_ceiling(self):
        curve = mixture_curve(CUBIC, central_point(DELAUNAY))
        assert curve.kind == "curve"
        assert curve.offset == 6
        assert curve.inverse_coefficient == 12
        assert curve.matches_plate_cap

    def test_generic_curve_coefficients(self):
        curve = mixture_curve(CUBIC, STIT)
        assert curve.kind == "curve"
        # endpoints satisfy ep = offset - inv / ve
        for ve, ep in curve.endpoints:
            assert ep == curve.offset - curve.inverse_coefficient / ve

    def test_mixture_points_lie_on_the_curve(self):
        curve = mixture_curve(CUBIC, STIT)
        for k in range(1, 8):
            p = mixture([(CUBIC, Fraction(k, 8)), (STIT, Fraction(8 - k, 8))])
            assert p.plates_per_edge == (curve.offset
                                         - curve.inverse_coefficient / p.edges_per_vertex)

    def test_vertical_and_point_cases(self):
        other = TessParams.create(6, Fraction(9, 2), 4)
        curve = mixture_curve(CUBIC, other)
        assert curve.kind == "vertical"
        assert curve.offset is None
        assert mixture_curve(CUBIC, CUBIC).kind == "point"

    def test_json_shape(self):
        data = mixture_curve(CUBIC, STIT).as_doc()
        assert data["kind"] == "curve"
        assert len(data["endpoints"]) == 2


class TestPlanarValidation:
    def test_degree_floor(self):
        with pytest.raises(PlanarParameterError):
            PlanarParams.create(Fraction(5, 2))

    def test_share_range(self):
        with pytest.raises(PlanarParameterError):
            PlanarParams.create(4, Fraction(3, 2))

    def test_second_moment_floor(self):
        with pytest.raises(PlanarParameterError):
            PlanarParams.create(4, 0, 0, 15)

    def test_degree_ceiling_depends_on_pi_share(self):
        # with no pi vertices the ceiling is 6; any pi share lowers it
        PlanarParams.create(6, 0, 0)
        with pytest.raises(PlanarParameterError):
            PlanarParams.create(6, Fraction(1, 10), Fraction(6, 10) / 6)
        with pytest.raises(PlanarParameterError):
            PlanarParams.create(Fraction(13, 2), 0, 0)
        # the ceiling is attained by the gridded-square family only
        # in the n -> infinity limit
        for n in (1, 3, 9):
            p = planar_gridded_square(n)
            assert p.edges_per_vertex < 6 - 2 * p.pi_vertex_share

    def test_pi_ends_linked_to_share(self):
        # share 1/2 of degree-3 vertices forces at least 6*(1/2)/3 = 1
        with pytest.raises(PlanarParameterError):
            PlanarParams.create(3, Fraction(1, 2), Fraction(1, 2))
        # and non-pi vertices of degree 3 cap it at 2 - 6*(1/2)/3 = 1
        with pytest.raises(PlanarParameterError):
            PlanarParams.create(3, Fraction(1, 2), Fraction(3, 2))
        PlanarParams.create(3, Fraction(1, 2), 1)

    def test_gridded_square_needs_positive_n(self):
        with pytest.raises(PlanarParameterError):
            planar_gridded_square(0)

    def test_gridded_square_consistency(self):
        # the pi linking bound is tight for this family
        for n in (1, 4, 9):
            f = planar_gridded_square(n)
            assert f.pi_ends_per_edge == 6 * f.pi_vertex_share / f.edges_per_vertex


class TestDerivedConsistency:
    def test_central_point_preserves_euler_counts(self):
        for base in (CUBIC, STIT):
            s = derive(central_point(base))
            assert (s.apices_per_cell - s.ridges_per_cell + s.sides_per_cell) == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2000))
    def test_central_point_of_sampled_params_is_feasible(self, seed):
        (p,) = sample_feasible(1, seed=seed)
        assert classify(central_point(p)).feasible
