"""Acceptance gate: twelve criteria, one printed verdict line each.

Rational paths are compared exactly; values that only exist through the
squared circle constant are compared to 1e-12 relative after decimal
evaluation. Run with ``pytest tests/test_acceptance.py -s`` to see the
verdict lines.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from tesstopo import catalog
from tesstopo.complexes import build_complex, generate, measure, vertex_stats
from tesstopo.feasibility import (
    KAPPA,
    PSI,
    classify,
    hemi_pi_region,
    interior_rate_region,
    plate_cap,
    ridge_rate_interval,
    sample_feasible,
    row_limit,
    side_rate_interval,
)
from tesstopo.params import TessParams, check_identities, derive
from tesstopo.scalar import ONE, ZERO, Scalar, as_scalar
from tesstopo.transforms import (
    central_point,
    central_point_orbit,
    column,
    mixture,
    mixture_curve,
    planar_cairo,
    planar_gridded_square,
    planar_square_grid,
    planar_stit,
    planar_voronoi,
    stratum,
)

SAMPLE_COUNT = 10_000
SEED = 1

SEVEN = (
    "edges_per_vertex", "plates_per_edge", "vertices_per_plate",
    "pi_edge_share", "hemi_vertex_share", "ridge_interior_rate",
    "side_interior_rate",
)

# generator configurations the engine criteria sweep; catalog ids where
# the criterion compares against a recorded entry
ENGINE_CONFIGS = [
    ("cubic_lattice", {}, "ex05_cubic"),
    ("divided_cube", {}, "ex07_diagonal_pyramids"),
    ("parallel_pyramids", {}, "ex16_parallel_pyramids"),
    ("split_prism", {}, "ex15_split_prism"),
    ("prism_columns", {"base": "square"}, "ex06b_square_columns"),
    ("prism_columns", {"base": "triangle"}, "ex06a_triangle_columns"),
    ("stratum_prism", {}, "ex17_stratum_prism"),
    ("spoke_cube", {"k": 0, "n": 0}, None),
    ("spoke_cube", {"k": 2, "n": 0}, None),
    ("spoke_cube", {"k": 2, "n": 1}, None),
    ("core_prism_cube", {"k": 3, "n": 3}, None),
]


def seven(params: TessParams) -> tuple[Scalar, ...]:
    return tuple(getattr(params, field) for field in SEVEN)


def rel_close(a: Scalar, b: Scalar, digits: int = 40) -> bool:
    fa, fb = float(a.evaluate(digits)), float(b.evaluate(digits))
    scale = max(abs(fa), abs(fb), 1.0)
    return abs(fa - fb) <= 1e-12 * scale


def verdict(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} {label}: FAIL")
                raise
            print(f"criterion {number:2d} {label}: PASS")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def samples() -> list[TessParams]:
    return sample_feasible(count=SAMPLE_COUNT, seed=SEED)


@verdict(1, "adjacency table and identities")
def test_criterion_01(samples):
    cubic = TessParams.create(6, 4, 4)
    summary = derive(cubic)
    assert summary.intensities["edges"] == 3
    assert summary.intensities["plates"] == 3
    assert summary.intensities["cells"] == 1
    assert summary.mean_adjacencies[("cell", "vertex")] == 8
    assert summary.mean_adjacencies[("cell", "edge")] == 12
    assert summary.mean_adjacencies[("cell", "plate")] == 6
    for params in samples:
        residuals = check_identities(derive(params))
        assert all(not value for value in residuals.values()), residuals


@verdict(2, "catalog feasibility")
def test_criterion_02():
    complete = [e for e in catalog.entries() if e.is_complete]
    assert len(complete) >= 20
    for entry in complete:
        report = classify(entry.to_params())
        assert report.feasible, (entry.entry_id, report.violated)
    voronoi = classify(catalog.get("ex01_voronoi").to_params())
    assert "plates_per_edge_cap" in voronoi.boundary
    pyramids = classify(catalog.get("ex16_parallel_pyramids").to_params())
    assert "vertices_per_plate_min" in pyramids.boundary


@verdict(3, "transform goldens")
def test_criterion_03():
    def entry_seven(entry_id: str) -> tuple[Scalar, ...]:
        return seven(catalog.get(entry_id).to_params())

    assert seven(stratum(planar_voronoi())) == entry_seven("ex09a_voronoi_stratum")
    assert seven(stratum(planar_stit())) == entry_seven("ex09d_stit_stratum")
    assert seven(column(planar_square_grid())) == entry_seven("ex06b_square_columns")
    assert seven(column(planar_cairo())) == entry_seven("ex06c_cairo_columns")
    gridded = column(planar_gridded_square(8))
    assert gridded.plates_per_edge == as_scalar(Fraction(431, 66))
    assert seven(gridded) == seven(catalog.gridded_square_columns_entry(8).to_params())

    def cp_of(entry_id: str) -> tuple[Scalar, ...]:
        return seven(central_point(catalog.get(entry_id).to_params()))

    assert cp_of("ex05_cubic") == entry_seven("ex10d_coned_cubic")
    assert cp_of("ex04_stit") == entry_seven("ex10c_coned_stit")
    assert cp_of("ex06a_triangle_columns") == entry_seven("ex10e_coned_triangle_columns")


@verdict(4, "mixture closure on the fundamental curve")
def test_criterion_04():
    rng = random.Random(SEED)

    def on_curve() -> TessParams:
        ve = 4 + as_scalar(Fraction(rng.randint(1, 800), 100))
        ep = 6 - 12 / ve
        pv_max = ve * ep / (ve - 2)
        pv = 3 + (pv_max - 3) * as_scalar(Fraction(rng.randint(0, 90), 100))
        intensity = as_scalar(Fraction(rng.randint(1, 700), rng.randint(1, 9)))
        return TessParams.create(ve, ep, pv, 0, 0, 0, 0, intensity)

    for _ in range(100):
        first, second = on_curve(), on_curve()
        weight = as_scalar(Fraction(rng.randint(1, 99), 100))
        mixed = mixture([(first, weight), (second, 1 - weight)])
        assert mixed.plates_per_edge == 6 - 12 / mixed.edges_per_vertex
        curve = mixture_curve(first, second)
        assert curve.offset == 6
        assert curve.inverse_coefficient == 12


@verdict(5, "central-point iteration contracts")
def test_criterion_05():
    start = catalog.get("ex06a_triangle_columns").to_params()
    orbit = central_point_orbit(start, 6)
    assert len(orbit) == 7
    target_ve, target_ep = Scalar(8), as_scalar(Fraction(9, 2))
    gaps = [
        (step.edges_per_vertex - target_ve) ** 2
        + (step.plates_per_edge - target_ep) ** 2
        for step in orbit
    ]
    for before, after in zip(gaps, gaps[1:]):
        assert (after - before).sign() < 0, "distance must shrink every step"


@verdict(6, "engine measurements equal recorded values")
def test_criterion_06(built):
    mismatches = []
    for name, kwargs, entry_id in ENGINE_CONFIGS:
        if entry_id is None:
            continue
        measured = measure(built(name, **kwargs))
        expected = seven(catalog.get(entry_id).to_params())
        got = seven(measured.params)
        if got != expected:
            mismatches.append(
                f"{name}({kwargs}) measured "
                f"({', '.join(str(v) for v in got)}) but {entry_id} records "
                f"({', '.join(str(v) for v in expected)})")

    def spoke_forms(k: int, n: int) -> dict[tuple[str, str], Scalar]:
        k_, n_ = Scalar(k), Scalar(n)
        return {
            ("vertex", "edge"): 2 * (12 + 5 * k_ + 12 * n_ + 4 * k_ * n_) / (2 + k_ + 2 * n_),
            ("vertex", "plate"): 8 * (7 + 3 * k_) * (1 + n_) / (2 + k_ + 2 * n_),
            ("vertex", "cell"): 4 * (9 + 4 * k_) * (1 + n_) / (2 + k_ + 2 * n_),
            ("edge", "plate"): 8 * (7 + 3 * k_) * (1 + n_) / (12 + 5 * k_ + 12 * n_ + 4 * k_ * n_),
            ("plate", "vertex"): 4 * (7 + 3 * k_) / (9 + 4 * k_),
        }

    def core_forms(k: int, n: int) -> dict[tuple[str, str], Scalar]:
        k_, n_ = Scalar(k), Scalar(n)
        return {
            ("cell", "vertex"): 8 * (5 + 2 * k_) * (1 + n_) / (5 + k_ + 4 * n_),
            ("cell", "edge"): 12 * (5 + 2 * k_) * (1 + n_) / (5 + k_ + 4 * n_),
            ("cell", "plate"): 2 * (15 + 5 * k_ + 14 * n_ + 4 * k_ * n_) / (5 + k_ + 4 * n_),
            ("vertex", "edge"): 2 * (15 + 8 * k_ + 16 * n_ + 8 * k_ * n_)
                                / (5 + 4 * k_ + 6 * n_ + 4 * k_ * n_),
            ("edge", "plate"): 12 * (5 + 2 * k_) * (1 + n_)
                               / (15 + 8 * k_ + 16 * n_ + 8 * k_ * n_),
            ("plate", "vertex"): 12 * (5 + 2 * k_) * (1 + n_)
                                 / (15 + 5 * k_ + 14 * n_ + 4 * k_ * n_),
        }

    for k, n in ((0, 0), (2, 0), (2, 1)):
        measured = measure(built("spoke_cube", k=k, n=n))
        for pair, value in spoke_forms(k, n).items():
            if measured.mean_adjacent(*pair) != value:
                mismatches.append(f"spoke_cube(k={k},n={n}) {pair}: "
                                  f"{measured.mean_adjacent(*pair)} != {value}")
    measured = measure(built("core_prism_cube", k=3, n=3))
    for pair, value in core_forms(3, 3).items():
        if measured.mean_adjacent(*pair) != value:
            mismatches.append(f"core_prism_cube(k=3,n=3) {pair}: "
                              f"{measured.mean_adjacent(*pair)} != {value}")

    assert not mismatches, "; ".join(mismatches)


@verdict(7, "derived formulas close over measured complexes")
def test_criterion_07(built):
    for name, kwargs, _ in ENGINE_CONFIGS:
        measured = measure(built(name, **kwargs))
        predicted = derive(measured.params)
        assert measured.apices_per_cell == predicted.apices_per_cell
        assert measured.ridges_per_cell == predicted.ridges_per_cell
        assert measured.sides_per_cell == predicted.sides_per_cell
        assert measured.corners_per_cell_side == predicted.corners_per_cell_side
        assert measured.corners_per_plate == predicted.corners_per_plate
        assert measured.pi_edges_per_vertex == predicted.pi_edges_per_vertex
        for key, value in predicted.intensities.items():
            assert measured.intensities[key] == value, (name, kwargs, key)
        for key, value in predicted.mean_adjacencies.items():
            assert measured.mean_adjacencies[key] == value, (name, kwargs, key)

    squares = measure(built("prism_columns", base="square"))
    assert squares.apices_per_cell == 8
    assert squares.ridges_per_cell == 12
    assert squares.sides_per_cell == 6
    assert squares.corners_per_cell_side == 4
    assert squares.corners_per_plate == 4


@verdict(8, "per-vertex inequalities and aggregates")
def test_criterion_08(built):
    for name, kwargs, _ in ENGINE_CONFIGS:
        cx = built(name, **kwargs)
        stats = vertex_stats(cx)
        assert stats
        for stat in stats:
            assert stat.side_interior_count <= stat.ridge_interior_count
            floor = (2 * (stat.ridge_interior_count - stat.side_interior_count)
                     + 3 * stat.hemi_indicator)
            assert stat.pi_edge_count >= floor
        count = Fraction(len(stats))
        measured = measure(cx)
        assert as_scalar(Fraction(sum(s.ridge_interior_count for s in stats)) / count) \
            == measured.params.ridge_interior_rate
        assert as_scalar(Fraction(sum(s.side_interior_count for s in stats)) / count) \
            == measured.params.side_interior_rate
        assert as_scalar(Fraction(sum(s.hemi_indicator for s in stats)) / count) \
            == measured.params.hemi_vertex_share


@verdict(9, "bound-line structure")
def test_criterion_09(samples):
    for params in samples:
        ve, ep, pv = (params.edges_per_vertex, params.plates_per_edge,
                      params.vertices_per_plate)
        psi = params.ridge_interior_rate
        hemi_cap = row_limit("ridge_rate_cap_apices", (ve, ep, pv)) - psi
        kappa_top = hemi_cap if (hemi_cap - 1).sign() < 0 else ONE
        ridge_line = row_limit("pi_share_cap_cell_ridges", (ve, ep, pv), {PSI: psi})
        # the two sloped caps stay above the apex-degree cap over the
        # admissible hemi range, and the lower corner line stays below it
        for kappa in (ZERO, kappa_top):
            sides_line = row_limit("pi_share_cap_cell_sides", (ve, ep, pv), {KAPPA: kappa})
            apex_line = row_limit("pi_share_cap_apex_degree", (ve, ep, pv),
                                  {PSI: psi, KAPPA: kappa})
            corner_line = row_limit("pi_share_min_side_corners", (ve, ep, pv),
                                    {PSI: psi, KAPPA: kappa})
            assert (ridge_line - apex_line).sign() >= 0
            assert (sides_line - apex_line).sign() >= 0
            assert (corner_line - apex_line).sign() <= 0
        # all four lines meet the hemi cap at one point
        assert row_limit("pi_share_cap_cell_sides", (ve, ep, pv), {KAPPA: hemi_cap}) == ridge_line
        assert row_limit("pi_share_cap_apex_degree", (ve, ep, pv),
                         {PSI: psi, KAPPA: hemi_cap}) == ridge_line
        assert row_limit("pi_share_min_side_corners", (ve, ep, pv),
                         {PSI: psi, KAPPA: hemi_cap}) == ridge_line
        # interior activity is forced strictly above the face-to-face ceiling
        if (ep - plate_cap(ve)).sign() > 0 and params.pi_edge_share.sign() > 0:
            assert params.side_interior_rate.sign() > 0
        # the two ridge caps cross exactly where predicted
        crossover = 2 * ve * ep / (3 * ve - 8)
        assert row_limit("ridge_rate_cap_apices", (ve, ep, crossover)) \
            == row_limit("ridge_rate_cap_combined", (ve, ep, crossover))


@verdict(10, "null zones reproduce")
def test_criterion_10():
    pinched = hemi_pi_region(as_scalar(Fraction(24, 5)), as_scalar(Fraction(19, 5)),
                             as_scalar(Fraction(7, 2)), 0, 0)
    assert pinched.kind == "empty"

    params = catalog.get("ex08_divided_delaunay").to_params()
    point = hemi_pi_region(params.edges_per_vertex, params.plates_per_edge,
                           params.vertices_per_plate, params.ridge_interior_rate,
                           params.side_interior_rate)
    assert point.kind == "point"
    (kappa, xi), = point.vertices
    assert kappa == ZERO
    target = as_scalar("64*pi^2/(35+112*pi^2)")
    assert rel_close(xi, target)


@verdict(11, "staged regions stay nonempty")
def test_criterion_11(samples):
    for params in samples:
        ve, ep, pv = (params.edges_per_vertex, params.plates_per_edge,
                      params.vertices_per_plate)
        patch = interior_rate_region(ve, ep, pv)
        assert patch.kind != "empty"
        apices = row_limit("ridge_rate_cap_apices", (ve, ep, pv))
        combined = row_limit("ridge_rate_cap_combined", (ve, ep, pv))
        ridge_top = apices if (apices - combined).sign() <= 0 else combined
        low, high = ridge_rate_interval(ve, ep, pv)
        assert high == ridge_top
        side_low, side_high = side_rate_interval(ve, ep, pv, ridge_top)
        assert (side_low - side_high).sign() <= 0


@verdict(12, "supercell and affine invariance")
def test_criterion_12(built):
    rng = random.Random(SEED)

    def unimodular() -> tuple[tuple[Fraction, ...], ...]:
        def shear() -> Fraction:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lower = ((Fraction(1), Fraction(0), Fraction(0)),
                 (shear(), Fraction(1), Fraction(0)),
                 (shear(), shear(), Fraction(1)))
        upper = ((Fraction(1), shear(), shear()),
                 (Fraction(0), Fraction(1), shear()),
                 (Fraction(0), Fraction(0), Fraction(1)))
        return tuple(
            tuple(sum(lower[i][k] * upper[k][j] for k in range(3))
                  for j in range(3))
            for i in range(3))

    configs = [
        ("cubic_lattice", {}),
        ("divided_cube", {}),
        ("parallel_pyramids", {}),
        ("split_prism", {}),
        ("prism_columns", {"base": "square"}),
        ("prism_columns", {"base": "triangle"}),
        ("stratum_prism", {}),
        ("spoke_cube", {"k": 0, "n": 0}),
        ("core_prism_cube", {"k": 0, "n": 0}),
    ]
    for name, kwargs in configs:
        base = measure(built(name, **kwargs))
        domain = generate(name, **kwargs)
        doubled = measure(build_complex(domain.replicate(2, 2, 2)))
        assert seven(doubled.params) == seven(base.params), (name, "supercell")
        assert doubled.params.vertex_intensity == base.params.vertex_intensity
        shift = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                      for _ in range(3))
        mapped = measure(build_complex(domain.affine_image(unimodular(), shift)))
        assert seven(mapped.params) == seven(base.params), (name, "affine")
        assert mapped.params.vertex_intensity == base.params.vertex_intensity
