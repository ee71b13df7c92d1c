"""Catalog contents, lookup, and the self-check."""

import dataclasses
from fractions import Fraction

import pytest

from tesstopo import catalog
from tesstopo.catalog import (
    CatalogEntry,
    core_prism_cube_entry,
    entries,
    get,
    gridded_square_columns_entry,
    list_ids,
    spoke_cube_entry,
    verify_catalog,
)
from tesstopo.complexes import build_complex, make_domain, measure, validate
from tesstopo.errors import UnknownEntryError
from tesstopo.feasibility import classify, plate_cap
from tesstopo.params import derive
from tesstopo.scalar import Scalar


def test_lookup_by_id():
    e = get("ex04_stit")
    assert e.edges_per_vertex == 4
    assert e.plates_per_edge == 3
    assert e.vertices_per_plate == Fraction(36, 7)
    assert e.pi_edge_share == 1
    assert e.hemi_vertex_share == Fraction(2, 3)
    assert e.ridge_interior_rate == 2
    assert e.side_interior_rate == Fraction(4, 3)


def test_unknown_id_raises():
    with pytest.raises(UnknownEntryError):
        get("ex99_nothing")
    with pytest.raises(UnknownEntryError):
        get("ex11_spoke_cube(k=2)")
    with pytest.raises(UnknownEntryError):
        get("ex11_spoke_cube(k=2,n=x)")
    with pytest.raises(UnknownEntryError, match=r"^spoke cube needs k, n >= 0, got k=-1, n=0$"):
        get("ex11_spoke_cube(k=-1,n=0)")
    with pytest.raises(UnknownEntryError,
                       match=r"^core prism cube needs k, n >= 0, got k=-1, n=0$"):
        get("ex12_core_prism_cube(k=-1,n=0)")


def test_family_lookup():
    e = get("ex11_spoke_cube(k=2,n=0)")
    assert e.edges_per_vertex == 11
    assert e.face_to_face
    # whitespace in the id is tolerated
    assert get("ex11_spoke_cube(k=2, n=0)").entry_id == e.entry_id


def test_spoke_cube_baseline():
    e = spoke_cube_entry(0, 0)
    assert e.edges_per_vertex == 12
    assert e.plates_per_edge == Fraction(56, 12)
    assert e.vertices_per_plate == Fraction(28, 9)
    s = derive(e.to_params())
    assert s.mean_adjacent("vertex", "plate") == 28
    assert s.mean_adjacent("vertex", "cell") == 18


def test_core_prism_cube_baseline_is_cubic():
    e = core_prism_cube_entry(0, 0)
    assert (e.edges_per_vertex, e.plates_per_edge, e.vertices_per_plate) == (6, 4, 4)
    assert e.face_to_face


def test_core_prism_cube_family_sits_on_the_curve():
    for k, n in ((0, 0), (1, 0), (0, 2), (3, 3), (7, 5)):
        e = core_prism_cube_entry(k, n)
        assert e.on_cap_curve
        assert e.face_to_face == (k == 0)


def test_gridded_square_columns_headline_value():
    e = gridded_square_columns_entry(8)
    assert e.edges_per_vertex == 4
    assert e.plates_per_edge == Fraction(431, 66)


def test_divided_delaunay_entry_round_trip():
    e = get("ex08_divided_delaunay")
    p = e.to_params()
    assert classify(p).feasible
    # the pi share is the unique feasible choice for these rates
    assert p.pi_edge_share == Scalar((0, 64), (35, 112))


def test_partial_entries():
    e = get("ex18b_split_rhombic_dodecahedra")
    assert not e.is_complete
    assert e.vertices_per_plate is None
    with pytest.raises(ValueError):
        e.to_params()


def test_entry_reads_its_values_as_scalars():
    e = CatalogEntry("x", "t", "c", False, "9/2", 3, Fraction(7, 2),
                     adjacency_checks=(("cell", "vertex", "8"),))
    assert type(e.edges_per_vertex) is Scalar and e.edges_per_vertex == Fraction(9, 2)
    assert type(e.vertices_per_plate) is Scalar
    assert e.pi_edge_share is None
    assert e.adjacency_checks == (("cell", "vertex", Scalar(8)),)
    assert type(e.adjacency_checks[0][2]) is Scalar
    with pytest.raises(ValueError, match="x does not record pi_edge_share"):
        e.to_params()


def test_face_to_face_entry_with_unrecorded_interior_fills_zeros():
    p = get("ex10a_coned_voronoi").to_params()
    assert p.pi_edge_share == 0
    assert p.is_face_to_face


def test_rhombic_dodecahedra_on_plate_floor():
    e = get("ex18a_rhombic_dodecahedra")
    assert e.plates_per_edge == 3
    assert classify(e.to_params()).feasible


def test_list_ids_contains_families_and_fixed():
    ids = list_ids()
    assert "ex01_voronoi" in ids
    assert "ex11_spoke_cube(k,n)" in ids
    assert "ex14_gridded_square_columns(n)" in ids
    assert len(ids) == len(set(ids))


def test_coned_delaunay_on_curve():
    e = get("ex10b_coned_delaunay")
    assert e.on_cap_curve
    assert e.plates_per_edge == Scalar((0, 576), (35, 120))


def test_mixture_entries_above_curve():
    for eid in ("ex13a_weighted_mixture", "ex13b_equal_mixture"):
        e = get(eid)
        assert not e.on_cap_curve
        assert e.plates_per_edge > plate_cap(e.edges_per_vertex)
        assert classify(e.to_params()).feasible


def test_entry_json_shape():
    data = get("ex15_split_prism").as_doc()
    assert data["id"] == "ex15_split_prism"
    assert data["parameters"]["pi_edge_share"] == Scalar(Fraction(2, 5))
    assert data["generator"] == "split_prism"
    data = get("ex18c_split_rhombic_dodecahedra_finer").as_doc()
    assert data["parameters"]["vertices_per_plate"] is None


def test_every_complete_entry_is_feasible():
    for e in entries():
        if e.is_complete or e.face_to_face:
            report = classify(e.to_params())
            assert report.feasible, (e.entry_id, report.violated)


def test_verify_catalog_clean():
    report = verify_catalog()
    assert report.ok, report.failures
    assert report.checked > 40


def test_verify_catalog_catches_bad_data(monkeypatch):
    import tesstopo.catalog as cat

    broken = cat._FIXED[0]
    object.__setattr__(broken, "plates_per_edge", Scalar(7, 2))
    try:
        report = verify_catalog()
        assert not report.ok
        assert any("ex01_voronoi" in f for f in report.failures)
    finally:
        object.__setattr__(broken, "plates_per_edge", Scalar(3))


def test_verify_catalog_names_the_rows_a_partial_entry_fails(monkeypatch):
    import tesstopo.catalog as cat

    # a partial entry (no interior fields) whose plate count per edge is too low
    doctored = dataclasses.replace(get("ex12_core_prism_cube(k=2,n=0)"),
                                   plates_per_edge=Scalar(5, 2))
    monkeypatch.setattr(cat, "entries", lambda: iter([doctored]))
    failures = [f for f in verify_catalog().failures if f.startswith(doctored.entry_id)]
    assert failures == [f"{doctored.entry_id}: infeasible: "
                        "['plates_per_edge_min', 'vertices_per_plate_max']"]


def test_verify_catalog_failure_line_is_unquoted(monkeypatch):
    import tesstopo.catalog as cat

    def broken_builder(**_):
        raise UnknownEntryError("cannot build this member")

    _, names = cat._FAMILIES["ex11_spoke_cube"]
    monkeypatch.setitem(cat._FAMILIES, "ex11_spoke_cube", (broken_builder, names))
    failures = [f for f in verify_catalog().failures if f.startswith("ex11_spoke_cube")]
    assert failures == ["ex11_spoke_cube: cannot build this member"]


@pytest.mark.parametrize("entry_id, change, message", [
    ("ex04_stit", {"face_to_face": True}, "branch general, expected face_to_face"),
    ("ex05_cubic", {"face_to_face": False}, "branch face_to_face, expected general"),
    ("ex05_cubic", {"adjacency_checks": (("cell", "vertex", 9),)},
     "mean cell->vertex adjacency is 8, entry says 9"),
    ("ex06a_triangle_columns", {"vertices_per_plate": Scalar(137, 20)},
     "construction gives vertices_per_plate = 27/4, entry stores 137/20"),
])
def test_the_check_names_each_tampered_entry(monkeypatch, entry_id, change, message):
    # one tampered field each: the check must say what is wrong, and nothing else
    import tesstopo.catalog as cat

    tampered = dataclasses.replace(get(entry_id), **change)
    complaints = []
    catalog._check_entry(tampered, complaints.append)
    assert complaints == [message]
    monkeypatch.setattr(cat, "entries", lambda: iter([tampered]))
    assert verify_catalog().failures == (f"{entry_id}: {message}",)


def test_the_check_names_generator_args_without_a_generator(monkeypatch):
    import tesstopo.catalog as cat

    tampered = dataclasses.replace(get("ex04_stit"), generator_args={"k": 1})
    monkeypatch.setattr(cat, "entries", lambda: iter([tampered]))
    assert verify_catalog().failures == ("ex04_stit: generator args without generator",)


def _box(x0, y0, z0, x1, y1, z1):
    return [(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]


def test_a_built_stack_with_a_positive_side_rate_below_the_cap_passes_the_check():
    # on the lattice diag(2, 2, 2): a layer of parallel pyramids (three per
    # unit cube, with apex (x+1, y+1, 1)) under a layer of square columns,
    # column c cut at z = 1 + c/4
    cells = []
    for x in (0, 1):
        for y in (0, 1):
            cube = _box(x, y, 0, x + 1, y + 1, 1)
            for axis in range(3):
                base = [p for p in cube if p[axis] == (x, y, 0)[axis]]
                cells.append(base + [(x + 1, y + 1, 1)])
    for c, (x, y) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        cut = 1 + Fraction(c, 4)
        cells.extend(_box(x, y, z0, x + 1, y + 1, z1)
                     for z0, z1 in ((1, cut), (cut, 2)) if z0 != z1)
    domain = make_domain([[2, 0, 0], [0, 2, 0], [0, 0, 2]], cells)
    assert len(domain.cells) == 19
    cx = build_complex(domain)
    assert validate(cx).ok
    params = measure(cx).params
    values = (params.edges_per_vertex, params.plates_per_edge,
              params.vertices_per_plate, params.pi_edge_share,
              params.hemi_vertex_share, params.ridge_interior_rate,
              params.side_interior_rate)
    assert values == (Fraction(32, 5), Fraction(15, 4), Fraction(80, 21),
                      Fraction(3, 8), 0, Fraction(9, 5), Fraction(6, 5))
    assert classify(params).feasible
    assert params.plates_per_edge < plate_cap(params.edges_per_vertex)
    assert params.side_interior_rate > 0
    complaints = []
    catalog._check_entry(CatalogEntry("stack", "stack", "built", False, *values),
                         complaints.append)
    assert complaints == []
