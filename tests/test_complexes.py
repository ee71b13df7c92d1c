"""Periodic complex engine: building, measuring, validating generators."""

import copy
import hashlib
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tesstopo import catalog
from tesstopo.complexes import (
    GENERATORS,
    build_complex,
    domain_from_json,
    generate,
    make_domain,
    measure,
    validate,
    vertex_stats,
)
from tesstopo.complexes import build
from tesstopo.complexes import domain as domain_module
from tesstopo.complexes.generators import MAX_SIZE
from tesstopo.complexes.geometry import (
    ZERO3, add, convex_hull, convex_intersection2, cross, det3, dot, map_cell, sub)
from tesstopo.errors import GeneratorParameterError, NotATessellationError, UsageError

import build_reference
from plane_solver import solve3

SEVEN = ("edges_per_vertex", "plates_per_edge", "vertices_per_plate",
         "pi_edge_share", "hemi_vertex_share", "ridge_interior_rate",
         "side_interior_rate")


def seven_tuple(params):
    return tuple(getattr(params, f) for f in SEVEN)


def test_unit_cube_complex_counts(built):
    cx = built("cubic_lattice")
    assert cx.counts == {"vertices": 1, "edges": 3, "plates": 3,
                         "cells": 1, "pi_edges": 0}
    assert cx.face_to_face
    v = cx.vertices[0]
    assert (v.edge_count, v.plate_count, v.cell_count) == (6, 12, 8)
    assert all(e.plate_count == 4 and e.cell_count == 4 for e in cx.edges)
    rec = cx.cell_records[0]
    assert (rec.apex_count, rec.ridge_count, rec.facet_count) == (8, 12, 6)


ALL_GENERATORS = [
    ("cubic_lattice", {}),
    ("parallel_pyramids", {}),
    ("divided_cube", {}),
    ("split_prism", {}),
    ("split_prism", {"aligned": True}),
    ("prism_columns", {"base": "square"}),
    ("prism_columns", {"base": "triangle"}),
    ("stratum_prism", {}),
    ("spoke_cube", {"k": 0, "n": 0}),
    ("spoke_cube", {"k": 2, "n": 1}),
    ("core_prism_cube", {"k": 0, "n": 0}),
    ("core_prism_cube", {"k": 3, "n": 3}),
]


@pytest.mark.parametrize("name,kw", ALL_GENERATORS,
                         ids=[f"{n}-{kw}" for n, kw in ALL_GENERATORS])
def test_every_generator_validates(built, name, kw):
    report = validate(built(name, **kw))
    assert report.ok, report.failures


def catalog_generator_cases():
    for e in catalog.entries():
        if e.generator is None or not e.is_complete:
            continue
        yield pytest.param(e, id=e.entry_id)


@pytest.mark.parametrize("entry", list(catalog_generator_cases()))
def test_generator_matches_catalog(built, entry):
    cx = built(entry.generator, **(entry.generator_args or {}))
    m = measure(cx)
    for field in SEVEN:
        assert getattr(m.params, field) == getattr(entry, field), field
    assert m.face_to_face == entry.face_to_face


def test_divided_cube_measures_coned_cubic_values(built):
    # Hand count per 2x2x2 block: 8 lattice vertices; 24 cube edges, 12 face
    # diagonals through the block centre and 8 body diagonals; 12 uncut
    # squares on the block planes, 24 triangles on the inner planes and 24
    # inside the cubes; 24 pyramids. Euler: 8 - 44 + 60 - 24 = 0. The 192
    # plate sides give ve = 88/8, ep = 192/44 and pv = 192/60: the tuple of
    # coning each cube over its centre, a different construction.
    m = measure(built("divided_cube"))
    assert m.counts == {"vertices": 8, "edges": 44, "plates": 60,
                        "cells": 24, "pi_edges": 0}
    assert seven_tuple(m.params) == (11, F(48, 11), F(16, 5), 0, 0, 0, 0)
    assert m.face_to_face
    coned = catalog.get("ex10d_coned_cubic")
    assert seven_tuple(m.params) == seven_tuple(coned.to_params())


def test_aligned_split_prism_degenerates_to_prism_lattice(built):
    m = measure(built("split_prism", aligned=True))
    assert m.params.pi_edge_share == 0
    assert m.face_to_face
    assert seven_tuple(m.params) == (8, F(9, 2), F(18, 5), 0, 0, 0, 0)


def test_spoke_cube_closed_forms(built):
    for k, n in [(0, 0), (2, 0), (2, 1)]:
        m = measure(built("spoke_cube", k=k, n=n))
        a, b, c = 2 + k + 2 * n, 12 + 5 * k + 12 * n + 4 * k * n, 7 + 3 * k
        assert m.mean_adjacent("vertex", "edge") == F(2 * b, a)
        assert m.mean_adjacent("vertex", "plate") == F(8 * c * (1 + n), a)
        assert m.mean_adjacent("vertex", "cell") == F(4 * (9 + 4 * k) * (1 + n), a)
        assert m.mean_adjacent("edge", "plate") == F(8 * c * (1 + n), b)
        assert m.mean_adjacent("plate", "vertex") == F(4 * c, 9 + 4 * k)
        assert m.counts["cells"] == 4 * (n + 1) * (k + 2)
        assert m.face_to_face


def test_core_prism_cube_closed_forms(built):
    for k, n in [(0, 0), (3, 3)]:
        m = measure(built("core_prism_cube", k=k, n=n))
        a, b = 5 + k + 4 * n, 5 + 2 * k
        assert m.mean_adjacent("cell", "vertex") == F(8 * b * (1 + n), a)
        assert m.mean_adjacent("cell", "edge") == F(12 * b * (1 + n), a)
        assert m.mean_adjacent("cell", "plate") == F(
            2 * (15 + 5 * k + 14 * n + 4 * k * n), a)
        assert m.counts["cells"] == a
        # this family sits exactly on the face-to-face ceiling curve
        ve = m.params.edges_per_vertex
        assert m.params.plates_per_edge == 6 * (1 - F(2) / ve)


def test_vertex_stats_cubic(built):
    stats = vertex_stats(built("cubic_lattice"))
    assert len(stats) == 1
    v = stats[0]
    assert (v.edge_count, v.pi_edge_count, v.hemi_indicator,
            v.ridge_interior_count, v.side_interior_count) == (6, 0, 0, 0, 0)


def test_vertex_stats_stratum_prism_hemi_vertices(built):
    stats = vertex_stats(built("stratum_prism"))
    hemi = [v for v in stats if v.hemi_indicator]
    assert len(hemi) == 4
    for v in hemi:
        assert v.ridge_interior_count == 0
        assert v.side_interior_count == 0
        assert v.pi_edge_count >= 3


def test_vertex_stats_triangle_columns_interior_counts(built):
    stats = vertex_stats(built("prism_columns", base="triangle"))
    assert {(v.ridge_interior_count, v.side_interior_count)
            for v in stats} == {(5, 4)}


def test_per_vertex_interior_inequalities_hold_everywhere(built):
    for name, kw in ALL_GENERATORS:
        for v in vertex_stats(built(name, **kw)):
            assert v.side_interior_count <= v.ridge_interior_count
            assert v.pi_edge_count >= (
                2 * (v.ridge_interior_count - v.side_interior_count)
                + 3 * v.hemi_indicator)


def test_colliding_column_offsets_rejected():
    with pytest.raises(GeneratorParameterError):
        generate("prism_columns", base="square",
                 offsets=[0, "1/2", "1/2", "3/4"])
    with pytest.raises(GeneratorParameterError):
        generate("prism_columns", base="square", offsets=[0, "1/4", "5/4", "3/4"])


def test_custom_distinct_offsets_accepted():
    dom = generate("prism_columns", base="square",
                   offsets=["1/8", "3/8", "5/8", "7/8"])
    m = measure(build_complex(dom))
    assert seven_tuple(m.params) == (
        4, F(7, 2), F(28, 5), F(1, 2), 0, 3, 2)


def test_unknown_generator_rejected():
    with pytest.raises(GeneratorParameterError):
        generate("hexagonal_magic")
    with pytest.raises(GeneratorParameterError):
        generate("spoke_cube", k=-1)
    with pytest.raises(GeneratorParameterError):
        generate("spoke_cube", wrong_arg=2)


def test_sized_generators_are_capped():
    assert len(generate("spoke_cube", k=MAX_SIZE).cells) == 4 * (MAX_SIZE + 2)
    for name in ("spoke_cube", "core_prism_cube"):
        for kw in ({"k": MAX_SIZE + 1}, {"n": 10 ** 9}):
            with pytest.raises(GeneratorParameterError, match=f"at most {MAX_SIZE}"):
                generate(name, **kw)


# The builder's messages print torus units, whatever scale it works in; the
# texts below were recorded from the builder that worked on Fraction values.
def _rejection(dom) -> str:
    with pytest.raises(NotATessellationError) as info:
        build_complex(dom)
    return str(info.value)


def test_overlapping_cells_rejected():
    unit = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    shifted = [(F(x) + F(1, 2), y, z) for x, y, z in unit]
    dom = make_domain(((1, 0, 0), (0, 1, 0), (0, 0, 1)), [unit, shifted])
    assert _rejection(dom) == \
        "cells fill 2 of the lattice cell instead of all of it"


# A slab of width 3/4 and a slab of width 1/4 inside it: the volumes sum to
# the lattice cell.
_INNER_IN_SLAB = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                  [[(0, 0, 0), ("3/4", 0, 0), (0, 1, 0), (0, 0, 1),
                    ("3/4", 1, 0), ("3/4", 0, 1), (0, 1, 1), ("3/4", 1, 1)],
                   [("1/2", 0, 0), ("3/4", 0, 0), ("1/2", 1, 0), ("1/2", 0, 1),
                    ("3/4", 1, 0), ("3/4", 0, 1), ("1/2", 1, 1), ("3/4", 1, 1)]])


def test_overlap_detected_even_when_volumes_sum_right():
    dom = make_domain(*_INNER_IN_SLAB)
    assert _rejection(dom) == "cells 0 and 1 (shift (0, 0, 0)) overlap"


def test_gap_rejected():
    unit = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    dom = make_domain(((2, 0, 0), (0, 1, 0), (0, 0, 1)), [unit])
    assert _rejection(dom) == \
        "cells fill 1/2 of the lattice cell instead of all of it"


def _box(x0, y0, z0, x1, y1, z1):
    return [(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]


# A slab and a post whose apex (1/4, 1/4, 1/2) lies inside the slab, with
# volumes that sum to the lattice cell.
_POST_IN_SLAB = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                 [_box(0, 0, 0, 1, 1, "3/4"),
                  _box("1/4", "1/4", "1/2", "3/4", "3/4", "3/2")])


def test_overlap_across_a_lattice_shift_is_named_with_its_shift():
    assert _rejection(make_domain(*_POST_IN_SLAB)) == \
        "cells 0 and 1 (shift (0, 0, -1)) overlap"


def test_vertex_inside_a_cell_is_named_in_torus_units(monkeypatch):
    # certification catches every overlap first, so skip it to reach the check
    # that classifies vertices against cells
    monkeypatch.setattr(build._Builder, "find_plates_and_certify", lambda self: None)
    assert _rejection(make_domain(*_POST_IN_SLAB)) == (
        "vertex (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)) "
        "lies inside cell 0")


def test_domain_json_round_trip(built):
    dom = generate("stratum_prism")
    again = domain_from_json(dom.dumps())
    m1 = measure(build_complex(dom))
    m2 = measure(build_complex(again))
    assert m1.params.as_dict() == m2.params.as_dict()


def test_domain_text_that_is_not_json_is_a_usage_error():
    with pytest.raises(UsageError, match="not valid JSON"):
        domain_from_json("nope")


_UNIT_CUBE_HALFSPACES = [[-1, 0, 0, 0], [1, 0, 0, 1], [0, -1, 0, 0],
                         [0, 1, 0, 1], [0, 0, -1, 0], [0, 0, 1, 1]]


def test_halfspaces_per_cell_are_capped(monkeypatch):
    lattice = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # refused on the count alone, before any row is read
    rows = [["x"] * 4] * (domain_module.MAX_HALFSPACES + 1)
    for cell in ({"halfspaces": rows}, rows):
        with pytest.raises(UsageError, match=f"at most {domain_module.MAX_HALFSPACES} "
                           f"halfspaces, got {len(rows)}"):
            make_domain(lattice, [cell])
    monkeypatch.setattr(domain_module, "MAX_HALFSPACES", 6)
    cube = make_domain(lattice, [{"halfspaces": _UNIT_CUBE_HALFSPACES}])
    assert cube.cells[0].volume == 1
    with pytest.raises(UsageError, match="at most 6 halfspaces, got 7"):
        make_domain(lattice, [_UNIT_CUBE_HALFSPACES + [[1, 1, 1, 3]]])


def test_fraction_coordinates_are_taken_as_they_are():
    value = F(1, 3)
    assert domain_module._parse_frac(value) is value
    assert domain_module._parse_frac("2/6") == value
    assert type(domain_module._parse_frac(2)) is F
    with pytest.raises(UsageError, match="decimal exponents"):
        domain_module._parse_frac("1e1001")
    with pytest.raises(NotATessellationError, match="rational numbers"):
        domain_module._parse_frac(True)


def test_obj_dump_lists_all_cells():
    dom = generate("parallel_pyramids")
    obj = dom.obj_dump()
    assert obj.count("\ng ") == 3
    assert "v " in obj and "f " in obj


def test_obj_dump_rounds_a_coordinate_without_a_decimal_expansion():
    # a third has no finite decimal, so it prints rounded to 40 places
    dom = make_domain([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                      [[[0, 0, 0], [1, 0, 0], [0, 1, 0], ["1/3", "1/2", 1]]])
    assert "\nv 0." + "3" * 40 + " 0.5 1\n" in dom.obj_dump()


# Unimodular maps (determinant +-1) with rational translations: they keep
# every incidence but move the cells off the grid and tilt the facet planes.
# The last two reverse orientation, and so does the torus map of their
# images' lattices.
_UNIMODULAR = (
    ((F(0), F(1), F(0)), (F(1), F(0), F(1)), (F(0), F(0), F(-1))),
    ((F(1), F(-1), F(0)), (F(0), F(1), F(1)), (F(1), F(0), F(2))),
    ((F(1), F(0), F(1)), (F(1), F(1), F(0)), (F(0), F(0), F(1))),
    ((F(1), F(1), F(0)), (F(0), F(0), F(1)), (F(0), F(1), F(0))),
    ((F(1), F(0), F(0)), (F(1), F(-1), F(0)), (F(2), F(0), F(1))),
)
_TRIANGLE_OFFSETS = ("1/9", "13/11", "2/5", "4/7", "-1/3", "5/6", "7/8", "0")
STRUCTURE_CASES = [(name, name, {}, None) for name in GENERATORS] + [
    ("spoke_cube-k2-n1", "spoke_cube", {"k": 2, "n": 1}, None),
    ("core_prism_cube-k1-n1", "core_prism_cube", {"k": 1, "n": 1}, None),
    ("prism_columns-triangle-offsets", "prism_columns",
     {"base": "triangle", "offsets": _TRIANGLE_OFFSETS}, None),
    ("cubic_lattice-2x2x2", "cubic_lattice", {}, ("replicate", (2, 2, 2))),
    ("parallel_pyramids-1x2x1", "parallel_pyramids", {}, ("replicate", (1, 2, 1))),
    ("parallel_pyramids-image", "parallel_pyramids", {},
     ("affine", (_UNIMODULAR[0], (F(1, 3), F(-2, 7), F(5))))),
    ("divided_cube-image", "divided_cube", {},
     ("affine", (_UNIMODULAR[1], (F(-1, 2), F(3, 8), F(0))))),
    ("stratum_prism-image", "stratum_prism", {},
     ("affine", (_UNIMODULAR[2], (F(2, 3), F(1, 5), F(-7, 4))))),
    ("stratum_prism-mirror-image", "stratum_prism", {},
     ("affine", (_UNIMODULAR[3], (F(-3, 5), F(1, 4), F(2, 9))))),
    ("split_prism-mirror-image", "split_prism", {},
     ("affine", (_UNIMODULAR[4], (F(5, 6), F(-1, 3), F(3, 7))))),
]
# SHA-256 of the repr of every structural field of the built complex,
# recorded from the builder that clipped every facet pair at every shift,
# split every segment instance and hulled every cell on its own.
STRUCTURE_DIGESTS = {
    "cubic_lattice":
        "cc68cc534d7ec84f9a96793611717907e95bedf12b9afd10e3e13227dba519c6",
    "parallel_pyramids":
        "f47232918aafb7ac462cd00b8f6ab688be6c20494f4ab598a640067c64035f9e",
    "divided_cube":
        "736878ede80c3136c247c16f9d7c73e23668010b786dd8372f989afa8b25846d",
    "split_prism":
        "def52708889bc6da88aff05a05089864c2899e07d832e40c1d6632fe6fa08bd5",
    "prism_columns":
        "691937c633484fe953e63e96152987594b461b7bf49ad826953c751bc65775b9",
    "stratum_prism":
        "285f29ba037927d89bbd33af747e4d3556cbb8cdac197bba5f1fcd80c138ed50",
    "spoke_cube":
        "3ddb001ba7d1249a22b7dfb47632d96ac73e28db64f6c03321d8b7561059fadb",
    "core_prism_cube":
        "c2bb25a90a37efe355276766792e13c689f4c161d2a174027c3842cb9c69949a",
    "spoke_cube-k2-n1":
        "d35d936fdb409a7cd60311766180e06fe74c1d4a94f518675b3f1060d760494c",
    "core_prism_cube-k1-n1":
        "44ebdb2a43e76645d9b66b738e24233c7c8365a7f0d9a150e58d57022253c471",
    "prism_columns-triangle-offsets":
        "7d5d428ad46bcd332a0efa76896a35e50b546462f0cf682ed2af63eb2f7a54eb",
    "cubic_lattice-2x2x2":
        "e608f88cc094b08c7f6274b3cdcaba8b39335a877e672b439b5ddf5419ca2ae2",
    "parallel_pyramids-1x2x1":
        "2f7977fbb27bbe29e08280da015ee2a632428a3c8cabe39890c24eae993c366e",
    "parallel_pyramids-image":
        "d4756c6523faea45d26cf17bd071a517a5c8f7fc30bc7e8490adedb982a5cc94",
    "divided_cube-image":
        "fefc7ed2dfd9ad1738e014c31d2eaae8e74b10d3c2bdffb4447e7b759690f7eb",
    "stratum_prism-image":
        "1512d774e5d8a60cc1cea938fcbd9c8dfbc35cad4f10929e5851ba4efdac7c23",
    # recorded from the builder that hulled the torus cells, one hull per
    # translation class
    "stratum_prism-mirror-image":
        "1d5416e0bb3e9efd846ab5c2c18e1a142d2bf77de1180a082b195548b0b5c972",
    "split_prism-mirror-image":
        "7196f6958e3ae2ddc9e9c9e2e6eec00dfab065d6b989b83b86f32170e1eb20e3",
}


def structure_digest(cx) -> str:
    text = repr((cx.plates, cx.vertices, cx.edges, cx.cell_records,
                 cx.face_to_face, cx.diagnostics))
    return hashlib.sha256(text.encode()).hexdigest()


def structure_case_domain(name, kw, change):
    domain = generate(name, **kw)
    if change is None:
        return domain
    if change[0] == "replicate":
        return domain.replicate(*change[1])
    return domain.affine_image(*change[1])


def structure_case_complex(built, name, kw, change):
    if change is None:
        return built(name, **kw)
    return build_complex(structure_case_domain(name, kw, change))


# SHA-256 of repr(domain.cells) of each case: every apex object, facet
# normal, offset and ring and every volume, recorded from the hull that ran
# on Fraction coordinates.
DOMAIN_DIGESTS = {
    "cubic_lattice":
        "a0ca6979e74210527f5d0ec20a7985639424bd4798a417624a28c21cbdf0dc70",
    "parallel_pyramids":
        "029057310d7e51a0aac1d62af7bd77330d813b210606d1dcbc4b7db837ed5c82",
    "divided_cube":
        "38911fd6a94af15386a37f0d6847e4a0954c3c657693b0dd0b9cb71018226985",
    "split_prism":
        "20b682675a14874dabb8f0580ffe6f1077c57fb51899c807d151d6b2b319a4ab",
    "prism_columns":
        "d475e819b5c1f7a3227b60a5f1926af358c2a5588228a642e7a896b29e32c4bd",
    "stratum_prism":
        "f7496f9624d57c2e353511cafa8fec7bf4a9619a915d10cfe227a73f91f4a812",
    "spoke_cube":
        "efd28ab92137af298e3d381cab7c5494d2b817f6f54f0b049ec49d2f6e65d6cc",
    "core_prism_cube":
        "970ddc3e978e284c670151e647d3390afc37cee2ef242d998ed57995eca25f5b",
    "spoke_cube-k2-n1":
        "ba9bc73faaf4d6a8aed19f4cee60d226c3a78794fb0a0601d64bb6809afb5dbd",
    "core_prism_cube-k1-n1":
        "fab4b7e4b5f123ac8e4253fdea139951f1569a2d5e4a276c50cf62b98695912d",
    "prism_columns-triangle-offsets":
        "4208ddf3be8047d1400ec374af99431d1ae15682b8ae30240c0ce0f3f0929a4b",
    "cubic_lattice-2x2x2":
        "725fe26ae88efa6e60c1325baafe7826c243104c4b252d9fb1d59a42044a9698",
    "parallel_pyramids-1x2x1":
        "11d4e95018adefd327d6e643134a6ff9a990621cabe9db0ecd10612ba493c7e4",
    "parallel_pyramids-image":
        "9c15c18e1f6d32a8a3e27907312a2b01c775e188037d9275dba7190c63947c87",
    "divided_cube-image":
        "ff94acd82cb3919e134a453a3be32a22c349b52bdda9e6e19fb7b4fe55a2f482",
    "stratum_prism-image":
        "d2db8350e5f0e948b35959ca586c0678d10dded40bd8789bed5a050980f542b9",
    # recorded from the affine image that hulled every mapped cell
    "stratum_prism-mirror-image":
        "8163674c3c21910ed569e5c53f304e42251d7e359b4ee99106bcc141abac5743",
    "split_prism-mirror-image":
        "e0a5ecdd269a622fa24acf42fc154b747a7500fde9a7de25178d57d21057da2c",
}


@pytest.mark.parametrize("case_id,name,kw,change", STRUCTURE_CASES,
                         ids=[case[0] for case in STRUCTURE_CASES])
def test_domain_cells_are_pinned(case_id, name, kw, change):
    domain = structure_case_domain(name, kw, change)
    digest = hashlib.sha256(repr(domain.cells).encode()).hexdigest()
    assert digest == DOMAIN_DIGESTS[case_id]


@pytest.mark.parametrize("case_id,name,kw,change", STRUCTURE_CASES,
                         ids=[case[0] for case in STRUCTURE_CASES])
def test_build_structure_is_pinned(built, case_id, name, kw, change):
    cx = structure_case_complex(built, name, kw, change)
    assert structure_digest(cx) == STRUCTURE_DIGESTS[case_id]


# Domain maps and builds checked against tests/build_reference.py: domains
# as the generators make them (every coordinate a Fraction), with each whole
# coordinate an int, or scaled to int throughout; maps with int or Fraction
# entries and shifts, of either orientation.
def _whole_to_int(p):
    return tuple(x.numerator if x.denominator == 1 else x for x in p)


def _coordinates_as(domain, kind):
    if kind == "fraction":
        return domain
    if kind == "whole":
        return domain_module.FundamentalDomain(
            tuple(_whole_to_int(row) for row in domain.lattice),
            tuple(convex_hull([_whole_to_int(p) for p in cell.apices])
                  for cell in domain.cells))
    points = [*domain.lattice, *(p for cell in domain.cells for p in cell.apices)]
    m = lcm(*(x.denominator for p in points for x in p))
    return domain_module.FundamentalDomain(
        tuple(tuple(int(x * m) for x in row) for row in domain.lattice),
        tuple(convex_hull([tuple(int(x * m) for x in p) for p in cell.apices])
              for cell in domain.cells))


@st.composite
def _unimodular(draw):
    """Shears and a signed permutation of the rows: determinant 1 or -1,
    with int or Fraction entries."""
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                           st.sampled_from((-1, 1))), max_size=3)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows[0] = [-a for a in rows[0]]
    kind = draw(st.sampled_from((int, F)))
    return tuple(tuple(kind(x) for x in row) for row in rows)


_ENTRY = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-9, 9), st.integers(1, 6)))
_SHIFTS = st.tuples(_ENTRY, _ENTRY, _ENTRY)
_MATRICES = st.one_of(_unimodular(), st.tuples(_SHIFTS, _SHIFTS, _SHIFTS).filter(
    lambda m: det3(m) != 0))
_FACTORS = st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2))
_MIRROR = ((F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_GENERATORS), st.sampled_from(("fraction", "whole", "int")),
       _FACTORS, _MATRICES, _SHIFTS)
@example(ALL_GENERATORS[2], "int", (2, 1, 1), _MIRROR, (1, 2, 3))
@example(ALL_GENERATORS[7], "whole", (1, 1, 2), ((1, F(1, 2), 0), (0, 1, 0), (0, 0, -1)),
         (F(1, 3), 0, -2))
@example(ALL_GENERATORS[6], "fraction", (1, 2, 1), ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
         (0, 0, 0))
def test_domain_maps_match_the_fraction_reference(case, kind, factors, m, t):
    # the same lattice, apex objects, facet offsets of the same type and
    # volumes, to the character
    domain = _coordinates_as(generate(case[0], **case[1]), kind)
    assert repr(domain.replicate(*factors)) == \
        repr(build_reference.replicate(domain, *factors))
    assert repr(domain.affine_image(m, t)) == \
        repr(build_reference.affine_image(domain, m, t))


def _built_both_ways(domain):
    fast, full = build_complex(domain), build_reference.build_complex(domain)
    return ((structure_digest(fast), repr(validate(fast))),
            (structure_digest(full), repr(validate(full))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_GENERATORS),
       st.one_of(st.tuples(st.just("replicate"), _FACTORS),
                 st.tuples(st.just("affine"), st.tuples(_unimodular(), _SHIFTS))))
def test_the_builder_matches_the_exhaustive_reference(case, change):
    # one split per segment class, no clip of coinciding facets and no
    # interior test on a lone plate change nothing in the complex
    domain = generate(case[0], **case[1])
    if change[0] == "replicate":
        domain = domain.replicate(*change[1])
    else:
        domain = domain.affine_image(*change[1])
    fast, full = _built_both_ways(domain)
    assert fast == full


@pytest.mark.parametrize("case_id,name,kw,change", STRUCTURE_CASES,
                         ids=[case[0] for case in STRUCTURE_CASES])
def test_structure_cases_match_the_exhaustive_reference(case_id, name, kw, change):
    fast, full = _built_both_ways(structure_case_domain(name, kw, change))
    assert fast == full


@pytest.mark.parametrize("case_id,name,kw,change", STRUCTURE_CASES,
                         ids=[case[0] for case in STRUCTURE_CASES])
def test_a_lone_plate_is_its_facet(case_id, name, kw, change):
    # the builder reads a facet that one plate covers as wholly that plate
    builder = build._Builder(structure_case_domain(name, kw, change))
    builder.find_plates_and_certify()
    lone = 0
    for (ci, fi), entries in builder.covering.items():
        if len(entries) == 1:
            (idx, delta), = entries
            shift = builder._shift(delta)
            cell = builder.cells[ci]
            assert {add(p, shift) for p in builder.plates[idx].ring} == \
                {cell.apices[i] for i in cell.facets[fi].ring}
            lone += 1
    assert lone > 0


@st.composite
def _convex_rings(draw):
    """A counterclockwise convex ring of int points: the hull of a random
    set, by the monotone chain."""
    points = sorted(set(draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                                      min_size=3, max_size=12))))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains = []
    for run in (points, points[::-1]):
        chain = []
        for p in run:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    ring = chains[0] + chains[1]
    assume(len(ring) >= 3)
    return ring


@settings(max_examples=200, deadline=None)
@given(_convex_rings(), st.integers(0, 11))
def test_a_ring_clipped_by_its_own_corners_is_itself(ring, start):
    # two facing facets with the same corners meet in the first one's ring,
    # from its first corner, whichever corner the second one's ring starts at
    start %= len(ring)
    assert convex_intersection2(ring, ring[start:] + ring[:start]) == ring


def test_supercell_measures_identically(built):
    dom = generate("split_prism")
    base = measure(built("split_prism"))
    doubled = measure(build_complex(dom.replicate(2, 2, 2)))
    assert seven_tuple(base.params) == seven_tuple(doubled.params)
    assert base.params.vertex_intensity == doubled.params.vertex_intensity
    assert doubled.counts == {k: 8 * v for k, v in base.counts.items()}


def test_affine_image_measures_identically(built):
    m_mat = ((F(1), F(2), F(0)), (F(0), F(1), F(3)), (F(0), F(0), F(1)))
    t_vec = (F(1, 3), F(-2, 7), F(5))
    base = measure(built("stratum_prism"))
    mapped = measure(build_complex(
        generate("stratum_prism").affine_image(m_mat, t_vec)))
    assert seven_tuple(base.params) == seven_tuple(mapped.params)
    assert base.params.vertex_intensity == mapped.params.vertex_intensity


def test_measured_equals_derived_summary_everywhere(built):
    # validate() already compares field by field; spot-check the wiring here
    from tesstopo import derive
    m = measure(built("prism_columns", base="triangle"))
    summary = derive(m.params)
    assert m.intensities == summary.intensities
    assert m.mean_adjacencies == summary.mean_adjacencies
    assert m.corners_per_cell_side == summary.corners_per_cell_side
    assert m.corners_per_plate == summary.corners_per_plate


def test_formula_comparison_names_every_shared_quantity(built):
    import dataclasses

    from tesstopo.complexes.measure import _compare_to_formulas
    from tesstopo.params import derive

    measured = measure(built("cubic_lattice"))
    summary = derive(measured.params)
    assert _compare_to_formulas(measured, summary) == []
    corrupted = dataclasses.replace(
        measured,
        intensities={**measured.intensities, "cells": measured.intensities["cells"] + 1},
        mean_adjacencies={key: value + 1 if key == ("cell", "vertex") else value
                          for key, value in measured.mean_adjacencies.items()},
        apices_per_cell=measured.apices_per_cell + 1,
        pi_edges_per_vertex=measured.pi_edges_per_vertex + 1,
    )
    assert _compare_to_formulas(corrupted, summary) == [
        "intensity cells: measured 2, formula 1",
        "adjacency cell->vertex: measured 9, formula 8",
        "apices per cell: measured 9, formula 8",
        "pi edges per vertex: measured 1, formula 0",
    ]


def _torus_coordinates(cx):
    """Every coordinate of the complex, tagged with whether it is canonical."""
    for plate in cx.plates:
        for p in plate.ring:
            yield False, p
        for piece in plate.side_pieces:
            for p in piece:
                yield False, p
    for v in cx.vertices:
        yield True, v.position
    for e in cx.edges:
        yield True, e.endpoints[0]
        yield False, e.endpoints[1]
    for cell in cx.cells:
        for p in cell.apices:
            yield False, p
        yield False, [f.offset for f in cell.facets] + [cell.volume]


@pytest.mark.parametrize("case_id,name,kw,change", STRUCTURE_CASES,
                         ids=[case[0] for case in STRUCTURE_CASES])
def test_complex_coordinates_are_fractions_in_torus_units(built, case_id, name, kw,
                                                          change):
    cx = structure_case_complex(built, name, kw, change)
    for canonical, values in _torus_coordinates(cx):
        assert all(type(x) is F for x in values), (case_id, values)
        if canonical:
            assert all(0 <= x < 1 for x in values), (case_id, values)
    assert sum(cell.volume for cell in cx.cells) == 1


# Lattices and offsets with coprime denominators 997 and 991 make the
# builder's common denominator D large; the digests and parameters were
# recorded from the builder that worked on Fraction values.
_UNIT_CUBE = _box(0, 0, 0, 1, 1, 1)
LARGE_SCALE_CASES = [
    ("sheared-cube-stack", lambda: make_domain(
        ((1, 0, 0), (0, 1, 0), ("1/997", "1/991", 1)), [_UNIT_CUBE]),
     997 * 991,
     "166e717a96121a2fd133df4f5ea6c015d0c9ad115cc2f9fc360b95337c26dc00",
     ("9/2", "28/9", "14/3", "8/9", "1/2", "2", "1", "4"),
     {"vertices": 4, "edges": 9, "plates": 6, "cells": 1, "pi_edges": 8}),
    ("prism_columns-square-offsets", lambda: generate(
        "prism_columns", base="square", offsets=("1/997", "1/991", "0", "1/2")),
     2 * 997 * 991,
     "d38ca9b58250fef1b9120865371e8241cfd56e37e85455bb6ed5c12d6427d1fd",
     ("4", "7/2", "28/5", "1/2", "0", "3", "2", "4"),
     {"vertices": 16, "edges": 32, "plates": 20, "cells": 4, "pi_edges": 16}),
]


@pytest.mark.parametrize("case_id,make,scale,digest,params,counts", LARGE_SCALE_CASES,
                         ids=[case[0] for case in LARGE_SCALE_CASES])
def test_large_common_denominator_builds_exactly(case_id, make, scale, digest,
                                                 params, counts):
    dom = make()
    assert build._Builder(dom).scale == scale
    cx = build_complex(dom)
    assert structure_digest(cx) == digest
    m = measure(cx)
    assert tuple(str(v) for v in m.params.as_dict().values()) == params
    assert m.counts == counts
    assert validate(cx).ok


# Two layers of triangular prisms whose vertical walls cross at (2/3, 1/3)
# on the plane between them, where no cell has an apex: with D = 2 that
# plate corner is (4/3, 2/3, 1) in scaled coordinates, not an int point.
_CROSSED_LAYERS = [
    [(0, 0, 0), (1, 0, 0), (1, "1/2", 0), (0, 0, "1/2"), (1, 0, "1/2"), (1, "1/2", "1/2")],
    [(0, 0, 0), (1, "1/2", 0), (1, 1, 0), (0, 1, 0),
     (0, 0, "1/2"), (1, "1/2", "1/2"), (1, 1, "1/2"), (0, 1, "1/2")],
    [(0, 0, "1/2"), (1, 0, "1/2"), (0, 1, "1/2"), (0, 0, 1), (1, 0, 1), (0, 1, 1)],
    [(1, 0, "1/2"), (1, 1, "1/2"), (0, 1, "1/2"), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
]


def test_plate_corner_off_the_scaled_grid_is_exact():
    cx = build_complex(make_domain(((1, 0, 0), (0, 1, 0), (0, 0, 1)), _CROSSED_LAYERS))
    assert structure_digest(cx) == \
        "15f5053ee77e6008c881a22f11d42b194576a769301c72f232caacda8ca7d97d"
    corner = ("(Fraction(2, 3), Fraction(1, 3), Fraction(0, 1))",
              "(Fraction(2, 3), Fraction(1, 3), Fraction(1, 2))")
    assert cx.diagnostics == tuple(
        f"plate {idx} corner {at} is not an apex of any cell"
        for idx, at in zip((3, 4, 5, 6, 8, 9, 10, 11), corner * 4))
    m = measure(cx)
    assert tuple(str(v) for v in m.params.as_dict().values()) == \
        ("17/3", "62/17", "62/15", "9/17", "0", "7/3", "4/3", "6")
    assert validate(cx).ok


def _intersection_dimension(builder, i, j, t):
    """Affine dimension of cell_i meet (cell_j + t), decided from every
    vertex of the intersection: each point where three of the two cells'
    facet planes meet and that satisfies every facet inequality."""
    shift = builder._shift(t)
    planes = [(f.normal, f.offset) for f in builder.cells[i].facets]
    planes += [(f.normal, f.offset + dot(f.normal, shift))
               for f in builder.cells[j].facets]
    pts = []
    for (n1, c1), (n2, c2), (n3, c3) in combinations(planes, 3):
        if det3((n1, n2, n3)) == 0:
            continue
        x = solve3((n1, n2, n3), (c1, c2, c3))
        if all(dot(n, x) <= c for n, c in planes) and x not in pts:
            pts.append(x)
    if not pts:
        return -1
    rank = 0
    base = pts[0]
    dirs = []
    for p in pts[1:]:
        d = sub(p, base)
        if rank == 0:
            if d != ZERO3:
                dirs.append(d)
                rank = 1
        elif rank == 1:
            if cross(dirs[0], d) != ZERO3:
                dirs.append(d)
                rank = 2
        elif rank == 2 and det3((dirs[0], dirs[1], d)) != 0:
            rank = 3
            break
    return rank


def _closed_window(builder, i, j):
    """Every lattice shift under which the two cells' boxes meet at all."""
    (lo_i, hi_i), (lo_j, hi_j), d = builder.bounds[i], builder.bounds[j], builder.scale
    return product(*(range(-((hi_j[k] - lo_i[k]) // d), (hi_i[k] - lo_j[k]) // d + 1)
                     for k in range(3)))


def _certification_agrees_with_intersection_dimension(domain):
    """Check _separated against the reference at every shift where the two
    cells' boxes meet at all, and that the shifts left out of the open
    window have no overlap; returns how many pairs have each dimension."""
    builder = build._Builder(domain)
    n = len(builder.cells)
    dims = Counter()
    for i in range(n):
        for j in range(i, n):
            opened = set(builder._shift_window(i, j))
            for t in _closed_window(builder, i, j):
                dim = _intersection_dimension(builder, i, j, t)
                dims[dim] += 1
                assert builder._separated(i, j, t) == (dim < 3), (i, j, t, dim)
                assert t in opened or dim < 3, (i, j, t, dim)
    return dims


@pytest.mark.parametrize("name,kw", ALL_GENERATORS,
                         ids=[f"{n}-{kw}" for n, kw in ALL_GENERATORS])
def test_separated_agrees_with_intersection_dimension(name, kw):
    dims = _certification_agrees_with_intersection_dimension(generate(name, **kw))
    assert dims[2] > 0 and dims[3] > 0  # plates, and each cell with itself


def test_separated_finds_the_overlaps_the_reference_finds():
    for case in (_POST_IN_SLAB, _INNER_IN_SLAB):
        dims = _certification_agrees_with_intersection_dimension(make_domain(*case))
        assert dims[3] > 2  # more than each cell meeting itself


def _apart(builder, normal):
    """Whether the plane normal to ``normal`` separates the two cells."""
    along = [[dot(normal, p) for p in cell.apices] for cell in builder.cells]
    return max(along[0]) <= min(along[1]) or max(along[1]) <= min(along[0])


def test_cells_meeting_at_one_point_are_separated_by_a_ridge_pair():
    # A keeps the ridge from (-1, 0, 0) to (1, 0, 0) on top, B the ridge from
    # (0, -1, 0) to (0, 1, 0) at the bottom; the ridges cross at the origin,
    # the only common point, and only their cross product, the z axis,
    # gives a separating plane.
    below = convex_hull([(-1, 0, 0), (1, 0, 0), (0, 1, -1), (0, -1, -1)])
    above = convex_hull([(0, -1, 0), (0, 1, 0), (1, 0, 1), (-1, 0, 1)])
    builder = build._Builder.__new__(build._Builder)
    builder.scale, builder.cells = 1, [below, above]
    assert not any(_apart(builder, f.normal) for f in below.facets + above.facets)
    assert _apart(builder, (0, 0, 1))
    assert _intersection_dimension(builder, 0, 1, (0, 0, 0)) == 0
    assert builder._separated(0, 1, (0, 0, 0))
    # lifted by a quarter of B's height, B's ridge pokes into A
    builder.cells = [below, map_cell(above, [add(p, (0, 0, F(-1, 4))) for p in above.apices])]
    assert _intersection_dimension(builder, 0, 1, (0, 0, 0)) == 3
    assert not builder._separated(0, 1, (0, 0, 0))


@pytest.mark.parametrize("name,kw", ALL_GENERATORS,
                         ids=[f"{n}-{kw}" for n, kw in ALL_GENERATORS])
def test_plate_sides_are_edges_already(name, kw):
    # every plate side lies in a ridge of one of its two cells, and its
    # corners are vertices, so splitting it gives pieces of that ridge
    builder = build._Builder(generate(name, **kw))
    builder.find_plates_and_certify()
    builder.register_vertices()
    builder.build_edges()
    edges = list(builder.edge_ids)
    builder.annotate_plates()
    assert list(builder.edge_ids) == edges


def _set(records, index, **values):
    def doctor(cx):
        for key, value in values.items():
            setattr(getattr(cx, records)[index], key, value)
    return doctor


def _every_vertex_has_three_edges(cx):
    for v in cx.vertices:
        v.edge_count = 3


def _one_vertex_more(cx):
    cx.vertices += (copy.deepcopy(cx.vertices[0]),)


# One doctored field of the divided cube complex (8 vertices, 44 edges, 24
# cells; every vertex has 14 edges, edge 0 has 8 plates and 8 cells, cell 0
# has 5 apices) and a failure validate reports for it. The hemi count of 2
# is a state the builder no longer rules out itself: certification leaves
# at most one cell with a vertex inside a facet, and validate checks it.
VALIDATION_FAILURES = [
    ("few-edges", _set("vertices", 0, edge_count=3), "vertex 0 has only 3 edges"),
    ("two-hemi", _set("vertices", 0, hemi_count=2), "vertex 0 lies inside 2 facets"),
    ("side-over-ridge", _set("vertices", 0, side_interior_count=1),
     "vertex 0: inside 1 plate sides but only 0 cell ridges"),
    ("pi-deficit", _set("vertices", 0, ridge_interior_count=1),
     "vertex 0: too few emanating facet-interior edges for its interior "
     "incidences (deficit 2)"),
    ("few-plates", _set("edges", 0, plate_count=2, cell_count=2),
     "edge 0 has only 2 plates"),
    ("plates-cells", _set("edges", 0, cell_count=9),
     "edge 0: 8 plates but 9 cells around it; these must alternate equally"),
    ("euler", _one_vertex_more, "identity euler_intensities has residual 1/8, not 0"),
    ("vertex-alternation", _set("vertices", 0, plate_count=37),
     "identity vertex_alternation has residual -1/8, not 0"),
    ("cell-alternation", _set("cell_records", 0, vertex_incidences=6),
     "identity cell_alternation has residual 1/24, not 0"),
    ("surface-alternation", _set("cell_records", 0, apex_count=6),
     "identity cell_surface_euler has residual 1/24, not 0"),
    ("formula", _set("cell_records", 0, apex_count=6),
     "apices per cell: measured 121/24, formula 5"),
    ("infeasible", _every_vertex_has_three_edges,
     "measured parameters violate feasibility: edges_per_vertex_min, plates_per_edge_cap"),
]


@pytest.mark.parametrize("case_id,doctor,message", VALIDATION_FAILURES,
                         ids=[case[0] for case in VALIDATION_FAILURES])
def test_every_validation_failure_is_reachable(built, case_id, doctor, message):
    base = built("divided_cube")
    assert validate(base).ok
    cx = copy.deepcopy(base)
    doctor(cx)
    report = validate(cx)
    assert not report.ok
    assert message in report.failures
