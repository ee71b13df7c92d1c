"""Worked-example catalog.

Every entry stores exact parameter values for one reference tessellation:
classical random models, lattice partitions, and outputs of the stratum,
column, central-point and mixture constructions. Values involving pi^2 are
kept exact; decimals only appear when a caller asks for them.

Entries can be partial. A missing field is ``None`` and the self-check in
:func:`verify_catalog` only runs the tests its fields permit. Three entry
families take integer arguments and are addressed as, for example,
``ex11_spoke_cube(k=2,n=0)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import UnknownEntryError
from .feasibility import classify, classify_partial, plate_cap
from .params import TessParams, derive
from .scalar import Scalar, as_scalar
from . import transforms as _tr

__all__ = ["CatalogEntry", "get", "list_ids", "entries", "verify_catalog",
           "CatalogReport"]

_INTERIOR = ("pi_edge_share", "hemi_vertex_share",
             "ridge_interior_rate", "side_interior_rate")
_CYCLIC = ("edges_per_vertex", "plates_per_edge", "vertices_per_plate")


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    title: str
    construction: str
    face_to_face: bool
    edges_per_vertex: Scalar
    plates_per_edge: Scalar
    vertices_per_plate: Scalar | None = None
    pi_edge_share: Scalar | None = None
    hemi_vertex_share: Scalar | None = None
    ridge_interior_rate: Scalar | None = None
    side_interior_rate: Scalar | None = None
    # mean adjacency facts beyond the seven parameters: (of, to, value)
    adjacency_checks: tuple[tuple[str, str, Scalar], ...] = ()
    generator: str | None = None
    generator_args: dict | None = None
    derived_from: tuple[str, str] | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        for name in _CYCLIC + _INTERIOR:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, as_scalar(value))
        object.__setattr__(self, "adjacency_checks", tuple(
            (of, to, as_scalar(value)) for of, to, value in self.adjacency_checks))

    @property
    def recorded(self) -> dict[str, Scalar]:
        """The parameter fields the entry records, by name."""
        return {f: getattr(self, f) for f in _CYCLIC + _INTERIOR
                if getattr(self, f) is not None}

    @property
    def is_complete(self) -> bool:
        return len(self.recorded) == len(_CYCLIC + _INTERIOR)

    @property
    def on_cap_curve(self) -> bool:
        """Exactly on plates_per_edge = 6(1 - 2/edges_per_vertex)."""
        return self.plates_per_edge == plate_cap(self.edges_per_vertex)

    def to_params(self) -> TessParams:
        """The entry as a full parameter set with unit vertex intensity.

        Face-to-face entries with unrecorded interior fields get the zero
        defaults of :class:`TessParams`; that is forced, not a guess.
        Anything else incomplete raises.
        """
        recorded = self.recorded
        for f in _CYCLIC + _INTERIOR:
            if f not in recorded and not (self.face_to_face and f in _INTERIOR):
                raise ValueError(f"{self.entry_id} does not record {f}")
        return TessParams.create(**recorded)

    def as_doc(self) -> dict:
        """The entry as recorded; unrecorded parameters are None."""
        return {
            "id": self.entry_id,
            "title": self.title,
            "construction": self.construction,
            "complete": self.is_complete,
            "face_to_face": self.face_to_face,
            "on_cap_curve": self.on_cap_curve,
            "parameters": {f: getattr(self, f) for f in _CYCLIC + _INTERIOR},
            "adjacency_checks": {f"{a}->{b}": v for a, b, v in self.adjacency_checks},
            "generator": self.generator,
            "generator_args": self.generator_args,
            "derived_from": self.derived_from,
            "notes": self.notes,
        }


F = Fraction

_FIXED: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "ex01_voronoi", "Poisson-Voronoi",
        "Voronoi cells of a stationary Poisson point process.",
        True, 4, 3, Scalar((0, 144), (35, 24)), 0, 0, 0, 0,
        notes="Sits exactly on the ceiling curve at (4, 3).",
    ),
    CatalogEntry(
        "ex02_delaunay", "Poisson-Delaunay",
        "Delaunay tetrahedra spanned by a stationary Poisson point process.",
        True, Scalar((70, 48), 35), Scalar((0, 144), (35, 24)), 3, 0, 0, 0, 0,
        adjacency_checks=(("cell", "vertex", 4), ("cell", "edge", 6), ("cell", "plate", 4)),
        notes="All cells are tetrahedra, hence on the ceiling curve.",
    ),
    CatalogEntry(
        "ex03_poisson_planes", "Random plane partition",
        "Cells cut out by stationary random planes in general position; "
        "a Poisson plane process gives four corners per plate.",
        True, 6, 4, 4, 0, 0, 0, 0,
    ),
    CatalogEntry(
        "ex04_stit", "Iterated cell division",
        "Cells divided recursively by random chords (stable under iteration).",
        False, 4, 3, F(36, 7), 1, F(2, 3), 2, F(4, 3),
        notes="Every edge is a pi-edge; on the ceiling curve at (4, 3).",
    ),
    CatalogEntry(
        "ex05_cubic", "Cubic lattice",
        "Unit cubes packed face to face.",
        True, 6, 4, 4, 0, 0, 0, 0,
        generator="cubic_lattice",
    ),
    CatalogEntry(
        "ex06a_triangle_columns", "Triangle-grid columns",
        "Prisms over a regular triangle grid, each column cut independently.",
        False, 4, F(9, 2), F(27, 4), F(1, 2), 0, 5, 4,
        generator="prism_columns", generator_args={"base": "triangle"},
        derived_from=("column", "planar_triangle_grid"),
    ),
    CatalogEntry(
        "ex06b_square_columns", "Square-grid columns",
        "Prisms over the square grid, each column cut independently.",
        False, 4, F(7, 2), F(28, 5), F(1, 2), 0, 3, 2,
        generator="prism_columns", generator_args={"base": "square"},
        derived_from=("column", "planar_square_grid"),
    ),
    CatalogEntry(
        "ex06c_cairo_columns", "Cairo columns",
        "Prisms over the Cairo pentagon tiling, each column cut independently.",
        False, 4, F(16, 5), F(16, 3), F(1, 2), 0, F(12, 5), F(7, 5),
        derived_from=("column", "planar_cairo"),
    ),
    CatalogEntry(
        "ex06d_hexagon_columns", "Hexagon columns",
        "Prisms over the hexagon tiling, each column cut independently.",
        False, 4, 3, F(36, 7), F(1, 2), 0, 2, 1,
        derived_from=("column", "planar_hexagon_grid"),
        notes="On the ceiling curve at (4, 3) despite positive side rate.",
    ),
    CatalogEntry(
        "ex07_diagonal_pyramids", "Diagonal pyramid cubes",
        "Each unit cube is split into three congruent pyramids meeting on a "
        "cube diagonal; diagonals in every 2x2x2 block point at the block "
        "centre so no added plate shows on the block surface.",
        True, 11, F(48, 11), F(16, 5), 0, 0, 0, 0,
        adjacency_checks=(("vertex", "cell", 15), ("cell", "vertex", 5)),
        generator="divided_cube",
        notes="Vertices are lattice points with three pyramids each. Shares "
              "its tuple with ex10d_coned_cubic, a different construction.",
    ),
    CatalogEntry(
        "ex08_divided_delaunay", "Divided Delaunay",
        "Each Delaunay tetrahedron is split in two by a plate through one "
        "ridge and a uniform point on the opposite ridge.",
        False,
        Scalar((70, 224), (35, 32)),
        Scalar((0, 12600, 12672), (1225, 4760, 2688)),
        Scalar((1575, 1584), (560, 384)),
        Scalar((0, 64), (35, 112)),
        0,
        Scalar((0, 280, 4224), (1225, 1960, 768)),
        Scalar((0, -1120, 3264), (1225, 1960, 768)),
    ),
    CatalogEntry(
        "ex09a_voronoi_stratum", "Voronoi stratum",
        "Unit-depth slabs over a planar Poisson-Voronoi tessellation.",
        True, 5, F(18, 5), F(9, 2), 0, 0, 0, 0,
        derived_from=("stratum", "planar_voronoi"),
    ),
    CatalogEntry(
        "ex09b_delaunay_stratum", "Delaunay stratum",
        "Unit-depth slabs over a planar Poisson-Delaunay tessellation.",
        True, 8, F(9, 2), F(18, 5), 0, 0, 0, 0,
        derived_from=("stratum", "planar_delaunay"),
    ),
    CatalogEntry(
        "ex09c_overlay_stratum", "Overlay stratum",
        "Unit-depth slabs over the superposition of a planar Voronoi "
        "tessellation with its dual.",
        True, 6, 4, 4, 0, 0, 0, 0,
        derived_from=("stratum", "planar_voronoi_delaunay_overlay"),
    ),
    CatalogEntry(
        "ex09d_stit_stratum", "Iterated-division stratum",
        "Unit-depth slabs over a planar iterated chord division.",
        False, 5, F(18, 5), F(9, 2), F(2, 5), 0, 2, 1,
        derived_from=("stratum", "planar_stit"),
    ),
    CatalogEntry(
        "ex10a_coned_voronoi", "Coned Poisson-Voronoi",
        "Every Voronoi cell coned to an interior point.",
        True, Scalar((0, 288), (35, 24)), 4, Scalar((0, 576), (35, 168)),
        derived_from=("central_point", "ex01_voronoi"),
        notes="Interior parameters vanish (face-to-face input) but are "
              "recorded as unspecified.",
    ),
    CatalogEntry(
        "ex10b_coned_delaunay", "Coned Poisson-Delaunay",
        "Every Delaunay tetrahedron coned to an interior point; the pieces "
        "are again tetrahedra.",
        True, Scalar((70, 240), (35, 24)), Scalar((0, 576), (35, 120)), 3,
        derived_from=("central_point", "ex02_delaunay"),
        notes="Tetrahedral cells force the ceiling equality "
              "plates_per_edge = 6(1 - 2/edges_per_vertex).",
    ),
    CatalogEntry(
        "ex10c_coned_stit", "Coned iterated division",
        "Every cell of the iterated chord division coned to an interior point.",
        False, F(40, 7), F(21, 5), F(84, 19), F(3, 5), F(4, 7), F(24, 7), F(20, 7),
        derived_from=("central_point", "ex04_stit"),
    ),
    CatalogEntry(
        "ex10d_coned_cubic", "Coned cubic lattice",
        "Every unit cube coned to its centre, giving six pyramids per cube.",
        True, 11, F(48, 11), F(16, 5), 0, 0, 0, 0,
        derived_from=("central_point", "ex05_cubic"),
    ),
    CatalogEntry(
        "ex10e_coned_triangle_columns", "Coned triangle columns",
        "Every triangle-column prism coned to an interior point.",
        False, 6, F(23, 4), F(69, 13), F(1, 4), 0, F(15, 2), F(27, 4),
        derived_from=("central_point", "ex06a_triangle_columns"),
    ),
    CatalogEntry(
        "ex13a_weighted_mixture", "Delaunay and coned-column mixture, weighted",
        "Ergodic mixture: probability 4/5 Poisson-Delaunay, probability 1/5 "
        "coned triangle columns, the latter with twice the vertex intensity.",
        False,
        Scalar((350, 96), 105),
        Scalar((2415, 1152), (700, 192)),
        Scalar((2415, 1152), (455, 384)),
        Scalar(105, (700, 192)),
        0, F(5, 2), F(9, 4),
        derived_from=("mixture", "ex02_delaunay+ex10e_coned_triangle_columns"),
    ),
    CatalogEntry(
        "ex13b_equal_mixture", "Delaunay and coned-column mixture, equal",
        "Ergodic mixture: probability 4/5 Poisson-Delaunay, probability 1/5 "
        "coned triangle columns, both with the same vertex intensity.",
        False,
        Scalar((490, 192), 175),
        Scalar((2415, 2304), (980, 384)),
        Scalar((2415, 2304), (455, 768)),
        Scalar(105, (980, 384)),
        0, F(3, 2), F(27, 20),
        derived_from=("mixture", "ex02_delaunay+ex10e_coned_triangle_columns"),
    ),
    CatalogEntry(
        "ex15_split_prism", "Split prism cubes",
        "Each unit cube is split into two triangular prisms by a rectangular "
        "plate whose orientation alternates with a parity pattern.",
        False, 10, 4, F(10, 3), F(2, 5), 0, 0, 0,
        generator="split_prism",
        notes="Positive pi-edge share with every other interior rate zero.",
    ),
    CatalogEntry(
        "ex16_parallel_pyramids", "Parallel diagonal pyramids",
        "Each unit cube is split into three congruent pyramids as in the "
        "diagonal-pyramid model, but with all diagonals parallel, so the "
        "diagonals become pi-edges.",
        False, 14, F(27, 7), 3, F(3, 7), 0, 0, 0,
        generator="parallel_pyramids",
        notes="Non-face-to-face entry sitting exactly at three corners per plate.",
    ),
    CatalogEntry(
        "ex17_stratum_prism", "Prism stratum with hemi-vertices",
        "Aligned triangle columns form strata; in every second stratum each "
        "prism is cut into three congruent prisms, creating hemi-vertices "
        "and nothing else.",
        False, F(22, 3), F(42, 11), F(7, 2), F(6, 11), F(2, 3), 0, 0,
        generator="stratum_prism",
    ),
    CatalogEntry(
        "ex18a_rhombic_dodecahedra", "Rhombic dodecahedra",
        "The classical face-to-face tiling by rhombic dodecahedra.",
        True, F(16, 3), 3, 4, 0, 0, 0, 0,
        notes="Sits on the plate floor plates_per_edge = 3.",
    ),
    CatalogEntry(
        "ex18b_split_rhombic_dodecahedra", "Split rhombic dodecahedra",
        "Rhombic dodecahedra cut into smaller convex pieces, avoiding every "
        "ridge interior; first variant.",
        False, 8, 3,
        notes="Only the vertex degree and plate count per edge are recorded.",
    ),
    CatalogEntry(
        "ex18c_split_rhombic_dodecahedra_finer", "Split rhombic dodecahedra, finer",
        "Rhombic dodecahedra cut into smaller convex pieces, avoiding every "
        "ridge interior; second variant.",
        False, 10, 3,
        notes="Only the vertex degree and plate count per edge are recorded.",
    ),
)


def spoke_cube_entry(k: int, n: int) -> CatalogEntry:
    """Cube with a centre line split into k+1 edges, its ends and split
    points joined by spokes to 4(n+1) boundary vertices of the top and
    bottom facets. The vertex degree grows without bound in k and n."""
    if k < 0 or n < 0:
        raise UnknownEntryError(f"spoke cube needs k, n >= 0, got k={k}, n={n}")
    ve = F(2 * (12 + 5 * k + 12 * n + 4 * k * n), 2 + k + 2 * n)
    ep = F(8 * (7 + 3 * k) * (1 + n), 12 + 5 * k + 12 * n + 4 * k * n)
    pv = F(4 * (7 + 3 * k), 9 + 4 * k)
    vp = F(8 * (7 + 3 * k) * (1 + n), 2 + k + 2 * n)
    vz = F(4 * (9 + 4 * k) * (1 + n), 2 + k + 2 * n)
    return CatalogEntry(
        f"ex11_spoke_cube(k={k},n={n})", "Spoke cube",
        "Cubic lattice with a subdivided centre line and boundary spokes in "
        "every cube; unbounded vertex degree.",
        True, ve, ep, pv, 0, 0, 0, 0,
        adjacency_checks=(("vertex", "plate", vp), ("vertex", "cell", vz)),
        generator="spoke_cube", generator_args={"k": k, "n": n},
    )


def core_prism_cube_entry(k: int, n: int) -> CatalogEntry:
    """Cube with a central stack of k+1 prisms over a 4(n+1)-gon; cells
    adjacent to the core see unboundedly many vertices as k, n grow."""
    if k < 0 or n < 0:
        raise UnknownEntryError(f"core prism cube needs k, n >= 0, got k={k}, n={n}")
    ve = F(2 * (15 + 8 * k + 16 * n + 8 * k * n), 5 + 4 * k + 6 * n + 4 * k * n)
    ep = F(12 * (5 + 2 * k) * (1 + n), 15 + 8 * k + 16 * n + 8 * k * n)
    pv = F(12 * (5 + 2 * k) * (1 + n), 15 + 5 * k + 14 * n + 4 * k * n)
    zv = F(8 * (5 + 2 * k) * (1 + n), 5 + k + 4 * n)
    ze = F(12 * (5 + 2 * k) * (1 + n), 5 + k + 4 * n)
    zp = F(2 * (15 + 5 * k + 14 * n + 4 * k * n), 5 + k + 4 * n)
    ftf = k == 0
    interior = dict.fromkeys(_INTERIOR, 0) if ftf else {}
    return CatalogEntry(
        f"ex12_core_prism_cube(k={k},n={n})", "Core prism cube",
        "Cubic lattice with a central stack of k+1 prisms over a 4(n+1)-gon "
        "in every cube; unbounded vertex count per cell.",
        ftf, ve, ep, pv,
        adjacency_checks=(("cell", "vertex", zv), ("cell", "edge", ze), ("cell", "plate", zp)),
        generator="core_prism_cube", generator_args={"k": k, "n": n},
        notes="" if ftf else ("Stacked core prisms break the face-to-face "
                              "property for k >= 1; the interior rates are "
                              "left to measurement."),
        **interior,
    )


def gridded_square_columns_entry(n: int) -> CatalogEntry:
    """Columns over the square grid with a 4n-spoke hub in every cell; the
    plate count per edge grows without bound while the degree stays 4."""
    p = _tr.column(_tr.planar_gridded_square(n))
    return CatalogEntry(
        f"ex14_gridded_square_columns(n={n})", "Gridded-square columns",
        "Columns over a square grid with a hub vertex and 4n spokes in "
        "every cell; unbounded plate count per edge at vertex degree 4.",
        False, p.edges_per_vertex, p.plates_per_edge, p.vertices_per_plate,
        p.pi_edge_share, p.hemi_vertex_share,
        p.ridge_interior_rate, p.side_interior_rate,
        derived_from=("column", f"planar_gridded_square({n})"),
    )


_FAMILIES: dict[str, tuple[Callable[..., CatalogEntry], tuple[str, ...]]] = {
    "ex11_spoke_cube": (spoke_cube_entry, ("k", "n")),
    "ex12_core_prism_cube": (core_prism_cube_entry, ("k", "n")),
    "ex14_gridded_square_columns": (gridded_square_columns_entry, ("n",)),
}

_BY_ID = {e.entry_id: e for e in _FIXED}

_FAMILY_ID = re.compile(r"^(?P<base>\w+)\((?P<args>[^()]*)\)$")


def get(entry_id: str) -> CatalogEntry:
    if entry_id in _BY_ID:
        return _BY_ID[entry_id]
    m = _FAMILY_ID.match(entry_id.replace(" ", ""))
    if m and m.group("base") in _FAMILIES:
        build, names = _FAMILIES[m.group("base")]
        given: dict[str, int] = {}
        for part in filter(None, m.group("args").split(",")):
            key, _, raw = part.partition("=")
            if key not in names or not re.fullmatch(r"-?\d+", raw):
                raise UnknownEntryError(
                    f"bad argument {part!r} for {m.group('base')}")
            given[key] = int(raw)
        if set(given) != set(names):
            raise UnknownEntryError(
                f"{m.group('base')} needs arguments {', '.join(names)}")
        return build(**given)
    raise UnknownEntryError(f"no catalog entry named {entry_id!r}")


def list_ids() -> tuple[str, ...]:
    family_templates = tuple(
        f"{base}({','.join(names)})" for base, (_, names) in _FAMILIES.items())
    return tuple(e.entry_id for e in _FIXED) + family_templates


def entries() -> Iterator[CatalogEntry]:
    """Fixed entries plus small representatives of each family."""
    yield from _FIXED
    for k, n in ((0, 0), (2, 0), (0, 1), (2, 1), (3, 3)):
        yield spoke_cube_entry(k, n)
        yield core_prism_cube_entry(k, n)
    for n in (1, 2, 8):
        yield gridded_square_columns_entry(n)


_PLANAR = {
    "planar_voronoi": _tr.planar_voronoi,
    "planar_delaunay": _tr.planar_delaunay,
    "planar_stit": _tr.planar_stit,
    "planar_voronoi_delaunay_overlay": _tr.planar_voronoi_delaunay_overlay,
    "planar_square_grid": _tr.planar_square_grid,
    "planar_triangle_grid": _tr.planar_triangle_grid,
    "planar_hexagon_grid": _tr.planar_hexagon_grid,
    "planar_cairo": _tr.planar_cairo,
}

# mixture recipes for the two mixture entries: (weight, source id, intensity)
_MIX = {
    "ex13a_weighted_mixture": ((F(4, 5), "ex02_delaunay", 1),
                               (F(1, 5), "ex10e_coned_triangle_columns", 2)),
    "ex13b_equal_mixture": ((F(4, 5), "ex02_delaunay", 1),
                            (F(1, 5), "ex10e_coned_triangle_columns", 1)),
}

# entries that must sit exactly on the ceiling curve
_ON_CURVE = {
    "ex01_voronoi", "ex02_delaunay", "ex04_stit", "ex06d_hexagon_columns",
    "ex09a_voronoi_stratum", "ex09b_delaunay_stratum", "ex09c_overlay_stratum",
    "ex09d_stit_stratum", "ex10b_coned_delaunay",
}


@dataclass(frozen=True)
class CatalogReport:
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_doc(self) -> dict:
        return {"checked": self.checked, "ok": self.ok, "failures": self.failures}


def _rebuild(entry: CatalogEntry) -> TessParams | None:
    """Recompute a derived entry from its recorded source, if possible."""
    if entry.entry_id in _MIX:
        parts = [(get(src).to_params().with_values(vertex_intensity=lam), w)
                 for w, src, lam in _MIX[entry.entry_id]]
        return _tr.mixture(parts)
    if entry.derived_from is None:
        return None
    kind, source = entry.derived_from
    if kind == "stratum":
        return _tr.stratum(_PLANAR[source]())
    if kind == "column":
        if source.startswith("planar_gridded_square("):
            return _tr.column(_tr.planar_gridded_square(
                int(source[len("planar_gridded_square("):-1])))
        return _tr.column(_PLANAR[source]())
    if kind == "central_point":
        return _tr.central_point(get(source).to_params())
    return None


def _check_entry(entry: CatalogEntry, complain) -> None:
    if entry.is_complete or entry.face_to_face:
        params = entry.to_params()
        report = classify(params)
        if not report.feasible:
            complain(f"infeasible: {sorted(report.violated)}")
        want = "face_to_face" if entry.face_to_face else "general"
        if report.branch != want:
            complain(f"branch {report.branch}, expected {want}")
        summary = derive(params)
        for of, to, value in entry.adjacency_checks:
            got = summary.mean_adjacent(of, to)
            if got != value:
                complain(f"mean {of}->{to} adjacency is {got.render()}, "
                         f"entry says {value.render()}")
    else:
        # partial data: only the rows whose fields are present
        failed = [b.name for b in classify_partial(entry.recorded) if not b.satisfied]
        if failed:
            complain(f"infeasible: {sorted(failed)}")

    if entry.entry_id in _ON_CURVE and not entry.on_cap_curve:
        complain("expected exactly on the ceiling curve")

    rebuilt = _rebuild(entry)
    if rebuilt is not None:
        for field, stored in entry.recorded.items():
            if getattr(rebuilt, field) != stored:
                complain(f"construction gives {field} = "
                         f"{getattr(rebuilt, field).render()}, entry stores "
                         f"{stored.render()}")


def verify_catalog() -> CatalogReport:
    """Re-derive everything checkable about every entry."""
    failures: list[str] = []
    count = 0
    for entry in entries():
        count += 1
        _check_entry(entry, lambda msg, e=entry: failures.append(f"{e.entry_id}: {msg}"))
        if entry.generator_args is not None and entry.generator is None:
            failures.append(f"{entry.entry_id}: generator args without generator")
    for family, (_, names) in _FAMILIES.items():
        count += 1
        try:
            get(f"{family}({','.join(f'{x}=1' for x in names)})")
        except UnknownEntryError as exc:
            failures.append(f"{family}: {exc}")
    return CatalogReport(checked=count, failures=tuple(failures))
