"""Built-in periodic tessellations with known parameter values.

Each generator returns a fundamental domain whose cells tile space under the
stated lattice. They cover the qualitatively different corners of the model
space: the face-to-face grid, pyramid decompositions with facet-interior
edges, prism stacks with interior vertices on walls, a layered subdivision
with hemi vertices, and two families with free size parameters that stay
face-to-face while their adjacency means move along the feasibility cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from ..errors import GeneratorParameterError, UsageError
from ..planar import cross2
from ..scalar import parse_fraction
from .domain import FundamentalDomain, make_domain
from .geometry import Vec, vec3

_F = Fraction
_ZERO = _F(0)
_ONE = _F(1)


def _box(x0, y0, z0, x1, y1, z1) -> list[Vec]:
    xs = (_F(x0), _F(x1))
    ys = (_F(y0), _F(y1))
    zs = (_F(z0), _F(z1))
    return [vec3(x, y, z) for x in xs for y in ys for z in zs]


def _diag(a, b, c):
    return (vec3(a, 0, 0), vec3(0, b, 0), vec3(0, 0, c))


def cubic_lattice() -> FundamentalDomain:
    """Unit cubes on the integer grid."""
    return make_domain(_diag(1, 1, 1), [_box(0, 0, 0, 1, 1, 1)],
                       {"generator": "cubic_lattice"})


def parallel_pyramids() -> FundamentalDomain:
    """Unit cube cut into three congruent pyramids sharing the apex (1,1,1).

    Every pyramid base is a cube face avoiding the apex, so all base
    diagonals are parallel from cube to cube and every base edge of one
    pyramid crosses the interior of a neighbouring cube's face.
    """
    apex = vec3(1, 1, 1)
    cells = []
    for axis in range(3):
        base = [p for p in _box(0, 0, 0, 1, 1, 1) if p[axis] == 0]
        cells.append(base + [apex])
    return make_domain(_diag(1, 1, 1), cells,
                       {"generator": "parallel_pyramids"})


def divided_cube() -> FundamentalDomain:
    """Eight unit cubes, each cut into three pyramids toward a shared point.

    The 2-periodic block of eight cubes all point their apices at the block
    centre (1,1,1); each cube contributes its three faces away from the
    centre as pyramid bases, giving 24 cells.
    """
    centre = vec3(1, 1, 1)
    cells = []
    for cx in (0, 1):
        for cy in (0, 1):
            for cz in (0, 1):
                corner = (cx, cy, cz)
                cube = _box(cx, cy, cz, cx + 1, cy + 1, cz + 1)
                for axis in range(3):
                    base = [p for p in cube if p[axis] == 2 * corner[axis]]
                    cells.append(base + [centre])
    return make_domain(_diag(2, 2, 2), cells, {"generator": "divided_cube"})


def split_prism(aligned: bool = False) -> FundamentalDomain:
    """Unit cubes halved by a diagonal plate whose orientation varies.

    The default pattern alternates the cutting plane by cube parity: cubes
    with even corner sum are cut vertically along x - y, odd ones along
    z - y. Neighbouring diagonals then cross each other's faces, producing
    facet-interior edges with no interior vertices. With ``aligned=True``
    every cube is cut the same way and the model degenerates to a
    face-to-face prism lattice.
    """
    if not isinstance(aligned, bool):
        raise GeneratorParameterError(f"aligned must be true or false, got {aligned!r}")
    if aligned:
        cube = _box(0, 0, 0, 1, 1, 1)
        lower = [p for p in cube if p[0] >= p[1]]
        upper = [p for p in cube if p[0] <= p[1]]
        return make_domain(_diag(1, 1, 1), [lower, upper],
                           {"generator": "split_prism", "aligned": True})
    cells = []
    for cx in (0, 1):
        for cy in (0, 1):
            for cz in (0, 1):
                cube = _box(cx, cy, cz, cx + 1, cy + 1, cz + 1)
                if (cx + cy + cz) % 2 == 0:
                    level = cx - cy
                    lower = [p for p in cube if p[0] - p[1] >= level]
                    upper = [p for p in cube if p[0] - p[1] <= level]
                else:
                    level = cz - cy
                    lower = [p for p in cube if p[2] - p[1] >= level]
                    upper = [p for p in cube if p[2] - p[1] <= level]
                cells.extend([lower, upper])
    return make_domain(_diag(2, 2, 2), cells,
                       {"generator": "split_prism", "aligned": False})


_SQUARE_SECTIONS: list[list[tuple[int, int]]] = []
_TRIANGLE_SECTIONS: list[list[tuple[int, int]]] = []
for _i in (0, 1):
    for _j in (0, 1):
        _SQUARE_SECTIONS.append(
            [(_i, _j), (_i + 1, _j), (_i + 1, _j + 1), (_i, _j + 1)])
        _TRIANGLE_SECTIONS.append([(_i, _j), (_i + 1, _j), (_i + 1, _j + 1)])
        _TRIANGLE_SECTIONS.append([(_i, _j), (_i + 1, _j + 1), (_i, _j + 1)])


def prism_columns(base: str = "square",
                  offsets: list | None = None) -> FundamentalDomain:
    """Vertical columns over a planar tiling, each cut at its own heights.

    ``base`` picks the cross-section tiling on a 2x2 torus: ``"square"``
    (four unit squares) or ``"triangle"`` (eight right triangles, all
    hypotenuses parallel). Column ``c`` is sliced by horizontal planes at
    ``offsets[c] + integers``; slice corners land in the interior of the
    neighbours' wall sides and wall ridges, never on their slice heights.
    That needs pairwise distinct offsets modulo 1, the default being
    ``c / columns``; equal offsets would merge cut vertices, so they are
    rejected.
    """
    if base == "square":
        sections = _SQUARE_SECTIONS
    elif base == "triangle":
        sections = _TRIANGLE_SECTIONS
    else:
        raise GeneratorParameterError(
            f"unknown column base {base!r}; use 'square' or 'triangle'")
    count = len(sections)
    if offsets is None:
        heights = [_F(c, count) for c in range(count)]
    else:
        if len(offsets) != count:
            raise GeneratorParameterError(
                f"{base} base has {count} columns, got {len(offsets)} offsets")
        try:
            heights = [parse_fraction(o) for o in offsets]
        except UsageError:
            raise
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise GeneratorParameterError(
                f"offsets must be rational numbers, got {offsets!r}") from exc
    seen: dict[Fraction, int] = {}
    for c, h in enumerate(heights):
        key = h - math.floor(h)
        if key in seen:
            raise GeneratorParameterError(
                f"columns {seen[key]} and {c} are cut at the same heights; "
                "coinciding cuts on a shared vertical line merge vertices")
        seen[key] = c
    cells = []
    for section, h in zip(sections, heights):
        cells.append([vec3(x, y, h) for x, y in section]
                     + [vec3(x, y, h + 1) for x, y in section])
    return make_domain(_diag(2, 2, 1), cells,
                       {"generator": "prism_columns", "base": base})


def stratum_prism() -> FundamentalDomain:
    """Triangular prism columns, every second layer split into three.

    The planar base is the parallel-diagonal triangle tiling; prisms have
    height 1. In alternating layers each prism is cut into three prisms over
    the triangles joining the centroid to the corners. Each centroid line
    then carries vertices that sit inside the facets of the plain prism in
    the layer above, the only generator here with hemi vertices.
    """
    triangles = [
        [(_F(0), _F(0)), (_F(1), _F(0)), (_F(1), _F(1))],
        [(_F(0), _F(0)), (_F(1), _F(1)), (_F(0), _F(1))],
    ]
    cells = []
    for tri in triangles:
        gx = sum(p[0] for p in tri) / 3
        gy = sum(p[1] for p in tri) / 3
        for s in range(3):
            corner_pair = [tri[s], tri[(s + 1) % 3]]
            sect = corner_pair + [(gx, gy)]
            cells.append([vec3(x, y, 0) for x, y in sect]
                         + [vec3(x, y, 1) for x, y in sect])
        cells.append([vec3(x, y, 1) for x, y in tri]
                     + [vec3(x, y, 2) for x, y in tri])
    return make_domain(_diag(1, 1, 2), cells, {"generator": "stratum_prism"})


def _boundary_cycle(n: int) -> list[tuple[Fraction, Fraction]]:
    # corners of the unit square plus n equally spaced points per side,
    # in one cycle walked counter-clockwise from the origin
    corners = [(_ZERO, _ZERO), (_ONE, _ZERO), (_ONE, _ONE), (_ZERO, _ONE)]
    cycle = []
    for s in range(4):
        ax, ay = corners[s]
        bx, by = corners[(s + 1) % 4]
        for i in range(n + 1):
            t = _F(i, n + 1)
            cycle.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return cycle


# the largest k and n that spoke_cube and core_prism_cube accept: at k = n = 8
# generate and build_complex together take about 0.5-1.2 s for spoke_cube (360
# cells, nearly all of it the build) and 0.3-0.5 s for core_prism_cube (45
# cells) on a shared 2-core machine, and the build time grows faster than the
# cell count
MAX_SIZE = 8


def _check_size(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise GeneratorParameterError(
            f"{name} must be a non-negative integer, got {value!r}")
    if value > MAX_SIZE:
        raise GeneratorParameterError(
            f"{name} must be at most {MAX_SIZE}, got {value}")
    return value


def spoke_cube(k: int = 0, n: int = 0) -> FundamentalDomain:
    """Unit cube fanned from axis points onto a subdivided bottom cycle.

    ``k + 2`` points sit on the vertical axis of each cube; the bottom
    square's boundary carries ``n`` extra points per side. Tetrahedra join
    consecutive axis points to consecutive cycle points, and the rest of the
    cube is filled by pyramids from the top axis point over vertical wall
    strips, ``4(n + 1)(k + 2)`` cells in all. Face-to-face for every size,
    with adjacency means that sweep out a two-parameter family. ``k`` and
    ``n`` run from 0 to ``MAX_SIZE`` (8).
    """
    k = _check_size("k", k)
    n = _check_size("n", n)
    cycle = _boundary_cycle(n)
    m = len(cycle)
    axis = [vec3(_F(1, 2), _F(1, 2), _F(j, k + 1)) for j in range(k + 2)]
    top = axis[-1]
    cells = []
    for i in range(m):
        ax, ay = cycle[i]
        bx, by = cycle[(i + 1) % m]
        a0, b0 = vec3(ax, ay, 0), vec3(bx, by, 0)
        for j in range(k + 1):
            cells.append([axis[j], axis[j + 1], a0, b0])
        cells.append([a0, b0, vec3(ax, ay, 1), vec3(bx, by, 1), top])
    return make_domain(_diag(1, 1, 1), cells,
                       {"generator": "spoke_cube", "k": k, "n": n})


def core_prism_cube(k: int = 0, n: int = 0) -> FundamentalDomain:
    """Unit cube split into a stacked core column and boundary wedges.

    A strictly convex polygon is inscribed in the cross-section by pulling
    each boundary-cycle point toward the centre, mid-side points slightly
    less than corners so the polygon stays strictly convex. The core column
    over it is cut into ``k + 1`` prisms; the ring between polygon and
    square boundary becomes ``4(n + 1)`` full-height wedge prisms. The cut
    heights meet the wedges only along their vertical ridges, keeping the
    model face-to-face exactly on the plates-per-edge cap. ``k`` and ``n``
    run from 0 to ``MAX_SIZE`` (8).
    """
    k = _check_size("k", k)
    n = _check_size("n", n)
    cycle = _boundary_cycle(n)
    m = len(cycle)
    half = _F(1, 2)
    inner = []
    for i, (x, y) in enumerate(cycle):
        t = _F(i % (n + 1), n + 1)  # position along the side, corner at 0
        rho = half + t * (1 - t) / 2
        inner.append((half + rho * (x - half), half + rho * (y - half)))
    for i in range(m):
        a, b, c = inner[i - 1], inner[i], inner[(i + 1) % m]
        if cross2(a, b, c) <= 0:
            raise GeneratorParameterError(
                f"inner polygon is not strictly convex at point {i} (n={n})")
    cells = []
    for j in range(k + 1):
        z0, z1 = _F(j, k + 1), _F(j + 1, k + 1)
        cells.append([vec3(x, y, z0) for x, y in inner]
                     + [vec3(x, y, z1) for x, y in inner])
    for i in range(m):
        quad = [cycle[i], cycle[(i + 1) % m], inner[(i + 1) % m], inner[i]]
        for p in range(4):
            a, b, c = quad[p - 1], quad[p], quad[(p + 1) % 4]
            if cross2(a, b, c) <= 0:
                raise GeneratorParameterError(
                    f"wedge cross-section {i} is not strictly convex (n={n})")
        cells.append([vec3(x, y, 0) for x, y in quad]
                     + [vec3(x, y, 1) for x, y in quad])
    return make_domain(_diag(1, 1, 1), cells,
                       {"generator": "core_prism_cube", "k": k, "n": n})


GENERATORS: dict[str, Callable[..., FundamentalDomain]] = {
    "cubic_lattice": cubic_lattice,
    "parallel_pyramids": parallel_pyramids,
    "divided_cube": divided_cube,
    "split_prism": split_prism,
    "prism_columns": prism_columns,
    "stratum_prism": stratum_prism,
    "spoke_cube": spoke_cube,
    "core_prism_cube": core_prism_cube,
}


def generate(name: str, **params) -> FundamentalDomain:
    """Build a named example tessellation; see GENERATORS for the choices."""
    try:
        maker = GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(GENERATORS))
        raise GeneratorParameterError(
            f"unknown generator {name!r}; available: {known}") from None
    try:
        return maker(**params)
    except TypeError as exc:
        raise GeneratorParameterError(
            f"bad arguments for generator {name!r}: {exc}") from None
