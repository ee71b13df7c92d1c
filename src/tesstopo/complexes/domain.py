"""Fundamental domains: a lattice plus the convex cells that tile one period.

Coordinates are world coordinates as exact rationals. A domain is plain
geometric data; the periodic structure is built from it by
:mod:`tesstopo.complexes.build`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import NotATessellationError, UsageError
from ..scalar import parse_fraction
from .geometry import (
    Mat,
    Polyhedron,
    Vec,
    add,
    convex_hull,
    det3,
    hull_from_halfspaces,
    map_cell,
    mat_vec,
    smul,
    vec3,
)


# the most halfspaces a cell of a domain file may list: each plane clips the
# cell cut so far and hulls the cut, so 64 planes that are all facets take
# 0.6-0.9 s on a shared 2-core machine, and 128 about 5 s
MAX_HALFSPACES = 64


@dataclass(frozen=True)
class FundamentalDomain:
    """Three independent period vectors (rows of ``lattice``) and the convex
    cells tiling one lattice cell, in world coordinates."""

    lattice: Mat
    cells: tuple[Polyhedron, ...]
    metadata: dict = field(default_factory=dict)

    def volume(self) -> Fraction:
        return abs(det3(self.lattice))

    def replicate(self, mx: int, my: int, mz: int) -> FundamentalDomain:
        """Supercell: repeat the domain mx * my * mz times."""
        if min(mx, my, mz) < 1:
            raise ValueError("replication factors must be positive")
        t1, t2, t3 = self.lattice
        cells: list[Polyhedron] = []
        for a in range(mx):
            for b in range(my):
                for c in range(mz):
                    shift = add(add(smul(a, t1), smul(b, t2)), smul(c, t3))
                    cells.extend(map_cell(cell, [add(p, shift) for p in cell.apices])
                                 for cell in self.cells)
        lattice = (smul(mx, t1), smul(my, t2), smul(mz, t3))
        return FundamentalDomain(lattice, tuple(cells), dict(self.metadata))

    def affine_image(self, m: Mat, t: Vec = vec3(0, 0, 0)) -> FundamentalDomain:
        """Apply x -> m x + t. Requires det(m) != 0."""
        if det3(m) == 0:
            raise ValueError("affine map must be invertible")
        lattice = tuple(mat_vec(m, row) for row in self.lattice)
        cells = tuple(
            map_cell(cell, [add(mat_vec(m, p), t) for p in cell.apices])
            for cell in self.cells)
        return FundamentalDomain(lattice, cells, dict(self.metadata))  # type: ignore[arg-type]

    def to_json(self) -> dict:
        return {
            "lattice": [[str(x) for x in row] for row in self.lattice],
            "cells": [[[str(x) for x in p] for p in cell.apices]
                      for cell in self.cells],
            "metadata": self.metadata,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def obj_dump(self) -> str:
        """OBJ-style text of the cells, for external viewers.

        Coordinates print exactly when their denominators divide a power of
        ten; anything else is rounded to 40 decimal places.
        """
        lines = ["# fundamental domain geometry"]
        offset = 1
        for ci, cell in enumerate(self.cells):
            lines.append(f"g cell{ci}")
            for p in cell.apices:
                lines.append("v " + " ".join(_decimal(x) for x in p))
            for f in cell.facets:
                lines.append("f " + " ".join(str(offset + i) for i in f.ring))
            offset += len(cell.apices)
        return "\n".join(lines) + "\n"


def _decimal(x: Fraction, places: int = 40) -> str:
    den, twos, fives = x.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    exp = max(twos, fives) if den == 1 else places
    scaled = round(x * 10 ** exp)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10 ** exp)
    if exp == 0:
        return f"{sign}{whole}"
    text = f"{sign}{whole}.{str(frac).zfill(exp)}".rstrip("0").rstrip(".")
    return text or "0"


def _parse_frac(value) -> Fraction:
    try:
        return parse_fraction(value)
    except UsageError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise NotATessellationError(
            f"coordinates must be rational numbers, got {value!r}") from exc


def _rows(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise NotATessellationError(f"{what} must be a list, got {value!r}")
    return list(value)


def _parse_cell(entry) -> Polyhedron:
    if isinstance(entry, dict):
        if "apices" in entry:
            return _parse_cell(entry["apices"])
        if "halfspaces" in entry:
            rows = _rows(entry["halfspaces"], "halfspaces")
            if len(rows) > MAX_HALFSPACES:
                raise UsageError(f"a cell may list at most {MAX_HALFSPACES} "
                                 f"halfspaces, got {len(rows)}")
            planes = []
            for hs in rows:
                if isinstance(hs, dict):
                    n = tuple(_parse_frac(v) for v in _rows(hs.get("normal"), "normal"))
                    c = _parse_frac(hs.get("offset"))
                    if len(n) != 3:
                        raise NotATessellationError(
                            "halfspace normals need three entries")
                else:
                    vals = [_parse_frac(v) for v in _rows(hs, "halfspace row")]
                    if len(vals) != 4:
                        raise NotATessellationError(
                            "halfspace rows need four entries")
                    n, c = tuple(vals[:3]), vals[3]
                planes.append((n, c))
            return hull_from_halfspaces(planes)
        raise NotATessellationError("cell object needs 'apices' or 'halfspaces'")
    rows = [_rows(r, "cell row") for r in _rows(entry, "cell")]
    if not rows:
        raise NotATessellationError("empty cell entry")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise NotATessellationError("ragged cell entry")
    if width == 3:
        return convex_hull([tuple(_parse_frac(v) for v in r) for r in rows])
    if width == 4:
        return _parse_cell({"halfspaces": rows})
    raise NotATessellationError("cell rows must have three or four entries")


def make_domain(lattice_rows, cell_entries, metadata: dict | None = None) -> FundamentalDomain:
    rows = [tuple(_parse_frac(v) for v in _rows(row, "lattice row"))
            for row in _rows(lattice_rows, "lattice")]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise NotATessellationError("lattice must be a 3x3 matrix")
    lattice: Mat = tuple(rows)  # type: ignore[assignment]
    if det3(lattice) == 0:
        raise NotATessellationError("lattice vectors are linearly dependent")
    if metadata is not None and not isinstance(metadata, dict):
        raise NotATessellationError("domain metadata must be an object")
    cells = tuple(_parse_cell(entry) for entry in _rows(cell_entries, "cells"))
    if not cells:
        raise NotATessellationError("domain has no cells")
    return FundamentalDomain(lattice, cells, metadata or {})


def domain_from_json(data) -> FundamentalDomain:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as exc:
            raise UsageError(f"domain text is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "lattice" not in data or "cells" not in data:
        raise NotATessellationError("domain file needs 'lattice' and 'cells'")
    return make_domain(data["lattice"], data["cells"], data.get("metadata"))


def load_domain_file(path) -> FundamentalDomain:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):  # a JSON string would be parsed again
        raise NotATessellationError("domain file needs 'lattice' and 'cells'")
    return domain_from_json(data)
