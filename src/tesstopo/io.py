"""Deterministic input parsing and output encoding for the command line.

Every document the command line prints is a result's ``as_doc()`` passed
through :func:`encode`, which rewrites each exact value as an entry
``{"exact": ..., "decimal": ...}``. The exact string is a rational ``p/q`` or
a ratio over the squared circle constant ``(a+b*pi^2)/(c+d*pi^2)``, exactly
the forms ``as_scalar`` parses back; the decimal is an evaluation at the
requested precision. Output from one invocation can therefore feed another
without loss: :func:`params_from_file` reads the ``parameters`` of a
``derive``, ``check``, ``measure`` or ``catalog show`` document, taking each
entry's exact string and ignoring its decimal.
"""

from __future__ import annotations

import csv
import io as _io
import json
from fractions import Fraction
from typing import Any, Iterable

from .errors import UsageError
from .params import TessParams
from .scalar import Scalar, as_scalar

PARAM_ALIASES = {
    "ve": "edges_per_vertex",
    "ep": "plates_per_edge",
    "pv": "vertices_per_plate",
    "xi": "pi_edge_share",
    "kappa": "hemi_vertex_share",
    "psi": "ridge_interior_rate",
    "tau": "side_interior_rate",
    "intensity": "vertex_intensity",
    "lambda_v": "vertex_intensity",
}
PARAM_FIELDS = (
    "edges_per_vertex", "plates_per_edge", "vertices_per_plate",
    "pi_edge_share", "hemi_vertex_share", "ridge_interior_rate",
    "side_interior_rate", "vertex_intensity",
)
PARAM_DEFAULTS = {
    "pi_edge_share": "0",
    "hemi_vertex_share": "0",
    "ridge_interior_rate": "0",
    "side_interior_rate": "0",
    "vertex_intensity": "1",
}

PLANAR_ALIASES = {
    "ve": "edges_per_vertex",
    "phi": "pi_vertex_share",
    "ends": "pi_ends_per_edge",
    "m2": "degree_second_moment",
    "intensity": "vertex_intensity",
}
PLANAR_FIELDS = (
    "edges_per_vertex", "pi_vertex_share", "pi_ends_per_edge",
    "degree_second_moment", "vertex_intensity",
)


def parse_pairs(tokens: Iterable[str], aliases: dict[str, str],
                fields: tuple[str, ...]) -> dict[str, str]:
    """Turn ``key=value`` tokens into a canonical-name value mapping."""
    out: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise UsageError(f"expected key=value, got {token!r}")
        name = aliases.get(key, key)
        if name not in fields:
            known = ", ".join(sorted(set(fields) | set(aliases)))
            raise UsageError(f"unknown parameter {key!r}; known: {known}")
        if name in out:
            raise UsageError(f"parameter {name!r} given twice")
        out[name] = value
    return out


def params_from_pairs(tokens: Iterable[str]) -> TessParams:
    given = parse_pairs(tokens, PARAM_ALIASES, PARAM_FIELDS)
    values: dict[str, Scalar] = {}
    for field in PARAM_FIELDS:
        if field in given:
            text = given[field]
        elif field in PARAM_DEFAULTS:
            text = PARAM_DEFAULTS[field]
        else:
            raise UsageError(f"missing required parameter {field}")
        try:
            values[field] = as_scalar(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad value for {field}: {given[field]!r}") from exc
    return TessParams.create(**values)


def params_from_file(path: str) -> TessParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "parameters" in data:
        # a derive, check, measure or catalog show document; its scalar
        # entries decode from their exact strings
        data = data["parameters"]
    try:
        return TessParams.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} does not hold a parameter set: {exc}") from exc


def scalar_entry(value: Scalar | Fraction | int, digits: int) -> dict[str, str]:
    s = as_scalar(value)
    return {"exact": str(s), "decimal": s.evaluate(digits)}


def encode(obj: Any, digits: int) -> Any:
    """Recursively rewrite Scalars (and Fractions) into exact/decimal pairs."""
    if isinstance(obj, (Scalar, Fraction)):
        return scalar_entry(obj, digits)
    if isinstance(obj, dict):
        return {key: encode(val, digits) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(val, digits) for val in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__}")


def is_scalar_entry(obj: Any) -> bool:
    return isinstance(obj, dict) and set(obj) == {"exact", "decimal"}


def flatten(encoded: Any, prefix: str = "") -> list[tuple[str, str, str]]:
    """Rows of (key path, exact-or-plain value, decimal) for the csv format."""
    if is_scalar_entry(encoded):
        return [(prefix, encoded["exact"], encoded["decimal"])]
    if isinstance(encoded, dict):
        rows = []
        for key, val in encoded.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten(val, path))
        return rows
    if isinstance(encoded, list):
        rows = []
        for i, val in enumerate(encoded):
            rows.extend(flatten(val, f"{prefix}[{i}]"))
        return rows
    if encoded is None:
        return [(prefix, "", "")]
    if isinstance(encoded, bool):
        return [(prefix, "true" if encoded else "false", "")]
    return [(prefix, str(encoded), "")]


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def render_kv_csv(doc: dict) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "exact", "decimal"])
    for row in flatten(doc):
        writer.writerow(row)
    return buf.getvalue()


def render_series_csv(series: list[dict]) -> str:
    """Polyline plot data: one row per sampled point."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "index", "x_exact", "y_exact",
                     "x_decimal", "y_decimal"])
    for entry in series:
        for i, (x, y) in enumerate(entry["points"]):
            writer.writerow([entry["name"], i, x["exact"], y["exact"],
                             x["decimal"], y["decimal"]])
    return buf.getvalue()


def interpolate_polyline(points: list[tuple[Scalar, Scalar]],
                         resolution: int) -> list[tuple[Scalar, Scalar]]:
    """Spread about `resolution` exact sample points over a polyline."""
    if len(points) < 2 or resolution <= len(points):
        return list(points)
    segments = len(points) - 1
    per_segment = max(1, (resolution - 1) // segments)
    out: list[tuple[Scalar, Scalar]] = [points[0]]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        for step in range(1, per_segment + 1):
            t = Fraction(step, per_segment)
            out.append((x0 + (x1 - x0) * t, y0 + (y1 - y0) * t))
    return out


def parse_generator_value(key: str, value: str):
    if key == "offsets":
        return [part.strip() for part in value.split(",")]
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        return value


def parse_generator_args(tokens: Iterable[str]) -> dict:
    out: dict[str, Any] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise UsageError(f"expected key=value generator argument, got {token!r}")
        if key in out:
            raise UsageError(f"generator argument {key!r} given twice")
        out[key] = parse_generator_value(key, value)
    return out
