"""Deterministic input parsing and output encoding for the command line.

Every document the command line prints is a result's ``as_doc()`` passed
through :func:`encode`, which rewrites each exact value as an entry
``{"exact": ..., "decimal": ...}``. The exact string is a rational ``p/q`` or
a ratio over the squared circle constant ``(a+b*pi^2)/(c+d*pi^2)``, exactly
the forms ``as_scalar`` parses back; the decimal is an evaluation at the
requested precision. Output from one invocation can therefore feed another
without loss: :func:`params_from_file` reads the ``parameters`` of a
``derive``, ``check``, ``measure`` or ``catalog show`` document, or a bare
object from field names to values.

Every parameter set from outside the program, in a file or as ``key=value``
pairs, is read by :func:`params_from_mapping`, and each of its values, like
the scalar options of the command line, by :func:`read_scalar`. It accepts
three value forms: an exact string, an ``int``, or an entry, whose exact
string it reads and whose decimal it ignores. Strings go through
``Scalar.parse``, so its caps ``MAX_PI_POWER`` and ``MAX_DECIMAL_EXPONENT``
hold for file input too.
"""

from __future__ import annotations

import csv
import dataclasses
import io as _io
import json
from fractions import Fraction
from typing import Any, Iterable, Mapping, TypeVar

from .errors import UsageError
from .params import TessParams
from .scalar import Scalar, as_scalar

P = TypeVar("P")

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
PLANAR_ALIASES = {
    "ve": "edges_per_vertex",
    "phi": "pi_vertex_share",
    "ends": "pi_ends_per_edge",
    "m2": "degree_second_moment",
    "intensity": "vertex_intensity",
}


def parse_pairs(tokens: Iterable[str], aliases: dict[str, str]) -> dict[str, str]:
    """Turn ``key=value`` tokens into a mapping from field names to values."""
    out: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise UsageError(f"expected key=value, got {token!r}")
        name = aliases.get(key, key)
        if name in out:
            raise UsageError(f"parameter {name!r} given twice")
        out[name] = value
    return out


def read_scalar(name: str, value: Any) -> Scalar:
    """Read one exact value from outside the program, in the forms the
    module docstring lists; an unreadable value is a ``UsageError`` that
    names ``name``."""
    if isinstance(value, dict) and "exact" in value:
        value = value["exact"]  # an entry; its decimal is not read
    try:
        return as_scalar(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value for {name}: {value!r} ({exc})") from exc


def params_from_mapping(cls: type[P], given: Mapping[str, Any]) -> P:
    """Read a ``TessParams`` or ``PlanarParams`` from field names to values
    in the forms the module docstring lists; fields left out take the
    dataclass defaults, and building the record checks each value's domain.
    An unknown, missing or unreadable field is a ``UsageError``."""
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    for name in given:
        if name not in names:
            raise UsageError(f"unknown parameter {name!r}; known: {', '.join(names)}")
    values: dict[str, Scalar] = {}
    for f in fields:
        if f.name not in given:
            if f.default is dataclasses.MISSING:
                raise UsageError(f"missing required parameter {f.name}")
            continue
        values[f.name] = read_scalar(f.name, given[f.name])
    return cls.create(**values)


def params_from_pairs(tokens: Iterable[str]) -> TessParams:
    return params_from_mapping(TessParams, parse_pairs(tokens, PARAM_ALIASES))


def params_from_file(path: str) -> TessParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "parameters" in data:
        # a derive, check, measure or catalog show document
        data = data["parameters"]
    if not isinstance(data, dict):
        raise UsageError(f"{path} does not hold a parameter set: expected a JSON object")
    return params_from_mapping(TessParams, data)


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
