"""Command line front end.

Every subcommand prints one deterministic document to stdout, as JSON or
as flat CSV, with each numeric value carried both exactly and as a
decimal at the requested precision. Exit codes: 0 on success (and on a
feasible ``check``), 1 when ``check`` finds the parameters infeasible,
2 for invalid input or usage, 3 when structural validation fails.

Each handler imports the layer it runs, so a command loads and, without a
bytecode cache, compiles only that code: ``derive`` never loads the builder.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

from .errors import TesstopoError, UsageError
from .io import (
    PLANAR_ALIASES,
    encode,
    interpolate_polyline,
    params_from_file,
    params_from_mapping,
    params_from_pairs,
    parse_generator_args,
    parse_pairs,
    read_scalar,
    render_json,
    render_kv_csv,
    render_series_csv,
)
from .params import TessParams, derive

DEFAULT_DIGITS = 50
MIN_DIGITS = 15
# points per region polyline; time, output and memory grow linearly with it
MAX_RESOLUTION = 1000
# sampled tuples per call: linear in time and output, about 4.5 s at the cap
MAX_SAMPLE_COUNT = 1000
# central-point iterations: the exact values grow with each step, so the time
# grows faster than linearly (about 1.7 s at the cap on a pi^2 entry, 31 s at
# 1000 steps)
MAX_STEPS = 100
# significant digits per decimal: output grows linearly with it and evaluation
# faster; 100 central-point steps on a pi^2 mixture print 0.9 MB in 0.33-0.38 s
# at the cap and 0.2 MB in 0.28-0.32 s at 50, and in process, past the cap,
# 7.4 MB in 4.0-4.2 s at 10,000 digits (shared 2-core x86-64, CPython 3.11)
MAX_DIGITS = 1000
PRECISION_ENV = "TESSTOPO_PRECISION"


def resolve_digits(args) -> int:
    digits = getattr(args, "digits", None)
    if digits is None:
        raw = os.environ.get(PRECISION_ENV)
        if raw is None:
            digits = DEFAULT_DIGITS
        else:
            try:
                digits = int(raw)
            except ValueError:
                raise UsageError(
                    f"{PRECISION_ENV} must be an integer, got {raw!r}")
    if digits < MIN_DIGITS:
        raise UsageError(f"precision must be at least {MIN_DIGITS} digits")
    if digits > MAX_DIGITS:
        raise UsageError(f"precision must be at most {MAX_DIGITS} digits")
    return digits


def resolve_params(args) -> TessParams:
    sources = [bool(args.pairs), args.params_file is not None,
               args.catalog is not None]
    if sum(sources) != 1:
        raise UsageError(
            "give exactly one input source: key=value pairs, "
            "--params-file, or --catalog")
    if args.pairs:
        return params_from_pairs(args.pairs)
    if args.params_file is not None:
        return params_from_file(args.params_file)
    return catalog_params(args.catalog)


def catalog_params(entry_id: str) -> TessParams:
    from . import catalog
    entry = catalog.get(entry_id)
    if not entry.is_complete:
        raise UsageError(
            f"catalog entry {entry.entry_id} has no complete parameter set")
    return entry.to_params()


def planar_from_pairs(tokens: Sequence[str]):
    from .transforms import PlanarParams
    return params_from_mapping(PlanarParams, parse_pairs(tokens, PLANAR_ALIASES))


def emit(args, doc: dict, series: list[dict] | None = None) -> None:
    if args.format == "csv":
        if series is not None:
            sys.stdout.write(render_series_csv(series))
        else:
            sys.stdout.write(render_kv_csv(doc))
    else:
        sys.stdout.write(render_json(doc))


def add_source_arguments(sub) -> None:
    sub.add_argument("pairs", nargs="*", metavar="key=value",
                     help="inline parameters (ve=, ep=, pv=, xi=, kappa=, "
                          "psi=, tau=, intensity=)")
    sub.add_argument("--params-file", metavar="PATH",
                     help="JSON file holding a parameter set")
    sub.add_argument("--catalog", metavar="ID",
                     help="take parameters from a catalog entry")


def add_build_arguments(sub) -> None:
    sub.add_argument("--generator", metavar="NAME")
    sub.add_argument("--arg", action="append", default=[],
                     metavar="key=value", help="generator argument")
    sub.add_argument("--domain", metavar="PATH",
                     help="JSON fundamental domain file")


def add_output_arguments(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--digits", type=int, default=None,
                     help=f"decimal evaluation precision "
                          f"(default {DEFAULT_DIGITS}, or ${PRECISION_ENV})")


def cmd_derive(args) -> int:
    digits = resolve_digits(args)
    emit(args, encode(derive(resolve_params(args)).as_doc(), digits))
    return 0


def cmd_check(args) -> int:
    from .feasibility import classify
    digits = resolve_digits(args)
    report = classify(resolve_params(args))
    emit(args, encode(report.as_doc(), digits))
    return 0 if report.feasible else 1


# the parameters each region type is a function of, in argument order
REGION_INPUTS = {
    "psi-tau": ("edges_per_vertex", "plates_per_edge", "vertices_per_plate"),
    "kappa-xi": ("edges_per_vertex", "plates_per_edge", "vertices_per_plate",
                 "ridge_interior_rate", "side_interior_rate"),
}


def polyline_series(name: str, points, digits: int) -> dict:
    return {"name": name, "points": encode(points, digits)}


def cmd_region(args) -> int:
    from .feasibility import hemi_pi_region, interior_rate_region, plate_profile_region, ridge_rate_interval
    digits = resolve_digits(args)
    if not 2 <= args.resolution <= MAX_RESOLUTION:
        raise UsageError(f"--resolution must lie between 2 and {MAX_RESOLUTION}")
    if args.type == "pv-ep":
        if args.ve is None:
            raise UsageError("region --type pv-ep needs --ve")
        if args.pairs or args.params_file or args.catalog:
            raise UsageError("region --type pv-ep takes --ve, not a parameter set")
        ve = read_scalar("--ve", args.ve)
        ep_max = None if args.ep_max is None else read_scalar("--ep-max", args.ep_max)
        region = plate_profile_region(ve, ep_max)
        region = dataclasses.replace(region, boundaries=tuple(
            dataclasses.replace(line, points=interpolate_polyline(list(line.points),
                                                                  args.resolution))
            for line in region.boundaries))
        series = [polyline_series(line.name, line.points, digits)
                  for line in region.boundaries]
        series.append(polyline_series("face_to_face", region.face_to_face.vertices,
                                      digits))
        emit(args, encode({"type": "pv-ep", **region.as_doc()}, digits), series)
        return 0
    params = resolve_params(args).as_dict()
    given = {key: params[key] for key in REGION_INPUTS[args.type]}
    doc = {"type": args.type, "parameters": given}
    if args.type == "psi-tau":
        patch = interior_rate_region(*given.values())
        doc["ridge_interior_interval"] = ridge_rate_interval(*given.values())
    else:
        patch = hemi_pi_region(*given.values())
    doc["region"] = patch.as_doc()
    emit(args, encode(doc, digits),
         [polyline_series("region", patch.vertices, digits)])
    return 0


def component_params(source: str) -> TessParams:
    if source.startswith("@"):
        return params_from_file(source[1:])
    return catalog_params(source)


def cmd_transform(args) -> int:
    from .transforms import central_point, central_point_orbit, column, mixture, mixture_curve, stratum
    digits = resolve_digits(args)
    if args.op in ("stratum", "column"):
        if args.params_file or args.catalog:
            raise UsageError(
                f"transform --op {args.op} takes planar key=value pairs")
        planar = planar_from_pairs(args.pairs)
        result = stratum(planar) if args.op == "stratum" else column(planar)
        doc = {"operation": args.op, "planar": planar.as_dict(),
               "result": result.as_dict()}
    elif args.op == "central-point":
        params = resolve_params(args)
        doc = {"operation": args.op, "input": params.as_dict()}
        if args.steps is not None:
            if not 1 <= args.steps <= MAX_STEPS:
                raise UsageError(f"--steps must lie between 1 and {MAX_STEPS}")
            orbit = central_point_orbit(params, args.steps)
            doc["steps"] = args.steps
            doc["orbit"] = [step.as_dict() for step in orbit]
            doc["result"] = orbit[-1].as_dict()
        else:
            doc["result"] = central_point(params).as_dict()
    else:
        if not args.component:
            raise UsageError(
                "transform --op mixture needs --component SOURCE=WEIGHT "
                "at least twice")
        components = []
        for token in args.component:
            source, sep, weight_text = token.rpartition("=")
            if not sep or not source:
                raise UsageError(
                    f"expected SOURCE=WEIGHT component, got {token!r}")
            weight = read_scalar(f"--component {source}", weight_text)
            components.append((source, component_params(source), weight))
        result = mixture([(p, w) for _, p, w in components])
        doc = {
            "operation": args.op,
            "components": [
                {"source": src, "weight": w, "parameters": p.as_dict()}
                for src, p, w in components
            ],
            "result": result.as_dict(),
        }
        if len(components) == 2:
            doc["curve"] = mixture_curve(components[0][1], components[1][1]).as_doc()
    emit(args, encode(doc, digits))
    return 0


def cmd_catalog(args) -> int:
    from . import catalog
    digits = resolve_digits(args)
    if args.action == "list":
        docs = [entry.as_doc() for entry in catalog.entries()]
        rows = [{key: doc[key] for key in ("id", "title", "complete", "face_to_face")}
                for doc in docs]
        emit(args, encode({"entries": rows, "count": len(rows)}, digits))
        return 0
    if args.action == "show":
        if args.id is None:
            raise UsageError("catalog show needs an entry id")
        emit(args, encode(catalog.get(args.id).as_doc(), digits))
        return 0
    report = catalog.verify_catalog()
    emit(args, encode(report.as_doc(), digits))
    return 0 if report.ok else 3


def build_complex_from_args(args):
    from .complexes import build_complex, generate, load_domain_file
    sources = [args.generator is not None, args.domain is not None]
    if sum(sources) != 1:
        raise UsageError("give exactly one of --generator or --domain")
    if args.generator is not None:
        domain = generate(args.generator, **parse_generator_args(args.arg))
        label = args.generator
    else:
        try:
            domain = load_domain_file(args.domain)
        except OSError as exc:
            raise UsageError(f"cannot read {args.domain}: {exc}") from exc
        label = args.domain
    return label, build_complex(domain)


def cmd_measure(args) -> int:
    from .complexes import measure, validate
    digits = resolve_digits(args)
    label, cx = build_complex_from_args(args)
    report = validate(cx) if args.validate else None
    measured = measure(cx) if report is None else report.measured
    doc = {"source": label, **measured.as_doc()}
    code = 0
    if report is not None:
        doc["validation"] = report.as_doc()
        if not report.ok:
            for failure in report.failures:
                print(f"validation failure: {failure}", file=sys.stderr)
            code = 3
    if args.dump_obj is not None:
        with open(args.dump_obj, "w", encoding="utf-8") as fh:
            fh.write(cx.domain.obj_dump())
    emit(args, encode(doc, digits))
    return code


# the measured parameters that the per-vertex counts determine
STATS_AGGREGATES = ("edges_per_vertex", "pi_edge_share", "hemi_vertex_share",
                    "ridge_interior_rate", "side_interior_rate")


def cmd_stats(args) -> int:
    from .complexes import measure, vertex_stats
    digits = resolve_digits(args)
    label, cx = build_complex_from_args(args)
    rows = [{"vertex": i, **stat.as_doc()} for i, stat in enumerate(vertex_stats(cx))]
    params = measure(cx).params.as_dict()
    doc = {
        "source": label,
        "vertex_count": len(rows),
        "vertices": rows,
        "aggregates": {key: params[key] for key in STATS_AGGREGATES},
    }
    emit(args, encode(doc, digits))
    return 0


def cmd_sample(args) -> int:
    from .feasibility import sample_feasible
    digits = resolve_digits(args)
    if not 1 <= args.count <= MAX_SAMPLE_COUNT:
        raise UsageError(f"--count must lie between 1 and {MAX_SAMPLE_COUNT}")
    samples = sample_feasible(count=args.count, seed=args.seed,
                              face_to_face=args.face_to_face)
    doc = {
        "count": args.count,
        "seed": args.seed,
        "face_to_face": args.face_to_face,
        "samples": [p.as_dict() for p in samples],
    }
    emit(args, encode(doc, digits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tesstopo",
        description="Topological parameter calculus for spatial tessellations.")
    subs = parser.add_subparsers(dest="command", required=True)

    derive_p = subs.add_parser(
        "derive", help="derive intensities and mean adjacencies")
    add_source_arguments(derive_p)
    add_output_arguments(derive_p)
    derive_p.set_defaults(handler=cmd_derive)

    check_p = subs.add_parser(
        "check", help="test parameters against the constraint system")
    add_source_arguments(check_p)
    add_output_arguments(check_p)
    check_p.set_defaults(handler=cmd_check)

    region_p = subs.add_parser(
        "region", help="feasible regions and their boundary polylines")
    region_p.add_argument("--type", required=True,
                          choices=("pv-ep", "psi-tau", "kappa-xi"))
    region_p.add_argument("--ve", help="edges per vertex (pv-ep only)")
    region_p.add_argument("--ep-max",
                          help="plates-per-edge ceiling for the plot window")
    region_p.add_argument("--resolution", type=int, default=64,
                          help="target points per boundary polyline "
                               f"(2 to {MAX_RESOLUTION})")
    add_source_arguments(region_p)
    add_output_arguments(region_p)
    region_p.set_defaults(handler=cmd_region)

    transform_p = subs.add_parser(
        "transform", help="apply a model transformation")
    transform_p.add_argument(
        "--op", required=True,
        choices=("stratum", "column", "central-point", "mixture"))
    transform_p.add_argument("--steps", type=int, default=None,
                             help="iterate central-point this many times "
                                  f"(1 to {MAX_STEPS})")
    transform_p.add_argument("--component", action="append", default=[],
                             metavar="SOURCE=WEIGHT",
                             help="mixture component: catalog id or @file, "
                                  "with its weight")
    add_source_arguments(transform_p)
    add_output_arguments(transform_p)
    transform_p.set_defaults(handler=cmd_transform)

    catalog_p = subs.add_parser(
        "catalog", help="worked-example catalog")
    catalog_p.add_argument("action", choices=("list", "show", "verify"))
    catalog_p.add_argument("id", nargs="?", default=None,
                           help="entry id for show")
    add_output_arguments(catalog_p)
    catalog_p.set_defaults(handler=cmd_catalog)

    measure_p = subs.add_parser(
        "measure", help="build a periodic tessellation and measure it")
    add_build_arguments(measure_p)
    measure_p.add_argument("--validate", action="store_true",
                           help="run the full structural validation")
    measure_p.add_argument("--dump-obj", metavar="PATH",
                           help="write the cell geometry as a Wavefront file")
    add_output_arguments(measure_p)
    measure_p.set_defaults(handler=cmd_measure)

    stats_p = subs.add_parser(
        "stats", help="per-vertex counts and their aggregates")
    add_build_arguments(stats_p)
    add_output_arguments(stats_p)
    stats_p.set_defaults(handler=cmd_stats)

    sample_p = subs.add_parser(
        "sample", help="draw random feasible parameter tuples")
    sample_p.add_argument("--count", type=int, default=1,
                          help=f"tuples to draw (1 to {MAX_SAMPLE_COUNT})")
    sample_p.add_argument("--seed", type=int, default=0)
    sample_p.add_argument("--face-to-face", action="store_true",
                          help="sample from the face-to-face branch")
    add_output_arguments(sample_p)
    sample_p.set_defaults(handler=cmd_sample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (TesstopoError, UsageError, OSError) as exc:
        print(f"tesstopo: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
