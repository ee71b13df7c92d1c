"""The four workloads: what one item does and how it is checked.

Each workload turns a seed into rounds of plain-data items (see
:mod:`inputs`), runs one item at a time from this single caller, and checks
every result without golden files, so any seed works. A check that fails
raises :class:`Mismatch`; the runner counts it, like any unexpected
error, as a failed item.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import tesstopo
from tesstopo import catalog, cli, io
from tesstopo.complexes import build_complex, generate, measure, validate
from tesstopo.complexes.geometry import convex_hull

import inputs

SEVEN = ("edges_per_vertex", "plates_per_edge", "vertices_per_plate",
         "pi_edge_share", "hemi_vertex_share", "ridge_interior_rate",
         "side_interior_rate")
DIGITS = 50
CHILD_TIMEOUT_S = 120
CLI_CODE = "import sys\nfrom tesstopo.cli import main\nsys.exit(main())"
IMPORT_CODE = ("import time\nt = time.perf_counter()\nimport tesstopo\n"
               "print(time.perf_counter() - t)")


class Mismatch(Exception):
    """An item's output failed one of the benchmark's checks."""


def check(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def child_env(root: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def fresh_import_seconds(root: str, tr) -> float:
    """``import tesstopo`` timed inside a fresh interpreter."""
    with tr.span("cli.startup"):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=root,
                              env=child_env(root), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


class Properties:
    """Input properties a run used, reported next to the metrics."""

    def __init__(self):
        self.values = 0
        self.pi2_values = 0
        self.max_den_bits = 0
        self.tuples = 0
        self.face_to_face = 0
        self.feasible = 0
        self.cells: list[int] = []
        self.samples = 0

    def add_values(self, values) -> None:
        for v in values:
            self.values += 1
            self.pi2_values += not v.is_rational
            self.max_den_bits = max(self.max_den_bits,
                                    *(abs(c).bit_length() for c in v.den_coeffs))

    def add_tuple(self, params, feasible: bool) -> None:
        self.tuples += 1
        self.face_to_face += params.is_face_to_face
        self.feasible += feasible

    def report(self) -> dict:
        def share(part, whole):
            return part / whole if whole else 0.0
        return {
            "max_den_bits": self.max_den_bits,
            "pi2_share": share(self.pi2_values, self.values),
            "face_to_face_share": share(self.face_to_face, self.tuples),
            "feasible_share": share(self.feasible, self.tuples),
            "tuples": self.tuples,
            "cells_total": sum(self.cells),
            "cells_min": min(self.cells, default=0),
            "cells_max": max(self.cells, default=0),
            "samples": self.samples,
        }


def scalar_checks(tr, values) -> None:
    """The scalar layer called directly on one item's seven values."""
    with tr.span("scalar.arith"):
        ok = True
        for a, b in zip(values, values[1:]):
            ok &= (a + b) * (a - b) == a * a - b * b
            if b:
                ok &= (a * b) / b == a
    check(ok, "scalar arithmetic identity failed")
    with tr.span("scalar.compare"):
        ordered = sorted(values)
    with tr.span("scalar.evaluate"):
        decimals = [Decimal(v.evaluate(DIGITS)) for v in ordered]
    check(all(x <= y for x, y in zip(decimals, decimals[1:])),
          "exact order disagrees with decimal evaluation")
    with tr.span("scalar.text"):
        back = [tesstopo.Scalar.parse(v.render()) for v in values]
    check(back == list(values), "render -> parse round trip changed a value")


def seven(params) -> list:
    return [getattr(params, f) for f in SEVEN]


class Sweep:
    """``sweep-rational`` and ``sweep-pi2``: mixtures pushed through the
    whole parameter pipeline."""

    setup_repeats = 1

    def __init__(self, name: str, root: str, seed: int):
        self.name = name
        self.root = root
        self.seed = seed
        self.sampler = name == "sweep-rational"
        # 100 and 40 distinct items, each run about ten and six times
        self.rounds_per_pass = 10 if self.sampler else 8
        self.pool = inputs.RATIONAL_POOL if self.sampler else inputs.PI2_POOL
        self.props = Properties()
        self.components: dict = {}

    def rounds(self, index: int) -> list:
        return inputs.sweep_round(self.name, self.seed, index)

    def prepare(self, tr) -> None:
        components = {}
        for entry_id in self.pool:
            with tr.span("catalog.get"):
                components[entry_id] = catalog.get(entry_id).to_params()
        self.components = components
        # the same warm-up item for every seed, so set-up time does not
        # depend on which catalog entry a seed happens to put first
        props, self.props = self.props, Properties()
        self.run_item(tr, inputs.sweep_round(self.name, 0, 0)[0])
        self.props = props

    def run_item(self, tr, item: dict) -> None:
        with tr.span("params.create"):
            given = tesstopo.TessParams.create(*item["tuple"])
        if item["kind"] == "mixture":
            w_catalog, w_given = item["weights"]
            with tr.span("transforms.mixture"):
                params = tesstopo.mixture([(self.components[item["catalog"]], w_catalog),
                                           (given, w_given)])
            expect_feasible = True
        else:
            params = given
            expect_feasible = False
        with tr.span("feasibility.classify"):
            report = tesstopo.classify(params)
        check(report.feasible == expect_feasible,
              f"classify gave feasible={report.feasible} for {item}")
        if not expect_feasible:
            check(report.violated == ("plates_per_edge_cap",),
                  f"above-cap tuple violated {report.violated}")
        self.props.add_tuple(params, report.feasible)
        values = seven(params)
        self.props.add_values(values)

        with tr.span("params.derive"):
            summary = tesstopo.derive(params)
        with tr.span("params.check_identities"):
            residuals = tesstopo.check_identities(summary)
        check(not any(residuals.values()), "nonzero identity residual")
        with tr.span("transforms.central_point"):
            coned = tesstopo.central_point(params)
        if expect_feasible:
            with tr.span("feasibility.classify"):
                check(tesstopo.classify(coned).feasible, "central point is infeasible")
        self.staged(tr, params, expect_feasible)
        with tr.span("io.encode"):
            doc = {
                "parameters": params.as_dict(),
                "intensities": summary.intensities,
                "mean_adjacencies": {f"{a}->{b}": v
                                     for (a, b), v in summary.mean_adjacencies.items()},
                "central_point": coned.as_dict(),
            }
            text = io.render_json(io.encode(doc, DIGITS))
        encoded = json.loads(text)["parameters"]
        check(all(encoded[f]["exact"] == str(v) for f, v in zip(SEVEN, values)),
              "encoded exact strings differ from the values")
        scalar_checks(tr, values)

        if self.sampler:
            spec = item["sample"]
            with tr.span("feasibility.sample_feasible"):
                samples = tesstopo.sample_feasible(**spec)
            check(len(samples) == spec["count"], "sampler returned the wrong count")
            for sample in samples:
                with tr.span("feasibility.classify"):
                    check(tesstopo.classify(sample).feasible, "sampled tuple is infeasible")
                check(sample.is_face_to_face == spec["face_to_face"],
                      "sampled tuple is on the wrong branch")
            self.props.samples += len(samples)

    def staged(self, tr, params, expect_feasible: bool) -> None:
        """Ridge and side rate intervals, then the two region polygons. A
        feasible general-branch tuple must lie in all of them; for
        face-to-face tuples the general-branch stages may be empty, which
        the library reports with a typed error."""
        ve, ep, pv = params.edges_per_vertex, params.plates_per_edge, params.vertices_per_plate
        psi, tau = params.ridge_interior_rate, params.side_interior_rate
        must_hold = expect_feasible and not params.is_face_to_face
        try:
            with tr.span("feasibility.intervals"):
                lo, hi = tesstopo.ridge_rate_interval(ve, ep, pv)
                inside = lo <= psi <= hi
                if inside:
                    side_lo, side_hi = tesstopo.side_rate_interval(ve, ep, pv, psi)
                    inside = side_lo <= tau <= side_hi
            with tr.span("feasibility.regions"):
                rates = tesstopo.interior_rate_region(ve, ep, pv)
                shares = tesstopo.hemi_pi_region(ve, ep, pv, psi, tau)
        except tesstopo.InfeasibleParametersError:
            check(not must_hold, "staged region refused a feasible tuple")
            return
        if must_hold:
            check(inside, "feasible tuple lies outside its rate intervals")
            check(rates.kind != "empty" and shares.kind != "empty",
                  "feasible tuple has an empty staged region")


class BuildMeasure:
    """``build-measure``: one fundamental domain per item, built, measured
    and validated."""

    setup_repeats = 1
    # 28 distinct items, each run about three times
    rounds_per_pass = 2

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.props = Properties()
        self.bases: dict = {}
        # (cells, build seconds, in the cubic series) of every traced build
        self.builds: list[tuple[int, float, bool]] = []

    def rounds(self, index: int) -> list:
        return inputs.build_round(self.seed, index)

    def prepare(self, tr) -> None:
        with tr.span("complexes.generate"):
            domain = generate("cubic_lattice")
        with tr.span("complexes.build_complex"):
            cx = build_complex(domain)
        with tr.span("complexes.measure"):
            measure(cx)

    def run_item(self, tr, item: dict) -> None:
        with tr.span("complexes.generate"):
            domain = generate(item["generator"], **item["args"])
            if item["replicate"]:
                domain = domain.replicate(*item["replicate"])
            if item["affine"]:
                matrix, shift = item["affine"]
                domain = domain.affine_image(matrix, tuple(Fraction(x) for x in shift))
        if tr.enabled:
            with tr.span("complexes.convex_hull"):
                hulls = [convex_hull(list(cell.apices)) for cell in domain.cells]
            check(all(h.volume == c.volume and len(h.facets) == len(c.facets)
                      for h, c in zip(hulls, domain.cells)),
                  "re-hulling a cell changed it")
        start = time.perf_counter()
        with tr.span("complexes.build_complex"):
            cx = build_complex(domain)
        built_s = time.perf_counter() - start
        with tr.span("complexes.measure"):
            measured = measure(cx)
        if item["key"]:
            self.bases[item["key"]] = measured.params
        if item["base"]:
            check(measured.params == self.bases[item["base"]],
                  f"{item['generator']} image measures differently from its base")
        with tr.span("complexes.validate"):
            report = validate(cx)
        check(report.ok, f"validation failed: {report.failures[:3]}")
        values = seven(measured.params)
        self.props.add_values(values)
        self.props.add_tuple(measured.params, True)
        scalar_checks(tr, values)
        self.props.cells.append(len(domain.cells))
        if tr.enabled:
            self.builds.append((len(domain.cells), built_s, item["scaling"]))


class Cli:
    """``cli``: each item is one fresh-interpreter command, compared with an
    in-process run of the same argv. Only the child process is timed."""

    # set-up is one fresh import, short enough to take twice as often
    setup_repeats = 2
    # 30 distinct commands, each run about three times
    rounds_per_pass = 3

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        # the child and the in-process run must see the same default digits
        os.environ.pop(cli.PRECISION_ENV, None)
        self.env = child_env(root)
        self.props = Properties()

    def rounds(self, index: int) -> list:
        return inputs.cli_round(self.seed, index)

    def prepare(self, tr) -> None:
        """Set-up is the fresh-interpreter import, timed by the runner."""

    def run_item(self, tr, item) -> float:
        argv, expected = item
        start = time.perf_counter()
        with tr.span("cli.process"):
            proc = subprocess.run([sys.executable, "-c", CLI_CODE, *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        took = time.perf_counter() - start
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with tr.span("cli.main"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        check(proc.returncode == expected,
              f"{argv[0]} exited {proc.returncode}, expected {expected}: "
              f"{proc.stderr.decode(errors='replace')[-300:]}")
        check(code == expected, f"in-process {argv[0]} returned {code}")
        check(proc.stdout == out.getvalue().encode(),
              f"{argv[0]} stdout differs from the in-process run")
        if argv[0] == "check":
            self.props.tuples += 1
            self.props.feasible += code == 0
        if argv[0] == "measure":
            self.props.cells.append(json.loads(proc.stdout)["counts"]["cells"])
        return took


def make(name: str, root: str, seed: int):
    if name in ("sweep-rational", "sweep-pi2"):
        return Sweep(name, root, seed)
    if name == "build-measure":
        return BuildMeasure(root, seed)
    if name == "cli":
        return Cli(root, seed)
    raise ValueError(f"unknown workload {name!r}")
