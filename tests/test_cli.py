"""Command line behaviour: exit codes, determinism, format equivalence."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tesstopo.cli import main
from tesstopo.complexes.generators import GENERATORS
from tesstopo.scalar import as_scalar


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("TESSTOPO_PRECISION", raising=False)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_check_stit_catalog_feasible(capsys):
    code, doc = run_json(capsys, "check", "--catalog", "ex04_stit",
                         "--format", "json")
    assert code == 0
    assert doc["feasible"] is True
    assert doc["violated"] == []
    applicable = [b for b in doc["bounds"] if b["applicable"]]
    assert applicable and all(b["satisfied"] for b in applicable)


def test_check_infeasible_exits_one(capsys):
    code, doc = run_json(capsys, "check", "ve=4", "ep=3", "pv=100")
    assert code == 1
    assert doc["feasible"] is False
    assert doc["violated"]


def test_derive_cubic_values(capsys):
    code, doc = run_json(capsys, "derive", "ve=6", "ep=4", "pv=4")
    assert code == 0
    assert doc["intensities"]["edges"]["exact"] == "3"
    assert doc["intensities"]["plates"]["exact"] == "3"
    assert doc["intensities"]["cells"]["exact"] == "1"
    assert doc["mean_adjacencies"]["cell->vertex"]["exact"] == "8"
    assert doc["mean_adjacencies"]["cell->edge"]["exact"] == "12"
    assert doc["mean_adjacencies"]["cell->plate"]["exact"] == "6"


def test_derive_aliases_match_full_names(capsys):
    _, short = run_json(capsys, "derive", "ve=4", "ep=3", "pv=36/7",
                        "xi=1", "kappa=2/3", "psi=2", "tau=4/3")
    _, full = run_json(capsys, "derive", "edges_per_vertex=4",
                       "plates_per_edge=3", "vertices_per_plate=36/7",
                       "pi_edge_share=1", "hemi_vertex_share=2/3",
                       "ridge_interior_rate=2", "side_interior_rate=4/3")
    assert short == full


def test_measure_parallel_pyramids(capsys):
    code, doc = run_json(capsys, "measure", "--generator",
                         "parallel_pyramids", "--format", "json")
    assert code == 0
    p = doc["parameters"]
    seven = [p[key]["exact"] for key in (
        "edges_per_vertex", "plates_per_edge", "vertices_per_plate",
        "pi_edge_share", "hemi_vertex_share", "ridge_interior_rate",
        "side_interior_rate")]
    assert seven == ["14", "27/7", "3", "3/7", "0", "0", "0"]
    assert doc["face_to_face"] is False


def test_region_pv_ep_csv_polylines(capsys):
    code, out, _ = run(capsys, "region", "--type", "pv-ep", "--ve", "8",
                       "--resolution", "256", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    series = {}
    for row in rows:
        series.setdefault(row["series"], []).append(row)
    assert "plate_floor" in series and "cap_line" in series
    for name, pts in series.items():
        if name == "face_to_face":
            continue  # patch outline, not resampled
        assert len(pts) == 256
        for row in pts:
            x = as_scalar(row["x_exact"])
            assert abs(float(row["x_decimal"]) - float(x.evaluate(20))) < 1e-12


def test_region_psi_tau_region_kind(capsys):
    code, doc = run_json(capsys, "region", "--type", "psi-tau",
                         "ve=4", "ep=7/2", "pv=28/5")
    assert code == 0
    assert doc["region"]["kind"] == "region"
    assert len(doc["region"]["vertices"]) >= 3
    low, high = doc["ridge_interior_interval"]
    assert as_scalar(low["exact"]).sign() >= 0


def test_region_kappa_xi_from_catalog(capsys):
    code, doc = run_json(capsys, "region", "--type", "kappa-xi",
                         "--catalog", "ex04_stit")
    assert code == 0
    assert doc["region"]["axes"] == ["hemi_vertex_share", "pi_edge_share"]
    assert doc["region"]["kind"] in ("region", "segment", "point")


def test_transform_stratum_matches_catalog(capsys):
    _, doc = run_json(capsys, "transform", "--op", "stratum", "ve=3")
    got = {key: doc["result"][key]["exact"] for key in doc["result"]}
    assert got["edges_per_vertex"] == "5"
    assert got["plates_per_edge"] == "18/5"
    assert got["vertices_per_plate"] == "9/2"


def test_transform_mixture_curve(capsys):
    _, doc = run_json(capsys, "transform", "--op", "mixture",
                      "--component", "ex01_voronoi=1/2",
                      "--component", "ex03_poisson_planes=1/2")
    assert doc["result"]["edges_per_vertex"]["exact"] == "5"
    assert doc["curve"]["offset"]["exact"] == "6"
    assert doc["curve"]["inverse_coefficient"]["exact"] == "12"


def test_transform_central_point_orbit(capsys):
    _, doc = run_json(capsys, "transform", "--op", "central-point",
                      "--catalog", "ex05_cubic", "--steps", "3")
    assert len(doc["orbit"]) == 4
    assert doc["orbit"][0] == doc["input"]
    assert doc["result"] == doc["orbit"][-1]


def test_catalog_list_and_show(capsys):
    code, doc = run_json(capsys, "catalog", "list")
    assert code == 0
    ids = [row["id"] for row in doc["entries"]]
    assert "ex04_stit" in ids and "ex05_cubic" in ids
    code, shown = run_json(capsys, "catalog", "show", "ex04_stit")
    assert code == 0
    assert shown["parameters"]["vertices_per_plate"]["exact"] == "36/7"


def test_catalog_show_parametric_family(capsys):
    code, doc = run_json(capsys, "catalog", "show",
                         "ex11_spoke_cube(k=2,n=1)")
    assert code == 0
    assert doc["parameters"]["edges_per_vertex"]["exact"] == "14"


def test_catalog_verify_ok(capsys):
    code, doc = run_json(capsys, "catalog", "verify")
    assert code == 0
    assert doc["ok"] is True
    assert doc["failures"] == []


def test_stats_aggregates_match_measure(capsys):
    _, stats = run_json(capsys, "stats", "--generator", "prism_columns",
                        "--arg", "base=triangle")
    assert stats["vertex_count"] == len(stats["vertices"])
    assert stats["aggregates"]["ridge_interior_rate"]["exact"] == "5"
    assert stats["aggregates"]["side_interior_rate"]["exact"] == "4"
    for row in stats["vertices"]:
        assert row["ridge_interior_count"] == 5
        assert row["side_interior_count"] == 4


def test_sample_deterministic_under_seed(capsys):
    _, first = run_json(capsys, "sample", "--count", "5", "--seed", "11")
    _, second = run_json(capsys, "sample", "--count", "5", "--seed", "11")
    _, other = run_json(capsys, "sample", "--count", "5", "--seed", "12")
    assert first == second
    assert first != other
    assert len(first["samples"]) == 5


def test_sample_face_to_face_branch(capsys):
    _, doc = run_json(capsys, "sample", "--count", "3", "--seed", "4",
                      "--face-to-face")
    for sample in doc["samples"]:
        assert sample["pi_edge_share"]["exact"] == "0"
        assert sample["hemi_vertex_share"]["exact"] == "0"


def test_byte_determinism_json_and_csv(capsys):
    for fmt in ("json", "csv"):
        _, first, _ = run(capsys, "derive", "--catalog",
                          "ex08_divided_delaunay", "--format", fmt)
        _, second, _ = run(capsys, "derive", "--catalog",
                           "ex08_divided_delaunay", "--format", fmt)
        assert first == second


def test_csv_and_json_carry_identical_values(capsys):
    _, out_json, _ = run(capsys, "derive", "--catalog", "ex04_stit")
    _, out_csv, _ = run(capsys, "derive", "--catalog", "ex04_stit",
                        "--format", "csv")
    doc = json.loads(out_json)

    def lookup(path: str):
        node = doc
        for part in path.replace("]", "").split("."):
            if "[" in part:
                name, index = part.split("[")
                node = node[name][int(index)] if name else node[int(index)]
            else:
                node = node[part]
        return node

    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert rows
    for row in rows:
        node = lookup(row["key"])
        if isinstance(node, dict) and set(node) == {"exact", "decimal"}:
            assert node["exact"] == row["exact"]
            assert node["decimal"] == row["decimal"]


def test_exact_strings_round_trip(capsys):
    _, doc = run_json(capsys, "derive", "--catalog", "ex08_divided_delaunay")
    for field, entry in doc["parameters"].items():
        reparsed = as_scalar(entry["exact"])
        assert str(reparsed) == entry["exact"]


def test_precision_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("TESSTOPO_PRECISION", "18")
    _, doc = run_json(capsys, "derive", "ve=6", "ep=4", "pv=4")
    assert len(doc["parameters"]["edges_per_vertex"]["decimal"]) == 19
    _, doc = run_json(capsys, "derive", "ve=6", "ep=4", "pv=4",
                      "--digits", "30")
    assert len(doc["parameters"]["edges_per_vertex"]["decimal"]) == 31


def test_precision_floor_enforced(capsys):
    code, _, err = run(capsys, "derive", "ve=6", "ep=4", "pv=4",
                       "--digits", "5")
    assert code == 2
    assert "at least 15" in err


def test_bad_precision_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("TESSTOPO_PRECISION", "lots")
    code, _, err = run(capsys, "derive", "ve=6", "ep=4", "pv=4")
    assert code == 2
    assert "TESSTOPO_PRECISION" in err


@pytest.mark.parametrize("argv", [
    ("derive", "ve=6"),
    ("derive", "ve=6", "ep=4", "pv=4", "--catalog", "ex05_cubic"),
    ("derive", "bogus=1", "ve=6", "ep=4", "pv=4"),
    ("derive", "ve=zero", "ep=4", "pv=4"),
    ("derive", "--catalog", "no_such_entry"),
    ("derive", "--catalog", "ex10a_coned_voronoi"),
    ("region", "--type", "pv-ep"),
    ("region", "--type", "pv-ep", "--ve", "8", "ve=6", "ep=4", "pv=4"),
    ("transform", "--op", "mixture"),
    ("transform", "--op", "mixture", "--component", "ex01_voronoi=0"),
    ("transform", "--op", "stratum"),
    ("measure",),
    ("measure", "--generator", "no_such_generator"),
    ("measure", "--generator", "spoke_cube", "--arg", "k=-1"),
    ("catalog", "show"),
    ("sample", "--count", "0"),
    ("region", "--type", "pv-ep", "--ve", "8", "--resolution", "-5"),
    ("region", "--type", "psi-tau", "--resolution", "1", "ve=4", "ep=7/2", "pv=28/5"),
    ("measure", "--generator", "prism_columns", "--arg", "offsets=a,b,c,d"),
    ("measure", "--generator", "split_prism", "--arg", "aligned=no"),
    ("measure", "--generator", "split_prism", "--arg", "aligned=3"),
    # each would be huge without its cap
    ("region", "--type", "pv-ep", "--ve", "8", "--resolution", "100000000"),
    ("derive", "ve=6", "ep=4", "pv=4+pi^200000000"),
    ("derive", "ve=6", "ep=4", "pv=(4+pi^2000000)/(1+pi^2000000)"),
    ("derive", "ve=6", "ep=4", "pv=4e999999999"),
    ("derive", "ve=6", "ep=4", "pv=4+1e-999999999"),
    ("measure", "--generator", "spoke_cube", "--arg", "k=1000000000"),
    ("measure", "--generator", "core_prism_cube", "--arg", "n=1000000000"),
    ("measure", "--generator", "prism_columns", "--arg", "offsets=1e999999999,0,1/4,1/2"),
    ("measure", "--domain", {"lattice": [["1e2000000", "0", "0"], ["0", "1", "0"],
                                         ["0", "0", "1"]], "cells": []}),
    ("sample", "--count", "100000000"),
    ("transform", "--op", "central-point", "--catalog", "ex01_voronoi",
     "--steps", "100000000"),
])
def test_usage_errors_exit_two(capsys, tmp_path, argv):
    # a dict stands for a domain file holding it
    argv = [domain_file(tmp_path, json.dumps(a)) if isinstance(a, dict) else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.strip()


def test_pi_powers_at_the_cap_complete(capsys):
    # seven parameters at the highest accepted pi power: derive and check finish
    argv = ("ve=(6*pi^22+1)/(pi^22+1)", "ep=(5*pi^20+3)/(pi^20+2)", "pv=(5*pi^22+5)/(pi^22+7)",
            "xi=pi^20/(3*pi^20+1)", "kappa=1/(pi^22+4)", "psi=(2*pi^22+1)/(pi^20+3)",
            "tau=(pi^22+1)/(pi^20+5)")
    code, out, _ = run(capsys, "derive", *argv)
    assert code == 0
    assert "pi^22" in out
    code, out, _ = run(capsys, "check", *argv)
    assert code in (0, 1)
    assert "feasible" in out


def test_unreadable_params_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "derive", "--params-file", str(missing))
    assert code == 2
    assert "nope.json" in err


def test_params_file_round_trip(capsys, tmp_path):
    _, doc = run_json(capsys, "derive", "--catalog", "ex06b_square_columns")
    payload = {key: entry["exact"] for key, entry in doc["parameters"].items()}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    code, again = run_json(capsys, "derive", "--params-file", str(path))
    assert code == 0
    assert again == doc


@pytest.mark.parametrize("argv, direct", [
    (["derive", "--catalog", "ex08_divided_delaunay"], ["--catalog", "ex08_divided_delaunay"]),
    (["check", "--catalog", "ex08_divided_delaunay"], ["--catalog", "ex08_divided_delaunay"]),
    (["catalog", "show", "ex08_divided_delaunay"], ["--catalog", "ex08_divided_delaunay"]),
    (["derive", "ve=4", "ep=3", "pv=36/7", "xi=1", "kappa=2/3", "psi=2", "tau=4/3",
      "intensity=5/2"], ["ve=4", "ep=3", "pv=36/7", "xi=1", "kappa=2/3", "psi=2",
                         "tau=4/3", "intensity=5/2"]),
    (["catalog", "show", "ex06b_square_columns"], ["--catalog", "ex06b_square_columns"]),
    (["measure", "--generator", "split_prism"], None),
])
def test_output_feeds_params_file(capsys, tmp_path, argv, direct):
    code, dump, _ = run(capsys, *argv)
    assert code == 0
    if direct is None:
        direct = [f"{key}={value['exact']}"
                  for key, value in json.loads(dump)["parameters"].items()]
    path = tmp_path / "dump.json"
    path.write_text(dump)
    code, again, err = run(capsys, "derive", "--params-file", str(path))
    assert code == 0, err
    assert again == run(capsys, "derive", *direct)[1]


def domain_file(tmp_path, text: str) -> str:
    path = tmp_path / "domain.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["measure", "stats"])
def test_domain_of_wrong_shape_exits_three(capsys, tmp_path, command):
    path = domain_file(tmp_path, json.dumps({"lattice": 5, "cells": 3}))
    code, _, err = run(capsys, command, "--domain", path)
    assert code == 3
    assert "lattice" in err


def test_domain_file_not_json_exits_two(capsys, tmp_path):
    path = domain_file(tmp_path, "lattice: [1, 0, 0]")
    code, _, err = run(capsys, "measure", "--domain", path)
    assert code == 2
    assert "not valid JSON" in err


JSON_LEAVES = st.sampled_from([None, True, 0, 1, -1, 2, 1.5, "0", "1", "1/2", "x", "1/0"])
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["lattice", "cells", "metadata",
                                                      "apices", "halfspaces",
                                                      "normal", "offset"]),
                                     inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=50, deadline=None)
@given(st.one_of(JSON_VALUES,
                 st.fixed_dictionaries({"lattice": JSON_VALUES, "cells": JSON_VALUES})))
def test_domain_shapes_end_in_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "domain.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["measure", "--domain", path])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


SIZE_KEYS = st.sampled_from(["k", "n"])
GENERATOR_ARGS = st.one_of(
    # sizes in range, kept small so each build is quick
    st.builds("{}={}".format, SIZE_KEYS, st.integers(0, 1)),
    # sizes out of range or not integers
    st.builds("{}={}".format, SIZE_KEYS,
              st.integers(9, 10**12) | st.integers(-10**12, -1)
              | st.sampled_from(["1/2", "x", "true", "1e9"])),
    # keys no generator takes
    st.builds("{}={}".format, st.sampled_from(["size", "K", "depth", "zz"]),
              st.sampled_from(["1", "x", "true"])),
    # offsets, rational or not, in any count
    st.lists(st.sampled_from(["0", "1/4", "1/2", "3/4", "1/3", "a", "1/0", "1e999999999",
                              "nan", ""]), max_size=9).map(",".join).map("offsets={}".format),
    st.builds("aligned={}".format, st.sampled_from(["true", "false", "no", "3"])),
    st.builds("base={}".format, st.sampled_from(["square", "triangle", "hexagon"])),
)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["measure", "stats"]), st.sampled_from(sorted(GENERATORS)),
       st.lists(GENERATOR_ARGS, max_size=3), st.booleans())
def test_generator_arguments_end_in_a_documented_exit_code(command, name, tokens, repeat):
    if repeat and tokens:
        tokens = [*tokens, tokens[0]]  # a key given twice
    argv = [command, "--generator", name]
    for token in tokens:
        argv += ["--arg", token]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()


def test_gap_domain_exits_three(capsys, tmp_path):
    domain = {
        "lattice": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "cells": [[["0", "0", "0"], ["1/2", "0", "0"], ["1/2", "1", "0"],
                   ["0", "1", "0"], ["0", "0", "1"], ["1/2", "0", "1"],
                   ["1/2", "1", "1"], ["0", "1", "1"]]],
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(domain))
    code, _, err = run(capsys, "measure", "--domain", str(path))
    assert code == 3
    assert err.strip()


def test_measure_dump_obj(capsys, tmp_path):
    target = tmp_path / "cells.obj"
    code, _, _ = run(capsys, "measure", "--generator", "cubic_lattice",
                     "--dump-obj", str(target))
    assert code == 0
    text = target.read_text()
    assert text.count("g ") == 1
    assert "v " in text and "f " in text


def test_measure_validate_flag(capsys):
    code, doc = run_json(capsys, "measure", "--generator", "split_prism",
                         "--validate")
    assert code == 0
    assert doc["validation"]["ok"] is True
    assert doc["validation"]["failures"] == []


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_missing_subcommand_exits_two(capsys):
    code, _, _ = run(capsys)
    assert code == 2
