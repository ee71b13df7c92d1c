"""What ``import tesstopo`` loads, and the names the package exports.

The package loads its exact core eagerly and every other layer on first
use, and it has no runtime dependency, so no command loads ``mpmath``. Each
check of the loaded modules runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tesstopo

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = {"tesstopo.catalog", "tesstopo.complexes", "tesstopo.feasibility",
          "tesstopo.transforms"}

# every public name of the package namespace, by the module it comes from
EXPORTS = {
    "tesstopo.errors": (
        "TesstopoError", "ParameterDomainError", "DegenerateIntensityError",
        "InfeasibleParametersError", "MixtureShareError", "PlanarParameterError",
        "GeneratorParameterError", "NonConvexCellError", "NotATessellationError",
        "UnknownEntryError"),
    "tesstopo.scalar": ("Scalar", "as_scalar", "PI2", "ZERO", "ONE"),
    "tesstopo.params": (
        "TessParams", "DerivedSummary", "cell_intensity_form", "densities",
        "from_densities", "derive", "check_identities", "is_consistent"),
    "tesstopo.feasibility": (
        "Bound", "FeasibilityReport", "RegionPatch", "PlateProfileRegion", "classify",
        "plate_cap", "ridge_rate_interval", "side_rate_interval", "interior_rate_region",
        "hemi_pi_region", "plate_profile_region", "sample_feasible"),
    "tesstopo.transforms": (
        "PlanarParams", "MixtureCurve", "stratum", "column", "central_point",
        "central_point_orbit", "mixture", "mixture_curve"),
    "tesstopo.complexes": (
        "FundamentalDomain", "MeasuredParams", "PeriodicComplex", "ValidationReport",
        "build_complex", "domain_from_json", "generate", "load_domain_file",
        "make_domain", "measure", "validate", "vertex_stats"),
}
SUBMODULES = ("errors", "scalar", "params", "feasibility", "transforms", "catalog",
              "complexes")
ALL_NAMES = sorted({name for names in EXPORTS.values() for name in names} | set(SUBMODULES))

LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules\n"
          "                        if m.split('.')[0] in ('tesstopo', 'mpmath'))))")


def loaded_after(code: str) -> set[str]:
    """The tesstopo and mpmath modules a fresh interpreter holds after
    running code."""
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{LOADED}"],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", [
    "import tesstopo",
    "import tesstopo.cli",
    "from tesstopo.cli import main\nmain(['derive', 've=6', 'ep=3', 'pv=4'])",
], ids=["package", "cli", "derive"])
def test_core_commands_load_no_other_layer(code):
    loaded = loaded_after(code)
    assert {"tesstopo.errors", "tesstopo.scalar", "tesstopo.params"} <= loaded
    assert not loaded & LAYERS


def test_measure_loads_the_complexes():
    loaded = loaded_after("from tesstopo.cli import main\n"
                          "main(['measure', '--generator', 'cubic_lattice'])")
    assert "tesstopo.complexes" in loaded
    assert "tesstopo.catalog" not in loaded


@pytest.mark.parametrize("argv", [
    ["check", "ve=6", "ep=3", "pv=4"],
    ["region", "--type", "pv-ep", "--ve", "6"],
], ids=["check", "region"])
def test_feasibility_commands_load_the_planar_kernel_not_the_complexes(argv):
    loaded = loaded_after(f"from tesstopo.cli import main\nmain({argv!r})")
    assert {"tesstopo.planar", "tesstopo.feasibility"} <= loaded
    assert "tesstopo.complexes" not in loaded


@pytest.mark.parametrize("code", [
    "import tesstopo",
    "from tesstopo.cli import main\nmain(['derive', 've=6', 'ep=3', 'pv=4'])",
    "from tesstopo.cli import main\nmain(['catalog', 'verify'])",
    "from tesstopo.cli import main\nmain(['measure', '--generator', 'cubic_lattice'])",
], ids=["package", "derive", "catalog-verify", "measure"])
def test_no_command_loads_mpmath(code):
    loaded = loaded_after(code)
    assert "tesstopo.scalar" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "mpmath"}


def test_the_package_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("mpmath") for req in project["optional-dependencies"]["test"])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_public_name_resolves_to_its_home_object(name):
    value = getattr(tesstopo, name)
    if name in SUBMODULES:
        assert value is sys.modules[f"tesstopo.{name}"]
    else:
        home, = (module for module, names in EXPORTS.items() if name in names)
        assert value is getattr(sys.modules[home], name)
    assert name in dir(tesstopo)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tesstopo import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)
    assert sorted(tesstopo.__all__) == ALL_NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tesstopo.no_such_name
    assert not hasattr(tesstopo, "no_such_name")
    assert not hasattr(tesstopo, "_no_such_private")
