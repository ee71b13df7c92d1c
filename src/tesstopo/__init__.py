"""Topological parameter calculus for stationary spatial tessellations.

``import tesstopo`` loads the exact core (errors, ``Scalar``, parameter
records), which needs only the standard library. Every other public name is
imported from its home module on first access, so a caller pays only for the
layers it uses.
"""

from .errors import (
    TesstopoError,
    ParameterDomainError,
    DegenerateIntensityError,
    InfeasibleParametersError,
    MixtureShareError,
    PlanarParameterError,
    GeneratorParameterError,
    NonConvexCellError,
    NotATessellationError,
    UnknownEntryError,
)
from .scalar import Scalar, as_scalar, PI2, ZERO, ONE
from .params import (
    TessParams,
    DerivedSummary,
    cell_intensity_form,
    densities,
    from_densities,
    derive,
    check_identities,
    is_consistent,
)

# public name -> the submodule it is imported from on first access; each
# submodule is also reachable under its own name
_LAZY = {name: home for home, names in {
    "feasibility": ("Bound", "FeasibilityReport", "RegionPatch", "PlateProfileRegion",
                    "classify", "plate_cap", "ridge_rate_interval", "side_rate_interval",
                    "interior_rate_region", "hemi_pi_region", "plate_profile_region",
                    "sample_feasible"),
    "transforms": ("PlanarParams", "MixtureCurve", "stratum", "column", "central_point",
                   "central_point_orbit", "mixture", "mixture_curve"),
    "catalog": (),
    "complexes": ("FundamentalDomain", "MeasuredParams", "PeriodicComplex",
                  "ValidationReport", "build_complex", "domain_from_json", "generate",
                  "load_domain_file", "make_domain", "measure", "validate", "vertex_stats"),
}.items() for name in (home, *names)}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
