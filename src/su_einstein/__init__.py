"""Left-invariant Einstein metrics on SU(n).

Builds generator bases of su(n) adapted to two class-diagonal metric ansatz
families, computes curvature directly from structure constants, solves the
Einstein condition (closed forms and seeded multistart), and catalogs the
inequivalent solutions per n by the scale-free invariant |Riem|^2 / lambda^2.

The ``solver`` and ``catalog`` names are imported on first use, so a
program that only builds bases or checks metrics does not load them.
"""

import importlib

from .curvature import (
    CurvatureBundle,
    MetricSpec,
    class_ricci_eigenvalues,
    curvature_bundle,
    einstein_residual,
    einstein_verdict,
    frame_weights,
    invariant_I1,
    levi_civita,
    lower_riemann,
    ricci,
    riem_norm_sq,
    riemann,
)
from .liealg import (
    GeneratorBasis,
    StructureConstants,
    build_basis,
    build_scheme1_basis,
    build_scheme2_basis,
    exact_validate,
    structure_constants,
    structure_constants_of,
    validate_basis,
)

_LAZY = {
    "catalog": ("CatalogEntry", "enumerate_metrics", "paper_count"),
    "solver": ("EinsteinRecord", "EinsteinSystem", "closed_form_scheme1",
               "closed_form_scheme2", "multistart_search",
               "newton_solve", "scheme1_system", "scheme2_system",
               "solve_configuration"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """The solver and catalog names (and those two modules), imported on first use."""
    module = name if name in _LAZY else _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CurvatureBundle",
    "EinsteinRecord",
    "EinsteinSystem",
    "GeneratorBasis",
    "MetricSpec",
    "StructureConstants",
    "build_basis",
    "build_scheme1_basis",
    "build_scheme2_basis",
    "class_ricci_eigenvalues",
    "closed_form_scheme1",
    "closed_form_scheme2",
    "curvature_bundle",
    "einstein_residual",
    "einstein_verdict",
    "enumerate_metrics",
    "exact_validate",
    "frame_weights",
    "invariant_I1",
    "levi_civita",
    "lower_riemann",
    "multistart_search",
    "newton_solve",
    "paper_count",
    "ricci",
    "riem_norm_sq",
    "riemann",
    "scheme1_system",
    "scheme2_system",
    "solve_configuration",
    "structure_constants",
    "structure_constants_of",
    "validate_basis",
]
