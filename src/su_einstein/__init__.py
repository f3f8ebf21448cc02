"""Left-invariant Einstein metrics on SU(n).

Builds generator bases of su(n) adapted to two class-diagonal metric ansatz
families, computes curvature directly from structure constants, solves the
Einstein condition (closed forms and seeded multistart), and catalogs the
inequivalent solutions per n by the scale-free invariant |Riem|^2 / lambda^2.

Each public name is read from its module when it is used, so ``import
su_einstein`` loads no submodule, and a program that only builds bases or
checks metrics never loads ``solver`` or ``catalog``.
"""

import importlib

# Every public name, once, under the module that defines it.
_EXPORTS = {
    "curvature": ("MetricSpec", "class_ricci_eigenvalues", "einstein_residual",
                  "einstein_verdict", "frame_weights", "invariant_I1", "levi_civita",
                  "lower_riemann", "ricci", "riem_norm_sq", "riemann"),
    "liealg": ("GeneratorBasis", "StructureConstants", "build_basis",
               "build_scheme1_basis", "build_scheme2_basis", "exact_validate",
               "formed_structure_constants", "structure_constants",
               "structure_constants_of", "validate_basis"),
    "solver": ("EinsteinRecord", "EinsteinSystem", "closed_form_scheme1",
               "closed_form_scheme2", "multistart_search", "newton_solve",
               "scheme1_system", "scheme2_system", "solve_configuration"),
    "catalog": ("CatalogEntry", "enumerate_metrics", "paper_count"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_OWNER)


def __getattr__(name):
    """Each public name (and each of the four modules), read from its module on
    every access, so the package keeps no copy that could go stale."""
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
