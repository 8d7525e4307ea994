"""Exact alcove/weight-lattice arithmetic for the compact simple Lie types,
level-k pre-quantization tests, and a numerical SU(n) engine for spaces with
group-valued moment maps.

Attributes resolve lazily so the exact layer never pays for numpy imports;
`from quasiham import <name>` works for everything in __all__.
"""

from importlib import import_module

_HOME = {
    "alcove": [
        "AlcoveModel",
        "LevelWeightSet",
        "alcove_vertices",
        "level_weights",
        "minimal_integral_level",
    ],
    "errors": ["InputError", "ToolkitError"],
    "gerbe": ["eigenline_weights", "vertex_weight_consistency"],
    "holonomy": ["PiecewiseConnection", "convergence_order", "gauge_transform"],
    "prequant": ["class_decision", "torsion_level_admissible"],
    "rational": ["CartanVector", "parse_rational", "parse_vector"],
    "roots": [
        "LieType",
        "RootSystem",
        "a_series_embedding",
        "a_series_numerators",
        "build_root_system",
        "height",
        "inner_product",
    ],
    "spaces": [
        "ConjugacyClass",
        "Double",
        "Fused",
        "Genus",
        "QSpace",
        "VerificationReport",
        "reduction_rank",
        "sphere4_act",
        "sphere4_equivariance_residual",
        "sphere4_moment",
        "verify_axiom",
    ],
    "sun": [
        "algebra_basis",
        "basic_inner",
        "canonical_three_form",
        "check_algebra",
        "check_special_unitary",
        "eta_integral_su2",
        "expm_skew",
        "maurer_cartan",
        "project_algebra",
        "random_algebra",
        "random_special_unitary",
        "torus_algebra",
        "torus_point",
    ],
}

_LOOKUP = {name: module for module, names in _HOME.items() for name in names}

__all__ = sorted(_LOOKUP)


def __getattr__(name: str):
    module = _LOOKUP.get(name)
    if module is None:
        raise AttributeError(f"module 'quasiham' has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
