"""Eigenvalue-indexed spectral decompositions of controllability Gramians and
their inverses for continuous LTI systems, with brute-force oracles for every
closed-form path.

The package namespace is lazy (PEP 562): ``import gramspec`` imports no
submodule, and reading one of the names below imports the module that
defines it, the first time.
"""

import importlib

_EXPORTS = {
    "companion": (
        "CompanionRealization", "EigenStructure", "JordanBlockChain", "JordanChainSet",
        "LtiSystem", "SimilarityTransform", "build_companion", "controllability_matrix",
        "eigen_structure", "hankel_lower", "hankel_upper", "jordan_chains_companion",
        "require_controllable", "similarity_transform",
    ),
    "document": ("SystemDocument", "parse_system"),
    "energy": (
        "EnergyPartition", "OptimalControlSignal", "control_energy_quadrature",
        "energy_partition", "min_energy", "optimal_control",
    ),
    "errors": (
        "ConditioningError", "ControllabilityError", "ConvergenceError", "GramspecError",
        "MultipleEigenvalueError", "SchemaError", "SolvabilityError", "StabilityError",
    ),
    "gramians": (
        "FiniteGramianDecomposition", "Horizon", "InitialCondition", "SpectralComponentSet",
        "exponent_collisions", "finite_pair_subgramians", "finite_subgramians",
        "homogeneous_subgramians", "horizon",
        "infinite_pair_subgramians", "infinite_subgramians", "lift_to_original",
        "multiple_eig_gramian", "pair_collisions", "zero_plaid_defect",
    ),
    "inverse": (
        "finite_inverse", "inverse_eigenparts", "inverse_multiple_eig", "inverse_pair_parts",
        "orthogonality_certificate", "riccati_general",
    ),
    "oracle": (
        "integrate_lyapunov", "residual_lyapunov", "residual_riccati", "solve_lyapunov_dense",
    ),
    "spectrum": (
        "Polynomial", "SolvabilityReport", "Spectrum", "Tolerances", "char_poly",
        "check_solvability", "cluster", "eval_with_derivative", "find_roots", "poly_from_roots",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
