"""The package namespace: ``import gramspec`` loads no submodule, and every
public name is loaded from its module on first use (PEP 562)."""

import json
import subprocess
import sys

import gramspec as gs

from conftest import child_env

SUBMODULES = ["companion", "document", "energy", "errors", "gramians", "inverse", "oracle",
              "spectrum"]
ALL = [
    "CompanionRealization", "ConditioningError", "ControllabilityError", "ConvergenceError",
    "EigenStructure", "EnergyPartition", "FiniteGramianDecomposition", "GramspecError",
    "Horizon", "InitialCondition", "JordanBlockChain", "JordanChainSet", "LtiSystem",
    "MultipleEigenvalueError", "NormalizationState", "OptimalControlSignal", "OracleResult",
    "OrthogonalityReport", "OverlapReport", "Polynomial", "SchemaError",
    "SimilarityTransform", "SolvabilityError", "SolvabilityReport", "SpectralComponentSet",
    "Spectrum", "StabilityError", "SystemDocument", "Tolerances", "build_companion",
    "char_poly", "check_solvability", "cluster", "companion", "control_energy_quadrature",
    "controllability_matrix", "document", "eigen_structure", "energy", "energy_partition",
    "errors", "eval_with_derivative", "exponent_collisions", "find_roots", "finite_inverse",
    "finite_pair_subgramians", "finite_subgramians", "gramians", "hankel_lower",
    "hankel_upper", "homogeneous_pair_subgramians", "homogeneous_subgramians", "horizon",
    "infinite_pair_subgramians", "infinite_subgramians", "integrate_lyapunov", "inverse",
    "inverse_eigenparts", "inverse_multiple_eig", "inverse_pair_parts",
    "jordan_chains_companion", "left_eigenvector", "lift_to_original", "min_energy",
    "modal_overlap_integrals", "multiple_eig_gramian", "optimal_control", "oracle",
    "orthogonality_certificate", "pair_collisions", "parse_system", "poly_from_roots",
    "require_controllable", "residual_lyapunov", "residual_riccati", "residue_companion",
    "riccati_general", "right_eigenvector", "similarity_transform", "solve_lyapunov_dense",
    "spectrum", "zero_plaid_defect",
]


def _run(script: str):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", "import json, sys, types\n" + script],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_all_is_unchanged():
    assert len(ALL) == 82 and gs.__all__ == ALL
    assert set(SUBMODULES) < set(ALL)


def test_import_loads_no_submodule_and_every_name_resolves():
    loaded, resolved, unknown = _run(
        "import gramspec\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('gramspec.'))\n"
        "resolved = {name: isinstance(getattr(gramspec, name), types.ModuleType)\n"
        "            for name in gramspec.__all__}\n"
        "print(json.dumps([loaded, resolved, hasattr(gramspec, 'no_such_name')]))\n"
    )
    assert loaded == []
    assert sorted(resolved) == ALL
    assert sorted(name for name, module in resolved.items() if module) == SUBMODULES
    assert unknown is False


def test_star_import_binds_every_name():
    names = _run(
        "namespace = {}\n"
        "exec('from gramspec import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))\n"
    )
    assert names == ALL
