"""The package namespace: ``import gramspec`` loads no submodule, every
public name is loaded from its module on first use (PEP 562), and every
public function is run by a command."""

import inspect
import json
import subprocess
import sys

import numpy as np

import gramspec as gs

from conftest import child_env

SUBMODULES = ["companion", "document", "energy", "errors", "gramians", "inverse", "oracle",
              "spectrum"]
ALL = [
    "CompanionRealization", "ConditioningError", "ControllabilityError", "ConvergenceError",
    "EigenStructure", "EnergyPartition", "FiniteGramianDecomposition", "GramspecError",
    "Horizon", "InitialCondition", "JordanBlockChain", "JordanChainSet", "LtiSystem",
    "MultipleEigenvalueError", "OptimalControlSignal", "Polynomial", "SchemaError",
    "SimilarityTransform", "SolvabilityError", "SolvabilityReport", "SpectralComponentSet",
    "Spectrum", "StabilityError", "SystemDocument", "Tolerances", "build_companion",
    "char_poly", "check_solvability", "cluster", "companion", "control_energy_quadrature",
    "controllability_matrix", "document", "eigen_structure", "energy", "energy_partition",
    "errors", "eval_with_derivative", "exponent_collisions", "find_roots", "finite_inverse",
    "finite_pair_subgramians", "finite_subgramians", "gramians", "hankel_lower",
    "hankel_upper", "homogeneous_subgramians", "horizon", "infinite_pair_subgramians",
    "infinite_subgramians", "integrate_lyapunov", "inverse", "inverse_eigenparts",
    "inverse_multiple_eig", "inverse_pair_parts", "jordan_chains_companion",
    "lift_to_original", "min_energy", "multiple_eig_gramian", "optimal_control", "oracle",
    "orthogonality_certificate", "pair_collisions", "parse_system", "poly_from_roots",
    "require_controllable", "residual_lyapunov", "residual_riccati", "riccati_general",
    "similarity_transform", "solve_lyapunov_dense", "spectrum", "zero_plaid_defect",
]


def _run(script: str):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", "import json, sys, types\n" + script],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_all_is_unchanged():
    assert len(ALL) == 73 and gs.__all__ == ALL
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


def test_every_public_function_is_run_by_a_command(tmp_path, capsys):
    from gramspec.cli import main

    def write(name: str, value) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(value))
        return str(path)

    a = [[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]]
    simple = write("simple", {"char_poly": [6.0, 11.0, 6.0, 1.0]})
    one_input = write("one_input", {"matrices": {"A": a, "B": [[0.0], [0.0], [1.0]]}})
    two_inputs = write("two_inputs",
                       {"matrices": {"A": a, "B": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]}})
    jordan = write("jordan", {"eigenvalues": [[-1.0, 0.0, 2], [-2.0, 0.0, 1]]})
    initial = write("p0", np.diag([1.0, 2.0, 3.0]).tolist())
    runs = [
        ["analyze", simple, "--pairs", "--inverse", "--finite", "1"],
        ["analyze", one_input, "--pairs", "--inverse", "--finite", "1"],
        ["analyze", two_inputs, "--inverse"],
        ["analyze", jordan, "--inverse", "--finite", "1"],
        ["analyze", simple, "--inverse", "--finite", "1", "--initial", initial],
        ["verify", simple],
        ["verify", jordan],
        ["energy", simple, "--x0", "1,0,0", "--time-series", "-1", "0", "5"],
        ["roots", one_input],
    ]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    unreached = {name for name in gs.__all__
                 if inspect.isfunction(value := getattr(gs, name)) and value.__code__ not in called}
    assert not unreached, sorted(unreached)
