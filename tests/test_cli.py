import collections
import gc
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import (
    EXIT_CONDITIONING,
    EXIT_OK,
    EXIT_SOLVABILITY,
    EXIT_USAGE,
    SIGN_CONVENTION_NOTE,
    VERIFY_BOUNDS,
    cmd_analyze,
    cmd_energy,
    cmd_verify,
    main,
    resolve_document,
)
from gramspec.document import parse_system

from conftest import child_env

# a degree-8 analyze_ladder polynomial whose G(1) is numerically singular in double
LADDER8_COEFFS = [2282.276472599614, 7061.767882988239, 8218.473821798005,
                  5356.9141176459, 2307.2249191441088, 685.287995824171,
                  136.87347552892803, 16.96216946824925, 1.0]


@pytest.fixture
def example1_path(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(json.dumps({"schema": 1, "label": "ex1", "char_poly": [-6, 11, -6, 1]}))
    return str(path)


@pytest.fixture
def example5_path(tmp_path):
    path = tmp_path / "example5.json"
    path.write_text(json.dumps({"schema": 1, "eigenvalues": [[1, 0, 2], [2, 0, 3]]}))
    return str(path)


@pytest.fixture
def jordan_path(tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps({"schema": 1, "eigenvalues": [[1, 0, 2], [2, 0, 1]]}))
    return str(path)


@pytest.fixture
def stable_path(tmp_path):
    path = tmp_path / "stable.json"
    path.write_text(
        json.dumps({"eigenvalues": [[-1, 0, 1], [-2, 0, 1], [-3, 0, 1]], "label": "stable"})
    )
    return str(path)


def matrix_from(entry):
    return np.array(entry["matrix"]["re"]) + 1j * np.array(entry["matrix"]["im"])


class TestAnalyze:
    def test_example_component_values(self):
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        report = cmd_analyze(doc, pairs=True, inverse=True)
        p1 = matrix_from(report["gramian"]["eigen"]["1"]).real
        expected = (-1.0 / 48.0) * np.array([[1, 0, 1], [0, -1, 0], [1, 0, 1]])
        assert np.max(np.abs(p1 - expected)) < 1e-10
        total = matrix_from(report["gramian"]["sum"]).real
        assert np.max(np.abs(total - (-1 / 120) * np.array([[1, 0, -1], [0, 1, 0], [-1, 0, 11]]))) < 1e-10
        inv_sum = matrix_from(report["inverse"]["sum"]).real
        assert np.max(np.abs(inv_sum - (-12) * np.array([[11, 0, 1], [0, 10, 0], [1, 0, 1]]))) < 1e-8
        assert report["inverse"]["product_residual"] < 1e-8

    def test_example5_inverse_fixture(self):
        doc = parse_system({"eigenvalues": [[1, 0, 2], [2, 0, 3]]})
        report = cmd_analyze(doc, inverse=True)
        p1 = matrix_from(report["inverse"]["eigen"]["1"]).real
        expected = 108.0 * np.array(
            [
                [192, 0, 528, 0, 32],
                [0, -1520, 0, -596, 0],
                [528, 0, 1404, 0, 84],
                [0, -596, 0, -231, 0],
                [32, 0, 84, 0, 5],
            ],
            dtype=float,
        )
        assert np.max(np.abs(p1 - expected)) <= 1e-8 * np.max(np.abs(expected))

    def test_component_residuals_meaningful(self):
        # gramian components verify a right-eigenspace identity, inverse
        # components a left-eigenspace one; both must be at roundoff
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        report = cmd_analyze(doc, pairs=True, inverse=True)
        for block in ("gramian", "inverse"):
            for kind in ("eigen", "pair"):
                for entry in report[block][kind].values():
                    assert entry["residual"] < 1e-10
        doc5 = parse_system({"eigenvalues": [[1, 0, 2], [2, 0, 3]]})
        report5 = cmd_analyze(doc5, inverse=True)
        for block in ("gramian", "inverse"):
            for entry in report5[block]["eigen"].values():
                assert entry["residual"] < 1e-10

    def test_raw_flag(self):
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        report = cmd_analyze(doc, raw=True)
        raw1 = matrix_from(report["gramian"]["eigen"]["1"])
        expected = (1.0 / 48.0) * np.array([[-1, 1, -1], [-1, 1, -1], [-1, 1, -1]])
        assert np.max(np.abs(raw1 - expected)) < 1e-10

    def test_matrices_source_emits_original(self):
        doc = parse_system(
            {"matrices": {"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]]}}
        )
        report = cmd_analyze(doc, inverse=True)
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        b = np.array([[0.0], [1.0]])
        lifted = matrix_from(report["gramian_original"]["sum"]).real
        reference = gs.solve_lyapunov_dense(a, b @ b.T)
        assert np.max(np.abs(lifted - reference)) < 1e-8
        assert report["gramian_original"]["sum"]["residual"] < 1e-8
        inv_orig = matrix_from(report["inverse_original"]["sum"]).real
        assert np.max(np.abs(inv_orig - np.linalg.inv(reference))) < 1e-6

    def test_catalogue_original_sums_within_bounds(self, monkeypatch):
        # the 20 analyze_structured matrices documents (n = 3..7, one or two
        # inputs) against their 60-digit references: both sums in original
        # coordinates meet the benchmark's bounds, 1e-8 and 1e-7 relative.
        # Lifting each component and adding the lifted stack lost up to
        # 6.5e-8 and 2.0e-7 (n = 7) to cancellation.  So does the finite
        # inverse at t = 1 (1e-7), which on the n = 7 documents needs its
        # 80-bit horizon: in double it was off by up to 7.6e-6
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import check
        import generate
        import reference

        items = [item for round_ in generate.catalogue("analyze_structured") for item in round_
                 if "matrices" in item["doc"]]
        assert len(items) == 20 and items[0]["argv"] == ["analyze", "--inverse", "--finite", "1"]
        checked = collections.Counter()
        for item in items:
            report = cmd_analyze(parse_system(item["doc"]), inverse=True, finite=1.0)
            ref = reference.build_reference(item["doc"], horizon=1.0)
            for name in ("gramian_original.sum", "inverse_original.sum", "finite_inverse.sum"):
                block = name.split(".")[0]
                if block in report:
                    error = check.relative_error(ref, name, matrix_from(report[block]["sum"]))
                    assert error <= check.BOUNDS[name], (item["n"], name, error)
                    checked[name] += 1
        assert checked == {"gramian_original.sum": 20, "inverse_original.sum": 10,
                           "finite_inverse.sum": 20}

    def test_finite_residual_uses_exact_derivative(self):
        # with dP/dt = e^{At} b b^T e^{A^T t} taken from the residue or
        # Jordan-chain expansion, the residual is at rounding level
        cases = [({"char_poly": [-6, 11, -6, 1]}, 1.0)]
        for spectrum in ([[-1, 0, 2], [-2, 0, 3]], [[-1, 1, 2], [-1, -1, 2], [-3, 0, 1]]):
            cases += [({"eigenvalues": spectrum}, t) for t in (0.4, 1.0, 5.0)]
        for doc, t in cases:
            report = cmd_analyze(parse_system(doc), finite=t)
            assert report["finite"]["sum"]["residual"] <= 1e-12, (doc, t)


class TestExitCodes:
    def test_success(self, example1_path, capsys):
        assert main(["analyze", example1_path]) == EXIT_OK
        capsys.readouterr()

    def test_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"char_poly": [1, 2, 2]}))
        assert main(["analyze", str(path)]) == EXIT_USAGE
        assert "schema error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/system.json"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_output(self, example1_path, tmp_path, capsys, target):
        output = str(tmp_path / target)
        assert main(["roots", example1_path, "--output", output]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {output}: ")
        assert captured.err.count("\n") == 1

    def test_solvability_exit(self, tmp_path, capsys):
        path = tmp_path / "imag.json"
        path.write_text(json.dumps({"eigenvalues": [[0, 1, 1], [0, -1, 1]]}))
        assert main(["analyze", str(path)]) == EXIT_SOLVABILITY
        err = capsys.readouterr().err
        assert "solvability" in err and "(1, 2)" in err

    def test_solvability_pairs_numbered_from_one(self, tmp_path, capsys):
        # stderr numbers the eigenvalues as the roots report does
        path = tmp_path / "mirror.json"
        path.write_text('{"schema":1,"eigenvalues":[[-1,0,1],[1,0,1],[-2,0,1]]}')
        assert main(["analyze", str(path)]) == EXIT_SOLVABILITY
        assert capsys.readouterr().err == (
            "solvability error: Lyapunov solvability condition violated for eigenvalue pairs "
            "[(1, 2)]; min |lambda_i + lambda_j| = 0.000e+00\n"
        )
        assert main(["roots", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["solvability"]["violating_pairs"] == [[1, 2]]

    def test_unstable_horizon_out_of_double_range(self, example1_path, capsys):
        # eigenvalues 1, 2 and 3: P(65) has entries near 1e170, whose squares
        # overflow its Frobenius norm, the scale of the residual
        assert main(["analyze", "--finite", "65", example1_path]) == EXIT_CONDITIONING
        assert capsys.readouterr().err == (
            "conditioning error: the Frobenius norm of P(t) leaves the double range at "
            "t = 65.0 (largest entry 8.001e+169)\n"
        )

    def test_unstable_horizon_non_finite_normalization(self, example1_path, capsys):
        # at t = 118 the terms of G^-1(t) overflow in the 80-bit finite
        # inverse's conversion to double
        argv = ["analyze", "--inverse", "--finite", "118", example1_path]
        assert main(argv) == EXIT_CONDITIONING
        assert capsys.readouterr().err == (
            "conditioning error: normalization matrix inverse G^-1(t) leaves the double "
            "range at t = 118.0 (condition estimate inf)\n"
        )

    @pytest.mark.parametrize("document, horizon, inverse, refusal", [
        ("example1_path", "200", False, "P(t)"),
        ("example1_path", "200", True, "normalization matrix inverse G^-1(t)"),
        ("example1_path", "400", False, "e^(A t)"),
        ("example1_path", "400", True, "e^(A t)"),
        ("jordan_path", "200", False, "P(t)"),
        ("jordan_path", "200", True, "P(t)"),
        ("jordan_path", "400", False, "e^(A t)"),
        ("jordan_path", "400", True, "e^(A t)"),
    ])
    def test_unstable_horizon_refused_without_warnings(self, request, document, horizon,
                                                       inverse, refusal):
        # past the range of the horizon terms the overflows stay quiet, also
        # when warnings are errors: one line names t and what left the range
        argv = ["analyze", request.getfixturevalue(document), "--pairs", "--finite", horizon]
        argv += ["--inverse"] * inverse
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", "-m", "gramspec.cli",
             *argv], capture_output=True, text=True, env=child_env(), timeout=120)
        assert result.returncode == EXIT_CONDITIONING, result.stderr
        suffix = " (condition estimate inf)" if refusal.startswith("normalization") else ""
        assert result.stderr == (f"conditioning error: {refusal} leaves the double range "
                                 f"at t = {horizon}.0{suffix}\n")

    # a simple and a Jordan spectrum, stable and unstable: both paths apply
    # one horizon rule before any spectral work, and one range check to e^(A t)
    HORIZON_DOCUMENTS = {
        "simple_stable": {"char_poly": [6, 11, 6, 1]},
        "jordan_stable": {"eigenvalues": [[-1, 0, 3]]},
        "simple_unstable": {"char_poly": [-6, 11, -6, 1]},
        "jordan_unstable": {"eigenvalues": [[1, 0, 3]]},
    }

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-1", "1e200"])
    @pytest.mark.parametrize("document", HORIZON_DOCUMENTS)
    def test_both_paths_refuse_a_horizon_alike(self, tmp_path, capsys, document, horizon):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema": 1, **self.HORIZON_DOCUMENTS[document]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["analyze", "--finite", horizon, str(path)])
        out, err = capsys.readouterr()
        if horizon != "1e200":
            assert (code, err) == (EXIT_USAGE, "error: horizon must be finite and "
                                               f"nonnegative, got {float(horizon)}\n")
        elif document.endswith("unstable"):
            assert (code, err) == (EXIT_CONDITIONING, "conditioning error: e^(A t) leaves "
                                                      "the double range at t = 1e+200\n")
        else:  # every mode has decayed: P(t) is the algebraic Gramian
            assert (code, err) == (EXIT_OK, "")
            report = json.loads(out)
            finite, gramian = (matrix_from(report[block]["sum"]) for block in ("finite", "gramian"))
            assert np.linalg.norm(finite - gramian) <= 1e-12 * np.linalg.norm(gramian)

    def test_exit_three_refusals_are_conditioning_errors(self):
        for error in (gs.ControllabilityError, gs.MultipleEigenvalueError, gs.ConvergenceError):
            assert issubclass(error, gs.ConditioningError)
        assert "__init__" not in vars(gs.ControllabilityError)

    # one document per step that can refuse analyze, in the order the steps
    # run; each is refused with its own exit code and stderr line, whatever
    # the command builds before or after that step
    REFUSALS = {
        "uncontrollable": (
            {"matrices": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]]}}, "1",
            EXIT_CONDITIONING,
            "conditioning error: system is uncontrollable or nearly so (condition estimate inf)"),
        "origin_and_near_multiple": (  # the inverse set refuses the origin before horizon
            {"eigenvalues": [[-1e-7, 0, 1], [-100, 0, 1], [-100.0000001, 0, 1], [-300, 0, 1]]},
            "1", EXIT_CONDITIONING,
            "conditioning error: left eigenvector undefined for eigenvalue (-1e-07+0j) at the "
            "origin: |lambda| = 1.000e-07 is at or below 3.000e-06"),
        "jordan_origin": (
            {"eigenvalues": [[-1e-9, 0, 2], [-1, 0, 1]]}, "1", EXIT_CONDITIONING,
            "conditioning error: Jordan chains undefined for eigenvalue (-1e-09+0j) at the "
            "origin: |lambda| = 1.000e-09 is at or below 2.000e-08"),
        "near_multiple": (
            {"eigenvalues": [[-1, 0, 1], [-1.00000002, 0, 1], [-2, 0, 1]]}, "1",
            EXIT_CONDITIONING,
            "conditioning error: |N'((-1+0j))| = 2.000e-08 is below tolerance; eigenvalue is "
            "numerically multiple, use the Jordan-chain decomposition"),
        "multi_input_initial": (
            {"matrices": {"A": [[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]],
                          "B": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]},
             "initial_condition": np.eye(3).tolist()}, "1", EXIT_CONDITIONING,
            "conditioning error: initial conditions for multi-input matrix documents are not "
            "supported"),
        **{f"example1_t{t}": (
            {"char_poly": [-6, 11, -6, 1]}, t, EXIT_CONDITIONING,
            "conditioning error: normalization matrix inverse G^-1(t) leaves the double range "
            f"at t = {t}.0 (condition estimate inf)") for t in ("118", "200")},
        "example1_t400": (
            {"char_poly": [-6, 11, -6, 1]}, "400", EXIT_CONDITIONING,
            "conditioning error: e^(A t) leaves the double range at t = 400.0"),
        # the condition estimate of the 80-bit finite inverse: cond_2 G(1) is
        # near 4.5e40, far past what 64 bits resolve, so these digits are
        # rounding noise and move with the order of G^-1(t)'s arithmetic
        "ladder16": (
            {"char_poly": gs.poly_from_roots(-0.5 - 0.3 * np.arange(16)).coeffs.real.tolist()},
            "1", EXIT_CONDITIONING,
            "conditioning error: normalization matrix G(t) is numerically singular at t = 1.0 "
            "(condition estimate 2.690e+27)"),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refusal_precedence(self, tmp_path, capsys, case):
        document, horizon, code, line = self.REFUSALS[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        argv = ["analyze", str(path), "--pairs", "--inverse", "--finite", horizon]
        assert main(argv) == code
        assert capsys.readouterr() == ("", line + "\n")

    def test_verify_refusal_precedence(self, tmp_path, capsys):
        # the inverse set's refusal of an eigenvalue at the origin comes
        # before the Kronecker oracle's of this document (exit 2)
        path = tmp_path / "origin.json"
        path.write_text(json.dumps(
            {"eigenvalues": [[-1e-3, 0, 1], *([-10.0 * k, 0, 1] for k in range(1, 9))]}))
        assert main(["verify", str(path)]) == EXIT_CONDITIONING
        assert capsys.readouterr() == (
            "", "conditioning error: left eigenvector undefined for eigenvalue (-0.001+0j) at "
            "the origin: |lambda| = 1.000e-03 is at or below 4.033e+00\n")
        resolved = resolve_document(parse_system(json.loads(path.read_text())), gs.Tolerances())
        with pytest.raises(gs.SolvabilityError, match="Kronecker"):
            gs.solve_lyapunov_dense(resolved.cr.a_c, np.outer(resolved.cr.b_c, resolved.cr.b_c))

    def test_verify_jordan_origin_refusal(self, tmp_path, capsys):
        # solvable at the default tolerance, refused by the Jordan chains
        document, _, code, line = self.REFUSALS["jordan_origin"]
        path = tmp_path / "origin.json"
        path.write_text(json.dumps(document))
        assert main(["verify", str(path)]) == code
        assert capsys.readouterr() == ("", line + "\n")

    def test_conditioning_exit(self, tmp_path, capsys):
        path = tmp_path / "uncontrollable.json"
        path.write_text(
            json.dumps({"matrices": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]]}})
        )
        assert main(["analyze", str(path)]) == EXIT_CONDITIONING
        capsys.readouterr()

    def test_singular_resolvent_exit(self, tmp_path, capsys):
        # the margin 3e-10 passes the solvability bound 2e-10, but -lambda_1 I - A^T
        # is singular in working precision next to the double eigenvalue at -1
        path = tmp_path / "near_mirror.json"
        path.write_text('{"schema":1,"eigenvalues":[[-1,0,2],[0.9999999997,0,1]]}')
        for argv in (["analyze"], ["analyze", "--inverse", "--finite", "1"]):
            assert main(argv + [str(path)]) == EXIT_CONDITIONING
            err = capsys.readouterr().err
            assert "singular at lambda_i = (0.9999999997+0j)" in err and "inf" in err

    def test_verify_singular_resolvent_exit(self, tmp_path, capsys):
        # verify builds the closed forms before the Kronecker oracle, so it
        # refuses this document as analyze does, not as unsolvable (exit 2)
        path = tmp_path / "near_mirror.json"
        path.write_text('{"schema":1,"eigenvalues":[[-1,0,2],[0.9999999997,0,1]]}')
        assert main(["verify", str(path)]) == EXIT_CONDITIONING
        err = capsys.readouterr().err
        assert "singular at lambda_i = (0.9999999997+0j)" in err and "Kronecker" not in err

    def test_verify_refuses_uncontrollable(self, tmp_path, capsys):
        path = tmp_path / "uncontrollable.json"
        path.write_text(
            json.dumps({"matrices": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]]}})
        )
        assert main(["verify", str(path)]) == EXIT_CONDITIONING
        assert "uncontrollable" in capsys.readouterr().err

    def test_energy_refuses_uncontrollable(self, tmp_path, capsys):
        # refused with analyze's and verify's exit code and stderr line; roots
        # still reports the spectrum
        path = tmp_path / "uncontrollable.json"
        path.write_text(
            json.dumps({"matrices": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]]}})
        )
        assert main(["energy", str(path), "--x0", "1,2"]) == EXIT_CONDITIONING
        assert capsys.readouterr().err == (
            "conditioning error: system is uncontrollable or nearly so (condition estimate inf)\n"
        )
        assert main(["roots", str(path)]) == EXIT_OK
        capsys.readouterr()

    def test_verify_two_input_document(self, tmp_path, capsys):
        # no initial condition to pull back: the random probe is drawn in
        # companion coordinates, so a multi-input document verifies
        path = tmp_path / "two_inputs.json"
        path.write_text(json.dumps({"matrices": {
            "A": [[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]],
            "B": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
        }}))
        assert main(["verify", str(path)]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().err

    def test_verify_refuses_two_input_initial_before_closed_forms(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the initial condition is pulled back right after the Kronecker
        # solve: no closed-form set is built and the RK4 oracle never runs
        import gramspec.cli as cli
        import gramspec.inverse as inverse
        import gramspec.oracle as oracle

        def unreached(*args, **kwargs):
            raise AssertionError("called before the refusal")

        for module, names in ((cli, ("infinite_subgramians", "infinite_pair_subgramians",
                                     "finite_subgramians", "homogeneous_subgramians")),
                              (inverse, ("inverse_eigenparts", "inverse_pair_parts")),
                              (oracle, ("integrate_lyapunov",))):
            for name in names:
                monkeypatch.setattr(module, name, unreached)
        document, _, code, line = self.REFUSALS["multi_input_initial"]
        path = tmp_path / "two_inputs_initial.json"
        path.write_text(json.dumps(document))
        assert main(["verify", str(path)]) == code
        assert capsys.readouterr() == ("", line + "\n")

    def test_verify_success(self, example1_path, capsys):
        assert main(["verify", example1_path, "--seed", "3"]) == EXIT_OK
        out = capsys.readouterr()
        assert "PASS" in out.err and "FAIL" not in out.err

    def test_verify_corrupted_initial_condition(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text(
            json.dumps(
                {
                    "char_poly": [-6, 11, -6, 1],
                    "initial_condition": [[1, 2, 0], [0, 1, 0], [0, 0, 1]],
                }
            )
        )
        assert main(["verify", str(path)]) == EXIT_USAGE
        assert "symmetric" in capsys.readouterr().err

    def test_energy_usage_error(self, stable_path, capsys):
        assert main(["energy", stable_path, "--x0", "1,0"]) == EXIT_USAGE
        capsys.readouterr()

    def test_format_only_on_energy(self, example1_path, capsys):
        # only energy --time-series reads --format; analyze must not accept it
        assert main(["analyze", example1_path, "--format", "csv"]) == EXIT_USAGE
        assert "--format" in capsys.readouterr().err

    def test_tol_solve_reaches_original_riccati(self, tmp_path, capsys):
        # lambda = -1 and 1 + 5e-11 sum to 5e-11: solvable at --tol-solve
        # 1e-13, so the original-coordinate inverse must use that tolerance
        coeffs = np.poly([-1.0, 1.0 + 5e-11, -2.0])[::-1].real
        a_c = np.zeros((3, 3))
        a_c[:2, 1:] = np.eye(2)
        a_c[2, :] = -coeffs[:3]
        t = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.5, 0.0, 1.0]])
        path = tmp_path / "near_mirror.json"
        path.write_text(json.dumps({"matrices": {
            "A": (t @ a_c @ np.linalg.inv(t)).tolist(), "B": (t[:, 2:]).tolist()}}))
        out = tmp_path / "report.json"
        for extra in ([], ["--inverse"]):
            code = main(["analyze", str(path), "--tol-solve", "1e-13", "--output", str(out)]
                        + extra)
            assert code == EXIT_OK, capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["inverse_original"]["sum"]["residual"] < 1e-12


class TestVerifyCommand:
    def test_all_checks_pass(self):
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        report = cmd_verify(doc, seed=11)
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "gramian_oracle_agreement" in names
        assert "zero_plaid_zeros" in names
        assert "orthogonality" in names

    def test_multiple_path_checks(self):
        doc = parse_system({"eigenvalues": [[1, 0, 2], [2, 0, 3]]})
        report = cmd_verify(doc, seed=11)
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "jordan_chain_recursion" in names

    def test_seeded_reports_reproducible(self):
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        a = cmd_verify(doc, seed=5)
        b = cmd_verify(doc, seed=5)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_oracle_cap(self):
        eigenvalues = [[-(0.1 + 0.2 * k), 0.0, 1] for k in range(34)]
        doc = parse_system({"eigenvalues": eigenvalues})
        with pytest.raises(ValueError, match="capped"):
            cmd_verify(doc)


class TestOneHomePerCheck:
    def test_every_tolerance_is_its_table_row(self):
        # a simple spectrum runs every check but the Jordan chain recursion,
        # which only a spectrum with multiplicities runs; between them they
        # use every row, each check in table order
        used = set()
        for document in ({"char_poly": [6, 11, 6, 1]}, {"eigenvalues": [[-1, 0, 2], [-2, 0, 1]]}):
            checks = cmd_verify(parse_system(document))["checks"]
            names = [check["name"] for check in checks]
            assert names == [name for name in VERIFY_BOUNDS if name in names]
            for check in checks:
                assert check["tolerance"] == VERIFY_BOUNDS[check["name"]], check
                assert check["pass"] == (check["value"] <= check["tolerance"])
            used.update(names)
        assert used == set(VERIFY_BOUNDS) and len(VERIFY_BOUNDS) == 15

    def test_product_residual_is_the_verify_check(self, monkeypatch):
        # analyze's inverse.product_residual and verify's
        # inverse_product_identity are one function of the same two sums
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import generate

        items = [item for round_ in generate.catalogue("verify_oracle") for item in round_
                 if item["n"] in (3, 5)]
        assert len(items) == 12
        for item in items:
            doc = parse_system(item["doc"])
            analyzed = cmd_analyze(doc, inverse=True)["inverse"]["product_residual"]
            checks = {check["name"]: check["value"] for check in cmd_verify(doc)["checks"]}
            assert np.float64(analyzed).tobytes() == np.float64(
                checks["inverse_product_identity"]).tobytes(), item["n"]


class TestEnergyCommand:
    def test_example_energy(self):
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        report, series = cmd_energy(doc, [0.0, 0.0, 1.0])
        assert abs(report["energy"]["total"] - (-12.0)) < 1e-8
        assert np.allclose(report["energy"]["linear"], [-12.0, 60.0, -60.0], atol=1e-7)
        assert report["energy"]["interpretation_valid"] is False
        assert series is None

    def test_time_series_csv(self, stable_path, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(
            [
                "energy",
                stable_path,
                "--x0",
                "1,0,0",
                "--time-series", "-40", "0", "40001",
                "--format", "csv",
                "--output", str(out),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        data = np.genfromtxt(out, delimiter=",", names=True)
        energy = np.trapezoid(data["u"] ** 2, data["t"])
        assert abs(energy - 132.0) <= 1e-3 * 132.0
        modal_sum = data["re_u1"] + data["re_u2"] + data["re_u3"]
        assert np.max(np.abs(modal_sum - data["u"])) < 1e-9 * np.max(np.abs(data["u"]))

    def test_unstable_time_series_skipped(self):
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        report, series = cmd_energy(doc, [0.0, 0.0, 1.0], time_series=(-1.0, 0.0, 10))
        assert series is None
        assert any("time series skipped" in w for w in report["warnings"])

    def test_only_the_csv_format_forms_rows(self, stable_path, tmp_path, capsys, monkeypatch):
        # a time series written as JSON carries only the quadrature, so no
        # CSV row is formatted for it; the JSON report is the same either way
        import gramspec.cli as cli

        tables = []
        series_csv = cli._series_csv
        monkeypatch.setattr(cli, "_series_csv", lambda *series: tables.append(
            series_csv(*series)) or tables[-1])
        argv = ["energy", stable_path, "--x0", "1,0,0", "--time-series", "-1", "0", "3"]
        assert main(argv) == EXIT_OK
        json_report = capsys.readouterr().out
        assert tables == []
        out = tmp_path / "series.csv"
        assert main([*argv, "--format", "csv", "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == json_report
        assert len(tables) == 1 and out.read_text() == tables[0]
        assert tables[0].count("\n") == 4 and tables[0].startswith("t,u,re_u1,im_u1,")


class TestInitialConditionFlag:
    def test_initial_file_drives_homogeneous_part(self, example1_path, tmp_path, capsys):
        p0_path = tmp_path / "p0.json"
        p0_path.write_text(json.dumps([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]))
        out = tmp_path / "report.json"
        code = main(
            ["analyze", example1_path, "--finite", "0.4", "--inverse",
             "--initial", str(p0_path), "--output", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert "homogeneous_sum" in report["finite"]
        assert report["finite_inverse"]["sum"]["residual"] < 1e-6

    def test_extended_retry_with_initial_condition(self, tmp_path, capsys):
        # degree 8: G(1) is numerically singular in double precision, and the
        # finite inverse, on its one 80-bit horizon, admits it with an
        # initial condition too; no warning names the precision
        p0 = np.random.default_rng(1002).standard_normal((8, 8))
        path = tmp_path / "ladder8.json"
        path.write_text(json.dumps(
            {"char_poly": LADDER8_COEFFS, "initial_condition": (0.5 * (p0 + p0.T)).tolist()}
        ))
        out = tmp_path / "report.json"
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1",
                     "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert not any("extended precision" in w for w in report["warnings"])
        assert report["finite_inverse"]["normalization_condition"] > 1e12
        assert "homogeneous_sum" in report["finite"]

    def test_one_horizon_holds_the_initial_value(self, tmp_path, monkeypatch):
        # matrices_p0/19 of tools/report_digest.py, an n = 7 single-input
        # matrices document with P_0: the residues R_i P_0 cancel in their
        # sum, which a double horizon left 5.4e-7 from P_0 at t = 0, 540
        # times verify's bound.  The one 80-bit horizon holds it, and the
        # finite block is the same, byte for byte, with or without --inverse
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
        import report_digest

        [(doc, argv)] = [(doc, argv) for name, doc, argv in report_digest.cases()
                         if name == "matrices_p0/19"]
        assert argv == ["analyze", "--inverse", "--finite", "1"]
        blocks = []
        for flags in (argv, ["analyze", "--finite", "1"]):
            code, err, text = report_digest.run_case(main, str(tmp_path), doc, flags)
            assert (code, err) == (EXIT_OK, "")
            blocks.append(json.loads(text)["finite"])
        with_inverse, without = blocks
        defect = with_inverse["homogeneous_sum"]["residual"]
        assert defect <= VERIFY_BOUNDS["homogeneous_initial_value"]
        assert json.dumps(with_inverse) == json.dumps(without)


@pytest.fixture
def mirrored_path(tmp_path):
    # lambda = 1 mirrors lambda = -1: unsolvable at any valid --tol-solve
    path = tmp_path / "mirrored.json"
    path.write_text(json.dumps({"eigenvalues": [[-1, 0, 1], [1, 0, 1], [-2, 0, 1]]}))
    return str(path)


@pytest.fixture
def stable_poly_path(tmp_path):
    path = tmp_path / "stable_poly.json"
    path.write_text(json.dumps({"char_poly": [6, 11, 6, 1]}))
    return str(path)


class TestMultipleSpectrumSkips:
    """What analyze leaves out on a spectrum with multiplicities is named in
    its warnings."""

    DOC = {"eigenvalues": [[-1, 0, 2], [-2, 0, 1]]}

    def test_finite_inverse_skipped(self):
        report = cmd_analyze(parse_system(self.DOC), inverse=True, finite=1.0)
        assert "finite_inverse" not in report
        assert "finite inverse is only evaluated for simple spectra; skipped" in report["warnings"]

    def test_initial_condition_skipped(self):
        doc = parse_system(dict(self.DOC, initial_condition=np.eye(3).tolist()))
        report = cmd_analyze(doc, finite=1.0)
        assert "homogeneous_sum" not in report["finite"]
        assert (
            "initial condition is only evaluated for simple spectra; skipped" in report["warnings"]
        )
        assert not any("finite inverse" in w for w in report["warnings"])


class TestMultipleSpectrumLift:
    def test_inverse_original_of_jordan_set(self, tmp_path, capsys):
        # a single-input system similar to the companion form of (s+1)^2 (s+2)
        a_c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-2.0, -5.0, -4.0]])
        t = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        doc = {"matrices": {"A": (t @ a_c @ np.linalg.inv(t)).tolist(),
                            "B": (t @ np.array([[0.0], [0.0], [1.0]])).tolist()}}
        path, out = tmp_path / "jordan.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path), "--inverse", "--finite", "1", "--tol-cluster", "1e-5",
                     "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert sorted(s["multiplicity"] for s in report["spectrum"]) == [1, 2]
        entry = report["inverse_original"]["sum"]
        assert entry["residual"] < 1e-12
        gramian = matrix_from(report["gramian_original"]["sum"])
        assert np.max(np.abs(matrix_from(entry) @ gramian - np.eye(3))) < 1e-10


class TestMultiInputSkips:
    def test_inverse_original_skipped(self):
        doc = parse_system({"matrices": {
            "A": [[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]],
            "B": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
        }})
        report = cmd_analyze(doc, inverse=True)
        assert "gramian_original" in report and "inverse_original" not in report
        assert (
            "inverse in original coordinates is only evaluated for single-input systems; skipped"
            in report["warnings"]
        )
        assert not any("single-input" in w for w in cmd_analyze(doc)["warnings"])


class TestInputChecks:
    @pytest.mark.parametrize("flag", ["--tol-root", "--tol-cluster", "--tol-solve"])
    @pytest.mark.parametrize("value", ["nan", "-1", "0"])
    def test_tolerance_flags_checked(self, mirrored_path, capsys, flag, value):
        for command in ("analyze", "roots"):
            assert main([command, mirrored_path, flag, value]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert flag in err and "finite and > 0" in err

    def test_initial_file_must_be_finite(self, stable_poly_path, tmp_path, capsys):
        p0 = tmp_path / "p0.json"
        p0.write_text("[[1, 0, 0], [0, NaN, 0], [0, 0, 1]]")
        code = main(["analyze", stable_poly_path, "--finite", "1", "--initial", str(p0)])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_initial_file_checked_like_the_document(self, stable_poly_path, tmp_path, capsys):
        for rows, message in (([[1, 0], [0, 1]], "3x3"),
                              ([[1, 2, 0], [0, 1, 0], [0, 0, 1]], "symmetric")):
            p0 = tmp_path / "p0.json"
            p0.write_text(json.dumps(rows))
            code = main(["analyze", stable_poly_path, "--finite", "1", "--initial", str(p0)])
            assert code == EXIT_USAGE
            assert message in capsys.readouterr().err

    def test_initial_needs_finite(self, stable_poly_path, tmp_path, capsys):
        p0 = tmp_path / "p0.json"
        p0.write_text(json.dumps([[1, 0], [0, 1]]))
        assert main(["analyze", stable_poly_path, "--initial", str(p0)]) == EXIT_USAGE
        assert "--finite" in capsys.readouterr().err

    def test_x0_must_be_finite(self, stable_poly_path, capsys):
        assert main(["energy", stable_poly_path, "--x0=nan,1,2"]) == EXIT_USAGE
        assert "x0 must be finite" in capsys.readouterr().err

    # the control exists on t <= 0 only, and the table is formed in memory:
    # a window past t = 0 or with more than 10**6 rows is refused
    @pytest.mark.parametrize("series", [["nan", "0", "5"], ["0", "inf", "5"], ["-1", "0", "0"],
                                        ["0", "1000", "3"], ["-1", "0", str(10**15)]])
    def test_time_series_checked(self, stable_poly_path, tmp_path, capsys, series):
        out = tmp_path / "series.csv"
        code = main(["energy", stable_poly_path, "--x0=1,1,2", "--time-series", *series,
                     "--format", "csv", "--output", str(out)])
        assert code == EXIT_USAGE
        assert "time series" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_format_needs_time_series(self, stable_poly_path, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(["energy", stable_poly_path, "--x0=1,1,2", "--format", "csv",
                     "--output", str(out)])
        assert code == EXIT_USAGE
        assert "--time-series" in capsys.readouterr().err
        assert not out.exists()

    def test_roots_takes_no_seed(self, stable_poly_path, capsys):
        assert main(["roots", stable_poly_path, "--seed", "3"]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze"], ["energy", "--x0=1,1,2"]])
    def test_only_verify_takes_a_seed(self, stable_poly_path, capsys, command):
        # analyze and energy draw no random number
        assert main([*command, stable_poly_path, "--seed", "3"]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert main([*command, stable_poly_path]) == EXIT_OK
        assert "seed" not in json.loads(capsys.readouterr().out)


class TestDeterminism:
    def test_analyze_byte_identical(self, example1_path, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert (
                main(
                    ["analyze", example1_path, "--pairs", "--inverse",
                     "--output", str(out)]
                )
                == EXIT_OK
            )
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_shared_parser_leaks_no_state(self, example1_path, tmp_path, capsys):
        # the parser is built once per process; earlier commands, flags and
        # usage errors must not change a later report
        from gramspec.cli import _build_parser

        assert _build_parser() is _build_parser()
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main(["analyze", example1_path, "--output", str(before)]) == EXIT_OK
        assert main(["analyze", example1_path, "--pairs", "--inverse", "--finite", "1"]) == EXIT_OK
        assert main(["verify", example1_path, "--seed", "3"]) == EXIT_OK
        assert main(["energy", example1_path]) == EXIT_USAGE
        assert main(["analyze", example1_path, "--output", str(after)]) == EXIT_OK
        capsys.readouterr()
        assert before.read_bytes() == after.read_bytes()

    def test_report_keys_sorted(self, example1_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["analyze", example1_path, "--output", str(out)])
        capsys.readouterr()
        text = out.read_text()
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text


class TestReportBytes:
    """Every report is the text of json.dumps(report, sort_keys=True, indent=2)."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--pairs", "--inverse", "--finite", "1", "--raw"],
        ["verify"],
        ["energy", "--x0=1,2,3"],
        ["roots"],
    ])
    def test_output_is_json_dumps_text(self, stable_poly_path, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert main(argv + [stable_poly_path, "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        data = out.read_bytes()
        numbers = []
        report = json.loads(data, parse_float=lambda text: numbers.append(text) or float(text))
        assert data == (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        if argv[0] == "analyze":
            assert "-0.0" in numbers and "0.0" in numbers

    # T A_C T^-1 for the companion form A_C of (s + 1)(s + 2)(s + 3) and
    # T = [[1, 1, 0], [0, 1, 0], [1, 0, 1]]
    SIMILAR_A = [[-1.0, 2.0, 1.0], [-1.0, 1.0, 1.0], [0.0, -10.0, -6.0]]

    @pytest.mark.parametrize("doc, argv", [
        # a single-input matrices document: the sums in original coordinates
        ({"matrices": {"A": SIMILAR_A, "B": [[0.0], [0.0], [1.0]]},
          "initial_condition": [[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 1.0]]},
         ["analyze", "--pairs", "--inverse", "--finite", "1"]),
        # a repeated eigenvalue: the Jordan-chain components
        ({"eigenvalues": [[-1.0, 0.0, 2], [-2.0, 1.0, 1], [-2.0, -1.0, 1]]},
         ["analyze", "--inverse", "--finite", "1"]),
        ({"char_poly": [6, 11, 6, 1]},
         ["analyze", "--pairs", "--inverse", "--finite", "1", "--raw"]),
        ({"char_poly": [6, 11, 6, 1]},
         ["analyze", "--pairs", "--finite", "0.5", "--initial", "P0"]),
    ])
    def test_report_kinds_are_json_dumps_text(self, tmp_path, capsys, doc, argv):
        initial = tmp_path / "p0.json"
        initial.write_text(json.dumps([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        argv = [str(initial) if arg == "P0" else arg for arg in argv]
        assert main(argv + [str(path), "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        data = out.read_bytes()
        report = json.loads(data)
        assert data == (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        sums = [block["sum"] for block in report.values()
                if isinstance(block, dict) and "sum" in block]
        n = report["system"]["n"]
        assert len(sums) >= 2 and all(len(s["matrix"]["im"]) == n for s in sums)

    def test_keys_past_nine(self, tmp_path, capsys):
        # degree 12: eigen keys "10".."12" and pair keys such as "1,10" sort
        # as strings, before "2" and "1,2"
        roots = [-0.7 + 1.1j, -0.7 - 1.1j, -1.3 + 0.4j, -1.3 - 0.4j, -2.1 + 2.3j, -2.1 - 2.3j,
                 -2.9, -3.4 + 0.8j, -3.4 - 0.8j, -4.2, -1.9, -4.8]
        path = tmp_path / "degree12.json"
        coeffs = gs.poly_from_roots(np.array(roots)).coeffs.real
        path.write_text(json.dumps({"char_poly": coeffs.tolist()}))
        out = tmp_path / "report.json"
        argv = ["analyze", "--pairs", "--inverse", str(path), "--output", str(out)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        data = out.read_bytes()
        report = json.loads(data)
        assert data == (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        for block in ("gramian", "inverse"):
            assert list(report[block]["eigen"])[:4] == ["1", "10", "11", "12"]
            assert len(report[block]["pair"]) == 144
            assert list(report[block]["pair"])[:5] == ["1,1", "1,10", "1,11", "1,12", "1,2"]


class TestFiniteComponents:
    def test_component_residuals_are_null(self, example1_path, tmp_path, capsys):
        # finite-horizon components carry no identity check of their own;
        # only the sum carries a residual
        out = tmp_path / "report.json"
        assert main(["analyze", example1_path, "--pairs", "--finite", "1",
                     "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        finite = json.loads(out.read_text())["finite"]
        for block in ("eigen", "pair"):
            assert finite[block] and all(e["residual"] is None for e in finite[block].values())
        assert finite["sum"]["residual"] <= 1e-12


class TestMultipleSpectrumChains:
    def test_chains_built_once(self, example5_path, tmp_path, capsys, monkeypatch):
        # the Gramian reuses the chains the command built, so it never
        # recomputes the characteristic polynomial of the companion matrix
        def refuse(a):
            raise AssertionError("char_poly recomputed")

        for module in [m for name, m in sys.modules.items() if name.startswith("gramspec")]:
            if getattr(module, "char_poly", None) is gs.char_poly:
                monkeypatch.setattr(module, "char_poly", refuse)
        doc = parse_system({"eigenvalues": [[1, 0, 2], [2, 0, 3]]})
        cmd_analyze(doc, inverse=True, finite=0.5)
        cmd_verify(doc)


class TestRoots:
    def test_roots_command(self, example1_path, capsys):
        assert main(["roots", example1_path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert [e["re"] for e in report["spectrum"]] == pytest.approx([1.0, 2.0, 3.0])
        assert report["solvability"]["ok"]
        assert len(report["roots"]) == 3

    def test_unsolvable_near_multiple_spectrum(self, tmp_path, capsys):
        # -1 mirrors 1: no eigen structure is admitted, yet roots reports the
        # spectrum, its solvability and the near-multiple warning
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"eigenvalues": [[-1, 0, 1], [-1.0000001, 0, 1], [1, 0, 1]]}))
        assert main(["roots", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert not report["solvability"]["ok"]
        assert any("close to a multiple eigenvalue" in w for w in report["warnings"])


class TestCollisionWarning:
    """In a real system (i, j) and its mirror (p(j), p(i)), p the conjugate
    partner, always share their exponent; only other collisions are warned
    about."""

    @staticmethod
    def collision_warnings(report):
        return [w for w in report["warnings"] if "collide" in w]

    def test_mirror_pairs_are_not_reported(self):
        doc = parse_system({"eigenvalues": [[-1, 0, 1], [-2, 1, 1], [-2, -1, 1]]})
        assert len(gs.exponent_collisions(doc.spectrum)) == 3
        assert self.collision_warnings(cmd_analyze(doc, pairs=True)) == []

    def test_arithmetic_spectrum_still_warns(self):
        # 1 + 3 = 2 + 2 in {1, 2, 3}
        report = cmd_analyze(parse_system({"char_poly": [-6, 11, -6, 1]}), pairs=True)
        (warning,) = self.collision_warnings(report)
        assert "(1,3 ~ 2,2; 2,2 ~ 3,1)" in warning


    def test_warning_order_under_every_command(self, tmp_path, capsys):
        # the collision warning follows the resolve notes and precedes the
        # command's own warnings, whenever the scan runs
        sign = SIGN_CONVENTION_NOTE
        collide = ("pair-component exponents collide (1,3 ~ 2,2; 2,2 ~ 3,1); pair components "
                   "are not unique, their sums are")
        path = tmp_path / "example1.json"
        path.write_text(json.dumps({"char_poly": [-6, 11, -6, 1]}))
        two_inputs = tmp_path / "two_inputs.json"
        two_inputs.write_text(json.dumps({"matrices": {
            "A": [[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]],
            "B": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
        }}))
        expected = {
            ("analyze", "--pairs", "--inverse", "--finite", "1", path): [sign, collide],
            ("verify", path): [sign, collide],
            ("energy", "--x0=1,0,0", path): [
                sign, collide, "spectrum is not strictly stable: the quadratic forms are "
                "reported but do not measure control energy"],
            ("roots", path): [sign, collide],
            ("analyze", "--inverse", two_inputs): [
                sign, collide, "inverse in original coordinates is only evaluated for "
                "single-input systems; skipped"],
        }
        for argv, warnings in expected.items():
            assert main([str(arg) for arg in argv]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["warnings"] == warnings, argv


class TestWorkOnce:
    """Each command evaluates one eigen structure and passes it to every
    builder; only analyze's finite horizon adds one extended structure, made
    from the double one without a second solvability scan.  e^{A^T t} is
    formed once per structure and horizon, and analyze builds no residue
    stack: every finite term is rank one in the structure's factors.  The
    inverse eigen set is built once per structure: the 80-bit finite
    inverse forms its own, with the columns
    G(t) J y_i, only for a G(t) that passes (the boundary terms of an
    initial condition need no set), and analyze's inverse block builds the
    double one.  A matrices document's
    characteristic polynomial and controllability check are computed once
    per command, analyze evaluates the finite components once per
    decomposition, and the Gramian eigen parts are built once per structure.
    An e^(A t) past the double range is refused before any 80-bit work.
    ``counts["sets"]`` counts the rank-one sets that
    SpectralComponentSet.rank_one makes, keyed by the builder that asks for
    one: infinite_subgramians, inverse_eigenparts, infinite_pair_subgramians,
    inverse_pair_parts or homogeneous_subgramians.  ``counts["residues"]`` lists the dtype of each
    residue stack built."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import gramspec.companion as companion
        import gramspec.gramians as gramians

        counts = {"complex128": 0, "extended": 0, "mpmath": 0, "polish": 0, "solvability": 0,
                  "expm": [], "char_poly": 0,
                  "require_controllable": 0, "finite_components": 0,
                  "sets": collections.Counter(), "structures": [], "residues": []}
        evaluate, polish, horizon = (
            companion._evaluate, companion._newton_polish, gramians.horizon
        )
        rank_one = gramians.SpectralComponentSet.rank_one.__func__

        def counted_rank_one(cls, *args):
            counts["sets"][sys._getframe(1).f_code.co_name] += 1
            return rank_one(cls, *args)

        def counted_evaluate(p, spec, values, *args):
            kind = {np.dtype(complex): "complex128", np.dtype(np.clongdouble): "extended"}
            counts[kind.get(values.dtype, "mpmath")] += 1
            counts["structures"].append(evaluate(p, spec, values, *args))
            return counts["structures"][-1]

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        def counted_polish(p, roots):  # the 80-bit polish of an extended structure
            counts["polish"] += roots.dtype == np.clongdouble
            return polish(p, roots)

        def counted_horizon(es, t):
            counts["expm"].append((es.eigenvalues.dtype, t))
            return horizon(es, t)

        def counted_residues(es):
            counts["residues"].append(es.eigenvalues.dtype)
            return residues(es)

        residues = companion.EigenStructure.residues.func
        monkeypatch.setattr(companion.EigenStructure, "residues", property(counted_residues))
        monkeypatch.setattr(companion, "_evaluate", counted_evaluate)
        monkeypatch.setattr(gramians.SpectralComponentSet, "rank_one",
                            classmethod(counted_rank_one))
        for original, replacement in [
            (polish, counted_polish),
            (companion.check_solvability, counted("solvability", companion.check_solvability)),
            (horizon, counted_horizon),
            (gramians.finite_subgramians,
             counted("finite_components", gramians.finite_subgramians)),
            (gramians.finite_pair_subgramians,
             counted("finite_components", gramians.finite_pair_subgramians)),
            (gs.char_poly, counted("char_poly", gs.char_poly)),
            (companion.require_controllable,
             counted("require_controllable", companion.require_controllable)),
        ]:
            for module in [m for name, m in sys.modules.items() if name.startswith("gramspec")]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, replacement)
        return counts

    def test_analyze_with_extended_retry(self, tmp_path, capsys, counts):
        p0 = np.random.default_rng(1002).standard_normal((8, 8))
        path = tmp_path / "ladder8.json"
        path.write_text(json.dumps(
            {"char_poly": LADDER8_COEFFS, "initial_condition": (0.5 * (p0 + p0.T)).tolist()}
        ))
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        assert code == EXIT_OK
        assert "extended precision" not in capsys.readouterr().out
        assert counts["complex128"] == 1 and counts["extended"] == 1 and counts["mpmath"] == 0
        assert counts["polish"] == 1
        assert counts["solvability"] == 1
        extended = np.dtype(np.clongdouble)
        # one 80-bit horizon at t = 1 for every finite block, then the
        # homogeneous set's 80-bit horizon at t = 0 for its initial value
        assert counts["expm"] == [(extended, 1.0), (extended, 0.0)]
        # the finite Gramian once, on that horizon (the report's finite block
        # and the product residual's P(t)), and the finite pair set
        assert counts["finite_components"] == 2
        # the Gramian eigen parts: once per structure, the 80-bit ones for
        # the finite Gramian and the double ones for the infinite blocks; the
        # inverse eigen parts: the 80-bit finite inverse's, with the columns
        # G(1) J y_i, once G(1) passes (its boundary terms of P_0 are rank
        # one in J y_i and need no set, where they needed the set before the
        # check), then analyze's inverse block; each pair set once; and the
        # homogeneous sets, rank one in x_i, at t = 1 for the report and at
        # t = 0 for the initial-value defect
        assert counts["sets"] == {"infinite_subgramians": 2, "inverse_eigenparts": 2,
                                  "infinite_pair_subgramians": 1, "inverse_pair_parts": 1,
                                  "homogeneous_subgramians": 2}

    def test_analyze_with_extended_retry_without_initial_condition(self, tmp_path, capsys,
                                                                  counts):
        # with P_0 = 0 the 80-bit finite inverse forms its set after G(1)
        # passes, and the inverse block builds the double one
        path = tmp_path / "ladder8.json"
        path.write_text(json.dumps({"char_poly": LADDER8_COEFFS}))
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        assert code == EXIT_OK
        assert "extended precision" not in capsys.readouterr().out
        assert counts["extended"] == 1
        assert counts["sets"]["inverse_eigenparts"] == 2

    @pytest.mark.parametrize("initial", [False, True])
    def test_analyze_builds_no_residue_stack(self, tmp_path, capsys, counts, initial):
        # admission checks N'(lambda_i) on the double structure, and the
        # horizon, finite, homogeneous and finite-inverse terms read the
        # factors x_i, y_i and N'(lambda_i): no residue stack in either
        # precision, with or without an initial condition
        doc = {"char_poly": LADDER8_COEFFS}
        if initial:
            p0 = np.random.default_rng(1002).standard_normal((8, 8))
            doc["initial_condition"] = (0.5 * (p0 + p0.T)).tolist()
        path = tmp_path / "ladder8.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert counts["extended"] == 1 and counts["sets"]["inverse_eigenparts"] == 2
        assert counts["residues"] == []

    def test_refused_finite_inverse_forms_no_inverse_set(self, tmp_path, capsys, counts,
                                                         monkeypatch):
        # the degree-16 document of TestRenderLast: G(1) is refused by the
        # 80-bit finite inverse, which runs before any set that only the
        # report reads, so no Gramian, inverse or finite set is built and the
        # pair exponents are never scanned for collisions.  The finite
        # inverse's own inverse eigen set comes only after G(1) passes, and
        # no residue stack is built in either precision
        self.refused_ladder16(tmp_path, capsys, counts, monkeypatch, initial=False)

    def test_refused_finite_inverse_with_initial_condition_forms_no_inverse_set(
            self, tmp_path, capsys, counts, monkeypatch):
        # the boundary terms of P_0 are rank one in J y_i and need no set, so
        # a refused G(1) builds none with an initial condition either
        self.refused_ladder16(tmp_path, capsys, counts, monkeypatch, initial=True)

    @staticmethod
    def refused_ladder16(tmp_path, capsys, counts, monkeypatch, initial):
        import gramspec.gramians as gramians

        scans = []
        scan = gramians.exponent_collisions
        monkeypatch.setattr(gramians, "exponent_collisions",
                            lambda *args: scans.append(1) or scan(*args))
        coeffs = gs.poly_from_roots(-0.5 - 0.3 * np.arange(16)).coeffs.real
        doc = {"char_poly": coeffs.tolist()}
        if initial:
            doc["initial_condition"] = np.eye(16).tolist()
        path = tmp_path / "ladder16.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        assert code == EXIT_CONDITIONING
        assert "normalization matrix G(t) is numerically singular" in capsys.readouterr().err
        assert counts["extended"] == 1
        assert not counts["sets"] and counts["finite_components"] == 0
        assert counts["residues"] == []
        assert scans == []
        # nor does the refused finite inverse evaluate N(-lambda) in 80-bit,
        # unless the boundary terms of P_0 need it
        assert counts["solvability"] == 1
        extended = counts["structures"][-1]
        assert extended.extended and ("mirrors" in extended.__dict__) == initial

    def test_exponential_out_of_range_refused_before_retry(self, example1_path, capsys,
                                                           counts):
        # e^(A t) already leaves the double range: refused as without
        # --inverse, and no 80-bit root is polished
        code = main(["analyze", "--inverse", "--finite", "400", example1_path])
        assert code == EXIT_CONDITIONING
        assert capsys.readouterr().err == (
            "conditioning error: e^(A t) leaves the double range at t = 400.0\n")
        assert counts["polish"] == 0 and counts["extended"] == 0
        assert counts["sets"]["infinite_subgramians"] == 0

    def test_condition_cap_follows_format_bits(self):
        # the cap of G(t) is keyed by the significand bits of the horizon's
        # format: 53 (complex128, and a long double that is double, as on
        # macOS arm64 and Windows) refuses the degree-8 G(1) at 1e12, and
        # 64 (the 80-bit to_extended() horizon) admits it under 1e17
        from gramspec.inverse import CONDITION_CAPS

        poly = gs.Polynomial(LADDER8_COEFFS)
        es = gs.eigen_structure(poly, gs.cluster(gs.find_roots(poly)))
        p0 = gs.InitialCondition(np.zeros((8, 8)))
        assert CONDITION_CAPS == {53: 1e12, 64: 1e17}
        with pytest.raises(gs.ConditioningError,
                           match=r"^normalization matrix G\(t\) is numerically singular at "
                                 r"t = 1\.0") as refusal:
            gs.finite_inverse(gs.horizon(es, 1.0), p0)
        assert refusal.value.condition > 1e12
        condition, inv_t = gs.finite_inverse(gs.horizon(es.to_extended(), 1.0), p0)
        assert 1e12 < condition <= 1e17
        assert inv_t.stack.dtype == np.clongdouble

    def test_verify(self, example1_path, capsys, counts):
        assert main(["verify", example1_path]) == EXIT_OK
        assert counts["complex128"] == 1 and counts["extended"] == counts["mpmath"] == 0
        assert counts["solvability"] == 1
        assert counts["expm"] == [(np.dtype(complex), 1.0), (np.dtype(complex), 0.0)]
        assert counts["sets"]["infinite_subgramians"] == 1

    def test_energy_time_series(self, stable_poly_path, tmp_path, capsys, counts):
        out = tmp_path / "series.csv"
        code = main(["energy", stable_poly_path, "--x0=1,1,2", "--time-series", "-5", "0", "11",
                     "--format", "csv", "--output", str(out)])
        assert code == EXIT_OK
        assert "quadrature" in capsys.readouterr().err
        assert counts["complex128"] == 1 and counts["extended"] == counts["mpmath"] == 0
        assert counts["solvability"] == 1
        assert counts["sets"]["inverse_eigenparts"] == 1

    @pytest.fixture
    def matrices_path(self, tmp_path):
        a_c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
        t = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [1.0, 0.0, 1.0]])
        path = tmp_path / "matrices.json"
        path.write_text(json.dumps({
            "matrices": {"A": (t @ a_c @ np.linalg.inv(t)).tolist(),
                         "B": (t @ np.array([[0.0], [0.0], [1.0]])).tolist()},
            "initial_condition": np.eye(3).tolist(),
        }))
        return str(path)

    def test_matrices_document_with_initial_condition(self, matrices_path, tmp_path, capsys,
                                                      counts):
        # two inverse eigen sets: the 80-bit one the finite inverse forms
        # once G(1) passes (the boundary terms of P_0 need none), and the
        # double one of the inverse block, which the original-coordinate
        # Riccati lift reuses.  The Gramian eigen parts are built once per
        # structure
        out = tmp_path / "report.json"
        code = main(["analyze", matrices_path, "--pairs", "--inverse", "--finite", "1",
                     "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert "inverse_original" in report and "homogeneous_sum" in report["finite"]
        assert counts["sets"]["inverse_eigenparts"] == 2
        assert counts["char_poly"] == 1 and counts["require_controllable"] == 1
        assert counts["sets"]["infinite_subgramians"] == 2

    def test_finite_inverse_set_without_initial_condition(self, stable_poly_path, capsys,
                                                           counts):
        # with P_0 = 0 the 80-bit finite inverse forms its set once G(t)
        # passes, and the report's inverse block builds the double one
        assert main(["analyze", "--inverse", "--finite", "1", stable_poly_path]) == EXIT_OK
        capsys.readouterr()
        assert counts["extended"] == 1
        assert counts["sets"]["inverse_eigenparts"] == 2

    def test_verify_matrices_document_with_initial_condition(self, matrices_path, capsys,
                                                             counts):
        assert main(["verify", matrices_path]) == EXIT_OK
        capsys.readouterr()
        assert counts["char_poly"] == 1 and counts["require_controllable"] == 1


class TestRenderLast:
    @pytest.fixture
    def rendered(self, monkeypatch):
        """A list that grows by one for each MatrixEntry or MatrixBlock cli builds."""
        import gramspec.cli as cli

        rendered = []
        for name in ("MatrixEntry", "MatrixBlock"):
            monkeypatch.setattr(cli, name, lambda *args, cls=getattr(cli, name):
                                rendered.append(1) or cls(*args))
        return rendered

    def test_refused_document_renders_nothing(self, tmp_path, capsys, monkeypatch, rendered):
        # degree 16: the finite inverse is refused at t = 1 even in extended
        # precision.  The pair sets are built only after every builder that
        # can refuse the document, so none of the three pair builders runs,
        # and no matrix is rendered.  cli imports the inverse builders when
        # analyze runs, so that one is patched in its own module
        import gramspec.cli as cli
        import gramspec.inverse as inverse

        pair_builds = []
        for module, name in ((cli, "infinite_pair_subgramians"), (inverse, "inverse_pair_parts"),
                             (cli, "finite_pair_subgramians")):
            builder = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, builder=builder:
                                pair_builds.append(name) or builder(*args))
        coeffs = gs.poly_from_roots(-0.5 - 0.3 * np.arange(16)).coeffs.real
        path = tmp_path / "ladder16.json"
        path.write_text(json.dumps({"char_poly": coeffs.tolist()}))
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        assert code == EXIT_CONDITIONING
        assert "normalization matrix" in capsys.readouterr().err
        assert rendered == []
        assert pair_builds == []
        # the same patches see all three builders on a document that passes
        path.write_text(json.dumps({"char_poly": [-6.0, 11.0, -6.0, 1.0]}))
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        assert code == EXIT_OK
        capsys.readouterr()
        assert sorted(pair_builds) == ["finite_pair_subgramians", "infinite_pair_subgramians",
                                       "inverse_pair_parts"]

    @pytest.mark.parametrize("doc, argv, line", [
        # without --finite the inverse eigen set is built only for the
        # report, yet its refusal comes before the Gramian block is rendered
        ({"eigenvalues": [[-1e-7, 0, 1], [-100, 0, 1], [-200, 0, 1], [-300, 0, 1]]},
         ["--inverse"], "eigenvalue (-1e-07+0j) at the origin"),
        # P(t) past the double range, without the finite inverse
        ({"char_poly": [-6, 11, -6, 1]}, ["--finite", "400"],
         "e^(A t) leaves the double range at t = 400.0"),
    ], ids=["origin", "double_range"])
    def test_refused_without_finite_inverse_renders_nothing(self, tmp_path, capsys, rendered,
                                                            doc, argv, line):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", *argv, str(path)]) == EXIT_CONDITIONING
        err = capsys.readouterr().err
        assert line in err and err.count("\n") == 1
        assert rendered == []


class TestImportFootprint:
    @staticmethod
    def loaded_after(script: str, modules=("scipy", "mpmath", "fractions", "decimal")) -> str:
        """The sorted list, as printed, of the ``modules`` (by default the
        slow-to-import top-level ones) that ``script`` loads in a fresh
        interpreter."""
        script = (
            f"import sys\n{script}"
            "print(sorted(({m.split('.')[0] for m in sys.modules} | set(sys.modules))"
            f" & {set(modules)!r}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    def test_commands_load_no_scipy_or_mpmath(self, example1_path):
        # scipy and mpmath each cost a large share of a CLI process's start,
        # and the package imports neither; fractions and decimal cost a few
        # milliseconds each
        script = (
            "import sys\n"
            "from gramspec.cli import main\n"
            f"main(['analyze', '--pairs', '--inverse', '--finite', '1', {example1_path!r}])\n"
            f"main(['verify', {example1_path!r}])\n"
        )
        assert self.loaded_after(script) == "[]"

    def test_cli_import_loads_no_energy_or_dataclasses(self):
        # the records are plain classes, and only energy and verify run energy
        loaded = self.loaded_after("import gramspec.cli\n", ["gramspec.energy", "dataclasses"])
        assert loaded == "[]"

    def test_commands_load_only_the_modules_they_run(self, example1_path, stable_poly_path,
                                                      tmp_path):
        # roots loads none of inverse, oracle and energy; no command loads
        # csv, not even to write an energy time-series table
        series = ["--time-series", "-1", "0", "3", "--format", "csv",
                  "--output", str(tmp_path / "series.csv")]
        commands = {
            "roots": ["roots", example1_path],
            "analyze": ["analyze", "--pairs", "--inverse", "--finite", "1", example1_path],
            "energy": ["energy", "--x0=1,0,0", example1_path],
            "energy_series": ["energy", "--x0=1,1,2", *series, stable_poly_path],
            "verify": ["verify", example1_path],
        }
        watched = ["gramspec.inverse", "gramspec.oracle", "gramspec.energy", "csv"]
        loaded = {}
        for name, argv in commands.items():
            script = (
                "import contextlib, io\n"
                "from gramspec.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({argv!r}) == 0\n"
            )
            loaded[name] = self.loaded_after(script, watched)
        assert loaded == {
            "roots": "[]",
            "analyze": "['gramspec.inverse', 'gramspec.oracle']",
            "energy": "['gramspec.energy', 'gramspec.inverse']",
            "energy_series": "['gramspec.energy', 'gramspec.inverse']",
            "verify": "['gramspec.energy', 'gramspec.inverse', 'gramspec.oracle']",
        }

    def test_extended_retry_loads_no_mpmath(self, tmp_path):
        # the degree-8 document of TestWorkOnce.test_analyze_with_extended_retry:
        # its finite inverse, whose G(1) double would refuse, is evaluated in
        # 80-bit precision from roots polished on Python ints
        path = tmp_path / "ladder8.json"
        path.write_text(json.dumps({"char_poly": LADDER8_COEFFS}))
        script = (
            "import contextlib, io, sys\n"
            "from gramspec.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = main(['analyze', '--pairs', '--inverse', '--finite', '1', {str(path)!r}])\n"
            "assert code == 0 and 'finite_inverse' in out.getvalue(), code\n"
        )
        assert self.loaded_after(script) == "[]"

    def test_runs_without_mpmath(self, tmp_path):
        # numpy is the one runtime dependency: with mpmath unimportable, the
        # extended structure still forms its exact totals and the degree-8
        # 80-bit finite inverse still runs
        path = tmp_path / "ladder8.json"
        path.write_text(json.dumps({"char_poly": LADDER8_COEFFS}))
        script = (
            "import contextlib, io, sys\n"
            "sys.modules['mpmath'] = None\n"
            "import numpy as np\n"
            "import gramspec as gs\n"
            "from gramspec.cli import main\n"
            f"poly = gs.Polynomial({LADDER8_COEFFS!r})\n"
            "es = gs.eigen_structure(poly, gs.cluster(gs.find_roots(poly))).to_extended()\n"
            "gramian, inverse = es.exact_totals\n"
            "assert gramian.dtype == inverse.dtype == np.clongdouble\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = main(['analyze', '--pairs', '--inverse', '--finite', '1', {str(path)!r}])\n"
            "assert code == 0 and 'finite_inverse' in out.getvalue(), code\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=child_env(), timeout=120)
        assert result.returncode == 0, result.stderr


def _console_script() -> str:
    """What the installed ``gramspec`` script runs: its pyproject entry point."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, name = re.search(r'^gramspec = "(.+)"$', pyproject, re.M).group(1).split(":")
    return f"import sys; from {module} import {name}; sys.exit({name}())"


class TestProcessEntry:
    """``python -m gramspec.cli`` and the ``gramspec`` console script run
    ``console_main``: main's output and status, then a frozen heap."""

    ENTRIES = {"module": ["-m", "gramspec.cli"], "console": ["-c", _console_script()]}

    def test_console_script_is_console_main(self):
        assert self.ENTRIES["console"][1] == (
            "import sys; from gramspec.cli import console_main; sys.exit(console_main())")

    @pytest.fixture
    def ladder16_path(self, tmp_path):
        # the degree-16 document of TestRenderLast: its finite inverse is refused
        coeffs = gs.poly_from_roots(-0.5 - 0.3 * np.arange(16)).coeffs.real
        path = tmp_path / "ladder16.json"
        path.write_text(json.dumps({"char_poly": coeffs.tolist()}))
        return str(path)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("document, status", [("example1_path", EXIT_OK),
                                                  ("ladder16_path", EXIT_CONDITIONING)])
    def test_matches_in_process_main(self, request, capsys, entry, document, status):
        argv = ["analyze", request.getfixturevalue(document), "--pairs", "--inverse",
                "--finite", "1"]
        assert main(argv) == status
        expected = capsys.readouterr()
        result = subprocess.run([sys.executable, *self.ENTRIES[entry], *argv],
                                capture_output=True, env=child_env(), timeout=120)
        assert result.returncode == status, result.stderr
        assert result.stdout == expected.out.encode()
        assert result.stderr == expected.err.encode()

    def test_main_leaves_the_collector_alone(self, example1_path, capsys):
        frozen = gc.get_freeze_count()
        assert main(["verify", example1_path]) == EXIT_OK
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen

    def test_freezes_after_main(self, monkeypatch):
        import gramspec.cli as cli

        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_CONDITIONING)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        assert cli.console_main() == EXIT_CONDITIONING
        assert calls == ["main", "freeze"]

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout(self, example1_path, unbuffered):
        # the read end closes before the child, still importing, writes its
        # report; buffered, the short report fails only at the flush
        with subprocess.Popen(
            [sys.executable, "-m", "gramspec.cli", "roots", example1_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == EXIT_USAGE
        assert err == b""
