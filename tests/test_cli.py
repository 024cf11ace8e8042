import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import (
    EXIT_CONDITIONING,
    EXIT_OK,
    EXIT_SOLVABILITY,
    EXIT_USAGE,
    cmd_analyze,
    cmd_energy,
    cmd_verify,
    main,
)
from gramspec.document import parse_system


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
        reference = gs.solve_lyapunov_dense(a, b @ b.T).matrix
        assert np.max(np.abs(lifted - reference)) < 1e-8
        assert report["gramian_original"]["sum"]["residual"] < 1e-8
        inv_orig = matrix_from(report["inverse_original"]["sum"]).real
        assert np.max(np.abs(inv_orig - np.linalg.inv(reference))) < 1e-6

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

    def test_solvability_exit(self, tmp_path, capsys):
        path = tmp_path / "imag.json"
        path.write_text(json.dumps({"eigenvalues": [[0, 1, 1], [0, -1, 1]]}))
        assert main(["analyze", str(path)]) == EXIT_SOLVABILITY
        err = capsys.readouterr().err
        assert "solvability" in err and "(0, 1)" in err

    def test_conditioning_exit(self, tmp_path, capsys):
        path = tmp_path / "uncontrollable.json"
        path.write_text(
            json.dumps({"matrices": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]]}})
        )
        assert main(["analyze", str(path)]) == EXIT_CONDITIONING
        capsys.readouterr()

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


class TestEnergyCommand:
    def test_example_energy(self):
        doc = parse_system({"char_poly": [-6, 11, -6, 1]})
        report, csv_text = cmd_energy(doc, [0.0, 0.0, 1.0])
        assert abs(report["energy"]["total"] - (-12.0)) < 1e-8
        assert np.allclose(report["energy"]["linear"], [-12.0, 60.0, -60.0], atol=1e-7)
        assert report["energy"]["interpretation_valid"] is False
        assert csv_text is None

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
        report, csv_text = cmd_energy(doc, [0.0, 0.0, 1.0], time_series=(-1.0, 0.0, 10))
        assert csv_text is None
        assert any("time series skipped" in w for w in report["warnings"])


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
        # degree 8: G(1) is numerically singular in double precision, so the
        # finite inverse needs the extended-precision retry; an initial
        # condition must not switch that retry off
        coeffs = [2282.276472599614, 7061.767882988239, 8218.473821798005,
                  5356.9141176459, 2307.2249191441088, 685.287995824171,
                  136.87347552892803, 16.96216946824925, 1.0]
        p0 = np.random.default_rng(1002).standard_normal((8, 8))
        path = tmp_path / "ladder8.json"
        path.write_text(
            json.dumps({"char_poly": coeffs, "initial_condition": (0.5 * (p0 + p0.T)).tolist()})
        )
        out = tmp_path / "report.json"
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1",
                     "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert any("extended precision" in w for w in report["warnings"])
        assert report["finite_inverse"]["normalization_condition"] > 1e12
        assert "homogeneous_sum" in report["finite"]


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

    @pytest.mark.parametrize("series", [["nan", "0", "5"], ["0", "inf", "5"], ["-1", "0", "0"]])
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


class TestWorkOnce:
    """Each command evaluates one eigen structure and passes it to every
    builder; only the finite-inverse retry adds one extended structure.  No
    command builds the homogeneous pair half, each finite decomposition
    evaluates e^{A^T t} once per call, and the inverse eigen set is built
    once and passed on.  A matrices document's characteristic polynomial and
    controllability check are computed once per command, and analyze
    evaluates the finite components once per decomposition."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import gramspec.companion as companion
        import gramspec.gramians as gramians
        import gramspec.inverse as inverse

        counts = {"complex128": 0, "extended": 0, "mpmath": 0, "polish": 0, "solvability": 0,
                  "expm": 0, "homogeneous_pairs": 0, "inverse_eigenparts": 0,
                  "char_poly": 0, "require_controllable": 0, "finite_components": 0}
        evaluate, polish, expm_factory = (
            companion._evaluate, companion._mp_polished_roots, gramians._expm_transpose_simple
        )

        def counted_evaluate(p, spec, values, *args):
            kind = {np.dtype(complex): "complex128", np.dtype(np.clongdouble): "extended"}
            counts[kind.get(values.dtype, "mpmath")] += 1
            return evaluate(p, spec, values, *args)

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        def counted_expm_factory(*args):
            return counted("expm", expm_factory(*args))

        monkeypatch.setattr(companion, "_evaluate", counted_evaluate)
        monkeypatch.setattr(gramians.FiniteGramianDecomposition, "components", counted(
            "finite_components", gramians.FiniteGramianDecomposition.components))
        monkeypatch.setattr(companion, "_mp_polished_roots", counted("polish", polish))
        for original, replacement in [
            (companion.check_solvability, counted("solvability", companion.check_solvability)),
            (expm_factory, counted_expm_factory),
            (gramians.homogeneous_pair_subgramians,
             counted("homogeneous_pairs", gramians.homogeneous_pair_subgramians)),
            (inverse.inverse_eigenparts,
             counted("inverse_eigenparts", inverse.inverse_eigenparts)),
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
        coeffs = [2282.276472599614, 7061.767882988239, 8218.473821798005,
                  5356.9141176459, 2307.2249191441088, 685.287995824171,
                  136.87347552892803, 16.96216946824925, 1.0]
        p0 = np.random.default_rng(1002).standard_normal((8, 8))
        path = tmp_path / "ladder8.json"
        path.write_text(
            json.dumps({"char_poly": coeffs, "initial_condition": (0.5 * (p0 + p0.T)).tolist()})
        )
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        assert code == EXIT_OK
        assert "extended precision" in capsys.readouterr().out
        assert counts["complex128"] == 1 and counts["extended"] == 1 and counts["mpmath"] == 0
        assert counts["polish"] == 1
        assert counts["solvability"] <= 2
        assert counts["homogeneous_pairs"] == 0
        assert counts["expm"] <= 8
        assert counts["finite_components"] == 3

    def test_verify(self, example1_path, capsys, counts):
        assert main(["verify", example1_path]) == EXIT_OK
        assert counts["complex128"] == 1 and counts["extended"] == counts["mpmath"] == 0
        assert counts["solvability"] <= 2
        assert counts["homogeneous_pairs"] == 0
        assert counts["expm"] <= 2

    def test_energy_time_series(self, stable_poly_path, tmp_path, capsys, counts):
        out = tmp_path / "series.csv"
        code = main(["energy", stable_poly_path, "--x0=1,1,2", "--time-series", "-5", "0", "11",
                     "--format", "csv", "--output", str(out)])
        assert code == EXIT_OK
        assert "quadrature" in capsys.readouterr().err
        assert counts["complex128"] == 1 and counts["extended"] == counts["mpmath"] == 0
        assert counts["solvability"] <= 2
        assert counts["inverse_eigenparts"] == 1

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
        # the original-coordinate Riccati lift reuses the companion inverse set
        out = tmp_path / "report.json"
        code = main(["analyze", matrices_path, "--pairs", "--inverse", "--finite", "1",
                     "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert "inverse_original" in report and "homogeneous_sum" in report["finite"]
        assert counts["inverse_eigenparts"] == 1
        assert counts["homogeneous_pairs"] == 0
        assert counts["char_poly"] == 1 and counts["require_controllable"] == 1

    def test_verify_matrices_document_with_initial_condition(self, matrices_path, capsys,
                                                             counts):
        assert main(["verify", matrices_path]) == EXIT_OK
        capsys.readouterr()
        assert counts["char_poly"] == 1 and counts["require_controllable"] == 1


class TestRenderLast:
    def test_refused_document_renders_nothing(self, tmp_path, capsys, monkeypatch):
        # degree 16: the finite inverse is refused at t = 1 even in extended
        # precision, after every other builder has run; no matrix is rendered
        import gramspec.cli as cli

        rendered = []
        matrix_json = cli._matrix_json
        monkeypatch.setattr(cli, "_matrix_json", lambda m: rendered.append(1) or matrix_json(m))
        coeffs = gs.poly_from_roots(-0.5 - 0.3 * np.arange(16)).coeffs.real
        path = tmp_path / "ladder16.json"
        path.write_text(json.dumps({"char_poly": coeffs.tolist()}))
        code = main(["analyze", str(path), "--pairs", "--inverse", "--finite", "1"])
        assert code == EXIT_CONDITIONING
        assert "normalization matrix" in capsys.readouterr().err
        assert rendered == []


class TestImportFootprint:
    def test_commands_load_no_scipy_or_mpmath(self, example1_path):
        # scipy and mpmath each cost a large share of a CLI process's start;
        # only the oracle's reference exponential and the extended path use them
        script = (
            "import sys\n"
            "from gramspec.cli import main\n"
            f"main(['analyze', '--pairs', '--inverse', '--finite', '1', {example1_path!r}])\n"
            f"main(['verify', {example1_path!r}])\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))\n"
        )
        src = str(Path(gs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
