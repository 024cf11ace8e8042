"""Self-tests of the benchmark's generator, reference, checker and tracer.

    python3 bench/selftest.py        (from the root of a gramspec checkout)

Kept out of the package test suite on purpose: the file name does not match
pytest's test_*.py pattern.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

import numpy as np
from mpmath import mp

import check
import generate
import reference
import spans

ROOT = os.getcwd()


def as_float(m) -> np.ndarray:
    return np.array([[float(mp.re(m[i, j])) for j in range(m.cols)] for i in range(m.rows)])


def run_cli(argv: list, doc: dict):
    """Run `python -m gramspec.cli` on a document; (exit code, report text)."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        doc_path = os.path.join(tmp, "doc.json")
        out_path = os.path.join(tmp, "report.json")
        with open(doc_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        code = subprocess.run([sys.executable, "-m", "gramspec.cli", *argv, doc_path,
                               "--output", out_path], env=env, capture_output=True).returncode
        with open(out_path, encoding="utf-8") as handle:
            return code, handle.read()


class ReferenceTest(unittest.TestCase):
    def test_scalar_system_gramian_is_one_half(self):
        matrices = {"matrices": {"A": [[-1.0]], "B": [[1.0]]}}
        for doc in (matrices, {"char_poly": [1.0, 1.0]}):
            ref = reference.build_reference(doc, horizon=1.0)
            self.assertAlmostEqual(float(ref.matrices["gramian.sum"][0, 0]), 0.5, places=15)
            self.assertAlmostEqual(float(ref.matrices["inverse.sum"][0, 0]), 2.0, places=14)
            # finite Gramian of dx/dt = -x + u at t = 1 is (1 - e^{-2}) / 2
            self.assertAlmostEqual(float(ref.matrices["finite.sum"][0, 0]),
                                   (1 - np.exp(-2.0)) / 2, places=15)
        ref = reference.build_reference(matrices)
        self.assertAlmostEqual(float(ref.matrices["gramian_original.sum"][0, 0]), 0.5, places=15)

    def test_closed_form_for_eigenvalues_1_2_3(self):
        gramian = (-1 / 120) * np.array([[1, 0, -1], [0, 1, 0], [-1, 0, 11]])
        inverse = -12.0 * np.array([[11, 0, 1], [0, 10, 0], [1, 0, 1]])
        for doc in ({"char_poly": [-6.0, 11.0, -6.0, 1.0]},
                    {"eigenvalues": [[1.0, 0.0, 1], [2.0, 0.0, 1], [3.0, 0.0, 1]]}):
            ref = reference.build_reference(doc)
            np.testing.assert_allclose(as_float(ref.matrices["gramian.sum"]), gramian,
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(as_float(ref.matrices["inverse.sum"]), inverse,
                                       rtol=0, atol=1e-12)

    def test_smith_iteration_agrees_with_closed_form(self):
        roots = [mp.mpc(-1), mp.mpc(-0.5, 2), mp.mpc(-0.5, -2), mp.mpc(-3)]
        with mp.workdps(reference.DPS):
            a, b = reference.companion(reference.poly_from_roots(roots))
            closed, _, _ = reference.lyapunov_closed_form(roots)
            smith = reference.lyapunov_smith(a, b * b.T)
            self.assertLess(mp.mnorm(closed - smith, "f") / mp.mnorm(closed, "f"), 1e-40)

    def test_repeated_eigenvalues_are_certified(self):
        doc = {"eigenvalues": [[-1.0, 0.0, 3], [-2.0, 1.0, 2], [-2.0, -1.0, 2]]}
        ref = reference.build_reference(doc, horizon=1.0)
        self.assertLess(ref.certificate, reference.CERT_TOL)
        self.assertIn("finite.sum", ref.matrices)


class CheckerTest(unittest.TestCase):
    def test_perturbed_report_is_flagged(self):
        item = {"doc": {"schema": 1, "char_poly": [-6.0, 11.0, -6.0, 1.0]},
                "argv": ["analyze", "--inverse"], "n": 3, "kind": "char_poly"}
        ref = reference.build_reference(item["doc"])
        code, text = run_cli(item["argv"], item["doc"])
        verdict = check.judge(item, ref, code, text)
        self.assertTrue(verdict.passed, verdict.reason)
        report = json.loads(text)
        report["gramian"]["sum"]["matrix"]["re"][0][0] *= 1 + 1e-6
        verdict = check.judge(item, ref, code, json.dumps(report))
        self.assertFalse(verdict.passed)
        self.assertIn("gramian.sum", verdict.reason)

    def test_missing_report_and_exit_codes_fail(self):
        item = {"doc": {"char_poly": [2.0, 3.0, 1.0]}, "argv": ["verify"], "n": 2,
                "kind": "char_poly"}
        ref = reference.build_reference(item["doc"], full=False)
        self.assertFalse(check.judge(item, ref, 3, None).passed)
        self.assertFalse(check.judge(item, ref, None, None).passed)
        report = json.dumps({"spectrum": [{"re": -2.0, "im": 0.0, "multiplicity": 1},
                                          {"re": -1.0, "im": 0.0, "multiplicity": 1}]})
        self.assertTrue(check.judge(item, ref, 0, report).passed)
        self.assertFalse(check.judge(item, ref, 4, report).passed)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_documents(self):
        for workload in generate.WORKLOADS:
            first = json.dumps(generate.plan(workload, 11), sort_keys=True)
            self.assertEqual(first, json.dumps(generate.plan(workload, 11), sort_keys=True))
            self.assertNotEqual(first, json.dumps(generate.plan(workload, 12), sort_keys=True))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        data = {
            "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
            "start": np.array([0.0, 1.0, 2.0, 6.0]),
            "end": np.array([10.0, 5.0, 3.0, 8.0]),
        }
        np.testing.assert_allclose(spans.self_times(data), [4.0, 3.0, 1.0, 2.0])


if __name__ == "__main__":
    unittest.main()
