"""Judge one gramspec report against its high-precision reference.

A document passes when the program exited 0 and every quantity its report
must carry lies within its bound of the reference.  The bounds are the
`gramspec verify` gates: 1e-8 relative for Gramian sums, 1e-7 for inverse
sums and for the energy quadratic form (a form in the inverse); eigenvalues
and roots use the Gramian gate.  A `verify` report passes only on exit 0.

Correct digits of a quantity are clip(-log10(relative error), 0, 16); a
document's digits are the lowest over its quantities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

GRAMIAN_BOUND = 1e-8
INVERSE_BOUND = 1e-7
BOUNDS = {
    "gramian.sum": GRAMIAN_BOUND,
    "gramian_original.sum": GRAMIAN_BOUND,
    "finite.sum": GRAMIAN_BOUND,
    "finite.homogeneous_sum": GRAMIAN_BOUND,
    "inverse.sum": INVERSE_BOUND,
    "inverse_original.sum": INVERSE_BOUND,
    "finite_inverse.sum": INVERSE_BOUND,
    "energy.total": INVERSE_BOUND,
    "spectrum": GRAMIAN_BOUND,
    "roots": GRAMIAN_BOUND,
}
MAX_DIGITS = 16.0


@dataclass
class Verdict:
    passed: bool
    digits: float
    reason: str = ""


def digits_of(rel_error: float) -> float:
    if not math.isfinite(rel_error):
        return 0.0
    if rel_error <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(rel_error)))


def expected_quantities(item: dict) -> list:
    """Names of the quantities the report of this item must carry."""
    argv, doc = item["argv"], item["doc"]
    command = argv[0]
    simple = all(m == 1 for _, _, m in doc.get("eigenvalues", []))
    names = ["spectrum"]
    if command == "roots" and "eigenvalues" not in doc:
        names.append("roots")
    if command == "energy":
        names.append("energy.total")
    if command != "analyze":
        return names
    inverse = "--inverse" in argv
    finite = "--finite" in argv
    names.append("gramian.sum")
    if inverse:
        names.append("inverse.sum")
    if finite:
        names.append("finite.sum")
        if simple and doc.get("initial_condition") is not None:
            names.append("finite.homogeneous_sum")
        if inverse and simple:
            names.append("finite_inverse.sum")
    if "matrices" in doc:
        names.append("gramian_original.sum")
        if inverse and simple and len(doc["matrices"]["B"][0]) == 1:
            names.append("inverse_original.sum")
    return names


def _as_numpy(m) -> np.ndarray:
    return np.array([[complex(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def _matrix(entry) -> np.ndarray:
    return np.array(entry["re"], dtype=float) + 1j * np.array(entry["im"], dtype=float)


def _set_error(reported: list, reference: list) -> float:
    """Worst relative distance between two (value, multiplicity) multisets,
    each reference value matched to its nearest unused reported value of the
    same multiplicity; inf when they cannot be matched."""
    if len(reported) != len(reference):
        return math.inf
    unused = list(reported)
    worst = 0.0
    for lam, mult in reference:
        lam = complex(lam)
        candidates = [k for k, (v, m) in enumerate(unused) if m == mult]
        if not candidates:
            return math.inf
        k = min(candidates, key=lambda k: abs(unused[k][0] - lam))
        worst = max(worst, abs(unused[k][0] - lam) / abs(lam))
        unused.pop(k)
    return worst


def _reported(report: dict, name: str):
    if name == "spectrum":
        return [(complex(e["re"], e["im"]), int(e["multiplicity"])) for e in report["spectrum"]]
    if name == "roots":
        return [(complex(e["re"], e["im"]), 1) for e in report["roots"]]
    if name == "energy.total":
        return float(report["energy"]["total"])
    block, key = name.split(".")
    return _matrix(report[block][key]["matrix"])


def relative_error(ref, name: str, value) -> float:
    if name in ("spectrum", "roots"):
        return _set_error(value, ref.spectrum)
    if name == "energy.total":
        exact = float(ref.energy)
        return abs(value - exact) / abs(exact)
    exact = _as_numpy(ref.matrices[name])
    if value.shape != exact.shape:
        return math.inf
    return float(np.linalg.norm(value - exact) / np.linalg.norm(exact))


def judge(item: dict, ref, exit_code, report_text: str | None) -> Verdict:
    if exit_code is None:
        return Verdict(False, 0.0, "uncaught exception")
    if report_text is None:
        return Verdict(False, 0.0, f"exit {exit_code} without a report")
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError:
        return Verdict(False, 0.0, f"exit {exit_code} with unparsable report")
    errors = {}
    reasons = []
    for name in expected_quantities(item):
        try:
            value = _reported(report, name)
        except (KeyError, TypeError, ValueError):
            errors[name] = math.inf
            reasons.append(f"{name} missing")
            continue
        errors[name] = relative_error(ref, name, value)
        if not errors[name] <= BOUNDS[name]:
            reasons.append(f"{name} rel. error {errors[name]:.2e} > {BOUNDS[name]:.0e}")
    if exit_code != 0:
        reasons.insert(0, f"exit {exit_code}")
    digits = min(digits_of(e) for e in errors.values())
    return Verdict(not reasons, digits, "; ".join(reasons))
