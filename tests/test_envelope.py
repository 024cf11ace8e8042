"""The accuracy envelope as a property: `analyze --inverse` exits 0 only when
its sums are within their `verify` bounds.

Documents are `char_poly` and `eigenvalues` documents of stable,
conjugate-closed simple spectra of degree 2 to 16, whose eigenvalues are
spaced by gaps drawn down to 1e-9.  When the command exits 0, `gramian.sum`
and `inverse.sum` must lie within the `gramian_oracle_agreement` and
`inverse_oracle_agreement` bounds of the 60-digit references of
`bench/reference.py` (relative, in the Frobenius norm).  Otherwise it must
refuse the document with exit 2 or 3 and one stderr line.  A document whose
reference fails its own certificate is not judged, as in the benchmark.

The same rule holds for `analyze --inverse --finite T` at short horizons,
where `finite_inverse.sum` is judged at the benchmark's bound as well, and
for `analyze --finite 1` on a slow spectrum, where `finite.sum` is.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, reject, settings
from hypothesis import strategies as st

import gramspec as gs
from gramspec.cli import EXIT_CONDITIONING, EXIT_OK, EXIT_SOLVABILITY, VERIFY_BOUNDS, main

BOUNDS = {"gramian.sum": VERIFY_BOUNDS["gramian_oracle_agreement"],
          "inverse.sum": VERIFY_BOUNDS["inverse_oracle_agreement"]}
# {-1, -2 +- 0.5i, -3.5}: within bound at T = 0.125 (9.7 digits), and its
# finite_inverse.sum off by 1.16e-7 at T = 0.05 and by 4.72e-6 at T = 0.03
SHORT_HORIZON_DOC = {"schema": 1, "eigenvalues": [[-1.0, 0.0, 1], [-2.0, 0.5, 1],
                                                  [-2.0, -0.5, 1], [-3.5, 0.0, 1]]}
# {-1, -1.5 +- 0.7i, -2.5, -3 +- 1.2i}, to be scaled by 2^-k: under analyze
# --finite 1 within bound at k = 3 (10.8 digits), finite.sum off by 2.43e-5
# at k = 5, and refused (exit 3) at k = 6 by the N'(lambda) floor of
# require_simple
SLOW_SPECTRUM = [(-1.0, 0.0), (-1.5, 0.7), (-1.5, -0.7), (-2.5, 0.0), (-3.0, 1.2), (-3.0, -1.2)]


def _admitted_report(doc: dict, tmp_path, *flags):
    """The report of ``analyze *flags`` on ``doc`` when it exits 0, or None
    once its refusal is checked: exit 2 or 3 with one stderr line."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", *flags, str(path)])
    if code != EXIT_OK:
        assert code in (EXIT_SOLVABILITY, EXIT_CONDITIONING), (doc, code, err.getvalue())
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        return None
    return json.loads(out.getvalue())


def _assert_within(report: dict, ref, bounds: dict, check):
    for name, bound in bounds.items():
        block, key = name.split(".")
        entry = report[block][key]["matrix"]
        error = check.relative_error(ref, name, np.array(entry["re"]) + 1j * np.array(entry["im"]))
        assert error <= bound, (name, error)


def _gap(draw) -> float:
    """A spacing between neighbouring eigenvalues, log-uniform in [1e-9, 1]."""
    return 10.0 ** draw(st.floats(-9.0, 0.0))


@st.composite
def documents(draw) -> dict:
    """A `char_poly` or `eigenvalues` document of a stable, conjugate-closed
    simple spectrum of degree 2..16.  Real eigenvalues step down from
    -0.5..-2 by drawn gaps; complex pairs have real parts in [-5, -0.5] and
    imaginary parts that step up from 0.1..1 by drawn gaps."""
    n = draw(st.integers(2, 16))
    complex_pairs = draw(st.integers(0, n // 2))
    values = []
    re = -draw(st.floats(0.5, 2.0))
    for _ in range(n - 2 * complex_pairs):
        values.append(complex(re, 0.0))
        re -= _gap(draw)
    im = draw(st.floats(0.1, 1.0))
    for _ in range(complex_pairs):
        re = -draw(st.floats(0.5, 5.0))
        values += [complex(re, im), complex(re, -im)]
        im += _gap(draw)
    if draw(st.booleans()):
        return {"schema": 1, "eigenvalues": [[v.real, v.imag, 1] for v in values]}
    return {"schema": 1, "char_poly": gs.poly_from_roots(values).coeffs.real.tolist()}


@pytest.mark.xfail(
    strict=True,
    reason="analyze exits 0 with sums beyond their bounds on near-multiple spectra and at "
    "high degree: accurate components (ROADMAP item 1), refusal by predicted error "
    "(item 16) and a closure entry against the exact totals (item 2(b)) are the fix",
)
@settings(
    derandomize=True,
    max_examples=20,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
# exits 0 with inverse.sum off by 6.9e3 and gramian.sum by 66 (the inverse
# error checked against the exact Bezoutian inverse too)
@example(doc={"schema": 1, "eigenvalues": [[-1.3, 0.0, 1], [-1.3 + 1e-8, 0.0, 1], [-2.0, 0.7, 1],
                                           [-2.0, -0.7, 1], [-3.1, 0.0, 1]]})
@given(doc=documents())
def test_exit_0_means_within_bound(doc, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import check
    import reference

    report = _admitted_report(doc, tmp_path, "--inverse")
    if report is None:
        return
    try:
        ref = reference.build_reference(doc)
    except reference.ReferenceError:  # a reference that fails its certificate judges nothing
        reject()
    _assert_within(report, ref, BOUNDS, check)


SHORT_HORIZON_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="analyze --finite T exits 0 with finite_inverse.sum beyond its bound at short "
    "horizons: an entrywise-accurate P(t) from divided differences (ROADMAP item 21) and "
    "refusal by predicted error (item 16) are the fix",
)


@pytest.mark.parametrize("t", [0.125, pytest.param(0.05, marks=SHORT_HORIZON_XFAIL),
                               pytest.param(0.03, marks=SHORT_HORIZON_XFAIL)])
def test_short_horizon_exit_0_means_within_bound(t, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import check
    import reference

    report = _admitted_report(SHORT_HORIZON_DOC, tmp_path, "--inverse", "--finite", str(t))
    if report is None:
        return
    ref = reference.build_reference(SHORT_HORIZON_DOC, horizon=t)
    _assert_within(report, ref, {**BOUNDS, "finite.sum": check.BOUNDS["finite.sum"],
                                 "finite_inverse.sum": check.BOUNDS["finite_inverse.sum"]},
                   check)


SLOW_SPECTRUM_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="analyze --finite 1 exits 0 with finite.sum beyond its bound on a slow spectrum: "
    "an entrywise-accurate P(t) from divided differences (ROADMAP item 21) and admission "
    "in the spectrum's own time scale (item 20) are the fix",
)


@pytest.mark.parametrize("k", [3, pytest.param(5, marks=SLOW_SPECTRUM_XFAIL), 6])
def test_slow_spectrum_exit_0_means_within_bound(k, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import check
    import reference

    scale = 2.0 ** -k
    doc = {"schema": 1, "eigenvalues": [[re * scale, im * scale, 1] for re, im in SLOW_SPECTRUM]}
    report = _admitted_report(doc, tmp_path, "--finite", "1")
    if report is None:
        return
    ref = reference.build_reference(doc, horizon=1.0)
    _assert_within(report, ref, {"gramian.sum": BOUNDS["gramian.sum"],
                                 "finite.sum": check.BOUNDS["finite.sum"]}, check)
