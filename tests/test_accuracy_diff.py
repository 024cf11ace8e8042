"""tools/accuracy_diff.py on a few of the digest's cases: a checkout against
itself changes nothing, and a change planted in one report block is found
in that block only."""

import math
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import accuracy_diff  # noqa: E402
import report_digest  # noqa: E402


@pytest.fixture(scope="module")
def cases():
    """Two analyze_ladder documents and one verify_oracle document of degree
    3, which the catalogue judges, and one initial-condition case, which it
    does not."""
    def degree3(name, doc, argv, prefix):
        return name.startswith(prefix) and len(doc.get("char_poly", ())) == 4

    every = report_digest.cases()
    return ([case for case in every if degree3(*case, "analyze_ladder/")][:2]
            + [case for case in every if degree3(*case, "verify_oracle/")][:1]
            + [case for case in every if degree3(*case, "ladder_p0/")][:1])


@pytest.fixture
def references(tmp_path, monkeypatch):
    monkeypatch.setattr(accuracy_diff, "REFERENCE_CACHE", str(tmp_path / "references"))


def test_a_checkout_against_itself_changes_nothing(cases, references):
    out = accuracy_diff.diff(str(ROOT), str(ROOT), cases)
    assert out["cases"] == 4
    assert out["runs"] == [] and out["blocks"] == {} and out["verify"] == []
    assert out["verdict_changes"] == [] and out["judged"] == {}
    assert sorted(out["verdicts"]) == ["analyze_ladder", "verify_oracle"]
    assert all(old == new for pairs in out["verdicts"].values() for old, new in pairs)
    text = accuracy_diff.render(out, "old", "new")
    assert "exit code or stderr changed: 0 cases" in text
    assert "verdicts changed: 0" in text


def test_a_planted_change_shows_in_its_block_only(cases, references, tmp_path):
    planted = tmp_path / "planted"
    shutil.copytree(ROOT / "src" / "gramspec", planted / "src" / "gramspec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = planted / "src" / "gramspec" / "cli.py"
    source = cli.read_text()
    line = '"product_residual": residual_product('
    assert source.count(line) == 1
    cli.write_text(source.replace(line, '"product_residual": 1.0 + residual_product('))

    out = accuracy_diff.diff(str(ROOT), str(planted), cases)
    assert out["runs"] == [] and out["verify"] == [] and out["verdict_changes"] == []
    # the three analyze cases write the block; the verify case has none
    count, digits = out["blocks"]["inverse.product_residual"]
    assert set(out["blocks"]) == {"inverse.product_residual"} and count == 3
    assert digits < 1.0
    assert out["judged"] == {}  # no judged quantity is in that block
    assert "inverse.product_residual" in accuracy_diff.render(out, "old", "new")


def test_agreement_counts_digits_per_matrix():
    matrix = {"re": [[1.0, 0.0], [0.0, 1e-20]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    moved = {"re": [[1.0, 0.0], [0.0, 1e-20 + 1e-12]], "im": [[0.0, -0.0], [0.0, 0.0]]}
    assert accuracy_diff.agreement({"matrix": matrix, "residual": 1e-16},
                                   {"matrix": moved, "residual": 3e-16}) == pytest.approx(12.0)
    signed = {"re": [[1.0, -0.0], [0.0, 1e-20]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    assert accuracy_diff.agreement(matrix, signed) == 16.0
    assert accuracy_diff.agreement({"a": 1.0}, {"b": 1.0}) == 0.0
    assert accuracy_diff.agreement(2.0, 2.5) == pytest.approx(-math.log10(0.25))
    # a roots report's entries are complex numbers, relative to the largest
    roots = [{"re": -4.0, "im": 3.0}, {"re": -4.0, "im": -3.0}, {"re": -1.0, "im": 0.0}]
    polished = [{"re": -4.0, "im": 3.0}, {"re": -4.0, "im": -3.0}, {"re": -1.0 + 5e-9, "im": 0.0}]
    assert accuracy_diff.agreement(roots, polished) == pytest.approx(9.0)
