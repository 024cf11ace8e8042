"""The README's examples stay current: its library example runs and its
system document parses."""

import re
from pathlib import Path

from gramspec.document import parse_system

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_python_example_runs():
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})


def test_json_document_parses():
    (document,) = _blocks("json")
    assert parse_system(document).source == "char_poly"
