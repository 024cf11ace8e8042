"""The benchmark catalogue's verdicts as a ledger.

Each of the 116 catalogue documents of bench/generate.py runs in-process
under its workload argv, and bench/check.py judges its report against the
60-digit reference of bench/reference.py.  Its exit code, its verdict and
the names of its failing quantities must read as tests/catalogue_ledger.json
records them, failures included: a change that fixes a document fails this
test as surely as one that breaks it, until the ledger records the new
verdict.  The failure message prints each entry that differs as it now
reads.  References are kept in pytest's cache between runs, keyed as
bench/run.py keys them.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import accuracy_diff  # noqa: E402  (puts bench/ on the path)
import check  # noqa: E402
import report_digest  # noqa: E402
import run as bench_run  # noqa: E402

LEDGER = Path(__file__).with_name("catalogue_ledger.json")


@pytest.fixture
def reference_cache(request, tmp_path_factory) -> str:
    cache = getattr(request.config, "cache", None)  # None under -p no:cacheprovider
    if cache is None:
        return str(tmp_path_factory.mktemp("catalogue_references"))
    return str(cache.mkdir("catalogue_references"))


def ledger_entry(main, workdir: str, item: dict, cache: str) -> dict:
    """The exit code, bench/check.py verdict and failing quantities of one
    catalogue document."""
    code, _, text = report_digest.run_case(main, workdir, item["doc"], item["argv"])
    ref = bench_run.cached_reference(item, cache) if text else None
    verdict = check.judge(item, ref, code, text or None)
    failing = [part.split(" ")[0] for part in verdict.reason.split("; ")
               if part and not part.startswith("exit ")]
    return {"exit": code, "passed": verdict.passed, "failing": failing}


def test_catalogue_verdicts_match_the_ledger(tmp_path, reference_cache):
    from gramspec.cli import main

    ledger = json.loads(LEDGER.read_text())
    now = {name: ledger_entry(main, str(tmp_path), item, reference_cache)
           for name, item in accuracy_diff._catalogue().items()}
    recorded = ledger["documents"]
    changed = [f"{name}: ledger {json.dumps(recorded.get(name))}, now {json.dumps(now.get(name))}"
               for name in sorted(recorded.keys() | now.keys())
               if recorded.get(name) != now.get(name)]
    assert not changed, "\n".join(
        [f"the ledger was written under numpy {ledger['numpy']}, this is {np.__version__}",
         *changed])
