"""One sha256 over gramspec's reports on a fixed set of 296 cases.

    python tools/report_digest.py CHECKOUT

Runs every case in-process with ``gramspec.cli.main`` from CHECKOUT/src and
prints the sha256 over (case, exit code, stderr, report) of all of them, so
two checkouts whose digests agree write byte-identical reports.  BLAS runs on
one thread, as in bench/run.py: a threaded BLAS may round some reports
differently, so the digest is that of what the benchmark runs.

The cases come from the bench/generate.py next to this script, whatever the
checkout:

- the 116 benchmark catalogue documents, each with its workload argv;
- the 24 analyze_ladder documents at n = 3, 5 and 8, document k (in
  catalogue order) given the symmetric initial condition (M + M^T)/2 with M
  standard normal from default_rng(1000 + k), each under the full analyze
  argv, under ``verify`` and under ``analyze --inverse --finite 2.5 --raw``;
- the 44 analyze_structured documents under ``analyze --pairs --inverse
  --finite 1 --raw``: the raw Jordan-chain and matrices reports, and the pair
  blocks of the matrices documents;
- the same 44 documents under ``verify``: the Jordan-chain checks and the
  checks of a matrices document's companion forms;
- the 20 analyze_structured matrices documents, document k (in catalogue
  order) given the symmetric initial condition (M + M^T)/2 with M standard
  normal from default_rng(2000 + k), under ``analyze --inverse --finite 1``:
  the pull-back of P_0 through the similarity of the 10 single-input
  documents, and the refusal of the 10 two-input ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

# before numpy is imported, which is when BLAS reads them
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))

import generate  # noqa: E402

LADDER_P0_SIZES = (3, 5, 8)
LADDER_P0_ARGVS = (
    generate.ANALYZE_FULL,
    ["verify"],
    ["analyze", "--inverse", "--finite", "2.5", "--raw"],
)
STRUCTURED_RAW_ARGV = ["analyze", "--pairs", "--inverse", "--finite", "1", "--raw"]
MATRICES_P0_ARGV = ["analyze", "--inverse", "--finite", "1"]


def cases() -> list:
    """(name, document, argv) of every case, in a fixed order."""
    out = []
    for workload in sorted(generate.WORKLOADS):
        items = [item for round_ in generate.catalogue(workload) for item in round_]
        out += [(f"{workload}/{k}", item["doc"], item["argv"]) for k, item in enumerate(items)]
    ladder = [item for round_ in generate.catalogue("analyze_ladder") for item in round_
              if item["n"] in LADDER_P0_SIZES]
    for k, item in enumerate(ladder):
        m = np.random.default_rng(1000 + k).standard_normal((item["n"], item["n"]))
        doc = dict(item["doc"], initial_condition=(0.5 * (m + m.T)).tolist())
        for argv in LADDER_P0_ARGVS:
            out.append((f"ladder_p0/{k}/{' '.join(argv)}", doc, list(argv)))
    structured = [item for round_ in generate.catalogue("analyze_structured") for item in round_]
    out += [(f"structured_raw/{k}", item["doc"], list(STRUCTURED_RAW_ARGV))
            for k, item in enumerate(structured)]
    out += [(f"structured_verify/{k}", item["doc"], ["verify"])
            for k, item in enumerate(structured)]
    for k, item in enumerate(item for item in structured if "matrices" in item["doc"]):
        m = np.random.default_rng(2000 + k).standard_normal((item["n"], item["n"]))
        doc = dict(item["doc"], initial_condition=(0.5 * (m + m.T)).tolist())
        out.append((f"matrices_p0/{k}", doc, list(MATRICES_P0_ARGV)))
    return out


def run_case(main, workdir: str, doc: dict, argv: list) -> tuple:
    """(exit code, stderr, stdout + report) of one in-process run."""
    doc_path = os.path.join(workdir, "doc.json")
    out_path = os.path.join(workdir, "report.json")
    with open(doc_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv + [doc_path, "--output", out_path])
    report = ""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            report = handle.read()
        os.remove(out_path)
    return code, err.getvalue(), out.getvalue() + report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the gramspec checkout to run")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    from gramspec.cli import main as gramspec_main

    total = hashlib.sha256()
    all_cases = cases()
    with tempfile.TemporaryDirectory(prefix="gramspec-digest-") as workdir:
        for name, doc, case_argv in all_cases:
            code, err, report = run_case(gramspec_main, workdir, doc, case_argv)
            record = json.dumps([name, code, err, report]).encode("utf-8")
            total.update(hashlib.sha256(record).digest())
    print(f"{total.hexdigest()}  {len(all_cases)} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
