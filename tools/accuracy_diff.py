"""What changed between the reports of two gramspec checkouts, in digits.

    python tools/accuracy_diff.py OLD NEW

Runs the cases of tools/report_digest.py (the 116 benchmark catalogue
documents among them) in-process under each checkout, one subprocess per
checkout, and prints:

- the cases whose exit code or stderr changed;
- per report block (``gramian.eigen``, ``inverse.sum``, ``checks.<name>``,
  ...), the number of cases whose block changed, with the lowest number of
  digits to which the old and new matrices or numbers still agree;
- the cases whose ``verify`` pass/fail changed, overall or in one check;
- bench/check.py's verdicts on the catalogue documents before and after: per
  workload the failed documents, ``digits_min`` and ``digits_p50`` (over
  passing documents, as bench/run.py counts them), and the documents whose
  verdict changed;
- per judged quantity whose report block changed, its digits against the
  60-digit reference of bench/reference.py before and after: minimum,
  median and the number of cases that lost more than 0.1 digits.

References are built once and kept in .bench_work/references, as
bench/run.py keeps them.  BLAS runs on one thread, as in the digest.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))
REFERENCE_CACHE = os.path.join(HERE, os.pardir, ".bench_work", "references")
LOST = 0.1  # digits a judged quantity may move before it counts as lost or gained
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_tree(checkout: str, cases_path: str, outdir: str) -> None:
    """Child process: run every case of ``cases_path`` under ``checkout``,
    writing report k to outdir/k.json and the exit codes and stderr of all
    cases to outdir/runs.json."""
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    import report_digest
    from gramspec.cli import main as gramspec_main

    with open(cases_path, encoding="utf-8") as handle:
        cases = json.load(handle)
    runs = []
    with tempfile.TemporaryDirectory(prefix="gramspec-diff-") as workdir:
        for k, (_, doc, argv) in enumerate(cases):
            code, err, report = report_digest.run_case(gramspec_main, workdir, doc, argv)
            with open(os.path.join(outdir, f"{k}.json"), "w", encoding="utf-8") as handle:
                handle.write(report)
            runs.append([code, err])
    with open(os.path.join(outdir, "runs.json"), "w", encoding="utf-8") as handle:
        json.dump(runs, handle)


def _run(checkout: str, cases_path: str, outdir: str) -> list:
    os.makedirs(outdir)
    # report_digest sets one BLAS thread before numpy is imported
    script = "import sys, report_digest, accuracy_diff; accuracy_diff.run_tree(*sys.argv[1:])"
    env = dict(os.environ, PYTHONPATH=HERE)
    subprocess.run([sys.executable, "-c", script, checkout, cases_path, outdir],
                   env=env, check=True)
    with open(os.path.join(outdir, "runs.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _report_text(outdir: str, k: int) -> str | None:
    """The report case k wrote, without the stdout text before it; None
    when it wrote none."""
    with open(os.path.join(outdir, f"{k}.json"), encoding="utf-8") as handle:
        text = handle.read()
    start = text.find("{\n")
    return None if start < 0 else text[start:]


def blocks(report: dict | None) -> dict:
    """The report's blocks: each top-level entry, split one level further
    where it is an object, and each ``verify`` check by its name."""
    out = {}
    for key, value in (report or {}).items():
        if key == "checks":
            out.update((f"checks.{check['name']}", check) for check in value)
        elif isinstance(value, dict):
            out.update((f"{key}.{sub}", item) for sub, item in value.items())
        else:
            out[key] = value
    return out


def _leaves(value, matrices: list, numbers: list, others: list) -> None:
    """Split a block into its matrices (re + i im), its other numbers and
    its other leaves, each in document order.  An {re, im} pair of scalars
    (a ``roots`` entry) is one complex number."""
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        z = np.array(value["re"], dtype=float) + 1j * np.array(value["im"], dtype=float)
        if z.ndim:
            matrices.append(z)
        else:
            numbers.append(complex(z))
    elif isinstance(value, dict):
        for key in sorted(value):
            others.append(key)
            _leaves(value[key], matrices, numbers, others)
    elif isinstance(value, list):
        others.append(len(value))
        for item in value:
            _leaves(item, matrices, numbers, others)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(value)
    else:
        others.append(value)


def _digits_apart(a: np.ndarray, b: np.ndarray) -> float:
    """-log10 of the largest difference of a and b relative to the largest
    entry of a; 16 when they are equal as numbers (only the sign of a zero
    differs), 0 when they cannot be compared."""
    if a.shape != b.shape:
        return 0.0
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b)
        gap[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    largest, scale = float(np.max(gap, initial=0.0)), float(np.max(np.abs(a), initial=0.0))
    if largest == 0.0:
        return 16.0
    if not (math.isfinite(largest) and scale > 0.0):
        return 0.0
    return min(16.0, max(0.0, -math.log10(largest / scale)))


def agreement(old, new) -> float:
    """Digits to which two versions of a block agree: the lowest over its
    matrices, each relative to its own largest entry, or, in a block
    without matrices, over its numbers relative to the largest of them; 0
    when anything but the numbers differs."""
    (a, a_numbers, a_others), (b, b_numbers, b_others) = ([], [], []), ([], [], [])
    _leaves(old, a, a_numbers, a_others)
    _leaves(new, b, b_numbers, b_others)
    if a_others != b_others or len(a) != len(b):
        return 0.0
    if not a:
        return _digits_apart(np.array(a_numbers, dtype=complex),
                             np.array(b_numbers, dtype=complex))
    return min(_digits_apart(x, y) for x, y in zip(a, b))


def _catalogue() -> dict:
    """The catalogue item of each catalogue case name, as report_digest
    names them."""
    import generate

    items = {}
    for workload in sorted(generate.WORKLOADS):
        flat = [item for round_ in generate.catalogue(workload) for item in round_]
        items.update((f"{workload}/{k}", item) for k, item in enumerate(flat))
    return items


def _judged(item: dict, ref, report: dict | None) -> dict:
    """Digits of each quantity bench/check.py judges, against ``ref``."""
    import check

    out = {}
    for name in check.expected_quantities(item):
        try:
            value = check._reported(report, name)
        except (KeyError, TypeError, ValueError):
            out[name] = 0.0
            continue
        out[name] = check.digits_of(check.relative_error(ref, name, value))
    return out


def diff(old: str, new: str, cases: list) -> dict:
    """Everything the tool prints, for the (name, document, argv) ``cases``."""
    import check
    import reference
    import run as bench_run

    catalogue = _catalogue()
    out = {"cases": len(cases), "runs": [], "blocks": {}, "verify": [], "verdicts": {},
           "verdict_changes": [], "judged": {}}
    with tempfile.TemporaryDirectory(prefix="gramspec-accuracy-") as tmp:
        cases_path = os.path.join(tmp, "cases.json")
        with open(cases_path, "w", encoding="utf-8") as handle:
            json.dump(cases, handle)
        dirs = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        runs = [_run(checkout, cases_path, run_dir) for checkout, run_dir in zip((old, new), dirs)]
        for k, (name, _, argv) in enumerate(cases):
            codes = [run[k][0] for run in runs]
            if runs[0][k] != runs[1][k]:
                out["runs"].append((name, *codes, runs[0][k][1], runs[1][k][1]))
            texts = [_report_text(run_dir, k) for run_dir in dirs]
            reports = [None if text is None else json.loads(text) for text in texts]
            before, after = map(blocks, reports)
            changed = set()
            for key in sorted(set(before) | set(after)):
                old_block, new_block = before.get(key), after.get(key)
                if json.dumps(old_block, sort_keys=True) != json.dumps(new_block, sort_keys=True):
                    count, digits = out["blocks"].get(key, (0, 16.0))
                    out["blocks"][key] = (count + 1, min(digits, agreement(old_block, new_block)))
                    changed.add(key)
            if argv[0] == "verify" and all(reports):
                flags = [(key, before[key]["pass"], after[key]["pass"]) for key in before
                         if key.startswith("checks.") and key in after
                         and before[key]["pass"] != after[key]["pass"]]
                if flags or reports[0]["all_passed"] != reports[1]["all_passed"]:
                    out["verify"].append((name, flags))
            item = catalogue.get(name)
            if item is None:
                continue
            try:
                ref = bench_run.cached_reference(item, REFERENCE_CACHE) if any(texts) else None
            except reference.ReferenceError as err:
                verdicts = [check.Verdict(False, 0.0, f"unjudged: {err}")] * 2
                ref = None
            else:
                verdicts = [check.judge(item, ref, code, text) for code, text in zip(codes, texts)]
            out["verdicts"].setdefault(name.split("/")[0], []).append(tuple(verdicts))
            if verdicts[0].passed != verdicts[1].passed:
                out["verdict_changes"].append((name, *verdicts))
            if ref is not None and changed:
                digits = [_judged(item, ref, report) for report in reports]
                for quantity in changed.intersection(digits[0]):
                    out["judged"].setdefault(quantity, []).append(
                        (digits[0][quantity], digits[1][quantity]))
    return out


def _digits_summary(verdicts: list) -> str:
    failed = sum(not v.passed for v in verdicts)
    digits = [v.digits for v in verdicts if v.passed] or [0.0]
    return f"{failed:2d} failed, digits_min {min(digits):.2f}, p50 {statistics.median(digits):.2f}"


def render(out: dict, old: str, new: str) -> str:
    lines = [f"accuracy diff: {old} -> {new}, {out['cases']} cases", ""]
    lines.append(f"exit code or stderr changed: {len(out['runs'])} cases")
    for name, old_code, new_code, old_err, new_err in out["runs"]:
        same_words = NUMBER.sub("#", old_err) == NUMBER.sub("#", new_err)
        note = ", stderr numbers only" if same_words else ""
        lines.append(f"  {name}: exit {old_code} -> {new_code}{note}")
        if not same_words:
            lines += [f"    {line}" for line in difflib.ndiff(old_err.splitlines(),
                                                              new_err.splitlines())
                      if line[:1] in "-+"]
    lines += ["", "report blocks changed: cases, lowest digits to which old and new agree"]
    for key, (count, digits) in sorted(out["blocks"].items()):
        lines.append(f"  {key:36s} {count:4d}  {digits:5.2f}")
    if not out["blocks"]:
        lines.append("  none")
    lines += ["", f"verify pass/fail changed: {len(out['verify'])} cases"]
    for name, flags in out["verify"]:
        changes = ", ".join(f"{key} {before} -> {after}" for key, before, after in flags)
        lines.append(f"  {name}: {changes or 'all_passed'}")
    lines += ["", "catalogue verdicts (bench/check.py), old -> new"]
    for workload, pairs in sorted(out["verdicts"].items()):
        before, after = zip(*pairs)
        lines.append(f"  {workload:20s} {_digits_summary(before)}  ->  {_digits_summary(after)}")
    lines.append(f"  verdicts changed: {len(out['verdict_changes'])}")
    for name, before, after in out["verdict_changes"]:
        lines.append(f"    {name}: {before.reason or 'pass'} -> {after.reason or 'pass'}")
    lines += ["", "judged quantities in changed blocks: digits old -> new "
              f"(min, median, cases that lost or gained > {LOST})"]
    for quantity, pairs in sorted(out["judged"].items()):
        before, after = zip(*pairs)
        lost = sum(b - a > LOST for b, a in pairs)
        gained = sum(a - b > LOST for b, a in pairs)
        lines.append(f"  {quantity:24s} {len(pairs):4d} cases: min {min(before):.2f} -> "
                     f"{min(after):.2f}, median {statistics.median(before):.2f} -> "
                     f"{statistics.median(after):.2f}, {lost} lost, {gained} gained")
    if not out["judged"]:
        lines.append("  none")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="root of the checkout to compare from")
    parser.add_argument("new", help="root of the checkout to compare to")
    args = parser.parse_args(argv)
    import report_digest

    print(render(diff(args.old, args.new, report_digest.cases()), args.old, args.new))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
