"""gramspec benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gramspec checkout (the package is taken from ./src).
Each workload has a fixed catalogue of system documents and the seed sets the
order of the visits (bench/generate.py); gramspec only ever sees the JSON
files.  Every report is judged against an independent
mpmath reference (bench/reference.py, bench/check.py).  Timings are scaled
to one machine speed by fixed work timed in the same run
(bench/calibration.py).  With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run
(bench/spans.py).  Metric definitions are in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import calibration
import check
import generate
import reference
import spans
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
STARTED = time.monotonic()
SETUP_PROBES = 4
IMPORTTIME_PROBES = 3
RUN_BUDGET_S = 150  # every child is killed once the run has used this much
TAIL_BEYOND = 10
IN_PROCESS = ("analyze_ladder", "analyze_structured", "verify_oracle")

FUNCTION_MS = (
    "spectrum.find_roots", "gramians.exponent_collisions",
    "gramians.infinite_pair_subgramians", "inverse.inverse_pair_parts",
    "inverse.finite_inverse", "companion.jordan_chains_companion",
    "gramians.lift_to_original", "inverse.riccati_general", "inverse.inverse_multiple_eig",
    "oracle.integrate_lyapunov", "oracle.solve_lyapunov_dense",
)
SETUP_MODULES = {"setup.scipy_optimize_ms": "scipy.optimize",
                 "setup.scipy_linalg_ms": "scipy.linalg",
                 "setup.mpmath_ms": "mpmath"}


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


def child_env(root: str) -> dict:
    """Environment of every process that runs gramspec: one BLAS thread and
    the checkout's sources."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def time_left() -> float:
    return max(1.0, RUN_BUDGET_S - (time.monotonic() - STARTED))


def run_child(cmd: list, env: dict, cwd: str, stderr_path: str):
    """Run one process to completion; returns (exit code, seconds from spawn
    to exit, peak RSS in MB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(time_left(), proc.kill)
        timer.start()
        start = time.perf_counter()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            elapsed = time.perf_counter() - start
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, root: str) -> tuple:
    """(median seconds a fresh interpreter takes to import gramspec.cli,
    calibration scale): a calibration spawn follows each probe, and the
    scale is taken at their median, as the probes are."""
    code = ("import time; t = time.perf_counter(); import gramspec.cli; "
            "print(repr(time.perf_counter() - t))")
    values, spawns = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                             capture_output=True, text=True, timeout=time_left())
        if out.returncode != 0:
            raise BenchError(f"import gramspec.cli failed: {out.stderr.strip()[-300:]}")
        values.append(float(out.stdout.strip()))
        spawns.append(calibration.spawn_sample(env, root))
    return statistics.median(values), calibration.scale(spawns, calibration.SPAWN_NOMINAL_MS, 0.5)


def parse_importtime(text: str) -> dict:
    """{module: (self_us, cumulative_us)} from `python -X importtime` output."""
    table = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        table.setdefault(fields[2].strip(), (own, cumulative))
    return table


def measure_import_breakdown(env: dict, root: str) -> dict:
    """setup.* metrics: medians over fresh `-X importtime` processes."""
    samples = {name: [] for name in (*SETUP_MODULES, "setup.gramspec_ms")}
    for _ in range(IMPORTTIME_PROBES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gramspec.cli"],
                             env=env, cwd=root, capture_output=True, text=True,
                             timeout=time_left())
        if out.returncode != 0:
            raise BenchError(f"import gramspec.cli failed: {out.stderr.strip()[-300:]}")
        table = parse_importtime(out.stderr)
        for name, module in SETUP_MODULES.items():
            samples[name].append(table.get(module, (0, 0))[1] / 1e3)
        samples["setup.gramspec_ms"].append(
            sum(own for mod, (own, _) in table.items()
                if mod == "gramspec" or mod.startswith("gramspec.")) / 1e3)
    return {name: statistics.median(v) for name, v in samples.items()}


def write_plan(items: list, workdir: str) -> tuple:
    """Write the documents and the plan the worker reads; (path, plan)."""
    docs = os.path.join(workdir, "docs")
    os.makedirs(docs)
    plan = []
    for k, item in enumerate(items):
        path = os.path.join(docs, f"{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(item["doc"], handle)
        plan.append({"path": path, "argv": item["argv"]})
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    return plan_path, plan


def run_in_process(plan: list, plan_path: str, workdir: str, seconds: float, trace: int,
                   env, root):
    """The closed loop inside one worker process.  Returns the attempts,
    the calibration scale of each, the run's calibration time in ms, the
    peak RSS and the spans; every attempt shares the run's scale."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path,
           "--workdir", workdir, "--seconds", repr(seconds), "--trace", str(trace)]
    code, _, _ = run_child(cmd, env, root, os.path.join(workdir, "worker.err"))
    if code != 0:
        with open(os.path.join(workdir, "worker.err"), encoding="utf-8") as handle:
            raise BenchError(f"worker exited {code}: {handle.read()[-500:]}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    span_data = spans.load(os.path.join(workdir, "spans.npz")) if trace else None
    attempts = result["attempts"]
    # the fastest of k attempts sits near the 1/(k+1) quantile of a
    # document's times, so the calibration is read at that quantile
    visits = sum(not traced for *_, traced in attempts) / len(plan)
    calibration_ms = calibration.quantile(result["kernel_ms"],
                                          min(max(1 / (visits + 1), 0.05), 0.5))
    scales = [calibration.KERNEL_NOMINAL_MS / calibration_ms] * len(attempts)
    return attempts, scales, calibration_ms, result["peak_rss_mb"], span_data


def run_cold(plan: list, plan_path: str, workdir: str, seconds: float, trace: int, env, root):
    """The closed loop of one `python -m gramspec.cli` process per document;
    traced documents run through the worker's single-document form.  A
    calibration spawn follows each visit and scales that visit's attempts.
    Returns what run_in_process does."""
    reports = os.path.join(workdir, "reports")
    os.makedirs(reports, exist_ok=True)
    out_path = os.path.join(workdir, "report.json")
    err_path = os.path.join(workdir, "child.err")
    attempts, span_parts, spawns, scales = [], [], [], []
    peak = 0.0
    start = time.perf_counter()
    k = 0
    while not worker.done(plan, k, time.perf_counter() - start, seconds):
        item = k % len(plan)
        order = (False, True) if k % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            if traced:
                child_dir = os.path.join(workdir, "traced")
                cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path,
                       "--workdir", child_dir, "--item", str(item), "--trace", "1"]
            else:
                cmd = [sys.executable, "-m", "gramspec.cli", *plan[item]["argv"],
                       plan[item]["path"], "--output", out_path]
            code, elapsed, rss = run_child(cmd, env, root, err_path)
            exc = None
            if traced:
                if code != 0:
                    raise BenchError(f"traced child exited {code}")
                with open(os.path.join(child_dir, "result.json"), encoding="utf-8") as handle:
                    _, code, exc, _, digest, _ = json.load(handle)["attempts"][0]
                part = spans.load(os.path.join(child_dir, "spans.npz"))
                part["doc"][:] = len(attempts)
                span_parts.append(part)
                shutil.copytree(os.path.join(child_dir, "reports"), reports, dirs_exist_ok=True)
            else:
                peak = max(peak, rss)
                digest = worker.store_report(out_path, item, reports)
                if code != 0:
                    with open(err_path, encoding="utf-8", errors="replace") as handle:
                        if "Traceback (most recent call last)" in handle.read():
                            exc = "uncaught exception"
            attempts.append([item, None if exc else code, exc, elapsed * 1e3, digest, traced])
        spawns.append(calibration.spawn_sample(env, root))
        scales += [calibration.SPAWN_NOMINAL_MS / spawns[-1]] * (len(attempts) - len(scales))
        k += 1
    return (attempts, scales, statistics.median(spawns), peak,
            spans.concatenate(span_parts) if trace else None)


def judge_attempts(items: list, attempts: list, workdir: str, cache: str) -> list:
    """A check.Verdict per attempt.  Each distinct report is judged once;
    references are built only for documents that wrote one.  A document whose
    reference fails its certificate is unjudged and counts as failed."""
    refs, verdicts, out = {}, {}, []
    for item, code, exc, _, digest, _ in attempts:
        key = (item, code, exc, digest)
        if key not in verdicts:
            text = None
            if digest is not None:
                if item not in refs:
                    try:
                        refs[item] = cached_reference(items[item], cache)
                    except reference.ReferenceError as err:
                        refs[item] = err
                path = os.path.join(workdir, "reports", f"{item}-{digest}.json")
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            if isinstance(refs.get(item), reference.ReferenceError):
                verdicts[key] = check.Verdict(False, 0.0, f"unjudged: {refs[item]}")
            else:
                verdicts[key] = check.judge(items[item], refs.get(item), code, text)
        out.append(verdicts[key])
    return out


def build_reference(item: dict):
    argv = item["argv"]
    command = argv[0]
    x0 = None
    if command == "energy":
        x0 = [float(v) for v in argv[1].partition("=")[2].split(",")]
    horizon = float(argv[argv.index("--finite") + 1]) if "--finite" in argv else None
    return reference.build_reference(item["doc"], horizon=horizon, x0=x0,
                                     full=command in ("analyze", "energy"))


def cached_reference(item: dict, cache: str):
    """build_reference, kept in ``cache`` between runs.  The key covers the
    document, its command and the source of reference.py."""
    with open(reference.__file__, "rb") as handle:
        source = handle.read()
    key = hashlib.sha256(json.dumps([item["doc"], item["argv"]], sort_keys=True).encode()
                         + source).hexdigest()[:32]
    path = os.path.join(cache, key)
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return reference.loads(handle.read())
    ref = build_reference(item)
    os.makedirs(cache, exist_ok=True)
    with open(path + ".tmp", "wb") as handle:
        handle.write(reference.dumps(ref))
    os.replace(path + ".tmp", path)
    return ref


def tail(values: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} samples are too few for a tail with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def documents(records: list) -> dict:
    """Per distinct document: passed on every attempt, lowest digits, and
    fastest attempt in ms (its wall time)."""
    out = {}
    for r in records:
        passed, digits, best = out.get(r["item"], (True, math.inf, math.inf))
        out[r["item"]] = (passed and r["passed"], min(digits, r["digits"]), min(best, r["ms"]))
    return out


def end_to_end(records: list, setup_s: float, peak_rss: float, setup_scale: float) -> tuple:
    """The end-to-end metrics, from calibrated timings."""
    docs = documents(records).values()
    best = [b for _, _, b in docs]
    # the tail is over documents when there are enough of them to put it
    # above the median, else over attempts
    samples, kind = (best, "documents") if len(best) > 2 * TAIL_BEYOND else (
        [r["ms"] for r in records], "attempts")
    tail_ms, percentile = tail(samples)
    good = sum(passed for passed, _, _ in docs)
    digits = [d for passed, d, _ in docs if passed] or [0.0]
    metrics = {
        "setup_s": (setup_s * setup_scale, "s"),
        "doc_ms_p50": (statistics.median(best), "ms"),
        "doc_ms_tail": (tail_ms, "ms"),
        "good_docs_per_s": (good / (sum(best) / 1e3), "1/s"),
        # half a document when none failed: the resolution of the run
        "fail_frac": (max(len(docs) - good, 0.5) / len(docs), "fraction"),
        "digits_min": (min(digits), "digits"),
        "digits_p50": (statistics.median(digits), "digits"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return metrics, f"doc_ms_tail is p{percentile:.1f} of {len(samples)} {kind}"


def per_layer(records: list, span_data, import_breakdown: dict, calibration_ms: float) -> dict:
    traced = {i: r["raw_ms"] for i, r in enumerate(records) if r["traced"]}
    untraced = [r for r in records if not r["traced"]]
    summary = spans.summarize(span_data, traced)
    metrics = {}
    for layer, figures in summary["layers"].items():
        metrics[f"{layer}.calls"] = (figures["calls"], "count")
        metrics[f"{layer}.self_ms"] = (figures["self_ms"], "ms")
        metrics[f"{layer}.share"] = (figures["share"], "fraction")
        metrics[f"{layer}.errors"] = (figures["errors"], "count")
    functions = summary["functions"]
    empty = {"calls": 0.0, "ms": 0.0, "errors": 0.0, "extended": 0.0}
    for name in FUNCTION_MS:
        metrics[f"{name}.ms"] = (functions.get(name, empty)["ms"], "ms")
    metrics["spectrum.find_roots.errors"] = (
        functions.get("spectrum.find_roots", empty)["errors"], "count")
    finite_inverse = functions.get("inverse.finite_inverse", empty)
    metrics["inverse.finite_inverse.calls"] = (finite_inverse["calls"], "count")
    metrics["inverse.finite_inverse.extended_calls"] = (finite_inverse["extended"], "count")
    calls = finite_inverse["calls"]
    metrics["inverse.finite_inverse.ok_ratio"] = (
        1.0 - finite_inverse["errors"] / calls if calls else 0.0, "fraction")
    metrics["gramians.homogeneous_decomposition.calls"] = (
        functions.get("gramians.homogeneous_decomposition", empty)["calls"], "count")
    sizes = [r["bytes"] for r in records if r["bytes"] is not None]
    metrics["cli.report_bytes"] = (statistics.mean(sizes) if sizes else 0.0, "bytes")
    for name, value in import_breakdown.items():
        metrics[name] = (value, "ms")
    for n in generate.LADDER_SIZES:
        group = [r for r in untraced if r["n"] == n]
        docs = documents(group).values()
        metrics[f"n{n}.docs"] = (len(docs), "count")
        metrics[f"n{n}.ms_p50"] = (
            statistics.median([b for _, _, b in docs]) if docs else 0.0, "ms")
        metrics[f"n{n}.fail_frac"] = (
            sum(not passed for passed, _, _ in docs) / len(docs) if docs else 0.0, "fraction")
        # in the size envelope a failed document counts as 0 digits
        metrics[f"n{n}.digits_min"] = (
            min(d if passed else 0.0 for passed, d, _ in docs) if docs else 0.0, "digits")
    traced_ms = sum(r["raw_ms"] for r in records if r["traced"])
    untraced_ms = sum(r["raw_ms"] for r in untraced)
    metrics["trace.overhead_frac"] = (traced_ms / untraced_ms - 1.0, "fraction")
    metrics["calibration.loop_ms"] = (calibration_ms, "ms")
    return metrics


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gramspec", "__init__.py")):
        raise BenchError("run from the root of a gramspec checkout (src/gramspec is missing)")
    env = child_env(root)
    workdir = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    items = generate.plan(args.workload, args.seed)
    plan_path, plan = write_plan(items, workdir)

    if args.trace:
        import_breakdown = measure_import_breakdown(env, root)
    else:
        setup_s, setup_scale = measure_setup(env, root)

    loop = run_in_process if args.workload in IN_PROCESS else run_cold
    attempts, scales, calibration_ms, peak_rss, span_data = loop(
        plan, plan_path, workdir, args.seconds, args.trace, env, root)

    verdicts = judge_attempts(items, attempts, workdir,
                              os.path.join(root, ".bench_work", "references"))
    records = []
    for (item, _, _, ms, digest, traced), scale, verdict in zip(attempts, scales, verdicts):
        path = os.path.join(workdir, "reports", f"{item}-{digest}.json")
        records.append({
            "item": item, "n": items[item]["n"], "ms": ms * scale, "raw_ms": ms,
            "traced": bool(traced),
            "passed": verdict.passed, "digits": verdict.digits, "reason": verdict.reason,
            "bytes": os.path.getsize(path) if digest is not None else None,
        })

    if args.trace:
        metrics = per_layer(records, span_data, import_breakdown, calibration_ms)
        note = f"{sum(r['traced'] for r in records)} traced attempts"
    else:
        metrics, note = end_to_end(records, setup_s, peak_rss, setup_scale)
        unscaled = statistics.median(
            b for _, _, b in documents([dict(r, ms=r["raw_ms"]) for r in records]).values())
        note += (f"; unscaled setup_s {setup_s:.4f}, doc_ms_p50 {unscaled:.4f}; "
                 f"scale {setup_scale:.4f} (set-up), {statistics.median(scales):.4f} (loop)")
    # operations are documents: a document fails when any of its attempts failed
    docs = documents(r for r in records if not r["traced"])
    failed = sum(not passed for passed, _, _ in docs.values())
    reasons = Counter(f"{items[r['item']]['kind']} n={r['n']}: {r['reason'].split(';')[0]}"
                      for r in records if not r["passed"])
    print(f"{args.workload} seed {args.seed}: {len(records)} attempts of {len(docs)} "
          f"documents, {failed} documents failed; {note}")
    for reason, count in reasons.most_common(8):
        print(f"  {count:4d} x {reason}")
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite")
    return {
        "correct": not any(r["reason"].startswith("unjudged") for r in records),
        "attempted": len(docs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
