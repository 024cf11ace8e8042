"""Process that runs gramspec documents in-process, one at a time.

    python bench/worker.py --plan PLAN --workdir DIR --seconds S --trace 0|1
    python bench/worker.py --plan PLAN --workdir DIR --item K --trace 1

The first form is the closed loop of the in-process workloads: it calls
``gramspec.cli.main`` on the plan's documents in order, cycling, and stops
after S seconds once every document ran and MIN_VISITS visits were made.
With tracing on, each document runs untraced and traced, alternating which
goes first, so the two can be compared.  After each visit the calibration
kernel runs, at most every 50 ms (calibration.py).  The second form runs
one document traced and exits (the traced variant of a
``python -m gramspec.cli`` process).  Either writes ``result.json`` and, when tracing, ``spans.npz``
into DIR; each distinct report is kept in DIR/reports for the checker.
Only the standard library is imported before gramspec, so the import time
measured here is gramspec's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time

MIN_VISITS = 21  # enough for a tail with ten attempts beyond it


def done(plan: list, visits: int, elapsed: float, seconds: float) -> bool:
    """Whether a closed loop that made ``visits`` document visits may stop:
    once every document ran, MIN_VISITS visits were made and ``seconds``
    passed."""
    return visits >= max(len(plan), MIN_VISITS) and elapsed >= seconds


def store_report(path: str, item: int, reports_dir: str) -> str | None:
    """Move a written report to reports_dir under its content hash; returns
    the hash, or None when no report was written."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    digest = hashlib.sha1(data).hexdigest()[:16]
    target = os.path.join(reports_dir, f"{item}-{digest}.json")
    if not os.path.exists(target):
        with open(target, "wb") as handle:
            handle.write(data)
    return digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--item", type=int, default=None)
    args = parser.parse_args(argv)

    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    reports = os.path.join(args.workdir, "reports")
    os.makedirs(reports, exist_ok=True)
    out_path = os.path.join(args.workdir, "report.json")

    t0 = time.perf_counter()
    import gramspec.cli as cli
    t1 = time.perf_counter()
    import calibration

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.add_span("setup.import", t0, t1, -1 if args.item is None else 0)

    attempts, kernel = [], calibration.Kernel()
    sink = io.StringIO()

    def attempt(k: int, traced: bool, attempt_id: int) -> None:
        entry = plan[k]
        call = entry["argv"] + [entry["path"], "--output", out_path]
        if traced:
            tracer.doc_id = attempt_id
            tracer.install()
        exc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                code = cli.main(call)
        except Exception as err:  # an exception the CLI does not map to an exit code
            code, exc = None, type(err).__name__
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        sink.seek(0)
        sink.truncate()
        digest = store_report(out_path, k, reports)
        attempts.append([k, code, exc, elapsed * 1e3, digest, traced])

    if args.item is not None:
        attempt(args.item, True, 0)
    else:
        start = time.perf_counter()
        k = 0
        while not done(plan, k, time.perf_counter() - start, args.seconds):
            item = k % len(plan)
            # with tracing, alternate which of the pair runs first
            order = (False, True) if k % 2 == 0 else (True, False)
            for traced in order if args.trace else (False,):
                attempt(item, traced, len(attempts))
            kernel.maybe_sample()
            k += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"attempts": attempts, "peak_rss_mb": peak_rss_mb, "kernel_ms": kernel.samples}
    if tracer is not None:
        tracer.save(os.path.join(args.workdir, "spans.npz"))
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
