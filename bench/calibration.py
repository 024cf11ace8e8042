"""Calibration: scales the benchmark's timings to one machine speed.

On a shared host the speed of the processor drifts by 20-40% over tens of
seconds, for whole runs at a time, and the fastest attempt of a document
drifts with it.  The benchmark therefore times fixed work, which owes
nothing to gramspec, in between and scales each timing by how fast that
work ran in the same run.  A scaled timing is the time at the speed where
the work takes its nominal time.  Two kinds of work are used, each like
the work it calibrates:

- spawn: a fresh ``python -c "import numpy, scipy.linalg"`` process, for
  timings of fresh gramspec processes (set-up and ``cli_cold``), whose
  time is mostly the import of numpy and scipy;
- kernel: in-process Python that executes the compiled code of a few
  standard-library modules and runs small numpy products, for the
  in-process workloads.
"""

from __future__ import annotations

import importlib.util
import marshal
import subprocess
import sys
import time

import numpy as np

# on a quiet 2-vCPU x86-64 VM with CPython 3.11, numpy 2.4 and scipy 1.17
SPAWN_NOMINAL_MS = 270.0
KERNEL_NOMINAL_MS = 5.0
KERNEL_INTERVAL_S = 0.05  # least time between two kernel samples of one loop
KERNEL_MODULES = ("argparse", "ast", "dataclasses", "inspect", "textwrap")


def spawn_sample(env: dict, cwd: str) -> float:
    """Milliseconds a fresh interpreter takes to start and import numpy
    and scipy.linalg.  The wait blocks: a wait with a timeout polls, which
    rounds the time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], env=env, cwd=cwd,
                   check=True, stdin=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def _compiled(name: str) -> bytes:
    origin = importlib.util.find_spec(name).origin
    with open(origin, encoding="utf-8") as handle:
        return marshal.dumps(compile(handle.read(), origin, "exec"))


class Kernel:
    """The in-process kernel and its samples.  A loop calls maybe_sample
    after each visit; samples are taken at most every KERNEL_INTERVAL_S, so
    that fast documents are not swamped by the kernel."""

    def __init__(self):
        self.code = [(name, _compiled(name)) for name in KERNEL_MODULES]
        self.samples = []
        self._last = -KERNEL_INTERVAL_S

    def sample(self) -> float:
        """Milliseconds the kernel takes now."""
        a = np.arange(16.0).reshape(4, 4)
        total = 0.0
        start = time.perf_counter()
        for name, code in self.code:
            exec(marshal.loads(code), {"__name__": f"calibration_{name}"})
        for _ in range(600):
            total += float((a @ a).sum()) + sum(range(50))
        return (time.perf_counter() - start) * 1e3

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= KERNEL_INTERVAL_S:
            self.samples.append(self.sample())
            self._last = time.perf_counter()


def quantile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[round(q * (len(ordered) - 1))]


def scale(samples: list, nominal_ms: float, q: float) -> float:
    """Factor for timings taken alongside ``samples``: the nominal time
    over the samples' q-quantile, below 1 when the machine ran slower."""
    return nominal_ms / quantile(samples, q)
