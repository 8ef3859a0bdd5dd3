"""The host's speed during a run, from fixed reference work timed next to the benchmark's.

On a shared host the other tenants slow every process down: the same job
runs 10-40% slower in bursts of seconds, and whole runs 40-80% slower in
phases lasting seconds to minutes.  Repeating a job over several rounds
evens out the bursts but not the phases, so times from different runs
cannot be compared as they are.  Dividing a time by the time of fixed
reference work measured next to it removes the slowdown both share.

Jobs are scaled by a reference kernel timed between them all through a run.
It mixes the kinds of work the workloads do: interpreter-bound float loops
and string formatting, numpy operations on mid-sized vectors, and scipy root
finding and adaptive quadrature on Python callbacks.  Set-up is mostly
importing numpy and scipy in a fresh interpreter, which slows with the host
less than the kernel does; it is scaled by a fresh interpreter importing the
same third-party modules.  Neither reference touches ``spaderes``, so no
change to the package moves them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import integrate, optimize

# The kernel's time, in seconds, on the 2.1 GHz Xeon vCPU of the baseline
# (bench/BASELINE.md) in a calm stretch.  A job that takes t seconds between
# kernel runs of k seconds is reported as t * REF_S / k: its time at that speed.
REF_S = 0.0030
# The calm time of a fresh interpreter importing IMPORTS: the modules spaderes
# imports from outside the standard library, and the two its CLI adds.
REF_IMPORT_S = 0.50
IMPORTS = ("json", "argparse", "numpy", "scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special")
EVERY_S = 0.25  # job time between two kernel measurements
REPS = 3  # kernel runs per measurement; the fastest counts

_X = np.linspace(0.0, 4.0, 2000)


def kernel() -> float:
    s = 0.0
    for i in range(2000):
        s += math.sin(i * 1e-3) * math.exp(-i * 1e-4)
    s += len(json.dumps(["%.12g" % (i / 7.0) for i in range(600)]))
    for i in range(60):
        s += float(np.sum(np.exp(-_X * (1.0 + i * 1e-2)) * np.cos(_X)))
    for i in range(20):
        s += integrate.quad(lambda x: math.exp(-x * x) * math.cos(i * x), 0.0, 3.0)[0]
        s += optimize.brentq(lambda x: x**3 - 2.0 - i * 1e-2, 0.0, 3.0)
    return s


def measure() -> float:
    """Seconds of the fastest of REPS kernel runs."""
    best = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Meter:
    """Times the kernel between jobs, once every EVERY_S of job time."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = math.inf

    def tick(self, busy_s: float) -> int:
        """Count `busy_s` more seconds of jobs and time the kernel if it is due.

        Returns the index of the latest measurement: the one before the next job."""
        self._busy += busy_s
        if self._busy >= EVERY_S:
            self.samples.append(measure())
            self._busy = 0.0
        return len(self.samples) - 1

    def close(self) -> None:
        """Time the kernel after the last job."""
        self.samples.append(measure())

    def around(self, i: int) -> float:
        """Kernel seconds around the jobs between measurement i and the next one."""
        j = min(i + 1, len(self.samples) - 1)
        return math.sqrt(self.samples[i] * self.samples[j])


def measure_import() -> float:
    """Seconds a fresh interpreter takes to import IMPORTS."""
    code = f"import time; t = time.perf_counter(); import {', '.join(IMPORTS)}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout)
