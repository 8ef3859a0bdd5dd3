"""Per-layer tracing from outside the package.

The tracer replaces each boundary function with a timing wrapper in every
``spaderes`` module namespace that holds it, so callers that imported the
function by name see the wrapper too, and restores the originals afterwards.
Each call becomes a span (boundary, parent span, job, start, end) kept in
flat arrays; self time is a span's duration minus its direct children's.
Counter-only hooks add exact work counts at the same boundaries.  A boundary
function that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import spaderes

# metric name -> functions timed as that boundary, by their home module
BOUNDARIES = {
    "cli.dispatch": ["spaderes.cli.main"],
    "cli.write": ["spaderes.cli.write_table", "spaderes.cli.write_json"],
    "montecarlo.sample": ["spaderes.montecarlo.simulate_counts", "spaderes.quadrature.sample_quadrature"],
    "montecarlo.estimate": [
        "spaderes.montecarlo.ml_estimate_counting",
        "spaderes.montecarlo.ml_estimate_quadrature",
    ],
    "overlap.closed": ["spaderes.overlap.tau1_closed"],
    "overlap.numeric": ["spaderes.overlap.tau1_numeric"],
    "psf.quad": ["spaderes.psf.quad_over_psf"],
    "integrate.gl": ["spaderes.integrate.composite_gauss_legendre"],
    "direct_imaging.fi_direct": ["spaderes.direct_imaging.fi_direct"],
    "counting.oracle": ["spaderes.counting.fi_from_pmf"],
    "counting.fi_exact": ["spaderes.counting.fi_counting_exact", "spaderes.counting.fi_counting_small_d"],
    "quadrature.fi": [
        "spaderes.quadrature.fi_homodyne",
        "spaderes.quadrature.fi_heterodyne",
        "spaderes.quadrature.fi_homodyne_small_d",
        "spaderes.quadrature.fi_heterodyne_small_d",
    ],
    "resolution.d_half": ["spaderes.resolution.d_half_from_curve"],
}
# functions counted, not timed: counter, boundary the call must run inside,
# and the amount a call adds given its result
COUNTED = {
    "spaderes.overlap.tau1_exact": ("estimate_tau1", "montecarlo.estimate", lambda result: 1),
    # fi_from_pmf sums the terms k = 0 .. truncation_limit
    "spaderes.counting.truncation_limit": ("pmf_terms", "counting.oracle", lambda limit: limit + 1),
}
JOB = "job"


def _resolve(path: str):
    module_name, _, attr = path.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == "spaderes" or name.startswith("spaderes.")]


class Tracer:
    """Spans and counters of traced jobs.

    Boundaries are wrapped while the tracer is entered as a context manager;
    it may be entered many times, and its spans and counts accumulate."""

    def __init__(self):
        self.names = [JOB] + list(BOUNDARIES)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.job = -1
        self.counts = Counter()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._distinct: set = set()

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.t0)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_job.append(self.job)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, nid: int) -> bool:
        return any(self.span_name[i] == nid for i in self.stack[1:])

    def run_job(self, fn, *args):
        """Call fn(*args) as one job: a root span that every boundary span descends from."""
        self.job += 1
        self._distinct = set()
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.counts["estimate_distinct"] += len(self._distinct)

    # -- hooks adding exact counts at boundaries ---------------------------

    def _hook(self, name: str, fn):
        if name == "integrate.gl":
            sig = inspect.signature(fn)

            def hook(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    self.counts["gl_nodes"] += bound.arguments["n_panels"] * bound.arguments["n_nodes"]
                except KeyError:  # a changed signature loses the count, not the run
                    pass
                return args, kwargs

            return hook
        if name == "montecarlo.estimate" and fn.__name__ == "ml_estimate_counting":
            # quadrature estimates take real-valued samples, which never repeat
            def hook(args, kwargs):
                key = tuple(
                    float(a) if np.isscalar(a) else id(a) for a in list(args) + list(kwargs.values())
                )
                self._distinct.add(key)
                self.counts["estimate_counting"] += 1
                return args, kwargs

            return hook
        if name == "resolution.d_half":
            def hook(args, kwargs):
                fi_fn = args[0]

                def counted(d):
                    self.counts["curve_evals"] += 1
                    return fi_fn(d)

                return (counted,) + tuple(args[1:]), kwargs

            return hook
        return None

    def _timed(self, name: str, fn):
        nid = self.names.index(name)
        hook = self._hook(name, fn)
        failed = name + ".failed"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                if hook is not None:
                    args, kwargs = hook(args, kwargs)
                return fn(*args, **kwargs)
            except spaderes.NumericError:
                self.counts[failed] += 1
                raise
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, counter: str, scope: str, amount, fn):
        scope_id = self.names.index(scope)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.inside(scope_id):
                self.counts[counter] += amount(result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, original, wrapper) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        self.missing = []
        for name, paths in BOUNDARIES.items():
            for path in paths:
                fn = _resolve(path)
                if fn is None:
                    self.missing.append(path)
                else:
                    self._patch(fn, self._timed(name, fn))
        for path, (counter, scope, amount) in COUNTED.items():
            fn = _resolve(path)
            if fn is None:
                self.missing.append(path)
            else:
                self._patch(fn, self._counted(counter, scope, amount, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Boundary name -> (self time in s, calls)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        own = np.bincount(names, weights=dur - children, minlength=k)
        calls = np.bincount(names, minlength=k)
        return {n: (float(own[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def write(self, path: Path, jobs: list[str]) -> None:
        """Write every span, the boundary names and one description per job to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            jobs=np.array(jobs),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_job=np.frombuffer(self.span_job, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=float),
            t1=np.frombuffer(self.t1, dtype=float),
        )
