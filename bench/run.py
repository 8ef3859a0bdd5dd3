"""spaderes benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload {mc-crb,oracle-curves,cli-scan} \\
        --seed N --seconds S --trace {0,1}

Run from a source checkout; the package is imported from ``src/`` next to
this directory, never from an installed copy.  BLAS/OpenMP threads are
pinned to 1 and jobs run one at a time in this process, as a closed loop
from a single client: the next job starts when the previous one returns.

Set-up (import, the workload's inputs, one warm-up job) is timed in
``SETUP_SAMPLES`` fresh interpreters and reported as the median.  After
``WARMUP_S`` of untimed jobs, the run repeats the workload's job set in
rounds until ``--seconds`` have passed; the last round stops there.  Each
round draws the cost-neutral parameters of its jobs afresh and runs them in
a fresh order, both from the seed.  Every job is checked.  The warm-up job
runs once more at the end and must repeat its first output exactly.

Times are reported at a reference host speed.  Other tenants of a shared
host slow a run by up to 80% for minutes at a time, so fixed reference work
(hostspeed.py) is timed next to the benchmark's, and each time is scaled by
the reference's calm time over its time next to it: a kernel between jobs,
and a fresh interpreter's imports around each set-up.  A job's time is the
median of its slot's scaled runs.  The summary lines give the unscaled
fastest times too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced rounds (every layer boundary wrapped, see tracer.py), prints the
per-layer metrics per round, and writes the spans under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"  # before numpy is first imported, here or in a child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-crb", "oracle-curves", "cli-scan")
SETUP_SAMPLES = 5
WARMUP_S = 1.0
TRACE_DIR = ROOT / ".bench_out"


def timed_setup(name: str):
    """Import the package, build the workload's inputs and run its warm-up job."""
    t0 = time.perf_counter()
    import spaderes  # noqa: F401
    import spaderes.cli  # noqa: F401

    t1 = time.perf_counter()
    import workloads  # the benchmark's own code: not part of set-up time

    wl = workloads.WORKLOADS[name]
    t2 = time.perf_counter()
    inputs = wl.build_inputs()
    t3 = time.perf_counter()
    warm = wl.warmup_job()
    output = wl.execute(warm, inputs)
    t4 = time.perf_counter()
    times = {"import_s": t1 - t0, "inputs_s": t3 - t2, "warmup_s": t4 - t3}
    times["setup_s"] = times["import_s"] + times["inputs_s"] + times["warmup_s"]
    return times, wl, inputs, (warm, output)


def probe_setups(name: str) -> list[dict]:
    """timed_setup in SETUP_SAMPLES fresh interpreters, each between two reference imports."""
    import hostspeed

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"]
    setups = []
    before = hostspeed.measure_import()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        after = hostspeed.measure_import()
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        times["reference_s"] = math.sqrt(before * after)
        setups.append(times)
        before = after
    return setups


class Result(NamedTuple):
    slot: int  # position of the job in its round's job set; -1 for the repeat check
    job: object
    status: str
    seconds: float
    detail: str
    bytes_out: int
    kernel: float = math.nan  # reference kernel seconds around the job (hostspeed.py)


class Runner:
    """Runs, times and checks the jobs of a workload, round after round."""

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs

    def run(self, slot, job, wrap=None):
        """Run, time and judge one job; return (result, output or None if it raised)."""
        from workloads import ERROR

        t0 = time.perf_counter()
        try:
            if wrap is None:
                output = self.wl.execute(job, self.inputs)
            else:
                output = wrap(self.wl.execute, job, self.inputs)
        except Exception as exc:  # a crashing job is a failed job; the loop goes on
            seconds = time.perf_counter() - t0
            return Result(slot, job, ERROR, seconds, f"{type(exc).__name__}: {exc}", 0), None
        seconds = time.perf_counter() - t0
        status, detail = self.wl.judge(job, output)
        return Result(slot, job, status, seconds, detail, self.wl.bytes_out(output)), output

    def repeat(self, job, first_output) -> Result:
        """Run `job` again; its output must equal `first_output` exactly."""
        from workloads import WRONG

        result, output = self.run(-1, job)
        fingerprint = self.wl.fingerprint
        if output is not None and result.status != WRONG and fingerprint(output) != fingerprint(first_output):
            result = result._replace(status=WRONG, detail="output differs from the job's first run")
        return result

    def rounds(self, rng, seconds, tracer=None):
        """Rounds of the job set, each freshly drawn and shuffled, until `seconds` have passed.

        Without a tracer the last round stops when the time is up; every slot
        has run at least once by then.  With a tracer each round runs whole,
        plain and then traced with the same jobs in the same order, so
        per-round counts are exact.  The reference kernel is timed between
        plain jobs, and each plain result carries the kernel time around it.
        Returns (plain results, traced results, number of whole rounds)."""
        import hostspeed

        meter = hostspeed.Meter()
        plain, marks, traced = [], [], []
        rounds = 0
        start = time.perf_counter()

        def time_up():
            return time.perf_counter() - start >= seconds

        while rounds == 0 or not time_up():
            jobs = self.wl.jobs(rng)
            order = list(range(len(jobs)))
            rng.shuffle(order)
            for i in order:
                if tracer is None and rounds and time_up():
                    break
                marks.append(meter.tick(plain[-1].seconds if plain else 0.0))
                plain.append(self.run(i, jobs[i])[0])
            else:
                if tracer is not None:
                    with tracer:
                        traced += [self.run(i, jobs[i], tracer.run_job)[0] for i in order]
                rounds += 1
        meter.close()
        plain = [r._replace(kernel=meter.around(m)) for r, m in zip(plain, marks)]
        return plain, traced, rounds

    def warm_up(self, rng, seconds):
        start = time.perf_counter()
        jobs = self.wl.jobs(rng)
        rng.shuffle(jobs)
        for job in jobs:
            if time.perf_counter() - start >= seconds:
                break
            self.wl.execute(job, self.inputs)


def fastest(results) -> dict[int, float]:
    """Each slot's fastest run."""
    best: dict[int, float] = {}
    for r in results:
        best[r.slot] = min(r.seconds, best.get(r.slot, float("inf")))
    return best


def quantile(values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of all order statistics.

    The usual estimate interpolates between two values.  On `mc-crb` the median
    falls between the dearest Gaussian and the cheapest sinc slot, each the
    median of two or three runs, and spread 9-11% over ten runs; this one
    averages over several slots and spreads less."""
    import numpy as np
    from scipy.special import betainc  # the beta distribution's CDF

    x = np.sort(values)
    n, p = x.size, q / 100.0
    weights = np.diff(betainc((n + 1) * p, (n + 1) * (1.0 - p), np.arange(n + 1) / n))
    return float(weights @ x)


def metric(value, unit):
    return {"value": value, "unit": unit}


def typical(results) -> dict[int, float]:
    """Each slot's median time at the reference host speed (hostspeed.py)."""
    import hostspeed

    scaled: dict[int, list[float]] = {}
    for r in results:
        scaled.setdefault(r.slot, []).append(r.seconds * hostspeed.REF_S / r.kernel)
    return {slot: statistics.median(times) for slot, times in scaled.items()}


def setup_median(setups, key: str) -> float:
    """Median over the set-up samples of `key`, each at the reference host speed."""
    import hostspeed

    return statistics.median(s[key] * hostspeed.REF_IMPORT_S / s["reference_s"] for s in setups)


def end_to_end(results, setups) -> dict:
    from workloads import OK

    job_s = typical(results)
    failed_slots = {r.slot for r in results if r.status != OK}
    items = {r.slot: r.job.items for r in results if r.slot not in failed_slots}
    job_ms = [s * 1e3 for s in job_s.values()]
    return {
        "setup_s": metric(setup_median(setups, "setup_s"), "s"),
        "items_per_s": metric(sum(items.values()) / sum(job_s.values()), "1/s"),
        "job_ms_p50": metric(quantile(job_ms, 50), "ms"),
        "job_ms_p90": metric(quantile(job_ms, 90), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tr, rounds, plain, traced, setups) -> dict:
    spans = tr.self_times()
    counts = tr.counts
    m = {
        "setup.import_s": metric(setup_median(setups, "import_s"), "s"),
        "setup.inputs_s": metric(setup_median(setups, "inputs_s"), "s"),
    }
    for name in tr.names[1:]:
        own, calls = spans[name]
        m[name + "_s"] = metric(own / rounds, "s/round")
        m[name + ".calls"] = metric(calls / rounds, "calls/round")

    def ratio(num, den):
        return num / den if den else 0.0

    estimates = spans["montecarlo.estimate"][1]
    m["cli.bytes_out"] = metric(sum(r.bytes_out for r in traced) / rounds, "B/round")
    m["montecarlo.distinct_input_ratio"] = metric(
        ratio(counts["estimate_distinct"], counts["estimate_counting"]), "ratio"
    )
    m["montecarlo.tau1_per_estimate"] = metric(ratio(counts["estimate_tau1"], estimates), "calls/call")
    m["psf.quad_failed"] = metric(counts["psf.quad.failed"] / rounds, "fails/round")
    m["integrate.nodes"] = metric(counts["gl_nodes"] / rounds, "nodes/round")
    m["counting.pmf_terms"] = metric(counts["pmf_terms"] / rounds, "terms/round")
    m["resolution.curve_evals"] = metric(
        ratio(counts["curve_evals"], spans["resolution.d_half"][1]), "evals/call"
    )
    t_plain, t_traced = sum(fastest(plain).values()), sum(fastest(traced).values())
    m["trace.overhead_frac"] = metric(t_traced / t_plain - 1.0, "ratio")
    m["trace.missing_boundaries"] = metric(len(tr.missing), "count")
    return m


def unscaled(results, setups) -> str:
    """The end-to-end times as measured, before scaling to the reference speed."""
    import hostspeed

    job_ms = [s * 1e3 for s in fastest(results).values()]
    kernel_ms = statistics.median(r.kernel for r in results) * 1e3
    setup_s = statistics.median(s["setup_s"] for s in setups)
    imports_s = statistics.median(s["reference_s"] for s in setups)
    return (
        f"unscaled: setup_s {setup_s:.4g} s, reference imports {imports_s:.4g} s "
        f"(calm {hostspeed.REF_IMPORT_S:.3g} s); fastest job_ms_p50 {quantile(job_ms, 50):.4g} ms, "
        f"p90 {quantile(job_ms, 90):.4g} ms, kernel {kernel_ms:.3g} ms at median "
        f"(calm {hostspeed.REF_S * 1e3:.3g} ms)"
    )


def summarize(wl, results, rounds, seed, metrics) -> None:
    """Human-readable lines: counts, failures, and the metrics with items named per workload."""
    from workloads import ERROR, KNOWN, NUMERIC, OK, WRONG

    n = len(results)
    by_status = {s: sum(1 for r in results if r.status == s) for s in (OK, KNOWN, NUMERIC, WRONG, ERROR)}
    unanswered = n - by_status[OK]
    slots = 1 + max(r.slot for r in results)
    print(
        f"{wl.name} seed {seed}: {slots} jobs, {rounds} whole rounds, {n} runs with the repeat, "
        f"{sum(r.seconds for r in results):.2f} s busy; fail_frac {unanswered}/{n} = {unanswered / n:.4f} "
        f"({by_status[KNOWN]} known NumericError, not failed; {by_status[NUMERIC]} other NumericError, "
        f"{by_status[WRONG]} wrong outputs, {by_status[ERROR]} other errors)"
    )
    alias = {"items_per_s": f"{wl.item}_per_s"}
    print("  " + ", ".join(f"{alias.get(k, k)} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()))
    shown = set()
    for r in results:
        if r.status != OK and (r.status, r.detail) not in shown and len(shown) < 5:
            shown.add((r.status, r.detail))
            print(f"  {r.status}: {r.job.command} {r.job.params}: {r.detail[:300]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spaderes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'spaderes'}; run from a spaderes checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        times, _, _, _ = timed_setup(args.workload)
        print(json.dumps(times))
        return 0

    setups = probe_setups(args.workload)
    _, wl, inputs, (warm, warm_output) = timed_setup(args.workload)
    from workloads import ERROR, KNOWN, OK, WRONG

    rng = random.Random(args.seed)
    runner = Runner(wl, inputs)
    runner.warm_up(rng, WARMUP_S)
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        plain, traced, rounds = runner.rounds(rng, args.seconds, tr)
        jobs = [json.dumps({"command": r.job.command, **r.job.params}) for r in traced]
        tr.write(TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.npz", jobs)
        if tr.missing:
            print("missing boundaries: " + ", ".join(tr.missing), file=sys.stderr)
        metrics = per_layer(tr, rounds, plain, traced, setups)
        results = plain + traced
    else:
        results, _, rounds = runner.rounds(rng, args.seconds)
        metrics = end_to_end(results, setups)
        print(unscaled(results, setups))
    results.append(runner.repeat(warm, warm_output))
    summarize(wl, results, rounds, args.seed, metrics)
    failed = sum(1 for r in results if r.status not in (OK, KNOWN))
    correct = not any(r.status in (WRONG, ERROR) for r in results)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
