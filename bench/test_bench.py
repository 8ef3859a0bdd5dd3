"""Smoke tests of the benchmark itself, at tiny sizes.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spaderes  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import ERROR, KNOWN, NUMERIC, OK, WRONG  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class TinyMC(workloads.MonteCarloCRB):
    D_TRUE = (0.3,)
    TRIALS = (60,)


class TinyOracle(workloads.OracleCurves):
    GRID = (0.0, 1.0, 2.0)


class TinyCli(workloads.CliScan):
    COUNTS = (20,)


TINY = {w.name: w for w in (TinyMC(), TinyOracle(), TinyCli())}


def _run_main(monkeypatch, tmp_path, name, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_named_metric_is_emitted_with_its_unit(monkeypatch, tmp_path, name, trace):
    result = _run_main(monkeypatch, tmp_path, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing_boundaries"]["value"] == 0
        assert list(tmp_path.glob("trace-*.npz"))


def test_known_oracle_failures_are_counted_not_hidden(monkeypatch, tmp_path):
    # the tabulated point at d = 2 sigma refuses an answer at the seed: it stays
    # on the grid, is judged KNOWN and printed in fail_frac, but fails no job
    wl = TINY["oracle-curves"]
    job = workloads.Job("oracle", {"psf": "tabulated", "d": 2.0}, 1)
    assert wl.judge(job, wl.execute(job, wl.build_inputs()))[0] == KNOWN
    result = _run_main(monkeypatch, tmp_path, "oracle-curves", 0)
    assert result["correct"] is True and result["failed"] == 0


def _first(wl, command=None):
    return next(j for j in wl.jobs(random.Random(0)) if command in (None, j.command))


def _corrupt_json(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def test_corrupted_simulate_report_is_a_failed_job():
    wl = TINY["mc-crb"]
    job = _first(wl)
    code, text, err = wl.execute(job, None)
    assert wl.judge(job, (code, text, err))[0] == OK

    def shift_estimate(p):
        p["estimates"][0] += 0.5

    assert wl.judge(job, (code, _corrupt_json(text, shift_estimate), err))[0] == WRONG
    assert wl.judge(job, (code, text[: len(text) // 2], err))[0] == WRONG


def test_corrupted_fi_curve_is_a_failed_job():
    wl = TINY["cli-scan"]
    for fmt in ("csv", "json"):
        job = next(
            j for j in wl.jobs(random.Random(0))
            if j.command == "fi-curve" and j.params["format"] == fmt
        )
        code, text, err = wl.execute(job, None)
        assert wl.judge(job, (code, text, err))[0] == OK
        if fmt == "csv":
            lines = text.splitlines()
            cells = lines[5].split(",")
            cells[1] = "%.12g" % (float(cells[1]) * (1 + 1e-6))
            lines[5] = ",".join(cells)
            bad = "\n".join(lines) + "\n"
        else:
            def nudge(p):
                p["rows"][3][1] *= 1 + 1e-6

            bad = _corrupt_json(text, nudge)
        assert wl.judge(job, (code, bad, err))[0] == WRONG


def test_corrupted_d_half_is_a_failed_job():
    wl = TINY["cli-scan"]
    job = _first(wl, "d-half")
    code, text, err = wl.execute(job, None)
    assert wl.judge(job, (code, text, err))[0] == OK

    def nudge(p):
        p["d_half_curve"] *= 1.001

    assert wl.judge(job, (code, _corrupt_json(text, nudge), err))[0] == WRONG


def test_corrupted_oracle_value_is_a_failed_job():
    wl = TINY["oracle-curves"]
    inputs = wl.build_inputs()
    job = workloads.Job("oracle", {"psf": "sinc", "d": 1.0}, 1)
    out = wl.execute(job, inputs)
    assert wl.judge(job, out)[0] == OK
    assert wl.judge(job, {**out, "poisson": out["poisson"] * (1 + 1e-6)})[0] == WRONG
    assert wl.judge(job, {**out, "fi_direct": 1.01 * wl.N_S})[0] == WRONG
    refused = {**out, "thermal": spaderes.NumericError("did not converge")}
    assert wl.judge(job, refused)[0] == NUMERIC
    # a refusal counts as known only at a listed point and by a listed oracle
    known_point = workloads.Job("oracle", {"psf": "sinc", "d": 4.0}, 1)
    known_out = {**wl.execute(known_point, inputs), "tau1_numeric": spaderes.NumericError("no")}
    assert wl.judge(known_point, known_out)[0] == KNOWN
    assert wl.judge(known_point, {**known_out, "thermal": refused["thermal"]})[0] == NUMERIC


def test_cli_exit_codes_map_to_failures():
    wl = TINY["cli-scan"]
    job = _first(wl, "fi-curve")
    assert wl.judge(job, (2, "", "error: usage"))[0] == ERROR
    assert wl.judge(job, (3, "", "error: did not converge"))[0] == NUMERIC


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_alone_fixes_the_jobs(name):
    wl = workloads.WORKLOADS[name]

    def described(seed):
        return [(j.command, j.params) for j in wl.jobs(random.Random(seed))]

    assert described(7) == described(7)
    if name != "oracle-curves":  # its points are the fixed default grid
        assert described(7) != described(8)


@pytest.mark.parametrize("name", ["mc-crb", "cli-scan"])
def test_each_round_redraws_its_jobs_at_the_same_cost(name):
    wl = workloads.WORKLOADS[name]
    rng = random.Random(7)
    first, second = wl.jobs(rng), wl.jobs(rng)
    assert [j.params for j in first] != [j.params for j in second]
    assert [(j.command, j.items) for j in first] == [(j.command, j.items) for j in second]


class _Flaky(workloads.CliScan):
    """Answers differently on every call."""

    calls = 0

    def execute(self, job, inputs):
        self.calls += 1
        return 0, f"output {self.calls}", ""

    def judge(self, job, output):
        return OK, ""


def test_a_job_whose_output_changes_between_runs_fails():
    wl = TINY["cli-scan"]
    job = _first(wl, "fi-curve")
    assert run.Runner(wl, None).repeat(job, wl.execute(job, None)).status == OK
    flaky = _Flaky()
    assert run.Runner(flaky, None).repeat(job, flaky.execute(job, None)).status == WRONG


def test_quantile_weights_all_values():
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert run.quantile([7.0] * 9, 90) == pytest.approx(7.0)
    assert 4.0 < run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 90) < 5.0


def test_times_are_scaled_by_the_kernel_time_around_them():
    meter = hostspeed.Meter()
    meter.samples = [1.0, 4.0]
    assert meter.around(0) == 2.0 and meter.around(1) == 4.0
    job = workloads.Job("fi-curve", {}, 1)
    calm = run.Result(0, job, OK, 0.2, "", 0, kernel=hostspeed.REF_S)
    slowed = run.Result(0, job, OK, 0.5, "", 0, kernel=2.0 * hostspeed.REF_S)
    assert run.typical([calm, slowed, slowed]) == {0: pytest.approx(0.25)}
    setup = {"setup_s": 1.0, "reference_s": 2.0 * hostspeed.REF_IMPORT_S}
    assert run.setup_median([setup], "setup_s") == pytest.approx(0.5)


@pytest.mark.parametrize("kind", ["gaussian", "sinc"])
def test_reference_agrees_with_package_closed_forms(kind):
    tf = spaderes.gaussian_psf(1.0) if kind == "gaussian" else spaderes.sinc_psf(sigma=1.0)
    ds = np.concatenate([[0.0], np.geomspace(1e-4, 5.0, 60)])
    tau, dtau = reference.transmission(kind, ds)
    for d, t, dt in zip(ds, tau, dtau):
        tr = spaderes.tau1_closed(tf, d)
        assert tr.tau1 == pytest.approx(t, rel=1e-12, abs=1e-300)
        assert tr.dtau1_dd == pytest.approx(dt, rel=1e-10, abs=1e-15)


def test_tracer_restores_namespaces_and_reports_missing(monkeypatch):
    boundaries = dict(tracer.BOUNDARIES, **{"gone.layer": ["spaderes.overlap.no_such_function"]})
    monkeypatch.setattr(tracer, "BOUNDARIES", boundaries)
    original = spaderes.tau1_closed
    tf = spaderes.gaussian_psf(1.0)
    with tracer.Tracer() as tr:
        assert spaderes.tau1_closed is not original
        tr.run_job(spaderes.counting.fi_counting_exact, spaderes.SourceScene(tf, 0.5, 10.0))
    assert spaderes.tau1_closed is original and spaderes.overlap.tau1_closed is original
    assert tr.missing == ["spaderes.overlap.no_such_function"]
    own, calls = tr.self_times()["overlap.closed"]
    assert calls == 1 and 0.0 < own
