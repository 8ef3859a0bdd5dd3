"""Simulated experiments against the Cramer-Rao benchmark."""

import gc
import json
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import ks_2samp

import spaderes.montecarlo as mc
import spaderes.quadrature as qd
from spaderes.cli import main
from spaderes.counting import NO_NOISE, NoiseModel, SourceScene, THERMAL, mean_count
from spaderes.errors import BudgetError, NumericError, ValidationError
from spaderes.montecarlo import (
    MAX_POINTS,
    Experiment,
    TrialReport,
    _analytic_branch,
    _invert_tau1,
    _tau_branch,
    ml_estimate_counting,
    ml_estimate_quadrature,
    run_crb_experiment,
    simulate_counts,
)
from spaderes.overlap import tau1_closed, tau1_exact, tau1_value
from spaderes.psf import gaussian_psf, load_tabulated, sinc_psf
from spaderes.quadrature import HETERODYNE, HOMODYNE
from spaderes.resolution import _brentq_lockstep

GAUSS = gaussian_psf(1.0)
SNR4 = NoiseModel.from_snr(1e4, 100.0)


def experiment(d=0.3, n_s=100.0, noise=SNR4, **kw):
    scene = SourceScene(GAUSS, d, n_s, kw.pop("statistics", "poisson"))
    return Experiment(scene, noise, **kw)


def test_count_totals_match_poisson_moments():
    exp = experiment(frames=400, trials=4000, seed=0)
    totals = simulate_counts(exp)
    kbar = mean_count(exp.scene, exp.noise)
    mean, var = 400 * kbar, 400 * kbar
    assert abs(totals.mean() - mean) < 4.0 * np.sqrt(var / 4000)
    assert totals.var() == pytest.approx(var, rel=0.1)


def test_count_totals_match_thermal_moments():
    exp = experiment(statistics=THERMAL, frames=400, trials=4000, seed=0)
    totals = simulate_counts(exp)
    kbar = mean_count(exp.scene, exp.noise)
    var = 400 * kbar * (1.0 + kbar)
    assert abs(totals.mean() - 400 * kbar) < 4.0 * np.sqrt(var / 4000)
    assert totals.var() == pytest.approx(var, rel=0.1)


def test_dark_scene_yields_no_counts():
    exp = experiment(d=0.0, noise=NO_NOISE, frames=50, trials=20, seed=3)
    assert not simulate_counts(exp).any()


def _per_trial_reference(exp, seed):
    """Each trial's statistic as the per-frame draws give it: one spawned stream per
    trial, M Poisson or geometric counts summed, or q M normals pooled in a mean square."""
    kbar = mean_count(exp.scene, exp.noise)
    q = {HOMODYNE: 1, HETERODYNE: 2}.get(exp.measurement)
    if q is not None:
        share = 1.0 / q
        std = np.sqrt(0.5 + share * exp.scene.n_s * tau1_closed(exp.scene.tf, exp.scene.d).tau1)
    out = []
    for stream in np.random.SeedSequence(seed).spawn(exp.trials):
        rng = np.random.default_rng(stream)
        if q is not None:
            out.append(np.mean(rng.normal(0.0, std, size=(exp.frames, q)) ** 2))
        elif exp.scene.statistics == THERMAL:
            out.append((rng.geometric(1.0 / (kbar + 1.0), size=exp.frames) - 1).sum())
        else:
            out.append(rng.poisson(kbar, size=exp.frames).sum())
    return np.array(out)


@pytest.mark.parametrize(
    "measurement, statistics",
    [("counting", "poisson"), ("counting", THERMAL), (HOMODYNE, "poisson"),
     (HETERODYNE, "poisson")],
    ids=["poisson", "thermal", "homodyne", "heterodyne"],
)
def test_statistic_law_matches_per_frame_draws(measurement, statistics):
    # the one-call draw from the statistic's closed-form law against the sum
    # of per-frame draws; the KS threshold p > 1e-3 was fixed before running
    exp = experiment(d=0.3, measurement=measurement, statistics=statistics,
                     frames=100, trials=20_000, seed=1)
    drawn = mc.MEASUREMENTS[measurement].sample(exp)
    assert drawn.shape == (20_000,)
    assert ks_2samp(drawn, _per_trial_reference(exp, seed=2)).pvalue > 1e-3


def _assert_same_report(a, b):
    """Field by field: reports compare by identity, their estimates as arrays."""
    for field in fields(TrialReport):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y) if field.name == "estimates" else x == y, field.name


def test_simulation_deterministic():
    exp = experiment(frames=100, trials=50, seed=12)
    assert np.array_equal(simulate_counts(exp), simulate_counts(exp))
    _assert_same_report(run_crb_experiment(exp), run_crb_experiment(exp))


@pytest.mark.parametrize("measurement", ["counting", HOMODYNE, HETERODYNE])
@pytest.mark.parametrize("trials", [1, 30])
def test_report_estimates_are_a_read_only_float_array(measurement, trials):
    noise = SNR4 if measurement == "counting" else NO_NOISE
    exp = experiment(noise=noise, measurement=measurement, frames=20, trials=trials, seed=5)
    rep = run_crb_experiment(exp)
    est = rep.estimates
    assert type(est) is np.ndarray and est.dtype == np.float64 and est.shape == (trials,)
    assert not est.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        est[0] = 1.0
    # two reports of one experiment are two reports
    assert rep == rep and rep != run_crb_experiment(exp)


def test_ml_inversion_boundaries():
    scene = SourceScene(GAUSS, 0.3, 100.0)
    d_peak, _ = _tau_branch(GAUSS)
    # background-only total pins the estimate at zero
    nb_total = int(round(100 * SNR4.n_b))
    assert ml_estimate_counting(nb_total, 100, scene, SNR4) == 0.0
    # totals past the transmission peak pin it at the peak separation
    peak_total = int(np.ceil(100 * 100.0 * np.exp(-1.0))) + 50
    d_hat = ml_estimate_counting(peak_total, 100, scene, NO_NOISE)
    assert d_hat == d_peak == pytest.approx(2.0, rel=1e-6)
    totals = np.array([0, nb_total, peak_total, 10 * peak_total])
    assert ml_estimate_counting(totals, 100, scene, SNR4).tolist() == [0.0, 0.0, d_peak, d_peak]
    with pytest.raises(ValidationError):
        ml_estimate_counting(totals, 0, scene, SNR4)


def test_ml_inversion_round_trip():
    scene = SourceScene(GAUSS, 0.7, 1000.0)
    total = 400 * 1000.0 * tau1_closed(GAUSS, 0.7).tau1
    d_hat = ml_estimate_counting(total, 400, scene, NO_NOISE)
    assert not isinstance(d_hat, np.ndarray)
    assert d_hat == pytest.approx(0.7, rel=1e-9)
    d = np.array([0.1, 0.7, 1.5])
    totals = 400 * 1000.0 * tau1_closed(GAUSS, d).tau1
    assert ml_estimate_counting(totals, 400, scene, NO_NOISE) == pytest.approx(d, rel=1e-9)


def test_ml_quadrature_round_trip():
    scene = SourceScene(GAUSS, 0.4, 100.0)
    d_peak, _ = _tau_branch(GAUSS)
    for kind, share in ((HOMODYNE, 1.0), (HETERODYNE, 0.5)):
        v = 0.5 + share * 100.0 * tau1_closed(GAUSS, 0.4).tau1
        d_hat = ml_estimate_quadrature(v, scene, kind)
        assert not isinstance(d_hat, np.ndarray)
        assert d_hat == pytest.approx(0.4, rel=1e-9)
        # the shot-noise floor and below clip to 0, a variance above the branch maximum to d_peak
        ms = np.array([0.4, 0.5, v, 0.5 + share * 100.0])
        d = ml_estimate_quadrature(ms, scene, kind)
        assert d[[0, 1, 3]].tolist() == [0.0, 0.0, d_peak]
        assert d[2] == d_hat
    with pytest.raises(ValidationError):
        ml_estimate_quadrature(1.0, scene, "direct")


def test_budget_guard():
    # the cap counts trials, not frames x trials, and refuses before any draw
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="trials"):
            experiment(frames=1, trials=MAX_POINTS + 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_POINTS * 8 / 100  # far below one float64 array of the trials
    rng = experiment(frames=100_000, trials=MAX_POINTS, seed=0).rng()
    assert rng.random() == np.random.default_rng(0).random()


def test_zero_separation_unbounded_crb():
    # any background pushes the d=0 FI to zero, so the bound diverges; the
    # noiseless projective measurement keeps it finite even there
    exp = experiment(d=0.0, frames=50, trials=30, seed=8)
    rep = run_crb_experiment(exp)
    assert rep.crb_unbounded
    assert rep.crb is None
    noiseless = run_crb_experiment(experiment(d=0.0, noise=NO_NOISE, frames=50, trials=30, seed=8))
    assert noiseless.crb == pytest.approx(1.0 / (50 * 100.0), rel=1e-12)


def test_counting_saturates_crb():
    # var/CRB has a standard error of about sqrt(2 / trials) = 0.026 here
    rep = run_crb_experiment(experiment(frames=200, trials=3000, seed=1))
    assert rep.clip_fraction == 0.0
    assert rep.empirical_variance / rep.crb == pytest.approx(1.0, abs=0.2)


def test_thermal_saturates_crb():
    exp = experiment(
        d=0.3, n_s=20.0, noise=NoiseModel.from_snr(1e4, 20.0),
        statistics=THERMAL, frames=400, trials=300, seed=5,
    )
    rep = run_crb_experiment(exp)
    assert rep.clip_fraction == 0.0
    assert 0.7 < rep.empirical_variance / rep.crb < 1.3


def test_quadrature_measurements_saturate_crb():
    hom = run_crb_experiment(
        experiment(noise=NO_NOISE, measurement=HOMODYNE, frames=300, trials=300, seed=2)
    )
    het = run_crb_experiment(
        experiment(noise=NO_NOISE, measurement=HETERODYNE, frames=300, trials=300, seed=9)
    )
    assert 0.7 < hom.empirical_variance / hom.crb < 1.3
    assert 0.7 < het.empirical_variance / het.crb < 1.3
    # at n_s tau1 ~ 2.2 the two-quadrature record wins despite its vacuum
    # penalty; the opposite ordering at low occupation is covered elsewhere
    assert het.crb < hom.crb


def test_estimator_unbiased_inside_window():
    rep = run_crb_experiment(experiment(frames=200, trials=600, seed=4))
    est = np.array(rep.estimates)
    se = est.std(ddof=1) / np.sqrt(est.size)
    assert abs(est.mean() - 0.3) < 3.0 * se


def test_below_window_breaks_down():
    # d ten times below the half-information point: clipping and excess MSE
    exp = experiment(d=0.005, frames=200, trials=500, seed=11)
    rep = run_crb_experiment(exp)
    crb_noiseless = 1.0 / (200 * 100.0)
    assert rep.empirical_mse > 1.5 * crb_noiseless
    assert rep.clip_fraction > 0.10


def test_mse_degrades_as_snr_drops():
    means = []
    for snr in (1e4, 1e3, 1e2):
        noise = NoiseModel.from_snr(snr, 100.0)
        mses = [
            run_crb_experiment(
                experiment(d=0.05, noise=noise, frames=200, trials=300, seed=seed)
            ).empirical_mse
            for seed in (21, 22, 23)
        ]
        means.append(np.mean(mses))
    assert means[0] < means[1] < means[2]


def test_report_serialization(tmp_path):
    # simulate writes the report's fields in order after the config echo
    argv = ["simulate", "--d-true", "0.3", "--snr", "1e4", "--frames", "50", "--trials", "40",
            "--seed", "6"]
    full, slim = tmp_path / "full.json", tmp_path / "slim.json"
    assert main(argv + ["--out", str(full)]) == 0
    assert main(argv + ["--no-estimates", "--out", str(slim)]) == 0
    rep = run_crb_experiment(experiment(frames=50, trials=40, seed=6))
    payload = json.loads(full.read_text())
    assert list(payload) == ["config"] + [f.name for f in fields(TrialReport)]
    assert payload["d_true"] == 0.3
    assert payload["estimates"] == list(rep.estimates)
    slim = json.loads(slim.read_text())
    assert "estimates" not in slim
    assert slim["empirical_variance"] == payload["empirical_variance"] == rep.empirical_variance


def test_experiment_validation():
    with pytest.raises(ValidationError):
        experiment(frames=0, trials=10, seed=0)
    with pytest.raises(ValidationError):
        experiment(frames=10, trials=0, seed=0)
    with pytest.raises(ValidationError):
        experiment(measurement="calorimetry", frames=10, trials=10, seed=0)


@pytest.mark.parametrize(
    "counts, message",
    [
        (dict(frames=2.5), "must be integers"),
        (dict(trials=10.0), "must be integers"),
        (dict(seed=1.5), "must be integers"),
        (dict(seed=-1), "seed must be nonnegative, got -1"),
    ],
    ids=["frames-2.5", "trials-10.0", "seed-1.5", "seed-minus-1"],
)
def test_experiment_refuses_counts_that_are_not_nonnegative_integers(counts, message):
    # refused when the experiment is built, before any trial runs
    with pytest.raises(ValidationError, match=message):
        experiment(**dict(dict(frames=10, trials=10, seed=0), **counts))


def test_experiment_takes_numpy_integers():
    exp = experiment(frames=np.int64(10), trials=np.int32(10), seed=np.uint64(3))
    _assert_same_report(
        run_crb_experiment(exp), run_crb_experiment(experiment(frames=10, trials=10, seed=3))
    )


def _brentq_each(tf, targets):
    """The inversion by one scalar scipy brentq per target, with the same clipping."""
    d_peak, tau_peak = _tau_branch(tf)
    out = []
    for t in targets.tolist():
        if t <= 0.0:
            out.append(0.0)
        elif t >= tau_peak:
            out.append(d_peak)
        else:
            out.append(brentq(lambda d: tau1_exact(tf, d).tau1 - t, 0.0, d_peak,
                              xtol=1e-13 * d_peak, rtol=1e-12))
    return np.array(out)


@pytest.mark.parametrize(
    "tf",
    [gaussian_psf(1.0), gaussian_psf(0.37), sinc_psf(sigma=1.0), sinc_psf(sigma=0.37)],
    ids=["gaussian", "gaussian-0.37", "sinc", "sinc-0.37"],
)
def test_lockstep_inversion_matches_scalar_brentq(tf):
    rng = np.random.default_rng(2024)
    _, tau_peak = _tau_branch(tf)
    targets = np.concatenate([
        rng.uniform(0.0, tau_peak, 20_000),
        np.geomspace(1e-300, 1e-4, 300),  # the flat foot of the branch
        tau_peak - rng.uniform(0.0, 1e-6, 300),  # the flat top, just below the peak
        tau_peak - np.geomspace(1e-17, 1e-7, 100),
        [0.0, -0.0, -1e-12, -1.0, 5e-324, tau_peak, np.nextafter(tau_peak, 0.0),
         np.nextafter(tau_peak, 1.0), tau_peak + 1e-9, 1.0],
    ])
    rng.shuffle(targets)
    assert np.array_equal(_invert_tau1(tf, targets), _brentq_each(tf, targets))


@pytest.mark.parametrize("tf", [gaussian_psf(1.0), gaussian_psf(0.37), sinc_psf(sigma=1.0)],
                         ids=["gaussian", "gaussian-0.37", "sinc"])
def test_branch_peak_value_is_tau1_at_the_peak(tf):
    # the peak search returns the value it found, which decides what clips to d_peak
    d_peak, tau_peak = _tau_branch(tf)
    assert tau_peak == tau1_exact(tf, d_peak).tau1


def test_inversion_keeps_the_shape_of_its_targets():
    targets = np.linspace(-0.1, 0.5, 12).reshape(3, 4)
    d = _invert_tau1(GAUSS, targets)
    assert d.shape == (3, 4)
    assert np.array_equal(d.ravel(), _brentq_each(GAUSS, targets.ravel()))
    scalar = _invert_tau1(GAUSS, 0.2)
    assert not isinstance(scalar, np.ndarray)
    assert scalar == _brentq_each(GAUSS, np.array([0.2]))[0]


def test_nan_residual_raises():
    with pytest.raises(NumericError):
        _invert_tau1(GAUSS, np.array([0.1, np.nan, 0.2]))

    # NaN inside the bracket, where the root lies: bisection has to land there
    def cube_with_hole(x):
        return np.where(np.abs(x - 0.5) < 0.05, np.nan, np.float_power(x, 3))

    with pytest.raises(NumericError):
        _brentq_lockstep(cube_with_hole, np.array([0.05, 0.125]), 0.0, 1.0,
                         xtol=1e-13, rtol=1e-12)


@pytest.mark.parametrize("measurement", ["counting", HOMODYNE, HETERODYNE])
def test_all_trials_invert_in_one_array_solve(measurement, monkeypatch):
    # a per-trial inversion would make thousands of tau1 calls
    calls = []

    def counted(tf, d):
        calls.append(np.size(d))
        return tau1_value(tf, d)

    monkeypatch.setattr(mc, "tau1_value", counted)
    _analytic_branch.cache_clear()  # count the search for the branch peak too
    noise = SNR4 if measurement == "counting" else NO_NOISE
    scene = SourceScene(sinc_psf(sigma=1.0), 0.3, 100.0)
    rep = run_crb_experiment(
        Experiment(scene, noise, measurement=measurement, frames=200, trials=2000, seed=13)
    )
    assert len(rep.estimates) == 2000
    assert len(calls) < 150


def test_each_distinct_photocount_total_is_solved_once(monkeypatch):
    exp = experiment(frames=200, trials=2000, seed=13)
    totals = simulate_counts(exp)
    distinct = np.unique(totals).size
    assert distinct < 1000  # the totals repeat, so the test can tell

    sizes = []

    def counted(tf, d):
        sizes.append(np.size(d))
        return tau1_value(tf, d)

    monkeypatch.setattr(mc, "tau1_value", counted)
    rep = run_crb_experiment(exp)
    assert max(sizes) <= distinct
    # the same roots as one solve over every trial's own target
    assert rep.clip_fraction == 0.0
    targets = totals / (exp.frames * exp.scene.n_s) - exp.noise.beta(exp.scene.n_s)
    d_peak, _ = _tau_branch(GAUSS)
    every = _brentq_lockstep(lambda x: tau1_exact(GAUSS, x).tau1, targets, 0.0, d_peak,
                             xtol=1e-13 * d_peak, rtol=1e-12)
    assert np.array_equal(rep.estimates, every)


@pytest.mark.parametrize("measurement", ["counting", HOMODYNE, HETERODYNE])
def test_one_sampler_and_one_estimator_call_per_experiment(measurement, monkeypatch):
    # wrap the public sampler and estimator in every spaderes namespace that
    # holds them, as a tracer binding those names would
    calls = Counter()
    public = [mc.simulate_counts, qd.sample_quadrature, mc.ml_estimate_counting,
              mc.ml_estimate_quadrature]
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "spaderes"]
    for fn in public:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    noise = SNR4 if measurement == "counting" else NO_NOISE
    run_crb_experiment(experiment(noise=noise, measurement=measurement, frames=20, trials=30, seed=5))
    if measurement == "counting":
        assert calls == Counter(simulate_counts=1, ml_estimate_counting=1)
    else:
        assert calls == Counter(sample_quadrature=1, ml_estimate_quadrature=1)


def test_analytic_branch_is_searched_once_across_cli_calls(capsys):
    # each main call builds a new PSF; (kind, sigma) determines its branch
    _analytic_branch.cache_clear()
    for seed in ("1", "2"):
        assert main(["simulate", "--psf", "sinc", "--d-true", "0.3", "--snr", "1e4",
                     "--trials", "20", "--seed", seed, "--no-estimates"]) == 0
    info = _analytic_branch.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert _tau_branch(sinc_psf(sigma=1.0)) == _tau_branch(sinc_psf(a=np.sqrt(3.0) / 2.0))


def test_tabulated_branch_is_searched_once_and_not_kept(monkeypatch):
    searches = []
    peak = mc._peak

    def counted(*args, **kwargs):
        searches.append(1)
        return peak(*args, **kwargs)

    monkeypatch.setattr(mc, "_peak", counted)
    tf = load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")
    rep = run_crb_experiment(Experiment(SourceScene(tf, 0.3, 100.0), SNR4, frames=200, trials=20))
    assert len(rep.estimates) == 20
    assert len(searches) == 1
    # the run leaves nothing that keeps the PSF and its spline pieces alive
    alive = weakref.ref(tf)
    del tf, rep
    gc.collect()
    assert alive() is None
