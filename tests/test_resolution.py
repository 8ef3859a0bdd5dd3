"""Half-information separations and the sub-width operating window."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import spaderes.resolution as rs
from spaderes.cli import main
from spaderes.counting import NoiseModel, SourceScene, THERMAL, fi_counting_exact
from spaderes.direct_imaging import qfi
from spaderes.errors import BracketingError, NumericError, ValidationError
from spaderes.montecarlo import MEASUREMENTS, _tau_branch
from spaderes.overlap import tau1_exact
from spaderes.psf import gaussian_psf, load_tabulated, sinc_psf
from spaderes.quadrature import HETERODYNE, HOMODYNE, fi_homodyne_small_d, shot_noise_snr
from spaderes.resolution import (
    _brentq_lockstep,
    _peak,
    d_half_counting,
    d_half_from_curve,
    d_half_quadrature,
    superres_window,
)

GAUSS = gaussian_psf(1.0)


def test_closed_form_values():
    assert d_half_counting(1.0, 100.0) == pytest.approx(0.2, rel=1e-14)
    assert d_half_counting(1.0, 1e4) == pytest.approx(0.02, rel=1e-14)
    assert d_half_quadrature(1.0, 100.0) == pytest.approx((2.0 * np.sqrt(2.0) - 2.0) / 10.0, rel=1e-14)


def test_scales_linearly_with_width():
    assert d_half_counting(2.0, 100.0) == pytest.approx(2.0 * d_half_counting(1.0, 100.0), rel=1e-14)
    assert d_half_quadrature(2.0, 100.0) == pytest.approx(2.0 * d_half_quadrature(1.0, 100.0), rel=1e-14)


def test_shot_noise_snr_equivalence():
    # homodyne at n_s = 50 and heterodyne at n_s = 100 share SNR = 100
    hom = d_half_quadrature(1.0, shot_noise_snr(HOMODYNE, 50.0))
    het = d_half_quadrature(1.0, shot_noise_snr(HETERODYNE, 100.0))
    assert hom == pytest.approx(het, rel=1e-14)
    assert hom == pytest.approx(d_half_quadrature(1.0, 100.0), rel=1e-14)


def test_closed_form_slope_is_exactly_half():
    snrs = np.array([1e2, 1e3, 1e4, 1e5])
    roots = np.array([d_half_counting(1.0, s) for s in snrs])
    slope = np.polyfit(np.log(snrs), np.log(roots), 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_window_poisson():
    w = superres_window(1.0, 1e4)
    assert w.low == pytest.approx(0.02, rel=1e-14)
    assert w.high == 1.0
    assert not w.is_empty


def test_window_thermal_caps_high_edge():
    w = superres_window(1.0, 1e4, n_s=100.0, statistics=THERMAL)
    assert w.low == pytest.approx(0.02, rel=1e-14)
    assert w.high == pytest.approx(0.2, rel=1e-14)
    with pytest.raises(ValidationError):
        superres_window(1.0, 1e4, statistics=THERMAL)


def test_window_refuses_an_unknown_statistics():
    with pytest.raises(ValidationError, match="statistics must be one of"):
        superres_window(1.0, 1e4, statistics="thermall")


def test_window_collapses_at_unit_snr():
    assert superres_window(1.0, 1.0).is_empty


def test_numeric_root_homodyne_small_d():
    # rising-branch solution of the small-d homodyne curve at half its maximum
    n_s = 100.0
    fn = lambda d: fi_homodyne_small_d(SourceScene(GAUSS, d, n_s))
    root = d_half_from_curve(fn, n_s / 8.0, 1.0)
    assert root == pytest.approx((2.0 - np.sqrt(2.0)) / np.sqrt(n_s), rel=1e-9)


def test_numeric_root_needs_sign_change():
    # the error names the curve at both ends of the bracket
    with pytest.raises(BracketingError, match="the curve is 0 at 0 and 1 at 1, .* target 100"):
        _brentq_lockstep(lambda d: d**2, np.array([100.0]), 0.0, 1.0, xtol=1e-15, rtol=1e-10)


def test_solver_refuses_unbracketed_and_unconverged_roots(monkeypatch):
    with pytest.raises(BracketingError):
        _brentq_lockstep(lambda x: x, np.array([0.5, 2.0]), 0.0, 1.0, xtol=1e-13, rtol=1e-12)
    monkeypatch.setattr(rs, "BRENT_MAXITER", 2)
    with pytest.raises(NumericError, match="1 of 1 roots failed to converge after 2 iterations"):
        _brentq_lockstep(lambda x: np.float_power(x, 3), np.array([0.3]), 0.0, 1.0,
                         xtol=1e-13, rtol=1e-12)


def _scipy_peak(f, lo, hi, xatol, maxiter=rs.FMINBOUND_MAXFUN):
    res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x), -float(res.fun)


PEAK_PSFS = {
    **{f"gaussian-{s}": (lambda s=s: gaussian_psf(s)) for s in (0.37, 1.0, 2.0, 7.5)},
    **{f"sinc-{s}": (lambda s=s: sinc_psf(sigma=s)) for s in (0.29, 1.0, 1.3)},
    "table": lambda: load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt"),
}


@pytest.mark.parametrize("name", PEAK_PSFS)
def test_peak_is_scipy_bounded_minimize_scalar(name):
    # both call sites' bounds (the tau1 branch of the moment estimates and the
    # FI curve of d_half), then 30 random brackets and tolerances on tau1
    tf = PEAK_PSFS[name]()
    sigma = tf.sigma
    tau = lambda d: tau1_exact(tf, d).tau1
    noise = NoiseModel.from_snr(1e3, 100.0)
    fi = lambda d: fi_counting_exact(SourceScene(tf, d, 100.0), noise)
    cases = [(tau, 0.5 * sigma, 4.0 * sigma, 1e-12 * sigma),
             (fi, 1e-6 * sigma, 3.0 * sigma, 1e-10 * sigma)]
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(30):
        lo, hi = np.sort(rng.uniform(0.0, 6.0 * sigma, 2))
        cases.append((tau, float(lo), float(hi), float(10.0 ** rng.uniform(-13.0, -3.0))))
    for f, lo, hi, xatol in cases:
        assert _peak(f, lo, hi, xatol) == _scipy_peak(f, lo, hi, xatol), (lo, hi, xatol)


def test_peak_of_a_constant_of_a_point_and_of_steps():
    flat = lambda x: 0.25
    assert _peak(flat, 0.1, 3.0, 1e-10) == _scipy_peak(flat, 0.1, 3.0, 1e-10)
    assert _peak(np.sin, 1.2, 1.2, 1e-10) == _scipy_peak(np.sin, 1.2, 1.2, 1e-10) == (1.2, np.sin(1.2))
    # ties between points, and parabolic steps that land within 2 tol1 of a bound
    stairs = lambda x: np.floor(-64.0 * (x - 1.33) ** 2)
    rounded = lambda x: round(-(x - 0.31) ** 2, 2)
    for f, xatol in [(stairs, 1e-2), (rounded, 1e-5)]:
        assert _peak(f, 0.0, 1.0, xatol) == _scipy_peak(f, 0.0, 1.0, xatol)


def test_peak_stops_where_scipy_does_at_the_evaluation_cap(monkeypatch):
    tau = lambda d: tau1_exact(GAUSS, d).tau1
    assert _scipy_peak(tau, 0.5, 4.0, 1e-12, maxiter=7) != _scipy_peak(tau, 0.5, 4.0, 1e-12)
    monkeypatch.setattr(rs, "FMINBOUND_MAXFUN", 7)
    assert _peak(tau, 0.5, 4.0, 1e-12) == _scipy_peak(tau, 0.5, 4.0, 1e-12, maxiter=7)


@pytest.mark.parametrize("name", ["gaussian-1.0", "sinc-1.0", "table"])
def test_lockstep_shortcuts_keep_scalar_brentq_bits(name):
    # an iteration skips a branch no target takes and assigns one every target
    # takes; batches small or alike enough for the masks to be uniform take
    # those shortcuts, where a large mixed batch never does.  Each root is
    # scipy's, and the same alone (for the 2000 spread targets, every 20th),
    # in two halves and in the whole batch
    tf = PEAK_PSFS[name]()
    d_peak, tau_peak = _tau_branch(tf)
    g = lambda x: tau1_exact(tf, x).tau1
    solve = lambda t: _brentq_lockstep(g, t, 0.0, d_peak, xtol=1e-13 * d_peak, rtol=1e-12)
    rng = np.random.default_rng(35)
    tau_sigma = tau1_exact(tf, tf.sigma).tau1
    batches = [
        rng.uniform(0.0, tau_peak, 1),
        rng.uniform(0.0, tau_peak, 2),
        rng.uniform(0.0, tau_peak, 3),
        tau_sigma * rng.uniform(0.95, 1.05, 300),  # a counting job's totals about d = sigma
        rng.uniform(0.0, tau_peak, 2000),
    ]
    for targets in batches:
        roots = solve(targets)
        scalar = [brentq(lambda x: g(x) - t, 0.0, d_peak, xtol=1e-13 * d_peak, rtol=1e-12)
                  for t in targets.tolist()]
        assert np.array_equal(roots, scalar)
        half = targets.size // 2
        assert np.array_equal(np.concatenate([solve(targets[:half]), solve(targets[half:])]), roots)
        step = 20 if targets.size > 300 else 1
        alone = [solve(targets[i : i + 1])[0] for i in range(0, targets.size, step)]
        assert np.array_equal(alone, roots[::step])


def test_lockstep_returns_roots_at_the_ends_after_two_evaluations():
    # no target left to iterate returns at once: an empty batch, and targets
    # whose residual is 0 at xa or at xb, which are their roots
    calls = []

    def cube(x):
        calls.append(x)
        return np.float_power(x, 3)

    for targets in (np.array([]), np.array([0.0, 1.0, 0.0]), np.array([1.0])):
        calls.clear()
        roots = _brentq_lockstep(cube, targets, 0.0, 1.0, xtol=1e-13, rtol=1e-12)
        assert roots.shape == targets.shape and roots.dtype == float
        assert np.array_equal(roots, targets)
        assert calls == [0.0, 1.0]


def _d_half_reference(fi_fn, target, sigma):
    """d_half by bounded minimize_scalar and one scalar scipy brentq, same bounds and tolerances."""
    res = minimize_scalar(
        lambda d: -fi_fn(d),
        bounds=(1e-6 * sigma, 3.0 * sigma),
        method="bounded",
        options={"xatol": 1e-10 * sigma},
    )
    d_peak = float(res.x)
    return brentq(lambda d: fi_fn(d) - target, 1e-9 * sigma, d_peak,
                  xtol=1e-15 * max(d_peak, 1.0), rtol=1e-10)


# the d-half --numeric configurations of the benchmark's cli-scan workload
D_HALF_CASES = list(itertools.product(
    MEASUREMENTS, ("poisson", "thermal"), ("gaussian", "sinc"), (10.0, 100.0), (1e3, 1e4)
))


@pytest.mark.parametrize(
    "measurement, statistics, psf, n_s, snr", D_HALF_CASES,
    ids=["-".join(map(str, case)) for case in D_HALF_CASES],
)
def test_curve_root_matches_scalar_brentq(measurement, statistics, psf, n_s, snr):
    # the curve d-half --numeric inverts; snr sets the dark counts of counting only
    m = MEASUREMENTS[measurement]
    tf = gaussian_psf(1.0) if psf == "gaussian" else sinc_psf(sigma=1.0)
    noise = NoiseModel.from_snr(snr, n_s)
    fn = lambda d: m.fi(SourceScene(tf, d, n_s, statistics), noise)
    target = 0.5 * m.ceiling * qfi(n_s, 1.0)
    assert d_half_from_curve(fn, target, 1.0) == _d_half_reference(fn, target, 1.0)


def test_curve_root_exact_counting():
    snr = 100.0
    noise = NoiseModel.from_snr(snr, 1.0)
    fn = lambda d: fi_counting_exact(SourceScene(GAUSS, d, 1.0), noise)
    root = d_half_from_curve(fn, 0.5, 1.0)
    assert root == pytest.approx(0.20784237176752746, rel=1e-9)
    assert root == pytest.approx(d_half_counting(1.0, snr), rel=0.05)


def test_curve_root_rejects_unreachable_target():
    noise = NoiseModel.from_snr(10.0, 1.0)
    fn = lambda d: fi_counting_exact(SourceScene(GAUSS, d, 1.0), noise)
    with pytest.raises(BracketingError):
        d_half_from_curve(fn, 0.99, 1.0)


def _d_half_report(capsys, argv):
    code = main(["d-half"] + argv)
    return code, json.loads(capsys.readouterr().out) if code == 0 else None


def test_report_assembly(capsys):
    code, rep = _d_half_report(capsys, ["--measurement", "counting", "--snr", "1e4"])
    assert code == 0
    assert rep["d_half"] == pytest.approx(0.02, rel=1e-14)
    assert rep["window_low"] == pytest.approx(0.02, rel=1e-14)
    assert rep["window_high"] == 1.0
    assert not rep["window_empty"]
    assert "d_half_curve" not in rep
    _, rep2 = _d_half_report(capsys, ["--snr", "100", "--n-s", "1", "--numeric"])
    assert rep2["target_fi"] == 0.5
    assert rep2["d_half_curve"] == pytest.approx(0.20784237176752746, rel=1e-9)
    # a numeric root needs the photon number that fixes its target
    assert _d_half_report(capsys, ["--snr", "100", "--numeric"])[0] == 2
