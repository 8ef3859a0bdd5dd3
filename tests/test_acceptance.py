"""End-to-end acceptance gate.

Each test checks one headline claim at its stated tolerance and prints a
single PASS/FAIL line (visible under pytest -s or in captured output).
"""

import json
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize_scalar

from spaderes.cli import main
from spaderes.counting import (
    NO_NOISE,
    POISSON,
    THERMAL,
    NoiseModel,
    SourceScene,
    fi_counting_exact,
    fi_counting_small_d,
    fi_from_pmf,
    mean_count,
)
from spaderes.direct_imaging import fi_direct, qfi
from spaderes.montecarlo import Experiment, run_crb_experiment
from spaderes.overlap import tau1_closed, tau1_numeric, tau1_sinc_expansion
from spaderes.psf import gaussian_psf, sinc_psf
from spaderes.quadrature import (
    fi_gaussian_1d,
    fi_heterodyne,
    fi_heterodyne_small_d,
    fi_homodyne,
    fi_homodyne_small_d,
)
from spaderes.resolution import d_half_counting, d_half_from_curve, d_half_quadrature

GAUSS = gaussian_psf(1.0)
SINC = sinc_psf(sigma=1.0)


def _report(tag, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    print(line)
    assert ok, line


def _loglog_slope(x, y):
    return np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0]


def test_c01_noiseless_fi_reaches_quantum_limit():
    d = 1e-3
    devs = []
    for tf in (GAUSS, SINC):
        scaled = fi_counting_exact(SourceScene(tf, d, 1.0))
        devs.append(abs(scaled - 1.0))
    for n_s in (5.0, 15.0):
        scene = SourceScene(GAUSS, d, n_s, THERMAL)
        scaled = fi_counting_exact(scene) / n_s
        devs.append(abs(scaled - 1.0))
    worst = max(devs)
    _report(
        "C1", worst < 1e-5,
        f"noiseless FI*sigma^2/n_s at d=1e-3 sigma within 1e-5 of 1 "
        f"(worst deviation {worst:.3g})",
    )


def test_c02_transmission_agreement():
    worst_abs = 0.0
    for d in np.linspace(0.0, 4.0, 21):
        closed = tau1_closed(GAUSS, d)
        numeric = tau1_numeric(GAUSS, d)
        worst_abs = max(
            worst_abs,
            abs(closed.tau1 - numeric.tau1),
            abs(closed.dtau1_dd - numeric.dtau1_dd),
        )
    d = 0.2
    sinc_rel = abs(
        tau1_closed(SINC, d).tau1 / tau1_sinc_expansion(1.0, d) - 1.0
    )
    ok = worst_abs < 1e-9 and sinc_rel < 2e-3
    _report(
        "C2", ok,
        f"Gaussian closed vs quadrature tau1/dtau1 within 1e-9 (worst {worst_abs:.3g}); "
        f"sinc expansion at d=0.2 sigma within 0.2% (got {sinc_rel:.3g})",
    )


def test_c03_half_information_point():
    msgs = []
    ok = True
    for snr in (1e2, 1e3, 1e4):
        d_half = d_half_counting(1.0, snr)
        noise = NoiseModel.from_snr(snr, 1.0)
        scene = SourceScene(GAUSS, d_half, 1.0)
        small = fi_counting_small_d(scene, noise)
        exact = fi_counting_exact(scene, noise)
        ok = ok and abs(small - 0.5) < 1e-12 and 0.45 <= exact <= 0.55
        msgs.append(f"SNR={snr:g}: small-d {small:.15g}, exact {exact:.6g}")
    _report("C3", ok, "FI at d_half is 0.5 n_s/sigma^2 (small-d exact; full curve in [0.45, 0.55]); " + "; ".join(msgs))


def test_c04_quadratic_floor_slope():
    noise = NoiseModel.from_snr(1e3, 1.0)
    ds = np.geomspace(1e-3, 1e-2, 9)
    fis = [fi_counting_exact(SourceScene(GAUSS, d, 1.0), noise) for d in ds]
    slope = _loglog_slope(ds, fis)
    _report(
        "C4", abs(slope - 2.0) < 0.02,
        f"noise-floor FI slope on [1e-3, 1e-2] sigma at SNR=1e3 is {slope:.4f} (want 2 +/- 0.02)",
    )


def test_c05_quadrature_maxima_and_half_point():
    n_s = 100.0
    # small-d forms peak exactly at n_s / (4 sigma^2)
    f_hom_small = fi_homodyne_small_d(SourceScene(GAUSS, np.sqrt(2.0 / n_s), n_s))
    f_het_small = fi_heterodyne_small_d(SourceScene(GAUSS, 2.0 / np.sqrt(n_s), n_s))
    small_ok = (
        abs(f_hom_small / (n_s / 4.0) - 1.0) < 1e-6
        and abs(f_het_small / (n_s / 4.0) - 1.0) < 1e-6
    )
    # exact-curve maxima land within 1% of the ceiling on the FI/QFI axis
    hom_peak = -minimize_scalar(
        lambda d: -fi_homodyne(SourceScene(GAUSS, d, n_s)),
        bounds=(1e-3, 1.0), method="bounded",
        options={"xatol": 1e-12},
    ).fun
    het_peak = -minimize_scalar(
        lambda d: -fi_heterodyne(SourceScene(GAUSS, d, n_s)),
        bounds=(1e-3, 1.0), method="bounded",
        options={"xatol": 1e-12},
    ).fun
    exact_ok = abs(hom_peak / n_s - 0.25) < 0.01 and abs(het_peak / n_s - 0.25) < 0.01
    # the closed-form half point of the small-d homodyne curve
    d_half = d_half_quadrature(1.0, 2.0 * n_s)
    f_at_half = fi_homodyne_small_d(SourceScene(GAUSS, d_half, n_s))
    half_ok = abs(f_at_half / (n_s / 8.0) - 1.0) < 1e-9
    _report(
        "C5", small_ok and exact_ok and half_ok,
        f"quadrature maxima: small-d {f_hom_small:.12g}/{f_het_small:.12g} vs 25; "
        f"exact peaks scaled {hom_peak / n_s:.6f}/{het_peak / n_s:.6f} within 0.01 of 0.25; "
        f"FI(d_half)={f_at_half:.12g} vs 12.5",
    )


def test_c06_resolution_scaling_exponent():
    snrs = [1e2, 1e3, 1e4, 1e5]
    count_roots = []
    hom_roots = []
    for snr in snrs:
        noise = NoiseModel.from_snr(snr, 1.0)
        fn = lambda d: fi_counting_exact(SourceScene(GAUSS, d, 1.0), noise)
        count_roots.append(d_half_from_curve(fn, 0.5, 1.0))
        n_s = snr / 2.0  # homodyne shot-noise convention
        fh = lambda d: fi_homodyne(SourceScene(GAUSS, d, n_s))
        hom_roots.append(d_half_from_curve(fh, n_s / 8.0, 1.0))
    s_count = _loglog_slope(snrs, count_roots)
    s_hom = _loglog_slope(snrs, hom_roots)
    ok = abs(s_count + 0.5) < 0.02 and abs(s_hom + 0.5) < 0.02
    _report(
        "C6", ok,
        f"numeric d_half vs SNR slopes: counting {s_count:.4f}, homodyne {s_hom:.4f} "
        f"(want -0.5 +/- 0.02)",
    )


def test_c07_pmf_oracle_and_gaussian_pipeline():
    n_s = 100.0
    worst = 0.0
    points = 0
    for statistics in (POISSON, THERMAL):
        for snr in (1e2, 1e3, 1e4):
            noise = NoiseModel.from_snr(snr, n_s)
            for d in (0.05, 0.1, 0.2, 0.5, 1.0):
                scene = SourceScene(GAUSS, d, n_s, statistics)
                kbar_fn = lambda x: mean_count(replace(scene, d=x), noise)
                oracle = fi_from_pmf(statistics, kbar_fn, d)
                closed = fi_counting_exact(scene, noise)
                worst = max(worst, abs(oracle / closed - 1.0))
                points += 1
    t = tau1_closed(GAUSS, 0.3)
    v, dv = 0.5 + n_s * t.tau1, n_s * t.dtau1_dd
    scene = SourceScene(GAUSS, 0.3, n_s)
    pipeline_ok = fi_homodyne(scene) == fi_gaussian_1d(v, dv)
    vh, dvh = 0.5 + 0.5 * n_s * t.tau1, 0.5 * n_s * t.dtau1_dd
    doubling_ok = fi_heterodyne(scene) == 2.0 * fi_gaussian_1d(vh, dvh)
    ok = worst < 1e-9 and points >= 30 and pipeline_ok and doubling_ok
    _report(
        "C7", ok,
        f"PMF-score FI matches closed form on {points} points (worst rel {worst:.3g}); "
        f"Gaussian-record pipeline identities exact: {pipeline_ok and doubling_ok}",
    )


def test_c08_direct_imaging_limits():
    f_far = fi_direct(GAUSS, 4.0, 1.0)
    far_ok = abs(f_far - 1.0) < 0.01
    bound_ok = all(
        fi_direct(GAUSS, d, 1.0) <= qfi(1.0, 1.0) + 1e-6
        for d in np.linspace(0.05, 5.0, 25)
    )
    ds = np.geomspace(0.02, 0.1, 6)
    slope = _loglog_slope(ds, [fi_direct(GAUSS, d, 1.0) for d in ds])
    slope_ok = abs(slope - 2.0) < 0.05
    _report(
        "C8", far_ok and bound_ok and slope_ok,
        f"direct imaging: FI(4 sigma)={f_far:.6f} within 1% of the quantum limit, "
        f"never above it, small-d slope {slope:.4f} (want 2 +/- 0.05)",
    )


def test_c09_monte_carlo_saturates_crb():
    start = time.monotonic()
    scene = SourceScene(GAUSS, 0.3, 100.0)
    noise = NoiseModel.from_snr(1e4, 100.0)
    ratios = []
    for seed in (1, 2, 3):
        exp = Experiment(scene, noise, "counting", frames=200, trials=2000, seed=seed)
        rep = run_crb_experiment(exp)
        ratios.append(rep.empirical_variance / rep.crb)
    elapsed = time.monotonic() - start
    ok = all(0.85 < r < 1.15 for r in ratios) and elapsed < 60.0
    _report(
        "C9", ok,
        f"ML variance over CRB at d=0.3 sigma, SNR=1e4: "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f" (want within +/- 15%), elapsed {elapsed:.2f}s",
    )


def test_c10_reproducible_artifacts(tmp_path):
    args = [
        "simulate", "--psf", "gaussian", "--sigma", "1.0", "--d-true", "0.3",
        "--n-s", "100", "--snr", "1e4", "--frames", "100", "--trials", "100",
        "--seed", "5",
    ]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    parsed = json.loads(out1.read_text())
    _report(
        "C10", identical and parsed["config"]["seed"] == 5,
        f"repeated runs under one config+seed emit byte-identical reports ({identical})",
    )
