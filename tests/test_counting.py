"""Photon-counting statistics and Fisher information for the projected mode."""

import numpy as np
import pytest

from spaderes.counting import (
    BOSE_EINSTEIN,
    NO_NOISE,
    POISSON,
    THERMAL,
    CountDistribution,
    NoiseModel,
    SourceScene,
    count_distribution,
    family_of,
    fi_counting_exact,
    fi_counting_oracle,
    fi_counting_small_d,
    fi_from_pmf,
    logpmf,
    mean_count,
    pmf,
    truncation_limit,
)
from spaderes.errors import ValidationError
from spaderes.overlap import tau1_closed
from spaderes.psf import gaussian_psf

GAUSS = gaussian_psf(1.0)


def scene(d, n_s=1.0, statistics=POISSON):
    return SourceScene(GAUSS, d, n_s, statistics)


def test_pmf_values():
    po = CountDistribution(1.0, POISSON)
    assert pmf(po, 0) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert pmf(po, 1) == pytest.approx(np.exp(-1.0), rel=1e-14)
    be = CountDistribution(1.0, BOSE_EINSTEIN)
    # geometric with mean 1: p(k) = 2^-(k+1)
    assert pmf(be, 0) == pytest.approx(0.5, rel=1e-14)
    assert pmf(be, 3) == pytest.approx(2.0**-4, rel=1e-14)


def test_pmf_degenerate_mean():
    for family in (POISSON, BOSE_EINSTEIN):
        dist = CountDistribution(0.0, family)
        assert pmf(dist, 0) == 1.0
        assert pmf(dist, 2) == 0.0
        assert logpmf(dist, 0) == 0.0
        assert logpmf(dist, 2) == -np.inf


def test_pmf_vectorized_and_validated():
    dist = CountDistribution(2.0, POISSON)
    k = np.arange(6)
    assert pmf(dist, k).shape == (6,)
    with pytest.raises(ValidationError):
        logpmf(dist, -1)
    with pytest.raises(ValidationError):
        logpmf(dist, 1.5)


def test_truncation_captures_mass():
    for family in (POISSON, BOSE_EINSTEIN):
        for kbar in (0.3, 3.0, 40.0):
            dist = CountDistribution(kbar, family)
            k = np.arange(truncation_limit(dist) + 1)
            assert pmf(dist, k).sum() >= 1.0 - 1e-12


def test_family_of():
    assert family_of(POISSON) == POISSON
    assert family_of(THERMAL) == BOSE_EINSTEIN
    with pytest.raises(ValidationError):
        family_of("binomial")


def test_mean_count():
    sc = scene(0.2, n_s=100.0)
    noise = NoiseModel(1.0)
    expect = 100.0 * 0.01 * np.exp(-0.01) + 1.0
    assert mean_count(sc, noise) == pytest.approx(expect, rel=1e-14)
    assert mean_count(scene(0.0)) == 0.0
    dist = count_distribution(sc, noise)
    assert dist.kbar == pytest.approx(expect, rel=1e-14)
    assert dist.family == POISSON


def test_fi_at_zero_separation():
    # noiseless limit is finite (n_s / sigma^2); any noise kills it
    assert fi_counting_exact(scene(0.0, n_s=3.0)) == pytest.approx(3.0, rel=1e-14)
    assert fi_counting_exact(scene(0.0), NoiseModel(0.01)) == 0.0


def test_small_d_form():
    # at d = 2 sigma / sqrt(SNR) the small-d FI is exactly half the noiseless one
    sc = scene(0.2)
    noise = NoiseModel.from_snr(100.0, sc.n_s)
    assert fi_counting_small_d(sc, noise) == pytest.approx(0.5, abs=1e-15)
    # with no background the small-d FI saturates at n_s / sigma^2
    assert fi_counting_small_d(sc) == pytest.approx(1.0, abs=1e-15)


def test_small_d_matches_exact_for_tiny_d():
    sc = scene(1e-4)
    noise = NoiseModel.from_snr(1e3, sc.n_s)
    for st in (POISSON, THERMAL):
        sc2 = SourceScene(GAUSS, 1e-4, 1.0, st)
        assert fi_counting_exact(sc2, noise) == pytest.approx(
            fi_counting_small_d(sc2, noise), rel=1e-6
        )


def test_single_photon_regime_matches_small_d():
    # with n_s tau1 << 1 and n_b << 1 only click/no-click events carry
    # information, so both statistics follow the small-d Poisson law
    noise = NoiseModel(0.0005)
    poisson, thermal = (SourceScene(GAUSS, 0.1, 0.05, st) for st in (POISSON, THERMAL))
    for fi in (fi_counting_small_d, fi_counting_exact):
        assert fi(thermal, noise) == pytest.approx(fi(poisson, noise), rel=1e-3)


def test_exact_regression_with_noise():
    # frozen against the PMF-score oracle (agreement ~7e-13)
    sc = scene(0.2)
    noise = NoiseModel.from_snr(100.0, sc.n_s)
    assert fi_counting_exact(sc, noise) == pytest.approx(0.48274807163901373, rel=1e-12)


def test_pmf_oracle_matches_closed_form():
    for st in (POISSON, THERMAL):
        for d in (0.1, 0.3, 1.0):
            sc = SourceScene(GAUSS, d, 40.0, st)
            noise = NoiseModel(0.4)
            assert fi_counting_oracle(sc, noise) == pytest.approx(
                fi_counting_exact(sc, noise), rel=1e-10
            )


def test_thermal_excess_factor():
    # same mean-count curve, Bose-Einstein counts carry 1/(1 + kbar) less FI
    kbar_fn = lambda d: 40.0 * tau1_closed(GAUSS, d).tau1 + 0.4
    for d in (0.2, 0.8, 1.5):
        fp = fi_from_pmf(POISSON, kbar_fn, d)
        fb = fi_from_pmf(BOSE_EINSTEIN, kbar_fn, d)
        assert fb == pytest.approx(fp / (1.0 + kbar_fn(d)), rel=1e-10)


def test_constant_mean_carries_no_information():
    assert fi_from_pmf(POISSON, lambda d: 2.5, 0.7) == pytest.approx(0.0, abs=1e-10)


def test_fi_never_exceeds_quantum_bound():
    for st in (POISSON, THERMAL):
        for n_b in (0.0, 0.01, 1.0):
            for d in np.linspace(0.0, 5.0, 41):
                sc = SourceScene(GAUSS, d, 2.0, st)
                assert fi_counting_exact(sc, NoiseModel(n_b)) <= 2.0 + 1e-9


def test_noise_monotonicity():
    sc = scene(0.15)
    vals = [fi_counting_exact(sc, NoiseModel(nb)) for nb in (0.0, 1e-3, 1e-2, 1e-1)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_quadratic_noise_floor_scaling():
    # deep inside the noise-dominated regime FI grows as d^2
    noise = NoiseModel.from_snr(1e3, 1.0)
    f1 = fi_counting_exact(scene(1e-4), noise)
    f2 = fi_counting_exact(scene(2e-4), noise)
    assert f2 / f1 == pytest.approx(4.0, rel=1e-3)


def test_noisy_curve_rises_then_falls():
    noise = NoiseModel.from_snr(100.0, 1.0)
    ds = np.linspace(1e-3, 3.0, 301)
    vals = np.array([fi_counting_exact(scene(d), noise) for d in ds])
    peak = vals.argmax()
    assert 0 < peak < len(ds) - 1
    assert vals[0] < 0.1 * vals[peak]


def test_validation():
    with pytest.raises(ValidationError):
        SourceScene(GAUSS, -0.1, 1.0)
    with pytest.raises(ValidationError):
        SourceScene(GAUSS, 0.1, 0.0)
    with pytest.raises(ValidationError):
        SourceScene(GAUSS, 0.1, 1.0, "coherent")
    with pytest.raises(ValidationError):
        NoiseModel(-0.5)
    with pytest.raises(ValidationError):
        CountDistribution(1.0, "binomial")


def test_with_d_and_beta():
    sc = scene(0.2, n_s=4.0)
    assert sc.with_d(0.5).d == 0.5
    assert sc.with_d(0.5).n_s == 4.0
    assert NoiseModel(2.0).beta(4.0) == 0.5
    assert NoiseModel.from_snr(np.inf, 4.0).n_b == 0.0
    assert NoiseModel.from_snr(100.0, 4.0).n_b == pytest.approx(0.04, rel=1e-14)
    assert NoiseModel(0.04).snr(4.0) == pytest.approx(100.0, rel=1e-14)
