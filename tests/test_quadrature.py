"""Gaussian quadrature measurements: variances, Fisher information, sampling."""

import numpy as np
import pytest

from spaderes.counting import SourceScene
from spaderes.errors import DomainError, ValidationError
from spaderes.integrate import composite_gauss_legendre
from spaderes.overlap import tau1_closed
from spaderes.psf import gaussian_psf
from spaderes.quadrature import (
    HETERODYNE,
    HOMODYNE,
    VACUUM_VARIANCE,
    fi_gaussian_1d,
    fi_heterodyne,
    fi_heterodyne_small_d,
    fi_homodyne,
    fi_homodyne_small_d,
    sample_quadrature,
    shot_noise_snr,
)

GAUSS = gaussian_psf(1.0)


def _variance(d, n_s, share):
    return VACUUM_VARIANCE + share * n_s * tau1_closed(GAUSS, d).tau1


def test_vacuum_variance_at_zero_separation():
    # no transmission at d = 0: the statistic is exactly the vacuum law 1/2 chi2_n / n
    for kind, n in ((HOMODYNE, 50), (HETERODYNE, 100)):
        stats = sample_quadrature(
            SourceScene(GAUSS, 0.0, 100.0), kind, 50, 20, np.random.default_rng(4)
        )
        vacuum = VACUUM_VARIANCE * np.random.default_rng(4).chisquare(n, size=20) / n
        assert np.array_equal(stats, vacuum)
    assert fi_homodyne(SourceScene(GAUSS, 0.0, 100.0)) == 0.0


def test_homodyne_fi_matches_density_quadrature():
    # F = integral (dp/dd)^2 / p over the outcome density N(0, V(d)), with the
    # derivative by central differences: independent of fi_gaussian_1d
    n_s, d, h = 100.0, 0.7, 1e-5

    def density(q, dd):
        v = _variance(dd, n_s, 1.0)
        return np.exp(-(q**2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)

    def integrand(q, d):
        dp = (density(q, d + h) - density(q, d - h)) / (2.0 * h)
        return dp**2 / density(q, d)

    [total], _ = composite_gauss_legendre(density, -80.0, 80.0, 64, np.array([d]))
    assert total == pytest.approx(1.0, abs=1e-12)
    [fisher], _ = composite_gauss_legendre(integrand, -80.0, 80.0, 64, np.array([d]))
    assert fisher == pytest.approx(fi_homodyne(SourceScene(GAUSS, d, n_s)), rel=1e-8)


def test_variance_tracks_transmission():
    d = 2.0  # transmission peak, tau1 = 1/e
    v_hom, v_het = 0.5 + 100.0 * np.exp(-1.0), 0.5 + 50.0 * np.exp(-1.0)
    # a homodyne trial of 100 frames pools as many outcomes as a heterodyne trial of 50
    z2 = np.random.default_rng(11).chisquare(100, size=20) / 100
    hom = sample_quadrature(SourceScene(GAUSS, d, 100.0), HOMODYNE, 100, 20,
                            np.random.default_rng(11))
    het = sample_quadrature(SourceScene(GAUSS, d, 100.0), HETERODYNE, 50, 20,
                            np.random.default_rng(11))
    assert np.allclose(hom / v_hom, het / v_het, rtol=1e-14, atol=0)
    assert np.allclose(hom, z2 * v_hom, rtol=1e-14, atol=0)
    # dV/dd vanishes at the peak, and the information with it
    assert fi_homodyne(SourceScene(GAUSS, d, 100.0)) == pytest.approx(0.0, abs=1e-24)


def test_sampler_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        sample_quadrature(SourceScene(GAUSS, 0.1, 100.0), "direct", 10, 20,
                          np.random.default_rng(0))


def test_gaussian_fi_building_blocks():
    assert fi_gaussian_1d(2.0, 3.0) == pytest.approx(9.0 / 8.0, rel=1e-14)
    with pytest.raises(DomainError):
        fi_gaussian_1d(0.0, 1.0)


def test_exact_fi_through_generic_pipeline():
    # fi_homodyne must equal the generic 1-d Gaussian FI fed with V(d), V'(d)
    scene = SourceScene(GAUSS, 0.3, 100.0)
    t = tau1_closed(GAUSS, 0.3)
    v = 0.5 + 100.0 * t.tau1
    dv = 100.0 * t.dtau1_dd
    assert fi_homodyne(scene) == fi_gaussian_1d(v, dv)
    assert fi_homodyne(scene) == pytest.approx(14.097252724632343, rel=1e-13)
    # heterodyne splits the signal across two quadratures
    vh = 0.5 + 50.0 * t.tau1
    dvh = 50.0 * t.dtau1_dd
    assert fi_heterodyne(scene) == 2.0 * fi_gaussian_1d(vh, dvh)


def test_heterodyne_doubles_equal_variance_fi():
    # heterodyne at 2 n_s gives each quadrature the variance homodyne has at
    # n_s, and reads two of them: twice the information, exactly
    d = np.array([0.05, 0.3, 1.0, 2.5])
    homodyne = fi_homodyne(SourceScene(GAUSS, d, 50.0))
    assert np.array_equal(fi_heterodyne(SourceScene(GAUSS, d, 100.0)), 2.0 * homodyne)


def test_small_d_maxima():
    # both strategies peak at n_s / (4 sigma^2), at different separations
    n_s = 100.0
    d_hom = np.sqrt(2.0 / n_s)
    d_het = 2.0 / np.sqrt(n_s)
    f_hom = fi_homodyne_small_d(SourceScene(GAUSS, d_hom, n_s))
    f_het = fi_heterodyne_small_d(SourceScene(GAUSS, d_het, n_s))
    assert f_hom == pytest.approx(n_s / 4.0, rel=1e-12)
    assert f_het == pytest.approx(n_s / 4.0, rel=1e-12)
    # and these are maxima: nearby separations do worse
    for eps in (0.9, 1.1):
        assert fi_homodyne_small_d(SourceScene(GAUSS, eps * d_hom, n_s)) < f_hom
        assert fi_heterodyne_small_d(SourceScene(GAUSS, eps * d_het, n_s)) < f_het


def test_small_d_matches_exact_for_tiny_d():
    scene = SourceScene(GAUSS, 1e-3, 50.0)
    assert fi_homodyne(scene) == pytest.approx(fi_homodyne_small_d(scene), rel=1e-5)
    assert fi_heterodyne(scene) == pytest.approx(fi_heterodyne_small_d(scene), rel=1e-5)


def test_homodyne_beats_heterodyne_at_low_occupation():
    # with n_s tau1 < 1/sqrt(2) the single tracked quadrature wins
    for d in np.linspace(0.01, 4.0, 40):
        scene = SourceScene(GAUSS, d, 1.0)
        assert fi_homodyne(scene) > fi_heterodyne(scene)


def test_quadratic_rise_at_small_d():
    scene1 = SourceScene(GAUSS, 1e-4, 100.0)
    scene2 = SourceScene(GAUSS, 2e-4, 100.0)
    assert fi_homodyne(scene2) / fi_homodyne(scene1) == pytest.approx(4.0, rel=1e-4)


def test_shot_noise_snr():
    assert shot_noise_snr(HOMODYNE, 7.0) == 14.0
    assert shot_noise_snr(HETERODYNE, 7.0) == 7.0
    with pytest.raises(ValidationError):
        shot_noise_snr("direct", 1.0)


def test_sampler_deterministic():
    scene = SourceScene(GAUSS, 0.5, 100.0)
    a = sample_quadrature(scene, HOMODYNE, 100, 20, np.random.default_rng(42))
    b = sample_quadrature(scene, HOMODYNE, 100, 20, np.random.default_rng(42))
    assert np.array_equal(a, b)
    c = sample_quadrature(scene, HOMODYNE, 100, 20, np.random.default_rng(43))
    assert not np.array_equal(a, c)


def _check_chi_square_law(kind, share, frames=50, trials=4000):
    # the mean square of n = q M pooled normals of variance V is V chi2_n / n:
    # mean V, variance 2 V^2 / n
    stats = sample_quadrature(SourceScene(GAUSS, 2.0, 100.0), kind, frames, trials,
                              np.random.default_rng(7))
    assert stats.shape == (trials,)
    v = _variance(2.0, 100.0, share)
    n = frames / share
    assert abs(stats.mean() - v) < 4.0 * np.sqrt(2.0 * v**2 / n / trials)
    assert stats.var() == pytest.approx(2.0 * v**2 / n, rel=0.1)


def test_sampler_moments():
    _check_chi_square_law(HOMODYNE, 1.0)


def test_heterodyne_sampler_shape_and_share():
    _check_chi_square_law(HETERODYNE, 0.5)


def test_sampler_validation():
    with pytest.raises(ValidationError):
        sample_quadrature(SourceScene(GAUSS, 0.5, 100.0), HOMODYNE, 0, 20,
                          np.random.default_rng(1))
