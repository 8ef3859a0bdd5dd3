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
    fi_gaussian_2d,
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
    # no transmission at d = 0: the sampler draws exactly the vacuum normals
    draws = sample_quadrature(SourceScene(GAUSS, 0.0, 100.0), HOMODYNE, 1000, seed=4)
    vacuum = np.random.default_rng(4).normal(0.0, np.sqrt(VACUUM_VARIANCE), 1000)
    assert np.array_equal(draws, vacuum)
    assert fi_homodyne(SourceScene(GAUSS, 0.0, 100.0)) == 0.0


def test_homodyne_fi_matches_density_quadrature():
    # F = integral (dp/dd)^2 / p over the outcome density N(0, V(d)), with the
    # derivative by central differences: independent of fi_gaussian_1d
    n_s, d, h = 100.0, 0.7, 1e-5

    def density(q, dd):
        v = _variance(dd, n_s, 1.0)
        return np.exp(-(q**2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)

    def integrand(q):
        dp = (density(q, d + h) - density(q, d - h)) / (2.0 * h)
        return dp**2 / density(q, d)

    assert composite_gauss_legendre(lambda q: density(q, d), -80.0, 80.0, 64) == pytest.approx(
        1.0, abs=1e-12
    )
    fisher = composite_gauss_legendre(integrand, -80.0, 80.0, 64)
    assert fisher == pytest.approx(fi_homodyne(SourceScene(GAUSS, d, n_s)), rel=1e-8)


def test_variance_tracks_transmission():
    d = 2.0  # transmission peak, tau1 = 1/e
    z = np.random.default_rng(11).normal(0.0, 1.0, size=(500, 2))
    hom = sample_quadrature(SourceScene(GAUSS, d, 100.0), HOMODYNE, 1000, seed=11)
    assert np.allclose(hom, z.ravel() * np.sqrt(0.5 + 100.0 * np.exp(-1.0)), rtol=1e-14, atol=0)
    het = sample_quadrature(SourceScene(GAUSS, d, 100.0), HETERODYNE, 500, seed=11)
    assert np.allclose(het, z * np.sqrt(0.5 + 50.0 * np.exp(-1.0)), rtol=1e-14, atol=0)
    # dV/dd vanishes at the peak, and the information with it
    assert fi_homodyne(SourceScene(GAUSS, d, 100.0)) == pytest.approx(0.0, abs=1e-24)


def test_sampler_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        sample_quadrature(SourceScene(GAUSS, 0.1, 100.0), "direct", 10, seed=0)


def test_gaussian_fi_building_blocks():
    assert fi_gaussian_1d(2.0, 3.0) == pytest.approx(9.0 / 8.0, rel=1e-14)
    assert fi_gaussian_2d(2.0, 3.0) == pytest.approx(9.0 / 4.0, rel=1e-14)
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
    assert fi_heterodyne(scene) == fi_gaussian_2d(vh, dvh)


def test_heterodyne_doubles_equal_variance_fi():
    assert fi_gaussian_2d(1.3, 0.4) == pytest.approx(2.0 * fi_gaussian_1d(1.3, 0.4), rel=1e-14)


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
    a = sample_quadrature(scene, HOMODYNE, 1000, seed=42)
    b = sample_quadrature(scene, HOMODYNE, 1000, seed=42)
    assert np.array_equal(a, b)
    c = sample_quadrature(scene, HOMODYNE, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_sampler_moments():
    draws = sample_quadrature(SourceScene(GAUSS, 2.0, 100.0), HOMODYNE, 1_000_000, seed=7)
    assert draws.shape == (1_000_000,)
    v = _variance(2.0, 100.0, 1.0)
    assert abs(draws.mean()) < 4.0 * np.sqrt(v / 1e6)
    assert draws.var() == pytest.approx(v, rel=0.01)


def test_heterodyne_sampler_shape_and_share():
    draws = sample_quadrature(SourceScene(GAUSS, 2.0, 100.0), HETERODYNE, 200_000, seed=3)
    assert draws.shape == (200_000, 2)
    v = _variance(2.0, 100.0, 0.5)
    assert draws[:, 0].var() == pytest.approx(v, rel=0.02)
    assert draws[:, 1].var() == pytest.approx(v, rel=0.02)


def test_sampler_validation():
    with pytest.raises(ValidationError):
        sample_quadrature(SourceScene(GAUSS, 0.5, 100.0), HOMODYNE, 0, seed=1)
