"""Transfer functions: evaluation, widths, mode orthonormality, tabulated IO."""

import numpy as np
import pytest

from spaderes.errors import DomainError, ValidationError
from spaderes.psf import (
    eval_u,
    eval_u_prime,
    gaussian_psf,
    load_tabulated,
    quad_over_psf,
    sigma_of,
    sinc_psf,
    tabulated_psf,
)

GAUSS = gaussian_psf(1.0)
SINC_A1 = sinc_psf(a=1.0)
SINC_S1 = sinc_psf(sigma=1.0)


def test_gaussian_peak_value():
    assert eval_u(GAUSS, 0.0) == pytest.approx((2.0 * np.pi) ** -0.25, rel=1e-12)


def test_sinc_peak_value():
    assert eval_u(SINC_A1, 0.0) == pytest.approx(np.sqrt(1.0 / np.pi), rel=1e-12)


def test_even_symmetry():
    x = np.array([0.3, 1.1, 2.7])
    for tf in (GAUSS, SINC_S1):
        assert eval_u(tf, -x) == pytest.approx(eval_u(tf, x), rel=1e-14)


def test_derivative_values():
    assert eval_u_prime(GAUSS, 0.0) == 0.0
    assert eval_u_prime(SINC_A1, 0.0) == 0.0
    assert eval_u_prime(GAUSS, 1.0) == pytest.approx(-0.5 * eval_u(GAUSS, 1.0), rel=1e-12)


def test_derivative_matches_finite_differences():
    h = 1e-5
    for tf in (GAUSS, SINC_S1):
        for x in (0.3, 1.0, 2.0):
            fd = (eval_u(tf, x + h) - eval_u(tf, x - h)) / (2.0 * h)
            assert eval_u_prime(tf, x) == pytest.approx(fd, rel=1e-6)


def test_sigma_round_trip():
    assert sigma_of(gaussian_psf(2.0)) == 2.0
    assert sigma_of(SINC_A1) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)


def test_normalization_numeric():
    # |integral u^2 - 1| < 1e-9, including the slowly decaying sinc
    for tf in (GAUSS, SINC_S1, gaussian_psf(0.5), sinc_psf(a=3.0)):
        norm = quad_over_psf(tf, lambda x: eval_u(tf, x) ** 2)
        assert abs(norm - 1.0) < 1e-9


def _v1(tf, x):
    """Derivative mode v1(x) = -2 sigma u'(x)."""
    return -2.0 * sigma_of(tf) * eval_u_prime(tf, x)


def test_mode_pair_orthonormal():
    for tf, tol in ((GAUSS, 1e-8), (SINC_S1, 1e-6)):
        cross = quad_over_psf(tf, lambda x: eval_u(tf, x) * _v1(tf, x))
        v1sq = quad_over_psf(tf, lambda x: _v1(tf, x) ** 2)
        assert abs(cross) < 1e-9
        assert abs(v1sq - 1.0) < tol


def test_v1_gaussian_form():
    # v1 reduces to (x / sigma) u(x) for the Gaussian kind
    assert _v1(GAUSS, 1.0) == pytest.approx(eval_u(GAUSS, 1.0), rel=1e-12)
    assert _v1(GAUSS, 0.0) == 0.0


def test_v1_sinc_closed_form():
    # u'(pi) = -sqrt(1/pi)/pi for a=1, so v1(pi) = 2 sigma sqrt(1/pi)/pi
    sigma = np.sqrt(3.0) / 2.0
    expect = 2.0 * sigma * np.sqrt(1.0 / np.pi) / np.pi
    assert _v1(SINC_A1, np.pi) == pytest.approx(expect, rel=1e-12)


def _gaussian_samples(n, half=10.0):
    x = np.linspace(-half, half, n)
    return x, (2.0 * np.pi) ** -0.25 * np.exp(-(x**2) / 4.0)


def test_tabulated_sigma_converges():
    x, u = _gaussian_samples(4001)
    tab = tabulated_psf(x, u)
    assert sigma_of(tab) == pytest.approx(1.0, abs=1e-6)
    # refining the grid tightens it
    x2, u2 = _gaussian_samples(16001)
    tab2 = tabulated_psf(x2, u2)
    assert abs(sigma_of(tab2) - 1.0) < abs(sigma_of(tab) - 1.0)
    assert abs(sigma_of(tab2) - 1.0) < 1e-5


def test_tabulated_normalize_flag():
    x, u = _gaussian_samples(2001)
    tab = tabulated_psf(x, 3.0 * u, normalize=True)
    assert tab.norm == 1.0
    assert eval_u(tab, 0.0) == pytest.approx((2.0 * np.pi) ** -0.25, rel=1e-6)


def test_tabulated_hull_and_fill():
    x, u = _gaussian_samples(201, half=3.0)
    tab = tabulated_psf(x, u)
    with pytest.raises(DomainError):
        eval_u(tab, 3.5)
    assert eval_u(tab, 3.5, fill=0.0) == 0.0


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        tabulated_psf([0.0, 1.0], [1.0, 1.0])  # too few points
    with pytest.raises(ValidationError):
        tabulated_psf([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])  # not increasing
    with pytest.raises(ValidationError):
        tabulated_psf([0.0, 1.0, 2.0], [1.0, np.nan, 1.0])
    with pytest.raises(ValidationError):
        gaussian_psf(-1.0)
    with pytest.raises(ValidationError):
        sinc_psf(sigma=1.0, a=1.0)


def test_load_tabulated_file(tmp_path):
    x, u = _gaussian_samples(801)
    path = tmp_path / "psf.txt"
    lines = ["# position amplitude"]
    lines += [f"{xi:.12e}  {ui:.12e}" for xi, ui in zip(x, u)]
    path.write_text("\n".join(lines) + "\n")
    tab = load_tabulated(path)
    assert sigma_of(tab) == pytest.approx(1.0, abs=1e-4)
    assert eval_u(tab, 0.5) == pytest.approx(eval_u(GAUSS, 0.5), abs=1e-8)
