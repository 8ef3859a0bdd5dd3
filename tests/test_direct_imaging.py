"""Intensity-only imaging FI and the quantum bound it fails to reach."""

import numpy as np
import pytest

from spaderes.direct_imaging import (
    _image_density,
    fi_direct,
    fi_direct_small_d,
    qfi,
    qfi_numeric,
)
from spaderes.errors import UnsupportedKindError
from spaderes.integrate import composite_gauss_legendre
from spaderes.overlap import tau1_closed
from spaderes.psf import gaussian_psf, sinc_psf

GAUSS = gaussian_psf(1.0)
SINC = sinc_psf(sigma=1.0)


def test_density_normalized_and_even_in_d():
    total = composite_gauss_legendre(lambda x: _image_density(GAUSS, x, 0.8)[0], -12.0, 12.0, 48)
    assert total == pytest.approx(1.0, abs=1e-12)
    x = np.array([-1.3, 0.2, 2.1])
    p, dp = _image_density(GAUSS, x, 0.8)
    assert _image_density(GAUSS, -x, 0.8)[0] == pytest.approx(p, rel=1e-13)
    # dp/dd against a central difference of p in d
    h = 1e-5
    fd = (_image_density(GAUSS, x, 0.8 + h)[0] - _image_density(GAUSS, x, 0.8 - h)[0]) / (2 * h)
    assert dp == pytest.approx(fd, rel=1e-8)


def test_well_separated_recovers_full_information():
    assert fi_direct(GAUSS, 4.0, 1.0) == pytest.approx(1.0, rel=0.01)
    assert fi_direct(GAUSS, 4.0, 1.0) == pytest.approx(0.9999881357874791, rel=1e-6)


def test_zero_separation_blind():
    assert fi_direct(GAUSS, 0.0, 1.0) == 0.0


def test_midrange_regression():
    assert fi_direct(GAUSS, 0.5, 1.0) == pytest.approx(0.3432639529723408, rel=1e-6)


def test_direct_below_mode_projection_sub_rayleigh():
    # below the width the projective measurement dominates; by d ~ sigma the
    # intensity pattern resolves the pair and the ordering flips
    for d in (0.1, 0.2, 0.5):
        t = tau1_closed(GAUSS, d)
        assert 0.0 < fi_direct(GAUSS, d, 1.0) < 4.0 * t.c_prime**2
    t1 = tau1_closed(GAUSS, 1.0)
    assert fi_direct(GAUSS, 1.0, 1.0) > 4.0 * t1.c_prime**2


def test_never_exceeds_quantum_bound():
    for tf in (GAUSS, SINC):
        bound = qfi(1.0, 1.0)
        for d in (0.05, 0.3, 1.0, 2.0, 5.0):
            assert fi_direct(tf, d, 1.0) <= bound + 1e-6


def test_quadratic_vanishing():
    f1 = fi_direct(GAUSS, 0.02, 1.0)
    f2 = fi_direct(GAUSS, 0.04, 1.0)
    assert f2 / f1 == pytest.approx(4.0, rel=5e-3)


def test_small_d_form_tracks_exact():
    d = 0.05
    assert fi_direct_small_d(GAUSS, d, 1.0) == pytest.approx(2.0 * d**2, rel=1e-12)
    assert fi_direct(GAUSS, d, 1.0) == pytest.approx(fi_direct_small_d(GAUSS, d, 1.0), rel=0.02)


def test_small_d_form_gaussian_only():
    with pytest.raises(UnsupportedKindError):
        fi_direct_small_d(SINC, 0.1, 1.0)


def test_linear_in_source_strength():
    assert fi_direct(GAUSS, 0.7, 40.0) == pytest.approx(40.0 * fi_direct(GAUSS, 0.7, 1.0), rel=1e-12)


def test_qfi_values():
    assert qfi(100.0, 1.0) == 100.0
    assert qfi(1.0, 2.0) == 0.25
    assert qfi_numeric(GAUSS, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert qfi_numeric(SINC, 1.0) == pytest.approx(1.0, abs=1e-8)
