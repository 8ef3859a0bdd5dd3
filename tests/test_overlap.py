"""Mode-overlap transmission tau1(d): closed forms vs quadrature, symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaderes.overlap import (
    tau1_closed,
    tau1_exact,
    tau1_numeric,
    tau1_sinc_expansion,
    tau1_small_d,
)
from spaderes.psf import gaussian_psf, sinc_psf, tabulated_psf

GAUSS = gaussian_psf(1.0)
SINC = sinc_psf(sigma=1.0)

# quadrature oracle values, sinc kind, sigma = 1
SINC_TAU1 = {
    0.2: 9.940154057365341e-03,
    0.5: 6.019357075244380e-02,
    1.0: 2.148235655896828e-01,
    2.0: 5.335084647125466e-01,
}


def test_gaussian_closed_matches_numeric():
    for d in (0.1, 0.5, 1.0, 2.0, 4.0):
        closed = tau1_closed(GAUSS, d)
        numeric = tau1_numeric(GAUSS, d)
        assert abs(closed.tau1 - numeric.tau1) < 1e-9
        assert abs(closed.dtau1_dd - numeric.dtau1_dd) < 1e-9
        assert abs(closed.c - numeric.c) < 1e-9
        assert abs(closed.c_prime - numeric.c_prime) < 1e-9


def test_gaussian_peak():
    # tau1 peaks at d = 2 sigma with value 1/e
    t = tau1_closed(GAUSS, 2.0)
    assert t.tau1 == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert abs(t.dtau1_dd) < 1e-14


def test_sinc_closed_matches_numeric():
    for d, oracle in SINC_TAU1.items():
        t = tau1_closed(SINC, d)
        assert t.tau1 == pytest.approx(oracle, rel=5e-12)


def test_small_d_quadratic():
    d = 1e-3
    for tf in (GAUSS, SINC):
        t = tau1_exact(tf, d)
        assert t.tau1 == pytest.approx(tau1_small_d(1.0, d), rel=1e-5)


def test_sinc_expansion_next_order():
    d = 0.2
    t = tau1_closed(SINC, d)
    assert t.tau1 == pytest.approx(tau1_sinc_expansion(1.0, d), rel=2e-3)
    # and the two-term form beats the quadratic one
    assert abs(t.tau1 - tau1_sinc_expansion(1.0, d)) < abs(t.tau1 - tau1_small_d(1.0, d))


def test_derivative_matches_finite_differences():
    h = 1e-4
    for tf in (GAUSS, SINC):
        for d in (0.05, 0.1, 0.5, 1.0, 1.5, 3.0):
            fd = (tau1_exact(tf, d + h).tau1 - tau1_exact(tf, d - h).tau1) / (2.0 * h)
            assert tau1_exact(tf, d).dtau1_dd == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_zero_separation():
    for fn in (tau1_closed, tau1_numeric):
        t = fn(GAUSS, 0.0)
        assert t.tau1 == 0.0
        assert t.dtau1_dd == 0.0
        assert t.c == 0.0
        assert t.c_prime == pytest.approx(0.5, rel=1e-10)  # 1 / (2 sigma)


def test_overlap_identity():
    # (dtau1)^2 / tau1 = 4 c'^2 wherever tau1 > 0
    for tf in (GAUSS, SINC):
        for d in (0.3, 1.0, 2.5):
            t = tau1_exact(tf, d)
            assert t.dtau1_dd**2 / t.tau1 == pytest.approx(4.0 * t.c_prime**2, rel=1e-10)


def test_tabulated_numeric_path():
    x = np.linspace(-12.0, 12.0, 6001)
    u = (2.0 * np.pi) ** -0.25 * np.exp(-(x**2) / 4.0)
    tab = tabulated_psf(x, u)
    for d in (0.3, 1.0):
        ref = tau1_closed(GAUSS, d)
        t = tau1_numeric(tab, d)
        assert t.tau1 == pytest.approx(ref.tau1, rel=1e-6)


def test_curve_shape():
    ds = np.linspace(0.0, 3.0, 31)
    taus = np.array([tau1_exact(GAUSS, d).tau1 for d in ds])
    assert taus[0] == 0.0
    assert np.all(taus >= 0.0)
    assert np.all(taus <= 1.0)
    assert taus.argmax() == 20  # d = 2 sigma


@settings(max_examples=60, deadline=None)
@given(
    d=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    sigma=st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
)
def test_transmission_bounds_and_evenness(d, sigma):
    tf = gaussian_psf(sigma)
    t = tau1_closed(tf, d)
    assert 0.0 <= t.tau1 <= 1.0
    assert t.tau1 == pytest.approx(tau1_closed(tf, -d).tau1, rel=1e-12, abs=1e-300)
