"""Intensity-only imaging FI and the quantum bound it fails to reach."""

from pathlib import Path

import numpy as np
import pytest

from spaderes.counting import THERMAL, SourceScene
from spaderes.direct_imaging import (
    DIRECT_REL_TOL,
    P_FLOOR,
    _density,
    _information_density,
    fi_direct,
    qfi,
    qfi_numeric,
)
from spaderes import integrate, psf
from spaderes.errors import NumericError, ValidationError
from spaderes.integrate import (
    check_converged,
    composite_gauss_legendre,
    integrate_oscillatory_tails,
    integrate_refined,
)
from spaderes.overlap import tau1_closed, tau1_numeric
from spaderes.psf import (
    GAUSSIAN_HALF_WIDTH_SIGMAS,
    QUAD_ABS_TOL,
    SINC_HALF_WIDTH_OVER_A,
    eval_u,
    eval_u_prime,
    gaussian_psf,
    load_tabulated,
    quad_over_psf,
    sinc_psf,
    tabulated_psf,
)
from spaderes.resolution import d_half_counting, d_half_quadrature, superres_window

GOLDEN = Path(__file__).parent / "golden"
GAUSS = gaussian_psf(1.0)
SINC = sinc_psf(sigma=1.0)
# the unit Gaussian sampled on 801 points over +-8 sigma
TABULATED = load_tabulated(GOLDEN / "psf_gaussian_801.txt")


def _image_density(tf, x, d: float):
    """p and dp/dd at the points x, from the images fi_direct's integrand gets:
    the kind's evaluator on x as one row of nodes, shifted by -d and d."""
    x, shifts = np.reshape(x, (1, -1)), np.array([-d, d])[:, None, None]
    if tf.kind == "gaussian":
        u, du = psf._gaussian_images(tf.sigma, x, shifts)
    else:
        u, du = psf._sinc_images(tf.a, x, shifts)
    return _density((u[0, 0], du[0, 0]), (u[1, 0], du[1, 0]))


def _images_density(u, du):
    """p of the images at x + d and x - d, as quad_over_psf hands them over."""
    return _density((u[0], du[0]), (u[1], du[1]))[0]


def test_density_normalized_and_even_in_d():
    images = lambda x, d: psf._gaussian_images(1.0, x, np.array([-1.0, 1.0])[:, None, None] * d)
    [total] = composite_gauss_legendre(
        lambda x, d: _images_density(*images(x, d)), -12.0, 12.0, 48, np.array([0.8])
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    # the sinc's images decay as 1/x: its tail ladder
    [total] = quad_over_psf(SINC, _images_density, (-1.0, 1.0), np.array([0.8]))
    assert total == pytest.approx(1.0, abs=1e-9)
    x = np.array([-1.3, 0.2, 2.1, 37.9])
    for tf in (GAUSS, SINC):
        p, dp = _image_density(tf, x, 0.8)
        assert _image_density(tf, -x, 0.8)[0] == pytest.approx(p, rel=1e-13)
        # dp/dd against a central difference of p in d
        h = 1e-5
        fd = (_image_density(tf, x, 0.8 + h)[0] - _image_density(tf, x, 0.8 - h)[0]) / (2 * h)
        assert dp == pytest.approx(fd, rel=1e-8)


def _four_call_density(tf, x, d):
    """p and dp/dd from four separate evaluations of u and u', one per image."""
    um, up = eval_u(tf, x - d), eval_u(tf, x + d)
    dum, dup = eval_u_prime(tf, x - d), eval_u_prime(tf, x + d)
    return 0.5 * (um**2 + up**2), up * dup - um * dum


def _kind_quadrature(tf, f, margin):
    """(value, error estimate) of f(x, d) over quad_over_psf's domain and
    rule for ``tf`` at the one displacement d = ``margin``, with f evaluating
    the PSF itself (and leaving the tail ladder's phases aside)."""
    d = np.array([margin])
    if tf.kind == "gaussian":
        half = GAUSSIAN_HALF_WIDTH_SIGMAS * tf.sigma + margin
        return integrate_refined(f, -half, half, max(48, np.ceil(4.0 * half / tf.sigma)), d)
    return integrate_oscillatory_tails(f, SINC_HALF_WIDTH_OVER_A / tf.a + margin, tf.a, d)


def _four_call_fi_direct(tf, d):
    """fi_direct at n_s = 1 with the four-call density, through the same quadrature."""
    if d == 0.0:
        return 0.0

    def information(x, d, *phases):
        p, dp = _four_call_density(tf, x, d)
        return np.divide(dp * dp, p, out=np.zeros_like(p), where=p > P_FLOOR)

    [value], [err] = _kind_quadrature(tf, information, d)
    return check_converged(value, err, DIRECT_REL_TOL, QUAD_ABS_TOL, "four-call information")


def test_gaussian_density_keeps_the_four_call_bits():
    x = np.linspace(-15.0, 15.0, 3001)
    for d in (0.0, 0.3, 1.7, 6.0):
        for new, old in zip(_image_density(GAUSS, x, d), _four_call_density(GAUSS, x, d)):
            assert np.array_equal(new, old)


@pytest.mark.parametrize("tf", [GAUSS, SINC], ids=lambda tf: tf.kind)
def test_direct_imaging_matches_the_four_call_integrand(tf):
    # the shared transcendentals change no ladder node and no tolerance: the
    # Gaussian keeps its bits, sinc moves by rounding only
    d = np.linspace(0.0, 5.0, 101)
    reference = np.array([_four_call_fi_direct(tf, x) for x in d])
    if tf is GAUSS:
        assert np.array_equal(fi_direct(tf, d, 1.0), reference)
    else:
        np.testing.assert_allclose(fi_direct(tf, d, 1.0), reference, rtol=1e-13, atol=0.0)


def _without_kept_trigonometry(tf, f, shifts, margin):
    """quad_over_psf's sinc integral of f(u, du) for |d| up to 50 / a, value
    and error estimate, with sin and cos of a x computed afresh on every
    chunk instead of taken from the ladder's phases."""
    a, ks, d = tf.a, np.asarray(shifts, dtype=float)[:, None, None], np.reshape(margin, -1)
    integrand = lambda x, d, *phases: f(*psf._sinc_images(a, x, ks * d))
    return integrate_oscillatory_tails(integrand, SINC_HALF_WIDTH_OVER_A / a + d, a, d)


def test_kept_ladder_trigonometry_keeps_the_bits():
    # the sinc integrand takes the phases sin and cos of a x that the ladder
    # keeps per start; the same integral with them computed afresh has the same bits
    d = np.linspace(0.0, 5.0, 11)
    calls = sum(integrate._ladder.cache_info()[:2])
    kept = fi_direct(SINC, d, 1.0)
    assert sum(integrate._ladder.cache_info()[:2]) > calls
    information = lambda u, du: _information_density(*_density((u[0], du[0]), (u[1], du[1])))
    afresh, _ = _without_kept_trigonometry(SINC, information, (-1.0, 1.0), d)
    assert np.array_equal(kept, 1.0 * afresh)


@pytest.mark.parametrize("tf", [SINC, sinc_psf(sigma=1.3)], ids=["sinc", "sinc-1.3"])
def test_sinc_qfi_takes_the_kept_ladder_trigonometry(tf, monkeypatch):
    # every ladder chunk of the derivative energy is evaluated on slices of
    # the ladder's phases sin(a x) and cos(a x), with the bits of evaluating
    # them afresh
    calls, images = [], psf._sinc_images
    monkeypatch.setattr(psf, "_sinc_images", lambda *args: calls.append(args) or images(*args))
    m0 = 16  # the smallest even multiple of the period pi / a past 50 / a
    _, _, sin_ax, cos_ax, _ = integrate._ladder(m0, tf.a)
    hits = integrate._ladder.cache_info().hits
    kept = qfi_numeric(tf, 1.0)
    assert integrate._ladder.cache_info().hits > hits
    for args in calls:
        assert len(args) == 4 and args[3] is not None
        assert np.shares_memory(args[3][0], sin_ax) and np.shares_memory(args[3][1], cos_ax)
    assert len(calls) == len(integrate._chunks(sin_ax.size)) > 1
    monkeypatch.undo()
    afresh, _ = _without_kept_trigonometry(tf, lambda u, du: du[0] ** 2, (0.0,), 0.0)
    assert kept == 4.0 * 1.0 * float(afresh[0])


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
    # small-separation law 4 n_s d^2 * integral ((u'^2 / u) + u'')^2 dx, which is
    # 2 n_s d^2 / sigma^4 for the Gaussian
    d = 0.05
    assert fi_direct(GAUSS, d, 1.0) == pytest.approx(2.0 * d**2, rel=0.02)


def test_sinc_direct_imaging_answers_far_out(monkeypatch):
    # up to 50 / a (57.7 sigma) the ladder starts at 50 / a + d, with its bits
    near = np.array([40.0, SINC_HALF_WIDTH_OVER_A / SINC.a])
    information = lambda u, du: _information_density(*_density((u[0], du[0]), (u[1], du[1])))
    afresh, _ = _without_kept_trigonometry(SINC, information, (-1.0, 1.0), near)
    assert np.array_equal(fi_direct(SINC, near, 1.0), 1.0 * afresh)
    # past about 3,700 sigma the ladder would take over MAX_PANELS panels: refused
    with pytest.raises(NumericError, match="MAX_PANELS"):
        fi_direct(SINC, 4000.0, 1.0)
    # past 50 / a it starts as far again past d, clear of the images: at
    # 100-500 sigma the estimate is honest against a ladder from 1600 / a,
    # and the value within 1e-8 of it
    d = np.array([100.0, 200.0, 500.0])
    [(value, err)] = _judged(monkeypatch, lambda: fi_direct(SINC, d, 1.0))
    monkeypatch.setattr(psf, "SINC_HALF_WIDTH_OVER_A", 1600.0)
    try:
        reference = fi_direct(SINC, d, 1.0)
    finally:
        integrate._ladder.cache_clear()
    _assert_honest(value, err, np.abs(value - reference))
    np.testing.assert_allclose(value, reference, rtol=1e-8, atol=0.0)
    assert value[0] == pytest.approx(0.98052, abs=1e-5)


def test_tabulated_matches_the_gaussian_it_samples():
    # both images run past the grid hull from about d = 2.5 sigma on; the
    # spline's integrals must follow them there
    d = np.linspace(0.0, 5.0, 101)
    tabulated, gaussian = fi_direct(TABULATED, d, 1.0), fi_direct(GAUSS, d, 1.0)
    assert tabulated[0] == 0.0
    np.testing.assert_allclose(tabulated[1:], gaussian[1:], rtol=1e-8, atol=0.0)


def test_tabulated_images_apart_recover_the_quantum_limit():
    # once 2d spans the grid the images no longer overlap: F = n_s / sigma^2
    # exactly, also where grid + 2d would lose the grid's spacing
    width = TABULATED.grid[-1] - TABULATED.grid[0]
    limit = qfi(3.0, TABULATED.sigma)
    far = fi_direct(TABULATED, [0.5 * width, 40.0, -1e12, 1e300], 3.0)
    assert np.all(far == limit)
    assert fi_direct(TABULATED, 0.5 * width * (1 - 1e-9), 3.0) == pytest.approx(limit, rel=1e-12)


@pytest.mark.parametrize("tf", [GAUSS, SINC, TABULATED], ids=lambda tf: tf.kind)
def test_nan_separation_is_refused(tf):
    # NaN and +-inf alike, on every kind
    for d in (np.nan, [0.5, np.nan], np.inf, -np.inf, [0.5, np.inf]):
        with pytest.raises(ValidationError, match="finite"):
            fi_direct(tf, d, 1.0)
        with pytest.raises(ValidationError, match="finite"):
            tau1_numeric(tf, d)
    # as is a source strength that is not positive
    for n_s in (0.0, -3.0):
        with pytest.raises(ValidationError, match="n_s"):
            fi_direct(tf, 0.5, n_s)
        with pytest.raises(ValidationError, match="n_s"):
            qfi_numeric(tf, n_s)


def test_unnormalized_tabulated_psf_is_refused(tmp_path):
    # three times the Gaussian's amplitude is refused when the PSF is built,
    # from samples or from a file, so no kernel ever meets it; normalize=True
    # rescales it instead
    grid = np.linspace(-8.0, 8.0, 801)
    path = tmp_path / "psf.txt"
    np.savetxt(path, np.column_stack([grid, 3.0 * eval_u(GAUSS, grid)]))
    from_samples = lambda **kw: tabulated_psf(grid, 3.0 * eval_u(GAUSS, grid), **kw)
    for build in (from_samples, lambda **kw: load_tabulated(path, **kw)):
        with pytest.raises(ValidationError, match="not normalized: integral of u.2 = 9"):
            build()
        tab = build(normalize=True)
        assert tab.norm == 1.0 and tab.sigma == pytest.approx(1.0, abs=1e-6)


# each entry point that takes n_s or sigma directly
POSITIVE_INPUTS = {
    "SourceScene n_s": lambda x: SourceScene(GAUSS, 0.5, x),
    "fi_direct n_s": lambda x: fi_direct(GAUSS, 0.5, x),
    "qfi_numeric n_s": lambda x: qfi_numeric(GAUSS, x),
    "qfi n_s": lambda x: qfi(x, 1.0),
    "qfi sigma": lambda x: qfi(1.0, x),
    "d_half_counting sigma": lambda x: d_half_counting(x, 1e4),
    "d_half_quadrature sigma": lambda x: d_half_quadrature(x, 1e4),
    "superres_window sigma": lambda x: superres_window(x, 1e4),
    "superres_window n_s": lambda x: superres_window(1.0, 1e4, n_s=x, statistics=THERMAL),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(POSITIVE_INPUTS))
def test_inputs_that_are_not_finite_and_positive_are_refused(entry, value):
    # NaN passes a test x <= 0, and inf gives an infinite or NaN answer
    with pytest.raises(ValidationError, match="finite and positive"):
        POSITIVE_INPUTS[entry](value)


def test_linear_in_source_strength():
    assert fi_direct(GAUSS, 0.7, 40.0) == pytest.approx(40.0 * fi_direct(GAUSS, 0.7, 1.0), rel=1e-12)


def test_qfi_values():
    assert qfi(100.0, 1.0) == 100.0
    assert qfi(1.0, 2.0) == 0.25
    assert qfi_numeric(GAUSS, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert qfi_numeric(SINC, 1.0) == pytest.approx(1.0, abs=1e-8)
    # sigma of a tabulated PSF comes from the same exact spline integral
    assert qfi_numeric(TABULATED, 1.0) == pytest.approx(qfi(1.0, TABULATED.sigma), rel=1e-15)


def _judged(monkeypatch, compute):
    """(value, error estimate) pairs that quad_over_psf judged while compute ran."""
    judged = []

    def check(value, err, *args):
        judged.append((np.copy(value), np.copy(err)))
        return check_converged(value, err, *args)

    monkeypatch.setattr(psf, "check_converged", check)
    compute()
    monkeypatch.undo()
    return judged


def _assert_honest(value, err, true_error):
    # never under the true error, and at most 1e4 times over it (or over 1e-15 of the value)
    floor = 1e-15 * np.abs(value)
    assert np.all(err >= true_error - floor)
    assert np.all(err <= 1e4 * np.maximum(true_error, floor))


@pytest.mark.parametrize("tf", [GAUSS, SINC, sinc_psf(sigma=1.3)], ids=["gaussian", "sinc", "sinc-1.3"])
def test_qfi_error_estimate_is_honest(tf, monkeypatch):
    # the derivative energy integral u'^2 dx is 1 / (4 sigma^2) exactly
    [(value, err)] = _judged(monkeypatch, lambda: qfi_numeric(tf, 100.0))
    _assert_honest(value, err, abs(value - 0.25 / tf.sigma**2))


@pytest.mark.parametrize("sigma", [1.0, 1.3])
def test_sinc_direct_imaging_error_estimate_is_honest(sigma, monkeypatch):
    # the ladder from SINC_HALF_WIDTH_OVER_A against a reference ladder from
    # 1600 / a, which agrees with one from 3200 / a to 2.2e-13: far below the
    # estimates past 5 sigma (over 1e-11)
    tf = sinc_psf(sigma=sigma)
    d = np.linspace(0.0, 30.0 * sigma, 61)
    [(value, err)] = _judged(monkeypatch, lambda: fi_direct(tf, d, 1.0))
    monkeypatch.setattr(psf, "SINC_HALF_WIDTH_OVER_A", 1600.0)
    try:
        reference = fi_direct(tf, d, 1.0)
    finally:
        integrate._ladder.cache_clear()
    _assert_honest(value, err, np.abs(value - reference))
