"""Transfer functions: evaluation, widths, mode orthonormality, tabulated IO."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from spaderes import integrate, psf
from spaderes.direct_imaging import fi_direct
from spaderes.errors import UnsupportedKindError, ValidationError
from spaderes.integrate import CHUNK_NODES, integrate_oscillatory_tails
from spaderes.overlap import tau1_closed
from spaderes.psf import (
    SINC_HALF_WIDTH_OVER_A,
    TransferFunction,
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
# the one margin of an integral over the undisplaced PSF
NO_MARGIN = np.zeros(1)


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
        [norm] = quad_over_psf(tf, lambda u, du: u[0] ** 2, NO_MARGIN)
        assert abs(norm - 1.0) < 1e-9


def _v1(tf, x):
    """Derivative mode v1(x) = -2 sigma u'(x)."""
    return -2.0 * sigma_of(tf) * eval_u_prime(tf, x)


def test_mode_pair_orthonormal():
    # <u, v1> = 0 by parity: u is even and v1 odd.  quad_over_psf takes even
    # integrands only, over x >= 0, doubled; the cross term's integral there
    # is -2 sigma [u^2 / 2] from 0 to infinity = sigma u(0)^2, which it must
    # give, and the whole line's is the half-line's less its mirror, 0
    for tf, tol in ((GAUSS, 1e-8), (SINC_S1, 1e-6)):
        v1 = lambda du: -2.0 * sigma_of(tf) * du[0]
        [cross] = quad_over_psf(tf, lambda u, du: u[0] * v1(du), NO_MARGIN)
        [v1sq] = quad_over_psf(tf, lambda u, du: v1(du) ** 2, NO_MARGIN)
        assert cross == pytest.approx(2.0 * sigma_of(tf) * eval_u(tf, 0.0) ** 2, abs=1e-9)
        assert abs(v1sq - 1.0) < tol


def test_one_image_is_the_pair_at_margin_zero():
    # quad_over_psf integrates f of the pair of images at +-margin; at margin
    # 0, of either sign, both are the one image at 0 with the same bits, so
    # the norm is the product of the two as it is the square of either
    for tf, tol in ((GAUSS, 1e-14), (SINC_S1, 1e-9)):
        for margin in (NO_MARGIN, -NO_MARGIN):
            seen = []
            product = lambda u, du: seen.append((u, du)) or u[0] * u[1]
            [norm] = quad_over_psf(tf, product, margin)
            assert seen and all(np.array_equal(*u) and np.array_equal(*du) for u, du in seen)
            assert norm == quad_over_psf(tf, lambda u, du: u[0] ** 2, margin)[0]
            assert norm == pytest.approx(1.0, rel=0.0, abs=tol)


@pytest.mark.parametrize("tf", [GAUSS, SINC_S1], ids=lambda tf: tf.kind)
def test_an_empty_margin_gives_each_integrands_empty_row(tf):
    # (d.size, k) for k integrands, an empty d too
    two = lambda u, du: (u[0] * u[1], du[0] * du[1])
    for margin in (np.array([]), np.array([0.5])):
        both = quad_over_psf(tf, two, margin, what=("u u", "u' u'"))
        assert both.shape == (margin.size, 2)
        one = quad_over_psf(tf, lambda u, du: u[0] * u[1], margin)
        assert one.shape == margin.shape


def test_v1_gaussian_form():
    # v1 reduces to (x / sigma) u(x) for the Gaussian kind
    assert _v1(GAUSS, 1.0) == pytest.approx(eval_u(GAUSS, 1.0), rel=1e-12)
    assert _v1(GAUSS, 0.0) == 0.0


def test_v1_sinc_closed_form():
    # u'(pi) = -sqrt(1/pi)/pi for a=1, so v1(pi) = 2 sigma sqrt(1/pi)/pi
    sigma = np.sqrt(3.0) / 2.0
    expect = 2.0 * sigma * np.sqrt(1.0 / np.pi) / np.pi
    assert _v1(SINC_A1, np.pi) == pytest.approx(expect, rel=1e-12)


def _sinc_long_double(t):
    """sinc t and its derivative in long double, by Taylor series where |t| < 0.1."""
    t = np.asarray(t, dtype=np.longdouble)
    small = np.abs(t) < 0.1
    ts = np.where(small, 1, t)
    f = np.sin(ts) / ts
    df = (ts * np.cos(ts) - np.sin(ts)) / ts**2
    tt = t[small]
    coef = [np.longdouble((-1) ** n) / math.factorial(2 * n + 1) for n in range(12)]
    f[small] = sum(c * tt ** (2 * n) for n, c in enumerate(coef))
    df[small] = sum(2 * n * c * tt ** (2 * n - 1) for n, c in enumerate(coef) if n)
    return f, df


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than double"
)
@pytest.mark.parametrize("d", [0.0, 0.3, 1.3, 5.0, 30.0])
def test_sinc_images_match_long_double(d):
    # both images, from shared sin(a x) and cos(a x), within 1e-15 of the peak
    # of exact at the same t = a (x -+ d): at t = 0, by series (|t| < 0.1),
    # near the peaks (0.1 <= |t| < 1 and beyond), on every node of the tail
    # ladder that fi_direct integrates over at this d (out to about 1850-1900
    # sigma) and on their mirror images, and on far nodes past them, out to
    # 4000 sigma
    a = SINC_S1.a
    k = np.sqrt(a / np.pi)
    nodes = []
    integrate_oscillatory_tails(
        lambda x, *_: nodes.extend([x[0], -x[0]]) or np.zeros_like(x),
        SINC_HALF_WIDTH_OVER_A / a + d,
        a,
        np.zeros(1),
    )
    t = np.concatenate(
        [[0.0], np.linspace(0.001, 0.099, 50), np.linspace(0.1, 1.0, 91), np.linspace(1.0, 40.0, 400)]
    )
    t = np.concatenate([t, -t])
    far = np.geomspace(1000.0, 4000.0, 2001)
    x = np.concatenate([*nodes, d + t / a, -d + t / a, far, -far])
    assert np.abs(x).max() > 3500.0
    # the images at x - d and x + d are the pair at the margin -d
    u, du = psf._sinc_images(a, x[None, :], np.full((1, 1), -d))
    for row, s in enumerate((d, -d)):
        f, df = _sinc_long_double(np.longdouble(a) * (x.astype(np.longdouble) - np.longdouble(s)))
        assert np.abs(u[row, 0] / k - f).max() < 1e-15
        assert np.abs(du[row, 0] / (k * a) - df).max() < 1e-15


def test_kept_ladder_trigonometry_is_each_chunks_own():
    # the phases sin(a x) and cos(a x) of the whole packed ladder, kept with
    # it by value of (m0, a), hold the bits the evaluator gives each chunk of
    # the ladder's row on its own: from 18 and 34 periods, which run in two
    # and three chunks
    for tf in (SINC_S1, SINC_A1):
        a = tf.a
        for m0 in (18, 34):
            _, _, (x, _, sin_ax, cos_ax) = integrate._ladder(m0, a)
            assert integrate._ladder(m0, float(a))[2][2] is sin_ax
            assert not sin_ax.flags.writeable
            chunks = integrate._chunks(x.size)
            assert len(chunks) > 1 and max(c.stop - c.start for c in chunks) <= CHUNK_NODES
            for c in chunks:
                assert np.array_equal(sin_ax[:, c], np.sin(a * x[:, c]))
                assert np.array_equal(cos_ax[:, c], np.cos(a * x[:, c]))


def test_eval_u_is_the_evaluator_at_no_shift():
    # eval_u and eval_u_prime have the bits of the images quad_over_psf's
    # integrands get, on a row of nodes at a zero shift
    x = np.linspace(-50.0, 50.0, 1001)
    for tf, (u, du) in (
        (GAUSS, psf._gaussian_images(GAUSS.sigma, x[None, :], np.zeros((1, 1, 1)))),
        (SINC_S1, psf._sinc_images(SINC_S1.a, x[None, :], np.zeros((1, 1)))),
    ):
        assert np.array_equal(eval_u(tf, x), u[0, 0])
        assert np.array_equal(eval_u_prime(tf, x), du[0, 0])
    # the Gaussian's u and u' share one exp and keep the closed form's bits
    e = np.exp(-(x**2) / 4.0)
    c = (2.0 * np.pi) ** (-0.25)
    assert np.array_equal(eval_u(GAUSS, x), c * e)
    assert np.array_equal(eval_u_prime(GAUSS, x), (-(x / 2.0) * c) * e)


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
    # the spline inside the grid hull, x_0 and x_n included, and 0 outside it;
    # the table spans +-5 sigma, so its norm is within 1e-6 of 1
    x, u = _gaussian_samples(201, half=5.0)
    tab = tabulated_psf(x, u)
    spline = CubicSpline(x, u)
    inside = np.concatenate([x, 0.5 * (x[1:] + x[:-1])])
    np.testing.assert_allclose(eval_u(tab, inside), spline(inside), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(eval_u_prime(tab, inside), spline(inside, 1), rtol=0.0, atol=1e-13)
    outside = np.array([-np.inf, -1e300, -5.5, np.nextafter(-5.0, -6.0), 5.0 + 1e-12, 7.0, np.inf])
    for f in (eval_u, eval_u_prime):
        assert np.all(f(tab, outside) == 0.0)
        assert f(tab, 5.5) == 0.0


def test_unknown_kind_is_refused_at_construction():
    with pytest.raises(UnsupportedKindError, match="unknown PSF kind 'airy'"):
        TransferFunction(kind="airy", sigma=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_width_that_is_not_finite_and_positive_is_refused_at_construction(value):
    builds = {
        "sigma": (gaussian_psf, lambda s: sinc_psf(sigma=s), lambda s: TransferFunction("sinc", s)),
        "a": (lambda a: sinc_psf(a=a),),
    }
    for name, constructors in builds.items():
        for build in constructors:
            with pytest.raises(ValidationError, match=f"^{name} must be finite and positive"):
                build(value)


def test_tabulated_kind_without_its_spline_is_refused():
    with pytest.raises(ValidationError, match="needs its spline"):
        TransferFunction(kind="tabulated", sigma=1.0)


def test_psf_record_holds_no_second_copy_of_its_spline():
    # the grid and norm of a tabulated PSF are read from its spline, which
    # every kernel reads, so a record cannot pair a spline with another
    # grid or width (such a record once gave fi_direct 0.111 against 0.734)
    tab = load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")
    spline = tab._pieces
    assert [f.name for f in dataclasses.fields(TransferFunction)] == ["kind", "sigma", "_pieces"]
    assert tab.grid is spline.x and tab.norm == spline.norm and tab.sigma == spline.sigma
    assert GAUSS.grid is None and GAUSS.norm == 1.0
    # the spline keeps its own grid: a caller's array changed in place moves nothing
    x, u = _gaussian_samples(201)
    own = tabulated_psf(x, u)
    x *= 2.0
    assert own.grid[-1] == 10.0 and not own.grid.flags.writeable
    with pytest.raises(TypeError, match="grid"):
        TransferFunction(kind="tabulated", sigma=tab.sigma, grid=tab.grid[:5], _pieces=spline)
    with pytest.raises(ValidationError, match="not its spline's"):
        TransferFunction(kind="tabulated", sigma=3.0, _pieces=spline)
    for kind in ("gaussian", "sinc"):
        with pytest.raises(ValidationError, match="carries no spline"):
            TransferFunction(kind=kind, sigma=tab.sigma, _pieces=spline)
    again = TransferFunction(kind="tabulated", sigma=tab.sigma, _pieces=spline)
    assert fi_direct(again, 1.0, 1.0) == fi_direct(tab, 1.0, 1.0)


def test_tabulated_psf_has_no_closed_form_or_kind_adapted_quadrature():
    tab = load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")
    with pytest.raises(UnsupportedKindError, match="no closed-form transmission"):
        tau1_closed(tab, 1.0)
    with pytest.raises(UnsupportedKindError, match="no kind-adapted quadrature"):
        quad_over_psf(tab, lambda u, du: u[0] ** 2, NO_MARGIN)


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


def _three_columns(tmp_path):
    path = tmp_path / "psf.txt"
    path.write_text("0 1 2\n1 1 2\n2 1 2\n")
    return load_tabulated(path)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda _: tabulated_psf([0.0, 1.0, 2.0], [1.0, 1.0]), ValidationError, "matching shapes"),
        (lambda _: tabulated_psf([0.0, 1.0, 2.0], np.zeros(3), normalize=True), ValidationError,
         "cannot normalize"),
        (lambda _: tabulated_psf([0.0, 1.0, 2.0], np.zeros(3)), ValidationError, "derivative energy"),
        (_three_columns, ValidationError, "expected two columns"),
        (lambda _: gaussian_psf(1.0).a, AttributeError, "sinc kind only"),
    ],
    ids=["shapes", "zero-normalized", "zero", "three-columns", "gaussian-a"],
)
def test_documented_refusals(build, error, match, tmp_path):
    with pytest.raises(error, match=match):
        build(tmp_path)


def test_load_tabulated_file(tmp_path):
    x, u = _gaussian_samples(801)
    path = tmp_path / "psf.txt"
    lines = ["# position amplitude"]
    lines += [f"{xi:.12e}  {ui:.12e}" for xi, ui in zip(x, u)]
    path.write_text("\n".join(lines) + "\n")
    tab = load_tabulated(path)
    assert sigma_of(tab) == pytest.approx(1.0, abs=1e-4)
    assert eval_u(tab, 0.5) == pytest.approx(eval_u(GAUSS, 0.5), abs=1e-8)
