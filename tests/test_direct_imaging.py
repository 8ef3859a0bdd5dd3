"""Intensity-only imaging FI and the quantum bound it fails to reach."""

import math
from pathlib import Path

import numpy as np
import pytest

from spaderes.counting import THERMAL, SourceScene
from spaderes.direct_imaging import fi_direct, qfi, qfi_numeric
from spaderes import integrate, psf, spline
from spaderes.errors import NumericError, ValidationError
from spaderes.integrate import (
    DIRECT_REL_TOL,
    QUAD_ABS_TOL,
    check_converged,
    composite_gauss_legendre,
    integrate_oscillatory_tails,
)
from spaderes.overlap import tau1_closed, tau1_numeric, tau1_sinc_expansion, tau1_small_d
from spaderes.psf import (
    GAUSSIAN_HALF_WIDTH_SIGMAS,
    SINC_HALF_WIDTH_OVER_A,
    eval_u,
    eval_u_prime,
    gaussian_psf,
    load_tabulated,
    quad_over_psf,
    sinc_psf,
    tabulated_psf,
)
from spaderes.resolution import (
    d_half_counting,
    d_half_from_curve,
    d_half_quadrature,
    superres_window,
)
from spaderes.spline import P_FLOOR, _density, _information_density

GOLDEN = Path(__file__).parent / "golden"
GAUSS = gaussian_psf(1.0)
SINC = sinc_psf(sigma=1.0)
# the unit Gaussian sampled on 801 points over +-8 sigma
TABULATED = load_tabulated(GOLDEN / "psf_gaussian_801.txt")


def _image_density(tf, x, d: float):
    """p and dp/dd at the points x, from the images fi_direct's integrand gets:
    the kind's evaluator on x as one row of nodes, shifted by -d and d."""
    x = np.reshape(x, (1, -1))
    if tf.kind == "gaussian":
        u, du = psf._gaussian_images(tf.sigma, x, np.array([-d, d])[:, None, None])
    else:
        u, du = psf._sinc_images(tf.a, x, np.full((1, 1), d))
    return _density((u[0, 0], du[0, 0]), (u[1, 0], du[1, 0]))


def _images_density(u, du):
    """p of the images at x + d and x - d, as quad_over_psf hands them over."""
    return _density((u[0], du[0]), (u[1], du[1]))[0]


def test_density_normalized_and_even_in_d():
    images = lambda x, d: psf._gaussian_images(1.0, x, np.array([-1.0, 1.0])[:, None, None] * d)
    [total], _ = composite_gauss_legendre(
        lambda x, d: _images_density(*images(x, d)), -12.0, 12.0, 48, np.array([0.8])
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    # the sinc's images decay as 1/x: its tail ladder
    [total] = quad_over_psf(SINC, _images_density, np.array([0.8]))
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
    """(value, error estimate) of the even f(x, d) over quad_over_psf's
    half-line domain and rule for ``tf`` at the one displacement d =
    ``margin`` up to 10 sigma, with f evaluating the PSF itself (and leaving
    the tail ladder's phases aside): on the Gaussian, x = H y on the
    template [0, 1], and the integral scaled by 2 H."""
    d = np.array([margin])
    if tf.kind == "gaussian":
        half = GAUSSIAN_HALF_WIDTH_SIGMAS * tf.sigma + margin
        panels = np.ceil(0.5 * max(48, np.ceil(4.0 * half / tf.sigma)))
        value, err = composite_gauss_legendre(lambda y, d: f(half * y, d), 0.0, 1.0, panels, d)
        return 2.0 * half * value, 2.0 * half * err
    start = SINC_HALF_WIDTH_OVER_A / tf.a
    return integrate_oscillatory_tails(f, start + margin, tf.a, d)


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


def _without_kept_trigonometry(tf, f, margin):
    """quad_over_psf's sinc integral of the even f(u, du) of the images at
    +-d for |d| up to psf.SINC_HALF_WIDTH_OVER_A / a, value and error
    estimate, with sin and cos of a x computed afresh on every chunk instead
    of taken from the ladder's phases."""
    a, d = tf.a, np.reshape(margin, -1)
    integrand = lambda x, d, *phases: f(*psf._sinc_images(a, x, d))
    start = psf.SINC_HALF_WIDTH_OVER_A / a
    return integrate_oscillatory_tails(integrand, start + d, a, d)


def test_kept_ladder_trigonometry_keeps_the_bits():
    # the sinc integrand takes the phases sin and cos of a x that the ladder
    # keeps per start; the same integral with them computed afresh has the same bits
    d = np.linspace(0.0, 5.0, 11)
    calls = sum(integrate._ladder.cache_info()[:2])
    kept = fi_direct(SINC, d, 1.0)
    assert sum(integrate._ladder.cache_info()[:2]) > calls
    information = lambda u, du: _information_density(*_density((u[0], du[0]), (u[1], du[1])))
    afresh, _ = _without_kept_trigonometry(SINC, information, d)
    assert np.array_equal(kept, 1.0 * afresh)


@pytest.mark.parametrize("tf", [SINC, sinc_psf(sigma=1.3)], ids=["sinc", "sinc-1.3"])
def test_sinc_qfi_takes_the_kept_ladder_trigonometry(tf, monkeypatch):
    # every ladder chunk of the derivative energy is evaluated on slices of
    # the ladder's phases sin(a x) and cos(a x), with the bits of evaluating
    # them afresh.  From 50 / a the half ladder starts at 16 periods pi / a,
    # 8,192 nodes in one chunk; from 17 pi / a it starts at m0 = 18, 9,216
    # nodes in two
    m0 = 18
    monkeypatch.setattr(psf, "SINC_HALF_WIDTH_OVER_A", (m0 - 1) * np.pi)
    calls, images = [], psf._sinc_images
    monkeypatch.setattr(psf, "_sinc_images", lambda *args: calls.append(args) or images(*args))
    _, _, (_, _, sin_ax, cos_ax) = integrate._ladder(m0, tf.a)
    hits = integrate._ladder.cache_info().hits
    kept = qfi_numeric(tf, 1.0)
    assert integrate._ladder.cache_info().hits > hits
    for args in calls:
        assert len(args) == 4 and args[3] is not None
        assert np.shares_memory(args[3][0], sin_ax) and np.shares_memory(args[3][1], cos_ax)
    assert len(calls) == len(integrate._chunks(sin_ax.size)) == 2
    monkeypatch.setattr(psf, "_sinc_images", images)
    afresh, _ = _without_kept_trigonometry(tf, lambda u, du: du[0] ** 2, 0.0)
    assert kept == 4.0 * 1.0 * float(afresh[0])


def _whole_line(tf, f, d, whole_line_ladder):
    """quad_over_psf's integral of f(u, du) of the images at +-d, at each d
    of the 1-D d, on the layout of the whole line: the Gaussian on one span
    [-H, H], H = 10 sigma + |d|, of max(48, 4 H / sigma) panels, and sinc on
    the tail ladder over [-X, X], a d at a time."""
    ks = np.array([-1.0, 1.0])[:, None, None]
    if tf.kind == "gaussian":
        integrand = lambda x, d: f(*psf._gaussian_images(tf.sigma, x, ks * d))
        values = []
        for x in d.tolist():
            half = GAUSSIAN_HALF_WIDTH_SIGMAS * tf.sigma + x
            panels = max(48, np.ceil(4.0 * half / tf.sigma))
            [value], _ = composite_gauss_legendre(integrand, -half, half, panels, np.array([x]))
            values.append(value)
        return np.array(values)
    a, start = tf.a, SINC_HALF_WIDTH_OVER_A / tf.a
    integrand = lambda x, d: f(*psf._sinc_images(a, x, d))
    value, _ = whole_line_ladder(integrand, start + d + np.maximum(0.0, d - start), a, d)
    return value


@pytest.mark.parametrize("tf", [GAUSS, SINC], ids=lambda tf: tf.kind)
def test_half_line_matches_the_whole_line(tf, whole_line_ladder):
    # fi_direct and qfi_numeric integrate their even integrands over x >= 0
    # only: within 1e-14 of the whole line's layout, on 0-5 sigma and far
    # out (where the Gaussian takes the windows about 0 and its image)
    d = tf.sigma * np.concatenate([np.linspace(0.0, 5.0, 101), [30.0, 100.0, 200.0]])
    information = lambda u, du: _information_density(*_density((u[0], du[0]), (u[1], du[1])))
    whole = _whole_line(tf, information, d, whole_line_ladder)
    np.testing.assert_allclose(fi_direct(tf, d, 1.0), whole, rtol=1e-14, atol=0.0)
    [energy] = _whole_line(tf, lambda u, du: du[0] ** 2, np.zeros(1), whole_line_ladder)
    assert qfi_numeric(tf, 1.0) == pytest.approx(4.0 * energy, rel=1e-14, abs=0.0)


def test_gaussian_oracles_far_out_take_the_windows_about_the_images(monkeypatch):
    # once the 10-sigma window about the positive image lies apart from the
    # window [0, 10 sigma] about the origin, each is integrated alone: the
    # nodes no longer grow with d, nothing is refused, and the images apart
    # give n_s / sigma^2 and a zero overlap; past 6.7e153 sigma, where
    # (x -+ d)^2 of the far image would overflow, those rows take d clipped
    # at 1e3 sigma, and every image off its window is 0 at every node either
    # way, so they answer as at 1e6 sigma, with no warning
    d = np.array([40.0, 1e3, 1e4, 1e8, 1e154, 1e160, 1e300])
    np.testing.assert_allclose(fi_direct(GAUSS, d, 3.0), 3.0, rtol=1e-14, atol=0.0)
    assert fi_direct(gaussian_psf(2.0), 1e4, 3.0) == pytest.approx(0.75, rel=1e-14, abs=0.0)
    tr = tau1_numeric(GAUSS, d[1:])
    assert np.all(tr.tau1 == 0.0) and np.all(tr.c_prime == 0.0)
    for x in (1e154, -1e154, 1e160, 1e300):
        tr = tau1_numeric(GAUSS, x)
        assert tr.c == tr.c_prime == tr.tau1 == 0.0
        assert fi_direct(GAUSS, x, 100.0) == fi_direct(GAUSS, 1e6, 100.0) == 99.99999999999997
    mixed = [0.3, 30.0, 7e153, -1e154, 1.4e154]
    points = [fi_direct(GAUSS, x, 100.0) for x in mixed]
    assert fi_direct(GAUSS, np.array(mixed), 100.0).tolist() == points
    points = [tau1_numeric(GAUSS, x).c for x in mixed]
    assert tau1_numeric(GAUSS, np.array(mixed)).c.tolist() == points
    sizes, images = [], psf._gaussian_images
    counted = lambda *args: sizes.append(args[1].size) or images(*args)
    monkeypatch.setattr(psf, "_gaussian_images", counted)
    for x in d:
        sizes.clear()
        fi_direct(GAUSS, x, 1.0)
        tau1_numeric(GAUSS, x)
        # two windows each, for fi_direct (images at +-d) and for
        # tau1_numeric (at +-d/2): [0, 10 sigma] of 24 panels and then 48,
        # and the positive image's whole window of 48 and then 96
        assert sum(sizes) == 2 * 16 * ((24 + 48) + (48 + 96))
    monkeypatch.undo()
    # the switches, where those windows meet: 20 sigma for fi_direct's images
    # at +-d, and 40 sigma for tau1_numeric's at +-d/2, which keeps c to its
    # relative precision on both sides
    edge = np.array([np.nextafter(20.0, 0.0), 20.0])
    np.testing.assert_allclose(*fi_direct(GAUSS, edge, 1.0), rtol=1e-14, atol=0.0)
    edge = np.array([np.nextafter(40.0, 0.0), 40.0])
    numeric, closed = tau1_numeric(GAUSS, edge), tau1_closed(GAUSS, edge)
    np.testing.assert_allclose(numeric.c, closed.c, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(numeric.c_prime, closed.c_prime, rtol=1e-13, atol=0.0)


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
    afresh, _ = _without_kept_trigonometry(SINC, information, near)
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


def test_lattice_path_matches_the_merged_pieces(monkeypatch, merge_oracle):
    # the shipped grid is uniform: fi_direct integrates on its lattice and
    # never merges breakpoints, and agrees with the merge path on the same
    # spline to 1e-13 relative
    lattice = TABULATED._pieces.lattice
    n = lattice.images.shape[-1]
    h = lattice.h_hi + lattice.h_lo
    span = TABULATED.grid[-1] - TABULATED.grid[0]
    # d = 0.5 on the grid below: 2d = 50 h exactly, delta = 0
    assert lattice.lags(np.array([1.0]))[1][0, 0] == 0.0
    inside = 0.5 * np.array([span - 0.5 * h, np.nextafter(span, 0.0)])
    assert np.all(lattice.lags(2.0 * inside)[0][:, 0] == n - 1)  # the last lag
    # past the span the images are apart: exactly 1 / sigma^2
    far = 0.5 * np.array([span, np.nextafter(span, np.inf), 1.01 * span])
    d = np.concatenate([np.linspace(0.0, 5.0, 101), inside, -inside[:1], far])
    merged = merge_oracle(fi_direct, TABULATED, d, 1.0)
    monkeypatch.setattr(spline.SplinePieces, "blocks", lambda *args: pytest.fail("merged"))
    lattice_path = fi_direct(TABULATED, d, 1.0)
    assert lattice_path[0] == 0.0
    assert np.all(lattice_path[-far.size :] == 1.0 / TABULATED.sigma**2)
    np.testing.assert_allclose(lattice_path, merged, rtol=1e-13, atol=0.0)


def test_lattice_path_gives_a_d_its_bits_alone_and_inside_an_array():
    span = TABULATED.grid[-1] - TABULATED.grid[0]
    d = np.concatenate([np.linspace(-5.0, 5.0, 41), [0.5, 0.49 * span, 0.5 * np.nextafter(span, 0)]])
    alone = [fi_direct(TABULATED, x, 1.0) for x in d]
    assert np.array_equal(fi_direct(TABULATED, d, 1.0), alone)
    assert np.array_equal(fi_direct(TABULATED, d[::-1], 1.0), alone[::-1])


def test_spline_energy_prefix_sums_total_the_spline_energy():
    # the constant rows of edge_rows are the energies of u' over the whole
    # pieces before each piece (from the left) and after it (from the
    # right): 0 at the hull's ends, growing piece by piece, and with the
    # piece's own energy, its antiderivative across it, the spline's
    # energy 1 / (4 sigma^2)
    pieces = TABULATED._pieces
    before, after = pieces.edge_rows[:, -1]
    assert before.shape == after.shape == (TABULATED.grid.size - 1,)
    assert before[0] == 0.0 and after[-1] == 0.0
    assert np.all(np.diff(before) > 0.0) and np.all(np.diff(after) < 0.0)
    width = np.diff(TABULATED.grid)[:, None] ** np.arange(5.0, 0.0, -1.0)
    own = (pieces.edge_rows[0, :-1].T * width).sum(axis=1)
    np.testing.assert_allclose(before + own + after, pieces.energy, rtol=1e-15)
    np.testing.assert_allclose(4.0 * pieces.energy, 1.0 / TABULATED.sigma**2, rtol=1e-14)
    whole = pieces.edge_energy(np.array([np.nextafter(pieces.span, 0.0)]))
    np.testing.assert_allclose(whole, 2.0 * pieces.energy, rtol=1e-15)


def _knot_split_energy(tf, lo: float, hi: float) -> float:
    """integral of u'^2 over [lo, hi] by 3-node Gauss-Legendre between the
    knots inside it, of u' from the point evaluator: exact for the spline."""
    grid = tf.grid
    edges = np.concatenate([[lo], grid[(grid > lo) & (grid < hi)], [hi]])
    x, w = np.polynomial.legendre.leggauss(3)
    a, b = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
    return math.fsum((0.5 * (b - a) * w * eval_u_prime(tf, nodes) ** 2).ravel())


def test_edge_energy_is_the_integral_of_u_prime_squared_at_the_ends(sinc_cut):
    # the cut sinc's u' is far from 0 at the hull's ends, so the energy where
    # one image lies alone matters there: at s = 0, at knots, mid-piece and
    # one ulp below the span it is the independent integral over
    # [x_0, x_0 + s] and [x_n-1 - s, x_n-1] (to 1e-13: that integral's nodes
    # near |x| = 20 are rounded by 4e-15, 3e-14 of u'^2 there), and a s has
    # its bits alone or inside an array
    pieces, grid = sinc_cut._pieces, sinc_cut.grid
    assert abs(eval_u_prime(sinc_cut, grid[0])) > 1e-3
    knots = grid[[1, 7, 1000, 1999]] - grid[0]
    s = np.concatenate([knots, knots + 0.5 * (grid[1] - grid[0]), [np.nextafter(pieces.span, 0.0)]])
    energy = pieces.edge_energy(s)
    reference = [
        _knot_split_energy(sinc_cut, grid[0], grid[0] + x)
        + _knot_split_energy(sinc_cut, grid[-1] - x, grid[-1])
        for x in s
    ]
    np.testing.assert_allclose(energy, reference, rtol=1e-13, atol=0.0)
    assert pieces.edge_energy(np.zeros(1))[0] == 0.0
    assert pieces.edge_energy(np.zeros(0)).shape == (0,)
    assert np.array_equal(energy, [pieces.edge_energy(s[i : i + 1])[0] for i in range(s.size)])


def test_one_kernel_on_the_lattice_matches_the_merged_pieces_on_a_cut_table(
    sinc_cut, merge_oracle, monkeypatch
):
    # on the cut sinc, where the energy of the ends is a large part of the
    # information at small d, fi_direct through the lattice agrees with the
    # merged breakpoints of the same spline to 1e-13 relative, out to one ulp
    # of the span
    d = np.concatenate([np.arange(0.5, 5.01, 0.5), [7.5, 12.0, 19.0, 19.99]])
    merged = merge_oracle(fi_direct, sinc_cut, d, 1.0)
    monkeypatch.setattr(spline.SplinePieces, "blocks", lambda *args: pytest.fail("merged"))
    np.testing.assert_allclose(fi_direct(sinc_cut, d, 1.0), merged, rtol=1e-13, atol=0.0)


def test_non_uniform_grid_keeps_its_bits():
    # the shipped samples with every other point dropped right of 0: no
    # lattice, so fi_direct and tau1_numeric merge the breakpoints.  c and c'
    # keep the bits they had before the lattice path (c' with the term of
    # u(x - d)'s step at the hull's edge, -v1(x_0 + d) u(x_0), subtracted
    # since); fi_direct takes the energy where one image lies alone from the
    # spline's prefix sums since, within 2 ulps of its earlier bits
    data = np.loadtxt(GOLDEN / "psf_gaussian_801.txt")
    keep = np.r_[0:400, 400:801:2]
    tab = tabulated_psf(data[keep, 0], data[keep, 1])
    assert tab._pieces.lattice is None
    d = np.array([0.0, 0.05, 0.7, 1.3, 2.5, 4.0, 7.9, 9.0])
    tr = tau1_numeric(tab, d)
    expected = {
        "fi_direct": ["0x0.0p+0", "0x1.460d6bda3d1cep-8", "0x1.0cf4ccf05fbc3p-1",
                      "0x1.b9f26d37d8829p-1", "0x1.fdabeaf02fa41p-1", "0x1.fffe71c859bc8p-1",
                      "0x1.ffffffe12993dp-1", "0x1.ffffffe12993cp-1"],
        "c": ["0x0.0p+0", "0x1.9978d64123ea6p-6", "0x1.511b54b719fe9p-2",
              "0x1.0d6ce9ed7bf23p-1", "0x1.25036b081b8d6p-1", "0x1.152aaa44ff4e8p-2",
              "0x1.a7b750722c430p-10", "0x1.79ed7a60eace0p-13"],
        "c_prime": ["0x1.fffffff094f77p-2", "0x1.ff8526d9ccc95p-2", "0x1.a69660284eddcp-2",
                    "0x1.debf90048c0afp-3", "-0x1.07b6469350a1dp-3", "-0x1.9fbfff972acedp-3",
                    "-0x1.87a0161bea18ep-9", "-0x1.94566dc59040fp-12"],
    }
    got = {"fi_direct": fi_direct(tab, d, 1.0), "c": tr.c, "c_prime": tr.c_prime}
    for name, values in got.items():
        assert [float(v).hex() for v in values] == expected[name], name


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
    "tau1_small_d sigma": lambda x: tau1_small_d(x, 0.3),
    "tau1_sinc_expansion sigma": lambda x: tau1_sinc_expansion(x, 0.3),
    # refused before the curve is searched
    "d_half_from_curve sigma": lambda x: d_half_from_curve(lambda d: pytest.fail("ran"), 0.5, x),
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
