"""Mode-overlap transmission tau1(d): closed forms vs quadrature, symmetry."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from spaderes import (
    NoiseModel,
    NumericError,
    SourceScene,
    ValidationError,
    fi_counting_exact,
    overlap,
    spline,
)
from spaderes.integrate import QUAD_ABS_TOL, QUAD_REL_TOL, check_converged, composite_gauss_legendre
from spaderes.overlap import (
    tau1_closed,
    tau1_exact,
    tau1_numeric,
    tau1_sinc_expansion,
    tau1_small_d,
    tau1_value,
)
from spaderes.psf import (
    gaussian_psf,
    load_tabulated,
    sigma_of,
    sinc_psf,
    tabulated_psf,
)

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


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_gaussian_overlaps_keep_their_relative_precision_far_out(sigma):
    # the overlap is integrated in the frame centred between the images, where
    # the product's mass sits at the origin, which always has a window: c
    # stays within 1e-13 relative of the closed form out to 60 sigma, across
    # the switch to the windows at 40 sigma, wherever c is a normal float
    # (a window about each image alone once gave 7.43e-24 for 1.20e-23 at 21
    # sigma).  c' = (e / 2 sigma)(1 - d^2 / 4 sigma^2) passes through 0 at
    # 2 sigma, so it is judged against the magnitude of its two terms
    tf = gaussian_psf(sigma)
    d = sigma * np.concatenate([np.linspace(0.0, 60.0, 601)[1:], [21.0, 30.0]])
    numeric, closed = tau1_numeric(tf, d), tau1_closed(tf, d)
    normal = np.abs(closed.c) >= np.finfo(float).tiny
    assert normal.all()
    np.testing.assert_allclose(numeric.c, closed.c, rtol=1e-13, atol=0.0)
    terms = np.exp(-(d**2) / (8.0 * sigma**2)) / (2.0 * sigma) * (1.0 + d**2 / (4.0 * sigma**2))
    assert np.all(np.abs(numeric.c_prime - closed.c_prime) <= 1e-13 * terms)


def test_gaussian_peak():
    # tau1 peaks at d = 2 sigma with value 1/e
    t = tau1_closed(GAUSS, 2.0)
    assert t.tau1 == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert abs(t.dtau1_dd) < 1e-14


def test_gaussian_closed_form_is_zero_where_d_squared_overflows():
    # from d = 1.35e154 sigma d^2 overflows, and c' was 0 * -inf = NaN; c, c'
    # and tau1 are 0 there, with no warning (these tests run with warnings as
    # errors), and so is the counting information; up to 1.34e154 sigma the
    # bits are the unclipped formula's, for arrays and for scalars
    for d in (1.35e154, 1e300, -1e300):
        tr = tau1_exact(GAUSS, d)
        assert tr.c == tr.c_prime == tr.tau1 == tr.dtau1_dd == 0.0
        assert fi_counting_exact(SourceScene(GAUSS, abs(d), 100.0), NoiseModel(0.5)) == 0.0
    d = np.concatenate([np.geomspace(1e-3, 1.34e154, 2001), -np.geomspace(1e-3, 1.34e154, 11)])
    for sigma in (1.0, 0.7):
        d2 = np.float_power(d, 2)
        e = np.exp(-d2 / (8.0 * sigma**2))
        c, cp = (d / (2.0 * sigma)) * e, (e / (2.0 * sigma)) * (1.0 - d2 / (4.0 * sigma**2))
        tr = tau1_exact(gaussian_psf(sigma), d)
        assert np.array_equal(tr.c, c) and np.array_equal(tr.c_prime, cp)
        assert np.array_equal(tr.tau1, c * c) and np.array_equal(tr.dtau1_dd, 2.0 * c * cp)
        for i in (0, 1000, 2000):
            one = tau1_exact(gaussian_psf(sigma), float(d[i]))
            assert (one.c, one.c_prime) == (c[i], cp[i])
    assert fi_counting_exact(SourceScene(GAUSS, 1.34e154, 100.0), NoiseModel(0.5)) == 0.0


def test_sinc_closed_matches_numeric():
    for d, oracle in SINC_TAU1.items():
        t = tau1_closed(SINC, d)
        assert t.tau1 == pytest.approx(oracle, rel=5e-12)


def _shrink_ratio_two_passes(t):
    """q and q' as two separate functions computed them, each with its own
    mask, sin and cos: the reference for the one-pass pair."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.35
    ts = np.where(small, 1.0, t)
    direct = 3.0 * (np.sin(ts) - ts * np.cos(ts)) / ts**3
    t2 = t * t
    series = 1.0 + t2 * (-0.1 + t2 * (1.0 / 280.0 + t2 * (-1.0 / 15120.0 + t2 / 1330560.0)))
    q = np.where(small, series, direct)[()]
    small = np.abs(t) < 0.25
    ts = np.where(small, 1.0, t)
    direct = 3.0 * ((ts**2 - 3.0) * np.sin(ts) + 3.0 * ts * np.cos(ts)) / ts**4
    series = t * (-0.2 + t2 * (1.0 / 70.0 + t2 * (-1.0 / 2520.0 + t2 / 166320.0)))
    return q, np.where(small, series, direct)[()]


def test_shrink_ratios_keep_the_two_formulas_bits():
    # q and q' from one sin and one cos of t have the bits of the two
    # separate formulas: on a dense signed grid through 0, at each series
    # cut-off and one ulp either side of it, for arrays and for scalars
    cuts = np.array([0.25, 0.35])
    edges = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)])
    t = np.concatenate([np.linspace(0.0, 20.0, 20001), edges])
    t = np.concatenate([t, -t])
    q, qp = overlap._shrink_ratios(t)
    ref_q, ref_qp = _shrink_ratio_two_passes(t)
    assert np.array_equal(q, ref_q) and np.array_equal(qp, ref_qp)
    assert q[0] == 1.0 and qp[0] == 0.0
    for x in np.concatenate([edges, -edges, [0.0, 0.3, 1.7, -4.2]]):
        pair = overlap._shrink_ratios(float(x))
        assert pair == _shrink_ratio_two_passes(float(x)) and np.ndim(pair[0]) == 0


def _sinc_closed_long(sigma, a, d):
    """tau1 and dtau1/dd of the sinc closed form in long double, on the double
    t = a d that tau1_closed takes (sin t depends on every bit of t)."""
    ld = np.longdouble
    t = ld(a * d)
    q = 3 * (np.sin(t) - t * np.cos(t)) / t**3
    qp = 3 * ((t * t - 3) * np.sin(t) + 3 * t * np.cos(t)) / t**4
    half = ld(d) / (2 * ld(sigma))
    c = half * q
    cp = q / (2 * ld(sigma)) + half * qp * ld(a)
    return c * c, 2 * c * cp


def test_sinc_closed_form_answers_where_t_to_the_fourth_overflows():
    # from |t| = 2^256 t^4 overflows, and a lone d raised on it (these tests
    # run with warnings as errors); q and q' divided through by t answer
    # there, at 1e200 tau1 underflows to 0 in double as in long double, an
    # array with 0.1 and 0 beside them answers too, and the last t before
    # the cut keeps the closed forms' bits
    for sigma in (1.0, 0.37):
        tf = sinc_psf(sigma=sigma)
        for d in (2e77, 1e200, -2e77, np.array([2e77, 1e200, 0.1, 0.0])):
            tr = tau1_exact(tf, d)
            for i, x in enumerate(np.atleast_1d(d)):
                got = [np.atleast_1d(tr.tau1)[i], np.atleast_1d(tr.dtau1_dd)[i]]
                if x == 0.0:
                    assert got == [0.0, 0.0]
                    continue
                want = [float(v) for v in _sinc_closed_long(sigma, tf.a, float(x))]
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (x, got, want)
    assert float(_sinc_closed_long(1.0, SINC.a, 2e77)[0]) > 1e-160  # the check is not 0 == 0
    cut = np.array([np.nextafter(2.0**256, 0.0), -np.nextafter(2.0**256, 0.0)])
    q, qp = overlap._shrink_ratios(cut)
    with np.errstate(over="ignore"):  # the reference takes its series at every t
        ref_q, ref_qp = _shrink_ratio_two_passes(cut)
    assert np.array_equal(q, ref_q) and np.array_equal(qp, ref_qp)


@pytest.mark.parametrize("kind", ["gaussian", "sinc"])
@pytest.mark.filterwarnings("error")
def test_closed_forms_refuse_a_separation_that_is_not_finite(kind):
    # as the quadrature and a table refuse it: no NaN, and no warning on the way
    tf = GAUSS if kind == "gaussian" else SINC
    for bad in (np.inf, -np.inf, np.nan):
        for d in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad, 1.0]), np.array([[bad]])):
            for fn in (tau1_closed, tau1_exact, tau1_numeric):
                with pytest.raises(ValidationError, match="separation d must be finite"):
                    fn(tf, d)
    assert tau1_closed(tf, np.array([0.5, 1e300])).tau1[0] == tau1_closed(tf, 0.5).tau1


def _value_grid(a, sigma):
    """Separations across every branch of the closed forms: 0, both signs,
    t = a d on both sides of the series cut-offs 0.25 and 0.35 (and one ulp
    either side), on a grid out to 20 sigma, from 2^256 where t^4 overflows,
    and past the Gaussian's clip at 1e3 sigma."""
    cuts = np.array([0.25, 0.35])
    t = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0),
                        np.linspace(0.2, 0.4, 201), [2.0**256, np.nextafter(2.0**256, 0.0), 1e300]])
    d = np.concatenate([[0.0], t / a, sigma * np.linspace(0.0, 20.0, 401), sigma * np.array([
        999.0, 1e3, 1e3 + 1e-9, 2e3, 1e150])])
    return np.concatenate([d, -d])


@pytest.mark.parametrize("kind", ["gaussian", "sinc"])
@pytest.mark.parametrize("sigma", [1.0, 0.37, 2.5])
@pytest.mark.filterwarnings("error")
def test_tau1_value_has_the_bits_of_tau1_exact(kind, sigma):
    # the root finders' tau1 alone is tau1_exact's tau1, bit for bit, on
    # whole arrays, on halves of them and on each d alone
    tf = gaussian_psf(sigma) if kind == "gaussian" else sinc_psf(sigma=sigma)
    a = tf.a if kind == "sinc" else 1.0 / sigma
    d = _value_grid(a, sigma)
    want = tau1_exact(tf, d).tau1
    assert np.array_equal(tau1_value(tf, d), want)
    half = d.size // 2
    assert np.array_equal(np.concatenate([tau1_value(tf, d[:half]), tau1_value(tf, d[half:])]), want)
    alone = [tau1_value(tf, x) for x in d.tolist()]
    assert alone == [tau1_exact(tf, x).tau1 for x in d.tolist()]
    assert np.array_equal(alone, want) and all(np.ndim(v) == 0 for v in alone)
    assert tau1_value(tf, d.reshape(2, -1)).shape == (2, half)


def test_tau1_value_takes_a_table_through_tau1_exact():
    tf = load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")
    d = np.linspace(-3.0, 20.0, 47)
    assert np.array_equal(tau1_value(tf, d), tau1_exact(tf, d).tau1)
    assert tau1_value(tf, 0.7) == tau1_exact(tf, 0.7).tau1


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


# a Gaussian sampled on 801 points over +-8 sigma, on a uniform grid and on one
# whose inner points are moved by up to 30% of the spacing
_X = np.linspace(-8.0, 8.0, 801)
_JITTERED = _X + np.concatenate(
    [[0.0], np.random.default_rng(3).uniform(-0.3, 0.3, 799) * 0.02, [0.0]]
)
SAMPLES = {
    name: (x, (2.0 * np.pi) ** -0.25 * np.exp(-(x**2) / 4.0))
    for name, x in (("uniform", _X), ("jittered", _JITTERED))
}
TABULATED = {name: tabulated_psf(*samples) for name, samples in SAMPLES.items()}
D_GRID = np.linspace(0.0, 5.0, 101)  # tau-curve's default grid, sigma = 1


@pytest.mark.parametrize("grid", TABULATED)
def test_spline_overlap_matches_gauss_legendre(grid):
    # the same v1 u and v1 u' products integrated by composite Gauss-Legendre
    # over the grid hull, wherever that rule converges, on scipy's spline of the
    # samples extended by 0 off the hull; u(x - d) steps there at x_0 + d, so
    # dc/dd takes the step's term -v1(x_0 + d) u(x_0) besides the integral
    tab = TABULATED[grid]
    sigma = sigma_of(tab)
    spline = tau1_numeric(tab, D_GRID)
    scipy_spline = CubicSpline(*SAMPLES[grid])

    def u_off_hull(x, nu):
        inside = (x >= tab.grid[0]) & (x <= tab.grid[-1])
        return np.where(inside, scipy_spline(np.clip(x, tab.grid[0], tab.grid[-1]), nu), 0.0)

    def v1(x):
        return -2.0 * sigma * scipy_spline(x, 1)

    def hull_quadrature(f, d):
        n_panels = max(128, min(4096, tab.grid.size))
        [value], [err] = composite_gauss_legendre(
            f, tab.grid[0], tab.grid[-1], n_panels, np.array([d])
        )
        return check_converged(value, err, QUAD_REL_TOL, QUAD_ABS_TOL, "hull quadrature")

    compared = 0
    for k, d in enumerate(D_GRID):
        try:
            c = hull_quadrature(lambda x, d: v1(x) * u_off_hull(x - d, 0), d)
            cp = hull_quadrature(lambda x, d: v1(x) * -u_off_hull(x - d, 1), d)
        except NumericError:
            continue
        compared += 1
        step = v1(tab.grid[0] + d) * scipy_spline(tab.grid[0])
        assert abs(spline.c[k] - (0.0 if d == 0 else c)) < 1e-10
        assert abs(spline.c_prime[k] - (cp - step)) < 1e-10
    assert compared >= 95


@pytest.mark.parametrize("grid", TABULATED)
def test_spline_overlap_matches_the_sampled_gaussian(grid):
    spline = tau1_numeric(TABULATED[grid], D_GRID)
    closed = tau1_closed(GAUSS, D_GRID)
    assert np.max(np.abs(spline.tau1 - closed.tau1)) < 1e-8
    assert np.max(np.abs(spline.dtau1_dd - closed.dtau1_dd)) < 1e-8


def _overlap_in_extended_precision(grid, d):
    # the kernel's piecewise products, merged, located and summed independently,
    # in long double, on scipy's spline of the same samples; c' takes the term
    # of u(x - d)'s step at x_0 + d, -v1(x_0 + d) u(x_0)
    ld = np.longdouble
    spline = CubicSpline(*SAMPLES[grid])
    x, k, sigma = spline.x.astype(ld), spline.c.astype(ld), ld(sigma_of(TABULATED[grid]))
    d = ld(d)
    edges = np.unique(np.concatenate([x, x + d]))
    edges = edges[(edges >= x[0] + d) & (edges <= x[-1])]
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    gx = np.array([-np.sqrt(ld(3) / 5), ld(0), np.sqrt(ld(3) / 5)])
    gw = np.array([ld(5) / 9, ld(8) / 9, ld(5) / 9])
    nodes = mid[:, None] + half[:, None] * gx
    i = np.searchsorted(x, mid, "right")[:, None] - 1
    j = np.searchsorted(x, mid - d, "right")[:, None] - 1
    t, s = nodes - x[i], nodes - d - x[j]
    v1 = -2 * sigma * ((3 * k[0][i] * t + 2 * k[1][i]) * t + k[2][i])
    u = ((k[0][j] * s + k[1][j]) * s + k[2][j]) * s + k[3][j]
    du = (3 * k[0][j] * s + 2 * k[1][j]) * s + k[2][j]
    w = half[:, None] * gw
    m = np.searchsorted(x, x[0] + d, "right") - 1
    at = x[0] + d - x[m]
    step = -2 * sigma * ((3 * k[0][m] * at + 2 * k[1][m]) * at + k[2][m]) * k[3][0]
    return np.sum(w * v1 * u), np.sum(-w * v1 * du) - step


@pytest.mark.parametrize("grid", TABULATED)
def test_spline_overlap_error_estimate_bounds_its_rounding(grid, monkeypatch):
    # exact quadrature leaves rounding only: the estimate must cover the error
    # against an extended-precision sum, and stay within 1e3 of it (or of 1e-15)
    tab = TABULATED[grid]
    estimates = []

    def record(value, err, *args):
        estimates.append(err)
        return value

    monkeypatch.setattr(spline, "check_converged", record)
    d = np.array([0.01, 0.3, 1.0, 2.0, 3.7, 6.5, 11.0])
    tr = tau1_numeric(tab, d)
    [err] = estimates  # c and c' are judged in one call, a column each
    err_c, err_cp = err.T
    for k, dk in enumerate(d):
        c, cp = _overlap_in_extended_precision(grid, dk)
        for value, ref, err in ((tr.c[k], c, err_c[k]), (tr.c_prime[k], cp, err_cp[k])):
            true = float(abs(np.longdouble(value) - ref))
            assert true <= err <= 1e3 * max(true, 1e-15)


def test_spline_overlap_vanishes_beyond_the_hull():
    tab = TABULATED["uniform"]
    for fn in (tau1_numeric, tau1_exact):
        tr = fn(tab, np.array([16.0, 16.5, -20.0, 1e6, 1e300]))
        assert np.all(tr.c == 0.0) and np.all(tr.c_prime == 0.0)


SHIPPED = load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")


def test_lag_sums_match_the_piecewise_overlap(monkeypatch, merge_oracle):
    # on a uniform grid tau1_exact takes the spline's rows by lag; it must agree with
    # the piece-by-piece oracle on the merged breakpoints of the same spline,
    # which shares no lattice code, within the oracle's own rounding bound,
    # over 0-20 sigma: random d, every knot m h, and the 16-sigma hull span
    # and one ulp either side of it, of both signs
    tab = SHIPPED
    assert tab._pieces.lattice is not None
    sigma = sigma_of(tab)
    span = tab.grid[-1] - tab.grid[0]
    h = span / (tab.grid.size - 1)
    d = np.concatenate(
        [
            np.random.default_rng(11).uniform(0.0, 20.0 * sigma, 500),
            np.arange(int(20.0 * sigma / h) + 1) * h,
            [np.nextafter(span, 0.0), span, np.nextafter(span, np.inf)],
        ]
    )
    d = np.concatenate([d, -d[::7]])
    estimates = []

    def record(value, err, *args):
        estimates.append(err)
        return value

    monkeypatch.setattr(spline, "check_converged", record)
    c, cp = merge_oracle(lambda tf, ad: tf._pieces.overlaps(ad), tab, np.abs(d))
    [err] = estimates  # c and c' are judged in one call, a column each
    err_c, err_cp = err.T
    exact = tau1_exact(tab, d)
    assert len(estimates) == 1  # the lag rows refuse nothing: no estimate of their own
    assert np.all(np.abs(exact.c - np.sign(d) * c) <= err_c)
    assert np.all(np.abs(exact.c_prime - cp) <= err_cp)
    # c odd and c' even in d, bit for bit, with c(0) = 0
    back = tau1_exact(tab, -d)
    assert np.array_equal(back.c, -exact.c) and np.array_equal(back.c_prime, exact.c_prime)
    assert tau1_exact(tab, 0.0).c == 0.0


def test_lattice_overlaps_match_the_merged_pieces(monkeypatch, merge_oracle):
    # on a uniform grid tau1_numeric integrates on the lattice, evaluating
    # the pieces at shared nodes, and never merges breakpoints; it agrees
    # with the merge path on the same spline to 1e-15 on the tau-curve grid,
    # at d = m h exactly (delta = 0), at the last lag, and past the span,
    # where c = c' = 0
    tab = SHIPPED
    lattice = tab._pieces.lattice
    n = lattice.v1.shape[1]
    h = lattice.h_hi + lattice.h_lo
    span = tab.grid[-1] - tab.grid[0]
    assert lattice.lags(np.array([1.0]))[1][0, 0] == 0.0  # d = 50 h
    last = np.array([span - 0.5 * h, np.nextafter(span, 0.0)])
    assert np.all(lattice.lags(last)[0][:, 0] == n - 1)
    far = np.array([span, np.nextafter(span, np.inf), 1.01 * span])
    d = np.concatenate([D_GRID, [1.0], last, far])
    merged = merge_oracle(lambda tf, ad: tf._pieces.overlaps(ad), tab, d)
    monkeypatch.setattr(spline.SplinePieces, "blocks", lambda *args: pytest.fail("merged"))
    tr = tau1_numeric(tab, d)
    for lattice_path, merge_path in zip((tr.c, tr.c_prime), merged):
        np.testing.assert_allclose(lattice_path, merge_path, rtol=0.0, atol=1e-15)
        assert np.all(lattice_path[-far.size :] == 0.0)


def test_lattice_overlaps_give_a_d_its_bits_alone_and_inside_an_array():
    span = SHIPPED.grid[-1] - SHIPPED.grid[0]
    d = np.concatenate([np.linspace(-5.0, 5.0, 41), [1.0, 0.99 * span, np.nextafter(span, 0.0)]])
    alone = [tau1_numeric(SHIPPED, x) for x in d]
    for together in (tau1_numeric(SHIPPED, d), tau1_numeric(SHIPPED, d[::-1])):
        order = slice(None) if together.d[0] == d[0] else slice(None, None, -1)
        for field in ("c", "c_prime"):
            expect = [getattr(t, field) for t in alone]
            assert np.array_equal(getattr(together, field)[order], expect)


def test_lag_sums_are_exact_where_nothing_cancels():
    # the grid's points are off the exact lattice x_0 + i h by up to 1.35e-15;
    # re-centring the pieces on the lattice keeps the tails, where c and c' are
    # sums of terms of one sign, within 4 eps of an extended-precision sum
    tab = TABULATED["uniform"]
    d = np.array([11.0, 14.0, 15.0, 15.5, 15.9, 15.97, 15.99])
    tr = tau1_exact(tab, d)
    for k, dk in enumerate(d):
        c, cp = _overlap_in_extended_precision("uniform", dk)
        for value, ref in ((tr.c[k], c), (tr.c_prime[k], cp)):
            assert float(abs(np.longdouble(value) / ref - 1)) <= 4 * np.finfo(float).eps


def test_lag_sums_are_built_only_for_the_lags_asked():
    # a lag's rows are built from its lag sums and the next lag's on first use;
    # the last lag, past every piece, is 0 from the start
    tab = load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")
    table, built = tab._pieces.lattice._rows
    assert np.flatnonzero(built).tolist() == [built.size - 1]
    tau1_exact(tab, 1.01)  # between the knots 50 h and 51 h
    assert np.flatnonzero(built[:-1]).tolist() == [50]
    assert np.count_nonzero(table[:, :-1].any(axis=(0, 2))) == 1


def test_lag_rows_give_a_d_its_bits_alone_and_inside_an_array():
    # tau1_exact on the lattice's rows, of both signs, at the knots, on the
    # last lag and one ulp below the span, a d at a time, in one array and
    # reversed, and on a table whose rows another order of calls built
    span = SHIPPED.grid[-1] - SHIPPED.grid[0]
    h = span / (SHIPPED.grid.size - 1)
    d = np.concatenate(
        [
            np.linspace(-5.0, 5.0, 41),
            np.random.default_rng(2).uniform(-span, span, 40),
            [1.0, 50 * h, span - 0.5 * h, np.nextafter(span, 0.0), -np.nextafter(span, 0.0)],
        ]
    )
    fresh = load_tabulated(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")
    alone = [tau1_exact(fresh, x) for x in d]
    for together in (tau1_exact(SHIPPED, d), tau1_exact(SHIPPED, d[::-1])):
        order = slice(None) if together.d[0] == d[0] else slice(None, None, -1)
        for field in ("tau1", "dtau1_dd", "c", "c_prime"):
            expect = [getattr(t, field) for t in alone]
            assert np.array_equal(getattr(together, field)[order], expect)


def test_non_uniform_grid_keeps_the_piecewise_overlap():
    tab = TABULATED["jittered"]
    assert tab._pieces.lattice is None and TABULATED["uniform"]._pieces.lattice is not None
    d = np.concatenate([D_GRID, [7.3, 15.99, 16.0, 19.5]])
    exact, oracle = tau1_exact(tab, d), tau1_numeric(tab, d)
    for field in ("tau1", "dtau1_dd", "c", "c_prime"):
        assert np.array_equal(getattr(exact, field), getattr(oracle, field))


@pytest.mark.parametrize("table", ["shipped", "sinc_cut"])
def test_tabulated_c_prime_is_dc_dd(table, request):
    # u is 0 off the hull, so u(x - d) steps at x_0 + d, and c' takes the
    # step's term besides the integral: on the lattice and on the merged
    # pieces, c' matches a central difference of c across the hull
    tab = SHIPPED if table == "shipped" else request.getfixturevalue("sinc_cut")
    d = np.array([0.3, 1.0, 2.0, 5.0, 10.0, 14.0, 15.9])
    h = 1e-4
    for f in (tau1_numeric, tau1_exact):
        central = (f(tab, d + h).c - f(tab, d - h).c) / (2.0 * h)
        cp = f(tab, np.concatenate([[0.0], d])).c_prime
        np.testing.assert_allclose(cp[1:], central, rtol=0.0, atol=1e-8 * np.max(np.abs(cp)))


@pytest.mark.parametrize("table", ["shipped", "sinc_cut"])
def test_hull_step_is_the_point_evaluator_of_v1(table, request):
    # hull_step reads v1 through the one point evaluator, with the bits of
    # v1's rows taken directly at x_0 + |d| on the piece that holds it, on
    # 20,000 random d over the span, the knots, 0 and one ulp below the span
    tab = SHIPPED if table == "shipped" else request.getfixturevalue("sinc_cut")
    pieces = tab._pieces
    ad = np.concatenate([
        np.random.default_rng(11).uniform(0.0, pieces.span, 20_000),
        pieces.x - pieces.x[0],
        [np.nextafter(pieces.span, 0.0)],
    ])
    ad = ad[ad < pieces.span]
    x = pieces.x[0] + ad
    k = np.minimum(np.searchsorted(pieces.x, x, side="right"), pieces.x.size - 1)
    rows = [pieces.coef[r][k] for r in spline._ROWS["v1"]]
    direct = pieces.coef[3][1] * spline._horner(rows, x - pieces.origin[k])
    assert np.array_equal(pieces.hull_step(ad), direct)


def test_sinc_frequency_overlap_matches_closed_form():
    half = np.linspace(0.0, 10.0, 101)
    d = np.concatenate([-half[:0:-1], half])
    numeric, closed = tau1_numeric(SINC, d), tau1_closed(SINC, d)
    assert np.max(np.abs(numeric.c - closed.c)) < 1e-12
    assert np.max(np.abs(numeric.c_prime - closed.c_prime)) < 1e-12
    assert np.array_equal(numeric.c[::-1], -numeric.c)  # c odd in d
    assert np.array_equal(numeric.c_prime[::-1], numeric.c_prime)  # c' even


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
