"""The tabulated PSF's spline fit: scipy's not-a-knot ``CubicSpline``, bit for bit.

``spline._cubic_rows`` ports the system scipy sets up and LAPACK's ``dgtsv``
that solves it, so on 4 or more points its rows are ``CubicSpline(x, y).c``
exactly (``np.array_equal``), on the tables the package ships and CI runs,
on random grids that drive the solve down its row-interchange branch, and on
a large grid.  3 points are a parabola, checked against exact arithmetic.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from spaderes import spline
from spaderes.spline import SplinePieces

SHIPPED = np.loadtxt(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")


def _gaussian(x):
    return (2.0 * np.pi) ** -0.25 * np.exp(-(x**2) / 4.0)


def _sinc_cut():
    x = np.linspace(-20.0, 20.0, 2001)
    a = np.sqrt(3.0) / 2.0
    return x, np.sqrt(a / np.pi) * np.sinc(a * x / np.pi)


_UNIFORM = np.linspace(-8.0, 8.0, 801)  # the oracle-curves benchmark's table
_STRETCHED = 8.0 * np.sinh(2.0 * np.linspace(-1.0, 1.0, 601)) / np.sinh(2.0)  # CI's non-uniform one

TABLES = {
    "shipped": (SHIPPED[:, 0], SHIPPED[:, 1]),
    "sinc_cut": _sinc_cut(),  # CI's cut sinc table, 2001 points
    "gaussian_801": (_UNIFORM, _gaussian(_UNIFORM)),
    "stretched": (_STRETCHED, _gaussian(_STRETCHED)),
}


def _random_grid(rng):
    """4-300 points whose spacings mix scales from 1e-3 to 1e3, and values."""
    n = int(rng.integers(4, 301))
    x = rng.normal() + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, n - 1))])
    return x, rng.normal(size=n)


RANDOM = [_random_grid(np.random.default_rng(seed)) for seed in range(200)]


def _interchanges(x, y) -> int:
    """The row interchanges ``_dgtsv`` makes on the spline system of (x, y),
    in all but its last step: the nonzero fill-ins it leaves in dl."""
    h = np.diff(x)
    dl, d, du, b = spline._not_a_knot_system(x, h, np.diff(y) / h)
    spline._dgtsv(dl, d, du, b)
    return np.count_nonzero(dl)


@pytest.mark.parametrize("table", TABLES)
def test_fit_is_scipy_cubic_spline_on_the_tables(table):
    x, y = TABLES[table]
    fitted = SplinePieces.fit(x, y, normalize=False)
    assert np.array_equal(fitted.coef[:4, 1:-1], CubicSpline(x, y).c)
    # normalizing refits the rescaled samples
    normalized = SplinePieces.fit(x, y, normalize=True)
    expected = CubicSpline(x, y / np.sqrt(fitted.norm)).c
    assert np.array_equal(normalized.coef[:4, 1:-1], expected)


def test_fit_is_scipy_cubic_spline_on_random_grids_with_interchanges():
    for x, y in RANDOM:
        assert np.array_equal(spline._cubic_rows(x, y), CubicSpline(x, y).c), x.size
    # the mixed spacings send the elimination down its row-interchange branch
    interchanged = sum(_interchanges(x, y) > 0 for x, y in RANDOM)
    assert interchanged >= 0.9 * len(RANDOM), interchanged
    assert _interchanges(*TABLES["shipped"]) == 0


def test_fit_is_scipy_cubic_spline_on_a_large_grid():
    x = np.linspace(-20.0, 20.0, 20001)
    y = _gaussian(x) * np.cos(3.0 * x)
    assert np.array_equal(spline._cubic_rows(x, y), CubicSpline(x, y).c)


def test_three_points_fit_the_parabola_through_them():
    # each row k_p, of degree 3 - p, within BOUND eps max|m| / h^(2 - p) of
    # the exact parabola's (k0 = 0, k1 = c, k2 = the slopes; k3 is y, copied),
    # with m the secant slopes: the worst seen was 3.6 eps, and scipy's dense
    # solve of the same 3 x 3 system reaches about 2100 eps
    BOUND = 8
    eps = Fraction(np.finfo(float).eps)
    rng = np.random.default_rng(11)
    for _ in range(500):
        x = rng.normal() + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, 2))])
        y = rng.normal(size=3)
        got = spline._cubic_rows(x, y)
        X, Y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        h = [X[1] - X[0], X[2] - X[1]]
        m = [(Y[1] - Y[0]) / h[0], (Y[2] - Y[1]) / h[1]]
        c = (m[1] - m[0]) / (h[0] + h[1])
        exact = [[0, 0], [c, c], [m[0] - c * h[0], m[0] + c * h[0]]]
        assert list(got[3]) == y[:2].tolist()
        for p in range(3):
            for k in range(2):
                scale = max(map(abs, m)) / h[k] ** (2 - p)
                assert abs(Fraction(got[p][k]) - exact[p][k]) <= BOUND * eps * scale, (x, y, p, k)
