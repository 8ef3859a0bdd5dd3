"""Amplitude transfer functions, their widths, and PSF-adapted quadrature.

A point source at the object plane produces a real amplitude profile u(x) at
the image plane; |u(x)|^2 is the single-photon detection density.  Supported
profiles:

* ``gaussian``  u(x) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2)
* ``sinc``      u(x) = sqrt(a/pi) sinc(a x), a = sqrt(3) / (2 sigma)
* ``tabulated`` cubic-spline interpolant of sampled (position, amplitude) data

The characteristic width sigma is defined through the derivative energy,
sigma = (1/2) (integral of u'(x)^2 dx)^(-1/2); for the analytic kinds it
coincides with the constructor parameter.  The binary demultiplexer sorts
into v0(x) = u(x) and the derivative mode v1(x) = -2 sigma u'(x), an
orthonormal pair for real u.

Integration domains are kind-aware: Gaussian integrands are truncated at
10 sigma (tails < 1e-22), while sinc integrands decay only as 1/x and are
handled by the tail-extrapolated ladder in :mod:`spaderes.integrate` with
panels aligned to the oscillation period pi/a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, ValidationError
from .integrate import (
    check_converged,
    integrate_oscillatory_tails,
    integrate_refined,
)

GAUSSIAN = "gaussian"
SINC = "sinc"
TABULATED = "tabulated"

KINDS = (GAUSSIAN, SINC, TABULATED)

# Truncation choices; see module docstring.
GAUSSIAN_HALF_WIDTH_SIGMAS = 10.0
SINC_HALF_WIDTH_OVER_A = 400.0  # ladder start, in units of 1/a
SINC_TAIL_LEVELS = 4

# Acceptable |norm - 1| for operations that assume a normalized tabulated PSF.
TABULATED_NORM_TOL = 1e-3


def _sinc_deriv_ratio(t: np.ndarray) -> np.ndarray:
    """(t cos t - sin t) / t^2, the derivative of sinc(t); stable near t = 0."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.1
    ts = np.where(small, 1.0, t)
    direct = (ts * np.cos(ts) - np.sin(ts)) / ts**2
    series = t * (-1.0 / 3.0 + t**2 * (1.0 / 30.0 + t**2 * (-1.0 / 840.0 + t**2 / 45360.0)))
    return np.where(small, series, direct)


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Real, normalized amplitude transfer function u(x).

    Instances are immutable; build them with :func:`gaussian_psf`,
    :func:`sinc_psf`, :func:`tabulated_psf` or :func:`load_tabulated`.
    """

    kind: str
    sigma: float
    grid: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)
    norm: float = 1.0
    _spline: CubicSpline | None = field(default=None, repr=False)

    @property
    def a(self) -> float:
        """Sinc frequency scale a = sqrt(3) / (2 sigma)."""
        if self.kind != SINC:
            raise AttributeError("frequency scale is defined for the sinc kind only")
        return np.sqrt(3.0) / (2.0 * self.sigma)


def gaussian_psf(sigma: float) -> TransferFunction:
    """Gaussian transfer function of standard deviation ``sigma`` (of |u|^2)."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    return TransferFunction(kind=GAUSSIAN, sigma=float(sigma))


def sinc_psf(sigma: float | None = None, a: float | None = None) -> TransferFunction:
    """Sinc transfer function, parameterized by ``sigma`` or the lobe scale ``a``."""
    if (sigma is None) == (a is None):
        raise ValidationError("specify exactly one of sigma or a")
    if sigma is None:
        if a <= 0:
            raise ValidationError(f"a must be positive, got {a}")
        sigma = np.sqrt(3.0) / (2.0 * a)
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    return TransferFunction(kind=SINC, sigma=float(sigma))


def tabulated_psf(grid, values, normalize: bool = False) -> TransferFunction:
    """Transfer function from sampled amplitudes, interpolated by a cubic spline.

    The derivative is taken from the spline, so the samples should resolve the
    PSF structure.  With ``normalize=True`` the amplitudes are rescaled to unit
    L2 norm; otherwise the norm is stored and checked by operations that
    require a normalized PSF.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValidationError("tabulated grid needs at least 3 one-dimensional points")
    if values.shape != grid.shape:
        raise ValidationError("grid and values must have matching shapes")
    if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
        raise ValidationError("grid and values must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("tabulated grid must be strictly increasing")

    spline = CubicSpline(grid, values)
    norm = _spline_norm(spline, grid)
    if normalize:
        if norm <= 0:
            raise ValidationError("cannot normalize a zero amplitude profile")
        values = values / np.sqrt(norm)
        spline = CubicSpline(grid, values)
        norm = 1.0
    sigma = _spline_sigma(spline, grid)
    return TransferFunction(
        kind=TABULATED, sigma=sigma, grid=grid, values=values, norm=norm, _spline=spline
    )


def load_tabulated(path, normalize: bool = False) -> TransferFunction:
    """Load a tabulated PSF from a two-column (position, amplitude) text file.

    Columns are whitespace-delimited; '#' starts a comment.
    """
    data = np.loadtxt(Path(path), comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValidationError(f"expected two columns (position, amplitude), got {data.shape[1]}")
    return tabulated_psf(data[:, 0], data[:, 1], normalize=normalize)


def _spline_norm(spline: CubicSpline, grid: np.ndarray) -> float:
    value, _ = integrate_refined(
        lambda x: spline(x) ** 2, grid[0], grid[-1], n_panels=max(128, grid.size // 2)
    )
    return value


def _spline_sigma(spline: CubicSpline, grid: np.ndarray) -> float:
    deriv = spline.derivative()
    energy, _ = integrate_refined(
        lambda x: deriv(x) ** 2, grid[0], grid[-1], n_panels=max(128, grid.size // 2)
    )
    if energy <= 0:
        raise ValidationError("derivative energy of tabulated PSF is not positive")
    return 0.5 / np.sqrt(energy)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _spline_eval(tf: TransferFunction, arr: np.ndarray, nu: int, fill):
    # fill=None enforces the hull; a numeric fill extends the PSF by that
    # constant, which displaced-overlap integrands use with fill=0.
    lo, hi = tf.grid[0], tf.grid[-1]
    inside = (arr >= lo) & (arr <= hi)
    if np.all(inside):
        return tf._spline(arr, nu)
    if fill is None:
        raise DomainError(f"evaluation outside the tabulated grid hull [{lo}, {hi}]")
    out = tf._spline(np.clip(arr, lo, hi), nu)
    return np.where(inside, out, float(fill))


def eval_u(tf: TransferFunction, x, fill: float | None = None):
    """Amplitude u(x).  Scalar in, scalar out; arrays are evaluated pointwise.

    For the tabulated kind, points outside the grid hull raise a DomainError
    unless ``fill`` supplies an extension value (0 for displaced overlaps).
    """
    arr, scalar = _as_array(x)
    if tf.kind == GAUSSIAN:
        s2 = tf.sigma**2
        out = (2.0 * np.pi * s2) ** (-0.25) * np.exp(-(arr**2) / (4.0 * s2))
    elif tf.kind == SINC:
        a = tf.a
        out = np.sqrt(a / np.pi) * np.sinc(a * arr / np.pi)
    else:
        out = _spline_eval(tf, arr, 0, fill)
    return float(out) if scalar else out


def eval_u_prime(tf: TransferFunction, x, fill: float | None = None):
    """Derivative du/dx, analytic for the closed-form kinds, spline otherwise."""
    arr, scalar = _as_array(x)
    if tf.kind == GAUSSIAN:
        s2 = tf.sigma**2
        out = -(arr / (2.0 * s2)) * (2.0 * np.pi * s2) ** (-0.25) * np.exp(
            -(arr**2) / (4.0 * s2)
        )
    elif tf.kind == SINC:
        a = tf.a
        out = np.sqrt(a / np.pi) * a * _sinc_deriv_ratio(a * arr)
    else:
        out = _spline_eval(tf, arr, 1, fill)
    return float(out) if scalar else out


def sigma_of(tf: TransferFunction) -> float:
    """Characteristic width, (1/2) (integral of u'^2)^(-1/2).

    Analytic kinds return the constructor parameter (the definition reduces to
    it exactly); tabulated PSFs report the value computed from the spline
    derivative, after checking normalization.
    """
    if tf.kind in (GAUSSIAN, SINC):
        return tf.sigma
    if abs(tf.norm - 1.0) > TABULATED_NORM_TOL:
        raise ValidationError(
            f"tabulated PSF is not normalized: integral of u^2 = {tf.norm:.6g}"
        )
    return tf.sigma


def quad_over_psf(
    tf: TransferFunction,
    f: Callable[[np.ndarray], np.ndarray],
    margin: float = 0.0,
    bounds: tuple[float, float] | None = None,
    n_nodes: int = 16,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    what: str = "psf integral",
) -> float:
    """Integrate a PSF-derived integrand over the kind-appropriate domain.

    ``margin`` widens the domain for displaced integrands such as u(x - d).
    ``bounds`` overrides the domain for the tabulated kind only.
    """
    if tf.kind == GAUSSIAN:
        half = GAUSSIAN_HALF_WIDTH_SIGMAS * tf.sigma + abs(margin)
        n_panels = max(48, int(np.ceil(4.0 * half / tf.sigma)))
        value, err = integrate_refined(f, -half, half, n_panels=n_panels, n_nodes=n_nodes)
    elif tf.kind == SINC:
        a = tf.a
        value, err = integrate_oscillatory_tails(
            f,
            half_width=SINC_HALF_WIDTH_OVER_A / a + abs(margin),
            period=np.pi / a,
            levels=SINC_TAIL_LEVELS,
            n_nodes=n_nodes,
        )
    else:
        lo, hi = bounds if bounds is not None else (tf.grid[0], tf.grid[-1])
        if hi <= lo:
            return 0.0
        n_panels = max(128, min(4096, tf.grid.size))
        value, err = integrate_refined(f, lo, hi, n_panels=n_panels, n_nodes=n_nodes)
    return check_converged(value, err, rel_tol, abs_tol, what)
