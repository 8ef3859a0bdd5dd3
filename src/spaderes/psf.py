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

Integration domains of :func:`quad_over_psf` are kind-aware, for the analytic
kinds only: Gaussian integrands are truncated at 10 sigma (tails < 1e-22), and
sinc integrands decay only as 1/x and are handled by the tail-extrapolated
ladder in :mod:`spaderes.integrate` with panels aligned to the oscillation
period pi/a.  The mode overlaps of :mod:`spaderes.overlap` take it for the
Gaussian only: sinc overlaps are integrated over the flat spectrum.

Every integral of a tabulated PSF runs piece by piece on its spline, whose
per-piece coefficients :class:`SplinePieces` holds, built once per PSF: the
norm and the derivative energy, the mode overlaps and the direct-imaging
information.  So no tabulated integrand is cut off at the grid hull: u is
zero outside it, and a displaced copy u(x - d) has pieces of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, NumericError, UnsupportedKindError, ValidationError
from .integrate import (
    MAX_PANELS,
    _gl_nodes,
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
# an integral converges when its error estimate is below the larger of
# QUAD_REL_TOL times its value and QUAD_ABS_TOL
QUAD_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-12

# Acceptable |norm - 1| for operations that assume a normalized tabulated PSF.
TABULATED_NORM_TOL = 1e-3

# Gauss-Legendre nodes per block of rows in a kernel over the spline's merged
# pieces, bounding its arrays over d to 256 KiB a float array: a block's
# temporaries then stay in cache, and on a 2 MiB L2 the 101-point tabulated
# curves ran 1.6x faster than with six times larger blocks
NODES_PER_BLOCK = 2**15


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
    norm: float = 1.0
    _spline: CubicSpline | None = field(default=None, repr=False)
    _pieces: SplinePieces | None = field(default=None, repr=False)

    @property
    def a(self) -> float:
        """Sinc frequency scale a = sqrt(3) / (2 sigma)."""
        if self.kind != SINC:
            raise AttributeError("frequency scale is defined for the sinc kind only")
        return np.sqrt(3.0) / (2.0 * self.sigma)


def _horner(coef, x):
    """The polynomial with rows ``coef``, highest degree first, at x; in place
    on one array, since a spline kernel's arrays are large."""
    out = coef[0] * x
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _square_integral(coef, h: np.ndarray, n_nodes: int) -> float:
    """Integral of the square of a piecewise polynomial, by n_nodes-point
    Gauss-Legendre on each piece: exact up to degree 2 n_nodes - 1.

    ``coef`` holds the Horner rows, highest degree first, over pieces of width h.
    """
    x, w = _gl_nodes(n_nodes)
    v = _horner(coef, 0.5 * h * (1.0 + x[:, None]))
    return (0.5 * h * w[:, None] * v * v).sum()


def derivative_energy(spline: CubicSpline) -> float:
    """Integral of u'^2 over the grid hull, exact: u'^2 has degree 4, 3 nodes a piece."""
    k0, k1, k2, _ = spline.c
    return _square_integral([3.0 * k0, 2.0 * k1, k2], np.diff(spline.x), 3)


@dataclass(frozen=True, eq=False)
class SplinePieces:
    """A tabulated PSF's cubic spline as per-piece coefficient stacks, built once.

    On the piece [x_k, x_k+1], with s = x - x_k, u = ((k0 s + k1) s + k2) s + k3
    and u' = (3 k0 s + 2 k1) s + k2.  ``u`` stacks the rows k0, k1, k2, k3,
    3 k0, 2 k1 and ``v1`` the derivative mode's rows -6 sigma k0, -4 sigma k1,
    -2 sigma k2.  Both are padded with a zero piece on each side, so index 0
    lies left of the grid hull, index k + 1 is spline piece k, and index n
    lies right of the hull; ``origin`` is each index's s = 0 point.
    """

    x: np.ndarray
    origin: np.ndarray
    u: np.ndarray
    v1: np.ndarray

    @classmethod
    def from_spline(cls, spline: CubicSpline, sigma: float) -> SplinePieces:
        x = spline.x
        k0, k1, k2, k3 = spline.c

        def padded(rows):
            return np.pad(np.stack(rows), ((0, 0), (1, 1)))

        return cls(
            x=x,
            origin=x[np.clip(np.arange(-1, x.size), 0, x.size - 2)],
            u=padded([k0, k1, k2, k3, 3.0 * k0, 2.0 * k1]),
            v1=padded([-6.0 * sigma * k0, -4.0 * sigma * k1, -2.0 * sigma * k2]),
        )

    def merge(self, shift: np.ndarray):
        """Merge the breakpoints x with x + shift, for each value of the 1-D ``shift``.

        Returns the sorted breakpoints, shape (shifts, 2n), and for each of the
        2n - 1 merged pieces the padded index of the piece of u(x), and of
        u(x - shift), that it lies in.
        """
        x = self.x
        shifted = x + shift[:, None]
        merged = np.concatenate([np.broadcast_to(x, shifted.shape), shifted], axis=1)
        order = np.argsort(merged, axis=1, kind="stable")
        from_shifted = order[:, :-1] >= x.size
        edges = np.take_along_axis(merged, order, axis=1)
        return edges, np.cumsum(~from_shifted, axis=1), np.cumsum(from_shifted, axis=1)


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
    # u^2 has degree 6 on each piece: 4 nodes integrate it exactly
    norm = _square_integral(spline.c, np.diff(grid), 4)
    if normalize:
        if norm <= 0:
            raise ValidationError("cannot normalize a zero amplitude profile")
        values = values / np.sqrt(norm)
        spline = CubicSpline(grid, values)
        norm = 1.0
    energy = derivative_energy(spline)
    if energy <= 0:
        raise ValidationError("derivative energy of tabulated PSF is not positive")
    sigma = 0.5 / np.sqrt(energy)
    return TransferFunction(
        kind=TABULATED,
        sigma=sigma,
        grid=grid,
        norm=norm,
        _spline=spline,
        _pieces=SplinePieces.from_spline(spline, sigma),
    )


def load_tabulated(path, normalize: bool = False) -> TransferFunction:
    """Load a tabulated PSF from a two-column (position, amplitude) text file.

    Columns are whitespace-delimited; '#' starts a comment.
    """
    data = np.loadtxt(Path(path), comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValidationError(f"expected two columns (position, amplitude), got {data.shape[1]}")
    return tabulated_psf(data[:, 0], data[:, 1], normalize=normalize)


def _spline_eval(tf: TransferFunction, arr: np.ndarray, nu: int, fill):
    # fill=None enforces the hull; a numeric fill extends the PSF by that
    # constant, 0 for an integrand of a displaced copy.
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
    arr = np.asarray(x, dtype=float)
    if tf.kind == GAUSSIAN:
        s2 = tf.sigma**2
        out = (2.0 * np.pi * s2) ** (-0.25) * np.exp(-(arr**2) / (4.0 * s2))
    elif tf.kind == SINC:
        a = tf.a
        out = np.sqrt(a / np.pi) * np.sinc(a * arr / np.pi)
    else:
        out = _spline_eval(tf, arr, 0, fill)
    return out[()]


def eval_u_prime(tf: TransferFunction, x, fill: float | None = None):
    """Derivative du/dx, analytic for the closed-form kinds, spline otherwise."""
    arr = np.asarray(x, dtype=float)
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
    return out[()]


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
    rel_tol: float = QUAD_REL_TOL,
    what: str = "psf integral",
) -> float:
    """Integrate a PSF-derived integrand over the kind-appropriate domain.

    Gaussian and sinc kinds only; ``margin`` widens the domain for displaced
    integrands such as u(x - d).  A tabulated PSF's integrals run piece by
    piece on its spline (:class:`SplinePieces`).
    """
    if tf.kind == GAUSSIAN:
        half = GAUSSIAN_HALF_WIDTH_SIGMAS * tf.sigma + abs(margin)
        n_panels = max(48, int(np.ceil(4.0 * half / tf.sigma)))
        if 2 * n_panels > MAX_PANELS:  # the refined pass doubles the count
            raise NumericError(f"half-width {half:.4g} needs over MAX_PANELS panels in one call")
        value, err = integrate_refined(f, -half, half, n_panels)
    elif tf.kind == SINC:
        a = tf.a
        value, err = integrate_oscillatory_tails(
            f, half_width=SINC_HALF_WIDTH_OVER_A / a + abs(margin), period=np.pi / a
        )
    else:
        raise UnsupportedKindError(f"no kind-adapted quadrature for kind {tf.kind!r}")
    return check_converged(value, err, rel_tol, QUAD_ABS_TOL, what)
