"""Amplitude transfer functions, their widths, and PSF-adapted quadrature.

A point source at the object plane produces a real amplitude profile u(x) at
the image plane; |u(x)|^2 is the single-photon detection density.  Supported
profiles:

* ``gaussian``  u(x) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2)
* ``sinc``      u(x) = sqrt(a/pi) sinc(a x), a = sqrt(3) / (2 sigma)
* ``tabulated`` cubic-spline interpolant of sampled (position, amplitude) data,
                0 outside the grid hull

u and u' of the analytic kinds come from one evaluator each, which takes
every displaced image u(x - s) an integrand needs in one call:
:func:`_gaussian_images`, one exp per image and node, and
:func:`_sinc_images`, one sin and one cos of a x per node, shared by all
images through angle addition (direct sin and cos of a (x - s) near each
image peak, and a Taylor series where |a (x - s)| < 1).
:func:`quad_over_psf` calls them on its rows of nodes, and :func:`eval_u`
and :func:`eval_u_prime` at s = 0.

The characteristic width sigma is defined through the derivative energy,
sigma = (1/2) (integral of u'(x)^2 dx)^(-1/2); for the analytic kinds it
coincides with the constructor parameter.  A :class:`TransferFunction` is
checked once, when built, and its ``sigma`` is the width every kernel reads.
The binary demultiplexer sorts into v0(x) = u(x) and the derivative mode
v1(x) = -2 sigma u'(x), an orthonormal pair for real u.

:func:`quad_over_psf` is the one place where an analytic PSF is evaluated
under a quadrature: its integrand takes u and u' of the displaced images
and never evaluates the PSF itself.  Its domains are kind-aware: Gaussian
integrands are truncated at 10 sigma (tails < 1e-22), and sinc integrands
decay only as 1/x and are handled by the tail-extrapolated ladder in
:mod:`spaderes.integrate` with panels aligned to the oscillation period
pi/a: TAIL_LEVELS rungs from SINC_HALF_WIDTH_OVER_A / a past the margin d
(and, once d is past SINC_HALF_WIDTH_OVER_A / a, as far again past it, so
that the first rungs stay clear of the images), packed into one kept row
of nodes per start (16,384-18,432 nodes a d on 0-5 sigma) that is
evaluated in a few chunks.  The ladder keeps the phases sin(a x) and
cos(a x) of its nodes with them, and the sinc evaluator takes each chunk's
phases from it.  The mode overlaps of :mod:`spaderes.overlap` take it for
the Gaussian only: sinc overlaps are integrated over the flat spectrum.

A tabulated PSF is its spline's pieces, :class:`SplinePieces`, fitted once
(scipy's ``CubicSpline`` only supplies the coefficients) and zero outside the
grid hull.  That class alone knows their layout: it evaluates u and u' at
points, and places quadrature rules on the merged pieces of u(x) and a
displaced copy u(x - d) for the kernels over arrays of d, the mode overlaps
and the direct-imaging information.  The norm and the derivative energy are
exact per piece.  So no tabulated integrand is cut off at the grid hull.  On
a uniform grid it also holds the pieces re-centred on an exact lattice,
:class:`UniformLattice`, whose sums over the pieces lag by lag give the mode
overlap exactly in a few operations per d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import UnsupportedKindError, ValidationError
from .integrate import (
    NODES_PER_BLOCK,
    _gl_nodes,
    _read_only,
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
# the tail ladder's start, in units of 1/a: on 0-30 sigma its error estimate is
# at most 2e3 times the true error, against 6e3 from 40 / a and 1.3e4 from 35 / a
SINC_HALF_WIDTH_OVER_A = 50.0
# an integral converges when its error estimate is below the larger of
# QUAD_REL_TOL times its value and QUAD_ABS_TOL
QUAD_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-12

# Largest |norm - 1| of a tabulated PSF; TransferFunction refuses a larger one.
TABULATED_NORM_TOL = 1e-3

# Taylor coefficients of sinc t = sin t / t in powers of t^2, (-1)^n / (2n + 1)!,
# and of its derivative in odd powers of t: ten terms leave under 4e-19 of
# either for |t| < 1, where the closed forms lose digits to cancellation
_SINC_TAYLOR = np.array([(-1) ** n / math.factorial(2 * n + 1) for n in range(10)])
_SINC_DERIV_TAYLOR = 2.0 * np.arange(1, 10) * _SINC_TAYLOR[1:]
_SINC_POWERS = np.arange(10)


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Real, normalized amplitude transfer function u(x).

    Instances are immutable; build them with :func:`gaussian_psf`,
    :func:`sinc_psf`, :func:`tabulated_psf` or :func:`load_tabulated`.
    Construction is the one check of a PSF: it refuses a kind outside
    ``KINDS``, a sigma that is not finite and positive, a tabulated kind
    without its spline, and a norm off 1 by more than ``TABULATED_NORM_TOL``.
    """

    kind: str
    sigma: float
    grid: np.ndarray | None = field(default=None, repr=False)
    norm: float = 1.0
    _pieces: SplinePieces | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKindError(f"unknown PSF kind {self.kind!r}; expected one of {KINDS}")
        if not 0.0 < self.sigma < np.inf:
            raise ValidationError(f"sigma must be finite and positive, got {self.sigma}")
        if self.kind == TABULATED and self._pieces is None:
            raise ValidationError("a tabulated PSF needs its spline: build it with tabulated_psf")
        if not abs(self.norm - 1.0) <= TABULATED_NORM_TOL:
            raise ValidationError(
                f"tabulated PSF is not normalized: integral of u^2 = {self.norm:.6g}"
            )

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


# rows of SplinePieces.coef, highest degree first, of u, u' and the derivative mode
_ROWS = {"u": (0, 1, 2, 3), "du": (4, 5, 2), "v1": (6, 7, 8)}


@dataclass(frozen=True, eq=False)
class SplinePieces:
    """A tabulated PSF: its cubic spline as per-piece coefficient rows, zero
    outside the grid hull.

    On the piece [x_k, x_k+1], with s = x - x_k, u = ((k0 s + k1) s + k2) s + k3
    and u' = (3 k0 s + 2 k1) s + k2.  ``coef`` stacks the rows k0, k1, k2, k3,
    3 k0, 2 k1 and the derivative mode's -6 sigma k0, -4 sigma k1, -2 sigma k2,
    padded with a zero piece on each side: index 0 lies left of the grid hull,
    index k + 1 is spline piece k, and index n lies right of the hull.
    ``origin`` is each index's s = 0 point.  Only this class reads the rows:
    :meth:`evaluate` at points, :meth:`blocks` at quadrature nodes, and on a
    uniform grid its ``lattice`` (:class:`UniformLattice`), which sums them
    over the pieces for the overlap c(d) = <v1, u(. - d)>; on any other grid
    ``lattice`` is None and the overlap runs piece by piece on :meth:`blocks`.
    """

    x: np.ndarray
    origin: np.ndarray
    coef: np.ndarray
    norm: float  # integral of u^2
    energy: float  # integral of u'^2
    sigma: float
    lattice: UniformLattice | None

    @classmethod
    def fit(cls, grid: np.ndarray, values: np.ndarray, normalize: bool) -> SplinePieces:
        """The not-a-knot cubic spline through the samples, rescaled to unit L2
        norm if ``normalize``; its norm and energy are exact per piece."""
        h = np.diff(grid)
        k = CubicSpline(grid, values).c
        # u^2 has degree 6 on each piece: 4 nodes integrate it exactly
        norm = _square_integral(k, h, 4)
        if normalize:
            if norm <= 0:
                raise ValidationError("cannot normalize a zero amplitude profile")
            k = CubicSpline(grid, values / np.sqrt(norm)).c
            norm = 1.0
        k0, k1, k2, k3 = k
        rows = [k0, k1, k2, k3, 3.0 * k0, 2.0 * k1]
        # u'^2 has degree 4: 3 nodes
        energy = _square_integral([rows[r] for r in _ROWS["du"]], h, 3)
        if energy <= 0:
            raise ValidationError("derivative energy of tabulated PSF is not positive")
        sigma = 0.5 / np.sqrt(energy)
        rows += [-6.0 * sigma * k0, -4.0 * sigma * k1, -2.0 * sigma * k2]
        n = grid.size
        uniform = np.array_equal(grid, grid[0] + np.arange(n) * ((grid[-1] - grid[0]) / (n - 1)))
        return cls(
            x=grid,
            origin=grid[np.clip(np.arange(-1, n), 0, n - 2)],
            coef=np.pad(np.stack(rows), ((0, 0), (1, 1))),
            norm=norm,
            energy=energy,
            sigma=sigma,
            lattice=UniformLattice.fit(grid, [rows[r] for r in _ROWS["v1"] + _ROWS["u"]])
            if uniform
            else None,
        )

    def evaluate(self, what: str, x) -> np.ndarray:
        """u (``what="u"``) or u' (``"du"``) at the points x, 0 outside the grid hull."""
        grid = self.x
        k = np.clip(np.searchsorted(grid, x, side="right"), 1, grid.size - 1)
        coef = [self.coef[r][k] for r in _ROWS[what]]
        value = _horner(coef, np.clip(x, grid[0], grid[-1]) - self.origin[k])
        return np.where((x < grid[0]) | (x > grid[-1]), 0.0, value)

    def blocks(self, shift: np.ndarray, rules, fixed, shifted):
        """Gauss-Legendre rules on the merged pieces of u(x) and u(x - shift).

        Between the merged breakpoints of x and x + shift, for each value of
        the 1-D ``shift``, u(x) and u(x - shift) are each one spline piece (or
        zero outside the hull).  ``rules`` holds (nodes, weights) pairs on
        [-1, 1]; ``fixed`` and ``shifted`` name what to evaluate, of "u", "du"
        and "v1", on u(x) and on u(x - shift).  Yields, for each block of at
        most NODES_PER_BLOCK nodes, its slice of ``shift`` and an iterator that
        evaluates the rules one at a time, each giving the weights, the fixed
        and the shifted values as arrays (shifts, nodes, pieces), in which
        every operation runs along the pieces.
        """
        x = self.x
        per_block = max(1, NODES_PER_BLOCK // (2 * x.size * max(len(n) for n, _ in rules)))
        for start in range(0, shift.size, per_block):
            block = slice(start, start + per_block)
            offset = shift[block][:, None]
            merged = np.concatenate([np.broadcast_to(x, (offset.size, x.size)), x + offset], axis=1)
            order = np.argsort(merged, axis=1, kind="stable")
            from_shifted = order[:, :-1] >= x.size
            edges = np.take_along_axis(merged, order, axis=1)
            i, j = (np.cumsum(m, axis=1)[:, None, :] for m in (~from_shifted, from_shifted))
            left = edges[:, None, :-1]
            sides = [
                (left - origin, [[self.coef[r][piece] for r in _ROWS[name]] for name in names])
                for names, piece, origin in (
                    (fixed, i, self.origin[i]),
                    (shifted, j, self.origin[j] + offset[:, None]),
                )
            ]
            yield block, _at_nodes(0.5 * np.diff(edges, axis=1)[:, None, :], rules, sides)


@dataclass(frozen=True, eq=False)
class UniformLattice:
    """A spline on a uniform grid, re-centred on the exactly uniform lattice
    x_0 + i h, with its lag sums.

    A grid is uniform when x_i == x_0 + i h in floating point for
    h = (x_n-1 - x_0) / (n - 1).  Its points then lie within a few ulps e_i
    of the lattice whose spacing is the exact span over the piece count,
    carried as h = h_hi + h_lo with 26 bits in h_hi, so that m h_hi is exact.
    ``v1`` holds the derivative mode's rows and ``images`` those of u and of
    u' (after a zero row), highest degree first, of every piece re-centred
    from x_i on x_0 + i h: to first order in e_i, which is exact to rounding
    (the e_i^2 terms are under 1e-29 of the rows).  The spline is C^2, so
    taking piece i on [i h, (i + 1) h] rather than between its own knots
    moves u by O(e^3) and v1 by O(e^2): under 1e-28 of either.  The lattice
    ends where the grid does, to the rounding of h_lo.
    """

    h_hi: float
    h_lo: float
    span: float  # x_n-1 - x_0, rounded
    v1: np.ndarray  # (3, pieces)
    images: np.ndarray  # (2, 4, pieces)
    # lag sums by lag, and which lags are built: zeros until a call asks
    _sums: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        lags = self.v1.shape[1] + 1  # the last lag, past every piece, stays 0
        object.__setattr__(self, "_sums", (np.zeros((lags, 2, 4, 3)), np.zeros(lags, dtype=bool)))

    @classmethod
    def fit(cls, grid: np.ndarray, rows) -> UniformLattice:
        """The lattice of a uniform ``grid`` and its pieces' ``rows``: v1's
        three, then u's four, each over the pieces."""
        n = grid.size - 1
        # x_i - x_0 as offset + offset_lo, exactly (two-sum)
        offset = grid - grid[0]
        back = offset - grid
        offset_lo = (grid - (offset - back)) - (grid[0] + back)
        span = offset[-1]
        split = span / n * (2.0**27 + 1.0)
        h_hi = split - (split - span / n)
        h_lo = ((span - n * h_hi) + offset_lo[-1]) / n
        # e_i = (x_i - x_0) - i h, by exact differences but the last
        i = np.arange(float(n))
        e = ((offset[:-1] - i * h_hi) + offset_lo[:-1]) - i * h_lo
        (a2, a1, a0), (k0, k1, k2, k3) = rows[:3], rows[3:]
        u = [k0, k1 - 3.0 * k0 * e, k2 - 2.0 * k1 * e, k3 - k2 * e]
        return cls(
            h_hi=h_hi,
            h_lo=h_lo,
            span=span,
            v1=np.stack([a2, a1 - 2.0 * a2 * e, a0 - a1 * e]),
            images=np.stack([u, [np.zeros_like(k0), 3.0 * u[0], 2.0 * u[1], u[2]]]),
        )

    def lags(self, d: np.ndarray):
        """The lags m and m + 1 of each d of the 1-D array, d = m h + delta
        with 0 <= delta < h, as an integer array of shape (d.size, 2), and the
        offsets d - lag h: (delta, delta - h), each to rounding of itself."""
        h_hi, h_lo = self.h_hi, self.h_lo
        d = d[:, None]
        lags = np.floor(d / (h_hi + h_lo)) + _NEXT_LAG
        offsets = (d - lags * h_hi) - lags * h_lo
        # the rounded quotient may land one lag off; the offsets' signs decide
        if ((offsets[:, :1] < 0) | (offsets[:, 1:] >= 0)).any():
            lags += 1.0 * (offsets[:, 1:] >= 0) - 1.0 * (offsets[:, :1] < 0)
            offsets = (d - lags * h_hi) - lags * h_lo
        return lags.astype(np.intp), offsets

    def lag_sums(self, lags: np.ndarray) -> np.ndarray:
        """S[j, q, p] = sum over pieces i of images_jq[i] v1_p[i + m] for each
        lag m of the integer array ``lags``, of shape lags.shape + (2, 4, 3):
        j is u or u', q runs over its rows and p over v1's.  Lags at or past
        the piece count are 0.

        A lag's sums are built on its first use and kept, each reduced on its
        own, so a lag gives the same bits whichever call built it (two threads
        that build one lag at once write the same bits).
        """
        table, built = self._sums
        lags = np.minimum(lags, built.size - 1)
        if not built[lags].all():
            images, v1 = self.images[:, :, None, :], self.v1
            n = v1.shape[1]
            for m in np.unique(lags[~built[lags]]).tolist():
                table[m] = (images[..., : n - m] * v1[:, m:]).sum(axis=-1)
                built[m] = True
        return table[lags]


# the lags m and m + 1 of a separation, from m
_NEXT_LAG = np.array([0.0, 1.0])


def _at_nodes(half, rules, sides):
    """Each rule's weights and values at its nodes on every merged piece; a
    side is the pieces' left edges in local coordinates and the rows to evaluate."""
    for nodes, weights in rules:
        step = half * (1.0 + nodes)[:, None]  # nodes past each left edge
        values = []
        for left, coefs in sides:
            at = left + step
            values.append([_horner(c, at) for c in coefs])
        yield half * weights[:, None], *values


def gaussian_psf(sigma: float) -> TransferFunction:
    """Gaussian transfer function of standard deviation ``sigma`` (of |u|^2)."""
    return TransferFunction(kind=GAUSSIAN, sigma=float(sigma))


def sinc_psf(sigma: float | None = None, a: float | None = None) -> TransferFunction:
    """Sinc transfer function, parameterized by ``sigma`` or the lobe scale ``a``."""
    if (sigma is None) == (a is None):
        raise ValidationError("specify exactly one of sigma or a")
    if sigma is None:
        if not 0.0 < a < np.inf:
            raise ValidationError(f"a must be finite and positive, got {a}")
        sigma = np.sqrt(3.0) / (2.0 * a)
    return TransferFunction(kind=SINC, sigma=float(sigma))


def tabulated_psf(grid, values, normalize: bool = False) -> TransferFunction:
    """Transfer function from sampled amplitudes, interpolated by a cubic spline.

    The derivative is taken from the spline, so the samples should resolve the
    PSF structure.  With ``normalize=True`` the amplitudes are rescaled to unit
    L2 norm; otherwise a norm off 1 by more than ``TABULATED_NORM_TOL`` is
    refused here, when the PSF is built.
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

    pieces = SplinePieces.fit(grid, values, normalize)
    return TransferFunction(
        kind=TABULATED, sigma=pieces.sigma, grid=grid, norm=pieces.norm, _pieces=pieces
    )


def load_tabulated(path, normalize: bool = False) -> TransferFunction:
    """Load a tabulated PSF from a two-column (position, amplitude) text file.

    Columns are whitespace-delimited; '#' starts a comment.
    """
    data = np.loadtxt(Path(path), comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValidationError(f"expected two columns (position, amplitude), got {data.shape[1]}")
    return tabulated_psf(data[:, 0], data[:, 1], normalize=normalize)


def _gaussian_images(sigma: float, x: np.ndarray, s: np.ndarray):
    """u and u' of the Gaussian at x - s: one exp per node and image, shared
    by u and u'."""
    s2 = sigma**2
    arr = x - s
    c = (2.0 * np.pi * s2) ** (-0.25)
    e = np.exp(-(arr**2) / (4.0 * s2))
    return c * e, (-(arr / (2.0 * s2)) * c) * e


def _sinc_near(t: np.ndarray):
    """sinc t and its derivative (cos t - sinc t) / t from sin and cos of t
    itself, and by Taylor series in t^2 where |t| < 1."""
    f, df = np.empty_like(t), np.empty_like(t)
    small = np.abs(t) < 1.0
    ts = t[small]
    powers = (ts * ts)[:, None] ** _SINC_POWERS
    f[small] = powers @ _SINC_TAYLOR
    df[small] = ts * (powers[:, :-1] @ _SINC_DERIV_TAYLOR)
    tl = t[~small]
    f[~small] = fl = np.sin(tl) / tl
    df[~small] = (np.cos(tl) - fl) / tl
    return f, df


def _sinc_images(a: float, x: np.ndarray, s: np.ndarray, trig=None):
    """u and u' of the sinc at x - s, from one sin and one cos of a x per node:
    (images, rows, n) for (rows or 1, n) nodes x and (images, rows or 1, 1) shifts s.

    With t = a (x - s), u = k sin t / t and u' = (k cos t - u) / (x - s),
    k = sqrt(a / pi).  sin t and cos t follow from sin(a x), cos(a x) and
    sin(a s), cos(a s) by angle addition, in place.  That sum cancels where
    |t| < |a s|: a x and a s carry rounding errors of order eps |a s|, which
    would be a large part of a small t.  So near a row's image peaks, on the
    nodes with |x| < |s| + max(1/a, |s|) for its largest |s| (every node with
    |t| < max(1, |a s|), a few dozen in a quadrature over thousands), sin and
    cos are taken of t itself (:func:`_sinc_near`), a row at a time, as its
    matrix product rounds by position.  That keeps every value within a few
    eps of the peak of exact, and a row's bits those it has alone.  ``trig``,
    if given, is sin(a x) and cos(a x) of these nodes with the same bits,
    such as the tail ladder's phases.
    """
    k = np.sqrt(a / np.pi)
    if trig is None:
        ax = a * x
        trig = np.sin(ax), np.cos(ax, out=ax)
    sin_ax, cos_ax = trig
    sin_as, cos_as = np.sin(a * s), np.cos(a * s)
    u = sin_ax * (k / a * cos_as)
    u -= cos_ax * (k / a * sin_as)  # k sin t / a
    du = cos_ax * (k * cos_as)
    du += sin_ax * (k * sin_as)  # k cos t
    reach = np.max(np.abs(s), axis=0, initial=0.0)
    rows, nodes = np.nonzero(np.abs(x) < reach + np.maximum(1.0 / a, reach))
    r = x - s
    t_near = a * r[:, rows, nodes]
    r[:, rows, nodes] = 1.0
    inv = np.divide(1.0, r, out=r)
    u *= inv
    du -= u
    du *= inv
    if t_near.size:
        by_row = np.split(t_near, np.flatnonzero(np.diff(rows)) + 1, axis=1)
        f, df = (np.concatenate(v, axis=1) for v in zip(*map(_sinc_near, by_row)))
        u[:, rows, nodes] = k * f
        du[:, rows, nodes] = (k * a) * df
    return u, du


# the one image of eval_u and eval_u_prime, at no shift
(_NO_SHIFT,) = _read_only(np.zeros((1, 1, 1)))


def _eval(tf: TransferFunction, x, what: str):
    """u (``what="u"``) or u' (``"du"``) at x, of x's shape."""
    x = np.asarray(x, dtype=float)
    if tf.kind == TABULATED:
        return tf._pieces.evaluate(what, x)[()]
    if tf.kind == GAUSSIAN:
        u, du = _gaussian_images(tf.sigma, x, 0.0)
    else:
        u, du = (v.reshape(x.shape) for v in _sinc_images(tf.a, x.reshape(1, -1), _NO_SHIFT))
    return (du if what == "du" else u)[()]


def eval_u(tf: TransferFunction, x):
    """Amplitude u(x).  Scalar in, scalar out; arrays are evaluated pointwise.

    A tabulated PSF is its spline inside the grid hull and 0 outside it, the
    extension every tabulated integral uses.
    """
    return _eval(tf, x, "u")


def eval_u_prime(tf: TransferFunction, x):
    """Derivative du/dx: analytic for the closed-form kinds; for a tabulated
    PSF the spline's inside the grid hull and 0 outside it."""
    return _eval(tf, x, "du")


def sigma_of(tf: TransferFunction) -> float:
    """The width ``tf.sigma``; public only because ``bench/workloads.py``
    names it."""
    return tf.sigma


def quad_over_psf(
    tf: TransferFunction,
    f: Callable,
    shifts,
    margin: np.ndarray,
    rel_tol=QUAD_REL_TOL,
    what="psf integral",
):
    """Integrate f of the displaced images u(x - k d), one for each
    multiplier k of ``shifts``, over the kind-appropriate domain, a row for
    each margin d of the 1-D array ``margin``.

    Gaussian and sinc kinds only.  f(u, du) gets u and u' of the images as
    arrays (len(shifts), rows, n) and returns (rows, n), or (k, rows, n) for
    k integrands that a sequence ``what`` names: the result is (d.size,) or
    (d.size, k).  Each row is reduced on its own with the bits it has alone
    (:mod:`spaderes.integrate`), and one :func:`check_converged` judges all
    rows.  The domain is widened by |d|.  The images come from the kind's
    evaluator, :func:`_gaussian_images` or :func:`_sinc_images`; on the sinc
    tail ladder, with the ladder's phases sin(a x) and cos(a x), and the
    ladder's error estimate tracks its own extrapolation order.  A tabulated
    PSF's integrals run piece by piece on its spline (:class:`SplinePieces`).
    """
    ks = np.asarray(shifts, dtype=float)[:, None, None]
    ad = np.abs(margin)
    if tf.kind == GAUSSIAN:
        sigma = tf.sigma
        half = GAUSSIAN_HALF_WIDTH_SIGMAS * sigma + ad
        n_panels = np.maximum(48, np.ceil(4.0 * half / sigma))
        integrand = lambda x, d: f(*_gaussian_images(sigma, x, ks * d))
        value, err = integrate_refined(integrand, -half, half, n_panels, margin)
    elif tf.kind == SINC:
        a = tf.a
        start = SINC_HALF_WIDTH_OVER_A / a
        half = start + ad + np.maximum(0.0, ad - start)
        integrand = lambda x, d, *phases: f(*_sinc_images(a, x, ks * d, phases))
        value, err = integrate_oscillatory_tails(integrand, half, a, margin)
    else:
        raise UnsupportedKindError(f"no kind-adapted quadrature for kind {tf.kind!r}")
    return check_converged(value, err, rel_tol, QUAD_ABS_TOL, what)
