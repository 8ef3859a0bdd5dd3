"""Amplitude transfer functions, their widths, and PSF-adapted quadrature.

A point source at the object plane produces a real amplitude profile u(x) at
the image plane; |u(x)|^2 is the single-photon detection density.  Supported
profiles:

* ``gaussian``  u(x) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2)
* ``sinc``      u(x) = sqrt(a/pi) sinc(a x), a = sqrt(3) / (2 sigma)
* ``tabulated`` cubic-spline interpolant of sampled (position, amplitude) data,
                0 outside the grid hull

u and u' of the analytic kinds come from one evaluator each, which takes
the displaced images an integrand needs in one call:
:func:`_gaussian_images`, one exp per image and node, and
:func:`_sinc_images`, one sin and one cos of a x per node for the pair of
images at x + d and x - d, which share their angle-addition products up to
sign (direct sin and cos of a (x -+ d) near each image peak, and a Taylor
series where |a (x -+ d)| < 1).  :func:`quad_over_psf` calls them on its
rows of nodes, and :func:`eval_u` and :func:`eval_u_prime` at no shift.

The characteristic width sigma is defined through the derivative energy,
sigma = (1/2) (integral of u'(x)^2 dx)^(-1/2); for the analytic kinds it
coincides with the constructor parameter.  A :class:`TransferFunction` is
checked once, when built, and its ``sigma`` is the width every kernel reads.
The binary demultiplexer sorts into v0(x) = u(x) and the derivative mode
v1(x) = -2 sigma u'(x), an orthonormal pair for real u.

:func:`quad_over_psf` is the one place where an analytic PSF is evaluated
under a quadrature: its integrand takes u and u' of the displaced images
and never evaluates the PSF itself.  Every integrand it takes is of a pair
of images at +-margin (direct imaging's at +-d, the mode overlap's at
+-d/2, the derivative energy's both at 0) and even in x, and runs over
x >= 0 only, doubled.  Gaussian integrands are truncated at 10 sigma about
the images (tails < 1e-22): one span [0, H], H = 10 sigma past the
positive image, until the windows about the origin and about the positive
image lie apart, then each alone, so the cost stops growing with d and a
product of the images, whose mass sits at the origin, keeps its relative
precision; every span maps a unit template of panel nodes, kept per count,
by its width.  Sinc integrands decay only as 1/x and are handled by the
tail-extrapolated ladder in :mod:`spaderes.integrate` with panels aligned
to the oscillation period pi/a: TAIL_LEVELS rungs from
SINC_HALF_WIDTH_OVER_A / a past the margin d (and, once d is past
SINC_HALF_WIDTH_OVER_A / a, as far again past it, so that the first rungs
stay clear of the images), packed into one kept row of nodes per start,
8,192-9,216 nodes a d on 0-5 sigma, in one or two chunks.  The ladder keeps
the phases sin(a x) and cos(a x) of its nodes with them, and the sinc
evaluator takes each chunk's phases from it.  The mode overlaps of
:mod:`spaderes.overlap` take it for the Gaussian only: sinc overlaps are
integrated over the flat spectrum.

A tabulated PSF is its spline's pieces, :class:`~spaderes.spline.SplinePieces`,
fitted once and zero outside the grid hull; :mod:`spaderes.spline` holds
them and every integral over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import UnsupportedKindError, ValidationError
from .integrate import (
    QUAD_ABS_TOL,
    QUAD_REL_TOL,
    _read_only,
    check_converged,
    composite_gauss_legendre,
    integrate_oscillatory_tails,
)
from .spline import SplinePieces

GAUSSIAN = "gaussian"
SINC = "sinc"
TABULATED = "tabulated"

KINDS = (GAUSSIAN, SINC, TABULATED)

# Truncation choices; see module docstring.
GAUSSIAN_HALF_WIDTH_SIGMAS = 10.0
# the tail ladder's start, in units of 1/a: on 0-30 sigma its error estimate is
# at most 2e3 times the true error, against 6e3 from 40 / a and 1.3e4 from 35 / a
SINC_HALF_WIDTH_OVER_A = 50.0

# Largest |norm - 1| of a tabulated PSF; TransferFunction refuses a larger one.
TABULATED_NORM_TOL = 1e-3

# Taylor coefficients of sinc t = sin t / t in powers of t^2, (-1)^n / (2n + 1)!,
# and of its derivative in odd powers of t: ten terms leave under 4e-19 of
# either for |t| < 1, where the closed forms lose digits to cancellation
_SINC_TAYLOR = np.array([(-1) ** n / math.factorial(2 * n + 1) for n in range(10)])
_SINC_DERIV_TAYLOR = 2.0 * np.arange(1, 10) * _SINC_TAYLOR[1:]
_SINC_POWERS = np.arange(10)
# sqrt(3), of a = sqrt(3) / (2 sigma), as a numpy scalar so that a is one too
_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Real, normalized amplitude transfer function u(x).

    Instances are immutable; build them with :func:`gaussian_psf`,
    :func:`sinc_psf`, :func:`tabulated_psf` or :func:`load_tabulated`.
    Construction is the one check of a PSF: it refuses a kind outside
    ``KINDS``, a sigma that is not finite and positive, a tabulated kind
    without its spline or with a sigma not its spline's, an analytic kind
    with a spline, and a norm off 1 by more than ``TABULATED_NORM_TOL``.
    A tabulated PSF's grid, norm and span are its spline's
    (:class:`SplinePieces`), which every kernel reads, so no second copy of
    them can disagree.
    """

    kind: str
    sigma: float
    _pieces: SplinePieces | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKindError(f"unknown PSF kind {self.kind!r}; expected one of {KINDS}")
        if not 0.0 < self.sigma < np.inf:
            raise ValidationError(f"sigma must be finite and positive, got {self.sigma}")
        pieces = self._pieces
        if self.kind != TABULATED:
            if pieces is not None:
                raise ValidationError(f"a {self.kind} PSF carries no spline")
            return
        if pieces is None:
            raise ValidationError("a tabulated PSF needs its spline: build it with tabulated_psf")
        if self.sigma != pieces.sigma:
            raise ValidationError(f"sigma {self.sigma} is not its spline's, {pieces.sigma}")
        if not abs(pieces.norm - 1.0) <= TABULATED_NORM_TOL:
            raise ValidationError(
                f"tabulated PSF is not normalized: integral of u^2 = {pieces.norm:.6g}"
            )

    @property
    def grid(self) -> np.ndarray | None:
        """The tabulated kind's sample positions, its spline's; None otherwise."""
        return None if self._pieces is None else self._pieces.x

    @property
    def norm(self) -> float:
        """Integral of u^2: the tabulated kind's spline's, 1 otherwise."""
        return 1.0 if self._pieces is None else self._pieces.norm

    @property
    def a(self) -> float:
        """Sinc frequency scale a = sqrt(3) / (2 sigma)."""
        if self.kind != SINC:
            raise AttributeError("frequency scale is defined for the sinc kind only")
        return _SQRT3 / (2.0 * self.sigma)


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
    # the spline's own copy of the grid, which no caller can change
    (grid,) = _read_only(np.array(grid, dtype=float))
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
    return TransferFunction(kind=TABULATED, sigma=pieces.sigma, _pieces=pieces)


def load_tabulated(path, normalize: bool = False) -> TransferFunction:
    """Load a tabulated PSF from a two-column (position, amplitude) text file.

    Columns are whitespace-delimited; '#' starts a comment.  A file with no
    data rows, or that is not UTF-8 text, or with a row numpy cannot read as
    numbers, is refused; a row that is not numbers, or not as wide as the
    first, is named by its line in the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    rows = [line for line in lines if line.split("#")[0].strip()]
    if not rows:
        raise ValidationError(f"{path} holds no data rows")
    try:
        data = np.loadtxt(rows, comments="#", ndmin=2)
    except ValueError as exc:
        what = _bad_line(lines) or exc
        raise ValidationError(f"{path} is not a table of numbers: {what}") from exc
    if data.shape[1] != 2:
        raise ValidationError(f"expected two columns (position, amplitude), got {data.shape[1]}")
    return tabulated_psf(data[:, 0], data[:, 1], normalize=normalize)


def _bad_line(lines: list) -> str:
    """What is wrong with the first data line of a table file that is not a
    row of numbers as wide as the first data line, named by its line number;
    empty if every line is."""
    width = None
    for number, line in enumerate(lines, 1):
        fields = line.split("#")[0].split()
        if not fields:
            continue
        for field in fields:
            try:
                float(field)
            except ValueError:
                return f"could not convert string {field!r} to float on line {number}"
        if width is None:
            width, first = len(fields), number
        elif len(fields) != width:
            return f"line {number} has {len(fields)} columns where line {first} has {width}"
    return ""


def _gaussian_images(sigma: float, x: np.ndarray, s: np.ndarray):
    """u and u' of the Gaussian at x - s: one exp per node and image, shared
    by u and u'."""
    s2 = sigma**2
    arr = x - s
    c = (2.0 * np.pi * s2) ** (-0.25)
    # -y / z as y / -z, the same rounding, one pass fewer
    e = np.exp(arr**2 / (-4.0 * s2))
    return c * e, ((arr / (-2.0 * s2)) * c) * e


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


def _sinc_images(a: float, x: np.ndarray, d: np.ndarray, trig=None):
    """u and u' of the sinc at x + d and at x - d, from one sin and one cos of
    a x per node: (2, rows, n) for (rows or 1, n) nodes x and (rows or 1, 1)
    margins d, the image at x + d first.

    With t = a (x - s) for the shifts s = -d and d, u = k sin t / t and
    u' = (k cos t - u) / (x - s), k = sqrt(a / pi).  sin t and cos t follow
    from sin(a x), cos(a x) and sin(a d), cos(a d) by angle addition: sin is
    odd and cos even, with a (-d) = -(a d) exactly, so the two images share
    the products sin(a x) cos(a d) and cos(a x) sin(a d), and cos(a x)
    cos(a d) and sin(a x) sin(a d), and differ in the sign they are summed
    with.  That sum cancels where |t| < |a d|: a x and a d carry rounding
    errors of order eps |a d|, which would be a large part of a small t.  So
    near a row's image peaks, on the nodes with |x| < |d| + max(1/a, |d|)
    (every node with |t| < max(1, |a d|), a few dozen in a quadrature over
    thousands), sin and cos are taken of t itself (:func:`_sinc_near`), a
    row at a time, as its matrix product rounds by position.  That keeps
    every value within a few eps of the peak of exact, and a row's bits
    those it has alone.  ``trig``, if given, is sin(a x) and cos(a x) of
    these nodes with the same bits, such as the tail ladder's phases.
    """
    k = math.sqrt(a / np.pi)
    if trig is None:
        ax = a * x
        trig = np.sin(ax), np.cos(ax, out=ax)
    sin_ax, cos_ax = trig
    ad = a * d
    sin_ad, cos_ad = np.sin(ad), np.cos(ad)
    n_rows = len(sin_ax) if len(ad) == 1 else len(ad)
    u, du = np.empty((2, 2, n_rows, sin_ax.shape[-1]))
    # k sin t / a and k cos t at x + d, then at x - d
    sin_cos, cos_sin = sin_ax * (k / a * cos_ad), cos_ax * (k / a * sin_ad)
    np.add(sin_cos, cos_sin, out=u[0])
    np.subtract(sin_cos, cos_sin, out=u[1])
    cos_cos, sin_sin = cos_ax * (k * cos_ad), sin_ax * (k * sin_ad)
    np.subtract(cos_cos, sin_sin, out=du[0])
    np.add(cos_cos, sin_sin, out=du[1])
    reach = np.abs(d)
    rows, nodes = np.nonzero(np.abs(x) < reach + np.maximum(1.0 / a, reach))
    r = x - _PAIR * d
    t_near = a * r[:, rows, nodes]
    r[:, rows, nodes] = 1.0
    inv = np.divide(1.0, r, out=r)
    u *= inv
    du -= u
    du *= inv
    if t_near.size:
        cuts = [0, *(np.diff(rows).nonzero()[0] + 1).tolist(), rows.size]
        by_row = [t_near[:, i:j] for i, j in zip(cuts, cuts[1:])]
        f, df = (np.concatenate(v, axis=1) for v in zip(*map(_sinc_near, by_row)))
        u[:, rows, nodes] = k * f
        du[:, rows, nodes] = (k * a) * df
    return u, du


# the pair's images at x + d and x - d are u(x - k d) for these k
(_PAIR,) = _read_only(np.array([-1.0, 1.0])[:, None, None])
# the margin of eval_u and eval_u_prime: the pair of images at x, of which they take one
(_NO_SHIFT,) = _read_only(np.zeros((1, 1)))


def _eval(tf: TransferFunction, x, what: str):
    """u (``what="u"``) or u' (``"du"``) at x, of x's shape."""
    x = np.asarray(x, dtype=float)
    if tf.kind == TABULATED:
        return tf._pieces.evaluate(what, x)[()]
    if tf.kind == GAUSSIAN:
        u, du = _gaussian_images(tf.sigma, x, 0.0)
    else:
        u, du = (v[0].reshape(x.shape) for v in _sinc_images(tf.a, x.reshape(1, -1), _NO_SHIFT))
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
    margin: np.ndarray,
    rel_tol=QUAD_REL_TOL,
    what="psf integral",
):
    """Integrate f of the pair of images u(x + d) and u(x - d) over the whole
    line, a row for each margin d of the 1-D array ``margin``.

    Gaussian and sinc kinds only.  f(u, du) gets u and u' of the images, at
    x + d first, as arrays (2, rows, n) and returns (rows, n), or
    (k, rows, n) for k integrands that a sequence ``what`` names: the result
    is (d.size,) or (d.size, k).  f must be even in x: it runs over x >= 0
    only, doubled, so an odd f gets twice its half-line integral, not 0.
    The layouts' windows cover the images, and f must not change when they
    are mirrored, u(-x - d) = u(x + d) and u'(-x - d) = -u'(x + d).  An
    integral of one image is the pair's at margin 0.  Each row is reduced on
    its own with the bits it has alone (:mod:`spaderes.integrate`), and one
    :func:`check_converged` judges all rows.  The images come from the kind's
    evaluator, :func:`_gaussian_images` or :func:`_sinc_images`; on the sinc
    tail ladder, widened by |d|, with the ladder's phases sin(a x) and
    cos(a x), and its error estimate tracks its own extrapolation order.
    The Gaussian's domain is :func:`_gaussian_quadrature`'s.  A tabulated
    PSF's integrals run piece by piece on its spline (:class:`SplinePieces`).
    """
    margin = np.asarray(margin, dtype=float)
    if tf.kind == GAUSSIAN:
        value, err = _gaussian_quadrature(tf.sigma, f, margin)
    elif tf.kind == SINC:
        a = tf.a
        start = SINC_HALF_WIDTH_OVER_A / a
        half = [start + p + max(0.0, p - start) for p in np.abs(margin).tolist()]
        integrand = lambda x, d, *phases: f(*_sinc_images(a, x, d, phases))
        value, err = integrate_oscillatory_tails(integrand, half, a, margin)
    else:
        raise UnsupportedKindError(f"no kind-adapted quadrature for kind {tf.kind!r}")
    return check_converged(value, err, rel_tol, QUAD_ABS_TOL, what)


def _gaussian_quadrature(sigma: float, f: Callable, d: np.ndarray):
    """(value, error estimate) of the even f of the Gaussian images at
    x -+ d, twice its integral over x >= 0, a row per d, by panel doubling
    in one pass (:func:`composite_gauss_legendre`) on templates kept per
    panel count.

    Each image's window, GAUSSIAN_HALF_WIDTH_SIGMAS sigma either side of it,
    leaves out tails of order 1e-22.  The positive image sits at p = |d|.
    While the window about it overlaps the window [0, that width] about the
    origin (p under twice the width), a row takes one span of half-width
    H = that width + p: x = H y for y on the template [0, 1], the weights
    scaled by H.  Once they lie apart, it takes each alone: the origin's,
    where a product of the two images has its mass, on [0, 1], and the
    positive image's whole, on [-1, 1] about the image, whose shift is then
    exactly 0; so the cost no longer grows with d.  A span takes half of
    max(48, 4 H / sigma) panels on [0, 1] and max(48, 4 H / sigma) on
    [-1, 1]; no span is over three windows wide, far below the rule's
    MAX_PANELS refusal, which stays.  A row's spans and panel counts are
    planned on Python floats, with np.ceil's and np.maximum's values.
    """
    reach = GAUSSIAN_HALF_WIDTH_SIGMAS * sigma
    images = np.abs(d).tolist()
    apart = [p >= 2.0 * reach for p in images]
    # the spans of a row, as (about the positive image, widened to reach it)
    near, far = [(False, True)], [(False, False), (True, False)]

    def spans_sum(spans, d, images):
        value = err = 0.0
        for about_image, widened in spans:
            halves = [reach + p for p in images] if widened else [reach] * len(images)
            panels = [max(48.0, math.ceil(4.0 * half / sigma)) for half in halves]
            if not about_image:
                panels = [math.ceil(0.5 * n) for n in panels]

            def integrand(y, d, about_image=about_image, widened=widened):
                image = np.abs(d)
                x = (reach + image if widened else reach) * y
                return f(*_gaussian_images(sigma, x, _PAIR * d - image if about_image else _PAIR * d))

            lo = -1.0 if about_image else 0.0
            fine, diff = composite_gauss_legendre(integrand, lo, 1.0, panels, d)
            scale = np.array([2.0 * half for half in halves]).reshape((-1,) + (1,) * (fine.ndim - 1))
            value, err = value + scale * fine, err + scale * diff
        return value, err

    if all(apart) or not any(apart):
        return spans_sum(far if all(apart) else near, d, images)
    apart = np.array(apart)
    parts = [
        (rows, spans_sum(spans, d[rows], np.abs(d[rows]).tolist()))
        for rows, spans in ((~apart, near), (apart, far))
    ]
    value, err = np.zeros((2, d.size) + parts[0][1][0].shape[1:])
    for rows, (v, e) in parts:
        value[rows], err[rows] = v, e
    return value, err
