"""Transmission of a displaced source into the derivative mode.

Two equally bright incoherent sources sit at +/- d.  The probability that a
detected photon lands in the derivative mode v1 is

    tau1(d) = 1/2 |<v1, u(. - d)>|^2 + 1/2 |<v1, u(. + d)>|^2,

which for a real symmetric u reduces to a single overlap squared.  Closed
forms exist for the analytic kinds:

    gaussian: tau1 = (d^2 / 4 sigma^2) exp(-d^2 / 4 sigma^2)
    sinc:     tau1 = 16 sigma^4 / (3 d^4) (sin(a d) - a d cos(a d))^2

Both share the small-separation law tau1 -> d^2 / 4 sigma^2.  Every path
takes a scalar d or an array of d and returns values of d's shape.  The
numeric path, :func:`tau1_numeric`, evaluates the overlap integral directly
and differentiates under the integral sign: over x for the Gaussian, in the
frame centred between the images, where the product's mass sits at the
origin, so c keeps its relative precision however far out; by Parseval
over the flat band for sinc; and exactly, piece by piece, for a table.  It
is the oracle of every kind.  On the analytic kinds every d is a row of
one quadrature call (:mod:`spaderes.integrate`), whose integrand takes
(rows, n) nodes and the rows' d as a (rows, 1) column and returns the
integrands of c and c' as (2, rows, n); each row is reduced on its own by
np.dot, so a d gets the same bits alone or inside an array.
:func:`tau1_exact` is the closed form for the analytic kinds.  A tabulated
spline takes its own kernels (:mod:`spaderes.spline`): c and c' piece by
piece for :func:`tau1_numeric`, and exactly, by one Horner pass per d on a
uniform grid, for :func:`tau1_exact`.
Squares of d-dependent values use np.float_power, i.e. pow() as a scalar
``x**2`` does: an array's ``x**2`` multiplies, and differs from pow() in
the last bit for one value in ~1300.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UnsupportedKindError, ValidationError
from .integrate import QUAD_ABS_TOL, QUAD_REL_TOL, check_converged, composite_gauss_legendre
from .psf import _GAUSSIAN_CLIP_SIGMAS, GAUSSIAN, SINC, TABULATED, TransferFunction, quad_over_psf


# |t| from which _shrink_ratios' t^4 overflows
_FAR_T = 2.0**256


class Transmission(NamedTuple):
    """tau1 and its separation derivative at the half-separation d.

    Every field has the shape of d: a scalar, or an array over a grid of d.
    c is the signed overlap <v1, u(. - d)> with tau1 = c^2, and c_prime its
    d-derivative.  Keeping the factored form lets downstream code evaluate
    (dtau1/dd)^2 / tau1 = 4 c_prime^2 without a 0/0 at tau1 = 0.  A named
    tuple rather than a frozen dataclass: root finders build one per
    evaluation, and the tuple costs a third as much to make.
    """

    d: float | np.ndarray
    tau1: float | np.ndarray
    dtau1_dd: float | np.ndarray
    c: float | np.ndarray
    c_prime: float | np.ndarray


def _shrink_ratios(t):
    """q(t) = 3 (sin t - t cos t) / t^3, with q(0) = 1, and its derivative
    q'(t) = 3 ((t^2 - 3) sin t + 3 t cos t) / t^4, from one sin and one cos
    of t; each takes its Taylor series near t = 0, q for |t| < 0.35 and q'
    for |t| < 0.25, where the closed forms cancel.  The series are evaluated
    only when some |t| needs them, as on the 0-5 sigma grids rarely, and on
    t^2 taken as 0 past their cut-offs, so that a large t beside a small one
    does not overflow in them: an array answers as its elements do.  From
    |t| = 2^256 out, where t^4 overflows, q and q' are divided through by t
    before any power is taken: q = 3 (sin t / t - cos t) / t^2 and
    q' = 3 (sin t + 3 cos t / t) / t^2, whose dropped -3 sin t / t^2 is below
    2^-510 of sin t.  That branch too runs only when some |t| needs it."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    series = at.min(initial=np.inf) < 0.35
    ts = np.where(at < 0.25, 1.0, t) if series else t  # t wherever either closed form is kept
    sin, cos = np.sin(ts), np.cos(ts)
    far = at.max(initial=0.0) >= _FAR_T
    tn = t
    if far:  # the closed forms take 1 where t^4 overflows, once sin and cos are taken
        huge = at >= _FAR_T
        tn, ts = np.where(huge, 1.0, t), np.where(huge, 1.0, ts)
    t2 = tn * tn
    q = 3.0 * (sin - ts * cos) / ts**3
    qp = 3.0 * ((t2 - 3.0) * sin + 3.0 * ts * cos) / ts**4
    if series:
        small = at < 0.35
        t2 = t2 * small  # t^2 exactly below the cut-off, 0 past it
        q = np.where(
            small,
            1.0 + t2 * (-0.1 + t2 * (1.0 / 280.0 + t2 * (-1.0 / 15120.0 + t2 / 1330560.0))),
            q,
        )
        qp = np.where(
            at < 0.25,
            t * (-0.2 + t2 * (1.0 / 70.0 + t2 * (-1.0 / 2520.0 + t2 / 166320.0))),
            qp,
        )
    if far:
        th = np.where(huge, t, 1.0)  # t wherever the divided forms are kept
        q = np.where(huge, 3.0 * (sin / th - cos) / th / th, q)
        qp = np.where(huge, 3.0 * (sin + 3.0 * cos / th) / th / th, qp)
    return q[()], qp[()]


def tau1_closed(tf: TransferFunction, d) -> Transmission:
    """Closed-form transmission; gaussian and sinc kinds only.

    The overlap amplitudes are c = (d / 2 sigma) e^(-d^2 / 8 sigma^2) for the
    Gaussian kind and c = (d / 2 sigma) q(a d) for sinc, where
    q(t) = 3 (sin t - t cos t) / t^3.  The Gaussian takes d^2 of |d| clipped
    at _GAUSSIAN_CLIP_SIGMAS sigma, where e is 0 already, so c, c' and tau1
    are 0, not NaN, once d^2 would overflow.
    """
    sigma = tf.sigma
    if tf.kind == GAUSSIAN:
        d2 = np.float_power(np.minimum(np.abs(d), _GAUSSIAN_CLIP_SIGMAS * sigma), 2)
        e = np.exp(d2 / (-8.0 * sigma**2))
        c = (d / (2.0 * sigma)) * e
        cp = (e / (2.0 * sigma)) * (1.0 - d2 / (4.0 * sigma**2))
    elif tf.kind == SINC:
        a = tf.a
        q, qp = _shrink_ratios(a * d)
        half = d / (2.0 * sigma)
        c = half * q
        cp = q / (2.0 * sigma) + half * qp * a
    else:
        raise UnsupportedKindError(f"no closed-form transmission for kind {tf.kind!r}")
    return Transmission(d, c * c, 2.0 * c * cp, c, cp)


def _transmission(d, overlaps) -> Transmission:
    """The Transmission of (c, c') = ``overlaps(|d|)`` over the raveled |d|.

    Only |d| is integrated: c is odd in d and c' even, so c(0) = 0 and the
    two-source average is even by construction; where every d is positive,
    c keeps its sign without a pass.
    """
    d = np.asarray(d, dtype=float)
    ad = np.abs(d).ravel()
    if not ad.max(initial=0.0) < np.inf:
        raise ValidationError("separation d must be finite")
    c, cp = overlaps(ad)
    c, cp = c.reshape(d.shape), cp.reshape(d.shape)
    if not d.min(initial=np.inf) > 0.0:
        c = np.where(d < 0, -c, np.where(d == 0, 0.0, c))
    return Transmission(d[()], (c * c)[()], (2.0 * c * cp)[()], c[()], cp[()])


def _quadrature_overlaps(tf: TransferFunction, ad: np.ndarray):
    """(c, c') at every |d| of ``ad`` by each kind's overlap quadrature.

    The Gaussian integrates in the frame y = x - d/2 centred between the
    images u0 = u(y + d/2) and u1 = u(y - d/2), where c = <-2 sigma u0', u1>
    takes the even part of its integrand, -sigma (u0' u1 - u1' u0), and
    c' = <2 sigma u0', u1'> is even already (:func:`quad_over_psf`).  sinc
    takes Parseval on its flat band [0, a]: c and c' are (2 sigma / a) times
    the integrals of k sin(k d) and k^2 cos(k d), one panel per half-period.
    """
    sigma = tf.sigma
    if tf.kind == TABULATED:
        return tf._pieces.overlaps(ad)
    what = ("mode overlap", "overlap derivative")
    if tf.kind == GAUSSIAN:
        even_parts = lambda u, du: (
            -sigma * (du[0] * u[1] - du[1] * u[0]),
            2.0 * sigma * du[0] * du[1],
        )
        both = quad_over_psf(tf, even_parts, 0.5 * ad, what=what)
    else:
        a = tf.a
        def band(k, d):
            kd = k * d
            return k * np.sin(kd), k * k * np.cos(kd)

        panels = np.maximum(4, np.ceil(a * ad / np.pi))
        value, err = composite_gauss_legendre(band, 0.0, a, panels, ad)
        scale = 2.0 * sigma / a
        both = check_converged(scale * value, scale * err, QUAD_REL_TOL, QUAD_ABS_TOL, what)
    return both.T


def tau1_numeric(tf: TransferFunction, d) -> Transmission:
    """Transmission by direct overlap quadrature, for a scalar d or an array of d.

    The overlap c(d) = <v1, u(. - d)> and its derivative -<v1, u'(. - d)> are
    integrated where each kind's integrand is smooth: over x for the Gaussian,
    in the frame centred between the images, over the flat band for sinc,
    piece by piece for a tabulated spline.  It is the oracle of every
    kind's :func:`tau1_exact`.
    """
    return _transmission(d, lambda ad: _quadrature_overlaps(tf, ad))


def tau1_exact(tf: TransferFunction, d) -> Transmission:
    """The transmission for a scalar d or an array of d, exact for every kind.

    Gaussian and sinc take the closed form (:func:`tau1_closed`), and a
    tabulated spline its exact overlaps
    (:meth:`~spaderes.spline.SplinePieces.exact_overlaps`): one Horner pass
    per d on a uniform grid, and :func:`tau1_numeric`'s bits on any other.
    """
    if tf.kind in (GAUSSIAN, SINC):
        return tau1_closed(tf, d)
    return _transmission(d, tf._pieces.exact_overlaps)


def tau1_small_d(sigma: float, d) -> float:
    """Leading small-separation transmission, d^2 / 4 sigma^2 for every kind."""
    if not 0.0 < sigma < np.inf:
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
    return np.float_power(d, 2) / (4.0 * sigma**2)


def tau1_sinc_expansion(sigma: float, d) -> float:
    """Two-term small-d expansion of the sinc transmission,
    (d^2 / 4 sigma^2)(1 - 3 d^2 / 20 sigma^2); refuses the sigma that
    :func:`tau1_small_d` refuses."""
    return tau1_small_d(sigma, d) * (1.0 - 3.0 * np.float_power(d, 2) / (20.0 * sigma**2))
