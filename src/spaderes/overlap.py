"""Transmission of a displaced source into the derivative mode.

Two equally bright incoherent sources sit at +/- d.  The probability that a
detected photon lands in the derivative mode v1 is

    tau1(d) = 1/2 |<v1, u(. - d)>|^2 + 1/2 |<v1, u(. + d)>|^2,

which for a real symmetric u reduces to a single overlap squared.  Closed
forms exist for the analytic kinds:

    gaussian: tau1 = (d^2 / 4 sigma^2) exp(-d^2 / 4 sigma^2)
    sinc:     tau1 = 16 sigma^4 / (3 d^4) (sin(a d) - a d cos(a d))^2

Both share the small-separation law tau1 -> d^2 / 4 sigma^2.  The closed
forms take a scalar d or an array of d and return values of d's shape.  The
numeric path evaluates the overlap integral directly, one scalar d at a time,
and differentiates under the integral sign; it is the oracle against which
the closed forms are checked.  Squares of d-dependent values use
np.float_power, i.e. pow() as a scalar ``x**2`` does: an array's ``x**2``
multiplies, and differs from pow() in the last bit for one value in ~1300.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UnsupportedKindError
from .psf import (
    GAUSSIAN,
    SINC,
    TransferFunction,
    eval_u,
    eval_u_prime,
    quad_over_psf,
    sigma_of,
)


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


def _shrink_ratio(t: np.ndarray) -> np.ndarray:
    """q(t) = 3 (sin t - t cos t) / t^3, with q(0) = 1; stable near t = 0."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.35
    ts = np.where(small, 1.0, t)
    direct = 3.0 * (np.sin(ts) - ts * np.cos(ts)) / ts**3
    t2 = t * t
    series = 1.0 + t2 * (
        -0.1 + t2 * (1.0 / 280.0 + t2 * (-1.0 / 15120.0 + t2 / 1330560.0))
    )
    return np.where(small, series, direct)[()]


def _shrink_ratio_prime(t: np.ndarray) -> np.ndarray:
    """dq/dt = 3 ((t^2 - 3) sin t + 3 t cos t) / t^4; stable near t = 0."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.25
    ts = np.where(small, 1.0, t)
    direct = 3.0 * ((ts**2 - 3.0) * np.sin(ts) + 3.0 * ts * np.cos(ts)) / ts**4
    t2 = t * t
    series = t * (
        -0.2 + t2 * (1.0 / 70.0 + t2 * (-1.0 / 2520.0 + t2 / 166320.0))
    )
    return np.where(small, series, direct)[()]


def tau1_closed(tf: TransferFunction, d) -> Transmission:
    """Closed-form transmission; gaussian and sinc kinds only.

    The overlap amplitudes are c = (d / 2 sigma) e^(-d^2 / 8 sigma^2) for the
    Gaussian kind and c = (d / 2 sigma) q(a d) for sinc, where
    q(t) = 3 (sin t - t cos t) / t^3.
    """
    sigma = tf.sigma
    if tf.kind == GAUSSIAN:
        d2 = np.float_power(d, 2)
        e = np.exp(-d2 / (8.0 * sigma**2))
        c = (d / (2.0 * sigma)) * e
        cp = (e / (2.0 * sigma)) * (1.0 - d2 / (4.0 * sigma**2))
    elif tf.kind == SINC:
        a = tf.a
        q = _shrink_ratio(a * d)
        qp = _shrink_ratio_prime(a * d)
        c = (d / (2.0 * sigma)) * q
        cp = q / (2.0 * sigma) + (d / (2.0 * sigma)) * qp * a
    else:
        raise UnsupportedKindError(f"no closed-form transmission for kind {tf.kind!r}")
    return Transmission(d, c * c, 2.0 * c * cp, c, cp)


def tau1_numeric(tf: TransferFunction, d: float) -> Transmission:
    """Transmission by direct overlap quadrature.

    The overlap c(d) = <v1, u(. - d)> is integrated with the kind-appropriate
    domain; its derivative uses -u' under the integral sign.  By symmetry of
    v1 only one displaced copy is needed: tau1 = c(d)^2 and the two-source
    average is even in d by construction.
    """
    d = float(d)
    sigma = sigma_of(tf)

    def v1(x):
        return -2.0 * sigma * eval_u_prime(tf, x)

    ad = abs(d)
    if d == 0.0:
        # <v1, u> = 0 exactly (odd integrand); the derivative is the mode norm
        # over 2 sigma: c'(0) = <v1, -u'> = <v1, v1> / 2 sigma.
        c = 0.0
        cp = quad_over_psf(
            tf,
            lambda x: v1(x) * (-eval_u_prime(tf, x)),
            what="overlap derivative",
        )
    else:
        c = quad_over_psf(
            tf,
            lambda x: v1(x) * eval_u(tf, x - ad, fill=0.0),
            margin=ad,
            what="mode overlap",
        )
        cp = quad_over_psf(
            tf,
            lambda x: v1(x) * (-eval_u_prime(tf, x - ad, fill=0.0)),
            margin=ad,
            what="overlap derivative",
        )
    if d < 0:
        c = -c  # c is odd in d, c' even
    return Transmission(
        d=d, tau1=c * c, dtau1_dd=2.0 * c * cp, c=float(c), c_prime=float(cp)
    )


def tau1_exact(tf: TransferFunction, d) -> Transmission:
    """Closed form where available, overlap quadrature point by point otherwise."""
    if tf.kind in (GAUSSIAN, SINC):
        return tau1_closed(tf, d)
    if np.ndim(d) == 0:
        return tau1_numeric(tf, d)
    columns = zip(*(tau1_numeric(tf, x) for x in np.ravel(d)))
    return Transmission(*(np.reshape(column, np.shape(d)) for column in columns))


def tau1_small_d(sigma: float, d) -> float:
    """Leading small-separation transmission, d^2 / 4 sigma^2 for every kind."""
    return np.float_power(d, 2) / (4.0 * sigma**2)


def tau1_sinc_expansion(sigma: float, d: float) -> float:
    """Two-term small-d expansion of the sinc transmission,
    (d^2 / 4 sigma^2)(1 - 3 d^2 / 20 sigma^2)."""
    return (d**2 / (4.0 * sigma**2)) * (1.0 - 3.0 * d**2 / (20.0 * sigma**2))
