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
np.dot, so a d gets the same bits alone or inside an array.  A
tabulated spline takes :func:`_spline_overlaps` on any grid, on the pairs
of pieces that :meth:`SplinePieces.pairs` walks, and its c' = dc/dd takes
the term of u(x - d)'s step at x_0 + |d| (:meth:`SplinePieces.hull_step`).
:func:`tau1_exact` is the closed form for the analytic kinds; for a
tabulated spline on a uniform grid it takes each d's lag on the lattice and
evaluates that lag's kept rows of c and c' (:meth:`UniformLattice.rows`),
polynomials in the offset derived exactly from the spline, by one Horner
pass, and on any other grid it is the piece-by-piece path.
Squares of d-dependent values use np.float_power, i.e. pow() as a scalar
``x**2`` does: an array's ``x**2`` multiplies, and differs from pow() in
the last bit for one value in ~1300.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UnsupportedKindError, ValidationError
from .integrate import check_converged, composite_gauss_legendre
from .psf import (
    GAUSSIAN,
    QUAD_ABS_TOL,
    QUAD_REL_TOL,
    SINC,
    TABULATED,
    TransferFunction,
    _horner,
    quad_over_psf,
)

# 3-node Gauss-Legendre, exact for the degree-5 product of two spline pieces,
# on [0, 1]: its nodes and weights per unit width
_PIECE_RULE = (
    0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])),
    np.array([5.0, 8.0, 5.0]) / 18.0,
)
# rounding bound of a spline-exact overlap per unit of sum |w f|: about 15
# roundings in each term and the depth of numpy's pairwise summation, about
# 60 times the largest error seen against a long-double sum
_ROUNDING = 64 * np.finfo(float).eps


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
    for |t| < 0.25, where the closed forms cancel."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    ts = np.where(at < 0.25, 1.0, t)  # t wherever either closed form is kept
    sin, cos = np.sin(ts), np.cos(ts)
    t2 = t * t
    q = np.where(
        at < 0.35,
        1.0 + t2 * (-0.1 + t2 * (1.0 / 280.0 + t2 * (-1.0 / 15120.0 + t2 / 1330560.0))),
        3.0 * (sin - ts * cos) / ts**3,
    )
    qp = np.where(
        at < 0.25,
        t * (-0.2 + t2 * (1.0 / 70.0 + t2 * (-1.0 / 2520.0 + t2 / 166320.0))),
        3.0 * ((t2 - 3.0) * sin + 3.0 * ts * cos) / ts**4,
    )
    return q[()], qp[()]


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
        q, qp = _shrink_ratios(a * d)
        c = (d / (2.0 * sigma)) * q
        cp = q / (2.0 * sigma) + (d / (2.0 * sigma)) * qp * a
    else:
        raise UnsupportedKindError(f"no closed-form transmission for kind {tf.kind!r}")
    return Transmission(d, c * c, 2.0 * c * cp, c, cp)


def _spline_overlaps(tf: TransferFunction, ad: np.ndarray):
    """(c, c') at every |d| of the 1-D array ``ad``, exactly for the cubic spline.

    Where a piece of v1(x) meets a piece of u(x - d), v1 is one quadratic
    and u one cubic, so v1 u has degree 5 and v1 u' degree 4, and 3-node
    Gauss-Legendre on each pair of pieces (:meth:`SplinePieces.pairs`) is
    exact.  u is zero outside the grid hull, so c = c' = 0 once d spans the
    hull, and inside it c' takes the term of u(x - d)'s step at x_0 + |d|.
    The error estimate bounds rounding only, the step's included, and one
    check judges c and c'.  Each row of d is reduced on its own, so a d
    gives the same bits alone or inside an array.
    It is the test oracle of the per-lag rows on a uniform grid, and, with the
    lattice dropped, the merged breakpoints are the oracle of the lattice.
    """
    pieces = tf._pieces
    inside = np.flatnonzero(ad < pieces.span)
    # c, -c' and the sums of their terms' magnitudes
    sums = np.zeros((4, ad.size))
    for rows, w, v1, images in pieces.pairs(ad[inside], _PIECE_RULE, ["v1"], ["u", "du"]):
        # the terms of c and -c' (v1 is one name, u and u' two), then each row's
        terms = (w * v1) * images
        terms = terms.reshape(terms.shape[:-2] + (-1,))
        sums[:, inside[rows]] += np.concatenate([terms.sum(axis=-1), np.abs(terms).sum(axis=-1)])
    step = pieces.hull_step(ad[inside])
    sums[1::2, inside] += [step, np.abs(step)]
    sums[1] = 0.0 - sums[1]  # c' = 0 - (-c') keeps c' = +0 where nothing overlaps
    what = ("mode overlap", "overlap derivative")
    check_converged(sums[:2].T, _ROUNDING * sums[2:].T, QUAD_REL_TOL, QUAD_ABS_TOL, what)
    return sums[0], sums[1]


def _row_overlaps(tf: TransferFunction, ad: np.ndarray):
    """(c, c') at every |d| of the 1-D array ``ad`` from the per-lag rows of
    a spline on a uniform grid, exactly for the spline.

    Write d = m h + delta on the grid's lattice (:meth:`UniformLattice.lags`).
    On lag m, c and c' are each one polynomial in w = (delta - h) / h
    (:meth:`UniformLattice.rows`), taken from the offset delta - h, correct
    to its own rounding, and evaluated by one Horner pass over both rows.
    Once d spans the hull, c = c' = 0.  Every operation is elementwise in d,
    so a d gives the same bits alone or inside an array.
    """
    lattice = tf._pieces.lattice
    both = np.zeros((ad.size, 2))
    inside = ad < tf._pieces.span
    lags, offsets = lattice.lags(ad[inside])
    w = offsets[:, 1:] / (lattice.h_hi + lattice.h_lo)
    both[inside] = _horner(lattice.rows(lags[:, 0]), w)
    return both.T


def _transmission(tf: TransferFunction, d, overlaps) -> Transmission:
    """The Transmission of (c, c') = ``overlaps(tf, |d|)`` over the raveled |d|.

    Only |d| is integrated: c is odd in d and c' even, so c(0) = 0 and the
    two-source average is even by construction.
    """
    d = np.asarray(d, dtype=float)
    if not np.isfinite(d).all():
        raise ValidationError("separation d must be finite")
    c, cp = overlaps(tf, np.abs(d).ravel())
    c, cp = c.reshape(d.shape), cp.reshape(d.shape)
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
        return _spline_overlaps(tf, ad)
    what = ("mode overlap", "overlap derivative")
    if tf.kind == GAUSSIAN:
        even_parts = lambda u, du: (
            -sigma * (du[0] * u[1] - du[1] * u[0]),
            2.0 * sigma * du[0] * du[1],
        )
        both = quad_over_psf(tf, even_parts, 0.5 * ad, what=what)
    else:
        a = tf.a
        band = lambda k, d: (k * np.sin(k * d), k * k * np.cos(k * d))
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
    piece by piece for a tabulated spline (on the lattice of a uniform
    grid).  It is the oracle of every kind's :func:`tau1_exact`.
    """
    return _transmission(tf, d, _quadrature_overlaps)


def tau1_exact(tf: TransferFunction, d) -> Transmission:
    """The transmission for a scalar d or an array of d, exact for every kind.

    Gaussian and sinc take the closed form (:func:`tau1_closed`).  A tabulated
    spline on a uniform grid takes its per-lag rows (:func:`_row_overlaps`),
    the lattice's lags and one Horner pass per d; on any other grid it is
    integrated piece by piece as in :func:`tau1_numeric`, with the same bits.
    """
    if tf.kind in (GAUSSIAN, SINC):
        return tau1_closed(tf, d)
    if tf._pieces.lattice is None:
        return tau1_numeric(tf, d)
    return _transmission(tf, d, _row_overlaps)


def tau1_small_d(sigma: float, d) -> float:
    """Leading small-separation transmission, d^2 / 4 sigma^2 for every kind."""
    if not 0.0 < sigma < np.inf:
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
    return np.float_power(d, 2) / (4.0 * sigma**2)


def tau1_sinc_expansion(sigma: float, d: float) -> float:
    """Two-term small-d expansion of the sinc transmission,
    (d^2 / 4 sigma^2)(1 - 3 d^2 / 20 sigma^2)."""
    return (d**2 / (4.0 * sigma**2)) * (1.0 - 3.0 * d**2 / (20.0 * sigma**2))
