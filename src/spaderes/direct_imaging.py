"""Ideal continuum intensity imaging, the baseline to beat, plus the QFI.

A photon from the scene lands at x with density
p(x) = (u(x-d)^2 + u(x+d)^2) / 2, and the per-window information is

    F = n_s * integral (dp/dd)^2 / p dx.

:func:`fi_direct` takes a scalar d or an array of d.  For the analytic kinds
every d is a row of one kind-adapted quadrature over x
(:func:`quad_over_psf`), whose integrand takes u and u' of both images,
at x + d and x - d, as (2, rows, n) arrays and returns (rows, n) values,
each row reduced on its own by np.dot, so a d gets the same bits alone or
inside an array.  The images come from one evaluation: one exp per image
and node for the Gaussian, and one sin and one cos per node for sinc.  A
tabulated spline is integrated piece by piece over [x_0 - d, x_n + d], on
the pieces where both images are polynomials (the walks of
:class:`SplinePieces`), so no part of either image is cut off at the grid
hull.  On a uniform grid (:func:`_lattice_information`) the ratio runs only
where both images are nonzero; where one lies alone the integrand is
exactly 2 u'^2, summed from the lattice's energy prefix sums.  Any other
grid merges the breakpoints d by d (:func:`_merged_information`).  The
quantum limit over all measurements is qfi = n_s / sigma^2 = 4 n_s
integral u'^2 dx.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .integrate import _gl_nodes, check_converged
from .psf import QUAD_ABS_TOL, TABULATED, SplinePieces, TransferFunction, quad_over_psf

P_FLOOR = 1e-300  # below this the density is treated as exactly zero
DIRECT_REL_TOL = 1e-7
# Gauss-Legendre node counts on each piece: the larger rule gives the value,
# their difference its error estimate
_COARSE, _FINE = 4, 8
_RATIO = _COARSE + _FINE
_COARSE_NODES, _FINE_NODES = slice(0, _COARSE), slice(_COARSE, _RATIO)
# the two packed as one rule, then on the lattice 3 nodes, exact for u'^2 where
# one image lies alone: nodes and weights per unit width, on [0, 1]
_NODES, _WEIGHTS = (np.concatenate(v) for v in zip(*map(_gl_nodes, (_COARSE, _FINE, 3))))
_HALF_STEP, _HALF_WEIGHT = 0.5 * (1.0 + _NODES), 0.5 * _WEIGHTS
_MERGED_RULE = (_HALF_STEP[:_RATIO], _HALF_WEIGHT[:_RATIO])
# what each image is evaluated for: u and u'
_U_AND_DU = ["u", "du"]


def _density(here, there):
    """p and dp/dd from u and u' of the images at x + d (``here``) and at
    x - d (``there``), in place on all four arrays."""
    (ua, dp), (ub, dub) = here, there
    dp *= ua
    dub *= ub
    dp -= dub
    ua *= ua
    ub *= ub
    ua += ub
    ua *= 0.5
    return ua, dp


def _information_density(p, dp):
    """(dp/dd)^2 / p, zero where p underflows below P_FLOOR."""
    dp *= dp
    return np.divide(dp, p, out=np.zeros_like(p), where=p > P_FLOOR)


def _spline_information(tf: TransferFunction, ad: np.ndarray) -> np.ndarray:
    """integral (dp/dd)^2 / p dx at every |d| of the 1-D array ``ad``, on the spline.

    With y = x + d the density is p = (u(y)^2 + u(y - 2d)^2) / 2, so between
    the merged breakpoints of the grid and the grid shifted by 2d both images
    are single cubic pieces (or zero outside the hull), p has degree 6 and
    dp/dd = u u'(y) - u u'(y - 2d) degree 5.  Their ratio is smooth wherever
    p > 0 but not a polynomial, so each piece takes _FINE-node Gauss-Legendre
    and the _COARSE-node rule's difference is the error estimate.  On a
    uniform grid the pieces are the lattice's (:func:`_lattice_information`),
    on any other grid the merged breakpoints' (:func:`_merged_information`).
    Once 2d spans the hull the images no longer overlap, and each contributes
    2 integral u'^2 = 1 / (2 sigma^2); that also keeps d far beyond the hull,
    where grid + 2d would lose the grid's spacing, exact.  Each row of d is
    reduced on its own, so a d gives the same bits alone or inside an array.
    """
    pieces = tf._pieces
    value = np.full(ad.size, 1.0 / tf.sigma**2)
    err = np.zeros(ad.size)
    overlapping = np.flatnonzero(2.0 * ad < pieces.span)
    kernel = _merged_information if pieces.lattice is None else _lattice_information
    value[overlapping], err[overlapping] = kernel(pieces, 2.0 * ad[overlapping])
    return check_converged(
        value, err, DIRECT_REL_TOL, QUAD_ABS_TOL, "direct-imaging information"
    )


def _merged_information(pieces: SplinePieces, shift: np.ndarray):
    """(value, error estimate) of the information at each 2|d| of the 1-D
    ``shift``, on the merged pieces of the two images (:meth:`SplinePieces.blocks`).

    The two rules run as one packed rule, in one pass, and each is summed
    over its own nodes.
    """
    value, err = np.zeros((2, shift.size))
    for rows, w, here, there in pieces.blocks(shift, _MERGED_RULE, _U_AND_DU, _U_AND_DU):
        terms = w * _information_density(*_density(here, there))
        coarse, fine = (terms[:, nodes].sum(axis=(1, 2)) for nodes in (_COARSE_NODES, _FINE_NODES))
        value[rows] = fine
        err[rows] = np.abs(fine - coarse)
    return value, err


def _lattice_information(pieces: SplinePieces, shift: np.ndarray):
    """(value, error estimate) of the information at each 2|d| of the 1-D
    ``shift``, on the lattice of a uniform grid (:class:`UniformLattice`).

    Write 2|d| = m h + delta.  Every lattice piece k of the image at y splits
    at delta: on [delta, h] the image at y - 2d is on piece k - m, at
    t = s - delta, and on [0, delta] on piece k - m - 1, at t = s - delta + h.
    So the nodes s and t of each half are two vectors that every piece
    shares, and both images are one product of their powers with the rows
    (:meth:`UniformLattice.at`); the sums run over the pieces and then the
    nodes, a reduction of its own.  The ratio runs on the 2(n - m) - 1
    halves where both images are nonzero, n the piece count.  Where only one
    image lies, p = u^2 / 2 and dp/dd = u u', so the integrand is exactly
    2 u'^2: the first m pieces and the last m take the lattice's energy
    prefix sums, and the two halves of width delta beside them 3-node
    Gauss-Legendre, exact for u'^2.  Every operation on a d is its own, so a d
    gives the same bits alone or inside an array.
    """
    lattice = pieces.lattice
    n = lattice.images.shape[-1]
    lags, s, t, weights = lattice.halves(shift, _HALF_STEP, _HALF_WEIGHT)
    m = lags[:, 0]
    # y's image lies alone on its first m pieces, y - 2d's on its last m
    value = 2.0 * lattice.energy[:, m].sum(axis=0)
    err = np.zeros(shift.size)
    # (a shift within rounding of the span may reach lag n, where nothing overlaps)
    for i in np.flatnonzero(m < n).tolist():
        k = m[i]
        fine = coarse = alone = 0.0
        # on lag m, y's image is on pieces m .. n - 1 and y - 2d's on 0 .. n - m - 1;
        # on lag m + 1, on pieces m + 1 .. n - 1 and 0 .. n - m - 2
        for at_s, at_t, w, lag in zip(s[i], t[i], weights[i], (k, k + 1)):
            here = lattice.at(at_s[:_RATIO], _U_AND_DU, slice(lag, n))
            there = lattice.at(at_t[:_RATIO], _U_AND_DU, slice(0, n - lag))
            ratio = _information_density(*_density(here, there)).sum(axis=-1)
            fine += np.dot(w[_FINE_NODES], ratio[_FINE_NODES])
            coarse += np.dot(w[_COARSE_NODES], ratio[_COARSE_NODES])
        # on lag m + 1, y's piece m and y - 2d's piece n - m - 1 lie alone
        for at, piece in ((s[i, 1], k), (t[i, 1], n - k - 1)):
            du = lattice.at(at[_RATIO:], _U_AND_DU, slice(piece, piece + 1))[1, :, 0]
            alone += np.dot(weights[i, 1, _RATIO:], du * du)
        value[i] += fine + 2.0 * alone
        err[i] = abs(fine - coarse)
    return value, err


def fi_direct(tf: TransferFunction, d, n_s: float):
    """Exact direct-imaging information n_s * integral (dp/dd)^2 / p dx.

    Takes a scalar d or an array of d and returns values of d's shape; a d
    gives the same bits alone or inside an array.  The integrand is bounded
    by 2(u'(x-d)^2 + u'(x+d)^2) (Cauchy-Schwarz), so clipping the region where
    p underflows below P_FLOOR is harmless.
    """
    if not 0.0 < n_s < np.inf:
        raise ValidationError(f"n_s must be finite and positive, got {n_s}")
    d = np.asarray(d, dtype=float)
    if not np.isfinite(d).all():
        raise ValidationError("separation d must be finite")
    ad = np.abs(d).ravel()
    if tf.kind == TABULATED:
        value = _spline_information(tf, ad)
    else:
        value = quad_over_psf(
            tf,
            lambda u, du: _information_density(*_density((u[0], du[0]), (u[1], du[1]))),
            (-1.0, 1.0),
            ad,
            DIRECT_REL_TOL,
            "direct-imaging information",
        )
    return (n_s * value).reshape(d.shape)[()]


def qfi(n_s: float, sigma: float) -> float:
    """Quantum Fisher information n_s / sigma^2, the ceiling for any measurement."""
    if not 0.0 < sigma < np.inf:
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
    if not 0.0 < n_s < np.inf:
        raise ValidationError(f"n_s must be finite and positive, got {n_s}")
    return n_s / sigma**2


def qfi_numeric(tf: TransferFunction, n_s: float) -> float:
    """QFI from the defining integral 4 n_s * integral u'^2 dx.

    Exact per spline piece for a tabulated PSF, kind-adapted quadrature otherwise.
    """
    if not 0.0 < n_s < np.inf:
        raise ValidationError(f"n_s must be finite and positive, got {n_s}")
    if tf.kind == TABULATED:
        value = tf._pieces.energy
    else:
        energy = lambda u, du: du[0] ** 2
        [value] = quad_over_psf(tf, energy, (0.0,), np.zeros(1), what="derivative energy")
    return 4.0 * n_s * value
