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
tabulated spline is integrated piece by piece over [x_0 - d, x_n + d],
between the merged breakpoints of the two displaced grids, where p and dp/dd
are polynomials, so no part of either image is cut off at the grid hull.  The
quantum limit over all measurements is qfi = n_s / sigma^2 = 4 n_s integral
u'^2 dx.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .integrate import _gl_nodes, check_converged
from .psf import (
    QUAD_ABS_TOL,
    TABULATED,
    TransferFunction,
    quad_over_psf,
    sigma_of,
)

P_FLOOR = 1e-300  # below this the density is treated as exactly zero
DIRECT_REL_TOL = 1e-7
# Gauss-Legendre node counts on each merged spline piece: the larger rule gives
# the value, their difference its error estimate
_COARSE, _FINE = 4, 8


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


def _spline_information(tf: TransferFunction, sigma: float, ad: np.ndarray) -> np.ndarray:
    """integral (dp/dd)^2 / p dx at every |d| of the 1-D array ``ad``, on the spline.

    With y = x + d the density is p = (u(y)^2 + u(y - 2d)^2) / 2, so between
    the merged breakpoints of the grid and the grid shifted by 2d both images
    are single cubic pieces (or zero outside the hull), p has degree 6 and
    dp/dd = u u'(y) - u u'(y - 2d) degree 5.  Their ratio is smooth wherever
    p > 0 but not a polynomial, so each piece takes _FINE-node Gauss-Legendre
    and the _COARSE-node rule's difference is the error estimate; the two
    rules run one after the other, which keeps the arrays small.  Once 2d
    spans the hull the images no longer overlap, and each contributes
    2 integral u'^2 = 1 / (2 sigma^2); that also keeps d far beyond the hull,
    where grid + 2d would lose the grid's spacing, exact.  Each row of d is
    reduced on its own, so a d gives the same bits alone or inside an array.
    """
    value = np.full(ad.size, 1.0 / sigma**2)
    err = np.zeros(ad.size)
    overlapping = np.flatnonzero(2.0 * ad < tf.grid[-1] - tf.grid[0])
    rules = [_gl_nodes(_COARSE), _gl_nodes(_FINE)]
    blocks = tf._pieces.blocks(2.0 * ad[overlapping], rules, ["u", "du"], ["u", "du"])
    for block, at_nodes in blocks:
        rows = overlapping[block]
        coarse, fine = (
            (w * _information_density(*_density(here, there))).reshape(rows.size, -1).sum(axis=1)
            for w, here, there in at_nodes
        )
        value[rows] = fine
        err[rows] = np.abs(fine - coarse)
    return check_converged(
        value, err, DIRECT_REL_TOL, QUAD_ABS_TOL, "direct-imaging information"
    )


def fi_direct(tf: TransferFunction, d, n_s: float):
    """Exact direct-imaging information n_s * integral (dp/dd)^2 / p dx.

    Takes a scalar d or an array of d and returns values of d's shape; a d
    gives the same bits alone or inside an array.  The integrand is bounded
    by 2(u'(x-d)^2 + u'(x+d)^2) (Cauchy-Schwarz), so clipping the region where
    p underflows below P_FLOOR is harmless.
    """
    if n_s <= 0:
        raise ValidationError(f"n_s must be positive, got {n_s}")
    d = np.asarray(d, dtype=float)
    if not np.isfinite(d).all():
        raise ValidationError("separation d must be finite")
    sigma = sigma_of(tf)
    ad = np.abs(d).ravel()
    if tf.kind == TABULATED:
        value = _spline_information(tf, sigma, ad)
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
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if n_s <= 0:
        raise ValidationError(f"n_s must be positive, got {n_s}")
    return n_s / sigma**2


def qfi_numeric(tf: TransferFunction, n_s: float) -> float:
    """QFI from the defining integral 4 n_s * integral u'^2 dx.

    Exact per spline piece for a tabulated PSF, kind-adapted quadrature otherwise.
    """
    if n_s <= 0:
        raise ValidationError(f"n_s must be positive, got {n_s}")
    sigma_of(tf)  # refuses a tabulated PSF that is not normalized
    if tf.kind == TABULATED:
        value = tf._pieces.energy
    else:
        energy = lambda u, du: du[0] ** 2
        [value] = quad_over_psf(tf, energy, (0.0,), np.zeros(1), what="derivative energy")
    return 4.0 * n_s * value
