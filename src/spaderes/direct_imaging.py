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
tabulated spline is integrated piece by piece over [x_0 - d, x_n + d]
(:func:`_spline_information`), so no part of either image is cut off at
the grid hull: the ratio on the pairs of pieces where both images are
polynomials (:meth:`SplinePieces.pairs`, which decides the walk for the
grid), and exactly 2 u'^2 where one image lies alone, the spline's own
energy at the hull's ends (:meth:`SplinePieces.edge_energy`).  The quantum
limit over all measurements is qfi = n_s / sigma^2 = 4 n_s integral u'^2 dx.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .integrate import _gl_nodes, check_converged
from .psf import QUAD_ABS_TOL, TABULATED, TransferFunction, quad_over_psf

P_FLOOR = 1e-300  # below this the density is treated as exactly zero
DIRECT_REL_TOL = 1e-7
# Gauss-Legendre node counts on each piece: the larger rule gives the value,
# their difference its error estimate; the two packed as one rule, nodes and
# weights per unit width on [0, 1], and where each one's nodes start
_COARSE, _FINE = 4, 8
_NODES, _WEIGHTS = (np.concatenate(v) for v in zip(*map(_gl_nodes, (_COARSE, _FINE))))
_RULE = (0.5 * (1.0 + _NODES), 0.5 * _WEIGHTS)
_RULE_STARTS = np.array([0, _COARSE])
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

    With y = x + d the density is p = (u(y)^2 + u(y - 2d)^2) / 2.  Where a
    piece of u(y) meets a piece of u(y - 2d) (:meth:`SplinePieces.pairs`),
    p has degree 6 and dp/dd = u u'(y) - u u'(y - 2d) degree 5.  Their ratio
    is smooth wherever p > 0 but not a polynomial, so each pair takes
    _FINE-node Gauss-Legendre, and the _COARSE-node rule's difference, summed
    over the row, is the error estimate.  Where only one image lies,
    p = u^2 / 2 and dp/dd = +-u u', so the integrand is exactly 2 u'^2: over
    [x_0, x_0 + 2|d|] for u(y) and [x_n-1 - 2|d|, x_n-1] for u(y - 2d)
    (:meth:`SplinePieces.edge_energy`).  Once 2|d| spans the hull the images
    no longer overlap, and each contributes 2 integral u'^2 = 1 / (2 sigma^2);
    that also keeps d far beyond the hull, where grid + 2d would lose the
    grid's spacing, exact.  Each row of d is reduced on its own, so a d gives
    the same bits alone or inside an array.
    """
    pieces = tf._pieces
    value = np.full(ad.size, 1.0 / tf.sigma**2)
    err = np.zeros(ad.size)
    overlapping = np.flatnonzero(2.0 * ad < pieces.span)
    shift = 2.0 * ad[overlapping]
    # each row's sums under the coarse and the fine rule
    sums = np.zeros((shift.size, 2))
    for rows, w, here, there in pieces.pairs(shift, _RULE, _U_AND_DU, _U_AND_DU):
        by_node = np.einsum("...np,...np->...n", w, _information_density(*_density(here, there)))
        sums[rows] += np.add.reduceat(by_node, _RULE_STARTS, axis=-1)
    coarse, fine = sums.T
    value[overlapping] = fine + 2.0 * pieces.edge_energy(shift)
    err[overlapping] = np.abs(fine - coarse)
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
        [value] = quad_over_psf(tf, energy, np.zeros(1), what="derivative energy")
    return 4.0 * n_s * value
