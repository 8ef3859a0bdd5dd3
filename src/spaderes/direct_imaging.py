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
tabulated spline is integrated piece by piece by its own kernel
(:meth:`~spaderes.spline.SplinePieces.information`).  The quantum limit
over all measurements is qfi = n_s / sigma^2 = 4 n_s integral u'^2 dx.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .integrate import DIRECT_REL_TOL
from .psf import TABULATED, TransferFunction, quad_over_psf
from .spline import _density, _information_density


def fi_direct(tf: TransferFunction, d, n_s: float):
    """Exact direct-imaging information n_s * integral (dp/dd)^2 / p dx.

    Takes a scalar d or an array of d and returns values of d's shape; a d
    gives the same bits alone or inside an array.  The integrand is bounded
    by 2(u'(x-d)^2 + u'(x+d)^2) (Cauchy-Schwarz), so clipping the region where
    p underflows below :data:`~spaderes.spline.P_FLOOR` is harmless.
    """
    if not 0.0 < n_s < np.inf:
        raise ValidationError(f"n_s must be finite and positive, got {n_s}")
    d = np.asarray(d, dtype=float)
    if not np.isfinite(d).all():
        raise ValidationError("separation d must be finite")
    ad = np.abs(d).ravel()
    if tf.kind == TABULATED:
        value = tf._pieces.information(ad)
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
