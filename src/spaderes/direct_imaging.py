"""Ideal continuum intensity imaging, the baseline to beat, plus the QFI.

A photon from the scene lands at x with density
p(x) = (u(x-d)^2 + u(x+d)^2) / 2, and the per-window information is

    F = n_s * integral (dp/dd)^2 / p dx.

The small-d expansion F ~ 4 n_s d^2 * integral ((u'^2 / u) + u'')^2 dx is
meaningful only where u has no zeros, so it is restricted to the Gaussian
kind; the sinc PSF falls back to the exact integral.  The quantum limit over
all measurements is qfi = n_s / sigma^2 = 4 n_s integral u'^2 dx.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UnsupportedKindError, ValidationError
from .psf import GAUSSIAN, TransferFunction, eval_u, eval_u_prime, quad_over_psf

P_FLOOR = 1e-300  # below this the density is treated as exactly zero


def _image_density(tf: TransferFunction, x, d: float):
    """Detection density p(x) of the two-source scene and its d-derivative, (p, dp/dd)."""
    x = np.asarray(x)
    xm, xp = x - d, x + d
    um = eval_u(tf, xm, fill=0.0)
    up = eval_u(tf, xp, fill=0.0)
    dum = eval_u_prime(tf, xm, fill=0.0)
    dup = eval_u_prime(tf, xp, fill=0.0)
    return 0.5 * (um**2 + up**2), up * dup - um * dum


def fi_direct(tf: TransferFunction, d: float, n_s: float) -> float:
    """Exact direct-imaging information n_s * integral (dp/dd)^2 / p dx.

    The integrand is bounded by 2(u'(x-d)^2 + u'(x+d)^2) (Cauchy-Schwarz), so
    clipping the region where p underflows below P_FLOOR is harmless.
    """
    if n_s <= 0:
        raise ValidationError(f"n_s must be positive, got {n_s}")
    d = float(abs(d))
    if d == 0.0:
        return 0.0

    def integrand(x):
        p, dp = _image_density(tf, x, d)
        safe = p > P_FLOOR
        return np.where(safe, dp**2 / np.where(safe, p, 1.0), 0.0)

    value = quad_over_psf(
        tf, integrand, margin=d, rel_tol=1e-7, what="direct-imaging information"
    )
    return n_s * value


@lru_cache(maxsize=64)
def _small_d_prefactor(tf: TransferFunction) -> float:
    # integral of ((u'^2 / u) + u'')^2 dx for the Gaussian kind; equals
    # 1 / (2 sigma^4) analytically, but is evaluated numerically on purpose.
    s2 = tf.sigma**2

    def integrand(x):
        u = eval_u(tf, x)
        upp = (x**2 / (4.0 * s2**2) - 1.0 / (2.0 * s2)) * u
        up2_over_u = (x**2 / (4.0 * s2**2)) * u
        return (up2_over_u + upp) ** 2

    return quad_over_psf(tf, integrand, what="small-d imaging prefactor")


def fi_direct_small_d(tf: TransferFunction, d: float, n_s: float) -> float:
    """Small-separation law 4 n_s d^2 * integral ((u'^2 / u) + u'')^2 dx.

    Gaussian kind only: PSFs with zeros make the prefactor integral improper.
    """
    if tf.kind != GAUSSIAN:
        raise UnsupportedKindError(
            f"small-d imaging expansion needs a zero-free PSF, got kind {tf.kind!r}"
        )
    return 4.0 * n_s * d**2 * _small_d_prefactor(tf)


def qfi(n_s: float, sigma: float) -> float:
    """Quantum Fisher information n_s / sigma^2, the ceiling for any measurement."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if n_s <= 0:
        raise ValidationError(f"n_s must be positive, got {n_s}")
    return n_s / sigma**2


def qfi_numeric(tf: TransferFunction, n_s: float) -> float:
    """QFI from the defining integral 4 n_s * integral u'^2 dx."""
    value = quad_over_psf(
        tf, lambda x: eval_u_prime(tf, x) ** 2, what="derivative energy"
    )
    return 4.0 * n_s * value
