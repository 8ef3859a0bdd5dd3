"""Homodyne and heterodyne readout of the derivative-mode channel.

The v1 channel carries a thermal state of mean photon number n_s tau1(d), so
any measured quadrature is a zero-mean Gaussian whose variance carries all
the separation information.  Homodyne reads one quadrature, heterodyne two;
a readout of q quadratures sends the share 1/q of the signal to each.  In
units where vacuum (shot) noise has variance 1/2, each measured quadrature
has variance

    V(d) = 1/2 + n_s tau1(d) / q        (q = 1 homodyne, q = 2 heterodyne)

Fisher information of a zero-mean Gaussian of variance V is (dV/dd)^2 / 2V^2
per variate, and the q quadratures add.  The information functions take a
scene whose d is one separation or an array of them, and return values of
d's shape.  Both readouts peak at n_s / 4 sigma^2,
a quarter of the counting ceiling.  The shot-noise SNR, the signal share
n_s / q over the vacuum variance, is 2 n_s for homodyne and n_s for
heterodyne.

A trial of M frames pools the squares of n = q M outcomes; their mean has the
law V chi2_n / n (V chi2_M / M homodyne, V chi2_2M / 2M heterodyne).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ValidationError
from .overlap import tau1_exact
from .psf import sigma_of

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"

# quadratures read out by each kind; each carries the share 1 / q of the signal
QUADRATURES = {HOMODYNE: 1, HETERODYNE: 2}

VACUUM_VARIANCE = 0.5


def signal_share(kind: str) -> float:
    """The share 1 / q of the signal that each quadrature of the readout carries."""
    if kind not in QUADRATURES:
        raise ValidationError(f"kind must be one of {tuple(QUADRATURES)}, got {kind!r}")
    return 1.0 / QUADRATURES[kind]


def fi_gaussian_1d(v, dv):
    """Fisher information of a zero-mean Gaussian variate, (dV)^2 / 2V^2.

    Elementwise over arrays; squares by pow(), as in overlap.py.
    """
    if np.any(v <= 0):
        raise DomainError(f"variance must be positive, got {np.min(v)}")
    return np.float_power(dv, 2) / (2.0 * np.float_power(v, 2))


def _fi(scene, kind: str):
    share = signal_share(kind)
    tr = tau1_exact(scene.tf, scene.d)
    v = VACUUM_VARIANCE + share * scene.n_s * tr.tau1
    dv = share * scene.n_s * tr.dtau1_dd
    return QUADRATURES[kind] * fi_gaussian_1d(v, dv)


def _fi_small_d(scene, kind: str):
    # the information above with tau1 at its small-d law d^2 / 4 sigma^2:
    # 2 q n_s^2 d^2 / (n_s d^2 + 2 q sigma^2)^2 for q quadratures
    k = 2.0 / signal_share(kind)
    sigma = sigma_of(scene.tf)
    n_s = scene.n_s
    d2 = np.float_power(scene.d, 2)
    return k * n_s**2 * d2 / np.float_power(n_s * d2 + k * sigma**2, 2)


def fi_homodyne(scene):
    """Homodyne information 2 n_s^2 (dtau1/dd)^2 / (1 + 2 n_s tau1)^2."""
    return _fi(scene, HOMODYNE)


def fi_heterodyne(scene):
    """Heterodyne information n_s^2 (dtau1/dd)^2 / (1 + n_s tau1)^2.

    Half the signal reaches each quadrature, but both are read out.
    """
    return _fi(scene, HETERODYNE)


def fi_homodyne_small_d(scene):
    """Small-separation homodyne law 2 n_s^2 d^2 / (n_s d^2 + 2 sigma^2)^2.

    Maximum n_s / 4 sigma^2 at d = sigma sqrt(2 / n_s).
    """
    return _fi_small_d(scene, HOMODYNE)


def fi_heterodyne_small_d(scene):
    """Small-separation heterodyne law 4 n_s^2 d^2 / (n_s d^2 + 4 sigma^2)^2.

    Maximum n_s / 4 sigma^2 at d = 2 sigma / sqrt(n_s).
    """
    return _fi_small_d(scene, HETERODYNE)


def shot_noise_snr(kind: str, n_s: float) -> float:
    """Signal-to-shot-noise ratio: 2 n_s for homodyne, n_s for heterodyne.

    Homodyne concentrates the full signal variance n_s tau1 against a noise
    floor of 1/2; heterodyne splits the signal over two quadratures whose
    combined floor is 1.
    """
    return signal_share(kind) * n_s / VACUUM_VARIANCE


def sample_quadrature(scene, kind: str, frames: int, trials: int, rng) -> np.ndarray:
    """Per-trial mean square V(d) chi2_n / n of the n = q M quadrature outcomes, shape (trials,).

    All trials draw it in one call from rng, a numpy Generator.
    """
    share = signal_share(kind)
    if frames < 1:
        raise ValidationError(f"frames must be at least 1, got {frames}")
    n = QUADRATURES[kind] * frames
    v = VACUUM_VARIANCE + share * scene.n_s * tau1_exact(scene.tf, scene.d).tau1
    return v * rng.chisquare(n, size=trials) / n
