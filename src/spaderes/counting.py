"""Photocounting of the derivative-mode channel with dark counts.

The mean count per observation window is kbar = n_s tau1(d) + n_b.  Counts
are Poissonian for Poisson sources plus Poisson dark counts; for thermal
sources the channel is treated as a single thermal mode of total mean kbar,
so counts follow the Bose-Einstein (geometric) distribution.

Fisher information about the separation:

    Poisson:  F = n_s (dtau1/dd)^2 / (tau1 + beta),        beta = n_b / n_s
    thermal:  the same divided by (1 + n_s tau1 + n_b)

At beta = 0 the ratio is evaluated in the factored form 4 n_s c'^2 (with
tau1 = c^2), which is finite everywhere and yields n_s / sigma^2 at d = 0.
With beta > 0 the information vanishes quadratically as d -> 0.  The scene's
d may be one separation or an array of them; the closed forms then return
one value per separation.

`fi_from_pmf` is a deliberately independent check: it sums the defining
series F = sum_k (1/p_k)(dp_k/dd)^2 with a finite-difference mean derivative
and no reference to the closed forms above.  Its Poisson PMF takes log k!
from :func:`_log_factorial`, cephes' ``lgam`` (the routine behind scipy's
``gammaln``) ported to Python floats, so the package runs on numpy alone
and log k! keeps gammaln's bits.  The oracle reads it from a kept table
over k = 0, 1, ...; :func:`logpmf` evaluates each distinct count once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TruncationWarning, ValidationError
from .overlap import tau1_exact
from .psf import TransferFunction

POISSON = "poisson"
THERMAL = "thermal"
STATISTICS = (POISSON, THERMAL)


def _check_statistics(statistics: str) -> None:
    if statistics not in STATISTICS:
        raise ValidationError(f"statistics must be one of {STATISTICS}, got {statistics!r}")


@dataclass(frozen=True, eq=False)
class SourceScene:
    """Two equal-brightness incoherent sources at +/- d behind a known PSF.

    d is one separation or an array of separations sharing the other fields.
    n_s is the mean number of source photons reaching the detector per
    observation window (both sources combined).
    """

    tf: TransferFunction
    d: float | np.ndarray
    n_s: float
    statistics: str = POISSON

    def __post_init__(self):
        d = np.asarray(self.d)
        if not (d.min(initial=0.0) >= 0 and d.max(initial=0.0) < np.inf):
            raise ValidationError(f"separation must be finite and nonnegative, got {self.d}")
        if not 0.0 < self.n_s < np.inf:
            raise ValidationError(f"n_s must be finite and positive, got {self.n_s}")
        _check_statistics(self.statistics)


@dataclass(frozen=True)
class NoiseModel:
    """Background/dark counts with mean n_b per observation window."""

    n_b: float = 0.0

    def __post_init__(self):
        if self.n_b < 0 or not np.isfinite(self.n_b):
            raise ValidationError(f"n_b must be finite and nonnegative, got {self.n_b}")

    @classmethod
    def from_snr(cls, snr: float, n_s: float) -> "NoiseModel":
        """Noise with n_b = n_s / snr; snr = inf gives the noiseless model."""
        if not snr > 0:
            raise ValidationError(f"snr must be positive, got {snr}")
        return cls(n_b=0.0 if np.isinf(snr) else n_s / snr)

    def beta(self, n_s: float) -> float:
        """Background fraction beta = n_b / n_s = 1 / SNR."""
        return self.n_b / n_s

    def snr(self, n_s: float) -> float:
        return np.inf if self.n_b == 0 else n_s / self.n_b


NO_NOISE = NoiseModel(0.0)


def _check_law(kbar: float, statistics: str) -> None:
    if kbar < 0:
        raise ValidationError(f"mean count must be nonnegative, got {kbar}")
    _check_statistics(statistics)


def mean_count(scene: SourceScene, noise: NoiseModel = NO_NOISE):
    """kbar = n_s tau1(d) + n_b, with the shape of the scene's d."""
    return scene.n_s * tau1_exact(scene.tf, scene.d).tau1 + noise.n_b


def logpmf(kbar: float, statistics: str, k):
    """log P(K = k) for mean count kbar: Poisson, or Bose-Einstein for thermal sources.

    Evaluated in log-space so large means do not overflow.
    """
    _check_law(kbar, statistics)
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 0) or np.any(karr != np.floor(karr)):
        raise ValidationError("counts must be nonnegative integers")
    if kbar == 0.0:
        return np.where(karr == 0, 0.0, -np.inf)[()]
    return _logpmf(kbar, statistics, karr)[()]


# cephes lgam's Stirling-series coefficients, log sqrt(2 pi), and the x past
# which log Gamma(x) overflows
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305


def _log_factorial(k: float) -> float:
    """log k! of a count k: cephes ``lgam`` at x = k + 1, statement for
    statement on Python floats with libm's log, so gammaln(k + 1.0)'s bits.

    Below 13, the log of the exact factorial; below 1000, Stirling's series
    with cephes' five coefficients; up to 1e8, its three-term form; past
    1e8, the bare Stirling term; past MAXLGM, inf.
    """
    x = k + 1.0
    if x < 13.0:
        return math.log(math.factorial(int(k)))
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


# log k! for k = 0, 1, ..., read-only, doubled when a sum needs more
_log_factorial_table = np.zeros(0)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0, ..., n - 1, a read-only view of the kept table."""
    global _log_factorial_table
    table = _log_factorial_table
    if table.size < n:
        more = range(table.size, max(n, 2 * table.size))
        table = np.concatenate([table, [_log_factorial(float(k)) for k in more]])
        table.flags.writeable = False
        _log_factorial_table = table
    return table[:n]


def _logpmf(kbar: float, statistics: str, k: np.ndarray, log_k_factorial=None) -> np.ndarray:
    """:func:`logpmf` at the float counts k for a known law and kbar > 0,
    unchecked.  The Poisson law takes log k! from ``log_k_factorial`` when
    given, else evaluates it once for each distinct count."""
    if statistics == POISSON:
        if log_k_factorial is None:
            distinct, inverse = np.unique(k.ravel(), return_inverse=True)
            values = np.array([_log_factorial(v) for v in distinct.tolist()])
            log_k_factorial = values[inverse].reshape(k.shape)
        return k * np.log(kbar) - kbar - log_k_factorial
    return k * (np.log(kbar) - np.log1p(kbar)) - np.log1p(kbar)


def pmf(kbar: float, statistics: str, k):
    """P(K = k) for mean count kbar under the source statistics."""
    return np.exp(logpmf(kbar, statistics, k))


def truncation_limit(kbar: float, statistics: str) -> int:
    """Count cutoff leaving relative tail mass far below 1e-12.

    A sub-Gaussian cutoff suffices for Poisson; the geometric tail of the
    Bose-Einstein law of thermal sources needs ~40 mean-count e-foldings.
    """
    _check_law(kbar, statistics)
    if statistics == POISSON:
        return math.ceil(kbar + 12.0 * math.sqrt(kbar + 1.0) + 30.0)
    return math.ceil(40.0 * (kbar + 1.0) + 30.0)


def fi_counting_exact(scene: SourceScene, noise: NoiseModel = NO_NOISE):
    """Exact Fisher information of the counting measurement, per length^2."""
    tr = tau1_exact(scene.tf, scene.d)
    n_s = scene.n_s
    beta = noise.beta(n_s)
    # squares by pow(), as in overlap.py
    if beta == 0.0:
        # (dtau1/dd)^2 / tau1 == 4 c'^2; finite at d = 0 where it equals
        # 1 / sigma^2, reproducing the noiseless limit for both statistics.
        fisher = 4.0 * n_s * np.float_power(tr.c_prime, 2)
    else:
        fisher = n_s * np.float_power(tr.dtau1_dd, 2) / (tr.tau1 + beta)
    if scene.statistics == THERMAL:
        fisher /= 1.0 + n_s * tr.tau1 + noise.n_b
    return fisher


def fi_counting_small_d(scene: SourceScene, noise: NoiseModel = NO_NOISE):
    """Small-separation law of the counting information, shaped like d.

    Poisson: (n_s / sigma^2) d^2 / (d^2 + 4 sigma^2 beta), which is n_s / sigma^2
    at d = 0 when beta = 0; thermal carries the extra factor
    1 / (1 + n_s d^2 / 4 sigma^2 + n_b).
    """
    sigma = scene.tf.sigma
    n_s = scene.n_s
    beta = noise.beta(n_s)
    d2 = np.float_power(scene.d, 2)  # pow(), as in overlap.py
    with np.errstate(invalid="ignore"):  # 0/0 at d = 0 when beta = 0, replaced below
        fisher = (n_s / sigma**2) * d2 / (d2 + 4.0 * sigma**2 * beta)
    if beta == 0.0:
        fisher = np.where(d2 == 0.0, n_s / sigma**2, fisher)[()]
    if scene.statistics == THERMAL:
        fisher /= 1.0 + n_s * d2 / (4.0 * sigma**2) + noise.n_b
    return fisher


def fi_from_pmf(statistics: str, kbar_fn: Callable[[np.ndarray], np.ndarray], d: float) -> float:
    """Brute-force Fisher information, summing (1/p_k)(dp_k/dd)^2 directly.

    Independent of the closed forms: the only structure used is the PMF
    itself and the chain rule through the mean, dp/dd = (dp/dkbar) kbar'(d).
    ``kbar_fn`` maps an array of separations to their means, or to one mean;
    d is one separation, and an array of them is refused.
    """
    if np.ndim(d) != 0:
        raise ValidationError(f"the PMF oracle takes one separation, got d of shape {np.shape(d)}")
    # d and its 4th-order central-difference stencil; tau1 is smooth and even, so d < 0 is fine
    h = 1e-3 * max(abs(d), 1.0)
    stencil = np.array([d, d + 2.0 * h, d + h, d - h, d - 2.0 * h])
    # the means as Python floats, whose arithmetic rounds as numpy's does
    means = np.full(stencil.shape, kbar_fn(stencil), dtype=float)
    kbar, far_up, up, down, far_down = means.tolist()
    _check_law(kbar, statistics)
    kprime = (-far_up + 8.0 * up - 8.0 * down + far_down) / (12.0 * h)
    if kbar == 0.0:
        return 0.0
    n = truncation_limit(kbar, statistics) + 1
    k = np.arange(n, dtype=float)
    # k counts by construction: pmf's checks skipped
    p = np.exp(_logpmf(kbar, statistics, k, _log_factorials(n) if statistics == POISSON else None))
    if statistics == POISSON:
        score = k / kbar - 1.0
    else:
        score = k / kbar - (k + 1.0) / (kbar + 1.0)
    terms = p * score**2
    fisher_mean = float(terms.sum())
    if terms[-1] > 1e-13 * max(fisher_mean, 1e-300):
        warnings.warn(
            f"count truncation at k={k[-1]:.0f} may be insufficient for kbar={kbar:.3g}",
            TruncationWarning,
        )
    return np.float64(fisher_mean * kprime**2)


def fi_counting_oracle(scene: SourceScene, noise: NoiseModel = NO_NOISE) -> float:
    """fi_from_pmf wired to the scene's mean-count function."""
    kbar_fn = lambda d: scene.n_s * tau1_exact(scene.tf, d).tau1 + noise.n_b
    return fi_from_pmf(scene.statistics, kbar_fn, scene.d)
