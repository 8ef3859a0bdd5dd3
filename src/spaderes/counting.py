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
With beta > 0 the information vanishes quadratically as d -> 0.

`fi_from_pmf` is a deliberately independent check: it sums the defining
series F = sum_k (1/p_k)(dp_k/dd)^2 with a finite-difference mean derivative
and no reference to the closed forms above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .errors import TruncationWarning, ValidationError
from .overlap import tau1_exact
from .psf import TransferFunction, sigma_of

POISSON = "poisson"
THERMAL = "thermal"
STATISTICS = (POISSON, THERMAL)

BOSE_EINSTEIN = "bose_einstein"
FAMILIES = (POISSON, BOSE_EINSTEIN)


@dataclass(frozen=True, eq=False)
class SourceScene:
    """Two equal-brightness incoherent sources at +/- d behind a known PSF.

    n_s is the mean number of source photons reaching the detector per
    observation window (both sources combined).
    """

    tf: TransferFunction
    d: float
    n_s: float
    statistics: str = POISSON

    def __post_init__(self):
        if self.d < 0:
            raise ValidationError(f"separation must be nonnegative, got {self.d}")
        if self.n_s <= 0:
            raise ValidationError(f"n_s must be positive, got {self.n_s}")
        if self.statistics not in STATISTICS:
            raise ValidationError(
                f"statistics must be one of {STATISTICS}, got {self.statistics!r}"
            )

    @property
    def sigma(self) -> float:
        return sigma_of(self.tf)

    def with_d(self, d: float) -> "SourceScene":
        return SourceScene(tf=self.tf, d=d, n_s=self.n_s, statistics=self.statistics)


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
        if snr <= 0:
            raise ValidationError(f"snr must be positive, got {snr}")
        return cls(n_b=0.0 if np.isinf(snr) else n_s / snr)

    def beta(self, n_s: float) -> float:
        """Background fraction beta = n_b / n_s = 1 / SNR."""
        return self.n_b / n_s

    def snr(self, n_s: float) -> float:
        return np.inf if self.n_b == 0 else n_s / self.n_b


NO_NOISE = NoiseModel(0.0)


@dataclass(frozen=True)
class CountDistribution:
    """Photocount law of a single channel with mean ``kbar``."""

    kbar: float
    family: str = POISSON

    def __post_init__(self):
        if self.kbar < 0:
            raise ValidationError(f"mean count must be nonnegative, got {self.kbar}")
        if self.family not in FAMILIES:
            raise ValidationError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )


def family_of(statistics: str) -> str:
    """Count family induced by the source statistics."""
    if statistics == POISSON:
        return POISSON
    if statistics == THERMAL:
        return BOSE_EINSTEIN
    raise ValidationError(f"unknown statistics {statistics!r}")


def mean_count(scene: SourceScene, noise: NoiseModel = NO_NOISE) -> float:
    """kbar = n_s tau1(d) + n_b."""
    return scene.n_s * tau1_exact(scene.tf, scene.d).tau1 + noise.n_b


def count_distribution(scene: SourceScene, noise: NoiseModel = NO_NOISE) -> CountDistribution:
    return CountDistribution(kbar=mean_count(scene, noise), family=family_of(scene.statistics))


def logpmf(dist: CountDistribution, k):
    """log P(K = k), evaluated in log-space so large means do not overflow."""
    karr = np.asarray(k)
    scalar = karr.ndim == 0
    karr = np.atleast_1d(karr).astype(float)
    if np.any(karr < 0) or np.any(karr != np.floor(karr)):
        raise ValidationError("counts must be nonnegative integers")
    kbar = dist.kbar
    with np.errstate(divide="ignore", invalid="ignore"):
        if dist.family == POISSON:
            if kbar == 0.0:
                out = np.where(karr == 0, 0.0, -np.inf)
            else:
                out = karr * np.log(kbar) - kbar - gammaln(karr + 1.0)
        else:
            if kbar == 0.0:
                out = np.where(karr == 0, 0.0, -np.inf)
            else:
                out = karr * (np.log(kbar) - np.log1p(kbar)) - np.log1p(kbar)
    return float(out[0]) if scalar else out


def pmf(dist: CountDistribution, k):
    """P(K = k); Poisson or Bose-Einstein according to the family."""
    out = np.exp(logpmf(dist, k))
    return out


def truncation_limit(dist: CountDistribution) -> int:
    """Count cutoff leaving relative tail mass far below 1e-12.

    A sub-Gaussian cutoff suffices for Poisson; the geometric tail of the
    Bose-Einstein family needs ~40 mean-count e-foldings.
    """
    kbar = dist.kbar
    if dist.family == POISSON:
        return int(np.ceil(kbar + 12.0 * np.sqrt(kbar + 1.0) + 30.0))
    return int(np.ceil(40.0 * (kbar + 1.0) + 30.0))


def fi_counting_exact(scene: SourceScene, noise: NoiseModel = NO_NOISE) -> float:
    """Exact Fisher information of the counting measurement, per length^2."""
    tr = tau1_exact(scene.tf, scene.d)
    n_s = scene.n_s
    beta = noise.beta(n_s)
    if beta == 0.0:
        # (dtau1/dd)^2 / tau1 == 4 c'^2; finite at d = 0 where it equals
        # 1 / sigma^2, reproducing the noiseless limit for both statistics.
        fisher = 4.0 * n_s * tr.c_prime**2
    else:
        fisher = n_s * tr.dtau1_dd**2 / (tr.tau1 + beta)
    if scene.statistics == THERMAL:
        fisher /= 1.0 + n_s * tr.tau1 + noise.n_b
    return float(fisher)


def fi_counting_small_d(scene: SourceScene, noise: NoiseModel = NO_NOISE) -> float:
    """Small-separation law of the counting information.

    Poisson: (n_s / sigma^2) d^2 / (d^2 + 4 sigma^2 beta); thermal carries the
    extra factor 1 / (1 + n_s d^2 / 4 sigma^2 + n_b).
    """
    sigma = scene.sigma
    n_s = scene.n_s
    beta = noise.beta(n_s)
    d2 = scene.d**2
    if d2 == 0.0 and beta == 0.0:
        fisher = n_s / sigma**2
    else:
        fisher = (n_s / sigma**2) * d2 / (d2 + 4.0 * sigma**2 * beta)
    if scene.statistics == THERMAL:
        fisher /= 1.0 + n_s * d2 / (4.0 * sigma**2) + noise.n_b
    return float(fisher)


def _kbar_derivative(kbar_fn: Callable[[float], float], d: float) -> float:
    # 4th-order central differences; tau1 is smooth and even, so negative
    # arguments are fine.
    h = 1e-3 * max(abs(d), 1.0)
    num = (
        -kbar_fn(d + 2.0 * h)
        + 8.0 * kbar_fn(d + h)
        - 8.0 * kbar_fn(d - h)
        + kbar_fn(d - 2.0 * h)
    )
    return num / (12.0 * h)


def fi_from_pmf(
    family: str, kbar_fn: Callable[[float], float], d: float
) -> float:
    """Brute-force Fisher information, summing (1/p_k)(dp_k/dd)^2 directly.

    Independent of the closed forms: the only structure used is the PMF
    itself and the chain rule through the mean, dp/dd = (dp/dkbar) kbar'(d).
    """
    if family not in FAMILIES:
        raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
    kbar = float(kbar_fn(d))
    if kbar < 0:
        raise ValidationError(f"kbar_fn produced a negative mean {kbar}")
    kprime = _kbar_derivative(kbar_fn, d)
    if kbar == 0.0:
        return 0.0
    dist = CountDistribution(kbar=kbar, family=family)
    k = np.arange(truncation_limit(dist) + 1, dtype=float)
    p = pmf(dist, k)
    if family == POISSON:
        score = k / kbar - 1.0
    else:
        score = k / kbar - (k + 1.0) / (kbar + 1.0)
    terms = p * score**2
    fisher_mean = float(np.sum(terms))
    if terms[-1] > 1e-13 * max(fisher_mean, 1e-300):
        warnings.warn(
            f"count truncation at k={k[-1]:.0f} may be insufficient for kbar={kbar:.3g}",
            TruncationWarning,
        )
    return fisher_mean * kprime**2


def fi_counting_oracle(scene: SourceScene, noise: NoiseModel = NO_NOISE) -> float:
    """fi_from_pmf wired to the scene's mean-count function."""
    n_s = scene.n_s
    tf = scene.tf

    def kbar_fn(d: float) -> float:
        return n_s * tau1_exact(tf, d).tau1 + noise.n_b

    return fi_from_pmf(family_of(scene.statistics), kbar_fn, scene.d)
