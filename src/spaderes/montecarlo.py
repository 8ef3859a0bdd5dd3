"""Cramér-Rao benchmarking by simulated experiments.

A trial aggregates M independent observation windows (frames): photocounts
are summed, quadrature outcomes pooled.  The separation estimate inverts the
measured first or second moment through the exact tau1 curve on its rising
branch [0, d_peak]; for these one-parameter families that inversion is the
maximum-likelihood estimate.  Estimates clipped to the branch ends (no excess
signal, or signal above the branch maximum) stay in the sample and are
reported through clip_fraction rather than discarded.

Each trial draws from its own SeedSequence-spawned stream, so results are
reproducible and independent of execution order.

MEASUREMENTS is the one table of what differs between the readouts (photon
counting, homodyne, heterodyne): information curves, ceiling, closed-form
d_half, SNR convention, sampler and estimator.  The CLI reads it too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .counting import (
    BOSE_EINSTEIN,
    NO_NOISE,
    NoiseModel,
    SourceScene,
    family_of,
    fi_counting_exact,
    fi_counting_small_d,
    mean_count,
)
from .errors import BudgetError, ValidationError
from .overlap import tau1_exact
from .psf import TransferFunction, sigma_of
from .quadrature import (
    HETERODYNE,
    HOMODYNE,
    VACUUM_VARIANCE,
    fi_heterodyne,
    fi_heterodyne_small_d,
    fi_homodyne,
    fi_homodyne_small_d,
    sample_quadrature,
    shot_noise_snr,
)
from .resolution import COUNTING, d_half_counting, d_half_quadrature

DEFAULT_BUDGET = 50_000_000  # frames x trials


@dataclass(frozen=True, eq=False)
class Experiment:
    """A reproducible Monte Carlo run: N trials of M frames each."""

    scene: SourceScene
    noise: NoiseModel = NO_NOISE
    measurement: str = COUNTING
    frames: int = 100
    trials: int = 1000
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.measurement not in MEASUREMENTS:
            raise ValidationError(
                f"measurement must be one of {tuple(MEASUREMENTS)}, got {self.measurement!r}"
            )
        if self.frames < 1 or self.trials < 1:
            raise ValidationError("frames and trials must both be at least 1")

    def check_budget(self) -> None:
        need = self.frames * self.trials
        if need > self.budget:
            raise BudgetError(
                f"{self.trials} trials x {self.frames} frames = {need} samples "
                f"exceed the budget of {self.budget}; raise budget= to at least {need}"
            )


@dataclass(frozen=True)
class TrialReport:
    """Estimator statistics of one experiment against the Cramér-Rao bound.

    crb = 1 / (M * F) with F the exact per-frame information; None with
    crb_unbounded=True when F = 0 (e.g. d_true = 0 under background).
    """

    d_true: float
    estimates: tuple[float, ...]
    empirical_variance: float
    empirical_mse: float
    crb: float | None
    crb_unbounded: bool
    clip_fraction: float

    def to_json(self, include_estimates: bool = True) -> str:
        fields = {
            "d_true": self.d_true,
            "estimates": list(self.estimates) if include_estimates else None,
            "empirical_variance": self.empirical_variance,
            "empirical_mse": self.empirical_mse,
            "crb": self.crb,
            "crb_unbounded": self.crb_unbounded,
            "clip_fraction": self.clip_fraction,
        }
        if not include_estimates:
            del fields["estimates"]
        return json.dumps(fields)


def _trial_streams(seed: int, trials: int):
    return np.random.SeedSequence(seed).spawn(trials)


@lru_cache(maxsize=64)
def _tau_branch(tf: TransferFunction) -> tuple[float, float]:
    # rising branch of tau1: (d_peak, tau1(d_peak)); Gaussian peaks at exactly
    # 2 sigma with value 1/e, found numerically for the other kinds
    sigma = sigma_of(tf)
    res = minimize_scalar(
        lambda d: -tau1_exact(tf, d).tau1,
        bounds=(0.5 * sigma, 4.0 * sigma),
        method="bounded",
        options={"xatol": 1e-12 * sigma},
    )
    d_peak = float(res.x)
    return d_peak, tau1_exact(tf, d_peak).tau1


def _invert_tau1(tf: TransferFunction, tau_target: float) -> float:
    """Separation whose tau1 matches tau_target on the rising branch.

    Values at or below 0 clip to 0; values at or above the branch maximum
    clip to d_peak.
    """
    if tau_target <= 0.0:
        return 0.0
    d_peak, tau_peak = _tau_branch(tf)
    if tau_target >= tau_peak:
        return d_peak
    return float(
        brentq(
            lambda d: tau1_exact(tf, d).tau1 - tau_target,
            0.0,
            d_peak,
            xtol=1e-13 * d_peak,
            rtol=1e-12,
        )
    )


def simulate_counts(exp: Experiment) -> np.ndarray:
    """Per-trial total photocounts, shape (trials,)."""
    exp.check_budget()
    kbar = mean_count(exp.scene, exp.noise)
    family = family_of(exp.scene.statistics)
    totals = np.empty(exp.trials, dtype=np.int64)
    for i, stream in enumerate(_trial_streams(exp.seed, exp.trials)):
        rng = np.random.default_rng(stream)
        if family == BOSE_EINSTEIN:
            counts = rng.geometric(1.0 / (kbar + 1.0), size=exp.frames) - 1
        else:
            counts = rng.poisson(kbar, size=exp.frames)
        totals[i] = counts.sum()
    return totals


def ml_estimate_counting(
    total_count: float, frames: int, scene: SourceScene, noise: NoiseModel = NO_NOISE
) -> float:
    """Invert the mean count n_s (tau1 + beta) = total/M on the rising branch."""
    if frames < 1:
        raise ValidationError(f"frames must be at least 1, got {frames}")
    tau_target = total_count / (frames * scene.n_s) - noise.beta(scene.n_s)
    return _invert_tau1(scene.tf, tau_target)


def ml_estimate_quadrature(samples, scene: SourceScene) -> float:
    """Variance-matching estimate from pooled quadrature outcomes.

    One-column samples are homodyne, two-column samples heterodyne pairs.
    The empirical variance is inverted through V(d) on the rising branch,
    clipping to 0 at the shot-noise floor.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        quadratures = 1
    elif arr.ndim == 2 and arr.shape[1] == 2:
        quadratures = 2
    else:
        raise ValidationError(
            f"samples must be 1-d or (n, 2) pairs, got shape {arr.shape}"
        )
    if arr.shape[0] < 2:
        raise ValidationError("need at least 2 samples to estimate a variance")
    v_hat = float(np.mean(arr**2))  # pooled over the quadratures
    tau_target = (v_hat - VACUUM_VARIANCE) / (scene.n_s / quadratures)
    return _invert_tau1(scene.tf, tau_target)


def _quadrature_trials(exp: Experiment):
    for stream in _trial_streams(exp.seed, exp.trials):
        yield sample_quadrature(exp.scene, exp.measurement, exp.frames, stream)


def _quadrature_estimate(samples, exp: Experiment) -> float:
    return ml_estimate_quadrature(samples, exp.scene)


@dataclass(frozen=True)
class Measurement:
    """What sets one readout of the derivative-mode channel apart.

    The callables reach the kernels through their module-level names at call
    time, so patching a module attribute (as a tracer does) reaches them too.
    """

    # exact information per frame and its small-separation law, shaped like scene.d
    fi: Callable[[SourceScene, NoiseModel], float | np.ndarray]
    fi_small_d: Callable[[SourceScene, NoiseModel], float | np.ndarray]
    ceiling: float  # largest information, as a fraction of the QFI n_s / sigma^2
    d_half: Callable[[float, float], float]  # closed form d_half(sigma, snr)
    # SNR in the readout's own convention given n_s alone; None when it is the
    # source-to-background ratio n_s / n_b and has to be given
    shot_noise_snr: Callable[[float], float] | None
    sample: Callable[[Experiment], Iterable]  # the data of each trial, in order
    estimate: Callable[[object, Experiment], float]  # separation from one trial's data


MEASUREMENTS = {
    COUNTING: Measurement(
        fi=lambda scene, noise: fi_counting_exact(scene, noise),
        fi_small_d=lambda scene, noise: fi_counting_small_d(scene, noise),
        ceiling=1.0,
        d_half=lambda sigma, snr: d_half_counting(sigma, snr),
        shot_noise_snr=None,
        sample=lambda exp: simulate_counts(exp),
        estimate=lambda total, exp: ml_estimate_counting(total, exp.frames, exp.scene, exp.noise),
    ),
    HOMODYNE: Measurement(
        fi=lambda scene, noise: fi_homodyne(scene),
        fi_small_d=lambda scene, noise: fi_homodyne_small_d(scene),
        ceiling=0.25,
        d_half=lambda sigma, snr: d_half_quadrature(sigma, snr),
        shot_noise_snr=lambda n_s: shot_noise_snr(HOMODYNE, n_s),
        sample=_quadrature_trials,
        estimate=_quadrature_estimate,
    ),
    HETERODYNE: Measurement(
        fi=lambda scene, noise: fi_heterodyne(scene),
        fi_small_d=lambda scene, noise: fi_heterodyne_small_d(scene),
        ceiling=0.25,
        d_half=lambda sigma, snr: d_half_quadrature(sigma, snr),
        shot_noise_snr=lambda n_s: shot_noise_snr(HETERODYNE, n_s),
        sample=_quadrature_trials,
        estimate=_quadrature_estimate,
    ),
}


def run_crb_experiment(exp: Experiment) -> TrialReport:
    """Run all trials, estimate d in each, and compare against 1 / (M F)."""
    exp.check_budget()
    m = MEASUREMENTS[exp.measurement]
    scene = exp.scene
    d_true = scene.d
    estimates = np.array([m.estimate(data, exp) for data in m.sample(exp)], dtype=float)
    fisher = m.fi(scene, exp.noise)

    d_peak, _ = _tau_branch(scene.tf)
    clipped = np.count_nonzero((estimates == 0.0) | (estimates == d_peak))
    unbounded = fisher <= 0.0
    return TrialReport(
        d_true=float(d_true),
        estimates=tuple(float(e) for e in estimates),
        empirical_variance=float(np.var(estimates, ddof=1)) if exp.trials > 1 else 0.0,
        empirical_mse=float(np.mean((estimates - d_true) ** 2)),
        crb=None if unbounded else float(1.0 / (exp.frames * fisher)),
        crb_unbounded=bool(unbounded),
        clip_fraction=float(clipped / exp.trials),
    )
