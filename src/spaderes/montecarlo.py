"""Cramér-Rao benchmarking by simulated experiments.

A trial aggregates M independent observation windows (frames) and is reduced
to one statistic: the photocount total, Poisson(M kbar) for kbar counts per
frame or, under thermal statistics, negative-binomial(M, 1/(kbar+1)), drawn as
a Poisson of a gamma(M, kbar) mean; or the mean square of the quadrature
outcomes, whose law is in spaderes.quadrature.  All trials draw it in one call
from the experiment's one seeded Generator, so the cost grows with trials, not
frames.  The separation estimate inverts that measured first or second moment
through the exact tau1 curve on its rising branch [0, d_peak]; for these
one-parameter families that inversion is the maximum-likelihood estimate.
Estimates clipped to the branch ends (no excess signal, or signal above the
branch maximum) stay in the sample and are reported through clip_fraction
rather than discarded.

All trials are inverted together, each distinct target once, in one call of
the rising-branch solver that d_half uses too; it takes scipy brentq's steps
on each target alone, so the estimates are a per-trial brentq's, bit for bit.

MEASUREMENTS is the one table of what differs between the readouts (photon
counting, homodyne, heterodyne): information curves, ceiling, closed-form
d_half, SNR convention, the per-trial sampler and its estimator.  The CLI
reads it too.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .counting import (
    NO_NOISE,
    THERMAL,
    NoiseModel,
    SourceScene,
    fi_counting_exact,
    fi_counting_small_d,
    mean_count,
)
from .errors import BudgetError, NumericError, ValidationError
from .overlap import tau1_value
from .psf import TABULATED, TransferFunction
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
    signal_share,
)
from .resolution import COUNTING, _brentq_lockstep, _peak, d_half_counting, d_half_quadrature

# the most trials, or grid points, one run may ask for: a run's memory and time
# grow with them, and not with the frames
MAX_POINTS = 50_000_000
# the largest mean Generator.poisson accepts, so that its draws fit in int64
POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class Experiment:
    """A reproducible Monte Carlo run: N trials of M frames each."""

    scene: SourceScene
    noise: NoiseModel = NO_NOISE
    measurement: str = COUNTING
    frames: int = 100
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.measurement not in MEASUREMENTS:
            raise ValidationError(
                f"measurement must be one of {tuple(MEASUREMENTS)}, got {self.measurement!r}"
            )
        counts = (self.frames, self.trials, self.seed)
        if not all(isinstance(n, (int, np.integer)) for n in counts):
            raise ValidationError(f"frames, trials and seed must be integers, got {counts}")
        if self.frames < 1 or self.trials < 1:
            raise ValidationError("frames and trials must both be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.trials > MAX_POINTS:
            raise BudgetError(f"{self.trials} trials exceed the cap of {MAX_POINTS}")

    def rng(self) -> np.random.Generator:
        """The experiment's one Generator, seeded with its seed."""
        return np.random.default_rng(self.seed)


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


def _search_branch(tf: TransferFunction) -> tuple[float, float]:
    # rising branch of tau1: (d_peak, tau1(d_peak)), searched numerically for
    # every kind; the Gaussian's d_peak is 2 sigma only to within the search
    # tolerance, and the golden simulate_counting_clip_peak.json pins its value
    sigma = tf.sigma
    return _peak(lambda d: tau1_value(tf, d), 0.5 * sigma, 4.0 * sigma, 1e-12 * sigma)


@lru_cache(maxsize=64)
def _analytic_branch(kind: str, sigma: float) -> tuple[float, float]:
    """The branch of the analytic PSF that (kind, sigma) determines."""
    return _search_branch(TransferFunction(kind=kind, sigma=sigma))


# a tabulated PSF's branch, kept for as long as the PSF itself lives
_TABULATED_BRANCHES = weakref.WeakKeyDictionary()


def _tau_branch(tf: TransferFunction) -> tuple[float, float]:
    """(d_peak, tau1(d_peak)), searched once per analytic (kind, sigma) in a
    process and once per tabulated PSF while it lives."""
    if tf.kind != TABULATED:
        return _analytic_branch(tf.kind, tf.sigma)
    if tf not in _TABULATED_BRANCHES:
        _TABULATED_BRANCHES[tf] = _search_branch(tf)
    return _TABULATED_BRANCHES[tf]


def _invert_tau1(tf: TransferFunction, tau_target):
    """Separations whose tau1 matches tau_target on the rising branch.

    Elementwise over a scalar or an array of targets, in one lockstep Brent
    solve of the distinct targets.  Values at or below 0 clip to 0; values at
    or above the branch maximum clip to d_peak.  Each Brent iteration takes
    tau1 alone (:func:`~spaderes.overlap.tau1_value`), with the bits of
    ``tau1_exact(tf, d).tau1`` and without the c', dtau1/dd and Transmission
    that nothing here reads.
    """
    t = np.asarray(tau_target, dtype=float)
    flat = t.ravel()
    d = np.zeros(flat.shape)
    positive = ~(flat <= 0.0)
    if positive.any():
        d_peak, tau_peak = _tau_branch(tf)
        rising = positive & ~(flat >= tau_peak)
        d[positive & ~rising] = d_peak
        targets, each = np.unique(flat[rising], return_inverse=True)
        d[rising] = _brentq_lockstep(
            lambda x: tau1_value(tf, x), targets, 0.0, d_peak,
            xtol=1e-13 * d_peak, rtol=1e-12,
        )[each]
    return d.reshape(t.shape)[()]


def simulate_counts(exp: Experiment) -> np.ndarray:
    """Per-trial photocount totals, drawn from their law in one call; shape (trials,)."""
    rng = exp.rng()
    kbar = mean_count(exp.scene, exp.noise)
    if exp.scene.statistics == THERMAL:
        means = rng.gamma(exp.frames, kbar, size=exp.trials)
    else:
        means = exp.frames * kbar
    if not np.max(means) <= POISSON_MAX_MEAN:
        raise NumericError(f"photocount mean {np.max(means):.4g} is past numpy's Poisson limit")
    return rng.poisson(means, size=exp.trials)


def ml_estimate_counting(totals, frames: int, scene: SourceScene, noise: NoiseModel):
    """Invert the mean count n_s (tau1 + beta) = totals / M on the rising branch.

    Elementwise over a scalar or an array of totals, in one solve.
    """
    if frames < 1:
        raise ValidationError(f"frames must be at least 1, got {frames}")
    return _invert_tau1(scene.tf, totals / (frames * scene.n_s) - noise.beta(scene.n_s))


def ml_estimate_quadrature(mean_squares, scene: SourceScene, kind: str):
    """Invert the quadrature variance V = 1/2 + n_s tau1 / q on the rising branch.

    Elementwise over a scalar or an array of mean squares (the statistic of
    sample_quadrature), in one solve; at or below the shot-noise floor the
    estimate clips to 0.
    """
    return _invert_tau1(
        scene.tf, (mean_squares - VACUUM_VARIANCE) / (signal_share(kind) * scene.n_s)
    )


@dataclass(frozen=True)
class Measurement:
    """What sets one readout of the derivative-mode channel apart.

    An experiment draws one statistic per trial (sample) and estimates d
    from all of them, elementwise, in one solve (estimate).
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
    # one statistic per trial, in trial order: shape (trials,)
    sample: Callable[[Experiment], np.ndarray]
    # the estimate of d from each trial's statistic, shape (trials,)
    estimate: Callable[[np.ndarray, Experiment], np.ndarray]
    # whether the statistic is an integer (a photocount total), so that trials
    # repeat each other's estimates; a quadrature mean square never does
    discrete: bool


def _quadrature_measurement(kind: str) -> Measurement:
    """Homodyne or heterodyne; the two differ only in the kind."""
    return Measurement(
        fi=lambda scene, noise: (fi_homodyne if kind == HOMODYNE else fi_heterodyne)(scene),
        fi_small_d=lambda scene, noise: (
            fi_homodyne_small_d if kind == HOMODYNE else fi_heterodyne_small_d
        )(scene),
        ceiling=0.25,
        d_half=lambda sigma, snr: d_half_quadrature(sigma, snr),
        shot_noise_snr=lambda n_s: shot_noise_snr(kind, n_s),
        sample=lambda exp: sample_quadrature(exp.scene, kind, exp.frames, exp.trials, exp.rng()),
        estimate=lambda ms, exp: ml_estimate_quadrature(ms, exp.scene, kind),
        discrete=False,
    )


MEASUREMENTS = {
    COUNTING: Measurement(
        fi=lambda scene, noise: fi_counting_exact(scene, noise),
        fi_small_d=lambda scene, noise: fi_counting_small_d(scene, noise),
        ceiling=1.0,
        d_half=lambda sigma, snr: d_half_counting(sigma, snr),
        shot_noise_snr=None,
        sample=lambda exp: simulate_counts(exp),
        estimate=lambda totals, exp: ml_estimate_counting(totals, exp.frames, exp.scene, exp.noise),
        discrete=True,
    ),
    HOMODYNE: _quadrature_measurement(HOMODYNE),
    HETERODYNE: _quadrature_measurement(HETERODYNE),
}


def run_crb_experiment(exp: Experiment) -> TrialReport:
    """Run all trials, estimate d in each, and compare against 1 / (M F)."""
    m = MEASUREMENTS[exp.measurement]
    scene = exp.scene
    d_true = scene.d
    estimates = m.estimate(m.sample(exp), exp)
    fisher = m.fi(scene, exp.noise)

    d_peak, _ = _tau_branch(scene.tf)
    clipped = np.count_nonzero((estimates == 0.0) | (estimates == d_peak))
    unbounded = fisher <= 0.0
    return TrialReport(
        d_true=float(d_true),
        estimates=tuple(estimates.tolist()),
        empirical_variance=float(np.var(estimates, ddof=1)) if exp.trials > 1 else 0.0,
        empirical_mse=float(np.mean((estimates - d_true) ** 2)),
        crb=None if unbounded else float(1.0 / (exp.frames * fisher)),
        crb_unbounded=bool(unbounded),
        clip_fraction=float(clipped / exp.trials),
    )
