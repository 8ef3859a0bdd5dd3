"""Resolution-limit calculus: half-resolution distances and windows.

The half-resolution distance d_half is the smallest separation at which a
measurement's information still reaches half of its own ceiling.  Closed
forms in the small-separation regime:

    counting     d_half = 2 sigma / sqrt(SNR),   target F_Q / 2
    quadrature   d_half = (2 sqrt(2) - 2) sigma / sqrt(SNR), target F_max / 2
                 (same expression for homodyne, SNR = 2 n_s, and heterodyne,
                  SNR = n_s; see quadrature.shot_noise_snr)

Counting retains superresolution inside the window
2 sigma / sqrt(SNR) << d << sigma (Poisson), with the upper edge tightened to
min(sigma, 2 sigma / sqrt(n_s)) for thermal sources.  The window bounds are
returned raw; "safely inside" conventionally means a decade above the lower
edge.

`d_half_numeric` and `d_half_from_curve` invert arbitrary information curves
so the closed forms can be checked against exact ones.  Which closed form,
SNR convention and target belong to which readout is recorded once, in
`spaderes.montecarlo.MEASUREMENTS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .counting import POISSON, THERMAL
from .errors import BracketingError, ValidationError

COUNTING = "counting"

SAFETY_FACTOR = 10.0  # d >= SAFETY_FACTOR * window.low counts as safely inside


def d_half_counting(sigma: float, snr: float) -> float:
    """2 sigma / sqrt(SNR)."""
    _check_sigma_snr(sigma, snr)
    return 2.0 * sigma / np.sqrt(snr)


def d_half_quadrature(sigma: float, snr: float) -> float:
    """(2 sqrt(2) - 2) sigma / sqrt(SNR), SNR in the measurement's own convention."""
    _check_sigma_snr(sigma, snr)
    return (2.0 * np.sqrt(2.0) - 2.0) * sigma / np.sqrt(snr)


def _check_sigma_snr(sigma: float, snr: float) -> None:
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if not snr > 0:
        raise ValidationError(f"snr must be positive, got {snr}")


@dataclass(frozen=True)
class SuperresWindow:
    """Raw bounds of the superresolution regime; empty when low >= high."""

    low: float
    high: float

    @property
    def is_empty(self) -> bool:
        return self.low >= self.high


def superres_window(
    sigma: float, snr: float, n_s: float | None = None, statistics: str = POISSON
) -> SuperresWindow:
    """Separation range where noisy counting still beats direct imaging.

    Lower edge 2 sigma / sqrt(SNR); upper edge sigma, tightened to
    2 sigma / sqrt(n_s) for thermal sources when that is smaller.
    """
    _check_sigma_snr(sigma, snr)
    low = d_half_counting(sigma, snr)
    high = sigma
    if statistics == THERMAL:
        if n_s is None:
            raise ValidationError("thermal window requires n_s")
        high = min(high, 2.0 * sigma / np.sqrt(n_s))
    return SuperresWindow(low=float(low), high=float(high))


def d_half_numeric(
    fi_fn: Callable[[float], float],
    target: float,
    bracket: tuple[float, float],
) -> float:
    """Root of fi_fn(d) = target inside the bracket, to 1e-10 relative in d."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValidationError(f"bracket must satisfy low < high, got ({lo}, {hi})")
    flo = fi_fn(lo) - target
    fhi = fi_fn(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketingError(
            f"fi({lo:.6g})={flo + target:.6g} and fi({hi:.6g})={fhi + target:.6g} "
            f"do not straddle the target {target:.6g}"
        )
    return float(
        brentq(lambda d: fi_fn(d) - target, lo, hi, xtol=1e-15 * max(hi, 1.0), rtol=1e-10)
    )


def d_half_from_curve(
    fi_fn: Callable[[float], float],
    target: float,
    sigma: float,
    d_max: float | None = None,
) -> float:
    """Rising-branch crossing of an information curve with its half target.

    Locates the curve maximum on (0, d_max], then roots fi_fn = target on the
    rising branch.  Intended for noisy curves that vanish at d = 0; a curve
    already above target at tiny d (e.g. noiseless counting) has no rising
    crossing and raises a bracketing error.
    """
    hi = d_max if d_max is not None else 3.0 * sigma
    res = minimize_scalar(
        lambda d: -fi_fn(d),
        bounds=(1e-6 * sigma, hi),
        method="bounded",
        options={"xatol": 1e-10 * sigma},
    )
    d_peak = float(res.x)
    f_peak = -float(res.fun)
    if f_peak < target:
        raise BracketingError(
            f"curve maximum {f_peak:.6g} at d={d_peak:.6g} is below the target {target:.6g}"
        )
    return d_half_numeric(fi_fn, target, (1e-9 * sigma, d_peak))
