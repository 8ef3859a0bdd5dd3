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

`d_half_from_curve` inverts arbitrary information curves so the closed forms
can be checked against exact ones.  Which closed form, SNR convention and
target belong to which readout is recorded once, in
`spaderes.montecarlo.MEASUREMENTS`.

This module holds the one way a curve is inverted on its rising branch, for
d_half here and for the Monte Carlo moment estimates: `_peak` finds the
branch maximum by a bounded Brent search, and `_brentq_lockstep` roots the
curve below it for a whole array of targets at once, taking the steps scipy's
brentq takes on each target alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .counting import POISSON, THERMAL
from .errors import BracketingError, NumericError, ValidationError

COUNTING = "counting"

# scipy.optimize.brentq's iteration cap
BRENT_MAXITER = 100


def d_half_counting(sigma: float, snr: float) -> float:
    """2 sigma / sqrt(SNR)."""
    _check_sigma_snr(sigma, snr)
    return 2.0 * sigma / np.sqrt(snr)


def d_half_quadrature(sigma: float, snr: float) -> float:
    """(2 sqrt(2) - 2) sigma / sqrt(SNR), SNR in the measurement's own convention."""
    _check_sigma_snr(sigma, snr)
    return (2.0 * np.sqrt(2.0) - 2.0) * sigma / np.sqrt(snr)


def _check_sigma_snr(sigma: float, snr: float) -> None:
    if not 0.0 < sigma < np.inf:
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
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
        if n_s is None or not 0.0 < n_s < np.inf:
            raise ValidationError(f"thermal window requires n_s finite and positive, got {n_s}")
        high = min(high, 2.0 * sigma / np.sqrt(n_s))
    return SuperresWindow(low=float(low), high=float(high))


def _peak(f: Callable[[float], float], lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Maximum of f on [lo, hi] by a bounded Brent search: (x_peak, f(x_peak))."""
    res = minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded", options={"xatol": xatol}
    )
    return float(res.x), -float(res.fun)


def _brentq_lockstep(g, targets: np.ndarray, xa: float, xb: float, xtol: float,
                     rtol: float) -> np.ndarray:
    """Roots in [xa, xb] of g(x) = t for every t of a 1-d array of targets.

    scipy's brentq.c, statement for statement, run in lockstep: each target
    takes the steps a scalar brentq takes on f(x) = g(x) - t, so the roots are
    the same bit for bit.  g maps an array of points to an array of values;
    each iteration makes one call of g, over the targets not yet converged.
    A target whose residuals at xa and xb share a sign raises BracketingError;
    a NaN residual, or a target not converged after BRENT_MAXITER iterations,
    raises NumericError.
    """

    def residual(x, t):
        f = g(x) - t
        if np.isnan(f).any():
            raise NumericError("a residual is NaN; the solver cannot continue")
        return f

    fa, fb = residual(xa, targets), residual(xb, targets)
    unbracketed = (fa != 0) & (fb != 0) & (np.signbit(fa) == np.signbit(fb))
    if unbracketed.any():
        i = np.argmax(unbracketed)
        t = targets[i]
        raise BracketingError(
            f"the curve is {fa[i] + t:.6g} at {xa:.6g} and {fb[i] + t:.6g} at {xb:.6g}, "
            f"which do not straddle the target {t:.6g}"
        )
    root = np.where(fa == 0, xa, xb)
    idx = np.flatnonzero((fa != 0) & (fb != 0))
    t, fpre, fcur = targets[idx], fa[idx], fb[idx]
    xpre, xcur = np.full(idx.size, float(xa)), np.full(idx.size, float(xb))
    xblk = fblk = spre = scur = np.zeros(idx.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(BRENT_MAXITER):
            # xblk is the far end of the bracket; xcur the end with the smaller residual
            bracket = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(bracket, xpre, xblk), np.where(bracket, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(bracket, step, spre), np.where(bracket, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (
                np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            )
            fpre, fcur, fblk = (
                np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            )

            delta = (xtol + rtol * np.abs(xcur)) / 2  # the tolerance is 2 delta
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            root[idx[done]] = xcur[done]
            live = ~done
            if not live.any():
                return root
            idx, t, delta, sbis = idx[live], t[live], delta[live], sbis[live]
            xpre, xcur, xblk = xpre[live], xcur[live], xblk[live]
            fpre, fcur, fblk = fpre[live], fcur[live], fblk[live]
            spre, scur = spre[live], scur[live]

            # secant or inverse quadratic step if it is short enough, else bisection
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            # brentq.c's MIN(a, b) is a < b ? a : b, which np.minimum is not for NaN
            bound = np.where(np.abs(spre) < 3 * np.abs(sbis) - delta,
                             np.abs(spre), 3 * np.abs(sbis) - delta)
            short = (
                (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < bound)
            )
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = np.where(np.abs(scur) > delta, xcur + scur,
                            xcur + np.where(sbis > 0, delta, -delta))
            fcur = residual(xcur, t)
    raise NumericError(
        f"{idx.size} of {targets.size} roots failed to converge after {BRENT_MAXITER} iterations"
    )


def d_half_from_curve(
    fi_fn: Callable[[float], float],
    target: float,
    sigma: float,
) -> float:
    """Rising-branch crossing of an information curve with its half target.

    Locates the curve maximum on (0, 3 sigma], then roots fi_fn = target on the
    rising branch [1e-9 sigma, d_peak] to 1e-10 relative in d.  Intended for
    noisy curves that vanish at d = 0; a curve already above target at tiny d
    (e.g. noiseless counting) has no rising crossing and raises a bracketing
    error.  fi_fn maps a float separation to a float and an array of
    separations to an array, as curves built on SourceScene do.
    """
    d_peak, f_peak = _peak(fi_fn, 1e-6 * sigma, 3.0 * sigma, 1e-10 * sigma)
    if f_peak < target:
        raise BracketingError(
            f"curve maximum {f_peak:.6g} at d={d_peak:.6g} is below the target {target:.6g}"
        )
    root = _brentq_lockstep(
        fi_fn, np.array([target]), 1e-9 * sigma, d_peak, xtol=1e-15 * max(d_peak, 1.0), rtol=1e-10
    )
    return float(root[0])
