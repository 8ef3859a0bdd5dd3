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
brentq takes on each target alone.  Both are scipy's own solvers ported
statement for statement, so they give its bits without importing it: `_peak`
is fminbound (``minimize_scalar(method="bounded")``), as `_brentq_lockstep`
is brentq.c.  An iteration of the lockstep selects, compacts and computes
only what changes some target's state: a branch no target takes is skipped,
one every target takes is assigned without a select, and the state shrinks
only when a target converged.  Each target's values still come from
brentq.c's expressions on its own operands, elementwise, so the roots keep
their bits whatever the batch around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counting import POISSON, THERMAL, _check_statistics
from .errors import BracketingError, NumericError, ValidationError

COUNTING = "counting"

# scipy.optimize.brentq's iteration cap
BRENT_MAXITER = 100
# scipy.optimize.fminbound's cap on evaluations of the function
FMINBOUND_MAXFUN = 500


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
    _check_statistics(statistics)
    low = d_half_counting(sigma, snr)
    high = sigma
    if statistics == THERMAL:
        if n_s is None or not 0.0 < n_s < np.inf:
            raise ValidationError(f"thermal window requires n_s finite and positive, got {n_s}")
        high = min(high, 2.0 * sigma / np.sqrt(n_s))
    return SuperresWindow(low=float(low), high=float(high))


def _peak(f: Callable[[float], float], lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Maximum of f on [lo, hi] by a bounded Brent search: (x_peak, f(x_peak)).

    scipy's fminbound (``minimize_scalar(method="bounded")``) on -f, statement
    for statement, so the peak is the same bit for bit; like it, the search
    stops silently after FMINBOUND_MAXFUN evaluations.  Golden-section steps,
    parabolic ones where the parabola through the last three points is
    acceptable, until the bracket about the best point is within xatol.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = -f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1  # np.sign(xm - xf) + (xm == xf)
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        # scipy's np.sign(rat) + (rat == 0) and np.maximum: rat and tol1 stay finite on finite bounds
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0 else -step)
        fu = -f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= FMINBOUND_MAXFUN:
            break

    return float(xf), -float(fx)


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

    An iteration does only the array work that changes some target's state.
    A branch of brentq.c that no target takes this iteration is skipped, and
    one that every target takes is a plain assignment instead of a select:
    the bracket reset, the swap of the bracket's ends, the secant or the
    inverse quadratic step, the short step and the bisection.  The state is
    compacted only in an iteration where some target converged.  Every value
    a target keeps is still computed by brentq.c's own expression on its own
    operands, elementwise, so skipping work for the other targets moves no
    bit.  |fcur|, |fpre| and |fblk| ride along with the residuals they are
    taken of, so each is taken once.
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
    n = idx.size
    if not n:
        return root
    t, fpre, fcur = targets[idx], fa[idx], fb[idx]
    xpre, xcur = np.full(n, float(xa)), np.full(n, float(xb))
    afpre = np.abs(fpre)
    xblk = fblk = afblk = spre = scur = np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(BRENT_MAXITER):
            afcur = np.abs(fcur)
            # xblk is the far end of the bracket.  fpre is never 0 here, and a
            # target whose fcur is 0 converges below whatever its bracket holds,
            # so brentq.c's fpre != 0 and fcur != 0 need no test.
            bracket = np.signbit(fpre) != np.signbit(fcur)
            taken = np.count_nonzero(bracket)
            if taken == n:
                xblk, fblk, afblk = xpre, fpre, afpre
                spre = scur = xcur - xpre
            elif taken:
                step = xcur - xpre
                xblk, fblk, afblk = (np.where(bracket, xpre, xblk), np.where(bracket, fpre, fblk),
                                     np.where(bracket, afpre, afblk))
                spre, scur = np.where(bracket, step, spre), np.where(bracket, step, scur)
            # xcur is the end with the smaller residual
            swap = afblk < afcur
            taken = np.count_nonzero(swap)
            if taken == n:
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
                afpre, afcur, afblk = afcur, afblk, afcur
            elif taken:
                xpre, xcur, xblk = (
                    np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
                )
                fpre, fcur, fblk = (
                    np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
                )
                afpre, afcur, afblk = (
                    np.where(swap, afcur, afpre), np.where(swap, afblk, afcur),
                    np.where(swap, afcur, afblk),
                )

            delta = (xtol + rtol * np.abs(xcur)) / 2  # the tolerance is 2 delta
            sbis = (xblk - xcur) / 2
            asbis = np.abs(sbis)
            done = (fcur == 0) | (asbis < delta)
            converged = np.count_nonzero(done)
            if converged:
                root[idx[done]] = xcur[done]
                if converged == n:
                    return root
                live = ~done
                n -= converged
                (idx, t, delta, sbis, asbis, xpre, xcur, xblk, fpre, fcur, fblk, afpre, afcur,
                 afblk, spre, scur) = (
                    a[live] for a in (idx, t, delta, sbis, asbis, xpre, xcur, xblk, fpre, fcur,
                                      fblk, afpre, afcur, afblk, spre, scur)
                )

            # secant or inverse quadratic step if it is short enough, else bisection
            aspre = np.abs(spre)
            short = (aspre > delta) & (afcur < afpre)
            taken = np.count_nonzero(short)
            if taken:
                secant = xpre == xblk
                taken = np.count_nonzero(secant)
                if taken == n:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                    if taken:
                        stry = np.where(secant, -fcur * (xcur - xpre) / (fcur - fpre), stry)
                # brentq.c's MIN(a, b) is a < b ? a : b, which np.minimum is not for NaN
                cap = 3 * asbis - delta
                short &= 2 * np.abs(stry) < np.where(aspre < cap, aspre, cap)
                taken = np.count_nonzero(short)
            if taken == n:
                spre, scur = scur, stry
            elif taken:
                spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            else:
                spre = scur = sbis

            xpre, fpre, afpre = xcur, fcur, afcur
            far = np.abs(scur) > delta
            taken = np.count_nonzero(far)
            if taken == n:
                xcur = xcur + scur
            else:
                bisect = xcur + np.where(sbis > 0, delta, -delta)
                xcur = np.where(far, xcur + scur, bisect) if taken else bisect
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
    if not 0.0 < sigma < np.inf:
        raise ValidationError(f"sigma must be finite and positive, got {sigma}")
    d_peak, f_peak = _peak(fi_fn, 1e-6 * sigma, 3.0 * sigma, 1e-10 * sigma)
    if f_peak < target:
        raise BracketingError(
            f"curve maximum {f_peak:.6g} at d={d_peak:.6g} is below the target {target:.6g}"
        )
    root = _brentq_lockstep(
        fi_fn, np.array([target]), 1e-9 * sigma, d_peak, xtol=1e-15 * max(d_peak, 1.0), rtol=1e-10
    )
    return float(root[0])
