"""Closed forms the benchmark checks the program's outputs against.

These are re-derived from the paper's formulas and written over numpy arrays,
sharing no code with ``spaderes``, so a defect in the package's closed forms
shows up as a failed check instead of agreeing with itself.  Separations are
absolute (sigma is passed in); all functions take arrays of ``d``.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0

# Taylor coefficients of q(t) = 3 (sin t - t cos t) / t^3 = sum_k Q[k] t^(2k);
# 12 terms are exact to double precision for |t| < 1.
_Q = np.array([3.0 * (-1) ** k * (2 * k + 2) / math.factorial(2 * k + 3) for k in range(12)])


def _shrink(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q(t) and q'(t), by series near 0 and directly elsewhere."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 1.0
    ts = np.where(small, 1.0, t)
    q_direct = 3.0 * (np.sin(ts) - ts * np.cos(ts)) / ts**3
    qp_direct = 3.0 * ((ts**2 - 3.0) * np.sin(ts) + 3.0 * ts * np.cos(ts)) / ts**4
    t2 = t * t
    q_series = np.polynomial.polynomial.polyval(t2, _Q)
    dq = _Q[1:] * 2.0 * np.arange(1, _Q.size)  # d/dt of Q[k] t^(2k) = 2k Q[k] t^(2k-1)
    qp_series = t * np.polynomial.polynomial.polyval(t2, dq)
    return np.where(small, q_series, q_direct), np.where(small, qp_series, qp_direct)


def overlap(kind: str, d, sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Signed overlap c(d) with tau1 = c^2, and its derivative c'(d).

    gaussian: c = (d / 2 sigma) exp(-d^2 / 8 sigma^2)
    sinc:     c = (d / 2 sigma) q(a d), a = sqrt(3) / 2 sigma
    """
    d = np.asarray(d, dtype=float)
    if kind == "gaussian":
        e = np.exp(-(d**2) / (8.0 * sigma**2))
        return d / (2.0 * sigma) * e, e / (2.0 * sigma) * (1.0 - d**2 / (4.0 * sigma**2))
    if kind == "sinc":
        a = SQRT3_OVER_2 / sigma
        q, qp = _shrink(a * d)
        return d / (2.0 * sigma) * q, q / (2.0 * sigma) + d / (2.0 * sigma) * qp * a
    raise ValueError(f"no closed form for kind {kind!r}")


def transmission(kind: str, d, sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """tau1(d) and dtau1/dd."""
    c, cp = overlap(kind, d, sigma)
    return c * c, 2.0 * c * cp


def fi_counting(kind: str, d, n_s: float, n_b: float, statistics: str, sigma: float = 1.0):
    """Counting information n_s tau1'^2 / (tau1 + beta), thermal / (1 + n_s tau1 + n_b)."""
    c, cp = overlap(kind, d, sigma)
    tau, dtau = c * c, 2.0 * c * cp
    if n_b == 0.0:
        fisher = 4.0 * n_s * cp**2
    else:
        fisher = n_s * dtau**2 / (tau + n_b / n_s)
    if statistics == "thermal":
        fisher = fisher / (1.0 + n_s * tau + n_b)
    return fisher


def fi_quadrature(kind: str, d, n_s: float, measurement: str, sigma: float = 1.0):
    """Gaussian-variance information: V = 1/2 + share n_s tau1, F = m (V')^2 / 2 V^2."""
    tau, dtau = transmission(kind, d, sigma)
    share, variates = (1.0, 1.0) if measurement == "homodyne" else (0.5, 2.0)
    v = 0.5 + share * n_s * tau
    dv = share * n_s * dtau
    return variates * dv**2 / (2.0 * v**2)


def fi_exact(kind, measurement, statistics, d, n_s, n_b, sigma=1.0):
    """Exact information of any of the three measurements."""
    if measurement == "counting":
        return fi_counting(kind, d, n_s, n_b, statistics, sigma)
    return fi_quadrature(kind, d, n_s, measurement, sigma)


def fi_small_d(measurement, statistics, d, n_s, n_b, sigma=1.0):
    """Small-separation laws; identical for every PSF kind."""
    d2 = np.asarray(d, dtype=float) ** 2
    s2 = sigma**2
    if measurement == "counting":
        beta = n_b / n_s
        if beta == 0.0:
            fisher = np.full_like(d2, n_s / s2)
        else:
            fisher = (n_s / s2) * d2 / (d2 + 4.0 * s2 * beta)
        if statistics == "thermal":
            fisher = fisher / (1.0 + n_s * d2 / (4.0 * s2) + n_b)
        return fisher
    if measurement == "homodyne":
        return 2.0 * n_s**2 * d2 / (n_s * d2 + 2.0 * s2) ** 2
    return 4.0 * n_s**2 * d2 / (n_s * d2 + 4.0 * s2) ** 2


def shot_noise_snr(measurement: str, n_s: float) -> float:
    return 2.0 * n_s if measurement == "homodyne" else n_s


def d_half(measurement: str, sigma: float, snr: float) -> float:
    """2 sigma / sqrt(SNR) for counting, (2 sqrt 2 - 2) sigma / sqrt(SNR) otherwise."""
    factor = 2.0 if measurement == "counting" else 2.0 * math.sqrt(2.0) - 2.0
    return factor * sigma / math.sqrt(snr)
