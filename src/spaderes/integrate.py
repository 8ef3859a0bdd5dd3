"""Composite Gauss-Legendre quadrature helpers.

Two integration strategies are provided:

* ``composite_gauss_legendre`` / ``integrate_refined`` for smooth integrands
  on a finite interval (rapidly decaying tails already truncated away).
* ``integrate_oscillatory_tails`` for even-symmetric domains where the
  integrand decays only algebraically (~1/x) while oscillating with a fixed
  period.  Truncating such an integral at +-X leaves an O(1/X) tail, so the
  partial integrals are computed on a geometric ladder of panel-aligned
  half-widths and extrapolated to X -> infinity in powers of 1/X.

Integrands must accept and return numpy arrays.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericError

# rungs of the ladder of half-widths that integrate_oscillatory_tails extrapolates over
TAIL_LEVELS = 4

# Gauss-Legendre nodes per panel of composite_gauss_legendre
PANEL_NODES = 16

# panels a call on a displaced domain may take: 2^17 x 16 float64 nodes are 16 MiB an array
MAX_PANELS = 2**17


@lru_cache(maxsize=32)
def _gl_nodes(n_nodes: int):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return x, w


def composite_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    n_panels: int,
) -> float:
    """Integral of ``f`` over [a, b] with ``n_panels`` equal Gauss-Legendre panels."""
    if not b > a:
        raise ValueError(f"empty or inverted interval [{a}, {b}]")
    return _dot(f, *_panel_nodes(a, b, n_panels))


def _panel_nodes(a: float, b: float, n_panels: int):
    """Nodes and weights of ``n_panels`` equal Gauss-Legendre panels on [a, b]."""
    x, w = _gl_nodes(PANEL_NODES)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def _dot(f, xs, ws) -> float:
    return float(np.dot(ws, np.asarray(f(xs), dtype=float)))


def integrate_refined(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    n_panels: int,
) -> tuple[float, float]:
    """Integrate on [a, b]; return (value, error estimate from panel doubling).

    Refuses, before evaluating ``f``, a count whose doubled pass is past MAX_PANELS.
    """
    if 2 * n_panels > MAX_PANELS:
        raise NumericError(
            f"{2 * n_panels:.4g} panels on [{a:.4g}, {b:.4g}] are over MAX_PANELS = {MAX_PANELS}"
        )
    coarse = composite_gauss_legendre(f, a, b, n_panels)
    fine = composite_gauss_legendre(f, a, b, 2 * n_panels)
    return fine, abs(fine - coarse)


def _extrapolate_to_zero(ts: np.ndarray, values: list[float]) -> tuple[float, float]:
    """Neville polynomial extrapolation of values(t) to t = 0."""
    table = list(values)
    n = len(table)
    best = table[-1]
    prev = best
    for m in range(1, n):
        for i in range(n - m):
            table[i] = table[i + 1] + (table[i + 1] - table[i]) * ts[i + m] / (
                ts[i] - ts[i + m]
            )
        prev, best = best, table[0]
    return best, abs(best - prev)


def integrate_oscillatory_tails(
    f: Callable[[np.ndarray], np.ndarray],
    half_width: float,
    period: float,
) -> tuple[float, float]:
    """Integral of ``f`` over (-inf, inf) for 1/x-decaying periodic-tail integrands.

    The partial integral over [-X, X] behaves as S(X) = S - c1/X - c2/X^2 - ...
    with coefficients that are constant when X is restricted to even multiples
    of the oscillation period, so S is recovered by polynomial extrapolation in
    1/X over the ladder X0, 2*X0, ..., 2^(TAIL_LEVELS-1)*X0.

    Returns (value, error estimate from the extrapolation table).
    """
    # initial half-width: smallest even multiple of the period >= half_width
    m0 = max(2, 2 * int(np.ceil(half_width / (2.0 * period))))
    if m0 * 2 ** (TAIL_LEVELS - 2) > MAX_PANELS:  # panels of the outermost rung, the largest call
        raise NumericError(f"half-width {half_width:.4g} needs over MAX_PANELS panels in one call")
    widths, rungs = _ladder(m0, period)
    partials = []
    total = 0.0
    for segments in rungs:
        for xs, ws in segments:
            total += _dot(f, xs, ws)
        partials.append(total)
    return _extrapolate_to_zero(1.0 / widths, partials)


@lru_cache(maxsize=4)
def _ladder(m0: int, period: float):
    """The rung half-widths of the ladder from m0 periods, and each rung's
    segments as (nodes, weights): [-X0, X0], then [X_l-1, X_l] and
    [-X_l, -X_l-1].  They depend on d only through m0, so each ladder is built
    once and kept, read-only: 16 m0 panels, 0.5 MiB at the sinc start width."""
    widths, rungs = [], []
    prev_x = 0.0
    for level in range(TAIL_LEVELS):
        x_level = m0 * period * (2**level)
        n_new = int(round((x_level - prev_x) / period))
        if prev_x == 0.0:
            spans = [(-x_level, x_level, 2 * n_new)]
        else:
            spans = [(prev_x, x_level, n_new), (-x_level, -prev_x, n_new)]
        rungs.append(tuple(_read_only(*_panel_nodes(*span)) for span in spans))
        prev_x = x_level
        widths.append(x_level)
    return _read_only(np.asarray(widths))[0], tuple(rungs)


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def check_converged(value, err, rel_tol: float, abs_tol: float, what: str):
    """Raise NumericError when an integral's error estimate exceeds tolerance.

    ``value`` and ``err`` may be arrays of one shape, judged elementwise; the
    message names the first failing element.
    """
    bad = ~np.isfinite(value) | (err > np.maximum(abs_tol, rel_tol * np.abs(value)))
    if np.any(bad):
        k = np.argmax(np.ravel(bad))
        raise NumericError(
            f"quadrature for {what} did not converge: value={float(np.ravel(value)[k])!r}, "
            f"error estimate={np.ravel(err)[k]:.3e}, rel_tol={rel_tol:.1e}, abs_tol={abs_tol:.1e}"
        )
    return value
