"""Composite Gauss-Legendre quadrature, one row per d.

``composite_gauss_legendre``, the one panel rule, integrates smooth
integrands on a finite interval (rapidly decaying tails already truncated
away) on n and 2n panels in one pass, the distance between the two its
error estimate, on nodes built once per (bounds, count) and kept: a caller
with a domain per row maps one template, such as [0, 1] or [-1, 1], onto it.
``integrate_oscillatory_tails`` takes even integrands over the whole line
that decay only algebraically (~1/x) while oscillating at a fixed frequency
a, with the period pi / a: truncating at +-X leaves an O(1/X) tail, so the
partial integrals over [0, X], doubled, on a geometric ladder of
TAIL_LEVELS panel-aligned half-widths are extrapolated to X -> infinity in
powers of 1/X.  Its error estimate compares that extrapolation with the one
an order lower over the ladder's upper rungs, so it tracks the order it
judges.  The ladder keeps, with its nodes x, their phases sin(a x) and
cos(a x), and hands them to f, so an integrand that oscillates at a takes
no trigonometry of its own nodes.

Each takes a 1-D array ``d`` and integrates one row per d: row i
integrates f(x, d_i); the bounds are two numbers, the count a number or one
per row.  f takes a block of rows' nodes, (1, n), shared, and their d as a
(rows, 1) column (then, on the tail ladder, the phases, sliced alike), and
returns (rows, n), or (k, rows, n) for k integrands: each rule returns
(value, error estimate), each (d.size,) or (d.size, k), an empty d too.
One driver, :func:`_row_sums`, runs every rule.  Rows of one panel count
share a pass, in blocks of at most NODES_PER_BLOCK nodes, over nodes kept
per count; a row of over CHUNK_NODES nodes, such as the tail ladder far
out, runs alone, in a few equal chunks.  Each segment of a row (each panel
count of the composite rule, each rung of the ladder) is reduced on its
own by ndarray.dot, so a row gets the same bits alone or in any batch.

What a rule does once per row and not per node (its panel counts and
ladder starts, the ladder's extrapolation, :func:`check_converged`) runs
on Python floats, a row at a time, with the roundings numpy's elementwise
operations make: a lone d then pays for a few float operations where
numpy's reductions and small-array calls cost it microseconds each, so
one d costs close to its share of an array.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericError

# rungs of the ladder of half-widths that integrate_oscillatory_tails extrapolates
# over: from the sinc start width, 5 rungs leave sinc direct imaging errors of up
# to 2.2e-7 relative, refused from 19.4 sigma on
TAIL_LEVELS = 6

# Gauss-Legendre nodes per panel of composite_gauss_legendre
PANEL_NODES = 16

# panels a call on a displaced domain may take: 2^17 x 16 float64 nodes are 16 MiB an array
MAX_PANELS = 2**17

# nodes a kernel over arrays of d evaluates at once (unless one row holds more):
# 256 KiB a float array keeps a block's temporaries in cache; on a 2 MiB L2 the
# 101-point tabulated curves ran 1.6x faster than with six times larger blocks
NODES_PER_BLOCK = 2**15

# nodes of one row an integrand call takes at once, longer rows in equal chunks: a
# scalar sinc fi_direct at 100 sigma, one 28,672-node half-line ladder row, took
# 0.9-1.3 ms in four chunks of 7,168 nodes and 1.4-1.6 ms unchunked (2-vCPU Xeon)
CHUNK_NODES = 2**13


@lru_cache(maxsize=32)
def _gl_nodes(n_nodes: int):
    return np.polynomial.legendre.leggauss(n_nodes)


def _row_sums(f, d, counts: list, layout) -> np.ndarray:
    """np.dot(weights, f) over each segment of every row of the 1-D d:
    shape (rows,) + f's leading axes + (segments,).

    Rows are grouped by ``counts``, a list of one int per row;
    ``layout(count)`` gives a group's (n, segments, nodes): n nodes a row,
    the slices of its segments, in order, and the arrays f reads, (nodes,
    weights, *extra), each (1, n), which every row shares.  f gets the
    nodes, the rows' d as a column, then the extra arrays, sliced alike, and
    returns one (rows, n) array or k of them, as a (k, rows, n) array or a
    sequence, which are reduced where they lie.  Rows of at most CHUNK_NODES
    nodes share passes, in blocks of at most NODES_PER_BLOCK nodes; a longer
    row runs alone, in equal chunks.  An empty d gives (0,) + f's leading
    axes + (segments,), from f on no rows at one panel.
    """
    if not d.size:
        _, segments, (x, _, *extra) = layout(1)
        lead = np.shape(f(x, d[:, None], *extra))[:-2]
        return np.zeros((0,) + lead + (len(segments),))
    groups = {}
    for i, count in enumerate(counts):
        groups.setdefault(count, []).append(i)
    sums = [None] * d.size
    for count, rows in groups.items():
        n, segments, (x, w, *extra) = layout(count)
        weights = [(s, w[0, s]) for s in segments]
        chunks = _chunks(n)
        per_block = 1 if len(chunks) > 1 else max(1, NODES_PER_BLOCK // n)
        d_rows = d[:, None] if len(rows) == d.size else d[rows, None]
        for start in range(0, len(rows), per_block):
            block = rows[start : start + per_block]
            column = d_rows[start : start + per_block]
            if len(chunks) == 1:
                values = f(x, column, *extra)
            else:
                values = np.concatenate(
                    [f(x[..., c], column, *[e[..., c] for e in extra]) for c in chunks], axis=-1
                )
            one = isinstance(values, np.ndarray) and values.ndim == 2
            planes = [values] if one else values
            for r, i in enumerate(block):
                sums[i] = [ws.dot(v[r, s]) for v in planes for s, ws in weights]
    lead = () if one else (-1,)
    return np.array(sums).reshape((d.size,) + lead + (len(segments),))


@lru_cache(maxsize=32)
def _chunks(n: int) -> tuple:
    """The slices of a row of n nodes that an integrand call takes at once:
    the whole row, or equal chunks of at most CHUNK_NODES nodes."""
    count = -(-n // CHUNK_NODES)
    cuts = [n * k // count for k in range(count + 1)]
    return tuple(slice(*c) for c in zip(cuts, cuts[1:]))


def composite_gauss_legendre(f: Callable[..., np.ndarray], a: float, b: float, n_panels, d):
    """(Integral of ``f`` over [a, b] on 2 ``n_panels`` equal Gauss-Legendre
    panels, its distance to the integral on ``n_panels``), a row per d of the
    1-D ``d``: both counts run in one pass, as the two segments of one kept
    row of nodes (:func:`_doubled_layout`).  Refuses, before evaluating
    ``f``, a count whose doubled pass is past MAX_PANELS."""
    if not b > a:
        raise ValueError(f"empty or inverted interval [{a}, {b}]")
    d = np.asarray(d, dtype=float)
    counts = np.full(d.size, n_panels).tolist()
    doubled = 2.0 * max(counts, default=0.0)
    if doubled > MAX_PANELS:
        raise NumericError(
            f"{doubled:.4g} panels on [{a:.4g}, {b:.4g}] are over MAX_PANELS = {MAX_PANELS}"
        )
    a, b = float(a), float(b)
    sums = _row_sums(f, d, [int(c) for c in counts], lambda count: _doubled_layout(a, b, count))
    coarse, fine = sums[..., 0], sums[..., 1]
    return fine, abs(fine - coarse)


def _panel_nodes(a: float, b: float, n_panels: int):
    """Nodes and weights of n_panels equal panels on [a, b], as (1, n) rows."""
    x, w = _gl_nodes(PANEL_NODES)
    # np.linspace(a, b, n_panels + 1), by its arithmetic without its overhead
    edges = np.arange(n_panels + 1) * ((b - a) / n_panels) + a
    edges[-1] = b
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).reshape(1, -1), (half[:, None] * w).reshape(1, -1)


# the Gaussian oracles on 0-5 sigma take 20 (bounds, count) triples, each a row
# of at most 2,880 nodes: 64 keep them all, in under 1 MiB
@lru_cache(maxsize=64)
def _doubled_layout(a: float, b: float, n_panels: int):
    """The :func:`_row_sums` layout of _panel_nodes at n_panels and at 2 n_panels:
    one read-only row each of nodes and weights, the coarser count's segment first."""
    n = PANEL_NODES * n_panels
    pair = zip(_panel_nodes(a, b, n_panels), _panel_nodes(a, b, 2 * n_panels))
    nodes = _read_only(*(np.concatenate(v, axis=-1) for v in pair))
    return 3 * n, (slice(0, n), slice(n, 3 * n)), nodes


def _extrapolate_to_zero(ts, values) -> tuple:
    """Neville polynomial extrapolation of values(t) to t = 0, one row of
    rungs at a time, with its error estimate: the distance to the
    extrapolation one order lower over the upper rungs (all but the first,
    nearest t = 0).  Both lean on the widest rungs, so the estimate tracks
    the order it judges; one order lower over the lower rungs overstated the
    sinc ladder's error 1e4 to 1e6 times.  ``ts`` and ``values`` are
    sequences over the rungs, and each entry of the table is a few float
    operations, the same roundings numpy's elementwise ones make."""
    table = list(values)
    for m in range(1, len(table)):
        upper = table[-1]
        table = [
            b + (b - a) * t / (t_lo - t) for a, b, t_lo, t in zip(table, table[1:], ts, ts[m:])
        ]
    return table[0], abs(table[0] - upper)


def integrate_oscillatory_tails(f: Callable[..., np.ndarray], half_width, a: float, d):
    """Integral of the even ``f`` over (-inf, inf), twice its integral over
    [0, inf), for 1/x-decaying integrands that oscillate at the frequency
    ``a``, with the period pi / a.

    The partial integral over [-X, X] behaves as S(X) = S - c1/X - c2/X^2 - ...
    with coefficients that are constant when X is restricted to even multiples
    of the oscillation period, so S is recovered by polynomial extrapolation in
    1/X over the ladder X0, 2*X0, ..., 2^(TAIL_LEVELS-1)*X0, each partial
    integral twice f's over [0, X].

    The ladder's rungs are packed into one kept row of nodes per start m0
    (:func:`_ladder`), which f sees in chunks, and each rung is reduced by
    its own np.dot, in ladder order (:func:`_row_sums`).  f gets each chunk's
    nodes x, the rows' d, and the ladder's phases sin(a x) and cos(a x) at
    those nodes.

    Returns (value, error estimate from the extrapolation table), a row per
    d, each row extrapolated on its own (:func:`_extrapolate_to_zero`).
    Refuses, before evaluating ``f``, a start m0 whose ladder over [-X, X]
    would take over MAX_PANELS panels, m0 2^TAIL_LEVELS: twice the panels
    of the half-line it runs on, so the span it refuses stays that of the
    whole line.
    """
    d = np.asarray(d, dtype=float)
    period = float(np.pi / a)  # a Python float: the rows' extrapolation runs on them
    half_width = np.full(d.size, half_width)
    # initial half-width: smallest even multiple of the period >= half_width
    starts = np.maximum(2.0, 2.0 * np.ceil(half_width / (2.0 * period))).tolist()
    for h, m0 in zip(half_width.tolist(), starts):
        if m0 * 2**TAIL_LEVELS > MAX_PANELS:
            raise NumericError(
                f"half-width {h:.4g} needs a ladder of over MAX_PANELS = {MAX_PANELS} panels"
            )
    sums = _row_sums(f, d, [int(m0) for m0 in starts], lambda count: _ladder(count, a))
    value, err = [], []
    row_starts = np.repeat(starts, math.prod(sums.shape[1:-1])).tolist()
    for rungs, m0 in zip(sums.reshape(-1, TAIL_LEVELS).tolist(), row_starts):
        # 1 / X at the ends of the rungs, and the partial integrals over [-X, X] there
        ts = [1.0 / (m0 * period * 2.0**level) for level in range(TAIL_LEVELS)]
        v, e = _extrapolate_to_zero(ts, [2.0 * p for p in itertools.accumulate(rungs)])
        value.append(v)
        err.append(e)
    shape = sums.shape[:-1]
    return np.reshape(value, shape), np.reshape(err, shape)


@lru_cache(maxsize=8)
def _ladder(m0: int, a: float):
    """The ladder from m0 periods pi / a, packed, as a :func:`_row_sums`
    layout: its node count n, the slices of its rungs, and its nodes x,
    weights, and phases sin(a x) and cos(a x) as read-only (1, n) arrays.
    The rungs, in order, are [0, X0], then [X_l-1, X_l] for each
    X_l = 2^l X0, a panel a period.  Built once per (m0, a) and kept:
    PANEL_NODES m0 2^(TAIL_LEVELS - 1) nodes, 0.3 MiB with the weights and
    phases at the sinc start width."""
    x0 = m0 * (np.pi / a)
    spans = [(0.0, x0, m0)]
    for level in range(1, TAIL_LEVELS):
        spans.append((x0 * 2 ** (level - 1), x0 * 2**level, m0 * 2 ** (level - 1)))
    x, w = (np.concatenate(v, axis=-1) for v in zip(*(_panel_nodes(*s) for s in spans)))
    ax = a * x
    ends = np.cumsum([0] + [PANEL_NODES * n for _, _, n in spans]).tolist()
    segments = tuple(slice(*e) for e in zip(ends, ends[1:]))
    return x.size, segments, _read_only(x, w, np.sin(ax), np.cos(ax, out=ax))


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


# an integral converges when its error estimate is below the larger of its
# relative tolerance (direct imaging's is DIRECT_REL_TOL) times it and QUAD_ABS_TOL
QUAD_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-12
DIRECT_REL_TOL = 1e-7


def check_converged(value, err, rel_tol: float, abs_tol: float, what):
    """Raise NumericError when an integral's error estimate exceeds tolerance.

    ``value`` and ``err`` may be arrays of one shape, judged elementwise, on
    Python floats, which costs a few values far less than numpy's
    reductions; the message names the first failing element.  ``what``
    names the integral, or, as a sequence, each entry along the last axis of
    ``value``.
    """
    values, errs = (np.asarray(a).ravel().tolist() for a in (value, err))
    for k, (v, e) in enumerate(zip(values, errs)):
        if not math.isfinite(v) or e > max(abs_tol, rel_tol * abs(v)):
            name = what if isinstance(what, str) else what[k % len(what)]
            raise NumericError(
                f"quadrature for {name} did not converge: value={v!r}, "
                f"error estimate={e:.3e}, rel_tol={rel_tol:.1e}, abs_tol={abs_tol:.1e}"
            )
    return value
