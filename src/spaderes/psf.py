"""Amplitude transfer functions, their widths, and PSF-adapted quadrature.

A point source at the object plane produces a real amplitude profile u(x) at
the image plane; |u(x)|^2 is the single-photon detection density.  Supported
profiles:

* ``gaussian``  u(x) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2)
* ``sinc``      u(x) = sqrt(a/pi) sinc(a x), a = sqrt(3) / (2 sigma)
* ``tabulated`` cubic-spline interpolant of sampled (position, amplitude) data,
                0 outside the grid hull

u and u' of the analytic kinds come from one evaluator each, which takes
every displaced image u(x - s) an integrand needs in one call:
:func:`_gaussian_images`, one exp per image and node, and
:func:`_sinc_images`, one sin and one cos of a x per node, shared by all
images through angle addition (direct sin and cos of a (x - s) near each
image peak, and a Taylor series where |a (x - s)| < 1).
:func:`quad_over_psf` calls them on its rows of nodes, and :func:`eval_u`
and :func:`eval_u_prime` at s = 0.

The characteristic width sigma is defined through the derivative energy,
sigma = (1/2) (integral of u'(x)^2 dx)^(-1/2); for the analytic kinds it
coincides with the constructor parameter.  A :class:`TransferFunction` is
checked once, when built, and its ``sigma`` is the width every kernel reads.
The binary demultiplexer sorts into v0(x) = u(x) and the derivative mode
v1(x) = -2 sigma u'(x), an orthonormal pair for real u.

:func:`quad_over_psf` is the one place where an analytic PSF is evaluated
under a quadrature: its integrand takes u and u' of the displaced images
and never evaluates the PSF itself.  Every integrand it takes is of a pair
of images at +-margin (direct imaging's at +-d, the mode overlap's at
+-d/2, the derivative energy's both at 0) and even in x, and runs over
x >= 0 only, doubled.  Gaussian integrands are truncated at 10 sigma about
the images (tails < 1e-22): one span [0, H], H = 10 sigma past the
positive image, until the windows about the origin and about the positive
image lie apart, then each alone, so the cost stops growing with d and a
product of the images, whose mass sits at the origin, keeps its relative
precision; every span maps a unit template of panel nodes, kept per count,
by its width.  Sinc integrands decay only as 1/x and are handled by the
tail-extrapolated ladder in :mod:`spaderes.integrate` with panels aligned
to the oscillation period pi/a: TAIL_LEVELS rungs from
SINC_HALF_WIDTH_OVER_A / a past the margin d (and, once d is past
SINC_HALF_WIDTH_OVER_A / a, as far again past it, so that the first rungs
stay clear of the images), packed into one kept row of nodes per start,
8,192-9,216 nodes a d on 0-5 sigma, in one or two chunks.  The ladder keeps
the phases sin(a x) and cos(a x) of its nodes with them, and the sinc
evaluator takes each chunk's phases from it.  The mode overlaps of
:mod:`spaderes.overlap` take it for the Gaussian only: sinc overlaps are
integrated over the flat spectrum.

A tabulated PSF is its spline's pieces, :class:`SplinePieces`, fitted once
(scipy's ``CubicSpline`` only supplies the coefficients; it is imported when
a table is fitted, so an analytic PSF never loads scipy) and zero outside
the grid hull; its norm and derivative energy are exact per piece, so no
tabulated integral is cut off at the hull.  That class alone reads the
pieces.  It evaluates u, u' and v1 at points, and :meth:`SplinePieces.pairs`
pairs each piece of u(x) with the pieces of a displaced copy u(x - d) it
meets, under one Gauss-Legendre rule, for every d of an array, by one walk
per grid layout: the one place where the layout is decided, for the mode
overlap and the direct-imaging information alike.  A uniform grid's pieces
are re-centred on an exact lattice, :class:`UniformLattice`: with
d = m h + delta every piece splits at delta, and on each half the pieces
lag .. n - 1 meet the displaced pieces 0 .. n - lag - 1 at node vectors that
all of them share, so each side is one product of the nodes' powers with
contiguous rows.  Any other grid merges the breakpoints of the grid and the
displaced grid, d by d (:meth:`SplinePieces.blocks`): the test oracle of the
lattice.  Either walk yields only pairs of two spline pieces; where one
image lies alone, the energy of u' there is the spline's own
(:meth:`SplinePieces.edge_energy`), from prefix sums over whole pieces and
the exact antiderivative of u'^2 on the cut piece.  The lattice also keeps,
lag by lag, the mode overlap and its derivative as exact polynomials in the
offset (:meth:`UniformLattice.rows`), so a d costs its lag and one Horner
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import UnsupportedKindError, ValidationError
from .integrate import (
    NODES_PER_BLOCK,
    _gl_nodes,
    _read_only,
    check_converged,
    composite_gauss_legendre,
    integrate_oscillatory_tails,
)

GAUSSIAN = "gaussian"
SINC = "sinc"
TABULATED = "tabulated"

KINDS = (GAUSSIAN, SINC, TABULATED)

# Truncation choices; see module docstring.
GAUSSIAN_HALF_WIDTH_SIGMAS = 10.0
# the tail ladder's start, in units of 1/a: on 0-30 sigma its error estimate is
# at most 2e3 times the true error, against 6e3 from 40 / a and 1.3e4 from 35 / a
SINC_HALF_WIDTH_OVER_A = 50.0
# an integral converges when its error estimate is below the larger of
# QUAD_REL_TOL times its value and QUAD_ABS_TOL
QUAD_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-12

# Largest |norm - 1| of a tabulated PSF; TransferFunction refuses a larger one.
TABULATED_NORM_TOL = 1e-3

# Taylor coefficients of sinc t = sin t / t in powers of t^2, (-1)^n / (2n + 1)!,
# and of its derivative in odd powers of t: ten terms leave under 4e-19 of
# either for |t| < 1, where the closed forms lose digits to cancellation
_SINC_TAYLOR = np.array([(-1) ** n / math.factorial(2 * n + 1) for n in range(10)])
_SINC_DERIV_TAYLOR = 2.0 * np.arange(1, 10) * _SINC_TAYLOR[1:]
_SINC_POWERS = np.arange(10)


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Real, normalized amplitude transfer function u(x).

    Instances are immutable; build them with :func:`gaussian_psf`,
    :func:`sinc_psf`, :func:`tabulated_psf` or :func:`load_tabulated`.
    Construction is the one check of a PSF: it refuses a kind outside
    ``KINDS``, a sigma that is not finite and positive, a tabulated kind
    without its spline or with a sigma not its spline's, an analytic kind
    with a spline, and a norm off 1 by more than ``TABULATED_NORM_TOL``.
    A tabulated PSF's grid, norm and span are its spline's
    (:class:`SplinePieces`), which every kernel reads, so no second copy of
    them can disagree.
    """

    kind: str
    sigma: float
    _pieces: SplinePieces | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKindError(f"unknown PSF kind {self.kind!r}; expected one of {KINDS}")
        if not 0.0 < self.sigma < np.inf:
            raise ValidationError(f"sigma must be finite and positive, got {self.sigma}")
        pieces = self._pieces
        if self.kind != TABULATED:
            if pieces is not None:
                raise ValidationError(f"a {self.kind} PSF carries no spline")
            return
        if pieces is None:
            raise ValidationError("a tabulated PSF needs its spline: build it with tabulated_psf")
        if self.sigma != pieces.sigma:
            raise ValidationError(f"sigma {self.sigma} is not its spline's, {pieces.sigma}")
        if not abs(pieces.norm - 1.0) <= TABULATED_NORM_TOL:
            raise ValidationError(
                f"tabulated PSF is not normalized: integral of u^2 = {pieces.norm:.6g}"
            )

    @property
    def grid(self) -> np.ndarray | None:
        """The tabulated kind's sample positions, its spline's; None otherwise."""
        return None if self._pieces is None else self._pieces.x

    @property
    def norm(self) -> float:
        """Integral of u^2: the tabulated kind's spline's, 1 otherwise."""
        return 1.0 if self._pieces is None else self._pieces.norm

    @property
    def a(self) -> float:
        """Sinc frequency scale a = sqrt(3) / (2 sigma)."""
        if self.kind != SINC:
            raise AttributeError("frequency scale is defined for the sinc kind only")
        return np.sqrt(3.0) / (2.0 * self.sigma)


def _horner(coef, x):
    """The polynomial with rows ``coef``, highest degree first, at x; in place
    on one array, since a spline kernel's arrays are large."""
    out = coef[0] * x
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _square_terms(coef, h: np.ndarray, n_nodes: int) -> np.ndarray:
    """The terms (nodes, pieces) of the integral of the square of a piecewise
    polynomial, by n_nodes-point Gauss-Legendre on each piece: exact up to
    degree 2 n_nodes - 1.

    ``coef`` holds the Horner rows, highest degree first, over pieces of width h.
    """
    x, w = _gl_nodes(n_nodes)
    v = _horner(coef, 0.5 * h * (1.0 + x[:, None]))
    return 0.5 * h * w[:, None] * v * v


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """0 and the running sums of the 1-D ``terms``, each within about an ulp:
    the rounding error of each step of np.cumsum is taken exactly (two-sum),
    summed on its own and added back."""
    total = np.cumsum(terms)
    before = np.concatenate([[0.0], total[:-1]])
    back = total - before
    lost = (before - (total - back)) + (terms - back)
    return np.concatenate([[0.0], total + np.cumsum(lost)])


def _square_antiderivative(a, b, c) -> list:
    """The rows, highest degree first, of the integral over [0, r] of
    (a s^2 + b s + c)^2 ds, a polynomial of degree 5 in r with no constant."""
    return [a * a / 5.0, 0.5 * a * b, (b * b + 2.0 * a * c) / 3.0, b * c, c * c]


# rows of SplinePieces.coef, highest degree first, of u, u' and the derivative mode
_ROWS = {"u": (0, 1, 2, 3), "du": (4, 5, 2), "v1": (6, 7, 8)}
# the powers of SplinePieces.edge_rows, and each end's step from x_0 and x_n-1
_QUINTIC = np.arange(5.0, -1.0, -1.0)
_ENDS = np.array([1.0, -1.0])


@dataclass(frozen=True, eq=False)
class SplinePieces:
    """A tabulated PSF: its cubic spline as per-piece coefficient rows, zero
    outside the grid hull.

    On the piece [x_k, x_k+1], with s = x - x_k, u = ((k0 s + k1) s + k2) s + k3
    and u' = (3 k0 s + 2 k1) s + k2.  ``coef`` stacks the rows k0, k1, k2, k3,
    3 k0, 2 k1 and the derivative mode's -6 sigma k0, -4 sigma k1, -2 sigma k2,
    padded with a zero piece on each side: index 0 lies left of the grid hull,
    index k + 1 is spline piece k, and index n lies right of the hull.
    ``origin`` is each index's s = 0 point, and ``span`` the hull's width
    that every kernel reads.  ``edge_rows`` holds, for each spline piece and
    each end of the hull, the integral of u'^2 from that end to the point r
    into the piece from the same side (past x_k from the left, before x_k+1
    from the right) as a polynomial in r: the exact antiderivative on the
    piece, whose constant row is the energy of the whole pieces between the
    piece and that end.  Only this class reads the rows: :meth:`evaluate`,
    :meth:`hull_step` and :meth:`edge_energy` at points, and :meth:`pairs`
    at quadrature nodes, on the ``lattice`` of a uniform grid
    (:class:`UniformLattice`; None on any other grid) or on the merged
    breakpoints (:meth:`blocks`).
    """

    x: np.ndarray
    origin: np.ndarray
    coef: np.ndarray
    span: float  # x_n-1 - x_0
    norm: float  # integral of u^2
    energy: float  # integral of u'^2
    sigma: float
    edge_rows: np.ndarray  # (left or right end, rows of degree 5 .. 0, pieces)
    lattice: UniformLattice | None

    @classmethod
    def fit(cls, grid: np.ndarray, values: np.ndarray, normalize: bool) -> SplinePieces:
        """The not-a-knot cubic spline through the samples, rescaled to unit L2
        norm if ``normalize``; its norm and energy are exact per piece."""
        from scipy.interpolate import CubicSpline  # here, so an analytic PSF never loads scipy

        h = np.diff(grid)
        k = CubicSpline(grid, values).c
        # u^2 has degree 6 on each piece: 4 nodes integrate it exactly
        norm = _square_terms(k, h, 4).sum()
        if normalize:
            if norm <= 0:
                raise ValidationError("cannot normalize a zero amplitude profile")
            k = CubicSpline(grid, values / np.sqrt(norm)).c
            norm = 1.0
        k0, k1, k2, k3 = k
        rows = [k0, k1, k2, k3, 3.0 * k0, 2.0 * k1]
        # u'^2 has degree 4: 3 nodes
        terms = _square_terms([rows[r] for r in _ROWS["du"]], h, 3)
        energy = terms.sum()
        if energy <= 0:
            raise ValidationError("derivative energy of tabulated PSF is not positive")
        sigma = 0.5 / np.sqrt(energy)
        rows += [-6.0 * sigma * k0, -4.0 * sigma * k1, -2.0 * sigma * k2]
        # u' = a s^2 + b s + c on each piece, and about its right end, at x_k+1 - s
        a, b, c = rows[4], rows[5], k2
        right = [a, -(2.0 * a * h + b), (a * h + b) * h + c]
        # the energy of the pieces before each piece and after it
        piece = terms.sum(axis=0)
        before, after = _running_sums(piece[:-1]), _running_sums(piece[:0:-1])[::-1]
        edge_rows = np.stack(
            [_square_antiderivative(a, b, c) + [before], _square_antiderivative(*right) + [after]]
        )
        n = grid.size
        uniform = np.array_equal(grid, grid[0] + np.arange(n) * ((grid[-1] - grid[0]) / (n - 1)))
        return cls(
            x=grid,
            origin=grid[np.clip(np.arange(-1, n), 0, n - 2)],
            coef=np.pad(np.stack(rows), ((0, 0), (1, 1))),
            span=grid[-1] - grid[0],
            norm=norm,
            energy=energy,
            sigma=sigma,
            edge_rows=edge_rows,
            lattice=UniformLattice.fit(grid, [rows[r] for r in _ROWS["v1"] + _ROWS["u"]])
            if uniform
            else None,
        )

    def evaluate(self, what: str, x) -> np.ndarray:
        """u (``what="u"``), u' (``"du"``) or v1 (``"v1"``) at the points x, 0
        outside the grid hull, where x falls on a zero pad."""
        grid = self.x
        # x_n-1 itself lies on the last spline piece, not on the pad past it
        k = np.searchsorted(grid, x, side="right") - (x == grid[-1])
        coef = [self.coef[r][k] for r in _ROWS[what]]
        # x clipped to the hull keeps s finite: a pad's zero rows give 0 at x = +-inf too
        return _horner(coef, np.minimum(np.maximum(x, grid[0]), grid[-1]) - self.origin[k])

    def hull_step(self, ad: np.ndarray) -> np.ndarray:
        """v1(x_0 + ad) u(x_0) at each ad of the 1-D array, 0 <= ad < span: what
        the step of u(x - d) at x_0 + |d| adds to -dc/dd, c = <v1, u(. - d)>."""
        return self.coef[3][1] * self.evaluate("v1", self.x[0] + ad)

    def edge_energy(self, s: np.ndarray) -> np.ndarray:
        """The integral of u'^2 over [x_0, x_0 + s] plus that over
        [x_n-1 - s, x_n-1], at each s of the 1-D array, 0 <= s < span.

        Each end's point falls in one spline piece, r into it from that end:
        the whole pieces between are the constant row of ``edge_rows``, and
        the cut piece its exact antiderivative at r.  Each value is a sum of
        terms of its own s, so an s gives the same bits alone or inside an
        array.
        """
        x = self.x
        at = x[[0, -1]] + s[:, None] * _ENDS
        k = np.searchsorted(x[1:-1], at, side="right")
        # r from x_k at the left end, and to x_k+1 at the right
        r = np.abs(at - x[k + (0, 1)])
        terms = self.edge_rows[(0, 1), :, k] * r[..., None] ** _QUINTIC
        return terms.sum(axis=(1, 2))

    def pairs(self, shift: np.ndarray, rule, fixed, shifted):
        """Each piece of u(x) with each piece of u(x - shift) it meets, for every
        value of the 1-D ``shift``, and a Gauss-Legendre ``rule`` on the
        interval they share, given on [0, 1] as nodes and weights per unit
        width.

        ``fixed`` and ``shifted`` name what to evaluate, of "u", "du" and
        "v1", on u(x) and on u(x - shift).  Yields (rows, weights, fixed
        values, shifted values): ``rows`` indexes ``shift``, the weights
        broadcast to (rows, nodes, pieces) and each side's values to (names,
        rows, nodes, pieces); a row's integral sums what is yielded for it,
        in order.  Only pairs of two spline pieces count: where one image
        lies alone the weights are 0 or the interval is not yielded.  The
        walk is the lattice's on a uniform grid (:meth:`UniformLattice.pairs`),
        else the merged breakpoints' (:meth:`blocks`).
        """
        walk = self.blocks if self.lattice is None else self.lattice.pairs
        return walk(shift, rule, fixed, shifted)

    def blocks(self, shift: np.ndarray, rule, fixed, shifted):
        """:meth:`pairs` on the merged breakpoints of x and x + shift, between
        which u(x) and u(x - shift) are each one spline piece or a zero pad
        outside the hull (index 0 or x.size, which takes weight 0): a block
        of rows of at most NODES_PER_BLOCK nodes at a time, ``rows`` its
        slice of ``shift``, every operation along the pieces.
        """
        x = self.x
        nodes, weights = rule
        per_block = max(1, NODES_PER_BLOCK // (2 * x.size * nodes.size))
        for start in range(0, shift.size, per_block):
            block = slice(start, start + per_block)
            offset = shift[block][:, None]
            merged = np.concatenate([np.broadcast_to(x, (offset.size, x.size)), x + offset], axis=1)
            order = np.argsort(merged, axis=1, kind="stable")
            from_shifted = order[:, :-1] >= x.size
            edges = np.take_along_axis(merged, order, axis=1)
            i, j = (np.cumsum(m, axis=1)[:, None, :] for m in (~from_shifted, from_shifted))
            width = np.diff(edges, axis=1)[:, None, :]
            step = width * nodes[:, None]  # nodes past each left edge
            left = edges[:, None, :-1]
            values = []
            for names, piece, origin in (
                (fixed, i, self.origin[i]),
                (shifted, j, self.origin[j] + offset[:, None]),
            ):
                at = (left - origin) + step
                coefs = [[self.coef[r][piece] for r in _ROWS[name]] for name in names]
                values.append(np.stack([_horner(c, at) for c in coefs]))
            paired = (i % x.size > 0) & (j % x.size > 0)
            yield block, np.where(paired, width, 0.0) * weights[:, None], *values


@dataclass(frozen=True, eq=False)
class UniformLattice:
    """A spline on a uniform grid, re-centred on the exactly uniform lattice
    x_0 + i h, with the rows of its mode overlap by lag.

    A grid is uniform when x_i == x_0 + i h in floating point for
    h = (x_n-1 - x_0) / (n - 1).  Its points then lie within a few ulps e_i
    of the lattice whose spacing is the exact span over the piece count,
    carried as h = h_hi + h_lo with 26 bits in h_hi, so that m h_hi is exact.
    ``v1`` holds the derivative mode's rows and ``images`` those of u and of
    u' (after a zero row), highest degree first, of every piece re-centred
    from x_i on x_0 + i h: to first order in e_i, which is exact to rounding
    (the e_i^2 terms are under 1e-29 of the rows).  The spline is C^2, so
    taking piece i on [i h, (i + 1) h] rather than between its own knots
    moves u by O(e^3) and v1 by O(e^2): under 1e-28 of either.  The lattice
    ends where the grid does, to the rounding of h_lo.  :meth:`pairs` walks
    the pieces split at a displacement's offset (:meth:`lags`), :meth:`at`
    evaluates a run of pieces at local coordinates they share, and
    :meth:`rows` gives c and c' on each lag as polynomials in the offset,
    built on first use and kept.
    """

    h_hi: float
    h_lo: float
    v1: np.ndarray  # (3, pieces)
    images: np.ndarray  # (2, 4, pieces)
    # the rows of c and c' by lag, and which lags are built: zeros until a call asks
    _rows: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        lags = self.v1.shape[1] + 1  # the last lag, past every piece, stays 0
        built = np.arange(lags) == lags - 1
        object.__setattr__(self, "_rows", (np.zeros((7, lags, 2)), built))

    @classmethod
    def fit(cls, grid: np.ndarray, rows) -> UniformLattice:
        """The lattice of a uniform ``grid`` and its pieces' ``rows``: v1's
        three, then u's four, each over the pieces."""
        n = grid.size - 1
        # x_i - x_0 as offset + offset_lo, exactly (two-sum)
        offset = grid - grid[0]
        back = offset - grid
        offset_lo = (grid - (offset - back)) - (grid[0] + back)
        span = offset[-1]
        split = span / n * (2.0**27 + 1.0)
        h_hi = split - (split - span / n)
        h_lo = ((span - n * h_hi) + offset_lo[-1]) / n
        # e_i = (x_i - x_0) - i h, by exact differences but the last
        i = np.arange(float(n))
        e = ((offset[:-1] - i * h_hi) + offset_lo[:-1]) - i * h_lo
        (a2, a1, a0), (k0, k1, k2, k3) = rows[:3], rows[3:]
        u = [k0, k1 - 3.0 * k0 * e, k2 - 2.0 * k1 * e, k3 - k2 * e]
        return cls(
            h_hi=h_hi,
            h_lo=h_lo,
            v1=np.stack([a2, a1 - 2.0 * a2 * e, a0 - a1 * e]),
            images=np.stack([u, [np.zeros_like(k0), 3.0 * u[0], 2.0 * u[1], u[2]]]),
        )

    def lags(self, d: np.ndarray):
        """The lags m and m + 1 of each d of the 1-D array, d = m h + delta
        with 0 <= delta < h, as an integer array of shape (d.size, 2), and the
        offsets d - lag h: (delta, delta - h), each to rounding of itself."""
        h_hi, h_lo = self.h_hi, self.h_lo
        d = d[:, None]
        lags = np.floor(d / (h_hi + h_lo)) + _NEXT_LAG
        offsets = (d - lags * h_hi) - lags * h_lo
        # the rounded quotient may land one lag off; the offsets' signs decide
        if ((offsets[:, :1] < 0) | (offsets[:, 1:] >= 0)).any():
            lags += 1.0 * (offsets[:, 1:] >= 0) - 1.0 * (offsets[:, :1] < 0)
            offsets = (d - lags * h_hi) - lags * h_lo
        return lags.astype(np.intp), offsets

    def pairs(self, shift: np.ndarray, rule, fixed, shifted):
        """:meth:`SplinePieces.pairs` on the lattice, a row of ``shift`` and a
        half at a time, ``rows`` its index.  With shift = m h + delta
        (:meth:`lags`) every piece splits at delta.  On lag m the pieces
        m .. n - 1 at the nodes s in [delta, h] meet the displaced pieces
        0 .. n - m - 1 at t = s - delta in [0, h - delta]; on lag m + 1 the
        pieces m + 1 .. n - 1 at s in [0, delta] meet 0 .. n - m - 2 at
        t = s - delta + h in [h - delta, h]; n is the piece count.  So the
        nodes of a half are two vectors that every piece shares.  A lag at or
        past n (a shift within rounding of the span) meets nothing and is
        skipped.
        """
        n = self.v1.shape[1]
        nodes, weights = rule
        lags, offsets = self.lags(shift)
        s_from, t_from = np.maximum(offsets, 0.0), np.maximum(-offsets, 0.0)
        width = (s_from + t_from)[:, ::-1, None]
        s, t = (start[..., None] + width * nodes for start in (s_from, t_from))
        w = (width * weights)[..., None]
        for row, row_lags in enumerate(lags.tolist()):
            for half, lag in enumerate(row_lags):
                if lag < n:
                    here = self.at(s[row, half], fixed, slice(lag, n))
                    yield row, w[row, half], here, self.at(t[row, half], shifted, slice(0, n - lag))

    def at(self, s: np.ndarray, names, pieces: slice) -> np.ndarray:
        """What ``names`` names, "v1" alone or "u" and "du", on the lattice
        pieces ``pieces`` at the local coordinates of the 1-D ``s``, the same
        on every piece: (names, s.size, pieces), one product of the nodes'
        powers with the rows."""
        if names == ["v1"]:
            return (_powers(s)[:, 1:] @ self.v1[:, pieces])[None]
        if names == ["u", "du"]:
            return np.matmul(_powers(s), self.images[:, :, pieces])
        raise ValueError(f"the lattice evaluates v1 alone, or u and du, not {names}")

    def rows(self, lags: np.ndarray) -> np.ndarray:
        """The rows of c(d) = <v1, u(. - d)> and of c' = dc/dd on each lag m
        of the 1-D integer array ``lags``, as polynomials in w = (delta - h) / h
        for d = m h + delta: (7, lags.size, 2), highest degree first, c then
        c'.  Lags at or past the piece count are 0.

        On v1's piece i at s = h r, u(x - d) is on piece i - m for r in
        [x, 1] and on piece i - m - 1 for r in [0, x], x = delta / h = 1 + w,
        so summed over i, c is the sum over the rows' degrees (a, b) of
        h^(a + b + 1) (S_m J1_ab(w) + S_m+1 J2_ab(w)), with the lag sums
        S_m(a, b) = sum over i of v1_a[i + m] u_b[i] and the constant tables
        J of :data:`_LAG_INTEGRALS`.  c' takes u's rows differentiated, less
        the term of u(x - d)'s step at the hull, u(x_0) v1_m(delta).  Every
        J1 term vanishes at w = 0, so near the span, where S_m+1 is 0, c
        keeps its relative precision.

        A lag's rows are built on its first use and kept, each from its own
        sums, so a lag gives the same bits whichever call built it (two
        threads that build one lag at once write the same bits).
        """
        table, built = self._rows
        lags = np.minimum(lags, built.size - 1)
        if not built[lags].all():
            h = self.h_hi + self.h_lo
            hh = h * h
            # h^(a + b + 1) by (u's row q, v1's row p): degrees a = 2 - p, b = 3 - q
            scale = h ** (6.0 - np.add.outer(np.arange(4.0), np.arange(3.0)))
            images, v1, n = self.images[:, :, None, :], self.v1, self.v1.shape[1]
            a2, a1, a0 = v1
            u0 = self.images[0, 3, 0]
            for m in np.unique(lags[~built[lags]]).tolist():
                # S over (lag m or m + 1, u or u', u's row, v1's row), 0 past the last piece
                sums = [(images[..., : n - k] * v1[:, k:]).sum(axis=-1) for k in (m, m + 1)]
                c, cp = np.einsum("hjqp,hqpk->jk", scale * np.stack(sums), _LAG_INTEGRALS)
                # the step's term u(x_0) v1_m(h (1 + w)), a quadratic in w
                cp[-3:] += u0 * np.array(
                    [a2[m] * hh, 2.0 * a2[m] * hh + a1[m] * h, a2[m] * hh + a1[m] * h + a0[m]]
                )
                table[:, m, 0], table[:, m, 1] = c, -cp
                built[m] = True
        return table[:, lags]


def _lag_integrals() -> np.ndarray:
    """J[half, q, p, k]: the coefficients of w^(6 - k) of J1_ab(w) (half 0)
    and J2_ab(w) (half 1), x = 1 + w, for v1's row p and u's row q, of
    degrees a = 2 - p and b = 3 - q:

        J1_ab = integral over [x, 1] of s^a (s - x)^b ds
              = sum over i of C(a, i) (1 + w)^(a - i) (-w)^(i + b + 1) / (i + b + 1),
        J2_ab = integral over [0, x] of s^a (s - x + 1)^b ds
              = sum over j of C(b, j) (-w)^j (1 + w)^(a + b - j + 1) / (a + b - j + 1).

    Each is an integer over 60, the least common multiple of the
    denominators 1 .. 6, so each coefficient is one rounding of its value.
    """
    comb = math.comb
    numerators = np.zeros((2, 4, 3, 7), dtype=np.int64)
    for q, p in np.ndindex(4, 3):
        a, b = 2 - p, 3 - q
        # each term as (+-C, power of w, power of 1 + w, denominator)
        parts = (
            [(comb(a, i) * (-1) ** (i + b + 1), i + b + 1, a - i, i + b + 1) for i in range(a + 1)],
            [(comb(b, j) * (-1) ** j, j, a + b - j + 1, a + b - j + 1) for j in range(b + 1)],
        )
        for half, terms in enumerate(parts):
            for factor, w_power, binomial, n in terms:
                for k in range(binomial + 1):
                    numerators[half, q, p, 6 - w_power - k] += factor * comb(binomial, k) * 60 // n
    return numerators / 60.0


_LAG_INTEGRALS = _lag_integrals()
# the lags m and m + 1 of a separation, from m
_NEXT_LAG = np.array([0.0, 1.0])
# the exponents of a cubic row's terms, highest degree first
_CUBIC = np.arange(3.0, -1.0, -1.0)


def _powers(s: np.ndarray) -> np.ndarray:
    """s^3, s^2, s and 1 of the 1-D s, as (s.size, 4), so that the powers
    times a piece's rows are the piece at s."""
    return s[:, None] ** _CUBIC


def gaussian_psf(sigma: float) -> TransferFunction:
    """Gaussian transfer function of standard deviation ``sigma`` (of |u|^2)."""
    return TransferFunction(kind=GAUSSIAN, sigma=float(sigma))


def sinc_psf(sigma: float | None = None, a: float | None = None) -> TransferFunction:
    """Sinc transfer function, parameterized by ``sigma`` or the lobe scale ``a``."""
    if (sigma is None) == (a is None):
        raise ValidationError("specify exactly one of sigma or a")
    if sigma is None:
        if not 0.0 < a < np.inf:
            raise ValidationError(f"a must be finite and positive, got {a}")
        sigma = np.sqrt(3.0) / (2.0 * a)
    return TransferFunction(kind=SINC, sigma=float(sigma))


def tabulated_psf(grid, values, normalize: bool = False) -> TransferFunction:
    """Transfer function from sampled amplitudes, interpolated by a cubic spline.

    The derivative is taken from the spline, so the samples should resolve the
    PSF structure.  With ``normalize=True`` the amplitudes are rescaled to unit
    L2 norm; otherwise a norm off 1 by more than ``TABULATED_NORM_TOL`` is
    refused here, when the PSF is built.
    """
    # the spline's own copy of the grid, which no caller can change
    (grid,) = _read_only(np.array(grid, dtype=float))
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValidationError("tabulated grid needs at least 3 one-dimensional points")
    if values.shape != grid.shape:
        raise ValidationError("grid and values must have matching shapes")
    if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
        raise ValidationError("grid and values must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("tabulated grid must be strictly increasing")

    pieces = SplinePieces.fit(grid, values, normalize)
    return TransferFunction(kind=TABULATED, sigma=pieces.sigma, _pieces=pieces)


def load_tabulated(path, normalize: bool = False) -> TransferFunction:
    """Load a tabulated PSF from a two-column (position, amplitude) text file.

    Columns are whitespace-delimited; '#' starts a comment.
    """
    data = np.loadtxt(Path(path), comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValidationError(f"expected two columns (position, amplitude), got {data.shape[1]}")
    return tabulated_psf(data[:, 0], data[:, 1], normalize=normalize)


def _gaussian_images(sigma: float, x: np.ndarray, s: np.ndarray):
    """u and u' of the Gaussian at x - s: one exp per node and image, shared
    by u and u'."""
    s2 = sigma**2
    arr = x - s
    c = (2.0 * np.pi * s2) ** (-0.25)
    e = np.exp(-(arr**2) / (4.0 * s2))
    return c * e, (-(arr / (2.0 * s2)) * c) * e


def _sinc_near(t: np.ndarray):
    """sinc t and its derivative (cos t - sinc t) / t from sin and cos of t
    itself, and by Taylor series in t^2 where |t| < 1."""
    f, df = np.empty_like(t), np.empty_like(t)
    small = np.abs(t) < 1.0
    ts = t[small]
    powers = (ts * ts)[:, None] ** _SINC_POWERS
    f[small] = powers @ _SINC_TAYLOR
    df[small] = ts * (powers[:, :-1] @ _SINC_DERIV_TAYLOR)
    tl = t[~small]
    f[~small] = fl = np.sin(tl) / tl
    df[~small] = (np.cos(tl) - fl) / tl
    return f, df


def _sinc_images(a: float, x: np.ndarray, s: np.ndarray, trig=None):
    """u and u' of the sinc at x - s, from one sin and one cos of a x per node:
    (images, rows, n) for (rows or 1, n) nodes x and (images, rows or 1, 1) shifts s.

    With t = a (x - s), u = k sin t / t and u' = (k cos t - u) / (x - s),
    k = sqrt(a / pi).  sin t and cos t follow from sin(a x), cos(a x) and
    sin(a s), cos(a s) by angle addition, in place.  That sum cancels where
    |t| < |a s|: a x and a s carry rounding errors of order eps |a s|, which
    would be a large part of a small t.  So near a row's image peaks, on the
    nodes with |x| < |s| + max(1/a, |s|) for its largest |s| (every node with
    |t| < max(1, |a s|), a few dozen in a quadrature over thousands), sin and
    cos are taken of t itself (:func:`_sinc_near`), a row at a time, as its
    matrix product rounds by position.  That keeps every value within a few
    eps of the peak of exact, and a row's bits those it has alone.  ``trig``,
    if given, is sin(a x) and cos(a x) of these nodes with the same bits,
    such as the tail ladder's phases.
    """
    k = np.sqrt(a / np.pi)
    if trig is None:
        ax = a * x
        trig = np.sin(ax), np.cos(ax, out=ax)
    sin_ax, cos_ax = trig
    sin_as, cos_as = np.sin(a * s), np.cos(a * s)
    u = sin_ax * (k / a * cos_as)
    u -= cos_ax * (k / a * sin_as)  # k sin t / a
    du = cos_ax * (k * cos_as)
    du += sin_ax * (k * sin_as)  # k cos t
    reach = np.max(np.abs(s), axis=0, initial=0.0)
    rows, nodes = np.nonzero(np.abs(x) < reach + np.maximum(1.0 / a, reach))
    r = x - s
    t_near = a * r[:, rows, nodes]
    r[:, rows, nodes] = 1.0
    inv = np.divide(1.0, r, out=r)
    u *= inv
    du -= u
    du *= inv
    if t_near.size:
        by_row = np.split(t_near, np.flatnonzero(np.diff(rows)) + 1, axis=1)
        f, df = (np.concatenate(v, axis=1) for v in zip(*map(_sinc_near, by_row)))
        u[:, rows, nodes] = k * f
        du[:, rows, nodes] = (k * a) * df
    return u, du


# the one image of eval_u and eval_u_prime, at no shift
(_NO_SHIFT,) = _read_only(np.zeros((1, 1, 1)))


def _eval(tf: TransferFunction, x, what: str):
    """u (``what="u"``) or u' (``"du"``) at x, of x's shape."""
    x = np.asarray(x, dtype=float)
    if tf.kind == TABULATED:
        return tf._pieces.evaluate(what, x)[()]
    if tf.kind == GAUSSIAN:
        u, du = _gaussian_images(tf.sigma, x, 0.0)
    else:
        u, du = (v.reshape(x.shape) for v in _sinc_images(tf.a, x.reshape(1, -1), _NO_SHIFT))
    return (du if what == "du" else u)[()]


def eval_u(tf: TransferFunction, x):
    """Amplitude u(x).  Scalar in, scalar out; arrays are evaluated pointwise.

    A tabulated PSF is its spline inside the grid hull and 0 outside it, the
    extension every tabulated integral uses.
    """
    return _eval(tf, x, "u")


def eval_u_prime(tf: TransferFunction, x):
    """Derivative du/dx: analytic for the closed-form kinds; for a tabulated
    PSF the spline's inside the grid hull and 0 outside it."""
    return _eval(tf, x, "du")


def sigma_of(tf: TransferFunction) -> float:
    """The width ``tf.sigma``; public only because ``bench/workloads.py``
    names it."""
    return tf.sigma


def quad_over_psf(
    tf: TransferFunction,
    f: Callable,
    margin: np.ndarray,
    rel_tol=QUAD_REL_TOL,
    what="psf integral",
):
    """Integrate f of the pair of images u(x + d) and u(x - d) over the whole
    line, a row for each margin d of the 1-D array ``margin``.

    Gaussian and sinc kinds only.  f(u, du) gets u and u' of the images, at
    x + d first, as arrays (2, rows, n) and returns (rows, n), or
    (k, rows, n) for k integrands that a sequence ``what`` names: the result
    is (d.size,) or (d.size, k).  f must be even in x: it runs over x >= 0
    only, doubled, so an odd f gets twice its half-line integral, not 0.
    The layouts' windows cover the images, and f must not change when they
    are mirrored, u(-x - d) = u(x + d) and u'(-x - d) = -u'(x + d).  An
    integral of one image is the pair's at margin 0.  Each row is reduced on
    its own with the bits it has alone (:mod:`spaderes.integrate`), and one
    :func:`check_converged` judges all rows.  The images come from the kind's
    evaluator, :func:`_gaussian_images` or :func:`_sinc_images`; on the sinc
    tail ladder, widened by |d|, with the ladder's phases sin(a x) and
    cos(a x), and its error estimate tracks its own extrapolation order.
    The Gaussian's domain is :func:`_gaussian_quadrature`'s.  A tabulated
    PSF's integrals run piece by piece on its spline (:class:`SplinePieces`).
    """
    if tf.kind == GAUSSIAN:
        value, err = _gaussian_quadrature(tf.sigma, f, margin)
    elif tf.kind == SINC:
        a = tf.a
        start = SINC_HALF_WIDTH_OVER_A / a
        ad = np.abs(margin)
        half = start + ad + np.maximum(0.0, ad - start)
        integrand = lambda x, d, *phases: f(*_sinc_images(a, x, _PAIR * d, phases))
        value, err = integrate_oscillatory_tails(integrand, half, a, margin)
    else:
        raise UnsupportedKindError(f"no kind-adapted quadrature for kind {tf.kind!r}")
    return check_converged(value, err, rel_tol, QUAD_ABS_TOL, what)


# the pair's images at x + d and x - d are u(x - k d) for these k
(_PAIR,) = _read_only(np.array([-1.0, 1.0])[:, None, None])


def _gaussian_quadrature(sigma: float, f: Callable, d: np.ndarray):
    """(value, error estimate) of the even f of the Gaussian images at
    x -+ d, twice its integral over x >= 0, a row per d, by panel doubling
    in one pass (:func:`composite_gauss_legendre`) on templates kept per
    panel count.

    Each image's window, GAUSSIAN_HALF_WIDTH_SIGMAS sigma either side of it,
    leaves out tails of order 1e-22.  The positive image sits at p = |d|.
    While the window about it overlaps the window [0, that width] about the
    origin (p under twice the width), a row takes one span of half-width
    H = that width + p: x = H y for y on the template [0, 1], the weights
    scaled by H.  Once they lie apart, it takes each alone: the origin's,
    where a product of the two images has its mass, on [0, 1], and the
    positive image's whole, on [-1, 1] about the image, whose shift is then
    exactly 0; so the cost no longer grows with d.  A span takes half of
    max(48, 4 H / sigma) panels on [0, 1] and max(48, 4 H / sigma) on
    [-1, 1]; no span is over three windows wide, far below the rule's
    MAX_PANELS refusal, which stays.
    """
    reach = GAUSSIAN_HALF_WIDTH_SIGMAS * sigma
    d = np.asarray(d, dtype=float)
    apart = np.abs(d) >= 2.0 * reach
    # the spans of a row, as (about the positive image, widened to reach it)
    near, far = [(False, True)], [(False, False), (True, False)]

    def spans_sum(spans, d):
        total = 0.0
        for about_image, widened in spans:
            half = reach + np.abs(d) if widened else reach
            panels = np.maximum(48.0, np.ceil(4.0 * half / sigma))
            if not about_image:
                panels = np.ceil(0.5 * panels)

            def integrand(y, d, about_image=about_image, widened=widened):
                image = np.abs(d)
                x = (reach + image if widened else reach) * y
                return f(*_gaussian_images(sigma, x, _PAIR * d - image if about_image else _PAIR * d))

            lo = -1.0 if about_image else 0.0
            fine, diff = composite_gauss_legendre(integrand, lo, 1.0, panels, d)
            scale = np.reshape(2.0 * half, (-1,) + (1,) * (fine.ndim - 1))
            total = total + scale * np.array([fine, diff])
        return total

    if apart.all() or not apart.any():
        return spans_sum(far if apart.all() else near, d)
    parts = [(rows, spans_sum(spans, d[rows])) for rows, spans in ((~apart, near), (apart, far))]
    value, err = np.zeros((2, d.size) + parts[0][1].shape[2:])
    for rows, (v, e) in parts:
        value[rows], err[rows] = v, e
    return value, err
