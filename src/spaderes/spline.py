"""A tabulated PSF's cubic spline, and every integral over its pieces.

A tabulated PSF is its spline's pieces, :class:`SplinePieces`, fitted once
(to the coefficients of scipy's not-a-knot ``CubicSpline``, bit for bit, by
its own system and LAPACK's tridiagonal solve ported to numpy, so no table
loads scipy) and zero outside
the grid hull; its norm and derivative energy are exact per piece, so no
tabulated integral is cut off at the hull.  Only this module reads the
pieces.  They evaluate u, u' and v1 at points, and :meth:`SplinePieces.pairs`
pairs each piece of u(x) with the pieces of a displaced copy u(x - d) it
meets, under one Gauss-Legendre rule, for every d of an array, by one walk
per grid layout: the one place where the layout is decided.  A uniform
grid's pieces are re-centred on an exact lattice, :class:`UniformLattice`:
with d = m h + delta every piece splits at delta, and on each half the
pieces lag .. n - 1 meet the displaced pieces 0 .. n - lag - 1 at node
vectors that all of them share, so each side is one product of the nodes'
powers with contiguous rows.  Any other grid merges the breakpoints of the
grid and the displaced grid, d by d (:meth:`SplinePieces.blocks`): the test
oracle of the lattice.  Either walk yields only pairs of two spline pieces;
where one image lies alone, the energy of u' there is the spline's own
(:meth:`SplinePieces.edge_energy`), from prefix sums over whole pieces and
the exact antiderivative of u'^2 on the cut piece.  The lattice also keeps,
lag by lag, the mode overlap and its derivative as exact polynomials in the
offset (:meth:`UniformLattice.rows`), so a d costs its lag and one Horner
pass.

Its three kernels take a 1-D array of |d|, each d a row reduced on its own
(so a d gets the same bits alone or inside an array): c = <v1, u(. - d)>
and c' = dc/dd piece by piece (:meth:`SplinePieces.overlaps`, the oracle
behind ``tau1_numeric``) or exactly (:meth:`SplinePieces.exact_overlaps`,
``tau1_exact``'s), and ``fi_direct``'s integral
(:meth:`SplinePieces.information`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .integrate import (
    DIRECT_REL_TOL, NODES_PER_BLOCK, QUAD_ABS_TOL, QUAD_REL_TOL, _gl_nodes, check_converged
)

P_FLOOR = 1e-300  # below this the density is treated as exactly zero
# 3-node Gauss-Legendre, exact for the degree-5 product of two spline pieces,
# on [0, 1]: its nodes and weights per unit width
_PIECE_RULE = (
    0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])),
    np.array([5.0, 8.0, 5.0]) / 18.0,
)
# rounding bound of a spline-exact overlap per unit of sum |w f|: about 15
# roundings in each term and the depth of numpy's pairwise summation, about
# 60 times the largest error seen against a long-double sum
_ROUNDING = 64 * np.finfo(float).eps
# Gauss-Legendre node counts on each piece of the direct-imaging integral:
# the larger rule gives the value, their difference its error estimate; the
# two packed as one rule, nodes and weights per unit width on [0, 1], and
# where each one's nodes start
_COARSE, _FINE = 4, 8
_NODES, _WEIGHTS = (np.concatenate(v) for v in zip(*map(_gl_nodes, (_COARSE, _FINE))))
_RULE = (0.5 * (1.0 + _NODES), 0.5 * _WEIGHTS)
_RULE_STARTS = np.array([0, _COARSE])


def _density(here, there):
    """p and dp/dd from u and u' of the images at x + d (``here``) and at
    x - d (``there``), in place on all four arrays."""
    (ua, dp), (ub, dub) = here, there
    dp *= ua
    dub *= ub
    dp -= dub
    ua *= ua
    ub *= ub
    ua += ub
    ua *= 0.5
    return ua, dp


def _information_density(p, dp):
    """(dp/dd)^2 / p, zero where p underflows below P_FLOOR."""
    dp *= dp
    return np.divide(dp, p, out=np.zeros_like(p), where=p > P_FLOOR)


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


def _not_a_knot_system(x: np.ndarray, h: np.ndarray, slope: np.ndarray):
    """The tridiagonal system for the slopes of the not-a-knot spline on 4 or
    more points, as scipy 1.17.1's ``CubicSpline`` sets it up, statement for
    statement: its sub-diagonal, diagonal, super-diagonal (with a trailing 0,
    see :func:`_dgtsv`) and right-hand side, as lists of floats."""
    n = x.size
    d = np.empty(n)
    d[1:-1] = 2 * (h[:-1] + h[1:])
    du = np.empty(n)
    du[1:-1] = h[:-1]
    dl = np.empty(n - 1)
    dl[:-1] = h[1:]
    b = np.empty(n)
    b[1:-1] = 3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    # the not-a-knot rows: u''' is continuous at x_1 and at x_n-2
    w = x[2] - x[0]
    d[0], du[0], du[-1] = h[1], w, 0.0
    b[0] = ((h[0] + 2 * w) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / w
    w = x[-1] - x[-3]
    d[-1], dl[-1] = h[-2], w
    b[-1] = (h[-1] ** 2 * slope[-2] + (2 * w + h[-1]) * h[-2] * slope[-1]) / w
    return dl.tolist(), d.tolist(), du.tolist(), b.tolist()


def _dgtsv(dl: list, d: list, du: list, b: list) -> list:
    """The solution of the tridiagonal system, in place on ``b``: LAPACK
    ``dgtsv`` for one right-hand side (what scipy's ``solve_banded((1, 1),
    ...)`` calls), statement for statement on Python floats, so the same
    roundings in the same order.

    Gaussian elimination with partial pivoting: where the sub-diagonal
    outweighs the pivot, rows i and i + 1 are interchanged, and dl[i] takes
    the fill-in of U's second super-diagonal (0 where they are not).  ``du``
    has one trailing entry more than LAPACK's, 0, which the last step's
    interchange reads as the fill-in it does not have.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            dl[i] = du[i + 1]
            du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    # the back solve with U
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _parabola_slopes(h: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """The slopes at 3 points of the parabola through them, which is their
    not-a-knot spline: m0 - c h0, (h1 m0 + h0 m1) / (h0 + h1) and m1 + c h1,
    with m the secant slopes and c = (m1 - m0) / (h0 + h1)."""
    (h0, h1), (m0, m1) = h, slope
    c = (m1 - m0) / (h0 + h1)
    return np.array([m0 - c * h0, (h1 * m0 + h0 * m1) / (h0 + h1), m1 + c * h1])


def _cubic_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through (x, y), as its Horner rows k0, k1,
    k2, k3 on each piece: scipy 1.17.1's ``CubicSpline(x, y).c`` bit for bit
    on 4 or more points, and on 3 the parabola through them, as
    ``CubicHermiteSpline`` forms the rows from the slopes."""
    h = np.diff(x)
    slope = np.diff(y) / h
    if x.size == 3:
        s = _parabola_slopes(h, slope)
    else:
        s = np.array(_dgtsv(*_not_a_knot_system(x, h, slope)))
    t = (s[:-1] + s[1:] - 2 * slope) / h
    return np.stack((t / h, (slope - s[:-1]) / h - t, s[:-1], y[:-1]))


# rows of SplinePieces.coef, highest degree first, of u, u' and the derivative mode
_ROWS = {"u": (0, 1, 2, 3), "du": (4, 5, 2), "v1": (6, 7, 8)}
# the powers of SplinePieces.edge_rows, and each end's step from x_0 and x_n-1
_QUINTIC = np.arange(5.0, -1.0, -1.0)
_ENDS = np.array([1.0, -1.0])
# the left and the right end, as indices
_SIDES = np.array([0, 1])


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
    breakpoints (:meth:`blocks`), for its kernels :meth:`overlaps`,
    :meth:`exact_overlaps` and :meth:`information`.
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
        norm if ``normalize``; its norm and energy are exact per piece.

        On 4 or more points the rows are scipy's ``CubicSpline``'s, bit for
        bit, without importing scipy.  3 points are fitted as the parabola
        through them, by closed-form slopes: scipy solves that case with a
        dense LU whose roundings depend on the BLAS build, so no port could
        match it, and the closed form is also closer to exact.
        """
        h = np.diff(grid)
        k = _cubic_rows(grid, values)
        # u^2 has degree 6 on each piece: 4 nodes integrate it exactly
        norm = _square_terms(k, h, 4).sum()
        if normalize:
            if norm <= 0:
                raise ValidationError("cannot normalize a zero amplitude profile")
            k = _cubic_rows(grid, values / np.sqrt(norm))
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
        k = grid.searchsorted(x, side="right") - (x == grid[-1])
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
        at = x[:: x.size - 1] + s[:, None] * _ENDS
        k = x[1:-1].searchsorted(at, side="right")
        # r from x_k at the left end, and to x_k+1 at the right
        r = np.abs(at - x[k + _SIDES])
        terms = self.edge_rows[_SIDES, :, k] * r[..., None] ** _QUINTIC
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

    def overlaps(self, ad: np.ndarray):
        """(c, c') at every |d| of the 1-D array ``ad``, piece by piece: the
        oracle of :meth:`exact_overlaps`.

        Where a piece of v1(x) meets a piece of u(x - d), v1 is one quadratic
        and u one cubic, so v1 u has degree 5 and v1 u' degree 4, and 3-node
        Gauss-Legendre on each pair of pieces (:meth:`pairs`) is exact.  u is
        zero outside the grid hull, so c = c' = 0 once d spans the hull, and
        inside it c' takes the term of u(x - d)'s step at x_0 + |d|
        (:meth:`hull_step`).  The error estimate bounds rounding only, the
        step's included, and one check judges c and c'.  With the lattice
        dropped, the merged breakpoints are the oracle of the lattice.
        """
        inside = (ad < self.span).nonzero()[0]
        shift = ad[inside]
        # c, -c' and the sums of their terms' magnitudes
        sums = np.zeros((4, ad.size))
        for rows, w, v1, images in self.pairs(shift, _PIECE_RULE, ["v1"], ["u", "du"]):
            # the terms of c and -c' (v1 is one name, u and u' two), then each row's
            terms = (w * v1) * images
            terms = terms.reshape(terms.shape[:-2] + (-1,))
            sums[:, inside[rows]] += np.concatenate([terms.sum(axis=-1), np.abs(terms).sum(axis=-1)])
        step = self.hull_step(shift)
        sums[1::2, inside] += [step, np.abs(step)]
        sums[1] = 0.0 - sums[1]  # c' = 0 - (-c') keeps c' = +0 where nothing overlaps
        what = ("mode overlap", "overlap derivative")
        check_converged(sums[:2].T, _ROUNDING * sums[2:].T, QUAD_REL_TOL, QUAD_ABS_TOL, what)
        return sums[0], sums[1]

    def exact_overlaps(self, ad: np.ndarray):
        """(c, c') at every |d| of the 1-D array ``ad``, exactly: :meth:`overlaps`
        on any grid but a uniform one.  There, with d = m h + delta on the
        lattice (:meth:`UniformLattice.lags`), c and c' on lag m are each one
        polynomial in w = (delta - h) / h (:meth:`UniformLattice.rows`), taken
        from the offset delta - h, correct to its own rounding, and evaluated
        by one Horner pass over both rows; 0 once d spans the hull.
        """
        lattice = self.lattice
        if lattice is None:
            return self.overlaps(ad)
        both = np.zeros((ad.size, 2))
        inside = ad < self.span
        lags, offsets = lattice.lags(ad[inside])
        w = offsets[:, 1:] / (lattice.h_hi + lattice.h_lo)
        both[inside] = _horner(lattice.rows(lags[:, 0]), w)
        return both.T

    def information(self, ad: np.ndarray) -> np.ndarray:
        """integral (dp/dd)^2 / p dx at every |d| of the 1-D array ``ad``.

        With y = x + d the density is p = (u(y)^2 + u(y - 2d)^2) / 2.  Where a
        piece of u(y) meets a piece of u(y - 2d) (:meth:`pairs`), p has
        degree 6 and dp/dd = u u'(y) - u u'(y - 2d) degree 5.  Their ratio is
        smooth wherever p > 0 but not a polynomial, so each pair takes
        _FINE-node Gauss-Legendre, and the _COARSE-node rule's difference,
        summed over the row, is the error estimate.  Where only one image
        lies, p = u^2 / 2 and dp/dd = +-u u', so the integrand is exactly
        2 u'^2: over [x_0, x_0 + 2|d|] for u(y) and [x_n-1 - 2|d|, x_n-1] for
        u(y - 2d) (:meth:`edge_energy`).  Once 2|d| spans the hull the images
        no longer overlap, and each contributes 2 integral u'^2 =
        1 / (2 sigma^2); that also keeps d far beyond the hull, where
        grid + 2d would lose the grid's spacing, exact.
        """
        value = np.full(ad.size, 1.0 / self.sigma**2)
        err = np.zeros(ad.size)
        shift = 2.0 * ad
        overlapping = (shift < self.span).nonzero()[0]
        shift = shift[overlapping]
        # each row's sums under the coarse and the fine rule
        sums = np.zeros((shift.size, 2))
        for rows, w, here, there in self.pairs(shift, _RULE, ["u", "du"], ["u", "du"]):
            by_node = np.einsum("...np,...np->...n", w, _information_density(*_density(here, there)))
            sums[rows] += np.add.reduceat(by_node, _RULE_STARTS, axis=-1)
        coarse, fine = sums.T
        value[overlapping] = fine + 2.0 * self.edge_energy(shift)
        err[overlapping] = np.abs(fine - coarse)
        what = "direct-imaging information"
        return check_converged(value, err, DIRECT_REL_TOL, QUAD_ABS_TOL, what)


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
        if offsets[:, 0].min(initial=0.0) < 0 or offsets[:, 1].max(initial=-1.0) >= 0:
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
        # where the nodes s on u(x) and t on u(x - shift) start, by (s or t, row, half)
        starts = np.maximum(_SIGNS * offsets, 0.0)
        width = (starts[0] + starts[1])[:, ::-1, None]
        powers = _powers(starts[..., None] + width * nodes)
        w = (width * weights)[..., None]
        for row, row_lags in enumerate(lags.tolist()):
            for half, lag in enumerate(row_lags):
                if lag < n:
                    here = self.at(powers[0, row, half], fixed, slice(lag, n))
                    there = self.at(powers[1, row, half], shifted, slice(0, n - lag))
                    yield row, w[row, half], here, there

    def at(self, powers: np.ndarray, names, pieces: slice) -> np.ndarray:
        """What ``names`` names, "v1" alone or "u" and "du", on the lattice
        pieces ``pieces`` at local coordinates s that every piece shares, given
        by their ``powers`` (:func:`_powers`): (names, s.size, pieces), one
        product of the powers with the rows."""
        if names == ["v1"]:
            return (powers[:, 1:] @ self.v1[:, pieces])[None]
        return np.matmul(powers, self.images[:, :, pieces])

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
        if not built[lags].min(initial=True):
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
# the offsets' signs on u(x) and on u(x - shift)
_SIGNS = np.array([1.0, -1.0])[:, None, None]
# the exponents of a cubic row's terms, highest degree first
_CUBIC = np.arange(3.0, -1.0, -1.0)


def _powers(s: np.ndarray) -> np.ndarray:
    """s^3, s^2, s and 1 of each s, on a new last axis of 4, so that the
    powers times a piece's rows are the piece at s."""
    return s[..., None] ** _CUBIC

