"""Fixtures shared by the test modules."""

import dataclasses

import numpy as np
import pytest

from spaderes import integrate, psf, spline


@pytest.fixture
def merge_oracle(monkeypatch):
    """Call ``f(tf, *args)`` on the same spline as the tabulated ``tf`` with
    its lattice dropped, so that every kernel merges the breakpoints, while
    the lattice walk fails if anything calls it."""

    def run(f, tf, *args):
        merged = dataclasses.replace(tf, _pieces=dataclasses.replace(tf._pieces, lattice=None))
        with monkeypatch.context() as patch:
            patch.setattr(spline.UniformLattice, "pairs", lambda *_: pytest.fail("lattice"))
            return f(merged, *args)

    return run


@pytest.fixture(scope="session")
def sinc_cut():
    """A sinc of sigma 1 sampled on +-20 sigma at 2001 points, normalized: a
    table cut where u is still 3% of its peak, so u(x - d) steps at the hull."""
    x = np.linspace(-20.0, 20.0, 2001)
    a = np.sqrt(3.0) / 2.0
    return psf.tabulated_psf(x, np.sqrt(a / np.pi) * np.sinc(a * x / np.pi), normalize=True)


@pytest.fixture(scope="session")
def whole_line_ladder():
    """``run(f, half_width, a, d)``: the tail ladder over the whole line, the
    reference of the half-line one that ``integrate_oscillatory_tails`` runs.
    From the start m0 periods pi / a its rungs are [-X0, X0], then
    [X_l-1, X_l] and [-X_l, -X_l-1]; the partial integrals at the ends of
    the rungs, a d at a time, are extrapolated as the half-line's are, into
    arrays (value, error estimate).  f(x, d) takes (1, n) nodes and d as a
    (1, 1) column."""

    def run(f, half_width, a, d):
        values = []
        for x, half in zip(d.tolist(), np.broadcast_to(half_width, d.shape).tolist()):
            m0 = max(2.0, 2.0 * np.ceil(half / (2.0 * np.pi / a)))
            x0 = m0 * np.pi / a
            rungs = [[(-x0, x0, 2 * m0)]]
            for level in range(1, integrate.TAIL_LEVELS):
                lo, hi, n = x0 * 2 ** (level - 1), x0 * 2**level, m0 * 2 ** (level - 1)
                rungs.append([(lo, hi, n), (-hi, -lo, n)])
            total, partials = 0.0, []
            for rung in rungs:
                for lo, hi, n in rung:
                    nodes, weights = integrate._panel_nodes(lo, hi, int(n))
                    total += np.dot(weights[0], f(nodes, np.array([[x]]))[0])
                partials.append(total)
            widths = x0 * 2.0 ** np.arange(integrate.TAIL_LEVELS)
            values.append(integrate._extrapolate_to_zero(1.0 / widths, partials))
        return tuple(np.array(values).T)

    return run
