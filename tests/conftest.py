"""Fixtures shared by the test modules."""

import dataclasses

import numpy as np
import pytest

from spaderes import psf


@pytest.fixture
def merge_oracle(monkeypatch):
    """Call ``f(tf, *args)`` on the same spline as the tabulated ``tf`` with
    its lattice dropped, so that every kernel merges the breakpoints, while
    the lattice walk fails if anything calls it."""

    def run(f, tf, *args):
        merged = dataclasses.replace(tf, _pieces=dataclasses.replace(tf._pieces, lattice=None))
        with monkeypatch.context() as patch:
            patch.setattr(psf.UniformLattice, "pairs", lambda *_: pytest.fail("lattice"))
            return f(merged, *args)

    return run


@pytest.fixture(scope="session")
def sinc_cut():
    """A sinc of sigma 1 sampled on +-20 sigma at 2001 points, normalized: a
    table cut where u is still 3% of its peak, so u(x - d) steps at the hull."""
    x = np.linspace(-20.0, 20.0, 2001)
    a = np.sqrt(3.0) / 2.0
    return psf.tabulated_psf(x, np.sqrt(a / np.pi) * np.sinc(a * x / np.pi), normalize=True)
