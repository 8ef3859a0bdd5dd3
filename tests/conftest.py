"""Fixtures shared by the test modules."""

import dataclasses

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
