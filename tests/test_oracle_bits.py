"""The library oracles' bits, one d at a time.

The CLI goldens pin what the commands print; this pins what the oracles
return to a library caller who passes one d: c and c' of ``tau1_numeric``
and of ``tau1_exact``, ``fi_direct`` and the Poisson and thermal
``fi_counting_oracle`` (n_s 100, n_b 1), as ``float.hex`` after each
value's type, on every 5th point of the 0-5 sigma 101-point grid, for the
Gaussian, the sinc and the shipped 801-point Gaussian table.  A change
that alters any of them changes an oracle's answer, which only a declared
bug fix may do; such a change regenerates the file with

    PYTHONPATH=src python tests/test_oracle_bits.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import spaderes

GOLDEN = Path(__file__).parent / "golden"
FILE = GOLDEN / "oracle_points.json"
GRID = np.linspace(0.0, 5.0, 101)[::5].tolist()
N_S, N_B = 100.0, 1.0


def _psfs():
    return {
        "gaussian": spaderes.gaussian_psf(1.0),
        "sinc": spaderes.sinc_psf(sigma=1.0),
        "tabulated": spaderes.load_tabulated(GOLDEN / "psf_gaussian_801.txt"),
    }


def _point(tf, d: float) -> dict:
    numeric, exact = spaderes.tau1_numeric(tf, d), spaderes.tau1_exact(tf, d)
    noise = spaderes.NoiseModel(N_B)
    values = {
        "tau1_numeric.c": numeric.c,
        "tau1_numeric.c_prime": numeric.c_prime,
        "tau1_exact.c": exact.c,
        "tau1_exact.c_prime": exact.c_prime,
        "fi_direct": spaderes.fi_direct(tf, d, N_S),
    }
    for statistics in (spaderes.POISSON, spaderes.THERMAL):
        scene = spaderes.SourceScene(tf, d, N_S, statistics)
        values[statistics] = spaderes.fi_counting_oracle(scene, noise)
    return {name: f"{type(v).__name__} {float(v).hex()}" for name, v in values.items()}


def _table() -> dict:
    return {kind: {float(d).hex(): _point(tf, d) for d in GRID} for kind, tf in _psfs().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FILE.read_text())


@pytest.mark.parametrize("kind", ["gaussian", "sinc", "tabulated"])
def test_each_oracle_call_returns_its_pinned_bits(golden, kind):
    tf = _psfs()[kind]
    assert list(golden[kind]) == [float(d).hex() for d in GRID]
    for d in GRID:
        assert _point(tf, d) == golden[kind][float(d).hex()], (kind, d)


if __name__ == "__main__":
    FILE.write_text(json.dumps(_table(), indent=1) + "\n")
