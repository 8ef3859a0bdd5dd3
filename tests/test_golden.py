"""Byte-identical CLI artifacts for fixed configs and seeds.

Each file under tests/golden/ is the output of one fixed command line.  A
change that alters any of them changes a published number, which only a
declared bug fix may do; such a change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from spaderes.cli import main

GOLDEN = Path(__file__).parent / "golden"

_LOG_GRID = ["--d-min", "1e-3", "--d-max", "3", "--count", "40", "--spacing", "log"]
_SIMULATE = ["simulate", "--d-true", "0.3", "--n-s", "100", "--frames", "100",
             "--trials", "200", "--seed", "5"]

CASES = {
    "tau_curve_gaussian.csv": ["tau-curve", "--psf", "gaussian", "--count", "41"],
    "fi_counting_poisson.csv": ["fi-curve", "--measurement", "counting", "--n-s", "100",
                                "--snr", "1e3", *_LOG_GRID],
    "fi_counting_thermal.json": ["fi-curve", "--measurement", "counting", "--statistics",
                                 "thermal", "--psf", "sinc", "--sigma", "0.5", "--n-s", "20",
                                 "--snr", "1e4", "--format", "json", *_LOG_GRID],
    "fi_homodyne.csv": ["fi-curve", "--measurement", "homodyne", "--psf", "sinc",
                        "--n-s", "100", *_LOG_GRID],
    "fi_heterodyne.json": ["fi-curve", "--measurement", "heterodyne", "--sigma", "2",
                           "--n-s", "1000", "--format", "json", *_LOG_GRID],
    "fi_counting_direct.csv": ["fi-curve", "--with-direct", "--psf", "sinc", "--n-s", "10",
                               "--snr", "1e2", "--d-min", "0.05", "--d-max", "2",
                               "--count", "9"],
    "d_half_counting.json": ["d-half", "--measurement", "counting", "--sigma", "0.5",
                             "--snr", "1e4", "--n-s", "100", "--numeric"],
    "d_half_homodyne.json": ["d-half", "--measurement", "homodyne", "--psf", "sinc",
                             "--n-s", "100", "--numeric"],
    "d_half_heterodyne.json": ["d-half", "--measurement", "heterodyne", "--n-s", "10",
                               "--statistics", "thermal", "--numeric"],
    "simulate_counting_gaussian.json": [*_SIMULATE, "--psf", "gaussian", "--snr", "1e4"],
    "simulate_counting_sinc.json": [*_SIMULATE, "--psf", "sinc", "--statistics", "thermal",
                                    "--snr", "1e3"],
    "simulate_homodyne_gaussian.json": [*_SIMULATE, "--psf", "gaussian", "--measurement",
                                        "homodyne"],
    "simulate_homodyne_sinc.json": [*_SIMULATE, "--psf", "sinc", "--measurement", "homodyne"],
    "simulate_heterodyne_gaussian.json": [*_SIMULATE, "--psf", "gaussian", "--measurement",
                                          "heterodyne"],
    "simulate_heterodyne_sinc.json": [*_SIMULATE, "--psf", "sinc", "--sigma", "2",
                                      "--measurement", "heterodyne"],
    "qfi_gaussian.json": ["qfi", "--psf", "gaussian", "--n-s", "100", "--check"],
}


def _write(name: str, out: Path) -> int:
    return main(CASES[name] + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_unchanged(name, tmp_path):
    out = tmp_path / name
    assert _write(name, out) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        if _write(case, GOLDEN / case) != 0:
            sys.exit(f"{case} failed")
