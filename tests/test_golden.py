"""Byte-identical CLI artifacts for fixed configs and seeds.

Each file under tests/golden/ is the output of one fixed command line, run
from inside that directory so that the tabulated PSF file it ships is named by
a relative path and the echoed config stays the same on every machine.  A
change that alters any of them changes a published number, which only a
declared bug fix may do; such a change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
from pathlib import Path

import pytest

from spaderes.cli import main

GOLDEN = (Path(__file__).parent / "golden").resolve()

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
    # the sinc QFI oracle on the tail ladder, with the PSF given by its lobe scale
    "qfi_sinc.json": ["qfi", "--psf", "sinc", "--a", "1", "--n-s", "100", "--check"],
    # the sinc closed form over whole arrays, next to its frequency-domain oracle
    "tau_curve_sinc.csv": ["tau-curve", "--psf", "sinc", "--d-max", "2", "--count", "21"],
    "fi_counting_absolute.json": ["fi-curve", "--absolute", "--sigma", "2", "--n-s", "100",
                                  "--snr", "1e3", "--d-min", "0.01", "--d-max", "6",
                                  "--count", "30", "--spacing", "log", "--format", "json"],
    # noiseless thermal counting from d = 0: the beta = 0, d = 0 branch of the small-d law
    "fi_counting_thermal_noiseless.json": ["fi-curve", "--statistics", "thermal", "--n-s", "50",
                                           "--d-min", "0", "--d-max", "2", "--count", "21",
                                           "--format", "json"],
    "fi_counting_tabulated.json": ["fi-curve", "--psf", "tabulated", "--psf-file",
                                   "psf_gaussian_801.txt", "--n-s", "100", "--snr", "1e3",
                                   "--d-min", "1e-2", "--d-max", "1.5", "--count", "15",
                                   "--spacing", "log", "--format", "json"],
    # the direct-imaging oracle on the other two PSF kinds (sinc is fi_counting_direct.csv)
    "fi_counting_direct_gaussian.json": ["fi-curve", "--with-direct", "--psf", "gaussian",
                                         "--n-s", "10", "--snr", "1e2", "--d-min", "0.05",
                                         "--d-max", "3", "--count", "9", "--format", "json"],
    "fi_counting_direct_tabulated.json": ["fi-curve", "--with-direct", "--psf", "tabulated",
                                          "--psf-file", "psf_gaussian_801.txt", "--n-s", "100",
                                          "--snr", "1e3", "--d-min", "0.05", "--d-max", "1.5",
                                          "--count", "9", "--format", "json"],
    # the branch ends of the moment inversion: 36% of trials clip at d_peak,
    # then 52% clip at 0 under an unbounded CRB, for counts and quadratures
    "simulate_counting_clip_peak.json": [*_SIMULATE, "--psf", "gaussian", "--d-true", "1.9",
                                         "--snr", "1e4"],
    "simulate_counting_zero.json": [*_SIMULATE, "--psf", "gaussian", "--d-true", "0",
                                    "--snr", "1e2"],
    "simulate_heterodyne_sinc_zero.json": [*_SIMULATE, "--psf", "sinc", "--d-true", "0",
                                           "--measurement", "heterodyne"],
    # the tabulated spline kernels: overlap rows past the 16-sigma hull span, the
    # sigma and derivative-energy bits, and tau1 inside the lockstep root finder
    "tau_curve_tabulated.json": ["tau-curve", "--psf", "tabulated", "--psf-file",
                                 "psf_gaussian_801.txt", "--d-max", "20", "--count", "41",
                                 "--format", "json"],
    "qfi_tabulated.json": ["qfi", "--psf", "tabulated", "--psf-file", "psf_gaussian_801.txt",
                           "--n-s", "100", "--check"],
    "d_half_tabulated.json": ["d-half", "--numeric", "--psf", "tabulated", "--psf-file",
                              "psf_gaussian_801.txt", "--snr", "1e4", "--n-s", "100"],
    # the tabulated transmission inside the quadrature-readout inversion, per trial
    "simulate_homodyne_tabulated.json": [*_SIMULATE, "--psf", "tabulated", "--psf-file",
                                         "psf_gaussian_801.txt", "--measurement", "homodyne"],
    # a job of the size the mc-crb benchmark runs
    "simulate_homodyne_sinc_2000.json": [*_SIMULATE, "--psf", "sinc", "--measurement",
                                         "homodyne", "--frames", "200", "--trials", "2000"],
}


def _write(name: str, out: Path) -> int:
    return main(CASES[name] + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert _write(name, out) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    for case in CASES:
        if _write(case, GOLDEN / case) != 0:
            sys.exit(f"{case} failed")
