"""spaderes runs on numpy alone: nothing in the package imports scipy.

The check runs in a fresh interpreter with ``sys.modules["scipy"] = None``,
so that any import of scipy or of a scipy submodule raises, since this one
has scipy loaded by the tests themselves.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "psf_gaussian_801.txt"


def test_nothing_in_the_package_imports_scipy():
    table = ["--psf", "tabulated", "--psf-file", str(TABLE)]
    commands = [
        ["tau-curve"],
        ["fi-curve", "--psf", "sinc", "--with-direct", "--count", "11"],
        ["d-half", "--numeric", "--snr", "1e4", "--n-s", "100"],
        ["simulate", "--d-true", "0.3", "--snr", "1e4", "--trials", "50"],
        ["simulate", "--statistics", "thermal", "--d-true", "0.3", "--trials", "50"],
        ["simulate", "--measurement", "homodyne", "--psf", "sinc", "--d-true", "0.3",
         "--trials", "50"],
        ["qfi", "--check", "--psf", "sinc"],
        ["tau-curve", *table],
        ["fi-curve", "--with-direct", *table],
        ["simulate", "--measurement", "homodyne", *table, "--d-true", "0.3", "--trials", "50"],
    ]
    script = f"""
import contextlib, io, sys
sys.modules["scipy"] = None

import numpy as np
import spaderes, spaderes.cli
from spaderes import (NO_NOISE, POISSON, THERMAL, SourceScene, fi_counting_oracle, gaussian_psf,
                      load_tabulated, logpmf, pmf, qfi_numeric)

for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert spaderes.cli.main(argv) == 0, argv
tf = gaussian_psf(1.0)
for statistics in (POISSON, THERMAL):
    assert fi_counting_oracle(SourceScene(tf, 0.3, 100.0, statistics), NO_NOISE) > 0.0
k = np.array([0.0, 3.0, 1e3, 1e20])
assert np.isfinite(logpmf(40.0, POISSON, k)).all() and pmf(40.0, POISSON, k)[1] > 0.0
for psf in (tf, load_tabulated({str(TABLE)!r})):
    assert qfi_numeric(psf, 1.0) > 0.0
print("numpy alone")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "numpy alone"
