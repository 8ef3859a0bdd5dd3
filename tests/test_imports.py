"""What each path loads: scipy only where a Poisson PMF is summed, so no CLI command loads it.

Each check runs in a fresh interpreter, since this one has scipy loaded by
the tests themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "psf_gaussian_801.txt"

_PRELUDE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(script):
    """Run the prelude and ``script`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-W", "error", "-c", _PRELUDE + script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_no_cli_command_loads_scipy():
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
    loaded = _run(f"""
import spaderes, spaderes.cli
loaded = {{"import": scipy_modules()}}
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert spaderes.cli.main(argv) == 0, argv
    loaded[" ".join(argv)] = scipy_modules()
print(json.dumps(loaded))
""")
    assert list(loaded) == ["import"] + [" ".join(argv) for argv in commands]
    assert loaded == dict.fromkeys(loaded, [])


def _alone(statement):
    """The scipy modules that ``statement`` loads in a fresh interpreter."""
    return _run(f"{statement}\nprint(json.dumps(scipy_modules()))")


def test_a_table_loads_no_scipy():
    # the spline is fitted on numpy alone
    assert _alone(f"from spaderes.psf import load_tabulated\nload_tabulated({str(TABLE)!r})") == []


def test_the_poisson_pmf_oracle_loads_gammaln_only():
    thermal, poisson = _run("""
from spaderes.counting import NO_NOISE, THERMAL, SourceScene, fi_counting_oracle
from spaderes.psf import gaussian_psf
tf = gaussian_psf(1.0)
fi_counting_oracle(SourceScene(tf, 0.3, 100.0, THERMAL), NO_NOISE)
thermal = scipy_modules()
fi_counting_oracle(SourceScene(tf, 0.3, 100.0), NO_NOISE)
print(json.dumps([thermal, scipy_modules()]))
""")
    assert thermal == []
    assert "scipy.special" in poisson
    assert poisson == _alone("from scipy.special import gammaln")
