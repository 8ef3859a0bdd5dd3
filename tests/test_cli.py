"""Command-line front end: outputs, config handling, exit codes."""

import json

import numpy as np
import pytest

from spaderes.cli import main


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own usage failures
        return exc.code


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[2:]])
    return config, columns, rows


def test_tau_curve_csv(tmp_path):
    out = tmp_path / "tau.csv"
    code = run(
        ["tau-curve", "--psf", "gaussian", "--sigma", "1.0",
         "--d-min", "0", "--d-max", "4", "--count", "41", "--out", str(out)]
    )
    assert code == 0
    config, columns, rows = read_csv(out)
    assert config["version"]
    assert config["sigma"] == 1.0
    assert columns[0] == "d_over_sigma"
    assert rows.shape == (41, 4)
    # d = 0 row carries no transmission; d = 2 sigma row sits at the 1/e peak
    assert np.all(rows[0, 1:] == 0.0)
    i = np.argmin(abs(rows[:, 0] - 2.0))
    assert rows[i, 1] == pytest.approx(np.exp(-1.0), rel=1e-10)
    assert rows[i, 2] == pytest.approx(np.exp(-1.0), rel=1e-10)


def test_tau_curve_kinds_agree_sub_width(tmp_path):
    files = {}
    for kind in ("gaussian", "sinc"):
        out = tmp_path / f"{kind}.csv"
        assert run(
            ["tau-curve", "--psf", kind, "--sigma", "1.0",
             "--d-min", "0.05", "--d-max", "0.3", "--count", "6", "--out", str(out)]
        ) == 0
        files[kind] = read_csv(out)[2]
    ratio = files["sinc"][:, 1] / files["gaussian"][:, 1]
    assert np.all(np.abs(ratio - 1.0) < 0.01)


def test_fi_curve_scaled_units(tmp_path):
    out = tmp_path / "fi.csv"
    assert run(
        ["fi-curve", "--psf", "gaussian", "--sigma", "1.0", "--n-s", "1",
         "--d-min", "1e-3", "--d-max", "1e-2", "--count", "5",
         "--spacing", "log", "--out", str(out)]
    ) == 0
    _, columns, rows = read_csv(out)
    assert columns[1] == "fi_times_sigma2_over_ns"
    # no background: scaled FI pegs the quantum line down to tiny separations
    assert np.all(np.abs(rows[:, 1] - 1.0) < 1e-4)
    assert np.all(rows[:, 3] == 1.0)


def test_fi_curve_homodyne_peak(tmp_path):
    out = tmp_path / "hom.csv"
    assert run(
        ["fi-curve", "--measurement", "homodyne", "--psf", "gaussian",
         "--sigma", "1.0", "--n-s", "100", "--d-min", "0.01", "--d-max", "1.0",
         "--count", "200", "--out", str(out)]
    ) == 0
    _, _, rows = read_csv(out)
    peak = rows[:, 1].max()
    assert 0.24 < peak < 0.25


def test_fi_curve_with_direct_column(tmp_path):
    out = tmp_path / "fid.csv"
    assert run(
        ["fi-curve", "--with-direct", "--psf", "gaussian", "--sigma", "1.0",
         "--n-s", "1", "--d-min", "0.1", "--d-max", "0.5", "--count", "3",
         "--out", str(out)]
    ) == 0
    _, columns, rows = read_csv(out)
    assert columns[-1] == "direct_imaging"
    assert np.all(rows[:, -1] < rows[:, 1])  # sub-width: projection wins


def test_d_half_json(tmp_path):
    out = tmp_path / "dh.json"
    assert run(
        ["d-half", "--measurement", "counting", "--sigma", "1.0",
         "--snr", "100", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["d_half"] == pytest.approx(0.2, rel=1e-12)
    assert payload["window_low"] == pytest.approx(0.2, rel=1e-12)
    assert payload["window_high"] == 1.0
    assert not payload["window_empty"]


def test_d_half_numeric_root(tmp_path):
    out = tmp_path / "dhn.json"
    assert run(
        ["d-half", "--measurement", "counting", "--sigma", "1.0", "--snr", "100",
         "--n-s", "1", "--numeric", "--psf", "gaussian", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["target_fi"] == 0.5
    assert payload["d_half_curve"] == pytest.approx(0.20784237176752746, rel=1e-9)


def test_qfi_check(tmp_path):
    out = tmp_path / "qfi.json"
    assert run(
        ["qfi", "--n-s", "100", "--sigma", "1.0", "--check",
         "--psf", "gaussian", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["qfi"] == 100.0
    assert payload["qfi_numeric"] == pytest.approx(100.0, rel=1e-10)
    assert payload["sigma_numeric"] == 1.0


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--psf", "gaussian", "--sigma", "1.0", "--d-true", "0.3",
            "--n-s", "100", "--snr", "1e4", "--frames", "50", "--trials", "40",
            "--seed", "7"]
    out1, out2, out3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert run(args[:-1] + ["8", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["config"]["seed"] == 7
    assert len(payload["estimates"]) == 40
    assert payload["crb"] > 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep defaults\n"
        "psf = gaussian\n"
        "sigma = 1.0\n"
        "d_max = 4.0\n"
        "count = 11\n"
    )
    out = tmp_path / "tau.csv"
    assert run(
        ["tau-curve", "--config", str(cfg), "--count", "5", "--out", str(out)]
    ) == 0
    config, _, rows = read_csv(out)
    assert config["d_max"] == 4.0  # from the file
    assert config["count"] == 5  # command line wins
    assert rows.shape[0] == 5


def test_absolute_units(tmp_path):
    out = tmp_path / "abs.csv"
    assert run(
        ["tau-curve", "--psf", "gaussian", "--sigma", "2.0", "--absolute",
         "--d-min", "0", "--d-max", "8", "--count", "5", "--out", str(out)]
    ) == 0
    _, columns, rows = read_csv(out)
    assert columns[0] == "d"
    i = np.argmin(abs(rows[:, 0] - 4.0))  # 2 sigma in absolute units
    assert rows[i, 1] == pytest.approx(np.exp(-1.0), rel=1e-10)


def test_exit_code_usage_errors(tmp_path):
    # conflicting noise flags
    assert run(
        ["fi-curve", "--psf", "gaussian", "--sigma", "1", "--n-s", "1",
         "--snr", "100", "--n-b", "0.5"]
    ) == 2
    # counting d-half without an SNR
    assert run(["d-half", "--measurement", "counting", "--sigma", "1"]) == 2
    # unknown subcommand trips argparse itself
    assert run(["frobnicate"]) == 2


def test_exit_code_numeric_failure():
    # no background puts the curve peak at d -> 0, so no rising-branch root
    assert run(
        ["d-half", "--measurement", "counting", "--sigma", "1.0", "--snr", "inf",
         "--n-s", "1", "--numeric", "--psf", "gaussian"]
    ) == 3


def test_exit_code_budget():
    assert run(
        ["simulate", "--psf", "gaussian", "--sigma", "1.0", "--d-true", "0.3",
         "--n-s", "100", "--frames", "100000", "--trials", "10000", "--seed", "0"]
    ) == 4


def test_stdout_default(capsys):
    assert run(["qfi", "--n-s", "2", "--sigma", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"] == 2.0


def _json(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_qfi_takes_sigma_from_the_psf(capsys):
    payload = _json(capsys, ["qfi", "--psf", "sinc", "--a", "2", "--check"])
    assert payload["qfi"] == pytest.approx(16.0 / 3.0, rel=1e-12)
    assert payload["qfi"] == pytest.approx(payload["qfi_numeric"], rel=1e-9)


def test_d_half_takes_sigma_from_the_psf(capsys):
    payload = _json(
        capsys, ["d-half", "--psf", "sinc", "--a", "2", "--snr", "1e4", "--n-s", "100", "--numeric"]
    )
    sigma = np.sqrt(3.0) / 4.0
    assert payload["sigma"] == pytest.approx(sigma, rel=1e-15)
    assert payload["d_half"] == pytest.approx(2.0 * sigma / 100.0, rel=1e-12)
    assert payload["target_fi"] == pytest.approx(0.5 * 100.0 / sigma**2, rel=1e-12)
    # closed form and exact curve describe the same PSF
    assert payload["d_half_curve"] == pytest.approx(payload["d_half"], rel=0.05)


@pytest.mark.parametrize("sigma", [0.7, 2.0])
@pytest.mark.parametrize(
    "argv",
    [
        ["qfi", "--n-s", "3", "--check"],
        ["d-half", "--measurement", "counting", "--snr", "1e3", "--n-s", "10", "--numeric"],
        ["d-half", "--measurement", "heterodyne", "--n-s", "10", "--numeric"],
    ],
)
def test_sinc_sigma_and_lobe_scale_agree(capsys, argv, sigma):
    by_sigma = _json(capsys, argv + ["--psf", "sinc", "--sigma", str(sigma)])
    by_a = _json(capsys, argv + ["--psf", "sinc", "--a", repr(float(np.sqrt(3.0) / (2.0 * sigma)))])
    del by_sigma["config"], by_a["config"]
    assert by_sigma == by_a


@pytest.mark.parametrize("command", [["qfi"], ["d-half", "--snr", "1e4"]])
def test_tabulated_without_file_is_a_usage_error(command):
    assert run(command + ["--psf", "tabulated"]) == 2


# -- every subcommand on its defaults, for every PSF kind ----------------------

SUBCOMMANDS = {
    "tau-curve": ["tau-curve"],
    "fi-curve": ["fi-curve"],
    "fi-curve-direct": ["fi-curve", "--with-direct"],
    "d-half": ["d-half", "--snr", "1e4"],
    "simulate": ["simulate", "--d-true", "0.3"],
    "qfi": ["qfi"],
}
# The overlap oracle reports false non-convergence on these: sinc tau1_numeric
# for d >~ 2 sigma, tabulated tau1_numeric at d = 2 sigma where c'(d) = 0.
# Values there are right to ~1e-14; fixing the error estimate empties this set.
KNOWN_NUMERIC_FAILURES = {
    ("tau-curve", "sinc"),
    ("tau-curve", "tabulated"),
    ("fi-curve", "tabulated"),
    ("fi-curve-direct", "tabulated"),
    ("simulate", "tabulated"),
}


@pytest.fixture(scope="module")
def tabulated_gaussian(tmp_path_factory):
    x = np.linspace(-8.0, 8.0, 801)
    u = (2.0 * np.pi) ** -0.25 * np.exp(-(x**2) / 4.0)
    path = tmp_path_factory.mktemp("psf") / "gaussian.txt"
    np.savetxt(path, np.column_stack([x, u]))
    return path


@pytest.mark.parametrize("kind", ["gaussian", "sinc", "tabulated"])
@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_exit_code_matrix(subcommand, kind, tabulated_gaussian, capsys):
    psf = ["--psf", kind]
    if kind == "tabulated":
        psf += ["--psf-file", str(tabulated_gaussian)]
    expected = 3 if (subcommand, kind) in KNOWN_NUMERIC_FAILURES else 0
    assert run(SUBCOMMANDS[subcommand] + psf) == expected, capsys.readouterr().err
