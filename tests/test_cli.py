"""Command-line front end: outputs, config handling, exit codes."""

import argparse
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from spaderes.cli import _json_floats, build_parser, config_echo, main, write_json
from spaderes.montecarlo import MAX_POINTS, _tau_branch
from spaderes.psf import gaussian_psf, load_tabulated, sigma_of, sinc_psf


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


def test_distinct_value_writer_is_json_dumps():
    # each distinct value's text is made once, by its bits: 0.0 and -0.0 are
    # two values, which a value-based dedup would write alike
    d_peak, _ = _tau_branch(gaussian_psf(1.0))
    cases = [
        np.array([0.3, 0.7, 0.3, 0.3, 0.7, 0.1]),
        np.array([0.0, -0.0, 0.5, -0.0, 0.0]),
        np.array([d_peak, 0.2, 0.0, d_peak, 0.2]),  # clipped at both branch ends
        np.array([5e-324, 1e16, 1e-7, 1e16, 5e-324, 1e-7, 1.0]),
        np.array([0.42]),  # a single trial
        np.array([-0.0]),
    ]
    for values in cases:
        assert _json_floats(values) == json.dumps(values.tolist())


@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_spliced_array_takes_its_key_place(at, tmp_path):
    # first, between and last among the payload's keys, as json.dumps puts it
    out = tmp_path / "out.json"
    args = argparse.Namespace(out=str(out), command="simulate", seed=3)
    values = np.array([0.25, -0.0, 0.25, 0.0])
    others = {"a": 1, "b": [2.5, None]}
    keys = list(others)
    keys.insert(at, "values")
    payload = {key: values if key == "values" else others[key] for key in keys}
    write_json(args, payload, "values")
    plain = dict(payload, values=values.tolist())
    assert out.read_text() == json.dumps({"config": config_echo(args), **plain}) + "\n"


@pytest.mark.parametrize("statistics", ["poisson", "thermal"])
def test_a_counting_report_has_the_bytes_json_dumps_gives_it(statistics, tmp_path):
    # a real report, whose trials repeat their estimates and clip some at 0,
    # is what json.dumps writes of it; so are its estimates beside their
    # negatives, where each clipped 0.0 meets a -0.0 that only its bits tell apart
    out = tmp_path / "report.json"
    assert main(["simulate", "--statistics", statistics, "--snr", "1e2", "--d-true", "0.05",
                 "--frames", "200", "--trials", "1000", "--seed", "8", "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    assert json.dumps(report) + "\n" == text
    est = np.array(report["estimates"])
    assert 0 < np.count_nonzero(est == 0.0) < est.size // 2
    assert np.unique(est).size < est.size // 2
    both = np.concatenate([est, -est])
    assert _json_floats(both) == json.dumps(both.tolist())


# every spelling of --config that argparse accepts
CONFIG_SPELLINGS = {
    "separate": lambda path: ["--config", path],
    "equals": lambda path: [f"--config={path}"],
    "prefix": lambda path: ["--conf", path],
}


@pytest.mark.parametrize("spelling", list(CONFIG_SPELLINGS))
def test_config_file_with_flag_override(spelling, tmp_path):
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
        ["tau-curve", *CONFIG_SPELLINGS[spelling](str(cfg)), "--count", "5", "--out", str(out)]
    ) == 0
    config, _, rows = read_csv(out)
    assert config["d_max"] == 4.0  # from the file
    assert config["count"] == 5  # command line wins
    assert rows.shape[0] == 5


@pytest.mark.parametrize("spelling", list(CONFIG_SPELLINGS))
def test_config_file_supplies_a_required_flag(spelling, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_true = 0.3\ntrials = 20\nno_estimates = true\n")
    assert run(["simulate", *CONFIG_SPELLINGS[spelling](str(cfg)), "--trials", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_true"] == 0.3  # from the file
    assert payload["config"]["trials"] == 5  # command line wins
    assert "estimates" not in payload


def test_simulate_without_d_true_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 20\n")
    assert run(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--d-true" in captured.err


def test_ambiguous_config_prefix_is_refused(capsys):
    # the subcommand's own parser reads --config, so --co could also be --count
    assert run(["tau-curve", "--co", "3"]) == 2
    assert "ambiguous option: --co could match --config, --count" in capsys.readouterr().err


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_config_file_does_not_outlive_its_run(tmp_path, capsys):
    # the parser is reused, so the file's count must not become a default
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count = 5\n")
    assert run(["tau-curve", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 5
    assert run(["tau-curve"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 101


def test_a_refused_run_leaves_the_parser_as_it_was(capsys):
    argv = ["tau-curve", "--psf", "sinc", "--count", "7"]
    assert run(argv) == 0
    before = capsys.readouterr().out
    assert run(["tau-curve", "--co", "3"]) == 2
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == before


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
    # an unreadable PSF file is an OSError
    assert run(["qfi", "--psf", "tabulated", "--psf-file", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize("text", ["", "# position amplitude\n\n   # none\n"], ids=["empty", "comments"])
def test_a_table_without_data_rows_is_a_usage_error(text, tmp_path, capsys):
    # refused by name, with no numpy warning: under warnings-as-errors too
    path = tmp_path / "psf_empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["qfi", "--psf", "tabulated", "--psf-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{path} holds no data rows" in captured.err


def _refused_table(path, capsys) -> str:
    """Run qfi on the table at ``path`` under warnings-as-errors, expect exit
    2 and no output, and return what it printed to stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["qfi", "--psf", "tabulated", "--psf-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_a_table_with_a_row_that_is_not_numbers_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "psf_text.txt"
    path.write_text("0.0 1.0\nfoo 2.0\n1.0 3.0\n")
    err = _refused_table(path, capsys)
    assert f"{path} is not a table of numbers: could not convert string 'foo'" in err
    assert "to float on line 2" in err


def test_a_table_row_of_another_width_is_named_by_its_line(tmp_path, capsys):
    # numpy counts data rows only and hints at usecols, an option the CLI
    # does not have; the refusal names the file's own line instead
    path = tmp_path / "psf_ragged.txt"
    path.write_text("# header\n\n0 1\n1\n2 3\n")
    err = _refused_table(path, capsys)
    assert f"{path} is not a table of numbers: line 4 has 1 columns where line 3 has 2" in err
    assert "usecols" not in err


def test_a_table_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "psf_latin1.txt"
    path.write_bytes("# amplitude in µV\n0.0 1.0\n1.0 2.0\n2.0 1.0\n".encode("latin-1"))
    assert f"{path} is not UTF-8 text: 'utf-8' codec can't decode" in _refused_table(path, capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tau-curve", "--count", "1"], "grid count must be at least 2"),
        (["tau-curve", "--d-max", "1", "--d-min", "2"], "need d-max > d-min"),
        (["tau-curve", "--spacing", "log", "--d-min", "0"], "log spacing requires d-min > 0"),
        (["tau-curve", "--config", "{config}"], "config line is not key=value: 'absolute'"),
        (["qfi", "--n-s", "0"], "must be positive, got 0"),
    ],
    ids=["count-1", "inverted-grid", "log-from-0", "config-without-equals", "n-s-0"],
)
def test_documented_usage_refusals(argv, message, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("count = 5\nabsolute\n")
    assert run([arg.format(config=config) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_counting_d_half_takes_dark_counts_as_n_b(capsys):
    by_n_b = _json(capsys, ["d-half", "--n-s", "100", "--n-b", "1", "--numeric"])
    by_snr = _json(capsys, ["d-half", "--n-s", "100", "--snr", "100", "--numeric"])
    assert by_n_b["snr"] == 100.0
    del by_n_b["config"], by_snr["config"]
    assert by_n_b == by_snr


@pytest.mark.parametrize(
    "argv",
    [
        # --snr and --n-b both give the dark counts
        ["d-half", "--n-s", "100", "--n-b", "1", "--snr", "1e4"],
        ["simulate", "--d-true", "0.3", "--snr", "1e4", "--n-b", "1"],
        # dark counts without the source brightness they are a fraction of
        ["d-half", "--n-b", "1"],
        # a quadrature readout has no dark counts: the vacuum is its noise
        ["fi-curve", "--measurement", "homodyne", "--snr", "10"],
        ["fi-curve", "--measurement", "heterodyne", "--n-b", "1"],
        ["simulate", "--measurement", "homodyne", "--d-true", "0.3", "--n-b", "1"],
        ["simulate", "--measurement", "heterodyne", "--d-true", "0.3", "--snr", "10"],
        ["d-half", "--measurement", "homodyne", "--n-s", "100", "--n-b", "1"],
    ],
)
def test_noise_flags_that_cannot_apply_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_quadrature_d_half_takes_its_own_shot_noise_snr(capsys):
    by_snr = _json(capsys, ["d-half", "--measurement", "homodyne", "--snr", "200"])
    by_n_s = _json(capsys, ["d-half", "--measurement", "homodyne", "--n-s", "100"])
    assert by_snr["snr"] == by_n_s["snr"] == 200.0
    assert by_snr["d_half"] == by_n_s["d_half"]


@pytest.mark.parametrize("measurement", ["homodyne", "heterodyne"])
@pytest.mark.parametrize("numeric", [[], ["--numeric"]])
def test_quadrature_d_half_takes_one_of_snr_and_n_s(measurement, numeric, capsys):
    # --n-s sets the shot-noise SNR; with --snr too the closed form and the
    # numeric curve would answer for two different readouts
    argv = ["d-half", "--measurement", measurement, "--snr", "10", "--n-s", "100", *numeric]
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--d-true", "nan"],
        ["simulate", "--d-true", "inf"],
        ["simulate", "--measurement", "homodyne", "--d-true", "0.3", "--n-s", "inf"],
        ["simulate", "--d-true", "0.3", "--seed", "-1"],
        ["tau-curve", "--d-max", "inf"],
        ["fi-curve", "--n-s", "inf"],
        ["qfi", "--n-s", "inf"],
        ["d-half", "--snr", "1e4", "--sigma", "inf"],
    ],
)
def test_non_finite_inputs_are_usage_errors(argv, capsys):
    # only --snr may be inf (no dark counts); nothing reaches the numerics or the artifact
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_exit_code_numeric_failure():
    # no background puts the curve peak at d -> 0, so no rising-branch root
    assert run(
        ["d-half", "--measurement", "counting", "--sigma", "1.0", "--snr", "inf",
         "--n-s", "1", "--numeric", "--psf", "gaussian"]
    ) == 3


@pytest.mark.parametrize(
    "extra",
    [
        ["--d-max", "12", "--count", "12"],
        ["--d-max", "8"],
        ["--d-max", "30", "--count", "61", "--sigma", "1.3"],
        ["--d-max", "200", "--count", "11"],
    ],
)
def test_sinc_direct_imaging_far_out_exits_zero(extra, capsys):
    # the tail ladder's error estimate tracks its own order, so points past
    # 7 sigma that are correct to 1e-9 are no longer refused; past 50 / a its
    # start moves out with d, so 200 sigma answers too
    assert run(["fi-curve", "--psf", "sinc", "--with-direct"] + extra) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # the quadrature information (dV)^2 / 2V^2 squares a variance of order
        # n_s, which overflows on the fi-curve grid and on the d-half curve alike
        ["fi-curve", "--measurement", "homodyne", "--n-s", "1e300", "--count", "3"],
        ["fi-curve", "--measurement", "heterodyne", "--n-s", "1e300", "--count", "3"],
        ["d-half", "--measurement", "homodyne", "--n-s", "1e300", "--numeric"],
        # photocount totals past the int64 range: a per-frame mean already past
        # numpy's Poisson limit (1e300), or only the total over M frames (1e19,
        # or 1e17 over a million thermal frames), whose per-frame sum wrapped
        ["simulate", "--n-s", "1e300", "--d-true", "0.3"],
        ["simulate", "--n-s", "1e300", "--d-true", "0.3", "--statistics", "thermal"],
        ["simulate", "--snr", "1e-300", "--d-true", "0.3"],
        ["simulate", "--n-s", "1e19", "--d-true", "0.3", "--trials", "5"],
        ["simulate", "--n-s", "1e19", "--d-true", "0.3", "--statistics", "thermal"],
        ["simulate", "--n-s", "1e17", "--statistics", "thermal", "--frames", "1000000",
         "--trials", "10", "--d-true", "0.3"],
        # a Gaussian at 1e300 sigma squares d past the float range, in the far
        # image and in the small-d law; a displaced sinc overlap asks for more
        # quadrature panels than the node arrays may take
        ["tau-curve", "--absolute", "--d-max", "1e300", "--count", "3"],
        ["tau-curve", "--psf", "sinc", "--absolute", "--d-max", "1e8", "--count", "3"],
    ],
)
def test_finite_inputs_that_overflow_are_numeric_failures(argv, capsys):
    # numpy raises on the overflow instead of warning, so turning warnings into
    # errors changes nothing
    for action in ("default", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert run(argv) == 3
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


@pytest.mark.parametrize("statistics", ["poisson", "thermal"])
def test_large_photocount_totals_below_the_limit_run(statistics, capsys):
    assert run(["simulate", "--n-s", "1e17", "--d-true", "0.3", "--statistics", statistics,
                "--no-estimates"]) == 0
    assert json.loads(capsys.readouterr().out)["crb"] > 0


def test_far_displacements_below_the_panel_cap_run(capsys):
    assert run(["tau-curve", "--d-max", "1e4", "--count", "3"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert float(last[0]) == 1e4 and float(last[1]) == 0.0


def test_gaussian_images_far_apart_answer(capsys):
    # past 20 sigma the Gaussian overlap integrates the windows about its two
    # images, whose panels do not grow with d: at 2e4 sigma, where one span
    # over both took 1.6e5 panels, over MAX_PANELS, it answers 0
    assert run(["tau-curve", "--d-max", "20000", "--count", "3", "--absolute"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[2:]]
    assert [float(row[0]) for row in rows] == [0.0, 1e4, 2e4]
    assert [float(row[1]) for row in rows] == [0.0, 0.0, 0.0]


def test_long_tabulated_grid_loads(tmp_path, capsys):
    # a tabulated PSF is integrated on its spline's pieces, never by the composite
    # rule, so a long grid meets no panel cap
    x = np.linspace(-12.0, 12.0, 70000)
    path = tmp_path / "psf.txt"
    np.savetxt(path, np.column_stack([x, (2 * np.pi) ** -0.25 * np.exp(-(x**2) / 4)]))
    assert run(["tau-curve", "--psf", "tabulated", "--psf-file", str(path), "--count", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5  # config, header, 3 rows


def test_tabulated_simulate_matches_the_gaussian(capsys):
    # the sampled Gaussian's tau1 is within 4e-9 of the closed form, so one seed
    # gives the Gaussian's estimates and bound through the spline overlap
    psf_file = Path(__file__).parent / "golden" / "psf_gaussian_801.txt"
    base = ["simulate", "--d-true", "0.3", "--trials", "300", "--seed", "7"]
    reports = []
    for psf in (["--psf", "gaussian"], ["--psf", "tabulated", "--psf-file", str(psf_file)]):
        assert run(base + psf) == 0
        reports.append(json.loads(capsys.readouterr().out))
    gaussian, tabulated = reports
    assert tabulated["estimates"] == pytest.approx(gaussian["estimates"], rel=1e-6)
    assert tabulated["crb"] == pytest.approx(gaussian["crb"], rel=1e-6)


def test_tabulated_direct_imaging_matches_the_gaussian(capsys):
    # at d = 4-5 sigma both images reach past the sampled grid's +-8 sigma;
    # the file and --psf gaussian describe one PSF and must give one answer
    psf_file = Path(__file__).parent / "golden" / "psf_gaussian_801.txt"
    base = ["fi-curve", "--with-direct", "--d-min", "4", "--d-max", "5", "--count", "2",
            "--format", "json"]
    direct = []
    for psf in (["--psf", "gaussian"], ["--psf", "tabulated", "--psf-file", str(psf_file)]):
        assert run(base + psf) == 0
        table = json.loads(capsys.readouterr().out)
        direct.append(np.array(table["rows"])[:, table["columns"].index("direct_imaging")])
    np.testing.assert_allclose(direct[1], direct[0], rtol=1e-8, atol=0.0)


def test_exit_code_budget(capsys):
    # the cap counts trials and grid points, and refuses before it draws or
    # allocates: the peak stays far below one float64 array at the cap
    over = str(MAX_POINTS + 1)
    for argv in (["simulate", "--d-true", "0.3", "--trials", over],
                 ["tau-curve", "--count", over], ["fi-curve", "--count", over]):
        tracemalloc.start()
        try:
            assert run(argv) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MAX_POINTS * 8 / 100
        assert f"exceed the cap of {MAX_POINTS}" in capsys.readouterr().err


def test_frames_are_not_counted_against_the_cap(capsys):
    # a run costs one draw per trial, whatever the frames per trial
    argv = ["simulate", "--d-true", "0.3", "--frames", "100000", "--trials", "10000",
            "--no-estimates"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["empirical_variance"] / report["crb"] == pytest.approx(1.0, abs=0.1)


def test_budget_is_not_an_option(capsys):
    assert run(["simulate", "--budget", "10", "--d-true", "0.3"]) == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


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


def test_config_echo_names_the_psf_that_ran(capsys):
    # the echoed sigma is the built PSF's: sqrt(3) / 2a for a lobe scale, the
    # derivative energy's for a table, and the flag's own for --sigma
    by_a = _json(capsys, ["qfi", "--psf", "sinc", "--a", "1"])
    assert by_a["config"]["sigma"] == 0.8660254037844386 == sigma_of(sinc_psf(a=1.0))
    assert by_a["config"]["a"] == 1.0
    path = str(Path(__file__).parent / "golden" / "psf_gaussian_801.txt")
    by_table = _json(capsys, ["qfi", "--psf", "tabulated", "--psf-file", path, "--check"])
    assert by_table["config"]["sigma"] == by_table["sigma_numeric"] == sigma_of(load_tabulated(path))
    assert by_table["config"]["sigma"] != 1.0
    out = _json(capsys, ["fi-curve", "--sigma", "2", "--count", "3", "--format", "json"])
    assert out["config"]["sigma"] == 2.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qfi", "--psf", "gaussian", "--a", "2"], "takes no --a"),
        (["qfi", "--a", "2"], "takes no --a"),
        (["tau-curve", "--psf", "tabulated", "--psf-file", "x.txt", "--a", "2"], "takes no --a"),
        (["qfi", "--psf", "sinc", "--sigma", "3", "--a", "1"], "not allowed with"),
        (["d-half", "--psf", "sinc", "--a", "1", "--sigma", "3", "--snr", "1e4"], "not allowed with"),
        # every PSF option belongs to the kinds it describes
        (["qfi", "--psf", "gaussian", "--psf-file", "x.txt"], "takes no --psf-file"),
        (["qfi", "--psf", "sinc", "--psf-file", "x.txt"], "takes no --psf-file"),
        (["tau-curve", "--normalize-psf"], "takes no --normalize-psf"),
        (["qfi", "--psf", "tabulated", "--psf-file", "x.txt", "--sigma", "2"], "takes no --sigma"),
    ],
)
def test_lobe_scale_is_sinc_alone_and_instead_of_sigma(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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
# Every cell exits 0.  A case listed here would be expected to exit 3, for a
# numeric failure named next to it; the overlap oracle's false refusals that
# filled this set (sinc past 2 sigma, tabulated at c'(d) = 0) are gone.
KNOWN_NUMERIC_FAILURES = set()


@pytest.fixture(scope="module")
def tabulated_gaussian(tmp_path_factory):
    x = np.linspace(-8.0, 8.0, 801)
    u = (2.0 * np.pi) ** -0.25 * np.exp(-(x**2) / 4.0)
    path = tmp_path_factory.mktemp("psf") / "gaussian.txt"
    np.savetxt(path, np.column_stack([x, u]))
    return path


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_unnormalized_table_is_a_usage_error(subcommand, tmp_path, capsys):
    # three times a sampled Gaussian is refused when the PSF is built
    x = np.linspace(-8.0, 8.0, 801)
    path = tmp_path / "psf.txt"
    np.savetxt(path, np.column_stack([x, 3.0 * (2.0 * np.pi) ** -0.25 * np.exp(-(x**2) / 4.0)]))
    assert run(SUBCOMMANDS[subcommand] + ["--psf", "tabulated", "--psf-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not normalized" in captured.err


@pytest.mark.parametrize("kind", ["gaussian", "sinc", "tabulated"])
@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_exit_code_matrix(subcommand, kind, tabulated_gaussian, capsys):
    psf = ["--psf", kind]
    if kind == "tabulated":
        psf += ["--psf-file", str(tabulated_gaussian)]
    expected = 3 if (subcommand, kind) in KNOWN_NUMERIC_FAILURES else 0
    assert run(SUBCOMMANDS[subcommand] + psf) == expected, capsys.readouterr().err
