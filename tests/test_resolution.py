"""Half-information separations and the sub-width operating window."""

import json

import numpy as np
import pytest

from spaderes.cli import main
from spaderes.counting import NoiseModel, SourceScene, THERMAL, fi_counting_exact
from spaderes.errors import BracketingError, ValidationError
from spaderes.psf import gaussian_psf
from spaderes.quadrature import HETERODYNE, HOMODYNE, fi_homodyne_small_d, shot_noise_snr
from spaderes.resolution import (
    d_half_counting,
    d_half_from_curve,
    d_half_numeric,
    d_half_quadrature,
    superres_window,
)

GAUSS = gaussian_psf(1.0)


def test_closed_form_values():
    assert d_half_counting(1.0, 100.0) == pytest.approx(0.2, rel=1e-14)
    assert d_half_counting(1.0, 1e4) == pytest.approx(0.02, rel=1e-14)
    assert d_half_quadrature(1.0, 100.0) == pytest.approx((2.0 * np.sqrt(2.0) - 2.0) / 10.0, rel=1e-14)


def test_scales_linearly_with_width():
    assert d_half_counting(2.0, 100.0) == pytest.approx(2.0 * d_half_counting(1.0, 100.0), rel=1e-14)
    assert d_half_quadrature(2.0, 100.0) == pytest.approx(2.0 * d_half_quadrature(1.0, 100.0), rel=1e-14)


def test_shot_noise_snr_equivalence():
    # homodyne at n_s = 50 and heterodyne at n_s = 100 share SNR = 100
    hom = d_half_quadrature(1.0, shot_noise_snr(HOMODYNE, 50.0))
    het = d_half_quadrature(1.0, shot_noise_snr(HETERODYNE, 100.0))
    assert hom == pytest.approx(het, rel=1e-14)
    assert hom == pytest.approx(d_half_quadrature(1.0, 100.0), rel=1e-14)


def test_closed_form_slope_is_exactly_half():
    snrs = np.array([1e2, 1e3, 1e4, 1e5])
    roots = np.array([d_half_counting(1.0, s) for s in snrs])
    slope = np.polyfit(np.log(snrs), np.log(roots), 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_window_poisson():
    w = superres_window(1.0, 1e4)
    assert w.low == pytest.approx(0.02, rel=1e-14)
    assert w.high == 1.0
    assert not w.is_empty


def test_window_thermal_caps_high_edge():
    w = superres_window(1.0, 1e4, n_s=100.0, statistics=THERMAL)
    assert w.low == pytest.approx(0.02, rel=1e-14)
    assert w.high == pytest.approx(0.2, rel=1e-14)
    with pytest.raises(ValidationError):
        superres_window(1.0, 1e4, statistics=THERMAL)


def test_window_collapses_at_unit_snr():
    assert superres_window(1.0, 1.0).is_empty


def test_numeric_root_homodyne_small_d():
    # rising-branch solution of the small-d homodyne curve at half its maximum
    n_s = 100.0
    fn = lambda d: fi_homodyne_small_d(SourceScene(GAUSS, d, n_s))
    root = d_half_numeric(fn, n_s / 8.0, (1e-6, np.sqrt(2.0 / n_s)))
    assert root == pytest.approx((2.0 - np.sqrt(2.0)) / np.sqrt(n_s), rel=1e-9)


def test_numeric_root_needs_sign_change():
    with pytest.raises(BracketingError):
        d_half_numeric(lambda d: d**2, 100.0, (0.0, 1.0))


def test_curve_root_exact_counting():
    snr = 100.0
    noise = NoiseModel.from_snr(snr, 1.0)
    fn = lambda d: fi_counting_exact(SourceScene(GAUSS, d, 1.0), noise)
    root = d_half_from_curve(fn, 0.5, 1.0)
    assert root == pytest.approx(0.20784237176752746, rel=1e-9)
    assert root == pytest.approx(d_half_counting(1.0, snr), rel=0.05)


def test_curve_root_rejects_unreachable_target():
    noise = NoiseModel.from_snr(10.0, 1.0)
    fn = lambda d: fi_counting_exact(SourceScene(GAUSS, d, 1.0), noise)
    with pytest.raises(BracketingError):
        d_half_from_curve(fn, 0.99, 1.0)


def _d_half_report(capsys, argv):
    code = main(["d-half"] + argv)
    return code, json.loads(capsys.readouterr().out) if code == 0 else None


def test_report_assembly(capsys):
    code, rep = _d_half_report(capsys, ["--measurement", "counting", "--snr", "1e4"])
    assert code == 0
    assert rep["d_half"] == pytest.approx(0.02, rel=1e-14)
    assert rep["window_low"] == pytest.approx(0.02, rel=1e-14)
    assert rep["window_high"] == 1.0
    assert not rep["window_empty"]
    assert "d_half_curve" not in rep
    _, rep2 = _d_half_report(capsys, ["--snr", "100", "--n-s", "1", "--numeric"])
    assert rep2["target_fi"] == 0.5
    assert rep2["d_half_curve"] == pytest.approx(0.20784237176752746, rel=1e-9)
    # a numeric root needs the photon number that fixes its target
    assert _d_half_report(capsys, ["--snr", "100", "--numeric"])[0] == 2
