"""Photon-counting statistics and Fisher information for the projected mode."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from spaderes import counting
from spaderes.counting import (
    NO_NOISE,
    POISSON,
    STATISTICS,
    THERMAL,
    NoiseModel,
    SourceScene,
    fi_counting_exact,
    fi_counting_oracle,
    fi_counting_small_d,
    fi_from_pmf,
    logpmf,
    mean_count,
    pmf,
    truncation_limit,
)
from spaderes.errors import TruncationWarning, ValidationError
from spaderes.overlap import tau1_closed
from spaderes.psf import gaussian_psf

GAUSS = gaussian_psf(1.0)


def scene(d, n_s=1.0, statistics=POISSON):
    return SourceScene(GAUSS, d, n_s, statistics)


def test_pmf_values():
    assert pmf(1.0, POISSON, 0) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert pmf(1.0, POISSON, 1) == pytest.approx(np.exp(-1.0), rel=1e-14)
    # thermal counts are geometric; with mean 1: p(k) = 2^-(k+1)
    assert pmf(1.0, THERMAL, 0) == pytest.approx(0.5, rel=1e-14)
    assert pmf(1.0, THERMAL, 3) == pytest.approx(2.0**-4, rel=1e-14)


def test_pmf_degenerate_mean():
    for statistics in STATISTICS:
        assert pmf(0.0, statistics, 0) == 1.0
        assert pmf(0.0, statistics, 2) == 0.0
        assert logpmf(0.0, statistics, 0) == 0.0
        assert logpmf(0.0, statistics, 2) == -np.inf


def test_pmf_vectorized_and_validated():
    k = np.arange(6)
    assert pmf(2.0, POISSON, k).shape == (6,)
    with pytest.raises(ValidationError):
        logpmf(2.0, POISSON, -1)
    with pytest.raises(ValidationError):
        logpmf(2.0, POISSON, 1.5)


def test_truncation_captures_mass():
    for statistics in STATISTICS:
        for kbar in (0.3, 3.0, 40.0):
            k = np.arange(truncation_limit(kbar, statistics) + 1)
            assert pmf(kbar, statistics, k).sum() >= 1.0 - 1e-12


@pytest.mark.parametrize("statistics", STATISTICS)
def test_pmf_oracle_at_a_zero_mean_and_past_its_cutoff(statistics, monkeypatch):
    # a zero mean count carries no information; a count cutoff that leaves
    # tail mass is warned about, and the truncated sum still returned
    assert fi_from_pmf(statistics, lambda d: 0.0 * d, 0.5) == 0.0
    kbar = lambda d: 3.0 + d**2
    full = fi_from_pmf(statistics, kbar, 0.5)
    monkeypatch.setattr(counting, "truncation_limit", lambda kbar, statistics: 4)
    with pytest.warns(TruncationWarning, match="count truncation at k=4"):
        short = fi_from_pmf(statistics, kbar, 0.5)
    assert 0.0 < short < full


@pytest.mark.parametrize("statistics", STATISTICS)
@pytest.mark.parametrize("kbar", [0.5, 38.0, 1e3])
def test_pmf_oracle_series_is_the_public_pmf(statistics, kbar):
    # fi_from_pmf sums its series through an unchecked kernel; on every count it
    # sums, that kernel must give the public pmf's bits
    k = np.arange(truncation_limit(kbar, statistics) + 1, dtype=float)
    series = counting._logpmf(kbar, statistics, k, counting._log_factorials(k.size))
    assert np.array_equal(np.exp(series), pmf(kbar, statistics, k))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_log_factorial_is_gammaln_bit_for_bit():
    # the port of cephes lgam against the routine it ports, at x = k + 1 on
    # each of its branches: the table and the scalar port on every count up
    # to 2e5 (the exact factorial below x = 13, Stirling's five-term series
    # below 1000, its three-term form above), then counts of every size up to
    # 1e308, both sides of the bare Stirling term past 1e8, and both sides of
    # the overflow past MAXLGM
    k = np.arange(200_001, dtype=float)
    expected = gammaln(k + 1.0)
    assert np.array_equal(_bits(counting._log_factorials(k.size)), _bits(expected))
    assert np.array_equal(_bits([counting._log_factorial(x) for x in k.tolist()]), _bits(expected))
    huge = np.floor(10.0 ** np.random.default_rng(34).uniform(0.0, 308.0, 20_000))
    maxlgm = 2.556348e305
    edges = [1e8 - 2.0, 1e8 - 1.0, 1e8, 1e8 + 1.0, maxlgm, np.nextafter(maxlgm, np.inf), np.inf]
    k = np.concatenate([huge, edges])
    ported = [counting._log_factorial(x) for x in k.tolist()]
    assert np.array_equal(_bits(ported), _bits(gammaln(k + 1.0)))
    # log Gamma(MAXLGM + 1) is finite; past it, inf
    assert np.isfinite(ported[-3]) and ported[-2:] == [np.inf, np.inf]


def test_log_factorial_table_is_read_only_and_doubles(monkeypatch):
    monkeypatch.setattr(counting, "_log_factorial_table", np.zeros(0))
    short = counting._log_factorials(20)
    assert not short.flags.writeable
    assert np.array_equal(counting._log_factorials(21)[:20], short)
    assert counting._log_factorial_table.size == 40
    assert not counting._log_factorial_table.flags.writeable


def test_poisson_pmf_of_mixed_counts_is_its_gammaln_form_bit_for_bit(monkeypatch):
    # repeated, small, large and huge counts in a 2-D array, each distinct
    # count evaluated once
    k = np.array([[0, 1, 5, 12, 13, 5], [999, 1000, 1e8, 3e15, 1e300, 0]])
    for kbar in (0.3, 37.5, 1e6):
        expected = k * np.log(kbar) - kbar - gammaln(k + 1.0)
        assert np.array_equal(_bits(logpmf(kbar, POISSON, k)), _bits(expected))
        assert np.array_equal(_bits(pmf(kbar, POISSON, k)), _bits(np.exp(expected)))
    assert logpmf(37.5, POISSON, 3) == 3 * np.log(37.5) - 37.5 - gammaln(4.0)
    evaluated, port = [], counting._log_factorial
    monkeypatch.setattr(counting, "_log_factorial", lambda x: evaluated.append(x) or port(x))
    logpmf(37.5, POISSON, k)
    assert sorted(evaluated) == sorted(set(k.ravel().tolist()))


@pytest.mark.parametrize(
    "call",
    [
        lambda st, kbar: logpmf(kbar, st, 0),
        lambda st, kbar: pmf(kbar, st, 0),
        lambda st, kbar: truncation_limit(kbar, st),
        lambda st, kbar: fi_from_pmf(st, lambda d: kbar, 0.5),
    ],
    ids=["logpmf", "pmf", "truncation_limit", "fi_from_pmf"],
)
def test_count_law_checks_mean_and_statistics(call):
    # a mean of 0 takes fi_from_pmf's early return, which must still check the name
    for kbar in (0.0, 2.0):
        with pytest.raises(ValidationError):
            call("binomial", kbar)
    for st in STATISTICS:
        with pytest.raises(ValidationError):
            call(st, -1.0)


def test_mean_count():
    sc = scene(0.2, n_s=100.0)
    noise = NoiseModel(1.0)
    expect = 100.0 * 0.01 * np.exp(-0.01) + 1.0
    assert mean_count(sc, noise) == pytest.approx(expect, rel=1e-14)
    assert mean_count(scene(0.0)) == 0.0
    # one mean per separation of an array
    both = mean_count(scene(np.array([0.2, 0.0]), n_s=100.0), noise)
    assert both.tolist() == [mean_count(sc, noise), 1.0]


def test_fi_at_zero_separation():
    # noiseless limit is finite (n_s / sigma^2); any noise kills it
    assert fi_counting_exact(scene(0.0, n_s=3.0)) == pytest.approx(3.0, rel=1e-14)
    assert fi_counting_exact(scene(0.0), NoiseModel(0.01)) == 0.0


def test_small_d_form():
    # at d = 2 sigma / sqrt(SNR) the small-d FI is exactly half the noiseless one
    sc = scene(0.2)
    noise = NoiseModel.from_snr(100.0, sc.n_s)
    assert fi_counting_small_d(sc, noise) == pytest.approx(0.5, abs=1e-15)
    # with no background the small-d FI saturates at n_s / sigma^2
    assert fi_counting_small_d(sc) == pytest.approx(1.0, abs=1e-15)


def test_small_d_matches_exact_for_tiny_d():
    sc = scene(1e-4)
    noise = NoiseModel.from_snr(1e3, sc.n_s)
    for st in (POISSON, THERMAL):
        sc2 = SourceScene(GAUSS, 1e-4, 1.0, st)
        assert fi_counting_exact(sc2, noise) == pytest.approx(
            fi_counting_small_d(sc2, noise), rel=1e-6
        )


def test_single_photon_regime_matches_small_d():
    # with n_s tau1 << 1 and n_b << 1 only click/no-click events carry
    # information, so both statistics follow the small-d Poisson law
    noise = NoiseModel(0.0005)
    poisson, thermal = (SourceScene(GAUSS, 0.1, 0.05, st) for st in (POISSON, THERMAL))
    for fi in (fi_counting_small_d, fi_counting_exact):
        assert fi(thermal, noise) == pytest.approx(fi(poisson, noise), rel=1e-3)


def test_exact_regression_with_noise():
    # frozen against the PMF-score oracle (agreement ~7e-13)
    sc = scene(0.2)
    noise = NoiseModel.from_snr(100.0, sc.n_s)
    assert fi_counting_exact(sc, noise) == pytest.approx(0.48274807163901373, rel=1e-12)


def test_pmf_oracle_matches_closed_form():
    for st in (POISSON, THERMAL):
        for d in (0.1, 0.3, 1.0):
            sc = SourceScene(GAUSS, d, 40.0, st)
            noise = NoiseModel(0.4)
            assert fi_counting_oracle(sc, noise) == pytest.approx(
                fi_counting_exact(sc, noise), rel=1e-10
            )


def test_pmf_oracle_refuses_an_array_of_d():
    # it takes one separation; an array of them, even of one d, is refused by
    # name, and a 0-d array is one separation
    kbar_fn = lambda d: 40.0 * tau1_closed(GAUSS, d).tau1 + 0.4
    noise = NoiseModel(0.4)
    for d in (np.array([0.3]), np.array([0.1, 0.3]), [0.1, 0.3], np.array([[0.3]])):
        with pytest.raises(ValidationError, match="PMF oracle takes one separation"):
            fi_counting_oracle(SourceScene(GAUSS, d, 40.0), noise)
        with pytest.raises(ValidationError, match="PMF oracle takes one separation"):
            fi_from_pmf(POISSON, kbar_fn, d)
    at = SourceScene(GAUSS, 0.3, 40.0)
    assert fi_counting_oracle(replace(at, d=np.array(0.3)), noise) == fi_counting_oracle(at, noise)


def test_pmf_oracle_matches_the_exact_form_on_a_cut_table(sinc_cut):
    # the table's u(x_0) is 3% of its peak: c' must carry the term of the
    # step of u(x - d) at the hull's edge, or dtau1/dd is off by up to 3%
    for d in (0.3, 1.0, 2.0):
        sc, noise = SourceScene(sinc_cut, d, 100.0), NoiseModel(n_b=1.0)
        assert fi_counting_exact(sc, noise) == pytest.approx(
            fi_counting_oracle(sc, noise), rel=1e-9
        )


def test_thermal_excess_factor():
    # same mean-count curve, Bose-Einstein counts carry 1/(1 + kbar) less FI
    kbar_fn = lambda d: 40.0 * tau1_closed(GAUSS, d).tau1 + 0.4
    for d in (0.2, 0.8, 1.5):
        fp = fi_from_pmf(POISSON, kbar_fn, d)
        fb = fi_from_pmf(THERMAL, kbar_fn, d)
        assert fb == pytest.approx(fp / (1.0 + kbar_fn(d)), rel=1e-10)


def test_constant_mean_carries_no_information():
    assert fi_from_pmf(POISSON, lambda d: 2.5, 0.7) == pytest.approx(0.0, abs=1e-10)


def test_fi_never_exceeds_quantum_bound():
    for st in (POISSON, THERMAL):
        for n_b in (0.0, 0.01, 1.0):
            for d in np.linspace(0.0, 5.0, 41):
                sc = SourceScene(GAUSS, d, 2.0, st)
                assert fi_counting_exact(sc, NoiseModel(n_b)) <= 2.0 + 1e-9


def test_noise_monotonicity():
    sc = scene(0.15)
    vals = [fi_counting_exact(sc, NoiseModel(nb)) for nb in (0.0, 1e-3, 1e-2, 1e-1)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_quadratic_noise_floor_scaling():
    # deep inside the noise-dominated regime FI grows as d^2
    noise = NoiseModel.from_snr(1e3, 1.0)
    f1 = fi_counting_exact(scene(1e-4), noise)
    f2 = fi_counting_exact(scene(2e-4), noise)
    assert f2 / f1 == pytest.approx(4.0, rel=1e-3)


def test_noisy_curve_rises_then_falls():
    noise = NoiseModel.from_snr(100.0, 1.0)
    ds = np.linspace(1e-3, 3.0, 301)
    vals = np.array([fi_counting_exact(scene(d), noise) for d in ds])
    peak = vals.argmax()
    assert 0 < peak < len(ds) - 1
    assert vals[0] < 0.1 * vals[peak]


def test_validation():
    with pytest.raises(ValidationError):
        SourceScene(GAUSS, -0.1, 1.0)
    with pytest.raises(ValidationError):
        SourceScene(GAUSS, 0.1, 0.0)
    with pytest.raises(ValidationError):
        SourceScene(GAUSS, 0.1, 1.0, "coherent")
    with pytest.raises(ValidationError):
        NoiseModel(-0.5)


def test_replaced_d_and_beta():
    sc = scene(0.2, n_s=4.0, statistics=THERMAL)
    moved = replace(sc, d=0.5)
    assert (moved.d, moved.n_s, moved.statistics, moved.tf) == (0.5, 4.0, THERMAL, sc.tf)
    with pytest.raises(ValidationError):
        replace(sc, d=-0.5)
    assert NoiseModel(2.0).beta(4.0) == 0.5
    assert NoiseModel.from_snr(np.inf, 4.0).n_b == 0.0
    assert NoiseModel.from_snr(100.0, 4.0).n_b == pytest.approx(0.04, rel=1e-14)
    assert NoiseModel(0.04).snr(4.0) == pytest.approx(100.0, rel=1e-14)


def test_nan_snr_is_refused_as_an_snr():
    with pytest.raises(ValidationError, match="snr"):
        NoiseModel.from_snr(np.nan, 1.0)
