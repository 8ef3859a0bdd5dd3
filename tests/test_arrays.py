"""The kernels over arrays of d, closed forms and overlap quadrature alike,
equal the same kernels called point by point, bit for bit, and a scalar d
gives a scalar back."""

import numpy as np
import pytest

from spaderes import (
    POISSON,
    THERMAL,
    NoiseModel,
    SourceScene,
    Transmission,
    ValidationError,
    fi_counting_exact,
    fi_counting_small_d,
    fi_direct,
    fi_heterodyne,
    fi_heterodyne_small_d,
    fi_homodyne,
    fi_homodyne_small_d,
    gaussian_psf,
    mean_count,
    sigma_of,
    sinc_psf,
    tabulated_psf,
    tau1_closed,
    tau1_exact,
    tau1_numeric,
    tau1_sinc_expansion,
    tau1_small_d,
)

_X = np.linspace(-8.0, 8.0, 801)
PSFS = {
    "gaussian": gaussian_psf(0.8),
    "sinc": sinc_psf(sigma=1.3),
    "tabulated": tabulated_psf(_X, (2.0 * np.pi) ** -0.25 * np.exp(-(_X**2) / 4.0)),
}
# in units of sigma, from d = 0.  The closed forms get a dense grid: a square
# taken by multiplication instead of pow() differs in the last bit for about
# one value in 1300, and only a dense grid shows it.  The tabulated grid
# crosses the 2-sigma turning point, and its 90 points span many blocks of
# rows in both spline kernels.
GRIDS = {
    "closed": np.concatenate([[0.0], np.geomspace(1e-4, 4.5, 3000)]),
    "tabulated": np.concatenate([[0.0], np.geomspace(1e-4, 4.5, 89)]),
}
N_S = 40.0


def _grid(tf):
    return GRIDS["tabulated" if tf.kind == "tabulated" else "closed"] * sigma_of(tf)


def _assert_matches_points(array_value, point_values):
    assert not any(isinstance(v, np.ndarray) for v in point_values)
    assert np.shape(array_value) == (len(point_values),)
    assert np.array_equal(array_value, point_values)


@pytest.mark.parametrize("kind", PSFS)
def test_transmission_over_an_array_equals_point_calls(kind):
    tf = PSFS[kind]
    d = _grid(tf)
    kernels = {
        "gaussian": [tau1_exact, tau1_closed, tau1_numeric],
        "sinc": [tau1_exact, tau1_closed, tau1_numeric],
        "tabulated": [tau1_exact, tau1_numeric],
    }[kind]
    for kernel in kernels:
        curve = kernel(tf, d)
        points = [kernel(tf, float(x)) for x in d]
        for name in Transmission._fields:
            _assert_matches_points(getattr(curve, name), [getattr(p, name) for p in points])
    _assert_matches_points(
        tau1_small_d(sigma_of(tf), d), [tau1_small_d(sigma_of(tf), float(x)) for x in d]
    )


def test_a_sinc_array_of_a_small_and_a_huge_d_equals_point_calls():
    # the small d takes the Taylor series of q and q', which must not
    # overflow on the huge d beside it: each d alone answers
    tf = sinc_psf(sigma=1.0)
    d = np.array([0.1, 1e40])
    for kernel in (tau1_exact, tau1_closed):
        curve = kernel(tf, d)
        points = [kernel(tf, float(x)) for x in d]
        for name in Transmission._fields:
            _assert_matches_points(getattr(curve, name), [getattr(p, name) for p in points])


def test_sinc_expansion_over_an_array_equals_point_calls():
    # at sigma 1 these three d squared by multiplication differ in the last
    # bit from pow(), which a scalar d**2 takes
    d = np.concatenate([GRIDS["closed"], [0.01985, 0.0397, 0.0794]])
    expansion = [tau1_sinc_expansion(1.0, float(x)) for x in d]
    _assert_matches_points(tau1_sinc_expansion(1.0, d), expansion)


@pytest.mark.parametrize("n_b", [0.0, 0.3])
@pytest.mark.parametrize("statistics", [POISSON, THERMAL])
@pytest.mark.parametrize("kind", PSFS)
def test_counting_over_an_array_equals_point_calls(kind, statistics, n_b):
    tf = PSFS[kind]
    noise = NoiseModel(n_b=n_b)
    curve = SourceScene(tf, _grid(tf), N_S, statistics)
    points = [SourceScene(tf, float(x), N_S, statistics) for x in _grid(tf)]
    for kernel in (fi_counting_exact, fi_counting_small_d, mean_count):
        _assert_matches_points(kernel(curve, noise), [kernel(p, noise) for p in points])


@pytest.mark.parametrize("kind", PSFS)
def test_quadrature_over_an_array_equals_point_calls(kind):
    tf = PSFS[kind]
    curve = SourceScene(tf, _grid(tf), N_S)
    points = [SourceScene(tf, float(x), N_S) for x in _grid(tf)]
    for kernel in (fi_homodyne, fi_heterodyne, fi_homodyne_small_d, fi_heterodyne_small_d):
        _assert_matches_points(kernel(curve), [kernel(p) for p in points])


@pytest.mark.parametrize("kind", PSFS)
def test_direct_imaging_over_an_array_equals_point_calls(kind):
    # each analytic d is a row of one quadrature: the 101 rows of the default
    # 0-5 sigma grid span many blocks of the sinc ladder's central rung, where
    # a batched near-peak series would round differently
    tf = PSFS[kind]
    d = _grid(tf) if kind == "tabulated" else np.linspace(0.0, 5.0, 101) * sigma_of(tf)
    _assert_matches_points(fi_direct(tf, d, N_S), [fi_direct(tf, float(x), N_S) for x in d])


def test_outputs_take_the_shape_of_d():
    tf = PSFS["sinc"]
    d = _grid(tf)[1:10].reshape(3, 3)
    scene = SourceScene(tf, d, N_S, THERMAL)
    assert tau1_closed(tf, d).c_prime.shape == (3, 3)
    assert fi_counting_exact(scene, NoiseModel(0.5)).shape == (3, 3)
    assert fi_counting_small_d(scene).shape == (3, 3)
    assert fi_heterodyne(scene).shape == (3, 3)
    assert fi_direct(tf, d, N_S).shape == (3, 3)


@pytest.mark.parametrize("kind", PSFS)
def test_an_empty_array_of_d_gives_empty_arrays(kind):
    tf = PSFS[kind]
    for tr in (tau1_numeric(tf, np.array([])), tau1_exact(tf, np.array([]))):
        assert all(np.shape(v) == (0,) for v in tr)
    assert np.shape(fi_direct(tf, np.array([]), N_S)) == (0,)


def test_scene_rejects_any_negative_separation():
    # and any separation that is not finite
    for d in (np.array([0.1, -0.2, 0.3]), np.nan, np.inf, -np.inf, np.array([0.1, np.nan])):
        with pytest.raises(ValidationError):
            SourceScene(PSFS["gaussian"], d, N_S)
