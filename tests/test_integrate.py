"""Quadrature engine checks: panel exactness, error estimates, tail ladder."""

import tracemalloc

import numpy as np
import pytest

from spaderes import integrate
from spaderes.errors import NumericError
from spaderes.integrate import (
    CHUNK_NODES,
    MAX_PANELS,
    PANEL_NODES,
    TAIL_LEVELS,
    check_converged,
    composite_gauss_legendre,
    integrate_oscillatory_tails,
)
from spaderes.overlap import tau1_numeric
from spaderes.psf import gaussian_psf

# one row, at d = 0, for integrands f(x, d) that do not read d
ONE = np.zeros(1)


def test_polynomial_exactness():
    # 16-node Gauss-Legendre is exact through degree 31 on each panel
    f = lambda x, d: 3.0 * x**7 - x**4 + 2.0 * x - 5.0
    [got], [err] = composite_gauss_legendre(f, -1.0, 3.0, 3, ONE)
    exact = (
        3.0 * (3.0**8 - (-1.0) ** 8) / 8
        - (3.0**5 - (-1.0) ** 5) / 5
        + (3.0**2 - (-1.0) ** 2)
        - 5.0 * 4.0
    )
    assert got == pytest.approx(exact, rel=1e-14)
    assert err <= 1e-14 * exact


def test_gaussian_integral():
    [value], [err] = composite_gauss_legendre(lambda x, d: np.exp(-(x**2)), -10.0, 10.0, 32, ONE)
    assert value == pytest.approx(np.sqrt(np.pi), rel=1e-13)
    assert err < 1e-12


def test_error_estimate_is_conservative():
    f = lambda x, d: np.cos(7.0 * x) * np.exp(-0.3 * x**2)
    [value], [err] = composite_gauss_legendre(f, -8.0, 8.0, 24, ONE)
    [finer], _ = composite_gauss_legendre(f, -8.0, 8.0, 96, ONE)
    assert abs(value - finer) <= max(err, 1e-14)


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        composite_gauss_legendre(lambda x, d: np.cos(x), 1.0, 1.0, 4, ONE)


def test_oscillatory_tail_sinc_squared():
    # integral of sinc(x)^2 over the real line = pi; the 1/x^2 tail makes
    # plain truncation at X=200 err at the 1e-3 level, the ladder must not;
    # at the frequency a = 1 the ladder's phases hold sin x
    f = lambda x, d, sin_x, cos_x: (sin_x / x) ** 2
    [value], [err] = integrate_oscillatory_tails(f, 200.0, 1.0, ONE)
    assert value == pytest.approx(np.pi, abs=1e-12)
    assert err < 1e-6


def test_oscillatory_tail_absolute_convergence():
    f = lambda x, d, *phases: 1.0 / (1.0 + x**2)
    [value], _ = integrate_oscillatory_tails(f, 3000.0, 1.0, ONE)
    assert value == pytest.approx(np.pi, abs=1e-6)


def test_check_converged_passes_and_raises():
    assert check_converged(2.0, 1e-12, 1e-8, 1e-12, "ok") == 2.0
    with pytest.raises(NumericError):
        check_converged(2.0, 1e-3, 1e-8, 1e-12, "bad")
    with pytest.raises(NumericError):
        check_converged(np.nan, 0.0, 1e-8, 1e-12, "nan")
    # arrays are judged elementwise, and the message names the first failure
    values = np.array([2.0, 0.0, 3.0])
    assert check_converged(values, np.array([1e-9, 1e-13, 0.0]), 1e-8, 1e-12, "ok") is values
    with pytest.raises(NumericError, match="error estimate=1.000e-03"):
        check_converged(values, np.array([0.0, 0.0, 1e-3]), 1e-8, 1e-12, "bad")


def test_oscillatory_tail_builds_its_nodes_once_per_rung_count():
    # the packed ladder depends only on (m0, a): a second call reuses it.
    # f sees it in a few equal chunks, fewer than the ladder's rungs, and
    # each rung is the composite rule over it, summed in ladder order
    f = lambda x, d, *phases: np.sinc(x / np.pi) ** 2
    calls = []
    integrate._ladder.cache_clear()
    counted = lambda x, d, *phases: calls.append(x[0]) or f(x, d)
    first = integrate_oscillatory_tails(counted, 200.0, 1.0, ONE)
    assert np.array_equal(integrate_oscillatory_tails(f, 199.0, 1.0, ONE), first)
    assert integrate._ladder.cache_info()[:2] == (1, 1)  # (hits, misses)
    m0 = 64  # the smallest even multiple of the period past 200
    segments, total, partials, widths, prev = [], 0.0, [], [], 0.0
    for level in range(TAIL_LEVELS):
        x = m0 * np.pi * 2**level
        nodes, weights = integrate._panel_nodes(prev, x, int(round((x - prev) / np.pi)))
        segments.append(nodes[0])
        total += np.dot(weights[0], f(nodes[0], 0.0))
        partials.append(2.0 * total)
        widths.append(x)
        prev = x
    size = PANEL_NODES * m0 * 2 ** (TAIL_LEVELS - 1)
    assert len(calls) == -(-size // CHUNK_NODES) < len(segments)
    assert len({x.size for x in calls}) == 1 and calls[0].size <= CHUNK_NODES
    assert np.array_equal(np.concatenate(calls), np.concatenate(segments))
    expect = integrate._extrapolate_to_zero(1.0 / np.asarray(widths), partials)
    assert (first[0][0], first[1][0]) == expect


def test_even_integrand_runs_on_the_half_ladder(whole_line_ladder):
    # an even integrand runs on [0, X0], then [X_l-1, X_l], each rung's
    # partial doubled: half the nodes of the whole line's ladder, and the
    # value and the error estimate within rounding of the whole line's,
    # which the test builds
    f = lambda x, d, sin_x, cos_x: (sin_x / x) ** 2 * np.cos(d * x)
    d = np.array([0.0, 0.3, 0.7])
    half = integrate_oscillatory_tails(f, 200.0, 1.0, d)
    whole = whole_line_ladder(lambda x, d: f(x, d, np.sin(x), np.cos(x)), 200.0, 1.0, d)
    for h, w in zip(half, whole):
        np.testing.assert_allclose(h, w, rtol=1e-13, atol=1e-16)
    _, segments, (x, w, _, _) = integrate._ladder(64, 1.0)
    assert x.size == PANEL_NODES * 64 * 2 ** (TAIL_LEVELS - 1)
    assert x.min() > 0.0 and len(segments) == TAIL_LEVELS
    widths = 64 * np.pi * 2.0 ** np.arange(TAIL_LEVELS)
    for i in range(d.size):
        g = f(x[0], d[i], np.sin(x[0]), np.cos(x[0]))
        partials = 2.0 * np.cumsum([np.dot(w[0, s], g[s]) for s in segments])
        expect = integrate._extrapolate_to_zero(1.0 / widths, list(partials))
        assert (half[0][i], half[1][i]) == expect


def test_long_rows_run_in_chunks_with_the_bits_of_one_dot():
    # a row of over CHUNK_NODES nodes runs alone, in equal chunks, and its
    # value is one np.dot over the finer count's unchunked nodes
    f = lambda x, d: np.exp(-((x - d) ** 2) / 4.0) * np.cos(x)
    d = np.array([0.5, 90.0, 2.0])
    n_panels = np.array([48, 400, 48])  # a Gaussian span over +-100 sigma is long
    sizes = []
    sized = lambda x, d: sizes.append(x.shape) or f(x, d)
    value, _ = composite_gauss_legendre(sized, -1.0, 1.0, n_panels, d)
    # the two short rows share one pass; the long one, n and 2n panels, takes three chunks
    n = 3 * PANEL_NODES * int(n_panels[1])
    assert 2 * CHUNK_NODES < n <= 3 * CHUNK_NODES
    assert sizes == [(1, 3 * PANEL_NODES * 48), (1, n // 3), (1, n // 3), (1, n - 2 * (n // 3))]
    x, w = integrate._panel_nodes(-1.0, 1.0, 2 * int(n_panels[1]))
    assert value[1] == np.dot(w[0], f(x[0], d[1]))
    # a ladder row, 32,768 nodes from 64 periods, by the rungs' dots over its whole row
    g = lambda x, d, *phases: np.sinc(x / np.pi) ** 2 * np.cos(d * x)
    d = np.array([0.0, 1.0, 7.0])
    value, _ = integrate_oscillatory_tails(g, 200.0, 1.0, d)
    _, segments, (x, w, _, _) = integrate._ladder(64, 1.0)
    assert w.size > CHUNK_NODES
    for i in range(d.size):
        partials = 2.0 * np.cumsum([np.dot(w[0, s], g(x[0], d[i])[s]) for s in segments])
        widths = 64 * np.pi * 2.0 ** np.arange(TAIL_LEVELS)
        expect = integrate._extrapolate_to_zero(1.0 / widths, list(partials))[0]
        alone = integrate_oscillatory_tails(g, 200.0, 1.0, d[i : i + 1])[0]
        assert value[i] == alone[0] == expect


def test_rule_is_the_dots_at_n_and_2n_panels_alone_or_in_an_array():
    # (value, error) is (I_2n, |I_2n - I_n|), each I one np.dot over
    # _panel_nodes at its count, in hex, for a d alone and inside an array;
    # 400 panels make a row of n and 2n panels long enough to be chunked
    f = lambda x, d: (np.exp(-((x - d) ** 2)) * np.cos(3.0 * x), np.sin(x + d) / (2.0 + x))
    d = np.array([0.3, 1.7, -0.4, 0.9])
    n_panels = np.array([3, 400, 48, 3])
    assert 3 * PANEL_NODES * 400 > CHUNK_NODES
    hexes = lambda pair: [[float(v).hex() for v in part] for part in pair]
    together = composite_gauss_legendre(f, -2.0, 5.0, n_panels, d)
    for i in range(d.size):
        dots = []
        for count in (2 * int(n_panels[i]), int(n_panels[i])):
            x, w = integrate._panel_nodes(-2.0, 5.0, count)
            dots.append(np.array([np.dot(w[0], v) for v in f(x[0], d[i])]))
        expect = [dots[0], abs(dots[0] - dots[1])]
        alone = composite_gauss_legendre(f, -2.0, 5.0, n_panels[i], d[i : i + 1])
        for got in ([v[i] for v in together], [v[0] for v in alone]):
            assert hexes(got) == hexes(expect)
    # the nodes of both counts are one kept, read-only row, a segment each
    n, segments, (x, w) = integrate._doubled_layout(-2.0, 5.0, 48)
    assert x.shape == w.shape == (1, n) and n == 3 * PANEL_NODES * 48
    assert not (x.flags.writeable or w.flags.writeable)
    for part, count in zip(segments, (48, 96)):
        assert np.array_equal(x[:, part], integrate._panel_nodes(-2.0, 5.0, count)[0])
        assert np.array_equal(w[:, part], integrate._panel_nodes(-2.0, 5.0, count)[1])


@pytest.mark.parametrize("a", [1.0, np.sqrt(3.0) / 2.0, 2.5])
def test_ladder_phases_are_its_nodes_own(a):
    # the ladder keeps sin(a x) and cos(a x) of its nodes, read-only, built
    # once per (m0, a), and hands f each chunk's slices of them after d:
    # from m0 = 18 and 34 it runs in two and three chunks
    for m0 in (18, 34):
        integrate._ladder.cache_clear()
        seen = []
        f = lambda x, d, sin_ax, cos_ax: seen.append((x, sin_ax, cos_ax)) or np.zeros_like(x)
        # m0 periods: the smallest even multiple of pi / a past (m0 - 1) pi / a
        integrate_oscillatory_tails(f, (m0 - 1) * np.pi / a, a, ONE)
        integrate_oscillatory_tails(f, (m0 - 1) * np.pi / a, float(a), ONE)
        assert integrate._ladder.cache_info()[:2] == (1, 1)  # (hits, misses)
        n, segments, (x, w, sin_ax, cos_ax) = integrate._ladder(m0, a)
        assert n == x.size and segments[-1].stop == n
        assert np.array_equal(sin_ax, np.sin(a * x)) and np.array_equal(cos_ax, np.cos(a * x))
        assert not any(v.flags.writeable for v in (x, w, sin_ax, cos_ax))
        assert len(seen) == 2 * len(integrate._chunks(x.size)) > 2
        for xc, sc, cc in seen:
            assert np.shares_memory(xc, x) and np.shares_memory(sc, sin_ax)
            assert np.shares_memory(cc, cos_ax)
            assert np.array_equal(sc, np.sin(a * xc)) and np.array_equal(cc, np.cos(a * xc))


def test_an_empty_d_gives_each_integrands_empty_row():
    # with no row, f runs once on none, so each rule's (value, error) takes
    # f's leading axes, as one d's does: (0, k) for k integrands
    two = lambda x, d, *_: (np.cos(x) * d, np.exp(-x) + 0.0 * d)
    one = lambda x, d, *_: np.cos(x) * d
    for d, lead in ((np.array([]), 0), (ONE, 1)):
        for f, shape in ((two, (lead, 2)), (one, (lead,))):
            for rule in (
                composite_gauss_legendre(f, 0.0, 1.0, np.full(lead, 3), d),
                integrate_oscillatory_tails(f, np.full(lead, 20.0), 1.0, d),
            ):
                assert [v.shape for v in rule] == [shape, shape]


def test_refusal_prints_plain_floats():
    for value, err in ((np.float64(0.85), np.float64(1e-3)), (np.array([0.85]), np.array([1e-3]))):
        with pytest.raises(NumericError) as refusal:
            check_converged(value, err, 1e-8, 1e-12, "bad")
        assert "value=0.85," in str(refusal.value) and "np.float64" not in str(refusal.value)


def test_panel_cap(monkeypatch):
    # the tail ladder refuses a half-width whose packed ladder would keep over
    # PANEL_NODES x MAX_PANELS nodes, before it evaluates the integrand
    calls = []
    with pytest.raises(NumericError):
        integrate_oscillatory_tails(lambda x, *_: calls.append(x) or x, 1e8, 1.0, ONE)
    assert calls == []
    # at the cap: from m0 = 16 periods, the half-line's 16 x 2^(TAIL_LEVELS - 1)
    # panels run, half the whole line's that the cap counts; m0 = 18 is refused
    monkeypatch.setattr(integrate, "MAX_PANELS", 16 * 2**TAIL_LEVELS)
    f = lambda x, *_: calls.append(x) or np.zeros_like(x)
    assert np.array_equal(integrate_oscillatory_tails(f, 16 * np.pi, 1.0, ONE), ([0.0], [0.0]))
    assert 2 * sum(x.size for x in calls) == PANEL_NODES * integrate.MAX_PANELS
    calls.clear()
    with pytest.raises(NumericError, match="MAX_PANELS"):
        integrate_oscillatory_tails(f, 16 * np.pi + 1.0, 1.0, ONE)
    assert calls == []


def test_panel_cap_refuses_before_allocating():
    # 4e8 panels, what one span over a Gaussian overlap at d = 1e8 sigma would
    # take: the refusal comes before any node array, so the peak stays far
    # below one array at the cap.  The Gaussian oracles themselves take the
    # windows about the origin and the positive image there, whose nodes do
    # not grow with d
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match="MAX_PANELS"):
            composite_gauss_legendre(lambda x, d: x, -1.0, 1.0, 4e8, np.array([1e8]))
        peak = tracemalloc.get_traced_memory()[1]
        assert tau1_numeric(gaussian_psf(1.0), 1e8).tau1 == 0.0
        far_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_array_at_cap = MAX_PANELS * 16 * 8  # bytes of 16 float64 nodes per panel
    assert peak < node_array_at_cap / 8 and far_peak < node_array_at_cap / 8
