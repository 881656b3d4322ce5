import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kare.spectral import GramSpectrum, decompose, stieltjes, stieltjes_derivative
from kare.sct import (
    Spectrum,
    power_law_spectrum,
    rbf_gaussian_spectrum,
    sct_from_gram,
    shell_multiplicity,
    solve_sct,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def _bisect_oracle(spec, n, ridge, iterations=200):
    # independent route: plain bisection on the fixed-point residual
    d = np.array([e[0] for e in spec.entries])
    m = np.array([float(e[1]) for e in spec.entries])

    def g(t):
        return t - ridge - (t / n) * float(np.sum(m * d / (d + t)))

    lo, hi = ridge, ridge + float(m @ d) / n
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_empty_spectrum():
    res = solve_sct(Spectrum(()), 10, 0.3)
    assert res.theta == 0.3 and res.theta_prime == 1.0


def test_golden_ratio_fixed_point():
    spec = Spectrum(((1.0, 1),))
    res = solve_sct(spec, 1, 1.0)
    assert res.theta == pytest.approx(GOLDEN, rel=1e-10)
    assert res.theta == pytest.approx(_bisect_oracle(spec, 1, 1.0), rel=1e-10)
    assert res.theta_prime == pytest.approx(1 / (1 - 1 / (1 + GOLDEN) ** 2), rel=1e-10)


def test_large_sample_squeeze():
    n = 10**6
    res = solve_sct(Spectrum(((1.0, 1),)), n, 1.0)
    assert 1.0 < res.theta <= 1.0 + 1.0 / n


def test_invalid_inputs():
    spec = Spectrum(((1.0, 1),))
    with pytest.raises(ValueError):
        solve_sct(spec, 10, 0.0)
    with pytest.raises(ValueError):
        solve_sct(spec, 0, 1.0)
    with pytest.raises(ValueError):
        Spectrum(((0.0, 1),))
    with pytest.raises(ValueError):
        Spectrum(((1.0, 0),))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1e-6, 10), st.integers(1, 5)),
        min_size=1, max_size=20,
    ),
    st.integers(1, 1000),
    st.floats(1e-6, 10),
)
def test_residual_and_bounds(entries, n, ridge):
    spec = Spectrum(tuple(entries))
    res = solve_sct(spec, n, ridge)
    d, m = spec.arrays()
    residual = res.theta - ridge - (res.theta / n) * float(np.sum(m * d / (d + res.theta)))
    assert abs(residual) <= 1e-12 * (ridge + spec.trace / n)
    assert ridge < res.theta <= (ridge + spec.trace / n) * (1 + 1e-12)
    assert 1.0 <= res.theta_prime * (1 + 1e-12)
    assert res.theta_prime <= (res.theta / ridge) * (1 + 1e-12)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        size = int(rng.integers(1, 30))
        spec = Spectrum(tuple(zip(
            rng.uniform(1e-3, 10, size).tolist(),
            rng.integers(1, 5, size).tolist(),
        )))
        n = int(rng.integers(1, 500))
        ridge = float(10 ** rng.uniform(-3, 0))
        h = 1e-6 * ridge
        fd = (solve_sct(spec, n, ridge + h).theta - solve_sct(spec, n, ridge - h).theta) / (2 * h)
        assert solve_sct(spec, n, ridge).theta_prime == pytest.approx(fd, rel=1e-4)


def test_sct_from_gram_zero_and_identity():
    zero = GramSpectrum(np.zeros(6), 6)
    res = sct_from_gram(zero, 0.7)
    assert res.theta == pytest.approx(0.7, rel=1e-12)
    assert res.theta_prime == pytest.approx(1.0, rel=1e-12)

    ident = GramSpectrum(np.ones(6), 6)
    res = sct_from_gram(ident, 1.0)
    assert res.theta == pytest.approx(2.0, rel=1e-12)
    assert res.theta_prime == pytest.approx(1.0, rel=1e-12)


def test_sct_from_gram_two_values():
    s = GramSpectrum(np.array([0.0, 1.0]), 2)
    res = sct_from_gram(s, 1.0)
    assert res.theta == pytest.approx(1 / 0.75, rel=1e-12)
    assert res.theta_prime == pytest.approx(0.625 / 0.75**2, rel=1e-12)


def test_sct_from_gram_bounds_hold():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ev = np.sort(rng.uniform(0, 3, int(rng.integers(1, 40))))
        s = GramSpectrum(ev, len(ev))
        ridge = float(10 ** rng.uniform(-4, 1))
        res = sct_from_gram(s, ridge)
        assert res.theta >= ridge
        assert res.theta_prime >= 1.0 - 1e-12


@pytest.mark.parametrize("ridge, name", [
    (1e-320, "theta"), (1e-300, "theta_prime"), (1e300, "theta_prime")])
def test_sct_from_gram_rejects_non_finite_results(ridge, name):
    rng = np.random.default_rng(5)
    W = rng.standard_normal((6, 4))
    s = decompose(W @ W.T)  # rank 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} is not representable .* {re.escape(repr(ridge))}$"):
            sct_from_gram(s, ridge)
        res = sct_from_gram(s, 1e-2)
    m = stieltjes(s, 1e-2)
    assert (res.theta, res.theta_prime) == (1.0 / m, stieltjes_derivative(s, 1e-2) / (m * m))


def test_rbf_gaussian_unit_case_exact():
    spec = rbf_gaussian_spectrum(1, 1.0, 1.0, 8)
    for k, (value, mult) in enumerate(spec.entries):
        assert value == 2.0 ** -(k + 1)
        assert mult == 1


def test_rbf_gaussian_decreasing_geometric():
    spec = rbf_gaussian_spectrum(3, 2.0, 0.7, 10)
    values = [v for v, _ in spec.entries]
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(r < 1 for r in ratios)
    assert max(ratios) - min(ratios) < 1e-12


def test_shell_multiplicities():
    for d in range(1, 11):
        assert shell_multiplicity(d, 0) == 1
        assert shell_multiplicity(d, 1) == d
        assert shell_multiplicity(d, 2) == math.comb(d, 2) + d
    assert shell_multiplicity(2, 3) == 4


def test_multiplicity_overflow_truncates_with_warning():
    with pytest.warns(RuntimeWarning, match="truncating"):
        spec = rbf_gaussian_spectrum(100, 100.0, 1.0, 100)
    assert len(spec.entries) < 101


def test_power_law_spectrum():
    spec = power_law_spectrum(2.0, 3)
    np.testing.assert_allclose([v for v, _ in spec.entries], [1.0, 0.25, 1 / 9])
    assert power_law_spectrum(1.5, 2).entries[1][0] == pytest.approx(2 ** -1.5)
    assert len(power_law_spectrum(3.0, 1).entries) == 1
    with pytest.raises(ValueError):
        power_law_spectrum(1.0, 5)


def test_expand_respects_multiplicity():
    spec = Spectrum(((2.0, 3), (0.5, 1)))
    np.testing.assert_allclose(spec.expand(), [2.0, 2.0, 2.0, 0.5])
    assert spec.expanded_size == 4
    assert spec.trace == pytest.approx(6.5)
