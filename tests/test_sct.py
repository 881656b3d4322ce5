import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kare import sct
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


def _scalar_sct(spec, n, ridge):
    # Frozen copy of the one-pair Newton-bisection loop that the
    # vectorized solver must reproduce bit for bit.
    d = np.array([e[0] for e in spec.entries])
    m = np.array([float(e[1]) for e in spec.entries])
    trace = float(m @ d)
    if trace == 0.0:
        return ridge, 1.0

    def residual(t):
        return t - ridge - (t / n) * float(np.sum(m * d / (d + t)))

    def slope(t):
        return 1.0 - float(np.sum(m * (d / (d + t)) ** 2)) / n

    lo, hi = ridge, ridge + trace / n
    tol = 1e-12 * (ridge + trace / n)
    t = hi
    for _ in range(200):
        g = residual(t)
        if abs(g) <= tol:
            return t, 1.0 / slope(t)
        if g > 0:
            hi = t
        else:
            lo = t
        sl = slope(t)
        step = t - g / sl if sl > 0 else None
        t = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise AssertionError("the frozen loop did not converge")


def test_empty_spectrum():
    res = solve_sct(Spectrum(()), 10, 0.3)
    assert res.theta == 0.3 and res.theta_prime == 1.0
    res = solve_sct(Spectrum(()), np.array([10, 20]), np.array([[0.3], [0.5]]))
    np.testing.assert_array_equal(res.theta, [[0.3, 0.3], [0.5, 0.5]])
    np.testing.assert_array_equal(res.theta_prime, np.ones((2, 2)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1e-6, 10), st.integers(1, 5)),
        min_size=1, max_size=50,
    ),
    st.lists(st.integers(1, 5000), min_size=1, max_size=4),
    st.lists(st.floats(1e-6, 10), min_size=1, max_size=5),
)
def test_vectorized_solve_is_bit_identical_to_the_scalar_loop(entries, ns, ridges):
    spec = Spectrum(tuple(entries))
    res = solve_sct(spec, np.array(ns)[:, None], np.array(ridges))
    assert res.theta.shape == res.theta_prime.shape == (len(ns), len(ridges))
    for i, n in enumerate(ns):
        for j, ridge in enumerate(ridges):
            theta, theta_prime = _scalar_sct(spec, n, ridge)
            assert res.theta[i, j] == theta and res.theta_prime[i, j] == theta_prime
    one = solve_sct(spec, ns[0], ridges[0])
    assert type(one.theta) is float and type(one.theta_prime) is float
    assert (one.theta, one.theta_prime) == _scalar_sct(spec, ns[0], ridges[0])


def test_broadcast_shapes():
    spec = power_law_spectrum(2.0, 20)
    assert solve_sct(spec, 100, np.array([1e-3, 1e-2])).theta.shape == (2,)
    assert solve_sct(spec, np.array([[10], [100], [1000]]), 1e-2).theta_prime.shape == (3, 1)
    assert solve_sct(spec, np.array([10, 100]), np.array([[1e-3], [1e-2], [1e-1]])
                     ).theta.shape == (3, 2)
    # NumPy scalars and 0-d arrays are scalars too.
    for ridge in (np.float64(1e-2), np.array(1e-2)):
        assert type(solve_sct(spec, np.int64(100), ridge).theta) is float
    assert solve_sct(spec, 100, np.array([])).theta.shape == (0,)
    with pytest.raises(ValueError):
        solve_sct(spec, np.array([10, 100]), np.array([1e-3, 1e-2, 1e-1]))


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
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^ridge must be positive and finite, got {bad}$"):
            solve_sct(spec, np.array([[10], [20]]), np.array([1e-2, bad, 1.0]))
    with pytest.raises(ValueError, match="^sample count must be >= 1, got 0$"):
        solve_sct(spec, np.array([10, 0, 20]), 1e-2)
    with pytest.raises(ValueError):
        Spectrum(((0.0, 1),))
    with pytest.raises(ValueError):
        Spectrum(((1.0, 0),))


def test_non_convergence_raises(monkeypatch):
    # One iteration converges no pair: the first one is named.
    monkeypatch.setattr(sct, "_MAX_ITERATIONS", 1)
    with pytest.raises(ArithmeticError, match=r"\(ridge=0\.01, n=10\)$"):
        solve_sct(power_law_spectrum(2.0, 20), 10, np.array([1e-2, 1e-1]))
    with pytest.raises(ArithmeticError, match=r"\(ridge=0\.1, n=20\)$"):
        solve_sct(power_law_spectrum(2.0, 20), 20, 0.1)


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
    assert spec.trace == float(m @ d)  # the bound the solver brackets with
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
    zero = GramSpectrum(np.zeros(6))
    res = sct_from_gram(zero, 0.7)
    assert res.theta == pytest.approx(0.7, rel=1e-12)
    assert res.theta_prime == pytest.approx(1.0, rel=1e-12)

    ident = GramSpectrum(np.ones(6))
    res = sct_from_gram(ident, 1.0)
    assert res.theta == pytest.approx(2.0, rel=1e-12)
    assert res.theta_prime == pytest.approx(1.0, rel=1e-12)


def test_sct_from_gram_two_values():
    s = GramSpectrum(np.array([0.0, 1.0]))
    res = sct_from_gram(s, 1.0)
    assert res.theta == pytest.approx(1 / 0.75, rel=1e-12)
    assert res.theta_prime == pytest.approx(0.625 / 0.75**2, rel=1e-12)


def test_sct_from_gram_bounds_hold():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ev = np.sort(rng.uniform(0, 3, int(rng.integers(1, 40))))
        s = GramSpectrum(ev)
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


@pytest.mark.parametrize("beta", [1.1, 1.5, 2.0, 2.5, 3.0])
def test_power_law_spectrum_is_pythons_power_bit_for_bit(beta):
    # np.arange(1, count + 1) ** -beta differs from Python's float power in
    # thousands of the 40,000 entries on an AVX-512 CPU, so the spectrum
    # keeps float(k) ** -beta.
    entries = power_law_spectrum(beta, 40_000).entries
    assert [d for d, _ in entries] == [float(k) ** -beta for k in range(1, 40_001)]
    assert {m for _, m in entries} == {1}


def test_spectrum_checks_in_bulk_and_names_the_first_bad_entry(monkeypatch):
    cap = sct.MULTIPLICITY_CAP
    with monkeypatch.context() as patch:  # floats and ints: no per-entry check
        patch.setattr(sct, "check_count", None)
        spec = Spectrum(((1.0, cap), [0.5, cap - 1], (0.25, 3)))
    # Other numbers, integral floats and integers beyond 64 bits take the
    # per-entry checks, to the same floats and ints.
    for spectrum, expected in ((spec, ((1.0, cap), (0.5, cap - 1), (0.25, 3))),
                               (Spectrum(((np.float32(0.25), np.int64(cap)),)), ((0.25, cap),)),
                               (Spectrum(((1.0, 2.0), (0.5, np.float64(3)))), ((1.0, 2), (0.5, 3))),
                               (Spectrum(((2, 2**70),)), ((2.0, 2**70),))):
        assert spectrum.entries == expected
        assert all(type(d) is float and type(m) is int for d, m in spectrum.entries)
    np.testing.assert_array_equal(spec.arrays()[1], [float(cap), float(cap - 1), 3.0])
    cases = {((1.0, 1), (0.0, 1), (1.0, 0)): "^eigenvalues must be positive and finite, got 0.0$",
             ((1.0, 0), (math.nan, 1)): "^multiplicity must be a whole number >= 1, got 0$",
             ((math.inf, 2.5),): "^eigenvalues must be positive and finite, got inf$",
             ((1.0, 1), (0.5, 2.5)): "^multiplicity must be a whole number >= 1, got 2.5$"}
    for entries, message in cases.items():
        with pytest.raises(ValueError, match=message):
            Spectrum(entries)


def test_expand_respects_multiplicity():
    spec = Spectrum(((2.0, 3), (0.5, 1)))
    np.testing.assert_allclose(spec.expand(), [2.0, 2.0, 2.0, 0.5])
    assert spec.expanded_size == 4
    assert spec.trace == pytest.approx(6.5)
    d, m = spec.arrays()
    assert spec.trace == float(m @ d)
