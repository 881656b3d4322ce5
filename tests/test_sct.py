import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kare import sct
from kare.spectral import (GramSpectrum, NumericalError, decompose, stieltjes,
                           stieltjes_derivative)
from kare.sct import (
    Spectrum,
    power_law_spectrum,
    rbf_gaussian_spectrum,
    sct_from_gram,
    shell_multiplicity,
    solve_sct,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def _bisect_reference(spec, n, ridge):
    # Independent route: plain bisection on the fixed-point residual g until
    # the bracket holds no float between its ends, then the closed-form
    # theta' at that theta.
    d = np.array([e[0] for e in spec.entries])
    m = np.array([float(e[1]) for e in spec.entries])

    def g(t):
        return t - ridge - (t / n) * float(np.sum(m * d / (d + t)))

    lo, hi = ridge, ridge + float(m @ d) / n
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid, 1.0 / (1.0 - float(np.sum(m * (d / (d + mid)) ** 2)) / n)


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
    assert res.theta == pytest.approx(_bisect_reference(spec, 1, 1.0)[0], rel=1e-10)
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
    for bad in (0.0, math.nan, math.inf):
        message = f"^sample count must be finite and >= 1, got {bad:g}$"
        with pytest.raises(ValueError, match=message):
            solve_sct(spec, np.array([10, bad, 20]), 1e-2)
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


def _reference_spectra():
    rng = np.random.default_rng(3)
    for _ in range(30):  # as suite_prop3 draws them
        size = int(rng.integers(1, 51))
        yield Spectrum(tuple(zip(rng.uniform(1e-6, 10.0, size).tolist(),
                                 rng.integers(1, 6, size).tolist())))
    yield from (power_law_spectrum(1.5, 4000), power_law_spectrum(3.0, 400),
                rbf_gaussian_spectrum(3, 2.0, 0.7, 20), rbf_gaussian_spectrum(5, 5.0, 1.0, 50))


def test_solve_agrees_with_plain_bisection_within_the_residual_rule():
    # |g(theta)| <= 1e-12 (ridge + trace/n) maps through the slope
    # g' = 1/theta' to |theta - root| <= 1e-12 (ridge + trace/n) theta';
    # the factor 4 covers the rounding of g and of the reference.
    ns, ridges = np.array([1, 10, 100, 1000]), np.array([1e-6, 1e-4, 1e-2, 1.0])
    for spec in _reference_spectra():
        grid = solve_sct(spec, ns[:, None], ridges)
        for i, n in enumerate(ns.tolist()):
            for j, ridge in enumerate(ridges.tolist()):
                theta_ref, prime_ref = _bisect_reference(spec, n, ridge)
                bound = 4 * 1e-12 * (ridge + spec.trace / n) * prime_ref
                scalar = solve_sct(spec, n, ridge)
                for theta in (grid.theta[i, j], scalar.theta):
                    assert abs(theta - theta_ref) <= bound, (spec.entries[:3], n, ridge)


@pytest.mark.parametrize("entries, n, ridge, trace", [
    (((1e308, 10),), 10, 1e-2, "inf"),
    (((1e308, 1), (1e308, 1)), 10, np.array([1e-2, 1.0]), "inf"),
    (((1e308, 1),), np.array([1, 1e300]), 1e308, "1e+308"),  # only the bracket overflows
])
def test_a_bracket_beyond_float64_raises_before_the_first_iteration(entries, n, ridge, trace,
                                                                     monkeypatch):
    def unsolved(*args):
        raise AssertionError("iterated on an infinite bracket")
    monkeypatch.setattr(sct, "_newton_bisection", unsolved)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^ridge \+ trace/n is not representable in "
                                                 rf"float64 \(spectrum trace {re.escape(trace)}\)$"):
            solve_sct(Spectrum(entries), n, ridge)


def test_a_built_power_law_spectrum_retains_at_most_32_bytes_per_entry():
    count = 40_000
    power_law_spectrum(2.0, 2)
    tracemalloc.start()
    try:
        spec = power_law_spectrum(2.0, count)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spec.expanded_size == count
    assert retained <= 32 * count


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


# Spectrum's input contract: (make the input, the entries it gives).  Pairs
# of any sequence type from any iterable; eigenvalues as anything float()
# takes; multiplicities as whole numbers of any type, exact beyond 53 and
# 64 bits.
ACCEPTED = {
    "numpy rows": (lambda: np.array([[1.0, 2.0], [0.5, 1.0]]), ((1.0, 2), (0.5, 1))),
    "generator": (lambda: ((d, 1) for d in (1.0, 0.5)), ((1.0, 1), (0.5, 1))),
    "list": (lambda: [(1.0, 1), [0.5, 2]], ((1.0, 1), (0.5, 2))),
    "string eigenvalues": (lambda: (("0.5", 1), ("1e-3", 2)), ((0.5, 1), (0.001, 2))),
    "numpy eigenvalue": (lambda: ((np.float32(0.25), 1),), ((0.25, 1),)),
    "bool multiplicity": (lambda: ((1.0, True),), ((1.0, 1),)),
    "numpy-integer multiplicities": (lambda: ((1.0, np.int64(sct.MULTIPLICITY_CAP)),
                                              (0.5, np.uint8(2))),
                                     ((1.0, sct.MULTIPLICITY_CAP), (0.5, 2))),
    "integral-float multiplicities": (lambda: ((1.0, 2.0), (0.5, np.float64(3))),
                                      ((1.0, 2), (0.5, 3))),
    "2**53 + 1": (lambda: ((1.0, 2**53 + 1), (0.5, 1)), ((1.0, 2**53 + 1), (0.5, 1))),
    "2**70": (lambda: ((2, 2**70),), ((2.0, 2**70),)),
    "empty": (lambda: (), ()),
}


@pytest.mark.parametrize("case", ACCEPTED)
def test_spectrum_accepts_any_pairs_of_numbers(case):
    make, expected = ACCEPTED[case]
    spec = Spectrum(make())
    assert spec.entries == expected
    assert all(type(d) is float and type(m) is int for d, m in spec.entries)
    assert spec == Spectrum(expected) and hash(spec) == hash(Spectrum(expected))
    assert spec != Spectrum(expected + ((0.1, 1),))
    assert repr(spec) == f"Spectrum(entries={expected!r})"
    d, m = spec.arrays()
    assert d.dtype == m.dtype == np.float64 and not (d.flags.writeable or m.flags.writeable)
    assert d.tolist() == [d for d, _ in expected]
    assert m.tolist() == [float(m) for _, m in expected]
    assert spec.expanded_size == sum(m for _, m in expected)


# A bad entry -> the exact message that names it.
REJECTED = {
    "zero eigenvalue": ((0.0, 1), "eigenvalues must be positive and finite, got 0.0"),
    "negative eigenvalue": ((-1, 1), "eigenvalues must be positive and finite, got -1.0"),
    "nan eigenvalue": ((math.nan, 1), "eigenvalues must be positive and finite, got nan"),
    "inf eigenvalue": ((math.inf, 1), "eigenvalues must be positive and finite, got inf"),
    "zero multiplicity": ((1.0, 0), "multiplicity must be a whole number >= 1, got 0"),
    "fractional multiplicity": ((1.0, 2.5), "multiplicity must be a whole number >= 1, got 2.5"),
    "nan multiplicity": ((1.0, math.nan), "multiplicity must be a whole number >= 1, got nan"),
    "three elements": ((1.0, 1, 2), "a spectrum entry must be an (eigenvalue, multiplicity) "
                                    "pair, got (1.0, 1, 2)"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_spectrum_rejects_a_bad_entry_with_its_exact_message(case):
    bad, message = REJECTED[case]
    # Between good entries and before another bad one: the first bad entry
    # is the one named.
    for entries in ((bad,), ((1.0, 1), bad, (0.5, 2), (0.0, 0))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Spectrum(entries)


def test_spectrum_checks_each_entry_and_names_the_first_bad_one():
    # Entries in order; within an entry, the eigenvalue before the multiplicity.
    cases = {((1.0, 1), (0.0, 1), (1.0, 0)): "^eigenvalues must be positive and finite, got 0.0$",
             ((1.0, 0), (math.nan, 1)): "^multiplicity must be a whole number >= 1, got 0$",
             ((math.inf, 2.5),): "^eigenvalues must be positive and finite, got inf$",
             ((1.0, 1), (0.5, 2.5)): "^multiplicity must be a whole number >= 1, got 2.5$"}
    for entries, message in cases.items():
        with pytest.raises(ValueError, match=message):
            Spectrum(entries)


def test_a_multiplicity_beyond_float64_is_an_overflow():
    # A whole number >= 1, but no float holds it: a bad entry after it is
    # still named first, since the entry checks pass this one.
    with pytest.raises(OverflowError, match="^int too large to convert to float$"):
        Spectrum(((1.0, 1), (0.5, 10**400)))
    with pytest.raises(ValueError, match="^multiplicity must be a whole number >= 1, got 0$"):
        Spectrum(((0.5, 10**400), (1.0, 0)))


def test_expand_respects_multiplicity():
    spec = Spectrum(((2.0, 3), (0.5, 1)))
    np.testing.assert_allclose(spec.expand(), [2.0, 2.0, 2.0, 0.5])
    assert spec.expanded_size == 4
    assert spec.trace == pytest.approx(6.5)
    d, m = spec.arrays()
    assert spec.trace == float(m @ d)
