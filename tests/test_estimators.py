import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from kare.estimators import (
    RidgeScores,
    TrueFunction,
    bayesian_risk,
    classical_alignment,
    cross_validation_risk,
    cross_validation_risks,
    kare,
    log_marginal_likelihood,
    mean_predictor_coeffs,
    predictor_variance_component,
    theoretical_risk,
    theoretical_train_error,
    varrho,
)
from kare import krr
from kare.kernels import FAMILIES, KernelSpec, gram_matrix
from kare.sct import Spectrum, power_law_spectrum, rbf_gaussian_spectrum, solve_sct
from kare.spectral import decompose
from kare.synthetic import draw

GOLDEN = (1 + math.sqrt(5)) / 2


def _random_psd(rng, n):
    W = rng.standard_normal((n, n + 2))
    return W @ W.T / (n + 2)


def test_kare_zero_gram():
    y = np.array([1.0, -2.0, 0.5])
    G = np.zeros((3, 3))
    expected = float(y @ y) / 3
    assert kare(y, G, 0.7) == pytest.approx(expected, rel=1e-12)
    assert varrho(y, G, 0.7) == pytest.approx(expected, rel=1e-12)


def test_kare_identity_gram_ones():
    n = 6
    y = np.ones(n)
    G = n * np.eye(n)  # (1/n) G = I
    assert kare(y, G, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert varrho(y, G, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_varrho_on_a_non_flat_spectrum_equals_its_formula():
    # y^T B^{-2} y / Tr B^{-2}, B = (1/n)G + ridge I, by a dense inverse.  On
    # a flat spectrum (a zero or identity Gram) varrho is blind to the ridge.
    rng = np.random.default_rng(11)
    n = 12
    G = n * _random_psd(rng, n)
    y = rng.standard_normal(n)
    for ridge in (1e-2, 0.3, 2.0):
        B_inv2 = np.linalg.matrix_power(np.linalg.inv(G / n + ridge * np.eye(n)), 2)
        expected = float(y @ B_inv2 @ y) / float(np.trace(B_inv2))
        assert varrho(y, G, ridge) == pytest.approx(expected, rel=1e-10)


def test_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(4, 30))
        G = _random_psd(rng, n)
        y = rng.standard_normal(n)
        ridge = float(10 ** rng.uniform(-3, 0))
        k0, v0 = kare(y, G, ridge), varrho(y, G, ridge)
        for alpha in (1e-2, 1e2):
            assert kare(y, alpha * G, alpha * ridge) == pytest.approx(k0, rel=1e-10)
            assert varrho(y, alpha * G, alpha * ridge) == pytest.approx(v0, rel=1e-10)


def test_kare_positive_finite():
    rng = np.random.default_rng(1)
    G = _random_psd(rng, 12)
    y = rng.standard_normal(12)
    for ridge in np.logspace(-8, 4, 13):
        value = kare(y, G, float(ridge))
        assert np.isfinite(value) and value >= 0


def test_kare_equals_generalized_cross_validation():
    # Golub, Heath & Wahba (1979): with the hat matrix H = K (K + ridge I)^{-1},
    # K = G/n, GCV = n ||(I - H) y||^2 / Tr(I - H)^2 equals kare exactly.  H is
    # formed densely here, sharing no eigen code with kare.
    rng = np.random.default_rng(11)
    for n in (5, 17, 40):
        G = _random_psd(rng, n)
        y = rng.standard_normal(n)
        K = G / n
        for ridge in np.logspace(-4, 0, 5):
            H = np.linalg.solve(K + ridge * np.eye(n), K)
            R = np.eye(n) - H
            gcv = n * float(np.sum((R @ y) ** 2)) / float(np.trace(R)) ** 2
            assert kare(y, G, ridge) == pytest.approx(gcv, rel=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_or_labels_rejected(bad):
    G = np.eye(3)
    G[0, 1] = G[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        decompose(G)
    with pytest.raises(ValueError, match="non-finite"):
        RidgeScores(G, np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        RidgeScores(np.eye(3), np.array([1.0, bad, 0.0]))


def test_true_function_keeps_its_own_read_only_coefficients():
    b = np.ones(3)
    f = TrueFunction(b, 0.1)
    b[0] = 5.0
    assert f.coeffs.tolist() == [1.0, 1.0, 1.0]
    assert not f.coeffs.flags.writeable


def _rbf_fit():
    # A 4-point rbf fit to labels of ones, and its points.
    X = np.random.default_rng(0).standard_normal((4, 2))
    return krr.fit(KernelSpec("rbf", 1.0), X, np.ones(4), 0.1), X


# Inputs that would carry a NaN or inf into a result, or fail later with
# a message naming another cause: the check that owns each rejects it.
NON_FINITE_INPUTS = {
    "TrueFunction nan coefficient": (
        lambda: TrueFunction(np.array([1.0, np.nan])), "non-finite"),
    "TrueFunction infinite noise": (
        lambda: TrueFunction(np.ones(2), np.inf), "noise level must be finite"),
    "bayesian_risk infinite noise": (
        lambda: bayesian_risk(power_law_spectrum(2.0, 5), power_law_spectrum(2.0, 5),
                              np.inf, 10, 0.1), "noise level must be finite"),
    "krr.fit nan label": (
        lambda: krr.fit(KernelSpec("rbf", 1.0), np.zeros((3, 2)),
                        np.array([1.0, np.nan, 0.0]), 0.1), "labels have non-finite"),
    "krr.test_risk nan label": (
        lambda: krr.test_risk(*_rbf_fit(), np.array([1.0, np.nan, 0.0, 1.0])),
        "labels have non-finite"),
    "krr.train_error nan label": (
        lambda: krr.train_error(_rbf_fit()[0], np.array([1.0, np.nan, 0.0, 1.0])),
        "labels have non-finite"),
    "classical_alignment mismatched gram": (
        lambda: classical_alignment(np.ones(5), np.eye(4)),
        "sample count 5 does not match matrix size 4"),
    "Spectrum infinite eigenvalue": (
        lambda: Spectrum(((np.inf, 1),)), "positive and finite"),
    "solve_sct nan sample count": (
        lambda: solve_sct(power_law_spectrum(2.0, 5), np.nan, 0.1), "sample count"),
    "rbf_gaussian_spectrum infinite lengthscale": (
        lambda: rbf_gaussian_spectrum(2, np.inf, 1.0, 3), "positive and finite"),
    "rbf_gaussian_spectrum infinite sigma": (
        lambda: rbf_gaussian_spectrum(2, 1.0, np.inf, 3), "positive and finite"),
    "draw zero samples": (
        lambda: draw(power_law_spectrum(2.0, 3), TrueFunction(np.ones(3)), 0, 0),
        "sample count"),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_INPUTS))
def test_non_finite_input_fails_loudly(entry):
    call, message = NON_FINITE_INPUTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_alignment_and_cross_validation_reject_non_finite_inputs(bad):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((8, 2))
    G = gram_matrix(KernelSpec("rbf", 2.0), X)
    y = rng.standard_normal(8)
    y_bad = y.copy()
    y_bad[3] = bad
    G_bad = G.copy()
    G_bad[0, 1] = G_bad[1, 0] = bad
    with pytest.raises(ValueError, match="^labels have non-finite entries$"):
        classical_alignment(y_bad, G)
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        classical_alignment(y, G_bad)
    with pytest.raises(ValueError, match="^labels have non-finite entries$"):
        cross_validation_risks(G, y_bad, (0.1,), 4)
    with pytest.raises(ValueError, match="^labels have non-finite entries$"):
        cross_validation_risk(KernelSpec("rbf", 2.0), X, y_bad, 0.1, 4)


@pytest.mark.parametrize("ridge", [1e-320, 1e-300, 1e300])
def test_scores_finite_or_value_error_at_float_extremes(ridge):
    rng = np.random.default_rng(5)
    W = rng.standard_normal((6, 4))
    rs = RidgeScores(W @ W.T, rng.standard_normal(6))  # rank 4
    for name in ("kare", "varrho", "train_error", "log_marginal_likelihood"):
        try:
            value = getattr(rs, name)(ridge)
        except ValueError as exc:
            assert name in str(exc) and repr(ridge) in str(exc)
        else:
            assert isinstance(value, float) and math.isfinite(value)


def test_ridge_scores_match_functional_api():
    rng = np.random.default_rng(2)
    G = _random_psd(rng, 15)
    y = rng.standard_normal(15)
    rs = RidgeScores(G, y)
    for ridge in (1e-3, 0.1, 2.0):
        assert rs.kare(ridge) == pytest.approx(kare(y, G, ridge), rel=1e-12)
        assert rs.varrho(ridge) == pytest.approx(varrho(y, G, ridge), rel=1e-12)
        assert rs.log_marginal_likelihood(ridge) == pytest.approx(
            log_marginal_likelihood(y, G, ridge), rel=1e-12)
        # solve() really inverts (1/n) G + ridge I
        B = G / 15 + ridge * np.eye(15)
        np.testing.assert_allclose(B @ rs.solve(ridge), y, atol=1e-9)


def test_ridge_scores_leaves_its_gram_untouched():
    # The sweep's private path scales its own Gram in place and decomposes
    # it there, so the Gram's buffer ends up holding the C-order
    # eigenvectors; the public constructor decomposes its own scaled copy,
    # which then holds them, and both give the same bits.
    rng = np.random.default_rng(5)
    G = gram_matrix(KernelSpec("rbf", 3.0), rng.standard_normal((30, 3)))
    y = rng.standard_normal(30)
    before = G.tobytes()
    rs = RidgeScores(G, y)
    assert G.tobytes() == before and not np.shares_memory(rs.vectors, G)
    scratch = G.copy()
    in_place = RidgeScores._scaling_in_place(scratch, y)
    assert np.shares_memory(in_place.vectors, scratch)
    assert scratch.tobytes() == in_place.vectors.tobytes()
    for name in ("eigenvalues", "vectors", "w"):
        assert getattr(in_place, name).tobytes() == getattr(rs, name).tobytes()
    assert in_place.n == rs.n and in_place.kare(0.1) == rs.kare(0.1)


def test_ridge_scores_train_error_matches_krr():
    from kare import krr
    from kare.kernels import gram_matrix
    rng = np.random.default_rng(3)
    X = rng.standard_normal((18, 2))
    y = rng.standard_normal(18)
    kern = KernelSpec("rbf", 1.0)
    rs = RidgeScores(gram_matrix(kern, X), y)
    for ridge in (1e-3, 0.1):
        p = krr.fit(kern, X, y, ridge)
        assert rs.train_error(ridge) == pytest.approx(krr.train_error(p, y), rel=1e-8)


def test_loglik_zero_gram_formula():
    y = np.array([1.0, 2.0, -1.0, 0.5])
    n, ridge = 4, 0.3
    expected = -(float(y @ y) / (2 * ridge) + n / 2 * math.log(ridge)) / n
    assert log_marginal_likelihood(y, np.zeros((n, n)), ridge) == pytest.approx(expected, rel=1e-12)


def test_loglik_identity_gram_zero_labels():
    n = 5
    value = log_marginal_likelihood(np.zeros(n), n * np.eye(n), 0.4)
    assert value == pytest.approx(-0.5 * math.log(1.4), rel=1e-12)


def test_loglik_not_scale_invariant():
    # with zero labels the shift is exactly -log(alpha)/2; in general the
    # quadratic term moves too, so the score is not invariant
    n, ridge, alpha = 5, 0.4, 10.0
    zero = np.zeros(n)
    G = n * np.eye(n)
    delta = log_marginal_likelihood(zero, alpha * G, alpha * ridge) - \
        log_marginal_likelihood(zero, G, ridge)
    assert delta == pytest.approx(-0.5 * math.log(alpha), rel=1e-12)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(n)
    assert log_marginal_likelihood(y, alpha * G, alpha * ridge) != pytest.approx(
        log_marginal_likelihood(y, G, ridge), rel=1e-6)


def test_classical_alignment_cases():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(8)
    assert classical_alignment(y, np.outer(y, y)) == pytest.approx(1.0, rel=1e-12)
    u = np.zeros(8)
    u[0] = 1.0
    v = np.zeros(8)
    v[1] = 1.0
    assert classical_alignment(v, np.outer(u, u)) == pytest.approx(0.0, abs=1e-15)
    assert classical_alignment(y, np.eye(8)) == pytest.approx(1 / math.sqrt(8), rel=1e-12)
    with pytest.raises(ValueError):
        classical_alignment(np.zeros(8), np.eye(8))
    with pytest.raises(ValueError):
        classical_alignment(y, np.zeros((8, 8)))



def test_classical_alignment_is_scale_free_at_the_ends_of_the_float_range():
    # Before, 1e200 * ones gave 0.0 after an overflow warning, and
    # 1e-170 * I raised "Gram matrix is identically zero".
    y = np.array([1.0, 2.0, 3.0])
    assert classical_alignment(y, 1e200 * np.ones((3, 3))) == pytest.approx(
        classical_alignment(y, np.ones((3, 3))), rel=1e-15)
    assert classical_alignment(y, np.ones((3, 3))) == pytest.approx(6 / 7, rel=1e-15)
    assert classical_alignment(y, 1e-170 * np.eye(3)) == pytest.approx(
        1 / math.sqrt(3), rel=1e-15)
    # Scaling by a power of two is exact, so the rescaled sums give the
    # same bits.
    rng = np.random.default_rng(2)
    G = gram_matrix(KernelSpec("rbf", 3.0), rng.standard_normal((20, 3)))
    y = rng.standard_normal(20)
    reference = classical_alignment(y, G)
    for k in (600, -600):
        assert classical_alignment(y, 2.0**k * G) == reference
        assert classical_alignment(2.0**k * y, G) == reference
    with pytest.raises(ValueError, match="Gram matrix is identically zero"):
        classical_alignment(y, np.zeros((20, 20)))
    with pytest.raises(ValueError, match="labels are identically zero"):
        classical_alignment(np.zeros(20), 1e-170 * np.eye(20))

def test_theoretical_risk_golden_case():
    spec = Spectrum(((1.0, 1),))
    f = TrueFunction(np.array([1.0]), 0.0)
    assert theoretical_risk(spec, f, 1, 1.0) == pytest.approx(0.4472135954999579, rel=1e-9)
    assert theoretical_train_error(spec, f, 1, 1.0) == pytest.approx(0.17082039324993692, rel=1e-9)


def test_theoretical_risk_trivial_cases():
    spec = power_law_spectrum(2.0, 5)
    silent = TrueFunction(np.zeros(5), 0.0)
    assert theoretical_risk(spec, silent, 10, 0.1) == 0.0
    assert theoretical_train_error(spec, silent, 10, 0.1) == 0.0
    empty = Spectrum(())
    noisy = TrueFunction(np.zeros(0), 0.5)
    assert theoretical_risk(empty, noisy, 10, 0.1) == pytest.approx(0.25)


def test_risk_train_ratio_identity():
    spec = power_law_spectrum(2.0, 10)
    f = TrueFunction(1.0 / np.arange(1, 11), 0.2)
    for n in (5, 50):
        for ridge in (1e-3, 0.1, 1.0):
            theta = solve_sct(spec, n, ridge).theta
            ratio = theoretical_risk(spec, f, n, ridge) / theoretical_train_error(spec, f, n, ridge)
            assert ratio == pytest.approx(theta**2 / ridge**2, rel=1e-12)


def test_bias_monotone_in_ridge():
    spec = power_law_spectrum(2.0, 10)
    f = TrueFunction(1.0 / np.arange(1, 11), 0.0)
    biases = [
        theoretical_risk(spec, f, 50, r) / solve_sct(spec, 50, r).theta_prime
        for r in np.logspace(-4, 1, 8)
    ]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(biases, biases[1:]))


def test_mean_predictor_coeffs():
    # dominant mode is learned, vanishing mode is not, matched mode is halved
    spec = Spectrum(((1e6, 1), (1e-12, 1), (1.0, 1)))
    f = TrueFunction(np.array([2.0, 3.0, 4.0]), 0.0)
    coeffs = mean_predictor_coeffs(spec, f, 10**9, 1.0)
    assert coeffs[0] == pytest.approx(2.0, rel=1e-5)
    assert abs(coeffs[1]) < 1e-11
    assert coeffs[2] == pytest.approx(2.0, rel=1e-5)  # 4 * d/(theta+d) with theta ~ 1
    with pytest.raises(ValueError, match="^2 coefficients but 3 expanded modes$"):
        mean_predictor_coeffs(spec, TrueFunction(np.array([2.0, 3.0]), 0.0), 10, 1.0)


def test_variance_component_golden_case():
    spec = Spectrum(((1.0, 1),))
    f = TrueFunction(np.array([1.0]), 0.0)
    assert predictor_variance_component(spec, f, 1, 1.0, 0) == pytest.approx(
        0.1304951684997056, rel=1e-9)


def test_variance_component_trivial_cases():
    spec = Spectrum(((1e-12, 1), (1.0, 1)))
    silent = TrueFunction(np.zeros(2), 0.0)
    assert predictor_variance_component(spec, silent, 10, 0.5, 0) == 0.0
    live = TrueFunction(np.array([1.0, 1.0]), 0.3)
    assert predictor_variance_component(spec, live, 10, 0.5, 0) < 1e-22
    with pytest.raises(ValueError):
        predictor_variance_component(spec, live, 10, 0.5, 2)


def test_bayesian_risk_collapse_and_alignment():
    spec = power_law_spectrum(2.0, 8)
    noise, n = 0.4, 50
    ridge = noise**2 / n
    value = bayesian_risk(spec, spec, noise, n, ridge)
    assert value == pytest.approx(n * solve_sct(spec, n, ridge).theta, rel=1e-12)

    # matched spectra at generic ridge: the third term vanishes exactly
    res = solve_sct(spec, n, 0.05)
    expected = n * res.theta + n * res.theta_prime * (noise**2 / n - 0.05)
    assert bayesian_risk(spec, spec, noise, n, 0.05) == pytest.approx(expected, rel=1e-12)

    with pytest.raises(ValueError, match="aligned"):
        bayesian_risk(spec, power_law_spectrum(2.0, 9), noise, n, 0.05)
    with pytest.raises(ValueError, match="aligned"):
        bayesian_risk(
            Spectrum(((1.0, 2),)), Spectrum(((1.0, 3),)), noise, n, 0.05)


def test_bayesian_risk_matches_direct_average():
    # averaging the closed-form risk over targets with per-mode variance s_k
    spec_k = power_law_spectrum(2.0, 12)
    spec_s = power_law_spectrum(1.5, 12)
    s = np.array([v for v, _ in spec_s.entries])
    d = np.array([v for v, _ in spec_k.entries])
    noise, n, ridge = 0.3, 60, 0.02
    res = solve_sct(spec_k, n, ridge)
    direct = res.theta_prime * (
        float(np.sum(s * (res.theta / (res.theta + d)) ** 2)) + noise**2)
    assert bayesian_risk(spec_k, spec_s, noise, n, ridge) == pytest.approx(direct, rel=1e-12)


def test_cross_validation_basics():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((20, 2))
    kern = KernelSpec("rbf", 2.0)
    assert cross_validation_risk(kern, X, np.zeros(20), 0.1, 4) == 0.0
    loo = cross_validation_risk(kern, X, rng.standard_normal(20), 0.1, 20)
    assert np.isfinite(loo) and loo >= 0
    with pytest.raises(ValueError):
        cross_validation_risk(kern, X, np.zeros(20), 0.1, 1)
    with pytest.raises(ValueError):
        cross_validation_risk(kern, X, np.zeros(20), 0.1, 21)


def test_cross_validation_deterministic_per_seed():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((19, 2))
    y = rng.standard_normal(19)
    kern = KernelSpec("rbf", 2.0)
    a = cross_validation_risk(kern, X, y, 0.05, 4, seed=11)
    b = cross_validation_risk(kern, X, y, 0.05, 4, seed=11)
    c = cross_validation_risk(kern, X, y, 0.05, 4, seed=12)
    assert a == b
    assert a != c


def _cv_by_refitting(kern, X, y, ridge, folds, seed):
    # The route that refits on each fold's points: krr.fit on the rest,
    # krr.test_risk on the held-out block, averaged over folds.
    n = y.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    errors, start = [], 0
    for i in range(folds):
        size = n // folds + (1 if i < n % folds else 0)
        held = order[start:start + size]
        start += size
        rest = np.setdiff1d(order, held)
        p = krr.fit(kern, X[rest], y[rest], ridge)
        errors.append(krr.test_risk(p, X[held], y[held]))
    return float(np.mean(errors))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("duplicates", [False, True])
def test_cross_validation_equals_refitting_each_fold(family, duplicates):
    # Slicing the full Gram gives the fold Grams bit for bit, so the two
    # routes agree exactly, not to a tolerance.
    rng = np.random.default_rng(8)
    X = rng.standard_normal((13, 3))
    if duplicates:
        X = np.repeat(X[:5], [3, 3, 3, 2, 2], axis=0)
    y = rng.standard_normal(13)
    kern = KernelSpec(family, 2.5)
    for folds in (2, 3, 13):
        for ridge in (1e-3, 0.3):
            assert (cross_validation_risk(kern, X, y, ridge, folds, seed=4)
                    == _cv_by_refitting(kern, X, y, ridge, folds, 4))
        assert cross_validation_risks(gram_matrix(kern, X), y, (1e-3, 0.3), folds, 4) == [
            cross_validation_risk(kern, X, y, ridge, folds, seed=4) for ridge in (1e-3, 0.3)]


def test_cross_validation_risks_have_the_bits_of_one_documented_solve_per_fold_and_ridge():
    # The Gram is asymmetric below SYMMETRY_TOL, so each fold solve must
    # read the lower triangle of its (1/n)G, as SciPy's documented call does.
    rng = np.random.default_rng(10)
    n, folds, ridges = 30, 4, (1e-4, 1e-2, 1.0)
    G = gram_matrix(KernelSpec("rbf", 2.0), rng.standard_normal((n, 3)))
    G[np.triu_indices(n, 1)] += rng.uniform(1e-10, 1e-9, n * (n - 1) // 2)
    y = rng.standard_normal(n)
    errors = [[] for _ in ridges]
    for held in np.array_split(np.random.default_rng(5).permutation(n), folds):
        rest = np.setdiff1d(np.arange(n), held)
        m = rest.size
        for fold_errors, ridge in zip(errors, ridges):
            B = G[np.ix_(rest, rest)] / m + ridge * np.eye(m)
            dual = cho_solve(cho_factor(B, lower=True), y[rest]) / m
            r = G[np.ix_(held, rest)] @ dual - y[held]
            fold_errors.append(float(r @ r) / held.size)
    np.testing.assert_array_equal(cross_validation_risks(G, y, ridges, folds, seed=5),
                                  [np.mean(fold_errors) for fold_errors in errors])


@pytest.mark.parametrize("n, folds", [(2, 2), (13, 3), (30, 4), (101, 7), (50, 50)])
def test_cross_validation_fits_each_fold_on_setdiff1ds_indices(n, folds, monkeypatch):
    # Each fold fits on the sorted complement of its held-out block, the
    # indices np.setdiff1d gives; the labels 0..n-1 name the fitted rows.
    fitted = []

    def factor_solve(B, y, ridge):
        fitted.append(y.tolist())
        return np.zeros(y.size)
    monkeypatch.setattr(krr, "_factor_solve", factor_solve)
    cross_validation_risks(np.eye(n), np.arange(float(n)), (0.1,), folds, seed=n)
    order = np.random.default_rng(n).permutation(n)
    assert fitted == [np.setdiff1d(order, held).tolist() for held in np.array_split(order, folds)]


def test_cross_validation_holds_at_most_two_fold_grams():
    # Each fold's Gram is gathered once, in Fortran order, and scaled in
    # place, and every ridge factors it in one buffer made once per call:
    # at its peak a call holds two m x m fold Grams, one held-out block,
    # O(n) floats and NumPy's buffers for the gather's two index arrays
    # (8192 indices each).  A C-order gather, then a scaled Fortran-order
    # copy, then the factor buffer would hold three fold Grams.
    rng = np.random.default_rng(8)
    n, folds, ridges = 400, 4, (1e-3, 1e-2, 1e-1, 1.0, 10.0)
    G = gram_matrix(KernelSpec("rbf", 2.0), rng.standard_normal((n, 3)))
    y = rng.standard_normal(n)
    held = n // folds
    m = n - held
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        risks = cross_validation_risks(G, y, ridges, folds, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(risks) == len(ridges)
    assert peak - before <= (2 * m * m + held * m + 16 * n + 2 * 8192) * 8


def test_cross_validation_risks_rejects_a_mismatched_gram():
    with pytest.raises(ValueError, match="sample count 5 does not match matrix size 4"):
        cross_validation_risks(np.eye(4), np.zeros(5), (0.1,), 2)


def test_cross_validation_risks_rejects_an_asymmetric_or_non_finite_gram():
    # The fold factorizations read one triangle, so an asymmetric Gram
    # would otherwise give a risk without complaint; so would alignment.
    y = np.random.default_rng(3).standard_normal(8)
    G = np.eye(8)
    G[0, 1] = 0.5
    with pytest.raises(ValueError, match="not symmetric"):
        cross_validation_risks(G, y, (0.1,), 4)
    with pytest.raises(ValueError, match="not symmetric"):
        classical_alignment(y, G)
    G[1, 0] = 0.5
    cross_validation_risks(G, y, (0.1,), 4)
    G[0, 1] = G[1, 0] = np.nan
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        cross_validation_risks(G, y, (0.1,), 4)


def test_true_function_validation():
    with pytest.raises(ValueError):
        TrueFunction(np.zeros(3), -0.1)
    spec = power_law_spectrum(2.0, 4)
    with pytest.raises(ValueError, match="modes"):
        theoretical_risk(spec, TrueFunction(np.zeros(3), 0.0), 10, 0.1)


def test_nonpositive_ridge_rejected():
    y = np.ones(3)
    G = np.eye(3)
    for func in (kare, varrho, log_marginal_likelihood):
        with pytest.raises(ValueError):
            func(y, G, 0.0)
