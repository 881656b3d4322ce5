import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from kare import synthetic
from kare.estimators import RidgeScores, TrueFunction
from kare.krr import ridge_solve
from kare.sct import Spectrum, power_law_spectrum, rbf_gaussian_spectrum, sct_from_gram, solve_sct
from kare.spectral import NumericalError, decompose, stieltjes
from kare.synthetic import (
    MAX_MODES,
    ObservationDraw,
    _variance_stderr,
    draw,
    empirical_train_error,
    exact_risk,
    mc_coeff_stats,
    mc_expected_risk,
    mc_operator_moments,
    predictor_coeffs,
    rbf_gaussian_gram_spectrum,
    sample_draws,
    sample_spectra,
)
from kare.validation import suite_kare


def test_draw_zero_function_zero_labels():
    spec = power_law_spectrum(2.0, 5)
    dr = draw(spec, TrueFunction(np.zeros(5), 0.0), 12, 0)
    assert np.all(dr.y == 0.0)
    assert dr.O.shape == (12, 5)
    assert dr.G.shape == (12, 12)
    np.testing.assert_allclose(dr.G, dr.G.T)


def test_draw_tiny_eigenvalue_gives_tiny_gram():
    spec = Spectrum(((1e-12, 1),))
    dr = draw(spec, TrueFunction(np.zeros(1), 0.0), 10, 1)
    assert np.max(np.abs(dr.G)) < 1e-10


def test_draw_deterministic_per_seed():
    spec = power_law_spectrum(2.0, 4)
    f = TrueFunction(np.ones(4), 0.3)
    a = draw(spec, f, 9, (5, 2))
    b = draw(spec, f, 9, (5, 2))
    assert np.array_equal(a.G, b.G)
    assert np.array_equal(a.y, b.y)
    c = draw(spec, f, 9, (5, 3))
    assert not np.array_equal(a.G, c.G)


def test_mode_cap_enforced():
    spec = rbf_gaussian_spectrum(20, 20.0, 1.0, 10)  # ~3e7 modes expanded
    with pytest.raises(ValueError, match="cap"):
        draw(spec, TrueFunction(np.zeros(spec.expanded_size), 0.0), 5, 0)


def test_coefficient_mismatch_rejected():
    spec = power_law_spectrum(2.0, 4)
    with pytest.raises(ValueError, match="modes"):
        draw(spec, TrueFunction(np.zeros(3), 0.0), 5, 0)


def test_exact_risk_trivial_cases():
    spec = power_law_spectrum(2.0, 4)
    silent = TrueFunction(np.zeros(4), 0.0)
    dr = draw(spec, silent, 10, 0)
    assert exact_risk(dr, silent, 0.1) == 0.0

    noisy = TrueFunction(np.zeros(4), 0.2)
    dr = draw(spec, noisy, 10, 0)
    assert exact_risk(dr, noisy, 0.1) >= 0.2**2
    with pytest.raises(ValueError):
        exact_risk(dr, noisy, 0.0)


def test_oracles_raise_where_one_over_mu_plus_ridge_overflows():
    # One mode of eigenvalue 1e-320 at ridge 1e-320: 1/(mu + ridge) is
    # beyond float64, so each oracle names its quantity instead of
    # returning inf or NaN.
    spec = Spectrum(((1e-320, 1),))
    f = TrueFunction(np.ones(1), 0.1)
    dr = draw(spec, f, 1, 0)
    for name, oracle in (
            ("predictor coefficients", lambda: predictor_coeffs(dr, 1e-320)),
            ("exact risk", lambda: exact_risk(dr, f, 1e-320)),
            ("train error", lambda: empirical_train_error(dr, 1e-320)),
            ("operator entries", lambda: mc_operator_moments(spec, 1, 1e-320, 2, 0, (0,)))):
        with pytest.raises(NumericalError, match=f"^{name} is not representable in float64"):
            oracle()


def test_exact_risk_scalar_case():
    # one mode, one sample: closed scalar algebra
    d, b, eps, ridge = 0.7, 1.3, 0.2, 0.05
    spec = Spectrum(((d, 1),))
    f = TrueFunction(np.array([b]), eps)
    dr = draw(spec, f, 1, 42)
    o = dr.O[0, 0]
    y = dr.y[0]
    a_hat = d * o * y / (d * o * o + ridge)
    expected = (a_hat - b) ** 2 + eps**2
    assert exact_risk(dr, f, ridge) == pytest.approx(expected, rel=1e-12)


def test_exact_risk_against_function_space_sampling():
    # ||fhat - f*||^2 equals E[(o(fhat - f*))^2] over fresh standard
    # normal observations; estimate that expectation directly
    spec = Spectrum(((1.0, 1), (0.3, 2)))
    f = TrueFunction(np.array([1.0, -0.5, 0.25]), 0.0)
    dr = draw(spec, f, 30, 3)
    ridge = 0.05
    risk = exact_risk(dr, f, ridge)
    coeff_error = predictor_coeffs(dr, ridge) - f.coeffs
    rng = np.random.default_rng(99)
    O_test = rng.standard_normal((200_000, 3))
    sampled = float(np.mean((O_test @ coeff_error) ** 2))
    assert risk == pytest.approx(sampled, rel=0.05)


def test_empirical_train_error_matches_direct_inverse():
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    dr = draw(spec, f, 15, 4)
    ridge = 0.02
    B = dr.G / 15 + ridge * np.eye(15)
    v = np.linalg.solve(B, dr.y)
    expected = ridge**2 * float(v @ v) / 15
    assert empirical_train_error(dr, ridge) == pytest.approx(expected, rel=1e-10)


def test_mc_expected_risk_trivial_and_clt():
    spec = power_law_spectrum(2.0, 4)
    silent = TrueFunction(np.zeros(4), 0.0)
    mean, stderr = mc_expected_risk(spec, silent, 10, 0.1, 5, 0)
    assert mean == 0.0 and stderr == 0.0

    f = TrueFunction(np.ones(4), 0.2)
    _, se100 = mc_expected_risk(spec, f, 20, 0.1, 100, 1)
    _, se400 = mc_expected_risk(spec, f, 20, 0.1, 400, 1)
    assert 1.2 <= se100 / se400 <= 3.2
    with pytest.raises(ValueError):
        mc_expected_risk(spec, f, 10, 0.1, 1, 0)


def test_sherman_morrison_diagonal_identity():
    # A_kk = d_k g_k / (1 + d_k g_k) with g_k built from the spectrum
    # that has mode k removed
    rng = np.random.default_rng(5)
    spec = power_law_spectrum(2.0, 8)
    d = spec.expand()
    f = TrueFunction(np.zeros(8), 0.0)
    ridge = 0.05
    for case in range(10):
        n = int(rng.integers(5, 25))
        dr = draw(spec, f, n, (7, case))
        k = int(rng.integers(0, 8))
        B = dr.G / n + ridge * np.eye(n)
        a_kk = d[k] / n * float(
            dr.O[:, k] @ cho_solve(cho_factor(B, lower=True), dr.O[:, k]))
        d_masked = d.copy()
        d_masked[k] = 0.0
        B_k = (dr.O * d_masked) @ dr.O.T / n + ridge * np.eye(n)
        g_k = float(dr.O[:, k] @ np.linalg.solve(B_k, dr.O[:, k])) / n
        expected = d[k] * g_k / (1 + d[k] * g_k)
        assert a_kk == pytest.approx(expected, rel=1e-8)


def test_operator_identity_small_matrix_route():
    spec = power_law_spectrum(2.0, 12)
    d = spec.expand()
    f = TrueFunction(np.zeros(12), 0.0)
    dr = draw(spec, f, 30, 9)
    ridge = 0.05
    B = dr.G / 30 + ridge * np.eye(30)
    A_direct = (d[:, None] / 30) * (dr.O.T @ cho_solve(cho_factor(B, lower=True), dr.O))
    M = d[:, None] * (dr.O.T @ dr.O) / 30
    A_small = np.linalg.solve((M + ridge * np.eye(12)).T, M.T).T
    np.testing.assert_allclose(A_direct, A_small, atol=1e-8)


def test_mc_operator_moments_limits():
    # dominant, well separated mode is fully captured
    spec = Spectrum(((100.0, 1), (1e-4, 5)))
    om = mc_operator_moments(spec, 40, 1e-2, 50, 0, (0,))
    assert om.diag_mean[0] == pytest.approx(1.0, abs=0.02)

    # overwhelming ridge kills every mode
    om = mc_operator_moments(spec, 40, 1e6, 50, 0, (0, 1))
    assert np.max(np.abs(om.diag_mean)) < 1e-2


def test_mc_operator_moments_interface():
    spec = power_law_spectrum(2.0, 6)
    om = mc_operator_moments(spec, 25, 0.05, 20, 3, (0, 2))
    assert om.indices == (0, 2)
    assert om.pairs == ((0, 2), (2, 0))
    assert om.diag_mean.shape == (2,)
    assert om.stieltjes_gap_mean >= 0
    with pytest.raises(ValueError):
        mc_operator_moments(spec, 25, 0.05, 20, 3, (9,))


def test_empty_index_set_gives_empty_moments():
    # No modes asked for: every per-mode array is empty, and the Stieltjes
    # gap, which reads no mode, is that of any other index set.
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    om = mc_operator_moments(spec, 20, 0.05, 3, 0, ())
    assert om.indices == () and om.pairs == ()
    for values in (om.diag_mean, om.diag_mean_stderr, om.offdiag_mean, om.offdiag_stderr):
        assert values.shape == (0,)
    assert om.stieltjes_gap_mean == mc_operator_moments(spec, 20, 0.05, 3, 0, (0,)).stieltjes_gap_mean
    cs = mc_coeff_stats(spec, f, 20, 0.05, 3, 0, ())
    assert cs.indices == ()
    for values in (cs.mean, cs.mean_stderr, cs.var, cs.var_stderr):
        assert values.shape == (0,)


def test_mc_coeff_stats_mean_tracks_prediction():
    spec = power_law_spectrum(2.0, 10)
    b = 1.0 / np.arange(1, 11)
    f = TrueFunction(b, 0.1)
    n, ridge = 200, 0.02
    cs = mc_coeff_stats(spec, f, n, ridge, 150, 11, (0, 1))
    theta = solve_sct(spec, n, ridge).theta
    d = spec.expand()
    for j, k in enumerate(cs.indices):
        predicted = b[k] * d[k] / (theta + d[k])
        assert abs(cs.mean[j] - predicted) <= max(4 * cs.mean_stderr[j], 0.02 * abs(predicted))


def test_mc_stieltjes_gap_shrinks_with_n():
    spec = power_law_spectrum(2.0, 30)
    gap_small = mc_operator_moments(spec, 50, 0.05, 30, 2, (0,)).stieltjes_gap_mean
    gap_large = mc_operator_moments(spec, 400, 0.05, 30, 2, (0,)).stieltjes_gap_mean
    assert gap_large < gap_small


def test_rbf_gaussian_gram_spectrum_shape():
    gs = rbf_gaussian_gram_spectrum(4, 4.0, 1.0, 50, 0)
    assert gs.n == 50 and gs.eigenvalues.shape == (50,)
    assert float(gs.eigenvalues.sum()) == pytest.approx(1.0, rel=1e-6)
    assert MAX_MODES == 5000


@pytest.mark.parametrize("n", [1, 2, 50, 130])
def test_rbf_gaussian_gram_spectrum_decomposes_its_own_gram_with_decompose_bits(n):
    # The sampler scales its Gram in place and decomposes its transpose;
    # on an exactly symmetric Gram that is decompose's Fortran-order G/n.
    from kare.kernels import KernelSpec, gram_matrix
    X = 1.5 * np.random.default_rng(7).standard_normal((n, 3))
    expected = decompose(gram_matrix(KernelSpec("rbf", 4.0), X)).eigenvalues
    assert rbf_gaussian_gram_spectrum(3, 4.0, 1.5, n, 7).eigenvalues.tobytes() == expected.tobytes()


def test_draw_builds_the_gram_only_when_read():
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    dr = draw(spec, f, 30, 4)
    exact_risk(dr, f, 0.05)
    empirical_train_error(dr, 0.05)
    assert "G" not in vars(dr)
    A = (dr.O * dr.d) @ dr.O.T
    assert np.array_equal(dr.G, 0.5 * (A + A.T))
    assert dr.G is dr.G


def _score_at_three_ridges(dr):
    # The train error, every method of the draw's scores, and the
    # threshold estimates that read its spectrum.
    for ridge in (1e-3, 0.05, 10.0):
        empirical_train_error(dr, ridge)
        for score in (dr.scores.kare, dr.scores.varrho, dr.scores.train_error,
                      dr.scores.log_marginal_likelihood, dr.scores.solve):
            score(ridge)
        stieltjes(dr.scores, ridge)
        sct_from_gram(dr.scores, ridge)


def test_monte_carlo_oracles_never_read_the_gram(monkeypatch):
    def unread(self):
        raise AssertionError("an oracle built the n x n Gram")

    monkeypatch.setattr(ObservationDraw, "G", property(unread))
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    mc_expected_risk(spec, f, 20, 0.05, 3, 0)
    mc_coeff_stats(spec, f, 20, 0.05, 3, 0, (0, 1))
    mc_operator_moments(spec, 20, 0.05, 3, 0, (0, 1))
    for n in (20, 4):
        _score_at_three_ridges(draw(spec, f, n, 0))
    assert all(check.passed for check in suite_kare(0))


def test_monte_carlo_oracles_decompose_each_draw_once(monkeypatch):
    # Every oracle, the train error and the scores read one lapack.eigh of
    # the draw's smaller Gram at every ridge (M x M for n = 20 > M = 6, n x n
    # for n = 4), and factor nothing.  The three oracles read eigenvalues
    # from the draw's spectrum, so no QR runs for them.
    shapes, original = [], synthetic.eigh

    def counted(B, *args, **kwargs):
        shapes.append(B.shape)
        return original(B, *args, **kwargs)

    def unused(*args, **kwargs):
        raise AssertionError("an oracle called ridge_solve or qr")

    monkeypatch.setattr(synthetic, "eigh", counted)
    monkeypatch.setattr("kare.krr.ridge_solve", unused)
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    for n, size in ((20, 6), (4, 4)):
        with monkeypatch.context() as patch:
            patch.setattr("numpy.linalg.qr", unused)
            for oracle in (lambda: mc_expected_risk(spec, f, n, 0.05, 3, 0),
                           lambda: mc_coeff_stats(spec, f, n, 0.05, 3, 0, (0, 1)),
                           lambda: mc_operator_moments(spec, n, 0.05, 3, 0, (0, 1))):
                shapes.clear()
                oracle()
                assert shapes == [(size, size)] * 3
        dr = draw(spec, f, n, 0)
        shapes.clear()
        _score_at_three_ridges(dr)
        exact_risk(dr, f, 0.05)
        predictor_coeffs(dr, 0.05)
        assert shapes == [(size, size)]


def test_mc_moments_match_the_sample_formulas():
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    cs = mc_coeff_stats(spec, f, 20, 0.05, 5, 3, (0, 2))
    a = np.array([predictor_coeffs(draw(spec, f, 20, (3, t)), 0.05)[[0, 2]]
                  for t in range(5)])
    np.testing.assert_allclose(cs.mean, a.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(cs.mean_stderr, a.std(axis=0, ddof=1) / np.sqrt(5), rtol=1e-12)
    np.testing.assert_allclose(cs.var, a.var(axis=0, ddof=1), rtol=1e-12)
    assert cs.var_stderr.shape == (2,) and np.all(cs.var_stderr >= 0)
    om = mc_operator_moments(spec, 20, 0.05, 4, 0, (1,))
    assert om.pairs == () and om.offdiag_mean.shape == om.offdiag_stderr.shape == (0,)
    for bad in (dict(trials=1), dict(k_indices=(6,)), dict(k_indices=(-1,))):
        args = dict(trials=4, k_indices=(0,)) | bad
        with pytest.raises(ValueError):
            mc_coeff_stats(spec, f, 20, 0.05, args["trials"], 0, args["k_indices"])
        with pytest.raises(ValueError):
            mc_operator_moments(spec, 20, 0.05, args["trials"], 0, args["k_indices"])


def test_variance_stderr_is_the_fourth_moment_formula():
    # sqrt((m4 - s2^2) / n), with s2 the sample variance (ddof 1) and m4 the
    # mean fourth central moment: for 1, 2, 3, 4, 10 (mean 4), s2 = 50/4 and
    # m4 = 1394/5.
    assert _variance_stderr(np.array([1.0, 2.0, 3.0, 4.0, 10.0])) == pytest.approx(
        np.sqrt((1394 / 5 - (50 / 4) ** 2) / 5), rel=1e-12)


def test_samplers_read_each_seeded_trial_in_order():
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    readings = sample_draws(spec, f, 8, 3, 5, lambda dr: (dr.O, dr.y))
    assert len(readings) == 3
    for t, (O, y) in enumerate(readings):
        dr = draw(spec, f, 8, (5, t))
        assert np.array_equal(O, dr.O) and np.array_equal(y, dr.y)
    assert sample_spectra(lambda n, seed: (n, seed), 4, 2, 7) == [(4, (7, 4, 0)), (4, (7, 4, 1))]

    def unread(*args):
        raise AssertionError("sampled with fewer than 2 trials")
    for trials in (0, 1):
        with pytest.raises(ValueError, match=f"^trials must be a whole number >= 2, got {trials}$"):
            sample_draws(spec, f, 8, trials, 5, unread)
        with pytest.raises(ValueError, match=f"^trials must be a whole number >= 2, got {trials}$"):
            sample_spectra(unread, 4, trials, 7)


def test_exact_risk_needs_one_target_coefficient_per_mode():
    spec = power_law_spectrum(2.0, 4)
    dr = draw(spec, TrueFunction(np.ones(4), 0.1), 10, 0)
    for count in (3, 5):
        with pytest.raises(ValueError, match=f"^{count} coefficients but the draw has 4 modes$"):
            exact_risk(dr, TrueFunction(np.ones(count), 0.1), 0.1)


@st.composite
def _spectra(pick):
    if pick(st.booleans()):
        return power_law_spectrum(pick(st.floats(1.1, 4.0)), pick(st.integers(1, 40)))
    entries = pick(st.lists(st.tuples(st.floats(1e-3, 10.0), st.integers(1, 4)),
                            min_size=1, max_size=10))
    return Spectrum(tuple(entries))


_ROUTES = dict(
    spec=_spectra(),
    n=st.sampled_from((1, 5, 40, 400)),  # n = 5 has fewer samples than modes
    ridge=st.floats(-4.0, 2.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(noise=st.floats(0.0, 1.0), **_ROUTES)
# Fewer samples than modes, at ridges far below the smallest eigenvalue.
@example(spec=power_law_spectrum(2.0, 40), n=5, ridge=1e-12, seed=1, noise=0.5)
@example(spec=power_law_spectrum(2.0, 40), n=5, ridge=1e-19, seed=1, noise=0.5)
def test_low_rank_oracles_match_the_dense_route(spec, n, ridge, seed, noise):
    m = spec.expanded_size
    f = TrueFunction(np.random.default_rng(seed).standard_normal(m), noise)
    dr = draw(spec, f, n, seed)
    v = ridge_solve(dr.G, dr.y, ridge)
    coeffs = dr.d * (dr.O.T @ v) / n
    # Vectors are compared in norm: a small entry carries the error of
    # the large ones.
    gap = np.linalg.norm(predictor_coeffs(dr, ridge) - coeffs)
    assert gap <= 1e-9 * np.linalg.norm(coeffs)
    assert empirical_train_error(dr, ridge) == pytest.approx(
        ridge**2 * float(v @ v) / n, rel=1e-9)
    r = coeffs - f.coeffs
    assert exact_risk(dr, f, ridge) == pytest.approx(
        float(r @ r) + noise**2, rel=1e-9)
    # The kare identity: train error over (ridge m(-ridge))^2.
    kare = empirical_train_error(dr, ridge) / (ridge * stieltjes(dr.scores, ridge))**2
    assert kare == pytest.approx(RidgeScores(dr.G, dr.y).kare(ridge), rel=1e-9)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(noise=st.floats(0.0, 1.0), **_ROUTES)
# n = M + 1 and n = M, then fewer samples than modes at ridges far below
# the smallest eigenvalue.
@example(spec=power_law_spectrum(2.0, 40), n=41, ridge=1e-4, seed=1, noise=0.5)
@example(spec=power_law_spectrum(2.0, 40), n=40, ridge=1e-4, seed=1, noise=0.5)
@example(spec=power_law_spectrum(2.0, 40), n=5, ridge=1e-12, seed=1, noise=0.5)
@example(spec=power_law_spectrum(2.0, 40), n=5, ridge=1e-19, seed=1, noise=0.5)
# Modes 1e20 times smaller than the rest, listed first: unit columns of
# U Q lean on the larger ones unless orthogonalized.
@example(spec=Spectrum(((1e-20, 3), (1.0, 2))), n=40, ridge=1e-3, seed=0, noise=0.1)
def test_draw_scores_match_the_dense_scores(spec, n, ridge, seed, noise):
    # The scores built on the draw's one eigh (k = min(n, M) vectors, the
    # zero block's residual weight) against an eigh of the dense G/n.
    m = spec.expanded_size
    f = TrueFunction(np.random.default_rng(seed).standard_normal(m), noise)
    dr = draw(spec, f, n, seed)
    dense = RidgeScores(dr.G, dr.y)
    assert dr.scores.n == n
    # One eigenvalue view per draw: the scores carry the draw's spectrum.
    assert np.array_equal(dr.spectrum.eigenvalues, dr.scores.eigenvalues)
    for score in ("kare", "varrho", "train_error", "log_marginal_likelihood"):
        assert getattr(dr.scores, score)(ridge) == pytest.approx(
            getattr(dense, score)(ridge), rel=1e-9)
    solved = dense.solve(ridge)
    assert np.linalg.norm(dr.scores.solve(ridge) - solved) <= 1e-9 * np.linalg.norm(solved)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(**_ROUTES)
@example(spec=power_law_spectrum(2.0, 40), n=5, ridge=1e-12, seed=1)
@example(spec=power_law_spectrum(2.0, 40), n=5, ridge=1e-19, seed=1)
def test_operator_moments_match_the_dense_route(spec, n, ridge, seed):
    m = spec.expanded_size
    idx = tuple(range(min(m, 3)))
    om = mc_operator_moments(spec, n, ridge, 2, seed, idx)
    theta = solve_sct(spec, n, ridge).theta
    entries, transforms = [], []
    for t in range(2):
        dr = draw(spec, TrueFunction(np.zeros(m), 0.0), n, (seed, t))
        O = dr.O[:, idx]
        entries.append((dr.d[:len(idx), None] / n) * (O.T @ ridge_solve(dr.G, O, ridge)))
        transforms.append(stieltjes(decompose(dr.G), ridge))
    A = np.mean(entries, axis=0)
    A_low = np.diag(om.diag_mean)
    for (k, l), value in zip(om.pairs, om.offdiag_mean):
        A_low[k, l] = value
    assert np.linalg.norm(A_low - A) <= 1e-9 * np.linalg.norm(A)
    # The gap |1/theta - m| is a difference of two numbers near m, so it
    # carries the absolute error of m; compare it on m's scale.
    gap = np.mean([abs(1.0 / theta - s) for s in transforms])
    assert abs(om.stieltjes_gap_mean - gap) <= 1e-9 * max(transforms)
