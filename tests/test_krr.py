import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from kare import krr
from kare.kernels import KernelSpec, cross_gram, gram_matrix
from kare.spectral import SYMMETRY_TOL, NumericalError


def test_single_point_closed_form():
    for ridge in (0.1, 1.0, 10.0):
        p = krr.fit(KernelSpec("rbf", 1.0), np.array([[0.0]]), [2.0], ridge)
        assert krr.predict(p, np.array([[0.0]]))[0] == pytest.approx(2.0 / (1 + ridge), rel=1e-12)
        assert krr.train_error(p, [2.0]) == pytest.approx((ridge / (1 + ridge)) ** 2 * 4.0, rel=1e-10)


def test_zero_labels_zero_predictor():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 2))
    p = krr.fit(KernelSpec("laplacian", 1.0), X, np.zeros(8), 0.1)
    assert np.all(p.dual == 0.0)
    assert np.all(krr.predict(p, X) == 0.0)
    assert krr.train_error(p, np.zeros(8)) == 0.0


def test_huge_ridge_shrinks_predictions():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    p = krr.fit(KernelSpec("rbf", 2.0), X, y, 1e9)
    assert np.max(np.abs(krr.predict(p, X))) <= np.linalg.norm(y) * 10 / 1e9
    assert krr.train_error(p, y) == pytest.approx(float(y @ y) / 10, rel=1e-6)


def test_interpolation_limit():
    # well separated points, tiny ridge: predictions approach the labels
    X = np.arange(5, dtype=float)[:, None] * 2.0
    y = np.array([1.0, -1.0, 0.5, 2.0, -0.3])
    p = krr.fit(KernelSpec("rbf", 1.0), X, y, 1e-8)
    np.testing.assert_allclose(krr.predict(p, X), y, rtol=1e-4)


def test_train_error_two_routes_agree():
    rng = np.random.default_rng(2)
    for i in range(10):
        n = int(rng.integers(3, 30))
        X = rng.standard_normal((n, int(rng.integers(1, 5))))
        y = rng.standard_normal(n)
        kern = KernelSpec(("rbf", "laplacian", "l1exp")[i % 3], float(rng.uniform(0.5, 5)))
        ridge = float(10 ** rng.uniform(-6, 0))
        p = krr.fit(kern, X, y, ridge)
        direct = krr.train_error(p, y)
        closed = krr.train_error_closed_form(p)
        assert direct == pytest.approx(closed, rel=1e-8)
        # The direct route is the test risk on the training set, with the
        # bits of the predictions' residual norm.
        r = krr.predict(p, X) - y
        assert direct == krr.test_risk(p, X, y) == float(r @ r) / n


def test_rescaling_covariance_matrix_level():
    # predictions under (K, ridge) and (a K, a ridge) coincide
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2))
    Xt = rng.standard_normal((6, 2))
    y = rng.standard_normal(15)
    G = gram_matrix(KernelSpec("rbf", 1.5), X)
    Kt = cross_gram(KernelSpec("rbf", 1.5), Xt, X)
    n = 15

    def predictions(scale, ridge):
        B = scale * G / n + ridge * np.eye(n)
        return (scale * Kt) @ cho_solve(cho_factor(B, lower=True), y) / n

    base = predictions(1.0, 0.05)
    for alpha in (0.1, 10.0):
        np.testing.assert_allclose(predictions(alpha, 0.05 * alpha), base, rtol=1e-10)


def test_ridge_solve_has_the_bits_of_the_documented_cholesky_solve():
    # A C-ordered Gram whose upper triangle differs from its lower one by
    # less than SYMMETRY_TOL: factoring the upper triangle, or a
    # transposed view, changes the bits.
    rng = np.random.default_rng(6)
    n = 40
    W = rng.standard_normal((n, n + 5))
    G = W @ W.T / n
    G[np.triu_indices(n, 1)] += rng.uniform(1e-10, 1e-9, n * (n - 1) // 2)
    assert G.flags.c_contiguous and 0 < np.abs(G - G.T).max() < SYMMETRY_TOL
    before = G.copy()
    ridges = (1e-4, 1e-2, 1.0)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        for ridge in ridges:
            solution = krr.ridge_solve(G, rhs, ridge)
            documented = cho_solve(cho_factor(G / n + ridge * np.eye(n), lower=True), rhs)
            np.testing.assert_array_equal(solution, documented)
    np.testing.assert_array_equal(G, before)


def test_ridge_solve_checks_what_the_solver_no_longer_scans():
    # The factorization and solve skip SciPy's finiteness scans, so a
    # non-finite input, or a diagonal that overflows when the ridge is
    # added, must fail before LAPACK instead of returning NaN.
    with pytest.raises(NumericalError, match=r"^ridge 1e\+308: \(1/n\)G \+ ridge I overflows"):
        for ridge in (1.0, 1e308):
            krr.ridge_solve(np.array([[1.5e308]]), np.ones(1), ridge)
    with pytest.raises(ValueError, match="non-finite"):
        krr.ridge_solve(np.array([[np.inf]]), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        krr.ridge_solve(np.eye(2), np.array([1.0, np.nan]), 1.0)


def test_ridge_solve_holds_one_scaled_gram():
    # The scaled Fortran-order copy of G is factored in place, so at its
    # peak a call holds that n x n copy, the finiteness scan's n x n bools
    # (n^2 / 8 floats) and O(n) besides.  A second factor buffer would
    # hold 2 n^2 floats.
    rng = np.random.default_rng(9)
    n = 400
    G = gram_matrix(KernelSpec("rbf", 2.0), rng.standard_normal((n, 3)))
    y = rng.standard_normal(n)
    before_G = G.copy()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        krr.ridge_solve(G, y, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.25 * n * n * 8
    np.testing.assert_array_equal(G, before_G)


def test_train_error_monotone_in_ridge():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    y = rng.standard_normal(25)
    kern = KernelSpec("rbf", 2.0)
    errors = [
        krr.train_error(krr.fit(kern, X, y, r), y)
        for r in np.logspace(-4, 1, 5)
    ]
    assert all(b >= a for a, b in zip(errors, errors[1:]))


def test_test_risk_basics():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    p = krr.fit(KernelSpec("rbf", 1.0), X, y, 0.1)
    Xt = rng.standard_normal((7, 2))
    preds = krr.predict(p, Xt)
    assert krr.test_risk(p, Xt, preds) == 0.0
    assert krr.test_risk(p, Xt, preds + 0.5) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError, match="empty"):
        krr.test_risk(p, np.zeros((0, 2)), np.zeros(0))


def test_invalid_ridge_and_shapes():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        krr.fit(KernelSpec("rbf", 1.0), X, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        krr.fit(KernelSpec("rbf", 1.0), X, np.zeros(4), 0.1)
    p = krr.fit(KernelSpec("rbf", 1.0), X, np.ones(3), 0.1)
    with pytest.raises(ValueError):
        krr.predict(p, np.zeros((2, 5)))


@pytest.mark.parametrize("count", [1, 3, 5])
def test_label_count_must_match_the_points(count):
    # A one-entry label vector used to broadcast against 4 predictions.
    X = np.random.default_rng(0).standard_normal((4, 2))
    p = krr.fit(KernelSpec("rbf", 1.0), X, np.ones(4), 0.1)
    with pytest.raises(ValueError, match=f"^4 points but {count} labels$"):
        krr.train_error(p, np.ones(count))
    with pytest.raises(ValueError, match=f"^4 points but {count} labels$"):
        krr.test_risk(p, X, np.ones(count))


def test_dual_solves_the_system():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    p = krr.fit(KernelSpec("rbf", 1.0), X, y, 0.3)
    B = gram_matrix(p.kernel, X) / 20 + 0.3 * np.eye(20)
    assert np.linalg.norm(B @ (20 * p.dual) - y) <= 1e-8 * np.linalg.norm(y)
