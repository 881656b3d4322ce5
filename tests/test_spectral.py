import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kare import krr, spectral
from kare.estimators import (
    RidgeScores,
    TrueFunction,
    bayesian_risk,
    cross_validation_risk,
    theoretical_train_error,
)
from kare.kernels import KernelSpec
from kare.krr import ridge_solve
from kare.sct import power_law_spectrum, sct_from_gram, solve_sct
from kare.spectral import (
    GramSpectrum,
    NumericalError,
    check_gram,
    decompose,
    stieltjes,
    stieltjes_derivative,
)
from kare.synthetic import (
    draw,
    empirical_train_error,
    exact_risk,
    mc_operator_moments,
    predictor_coeffs,
)


def test_identity_gram():
    n = 5
    s = decompose(n * np.eye(n))
    np.testing.assert_allclose(s.eigenvalues, np.ones(n))
    assert stieltjes(s, 1.0) == pytest.approx(0.5)
    assert stieltjes_derivative(s, 1.0) == pytest.approx(0.25)


def test_zero_gram():
    s = decompose(np.zeros((4, 4)))
    np.testing.assert_allclose(s.eigenvalues, 0.0)
    assert stieltjes(s, 2.0) == pytest.approx(0.5)
    assert stieltjes_derivative(s, 2.0) == pytest.approx(0.25)


def test_rank_one_ones():
    s = decompose(np.ones((2, 2)))
    np.testing.assert_allclose(s.eigenvalues, [0.0, 1.0], atol=1e-14)
    # two-term sums at ridge 1
    assert stieltjes(s, 1.0) == pytest.approx(0.75, rel=1e-12)
    assert stieltjes_derivative(s, 1.0) == pytest.approx(0.625, rel=1e-12)


def test_ascending_order():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((30, 35))
    s = decompose(W @ W.T)
    assert np.all(np.diff(s.eigenvalues) >= 0)


def test_trace_normalization_unit_diagonal():
    from kare.kernels import KernelSpec, gram_matrix
    rng = np.random.default_rng(1)
    G = gram_matrix(KernelSpec("rbf", 2.0), rng.standard_normal((40, 3)))
    s = decompose(G)
    assert float(s.eigenvalues.sum()) == pytest.approx(1.0, rel=1e-6)


def test_non_symmetric_rejected():
    G = np.eye(3)
    G[0, 1] = 1e-4
    with pytest.raises(ValueError, match="symmetric"):
        decompose(G)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("where", ["corner", "last-tile", "lower"])
def test_tiled_asymmetry_equals_the_full_scan(n, where):
    # Small asymmetric noise everywhere, and the largest gap in the
    # first row's last column, near the diagonal in the last (ragged)
    # tile of rows, or in the last row's first column.
    rng = np.random.default_rng(n)
    W = rng.standard_normal((n, n))
    G = W + W.T + 1e-12 * rng.standard_normal((n, n))
    i, j = {"corner": (0, n - 1), "last-tile": (n - 1, max(0, n - 3)),
            "lower": (n - 1, 0)}[where]
    G[i, j] += 1e-6
    full = float(np.max(np.abs(G - G.T)))
    assert spectral._max_asymmetry(G) == full
    if n > 1:
        with pytest.raises(ValueError, match=f"max asymmetry {full:.3e}"):
            check_gram(G)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reported_before_asymmetry(bad):
    # The asymmetry sits in the first tile and the bad entry in the
    # last, below the diagonal.
    G = np.eye(300)
    G[0, 299] = 1.0
    G[299, 150] = bad
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        check_gram(G)


def test_sample_count_mismatch_rejected():
    # The label count must match the size of G.
    with pytest.raises(ValueError, match="^4 labels but a 3 x 3 matrix$"):
        RidgeScores(np.eye(3), np.ones(4))


def test_small_negative_clamped_large_rejected():
    assert np.all(decompose(np.diag([-5e-9, 1.0, 2.0]) * 3).eigenvalues >= 0)
    with pytest.raises(ValueError, match="semidefinite"):
        decompose(np.diag([-1e-3, 1.0, 2.0]) * 3)


def test_eigenvalue_floor_rejects_minus_1e_6_and_clamps_minus_1e_9():
    # The floor is -1e-8: a lowest eigenvalue of -1e-6 signals a broken
    # kernel, one of -1e-9 is floating noise on a PSD matrix.
    with pytest.raises(NumericalError, match=r"\(min eigenvalue -1\.000e-06\)$"):
        GramSpectrum(np.array([-1e-6, 0.5, 2.0]))
    assert GramSpectrum(np.array([-1e-9, 0.5, 2.0])).eigenvalues.tolist() == [0.0, 0.5, 2.0]


def test_gram_spectrum_enforces_its_invariant():
    # The minimum is checked wherever it sits, and NaN is no minimum.
    for bad in ([1.0, -5.0, 2.0], [np.nan, 1.0]):
        with pytest.raises(NumericalError, match="semidefinite"):
            GramSpectrum(np.array(bad))
    s = GramSpectrum(np.array([-5e-9, 0.5, 2.0]))
    assert s.n == 3 and s.eigenvalues.tolist() == [0.0, 0.5, 2.0]
    assert not s.eigenvalues.flags.writeable
    # RidgeScores is the same view, with the labels in its eigenbasis.
    G = np.diag([3.0, -1.5e-8, 6.0])
    rs = RidgeScores(G, np.ones(3))
    assert isinstance(rs, GramSpectrum)
    assert rs.n == 3 and rs.eigenvalues.tolist() == [0.0, 1.0, 2.0]
    assert not rs.eigenvalues.flags.writeable
    assert stieltjes(rs, 1.0) == stieltjes(decompose(G), 1.0)


def test_gram_spectrum_takes_a_non_empty_vector_of_finite_eigenvalues():
    # Before, [1, inf] built a spectrum whose stieltjes(., 0.1) was 0.4545,
    # as if the inf mode were absent; a 2 x 2 array built one; and []
    # failed inside np.min.
    for bad in ([1.0, np.inf], [np.inf]):
        with pytest.raises(NumericalError, match="^matrix has an infinite eigenvalue$"):
            GramSpectrum(bad)
    for bad, shape in ((np.eye(2), (2, 2)), ([], (0,)), (1.0, ())):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")) as error:
            GramSpectrum(bad)
        assert not isinstance(error.value, NumericalError)


def test_numerical_failures_raise_one_error_class():
    # A ValueError, as before, and an ArithmeticError, which the CLI
    # reports as a numerical error.
    assert issubclass(NumericalError, ValueError)
    assert issubclass(NumericalError, ArithmeticError)
    W = np.random.default_rng(5).standard_normal((6, 4))
    G = W @ W.T  # rank 4
    with pytest.raises(NumericalError, match="semidefinite"):
        decompose(np.diag([-1e-3, 1.0, 2.0]) * 3)
    with pytest.raises(NumericalError, match="theta is not representable"):
        sct_from_gram(decompose(G), 1e-320)
    with pytest.raises(NumericalError, match="kare is not representable"):
        RidgeScores(G, np.ones(6)).kare(1e300)
    # The spectral sums and the resolvent solve name themselves too,
    # without a NumPy RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, name, ridge in (
            (lambda r: stieltjes(decompose(G), r), "stieltjes", 1e-320),
            (lambda r: stieltjes_derivative(decompose(G), r), "stieltjes_derivative", 1e-300),
            (lambda r: RidgeScores(np.diag([3.0, 0.0, 0.0]), np.ones(3)).solve(r),
             "solve", 1e-320),
        ):
            with pytest.raises(NumericalError,
                               match=f"^{name} is not representable in float64 at ridge {ridge!r}$"):
                call(ridge)
    # Ten points, each four times: (1/n)G + 1e-19 I is singular in
    # float64, and the failed Cholesky factorization names the ridge.
    X = np.repeat(np.random.default_rng(0).standard_normal((10, 2)), 4, axis=0)
    kern = KernelSpec("rbf", 2.0)
    with pytest.raises(NumericalError, match="^ridge 1e-19: .*not positive definite"):
        krr.fit(kern, X, X.sum(axis=1), 1e-19)
    with pytest.raises(NumericalError, match="^ridge 1e-19: .*not positive definite"):
        cross_validation_risk(kern, X, X.sum(axis=1), 1e-19, 4)


def test_nonpositive_ridge_rejected():
    s = decompose(np.eye(2) * 2)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            stieltjes(s, bad)
        with pytest.raises(ValueError):
            stieltjes_derivative(s, bad)


RIDGE_ENTRY_POINTS = {
    "stieltjes": lambda r: stieltjes(decompose(np.eye(2) * 2), r),
    "stieltjes_derivative": lambda r: stieltjes_derivative(decompose(np.eye(2) * 2), r),
    "RidgeScores.kare": lambda r: RidgeScores(np.eye(3), np.ones(3)).kare(r),
    "krr.fit": lambda r: krr.fit(KernelSpec("rbf", 1.0), np.zeros((3, 2)), np.ones(3), r),
    "solve_sct": lambda r: solve_sct(power_law_spectrum(2.0, 5), 10, r),
    "solve_sct ridge array": lambda r: solve_sct(
        power_law_spectrum(2.0, 5), 10, np.array([0.1, r, 1.0])),
    "ridge_solve": lambda r: ridge_solve(np.eye(3), np.ones(3), r),
}


@pytest.mark.parametrize("ridge", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(RIDGE_ENTRY_POINTS))
def test_invalid_ridge_rejected_at_every_entry_point(entry, ridge):
    with pytest.raises(ValueError, match="ridge must be positive and finite"):
        RIDGE_ENTRY_POINTS[entry](ridge)


def _quantities_at_ridge():
    # name -> quantity(ridge), for every quantity the package computes at a ridge.
    spec = power_law_spectrum(2.0, 6)
    f = TrueFunction(1.0 / np.arange(1, 7), 0.1)
    dr = draw(spec, f, 20, 0)
    rs = RidgeScores(dr.G, dr.y)
    quantities = {
        "stieltjes": lambda r: stieltjes(rs, r),
        "stieltjes_derivative": lambda r: stieltjes_derivative(rs, r),
        "sct_from_gram": lambda r: dataclasses.astuple(sct_from_gram(rs, r)),
        "predictor_coeffs": lambda r: predictor_coeffs(dr, r),
        "empirical_train_error": lambda r: empirical_train_error(dr, r),
        "exact_risk": lambda r: exact_risk(dr, f, r),
        "mc_operator_moments": lambda r: dataclasses.astuple(
            mc_operator_moments(spec, 20, r, 3, 0, (0, 1))),
        "theoretical_train_error": lambda r: theoretical_train_error(spec, f, 20, r),
        "bayesian_risk": lambda r: bayesian_risk(spec, spec, 0.1, 20, r),
    }
    for score in ("solve", "kare", "varrho", "train_error", "log_marginal_likelihood"):
        quantities[f"RidgeScores.{score}"] = lambda r, score=score: getattr(rs, score)(r)
    return quantities


@pytest.mark.parametrize("name", sorted(_quantities_at_ridge()))
def test_every_quantity_computes_with_the_checked_ridge(name):
    # A ridge given as text computes with the float the ridge check returns.
    quantity = _quantities_at_ridge()[name]
    np.testing.assert_equal(quantity("0.1"), quantity(0.1))


def test_solve_vs_spectrum_equivalence():
    # (1/n) Tr[(G/n + ridge I)^{-1}] by direct solve matches the eigenvalue sum
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(5, 201))
        W = rng.standard_normal((n, n + 3))
        G = W @ W.T / (n + 3)
        s = decompose(G)
        for ridge in (1e-4, 1e-2, 1.0):
            B = G / n + ridge * np.eye(n)
            direct = float(np.trace(np.linalg.solve(B, np.eye(n)))) / n
            assert abs(direct - stieltjes(s, ridge)) <= 1e-8 * direct


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0, 100), min_size=1, max_size=30),
    st.floats(1e-6, 1e3),
)
def test_cone_property_and_monotonicity(eigenvalues, ridge):
    ev = np.sort(np.array(eigenvalues))
    s = GramSpectrum(ev)
    m = stieltjes(s, ridge)
    assert 0.0 < m <= (1.0 / ridge) * (1 + 1e-12)  # summation rounding slack
    assert stieltjes(s, ridge * 2) < m
    assert stieltjes_derivative(s, ridge * 2) < stieltjes_derivative(s, ridge)
