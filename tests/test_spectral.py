import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kare import krr
from kare.estimators import RidgeScores, cross_validation_risk
from kare.kernels import KernelSpec
from kare.krr import ridge_solve
from kare.sct import power_law_spectrum, sct_from_gram, solve_sct
from kare.spectral import (
    GramSpectrum,
    NumericalError,
    decompose,
    stieltjes,
    stieltjes_derivative,
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


def test_sample_count_mismatch_rejected():
    # The label count must match the size of G.
    with pytest.raises(ValueError, match="sample count 4 does not match matrix size 3"):
        RidgeScores(np.eye(3), np.ones(4))


def test_small_negative_clamped_large_rejected():
    assert np.all(decompose(np.diag([-5e-9, 1.0, 2.0]) * 3).eigenvalues >= 0)
    with pytest.raises(ValueError, match="semidefinite"):
        decompose(np.diag([-1e-3, 1.0, 2.0]) * 3)


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
    "ridge_solve": lambda r: ridge_solve(np.eye(3), np.ones(3), r),
}


@pytest.mark.parametrize("ridge", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(RIDGE_ENTRY_POINTS))
def test_invalid_ridge_rejected_at_every_entry_point(entry, ridge):
    with pytest.raises(ValueError, match="ridge must be positive and finite"):
        RIDGE_ENTRY_POINTS[entry](ridge)


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
