"""Kernel ridge regression: fit, predict, train error and test risk.

The fitted dual is (1/n)((1/n)G + ridge I)^{-1} y.  Every Cholesky solve of
the package is one ``_factor_solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, _as_points, cross_gram, gram_matrix
from .lapack import dot, dposv, matvec
from .spectral import NumericalError, check_array, check_labels, check_ridge


@dataclass(frozen=True)
class Predictor:
    """Fitted state; X_train is retained by reference, not copied.

    Raises ValueError naming the field unless X_train is a finite 2-D
    array, dual a finite vector of one entry per row of X_train and ridge
    positive and finite.
    """

    kernel: KernelSpec
    X_train: np.ndarray
    ridge: float
    dual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X_train", check_array(self.X_train, "X_train", 2))
        object.__setattr__(self, "dual", check_array(self.dual, "dual", 1, self.X_train.shape[0]))
        check_ridge(self.ridge)


def ridge_solve(G, rhs, ridge: float) -> np.ndarray:
    """((1/n)G + ridge I)^{-1} rhs, n the size of G, with the bits of SciPy's
    ``cho_solve(cho_factor(G / n + ridge * I, lower=True), rhs)``; G is not
    changed.  Raises ValueError for a non-finite G or rhs, and
    NumericalError as ``_factor_solve`` does.
    """
    ridge = check_ridge(ridge)
    n = G.shape[0]
    B = np.divide(G, n, out=np.empty(G.shape, order="F"))
    if not (np.isfinite(B).all() and np.isfinite(rhs).all()):
        raise ValueError("matrix or right-hand side has non-finite entries")
    return _factor_solve(B, rhs, ridge)


def _factor_solve(B: np.ndarray, rhs, ridge: float) -> np.ndarray:
    """(B + ridge I)^{-1} rhs by one dposv on the lower triangle of B, a
    finite Fortran-order n x n float64 array that it overwrites, for a
    checked ridge.  Raises NumericalError naming the ridge when the diagonal
    overflows float64 or the factorization fails."""
    diagonal = np.diag_indices(B.shape[0])
    if math.isinf(float(B[diagonal].max()) + ridge):
        raise NumericalError(f"ridge {ridge!r}: (1/n)G + ridge I overflows float64")
    B[diagonal] += ridge
    x, info = dposv(B, rhs)
    if info:
        raise NumericalError(
            f"ridge {ridge!r}: (1/n)G + ridge I is not positive definite in float64")
    return x


def fit(kernel: KernelSpec, X, y, ridge: float) -> Predictor:
    """The Predictor of ((1/n)G + ridge I)(n dual) = y, solved by Cholesky.
    Raises ValueError for bad points, labels or ridge, and NumericalError
    naming the ridge when the factorization fails.
    """
    ridge = check_ridge(ridge)
    X = _as_points(X)
    n = X.shape[0]
    y = check_labels(y, n)
    return Predictor(kernel, X, ridge, ridge_solve(gram_matrix(kernel, X), y, ridge) / n)


def predict(p: Predictor, X_test) -> np.ndarray:
    """The predictions at the points X_test; raises as ``cross_gram`` does."""
    return matvec(cross_gram(p.kernel, X_test, p.X_train), p.dual)


def train_error(p: Predictor, y) -> float:
    """(1/n) ||predictions on X_train - y||^2; raises as ``test_risk`` does."""
    return test_risk(p, p.X_train, y)


def train_error_closed_form(p: Predictor) -> float:
    """ridge^2/n * y^T ((1/n)G + ridge I)^{-2} y, from the dual (= that
    inverse times y, over n)."""
    n = p.dual.shape[0]
    return p.ridge**2 * n * dot(p.dual, p.dual)


def held_out_risk(K: np.ndarray, dual: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the predictions K @ dual against y, K the
    cross-Gram of the held-out points against the training points."""
    r = matvec(K, dual) - y
    return dot(r, r) / y.shape[0]


def test_risk(p: Predictor, X_test, y_test) -> float:
    """Mean squared error on held-out data; raises ValueError for bad or
    no points or labels."""
    X_test = _as_points(X_test)
    y_test = check_labels(y_test, X_test.shape[0])
    if y_test.shape[0] == 0:
        raise ValueError("empty test set")
    return held_out_risk(cross_gram(p.kernel, X_test, p.X_train), p.dual, y_test)
