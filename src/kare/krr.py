"""Kernel ridge regression: fit, predict, train error and test risk.

The fitted state is the dual vector (1/n)((1/n)G + ridge I)^{-1} y, so a
prediction is a cross-Gram row dotted with the dual.  The train error has
two algebraically identical routes: the direct residual norm and the
closed form ridge^2/n * y^T ((1/n)G + ridge I)^{-2} y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .kernels import KernelSpec, _as_points, cross_gram, gram_matrix
from .spectral import NumericalError, check_labels, check_ridge


@dataclass(frozen=True)
class Predictor:
    """Fitted state; X_train is retained by reference, not copied."""

    kernel: KernelSpec
    X_train: np.ndarray
    ridge: float
    dual: np.ndarray


def ridge_solve(G, rhs, ridge: float) -> np.ndarray:
    """((1/n)G + ridge I)^{-1} rhs by one Cholesky factorization, n the size of G.

    G is not modified.  The one Cholesky solve of the package, for ``fit``,
    cross-validation and the dense reference routes.
    A factorization that fails (as at a tiny ridge on a rank-deficient G)
    raises NumericalError: "ridge R: (1/n)G + ridge I is not positive
    definite in float64", in the package's words, not the solver's.
    """
    ridge = check_ridge(ridge)
    B = G / G.shape[0]
    B[np.diag_indices_from(B)] += ridge
    try:
        factor = cho_factor(B, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"ridge {ridge!r}: (1/n)G + ridge I is not positive definite in float64") from exc
    return cho_solve(factor, rhs)


def fit(kernel: KernelSpec, X, y, ridge: float) -> Predictor:
    """Solve the SPD system ((1/n)G + ridge I)(n dual) = y by Cholesky.

    Raises NumericalError, a ValueError, naming the ridge when the
    factorization fails.
    """
    ridge = check_ridge(ridge)
    X = _as_points(X)
    n = X.shape[0]
    y = check_labels(y, n)
    return Predictor(kernel, X, ridge, ridge_solve(gram_matrix(kernel, X), y, ridge) / n)


def predict(p: Predictor, X_test) -> np.ndarray:
    return cross_gram(p.kernel, X_test, p.X_train) @ p.dual


def train_error(p: Predictor, y) -> float:
    """(1/n) ||predictions on X_train - y||^2."""
    y = check_labels(y, p.X_train.shape[0])
    r = predict(p, p.X_train) - y
    return float(r @ r) / y.shape[0]


def train_error_closed_form(p: Predictor) -> float:
    """ridge^2/n * y^T ((1/n)G + ridge I)^{-2} y, evaluated from the dual.

    ((1/n)G + ridge I)^{-1} y is exactly n * dual, so no refactorization
    is needed.
    """
    n = p.dual.shape[0]
    return p.ridge**2 * n * float(p.dual @ p.dual)


def held_out_risk(K: np.ndarray, dual: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the predictions K @ dual against y, where K
    is the cross-Gram of the held-out points against the training points."""
    r = K @ dual - y
    return float(r @ r) / y.shape[0]


def test_risk(p: Predictor, X_test, y_test) -> float:
    """Mean squared error on held-out data."""
    X_test = _as_points(X_test)
    y_test = check_labels(y_test, X_test.shape[0])
    if y_test.shape[0] == 0:
        raise ValueError("empty test set")
    return held_out_risk(cross_gram(p.kernel, X_test, p.X_train), p.dual, y_test)
