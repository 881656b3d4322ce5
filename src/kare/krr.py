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
from .spectral import check_ridge


@dataclass(frozen=True)
class Predictor:
    """Fitted state; X_train is retained by reference, not copied."""

    kernel: KernelSpec
    X_train: np.ndarray
    ridge: float
    dual: np.ndarray


def solve_dual(G: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """The dual (1/n)((1/n)G + ridge I)^{-1} y for the n x n Gram G of the
    training points, by one Cholesky factorization.

    y is a float vector of length n and ridge a checked ridge; G is not
    modified.  ``fit`` and cross-validation both solve through here.
    """
    n = y.shape[0]
    B = G / n
    B[np.diag_indices_from(B)] += ridge
    return cho_solve(cho_factor(B, lower=True), y) / n


def fit(kernel: KernelSpec, X, y, ridge: float) -> Predictor:
    """Solve the SPD system ((1/n)G + ridge I)(n dual) = y by Cholesky."""
    ridge = check_ridge(ridge)
    X = _as_points(X)
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"{n} points but {y.shape[0]} labels")
    return Predictor(kernel, X, ridge, solve_dual(gram_matrix(kernel, X), y, ridge))


def predict(p: Predictor, X_test) -> np.ndarray:
    return cross_gram(p.kernel, X_test, p.X_train) @ p.dual


def train_error(p: Predictor, y) -> float:
    """(1/n) ||predictions on X_train - y||^2."""
    y = np.asarray(y, dtype=float).ravel()
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
    y_test = np.asarray(y_test, dtype=float).ravel()
    if y_test.shape[0] == 0:
        raise ValueError("empty test set")
    return held_out_risk(cross_gram(p.kernel, X_test, p.X_train), p.dual, y_test)
