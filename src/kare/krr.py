"""Kernel ridge regression: fit, predict, train error and test risk.

The fitted state is the dual vector (1/n)((1/n)G + ridge I)^{-1} y, so a
prediction is a cross-Gram row dotted with the dual.  The train error has
two algebraically identical routes: the direct residual norm and the
closed form ridge^2/n * y^T ((1/n)G + ridge I)^{-2} y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, _as_points, cross_gram, gram_matrix
from .lapack import dot, dposv, matvec
from .spectral import NumericalError, check_labels, check_ridge


@dataclass(frozen=True)
class Predictor:
    """Fitted state; X_train is retained by reference, not copied."""

    kernel: KernelSpec
    X_train: np.ndarray
    ridge: float
    dual: np.ndarray


def ridge_solve(G, rhs, ridges) -> list[np.ndarray]:
    """((1/n)G + ridge I)^{-1} rhs for each ridge, n the size of G, by one
    LAPACK dposv (Cholesky factor, then solve) per ridge.

    G is not modified.  The one Cholesky solve of the package, for ``fit``,
    cross-validation and the dense reference routes.  (1/n)G is formed once,
    in Fortran order, and checked to be finite once, with rhs; each ridge
    copies it into one reused buffer, adds the ridge to the diagonal and
    factors the buffer in place.  dposv runs the dpotrf and dpotrs of SciPy's
    ``cho_solve(cho_factor(G / n + ridge * I, lower=True), rhs)`` on the lower
    triangle of (1/n)G, so the solutions have its bits.

    A diagonal that overflows float64 when the ridge is added, or a
    factorization that fails (as at a tiny ridge on a rank-deficient G),
    raises NumericalError naming the ridge in the package's words, such as
    "ridge R: (1/n)G + ridge I is not positive definite in float64".
    """
    ridges = [check_ridge(ridge) for ridge in ridges]
    n = G.shape[0]
    scaled = np.divide(G, n, out=np.empty(G.shape, order="F"))
    if not (np.isfinite(scaled).all() and np.isfinite(rhs).all()):
        raise ValueError("matrix or right-hand side has non-finite entries")
    diagonal = np.diag_indices(n)
    top = float(scaled[diagonal].max())
    B = np.empty_like(scaled)
    solutions = []
    for ridge in ridges:
        if math.isinf(top + ridge):
            raise NumericalError(f"ridge {ridge!r}: (1/n)G + ridge I overflows float64")
        np.copyto(B, scaled)
        B[diagonal] += ridge
        _, x, info = dposv(B, rhs, lower=1, overwrite_a=1)
        if info:
            raise NumericalError(
                f"ridge {ridge!r}: (1/n)G + ridge I is not positive definite in float64")
        solutions.append(x)
    return solutions


def fit(kernel: KernelSpec, X, y, ridge: float) -> Predictor:
    """Solve the SPD system ((1/n)G + ridge I)(n dual) = y by Cholesky.

    Raises NumericalError, a ValueError, naming the ridge when the
    factorization fails.
    """
    ridge = check_ridge(ridge)
    X = _as_points(X)
    n = X.shape[0]
    y = check_labels(y, n)
    [solution] = ridge_solve(gram_matrix(kernel, X), y, (ridge,))
    return Predictor(kernel, X, ridge, solution / n)


def predict(p: Predictor, X_test) -> np.ndarray:
    return matvec(cross_gram(p.kernel, X_test, p.X_train), p.dual)


def train_error(p: Predictor, y) -> float:
    """(1/n) ||predictions on X_train - y||^2: the test risk on the training set."""
    return test_risk(p, p.X_train, y)


def train_error_closed_form(p: Predictor) -> float:
    """ridge^2/n * y^T ((1/n)G + ridge I)^{-2} y, evaluated from the dual.

    ((1/n)G + ridge I)^{-1} y is exactly n * dual, so no refactorization
    is needed.
    """
    n = p.dual.shape[0]
    return p.ridge**2 * n * dot(p.dual, p.dual)


def held_out_risk(K: np.ndarray, dual: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the predictions K @ dual against y, where K
    is the cross-Gram of the held-out points against the training points."""
    r = matvec(K, dual) - y
    return dot(r, r) / y.shape[0]


def test_risk(p: Predictor, X_test, y_test) -> float:
    """Mean squared error on held-out data."""
    X_test = _as_points(X_test)
    y_test = check_labels(y_test, X_test.shape[0])
    if y_test.shape[0] == 0:
        raise ValueError("empty test set")
    return held_out_risk(cross_gram(p.kernel, X_test, p.X_train), p.dual, y_test)
