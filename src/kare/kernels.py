"""Kernel evaluation and Gram matrix construction.

All three kernel families are exponentials of a pointwise distance, so
K(x, x) = 1 and 0 < K(x, x') <= 1 everywhere:

    rbf        K(x, x') = exp(-||x - x'||_2^2 / lengthscale)
    laplacian  K(x, x') = exp(-||x - x'||_2   / lengthscale)
    l1exp      K(x, x') = exp(-||x - x'||_1   / lengthscale)

The lengthscale divides the raw (squared) distance directly, with no
extra factor of 2.  Callers that think in "lengthscale per input
dimension" units multiply by the dimension before building the spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("rbf", "laplacian", "l1exp")

# Cap on float64 scratch elements per distance block (~32 MB).
_BLOCK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus positive, finite lengthscale."""

    family: str
    lengthscale: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if not 0 < self.lengthscale < np.inf:
            raise ValueError(f"lengthscale must be positive and finite, got {self.lengthscale}")


def _as_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite coordinates")
    return X


def _raw_distances(family: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise raw distances: squared L2 (rbf), L2 (laplacian) or L1 (l1exp).

    Blocked over rows of X so the (block, len(Y), d) temporary stays
    bounded.  The squared form accumulates (x_i - y_i)^2 directly rather
    than expanding ||x||^2 - 2 x.y + ||y||^2, which cancels badly on
    near-duplicate points.
    """
    m, d = Y.shape
    out = np.empty((X.shape[0], m))
    block = max(1, _BLOCK_ELEMENTS // max(1, m * d))
    for start in range(0, X.shape[0], block):
        diff = X[start:start + block, None, :] - Y[None, :, :]
        if family == "l1exp":
            np.abs(diff, out=diff)
            dist = diff.sum(axis=2)
        else:
            np.square(diff, out=diff)
            dist = diff.sum(axis=2)
            if family == "laplacian":
                np.sqrt(dist, out=dist)
        out[start:start + block] = dist
    return out


def kernel_eval(spec: KernelSpec, x, x2) -> float:
    """Evaluate K(x, x2) for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"point dimensions differ: {x.shape} vs {x2.shape}")
    return float(cross_gram(spec, x[None, :], x2[None, :])[0, 0])


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric n x n matrix of pairwise kernel values, unit diagonal."""
    X = _as_points(X)
    if X.shape[0] < 1:
        raise ValueError("need at least one point")
    G = np.exp(-_raw_distances(spec.family, X, X) / spec.lengthscale)
    # Blockwise summation order can differ between (i, j) and (j, i);
    # downstream eigensolvers expect exact symmetry.
    G = 0.5 * (G + G.T)
    np.fill_diagonal(G, 1.0)
    return G


def cross_gram(spec: KernelSpec, X_test, X_train) -> np.ndarray:
    """m x n matrix with entry (a, i) = K(x_test_a, x_train_i)."""
    X_test = _as_points(X_test)
    X_train = _as_points(X_train)
    if X_test.shape[1] != X_train.shape[1]:
        raise ValueError(
            f"point dimensions differ: {X_test.shape[1]} vs {X_train.shape[1]}"
        )
    return np.exp(-_raw_distances(spec.family, X_test, X_train) / spec.lengthscale)
