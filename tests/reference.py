"""Textbook values of every ``kare sweep`` column, from the dense Gram matrix.

Each column is computed the way a textbook writes it, with NumPy's dense
``np.linalg.solve``, ``inv``, ``slogdet`` and ``eigvalsh`` on the full n x n
Gram and no shared code with ``kare.cli.run_sweep`` beyond the data it
loads.  ``tests/test_reference.py`` compares the two cell by cell at
``RTOL``: the tolerance oracle for a change that reorders the sweep's float
operations and so moves its last digits.
"""

from __future__ import annotations

import numpy as np

from kare.cli import SweepConfig, _load_sweep_data

# The largest relative gap on the test's three configs is 1.7e-13 (rbf train
# error at ridge 1e-4); a formula error moves a column by far more.
RTOL = 1e-9


def raw_distances(family: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Every pairwise distance of X and Y, all m x n of them."""
    diff = X[:, None, :] - Y[None, :, :]
    if family == "l1exp":
        return np.abs(diff).sum(axis=2)
    squared = (diff ** 2).sum(axis=2)
    return squared if family == "rbf" else np.sqrt(squared)


def cell(G: np.ndarray, y: np.ndarray, ridge: float, folds: list[np.ndarray] | None,
         K_test: np.ndarray | None, y_test: np.ndarray | None) -> dict:
    """The columns of one sweep cell: Gram G of the training points, labels y,
    the held-out index blocks of the CV folds (None: no CV) and the test
    cross-Gram and labels (None: no test set)."""
    n = y.shape[0]
    B = G / n + ridge * np.eye(n)
    B_inv = np.linalg.inv(B)
    dual = np.linalg.solve(B, y) / n
    residual = G @ dual - y
    mu = np.linalg.eigvalsh(G / n)
    m = np.mean(1.0 / (mu + ridge))
    _, logdet = np.linalg.slogdet(B)
    row = {
        "train_error": residual @ residual / n,
        "kare": (y @ B_inv @ B_inv @ y / n) / (np.trace(B_inv) / n) ** 2,
        "varrho": (y @ B_inv @ B_inv @ y) / np.trace(B_inv @ B_inv),
        "loglik": -0.5 * (y @ np.linalg.solve(B, y) + logdet) / n,
        "alignment": (y @ G @ y) / (np.linalg.norm(G, "fro") * (y @ y)),
        "sct_hat": 1.0 / m,
        "sct_deriv_hat": np.mean(1.0 / (mu + ridge) ** 2) / m ** 2,
        "cv_risk": None,
        "test_risk": None,
    }
    if folds is not None:
        risks = []
        for held in folds:
            rest = np.setdiff1d(np.arange(n), held)
            G_rest = G[np.ix_(rest, rest)]
            dual_rest = np.linalg.solve(G_rest / rest.size + ridge * np.eye(rest.size),
                                        y[rest]) / rest.size
            error = G[np.ix_(held, rest)] @ dual_rest - y[held]
            risks.append(error @ error / held.size)
        row["cv_risk"] = np.mean(risks)
    if K_test is not None:
        error = K_test @ dual - y_test
        row["test_risk"] = error @ error / y_test.shape[0]
    return row


def sweep(cfg: SweepConfig) -> list[dict]:
    """The textbook value of every column of every cell of cfg, in the sweep's
    grid order, as floats (None for a disabled score)."""
    train, test = _load_sweep_data(cfg)
    n, dim = train.X.shape
    seed = cfg.data["seed"]
    folds = None
    if cfg.cv_folds:
        folds = np.array_split(np.random.default_rng(seed).permutation(n), cfg.cv_folds)
    D = raw_distances(cfg.family, train.X, train.X)
    D_test = None if test is None else raw_distances(cfg.family, test.X, train.X)
    rows = []
    for multiple in cfg.lengthscale_multiples:
        lengthscale = multiple * dim
        G = np.exp(-D / lengthscale)
        K_test = None if test is None else np.exp(-D_test / lengthscale)
        for ridge in cfg.ridges:
            row = cell(G, train.y, ridge, folds, K_test, None if test is None else test.y)
            if not cfg.loglik:
                row["loglik"] = None
            if not cfg.alignment:
                row["alignment"] = None
            row.update(lengthscale=lengthscale, ridge=ridge, seed=seed, n=n)
            rows.append({key: None if value is None else float(value)
                         for key, value in row.items()})
    return rows
