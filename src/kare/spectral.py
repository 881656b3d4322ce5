"""Eigenvalue view of the normalized Gram matrix.

Ridge sweeps evaluate resolvent traces of (1/n) G at many ridges; one
symmetric eigendecomposition turns each evaluation into an O(n) sum.
The Stieltjes transform here is always evaluated on the negative real
axis, i.e. m(-ridge) for ridge > 0.

This module owns the checks every eigen view shares: ``check_gram``
validates G (cross-validation and kernel alignment call it too),
``GramSpectrum`` checks and clamps its eigenvalues,
``check_ridge`` validates a ridge, ``check_labels`` validates labels,
and ``representable`` is the one float64 guard on a quantity computed
at a ridge.  ``NumericalError`` is the one error for a quantity that
float64 cannot represent and for a Gram matrix that is not positive
semidefinite.
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8


class NumericalError(ValueError, ArithmeticError):
    """A failed numerical computation: a Gram matrix that is not positive
    semidefinite, or a score or threshold estimate that float64 cannot
    represent.

    A ValueError, as these failures were before, and an ArithmeticError,
    so the CLI reports it as a numerical error (exit 4).
    """


class GramSpectrum:
    """Eigenvalues of (1/n) G, ascending, as a read-only nonnegative array.

    The one eigen view of a Gram matrix.  Eigenvalues in [-1e-8, 0) are
    floating noise on a PSD matrix and are clamped to zero; a minimum
    below -1e-8 (or NaN) signals a broken kernel and raises
    NumericalError.  n is the number of eigenvalues.
    """

    def __init__(self, eigenvalues):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        lowest = np.min(eigenvalues)
        if not lowest >= EIGENVALUE_FLOOR:
            raise NumericalError(
                f"matrix is not positive semidefinite (min eigenvalue {lowest:.3e})"
            )
        self.eigenvalues = np.clip(eigenvalues, 0.0, None)
        self.eigenvalues.flags.writeable = False
        self.n = self.eigenvalues.shape[0]


def check_ridge(ridge: float) -> float:
    """The ridge as a float; raises unless it is positive and finite."""
    ridge = float(ridge)
    if not 0 < ridge < math.inf:
        raise ValueError(f"ridge must be positive and finite, got {ridge}")
    return ridge


def representable(name: str, ridge: float, compute):
    """compute() if all its entries are finite, else NumericalError naming
    the quantity and the ridge.  NumPy float warnings are silenced, and an
    ArithmeticError inside compute() (a float overflow, or an inner
    quantity's NumericalError) counts as non-finite."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except ArithmeticError:
        value = math.nan
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"{name} is not representable in float64 at ridge {ridge!r}")
    return value


def check_gram(G, n: int | None = None) -> np.ndarray:
    """G as a float array; raises ValueError unless it is finite, square,
    symmetric and has n rows (default: its size)."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if n is not None and n != G.shape[0]:
        raise ValueError(f"sample count {n} does not match matrix size {G.shape[0]}")
    if not np.all(np.isfinite(G)):
        raise ValueError("matrix has non-finite entries")
    asymmetry = float(np.max(np.abs(G - G.T)))
    if asymmetry > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asymmetry:.3e})")
    return G


def check_labels(y) -> np.ndarray:
    """The labels as a flat float vector; raises ValueError unless every
    entry is finite."""
    y = np.asarray(y, dtype=float).ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("labels have non-finite entries")
    return y


def decompose(G) -> GramSpectrum:
    """Eigenvalues of G/n as a GramSpectrum."""
    G = check_gram(G)
    return GramSpectrum(np.linalg.eigvalsh(G / G.shape[0]))


def stieltjes(s: GramSpectrum, ridge: float) -> float:
    """m(-ridge) = (1/n) sum_i 1 / (mu_i + ridge); lies in (0, 1/ridge].
    Raises NumericalError below ridge ~1e-308 on a rank-deficient Gram."""
    ridge = check_ridge(ridge)
    return representable("stieltjes", ridge,
                         lambda: float(np.mean(1.0 / (s.eigenvalues + ridge))))


def stieltjes_derivative(s: GramSpectrum, ridge: float) -> float:
    """d/dz m(z) at z = -ridge, i.e. (1/n) sum_i 1 / (mu_i + ridge)^2.
    Raises NumericalError below ridge ~1e-154 on a rank-deficient Gram."""
    ridge = check_ridge(ridge)
    return representable("stieltjes_derivative", ridge,
                         lambda: float(np.mean(1.0 / (s.eigenvalues + ridge) ** 2)))
