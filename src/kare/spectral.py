"""Eigenvalue view of the normalized Gram matrix.

Ridge sweeps evaluate resolvent traces of (1/n) G at many ridges; one
symmetric eigendecomposition turns each evaluation into an O(n) sum.
The Stieltjes transform here is always evaluated on the negative real
axis, i.e. m(-ridge) for ridge > 0.

This module owns the checks every eigen view shares: ``check_gram``
validates G (cross-validation and kernel alignment call it too),
``GramSpectrum`` checks and clamps its eigenvalues,
``check_real`` validates every real number the package is handed (a
ridge through ``check_ridge``), ``check_labels`` validates labels,
``check_count`` validates every count and index the package is handed,
``at_ridge`` declares every quantity f(..., ridge) the package computes at
a ridge (it checks the ridge, and the result must be finite), and
``representable`` is the float64 guard it applies, called directly only
for named intermediate values.  ``NumericalError`` is the one error for
a quantity that float64 cannot represent and for a Gram matrix that is
not positive semidefinite.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .lapack import eigvalsh

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

    The one eigen view of a Gram matrix, from a non-empty 1-D array
    (ValueError otherwise).  Eigenvalues in [-1e-8, 0) are floating noise
    on a PSD matrix and are clamped to zero; a minimum below -1e-8 (or
    NaN) signals a broken kernel, and so does an infinite eigenvalue:
    both raise NumericalError.  n is the number of eigenvalues.
    """

    def __init__(self, eigenvalues):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if eigenvalues.ndim != 1 or not eigenvalues.size:
            raise ValueError(f"expected a non-empty 1-D array of eigenvalues, "
                             f"got shape {eigenvalues.shape}")
        lowest = np.min(eigenvalues)
        if not lowest >= EIGENVALUE_FLOOR:
            raise NumericalError(
                f"matrix is not positive semidefinite (min eigenvalue {lowest:.3e})"
            )
        if not np.max(eigenvalues) < math.inf:
            raise NumericalError("matrix has an infinite eigenvalue")
        self.eigenvalues = np.clip(eigenvalues, 0.0, None)
        self.eigenvalues.flags.writeable = False
        self.n = self.eigenvalues.shape[0]


def check_real(value, what: str, low: float = 0.0, strict: bool = True) -> float:
    """float(value); raises ValueError naming what unless it is finite and
    above low (at least low when strict is False)."""
    x = float(value)
    if not (low < x < math.inf or x == low and not strict):
        rule = ("positive and finite" if strict and low == 0
                else f"finite and {'>' if strict else '>='} {low:g}")
        raise ValueError(f"{what} must be {rule}, got {x}")
    return x


def check_ridge(ridge: float) -> float:
    """The ridge as a float; raises unless it is positive and finite."""
    return check_real(ridge, "ridge")


def check_count(value, what: str, low: int, high: int | None = None) -> int:
    """value as an int; raises ValueError naming what unless it is a
    ``whole_number`` in [low, high], with no upper bound when high is None."""
    count = whole_number(value)
    if count is None or count < low or (high is not None and count > high):
        span = f">= {low}" if high is None else f"between {low} and {high}"
        raise ValueError(f"{what} must be a whole number {span}, got {value}")
    return count


def whole_number(value) -> int | None:
    """value as an int if it is a whole number (an int, a NumPy integer or an
    integral float), else None."""
    try:
        return operator.index(value)
    except TypeError:
        whole = isinstance(value, (float, np.floating)) and float(value).is_integer()
        return int(value) if whole else None


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


def at_ridge(formula=None, *, name: str | None = None):
    """``@at_ridge`` or ``@at_ridge(name=...)`` on a quantity formula(*x, ridge),
    the ridge last and positional: the formula receives the float
    ``check_ridge`` returns, and its result passes ``representable`` under
    name (default: the formula's name), so an overflow near the ends of the
    float64 range raises NumericalError."""
    if formula is None:
        return functools.partial(at_ridge, name=name)
    label = name or formula.__name__

    @functools.wraps(formula)
    def quantity(*args):
        *x, ridge = args
        ridge = check_ridge(ridge)
        return representable(label, ridge, lambda: formula(*x, ridge))
    return quantity


# Rows per tile of the symmetry scan: a 128 x n strip of differences
# is 1 MB at n = 1000.
_TILE_ROWS = 128


def _max_asymmetry(G: np.ndarray) -> float:
    """max |G - G.T| for a square float array; raises ValueError if any
    entry is non-finite.

    Scans the upper triangle in strips of _TILE_ROWS rows, comparing
    G[i:i+t, i:] with G[i:, i:i+t].T in one reused t x n buffer, so it
    allocates no n x n temporary.  The strips and their transposed
    partners cover every entry, and |a - b| = |b - a| exactly, so the
    maximum is that of the full scan.
    """
    n = G.shape[0]
    scratch = np.empty((min(n, _TILE_ROWS), n))
    asymmetry = 0.0
    for i in range(0, n, _TILE_ROWS):
        upper, lower = G[i:i + _TILE_ROWS, i:], G[i:, i:i + _TILE_ROWS].T
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise ValueError("matrix has non-finite entries")
        gap = np.subtract(upper, lower, out=scratch[:upper.shape[0], :n - i])
        asymmetry = max(asymmetry, float(np.abs(gap, out=gap).max()))
    return asymmetry


def check_gram(G, n: int | None = None) -> np.ndarray:
    """G as a float array; raises ValueError unless it is finite, square,
    symmetric and has n rows (default: its size).

    A non-finite entry anywhere is reported before any asymmetry; the
    asymmetry reported is the largest |G[i, j] - G[j, i]|.  The scan works
    in row tiles (``_max_asymmetry``) and copies nothing when G is
    already a float64 array.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if n is not None and n != G.shape[0]:
        raise ValueError(f"sample count {n} does not match matrix size {G.shape[0]}")
    asymmetry = _max_asymmetry(G)
    if asymmetry > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asymmetry:.3e})")
    return G


def check_labels(y, n: int | None = None) -> np.ndarray:
    """The labels as a flat float vector; raises ValueError unless every
    entry is finite and, when n is given, there are n of them."""
    y = np.asarray(y, dtype=float).ravel()
    if n is not None and y.shape[0] != n:
        raise ValueError(f"{n} points but {y.shape[0]} labels")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels have non-finite entries")
    return y


def decompose(G) -> GramSpectrum:
    """Eigenvalues of G/n as a GramSpectrum, with ``np.linalg.eigvalsh``'s
    bits.  G/n is written once, to a Fortran-order array that
    ``lapack.eigvalsh`` decomposes in place; NumPy would hold G/n and its
    own Fortran-order copy of it."""
    G = check_gram(G)
    return GramSpectrum(eigvalsh(np.divide(G, G.shape[0], out=np.empty(G.shape, order="F"))))


def _decompose_in_place(G: np.ndarray) -> GramSpectrum:
    """``decompose(G)`` for a caller that no longer reads G, with its bits:
    G is divided by n in place and decomposed as ``G.T``, which holds the
    bytes of decompose's Fortran-order G/n when G is exactly symmetric.  G
    is not scanned: it must be a finite, exactly symmetric, C-contiguous
    n x n float64 array with n >= 1, as ``gram_matrix`` makes it."""
    return GramSpectrum(eigvalsh(np.divide(G, G.shape[0], out=G).T))


@at_ridge
def stieltjes(s: GramSpectrum, ridge: float) -> float:
    """m(-ridge) = (1/n) sum_i 1 / (mu_i + ridge); lies in (0, 1/ridge].
    Raises NumericalError below ridge ~1e-308 on a rank-deficient Gram."""
    return float(np.mean(1.0 / (s.eigenvalues + ridge)))


@at_ridge
def stieltjes_derivative(s: GramSpectrum, ridge: float) -> float:
    """d/dz m(z) at z = -ridge, i.e. (1/n) sum_i 1 / (mu_i + ridge)^2.
    Raises NumericalError below ridge ~1e-154 on a rank-deficient Gram."""
    return float(np.mean(1.0 / (s.eigenvalues + ridge) ** 2))
