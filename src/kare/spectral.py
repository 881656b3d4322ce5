"""The eigenvalue view of (1/n)G, its Stieltjes transform m(-ridge), and the
input checks and float64 guard that the whole package shares.
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
    """A Gram matrix that is not positive semidefinite, or a quantity that
    float64 cannot represent.  An ArithmeticError, so the CLI exits 4 on it.
    """


class GramSpectrum:
    """Eigenvalues of (1/n) G, ascending, as a read-only nonnegative array,
    and their number n.

    Raises ValueError unless eigenvalues is a non-empty 1-D array, and
    NumericalError for one below -1e-8, NaN or inf; those in [-1e-8, 0)
    are clamped to zero.
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
    """The ridge as a float; raises ValueError unless it is positive and finite."""
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
    the quantity and the ridge; an ArithmeticError inside compute() counts
    as non-finite, and NumPy float warnings are silenced."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except ArithmeticError:
        value = math.nan
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"{name} is not representable in float64 at ridge {ridge!r}")
    return value


def at_ridge(formula=None, *, name: str | None = None):
    """``@at_ridge`` or ``@at_ridge(name=...)`` on formula(*x, ridge), the
    ridge last and positional: the formula gets ``check_ridge(ridge)``, and
    its result passes ``representable`` under name (default: its own)."""
    if formula is None:
        return functools.partial(at_ridge, name=name)
    label = name or formula.__name__

    @functools.wraps(formula)
    def quantity(*args):
        *x, ridge = args
        ridge = check_ridge(ridge)
        return representable(label, ridge, lambda: formula(*x, ridge))
    return quantity


# Rows per tile of the symmetry scan.
_TILE_ROWS = 128


def _max_asymmetry(G: np.ndarray) -> float:
    """max |G - G.T| for a square float array, scanned in row strips with
    no n x n temporary; raises ValueError if any entry is non-finite."""
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
    """G as a float array, not copied when it is float64; raises ValueError
    unless it is finite, square, symmetric within SYMMETRY_TOL and has n
    rows, one per label (default: its size).  A non-finite entry is reported first.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if n is not None and n != G.shape[0]:
        raise ValueError(f"{n} labels but a {G.shape[0]} x {G.shape[0]} matrix")
    asymmetry = _max_asymmetry(G)
    if asymmetry > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asymmetry:.3e})")
    return G


def check_labels(y, n: int | None = None) -> np.ndarray:
    """The labels as a float vector; raises ValueError unless y is 1-D, every
    entry is finite and, when n is given, there are n of them."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"labels must be a 1-D array, got shape {y.shape}")
    if n is not None and y.shape[0] != n:
        raise ValueError(f"{n} points but {y.shape[0]} labels")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels have non-finite entries")
    return y


def check_array(value, what: str, ndim: int, length: int | None = None) -> np.ndarray:
    """value as a float array, not copied when it is float64; raises
    ValueError naming what unless it has ndim dimensions, length entries
    along the first when length is given, and finite entries."""
    a = np.asarray(value, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"{what} must be a {ndim}-D array, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"{what} must have {length} entries, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite entries in {what}")
    return a


def decompose(G) -> GramSpectrum:
    """Eigenvalues of G/n as a GramSpectrum, with ``np.linalg.eigvalsh``'s
    bits.  Raises as ``check_gram`` and ``GramSpectrum`` do."""
    G = check_gram(G)
    return GramSpectrum(eigvalsh(np.divide(G, G.shape[0], out=np.empty(G.shape, order="F"))))


def _decompose_in_place(G: np.ndarray) -> GramSpectrum:
    """``decompose(G)``, with its bits, overwriting G, which is not scanned:
    it must be a finite, exactly symmetric, C-contiguous n x n float64 array
    with n >= 1, as ``gram_matrix`` makes it."""
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
