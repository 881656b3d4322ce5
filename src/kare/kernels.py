"""Kernels exp(-distance / lengthscale): the squared L2 distance (rbf), the
L2 distance (laplacian) or the L1 distance (l1exp), with no factor of 2.

A raw distance that overflows float64 raises NumericalError naming it; a
ratio to the lengthscale that overflows gives exp(-inf) = 0.  (x - y)^2 and
|x - y| are exact under negation, so the strip routes of one point set have
the bits of computing all n^2 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import NumericalError, check_real

FAMILIES = ("rbf", "laplacian", "l1exp")

# The raw distance each family exponentiates, named in overflow errors.
_DISTANCE_NAMES = {"rbf": "squared L2 distance", "laplacian": "L2 distance",
                   "l1exp": "L1 distance"}

# Cap on float64 scratch elements per distance block (512 KB), so the
# (block, m, d) buffer stays in the L2 cache.
_BLOCK_ELEMENTS = 65_536


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus lengthscale; raises ValueError for an unknown family
    or a lengthscale that is not positive and finite."""

    family: str
    lengthscale: float

    def __post_init__(self):
        _check_family(self.family)
        check_real(self.lengthscale, "lengthscale")


def _as_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite coordinates")
    return X


def _block_rows(m: int, d: int) -> int:
    """Rows of X per distance block against m points of dimension d."""
    return max(1, _BLOCK_ELEMENTS // max(1, m * d))


def _block_distances(family: str, block: np.ndarray, Y: np.ndarray, scratch: np.ndarray,
                     dist: np.ndarray) -> None:
    """dist[a, i] = raw distance of block[a] and Y[i], through the flat
    scratch of at least dist.size * d floats, summed the same way at any
    block size (no ||x||^2 - 2 x.y + ||y||^2 expansion, which cancels on
    near-duplicate points).  Raises NumericalError if one overflows float64.
    """
    diff = scratch[:dist.size * Y.shape[1]].reshape(*dist.shape, Y.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(block[:, None, :], Y[None, :, :], out=diff)
        if family == "l1exp":
            np.abs(diff, out=diff)
        else:
            np.square(diff, out=diff)
        diff.sum(axis=2, out=dist)
        if family == "laplacian":
            np.sqrt(dist, out=dist)
    if not np.isfinite(dist).all():
        raise NumericalError(
            f"{family} kernel: {_DISTANCE_NAMES[family]} is not representable in float64"
        )


def _raw_distances(family: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise raw distances of two point sets, in blocks of rows of X."""
    n = X.shape[0]
    m, d = Y.shape
    out = np.empty((n, m))
    rows = _block_rows(m, d)
    scratch = np.empty(min(rows, n) * m * d)
    for start in range(0, n, rows):
        _block_distances(family, X[start:start + rows], Y, scratch, out[start:start + rows])
    return out


def _strips(A: np.ndarray, n: int, rows: int):
    """(start, view of D[start:start + rows, start:]) for each block of
    ``rows`` rows of an n x n within-set matrix D: in A itself when A is
    n x n, else in flat A, where each strip follows the one above it."""
    at = 0
    for start in range(0, n, rows):
        if A.ndim == 2:
            yield start, A[start:start + rows, start:]
        else:
            shape = (min(rows, n - start), n - start)
            yield start, A[at:at + shape[0] * shape[1]].reshape(shape)
            at += shape[0] * shape[1]


def _strip_distances(family: str, X, flat: bool = False) -> tuple[np.ndarray, int]:
    """(strips, rows): the within-set distances of X as ``_strips`` of
    ``rows`` rows, in a new n x n array, or with ``flat`` in one flat array
    of at most n(n+1)/2 + n^2/128 floats.  Checks as ``distances`` does."""
    _check_family(family)
    X = _as_points(X)
    n, d = X.shape
    rows = _block_rows(n, d)
    if flat:
        rows = min(rows, max(1, n // 64))
        out = np.empty(sum(min(rows, n - start) * (n - start) for start in range(0, n, rows)))
    else:
        out = np.empty((n, n))
    scratch = np.empty(min(rows, n) * n * d)
    for start, strip in _strips(out, n, rows):
        _block_distances(family, X[start:start + rows], X[start:], scratch, strip)
    return out, rows


def _gram_from_strips(spec: KernelSpec, strips: np.ndarray, rows: int,
                      G: np.ndarray) -> np.ndarray:
    """G (n x n, may be ``strips`` itself) holding ``from_distances(spec, D)``,
    with its bits, for the D whose strips of ``rows`` rows are ``strips``."""
    n = G.shape[0]
    with np.errstate(over="ignore"):
        for (_, S), (_, T) in zip(_strips(strips, n, rows), _strips(G, n, rows)):
            np.exp(np.divide(S, -spec.lengthscale, out=T), out=T)
    return _mirror(G, rows)


def _mirror(A: np.ndarray, rows: int) -> np.ndarray:
    """A, whose strips of ``rows`` rows are whole, with the rest of its
    lower triangle overwritten by its transposed upper triangle."""
    for start in range(rows, A.shape[0], rows):
        A[start:start + rows, :start] = A[:start, start:start + rows].T
    return A


def distances(family: str, X, Y) -> np.ndarray:
    """Raw pairwise distances, entry (a, i) for X[a] and Y[i]; ``from_distances``
    of them is the kernel matrix at any lengthscale.  Raises ValueError for
    an unknown family, non-finite points or differing dimensions, and
    NumericalError for a distance that overflows float64.
    """
    if Y is X:
        return _mirror(*_strip_distances(family, X))
    _check_family(family)
    X, Y = _as_points(X), _as_points(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"point dimensions differ: {X.shape[1]} vs {Y.shape[1]}")
    return _raw_distances(family, X, Y)


def from_distances(spec: KernelSpec, D: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-D / lengthscale) entry by entry, into out (a new array when
    None; out may be D itself), with the same bits either way."""
    with np.errstate(over="ignore"):
        K = np.divide(D, -spec.lengthscale, out=out)
    return np.exp(K, out=K)


def kernel_eval(spec: KernelSpec, x, x2) -> float:
    """K(x, x2) for one pair of points; raises ValueError for non-finite
    points or differing dimensions."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"point dimensions differ: {x.shape} vs {x2.shape}")
    return float(cross_gram(spec, x[None, :], x2[None, :])[0, 0])


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """The exactly symmetric n x n Gram matrix of X, with the bits of
    ``from_distances`` of ``distances(X, X)``.  Raises ValueError for no
    points or non-finite ones, and NumericalError as ``distances`` does.
    """
    G, rows = _strip_distances(spec.family, X)
    if G.shape[0] < 1:
        raise ValueError("need at least one point")
    return _gram_from_strips(spec, G, rows, G)


def cross_gram(spec: KernelSpec, X_test, X_train) -> np.ndarray:
    """m x n matrix with entry (a, i) = K(x_test_a, x_train_i); raises as
    ``distances`` does."""
    D = distances(spec.family, X_test, X_train)
    return from_distances(spec, D, out=D)
