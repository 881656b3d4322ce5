"""Kernel evaluation and Gram matrix construction.

All three kernel families are exponentials of a pointwise distance, so
K(x, x) = 1 and 0 < K(x, x') <= 1 everywhere:

    rbf        K(x, x') = exp(-||x - x'||_2^2 / lengthscale)
    laplacian  K(x, x') = exp(-||x - x'||_2   / lengthscale)
    l1exp      K(x, x') = exp(-||x - x'||_1   / lengthscale)

The lengthscale divides the raw (squared) distance directly, with no
extra factor of 2.  Callers that think in "lengthscale per input
dimension" units multiply by the dimension before building the spec.

The raw distances do not depend on the lengthscale: ``distances``
computes them once and ``from_distances`` turns them into the kernel
matrix at one lengthscale.  ``gram_matrix`` and ``cross_gram`` are the
two composed, exponentiating their own fresh distances in place, so each
holds one result array and the distance blocks' scratch.  A raw distance
that overflows float64 (coordinates near 1e308, or near 1e154 for the
squared forms) raises NumericalError naming the family's distance; it is
never turned into a kernel value of 0.  A ratio to the lengthscale that
overflows (1e10 / 1e-300) gives exp(-inf) = 0 without a warning, the
value float64 gives for any ratio above about 745.

Distances within one point set are symmetric with a zero diagonal, so
they are computed in strips: for each block of ``rows`` rows from row s,
the strip D[s:s + rows, s:], its diagonal block whole and every entry
right of it (``_strips``).  ``distances(X, X)`` and ``gram_matrix``
compute the strips in their n x n result, and ``_mirror`` copies them onto
the rest of the lower triangle.  A sweep keeps its train distances across
lengthscales as the strips laid one after another in one flat array:
n(n+1)/2 floats plus the lower halves of the diagonal blocks.
``_gram_from_strips`` exponentiates strips, flat or in place, into a Gram
and mirrors it.  (x - y)^2 and |x - y| are exact under negation, so every
route has the bits of computing all n^2 entries.
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
# (block, m, d) buffer stays in the L2 cache; the fastest cap timed
# (CHANGES.md has the table).
_BLOCK_ELEMENTS = 65_536


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus positive, finite lengthscale."""

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
    scratch buffer of at least dist.size * d floats.

    The squared form accumulates (x_i - y_i)^2 directly rather than
    expanding ||x||^2 - 2 x.y + ||y||^2, which cancels badly on
    near-duplicate points.  Each entry is summed the same way at any block
    size.  Raises NumericalError if a distance overflows float64.
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
    """Pairwise raw distances of two point sets: squared L2 (rbf), L2
    (laplacian) or L1 (l1exp), blocked over rows of X so the one
    (block, len(Y), d) scratch buffer stays within _BLOCK_ELEMENTS."""
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
    """(strips, rows): the within-set distances of X computed in strips of
    ``rows`` rows (see ``_strips``), in place in a new n x n array, or with
    ``flat`` in one flat array.  Flat blocks hold at most max(1, n // 64)
    rows, so the diagonal blocks' lower halves add at most n^2 / 128 floats
    to the n(n+1)/2 of the upper triangle.  Checks family and points as
    ``distances`` does."""
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
    with its bits, for the D whose strips of ``rows`` rows are ``strips``:
    each strip exponentiated into its place, then mirrored."""
    n = G.shape[0]
    with np.errstate(over="ignore"):
        for (_, S), (_, T) in zip(_strips(strips, n, rows), _strips(G, n, rows)):
            np.exp(np.divide(S, -spec.lengthscale, out=T), out=T)
    return _mirror(G, rows)


def _mirror(A: np.ndarray, rows: int) -> np.ndarray:
    """A, a square array whose strips of ``rows`` rows are whole, with the
    rest of its lower triangle overwritten by its transposed upper
    triangle, one strip at a time."""
    for start in range(rows, A.shape[0], rows):
        A[start:start + rows, :start] = A[:start, start:start + rows].T
    return A


def distances(family: str, X, Y) -> np.ndarray:
    """Raw pairwise distances between two point sets, entry (a, i) for X[a], Y[i].

    Every kernel matrix of a family at any lengthscale is
    ``from_distances`` of these, so a caller that builds several
    lengthscales computes them once.  Passing the same array as X and Y
    computes its strips and mirrors them, with the same bits.
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
    """Evaluate K(x, x2) for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"point dimensions differ: {x.shape} vs {x2.shape}")
    return float(cross_gram(spec, x[None, :], x2[None, :])[0, 0])


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric n x n matrix of pairwise kernel values, unit diagonal.

    ``from_distances`` of ``distances(X, X)``, with its bits, exponentiated
    in place strip by strip before the mirror; the mirrored triangle is
    exactly symmetric, so no symmetrization step runs.
    """
    G, rows = _strip_distances(spec.family, X)
    if G.shape[0] < 1:
        raise ValueError("need at least one point")
    return _gram_from_strips(spec, G, rows, G)


def cross_gram(spec: KernelSpec, X_test, X_train) -> np.ndarray:
    """m x n matrix with entry (a, i) = K(x_test_a, x_train_i)."""
    D = distances(spec.family, X_test, X_train)
    return from_distances(spec, D, out=D)
