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
only the blocks on and above the diagonal are computed, and ``_mirror``
copies them onto the lower triangle.  A sweep, which builds a Gram at
each of several lengthscales, keeps only the packed upper triangle
(``_packed_distances``: n(n+1)/2 floats, row i holding D[i, i:]), and
``_packed_gram`` expands it into each Gram: exp of the same floats,
mirrored, so it has ``gram_matrix``'s bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import NumericalError, check_real

FAMILIES = ("rbf", "laplacian", "l1exp")

# The raw distance each family exponentiates, named in overflow errors.
_DISTANCE_NAMES = {"rbf": "squared L2 distance", "laplacian": "L2 distance",
                   "l1exp": "L1 distance"}

# Cap on float64 scratch elements per distance block (512 KB), so the
# (block, m, d) buffer stays in the L2 cache.  One 1000 x 1000 x 20 l1exp
# distance matrix at each cap (min of 7 calls, two sets, 2-core Xeon VM,
# NumPy with OpenBLAS; scratch is tracemalloc's peak beyond the 8.0 MB
# result, in MB of 10^6 bytes):
#
#     cap (elements)   rows/block   time (ms)     scratch (MB)
#     16,384                1       73.8-75.4        0.23
#     65,536                3       64.8-68.4        0.55
#     262,144              13       73.0-78.2        2.15
#     1,048,576            52       69.8-76.8        8.39
#     4,000,000           200       103.5-125.9     32.20
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
    """Pairwise raw distances: squared L2 (rbf), L2 (laplacian) or L1 (l1exp).

    Blocked over rows of X so the one (block, len(Y), d) scratch buffer
    stays within _BLOCK_ELEMENTS.  When Y is X, each block is computed
    only against the columns from its first row on, and ``_mirror`` fills
    the rest: (x - y)^2 and |x - y| are exact under negation, so the
    copies have the bits a full computation would give.
    """
    n = X.shape[0]
    m, d = Y.shape
    upper = Y is X
    out = np.empty((n, m))
    rows = _block_rows(m, d)
    scratch = np.empty(min(rows, n) * m * d)
    for start in range(0, n, rows):
        first = start if upper else 0
        _block_distances(family, X[start:start + rows], Y[first:], scratch,
                         out[start:start + rows, first:])
    return _mirror(out, rows) if upper else out


def _packed_distances(family: str, X) -> np.ndarray:
    """The upper triangle of ``distances(family, X, X)``, with its bits, as
    one flat array of n(n+1)/2 floats: row i, D[i, i:], follows row i - 1.

    Computed in the same blocks as ``distances``, each through a block-sized
    buffer, and raises as it does.
    """
    _check_family(family)
    X = _as_points(X)
    n, d = X.shape
    packed = np.empty(n * (n + 1) // 2)
    rows = _block_rows(n, d)
    scratch = np.empty(min(rows, n) * n * d)
    block_out = np.empty(min(rows, n) * n)
    at = 0
    for start in range(0, n, rows):
        block = X[start:start + rows]
        dist = block_out[:block.shape[0] * (n - start)].reshape(block.shape[0], n - start)
        _block_distances(family, block, X[start:], scratch, dist)
        for i, row in enumerate(dist):
            packed[at:at + n - start - i] = row[i:]
            at += n - start - i
    return packed


def _row_offset(i: int, n: int) -> int:
    """Where row i starts in a packed upper triangle of order n."""
    return i * n - i * (i - 1) // 2


def _packed_gram(spec: KernelSpec, packed: np.ndarray) -> np.ndarray:
    """``from_distances(spec, D)`` for the D whose packed upper triangle is
    ``packed`` (as ``_packed_distances`` makes it), with the same bits.

    Each strip of rows is exponentiated in one buffer of _BLOCK_ELEMENTS
    floats at most and copied row by row onto the Gram's upper triangle,
    and each row's entries left of the diagonal within its strip from the
    rows above it; ``_mirror`` fills the rest.
    """
    n = (math.isqrt(8 * packed.size + 1) - 1) // 2
    G = np.empty((n, n))
    rows = max(1, _BLOCK_ELEMENTS // max(1, n))
    buffer = np.empty(min(packed.size, rows * n))
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        low, high = _row_offset(start, n), _row_offset(stop, n)
        strip = from_distances(spec, packed[low:high], out=buffer[:high - low])
        at = 0
        for i in range(start, stop):
            G[i, i:] = strip[at:at + n - i]
            G[i, start:i] = G[start:i, i]
            at += n - i
    return _mirror(G, rows)


def _mirror(A: np.ndarray, rows: int) -> np.ndarray:
    """A, a square array whose diagonal blocks of ``rows`` rows are already
    whole, with the rest of its lower triangle overwritten by its
    transposed upper triangle, one strip of ``rows`` rows at a time."""
    for start in range(rows, A.shape[0], rows):
        A[start:start + rows, :start] = A[:start, start:start + rows].T
    return A


def distances(family: str, X, Y) -> np.ndarray:
    """Raw pairwise distances between two point sets, entry (a, i) for X[a], Y[i].

    Every kernel matrix of a family at any lengthscale is
    ``from_distances`` of these, so a caller that builds several
    lengthscales computes them once.  Passing the same array as X and Y
    computes one triangle and mirrors it, with the same bits.
    """
    _check_family(family)
    same = Y is X
    X = _as_points(X)
    Y = X if same else _as_points(Y)
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

    ``from_distances`` of ``distances(X, X)``, in place; the mirrored
    triangle is exactly symmetric with a zero diagonal, so no
    symmetrization step runs.
    """
    D = distances(spec.family, X, X)
    if D.shape[0] < 1:
        raise ValueError("need at least one point")
    return from_distances(spec, D, out=D)


def cross_gram(spec: KernelSpec, X_test, X_train) -> np.ndarray:
    """m x n matrix with entry (a, i) = K(x_test_a, x_train_i)."""
    D = distances(spec.family, X_test, X_train)
    return from_distances(spec, D, out=D)
