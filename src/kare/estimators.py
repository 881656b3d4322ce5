"""Risk estimators for kernel ridge regression.

Data-driven scores (computable from the training set alone):

    kare      (1/n) y^T B^{-2} y / ((1/n) Tr B^{-1})^2,   B = (1/n)G + ridge I
    varrho    y^T B^{-2} y / Tr B^{-2}

both invariant under the simultaneous rescaling (G, ridge) -> (a G, a ridge),
plus the three usual comparators: k-fold cross-validation, Gaussian-process
log marginal likelihood and classical kernel alignment.

Closed-form counterparts under a known population spectrum: the expected
risk theta'(ridge) * (sum_k b_k^2 theta^2/(theta+d_k)^2 + noise^2), the
expected train error (ridge^2/theta^2) times that, per-mode predictor
means and variances, and the average risk over a random target with a
given covariance spectrum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import numpy.random  # NumPy loads it lazily, at the first draw otherwise

from . import krr
from .lapack import dot, eigh, matvec
from .kernels import KernelSpec, gram_matrix
from .spectral import (GramSpectrum, at_ridge, check_count, check_gram, check_labels, check_real,
                       check_ridge, stieltjes)
from .sct import SctResult, Spectrum, solve_sct


@dataclass(frozen=True)
class TrueFunction:
    """Target coefficients along the expanded spectrum modes, plus noise level."""

    coeffs: np.ndarray
    noise: float = 0.0

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float).ravel()  # its own copy
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("target coefficients have non-finite entries")
        check_real(self.noise, "noise level", strict=False)


class RidgeScores(GramSpectrum):
    """The GramSpectrum of (1/n)G with the labels rotated into its
    eigenbasis, and every label-dependent ridge score from it.

    Grid sweeps evaluate many ridges per dataset; after rotating the
    labels into the eigenbasis each score is an O(n) sum over
    (mu_i + ridge), so the n^3 work is paid once.

    A Monte Carlo draw of rank k < n gives k eigenvectors P.  Its other
    n - k eigenvalues are zero, a block whose only label mass is the
    residual r = y - P P^T y: ||r||^2 is the label weight of one of those
    zeros, so each score keeps one formula, and ``solve`` adds r / ridge.
    """

    def __init__(self, G, y):
        y = check_labels(y)
        G = check_gram(G, y.shape[0])
        self._from_eigen(*eigh(np.divide(G, y.shape[0], out=np.empty(G.shape, order="F"))), y)

    @classmethod
    def _scaling_in_place(cls, G: np.ndarray, y) -> RidgeScores:
        """RidgeScores(G, y) for a caller that no longer reads G: G is divided
        by n in place (the bits of G / n), and ``lapack.eigh`` decomposes it
        in its own buffer and transposes the eigenvectors there, so G ends up
        holding ``vectors`` and the call keeps no new n x n array.  G is not
        scanned: it must be a finite, exactly symmetric, C-contiguous n x n
        float64 array, as ``from_distances`` makes from mirrored distances.
        No ``__init__`` runs."""
        y = check_labels(y)
        return cls.__new__(cls)._from_eigen(*eigh(np.divide(G, y.shape[0], out=G).T), y)

    def _from_eigen(self, eigenvalues, vectors: np.ndarray, y: np.ndarray) -> RidgeScores:
        """Self, from the n eigenvalues of (1/n)G and orthonormal eigenvectors of its k largest."""
        GramSpectrum.__init__(self, eigenvalues)
        n, k = vectors.shape
        self.vectors, self.w = vectors, matvec(vectors.T, y)
        self._residual = y - matvec(vectors, self.w) if k < n else 0.0
        weight = np.zeros(n - k)
        weight[:1] = np.sum(self._residual**2)
        self._w2 = np.concatenate([weight, self.w**2])
        return self

    @at_ridge
    def solve(self, ridge: float) -> np.ndarray:
        """((1/n)G + ridge I)^{-1} y."""
        mu = self.eigenvalues[-self.w.size:]
        return matvec(self.vectors, self.w / (mu + ridge)) + self._residual / ridge

    @at_ridge
    def kare(self, ridge: float) -> float:
        numerator = float(np.mean(self._w2 / (self.eigenvalues + ridge) ** 2))
        return numerator / stieltjes(self, ridge) ** 2

    @at_ridge
    def varrho(self, ridge: float) -> float:
        q = (self.eigenvalues + ridge) ** 2
        return float(np.sum(self._w2 / q) / np.sum(1.0 / q))

    @at_ridge
    def train_error(self, ridge: float) -> float:
        return ridge**2 * float(np.mean(self._w2 / (self.eigenvalues + ridge) ** 2))

    @at_ridge
    def log_marginal_likelihood(self, ridge: float) -> float:
        """Per-sample Gaussian evidence with covariance (1/n)G + ridge I.

        -(1/n) [ 1/2 y^T B^{-1} y + 1/2 log det B ]; the n log(2 pi)/2
        constant is dropped.  Higher is better.
        """
        quad = float(np.sum(self._w2 / (self.eigenvalues + ridge)))
        logdet = float(np.sum(np.log(self.eigenvalues + ridge)))
        return -0.5 * (quad + logdet) / self.n


def kare(y, G, ridge: float) -> float:
    """Alignment risk score; approximates the test risk from training data."""
    return RidgeScores(G, y).kare(ridge)


def varrho(y, G, ridge: float) -> float:
    """Companion score approximating the risk of the *expected* predictor."""
    return RidgeScores(G, y).varrho(ridge)


def log_marginal_likelihood(y, G, ridge: float) -> float:
    return RidgeScores(G, y).log_marginal_likelihood(ridge)


def classical_alignment(y, G) -> float:
    """y^T G y / (||G||_F ||y||^2), in [-1, 1].

    The ratio is scale-free, so where a sum leaves the normal float64 range
    (as for 1e200 * G or 1e-170 * G), G and y are first scaled by powers of
    two, exactly, to a largest entry in [1/2, 1).  Raises ValueError when y
    or G is identically zero.
    """
    y = check_labels(y)
    return _alignment(y, check_gram(G, y.shape[0]))


def _alignment(y: np.ndarray, G: np.ndarray) -> float:
    """``classical_alignment`` of checked labels y and a finite, symmetric,
    float64 G that is not scanned again."""
    yGy, gg, yy = _alignment_sums(y, G)
    if not all(sys.float_info.min <= abs(s) < math.inf
               for s in (yGy, gg, yy, math.sqrt(gg) * yy)):
        if not y.any():
            raise ValueError("labels are identically zero")
        if not G.any():
            raise ValueError("Gram matrix is identically zero")
        yGy, gg, yy = _alignment_sums(
            *(np.ldexp(a, -np.frexp(np.abs(a).max())[1]) for a in (y, G)))
    return yGy / (math.sqrt(gg) * yy)


def _alignment_sums(y: np.ndarray, G: np.ndarray) -> tuple[float, float, float]:
    # y^T G y, ||G||_F^2 and ||y||^2 with the bits of y @ G @ y, of the sum
    # under np.linalg.norm(G), and of y @ y.
    flat = G.ravel(order="K")
    return dot(matvec(G.T, y), y), dot(flat, flat), dot(y, y)


def checked_modes(spec: Spectrum, f: TrueFunction | None = None, indices=()) -> tuple:
    """The spectrum's expanded eigenvalues, one per mode, and indices as ints.

    Raises ValueError unless the target f (if given) has one coefficient
    per mode and every index in indices is a whole number naming a mode.
    """
    d = spec.expand()
    if f is not None and f.coeffs.shape[0] != d.shape[0]:
        raise ValueError(
            f"{f.coeffs.shape[0]} coefficients but {d.shape[0]} expanded modes"
        )
    return d, tuple(check_count(k, "mode index", 0, d.shape[0] - 1) for k in indices)


def _sct_and_bias(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float
) -> tuple[np.ndarray, SctResult, float]:
    # The checked modes d, the SCT, and the bias sum_k b_k^2 theta^2/(theta+d_k)^2.
    d, _ = checked_modes(spec, f)
    res = solve_sct(spec, n, ridge)
    return d, res, float(np.sum(f.coeffs**2 * (res.theta / (res.theta + d)) ** 2))


def theoretical_risk(spec: Spectrum, f: TrueFunction, n: int, ridge: float) -> float:
    """theta' * (sum_k b_k^2 theta^2/(theta+d_k)^2 + noise^2)."""
    _, res, bias = _sct_and_bias(spec, f, n, ridge)
    return res.theta_prime * (bias + f.noise**2)


def theoretical_train_error(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float
) -> float:
    """(ridge/theta)^2 times the theoretical risk."""
    ridge = check_ridge(ridge)
    _, res, bias = _sct_and_bias(spec, f, n, ridge)
    return (ridge / res.theta) ** 2 * res.theta_prime * (bias + f.noise**2)


def mean_predictor_coeffs(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float
) -> np.ndarray:
    """Expected predictor coefficient per mode: b_k * d_k / (theta + d_k)."""
    d, _ = checked_modes(spec, f)
    theta = solve_sct(spec, n, ridge).theta
    return f.coeffs * d / (theta + d)


def predictor_variance_component(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float, k: int
) -> float:
    """Predicted variance of the predictor coefficient along expanded mode k."""
    [k] = checked_modes(spec, f, (k,))[1]
    d, res, bias = _sct_and_bias(spec, f, n, ridge)
    theta = res.theta
    own = f.coeffs[k] ** 2 * (theta / (theta + d[k])) ** 2
    return (
        res.theta_prime
        / n
        * (bias + f.noise**2 + own)
        * (d[k] / (theta + d[k])) ** 2
    )


def bayesian_risk(
    spec_k: Spectrum, spec_sigma: Spectrum, noise: float, n: int, ridge: float
) -> float:
    """Average risk over a random target with covariance spectrum spec_sigma.

    n*theta + n*theta'*(noise^2/n - ridge) + theta'*theta^2 *
    sum_k mult_k (s_k - d_k)/(d_k + theta)^2, where theta is the SCT of
    the regression spectrum spec_k.  Identical to averaging the
    closed-form risk over targets with per-mode variance s_k.  With
    spec_sigma = spec_k and ridge = noise^2/n this collapses to
    n*theta(noise^2/n), the optimal configuration.
    """
    noise = check_real(noise, "noise level", strict=False)
    if len(spec_k.entries) != len(spec_sigma.entries) or any(
        mk != ms
        for (_, mk), (_, ms) in zip(spec_k.entries, spec_sigma.entries)
    ):
        raise ValueError("spectra are not aligned entry by entry")
    ridge = check_ridge(ridge)
    res = solve_sct(spec_k, n, ridge)
    d, m = spec_k.arrays()
    s = np.array([sv for sv, _ in spec_sigma.entries])
    dtau = res.theta_prime * res.theta**2 * float(np.sum(m * (s - d) / (d + res.theta) ** 2))
    return n * res.theta + n * res.theta_prime * (noise**2 / n - ridge) + dtau


def cross_validation_risks(G, y, ridges, folds: int, seed: int = 0) -> list[float]:
    """Mean held-out MSE over k folds at each ridge, from the Gram G of all points.

    Fold assignment is reproducible: a seeded shuffle of the indices,
    then equal contiguous blocks with the remainder handed out one per
    fold from the front.  Each fold's Gram and cross-Gram are gathered
    from G, so no kernel is evaluated.  Each fold's Gram is gathered once,
    directly in Fortran order, and scaled by 1/m in place (m training
    points); every ridge of every fold copies it into one buffer, made once
    per call, and factors it there (``krr._factor_solves``), so a call
    holds at most two fold Grams and a held-out block.  G must be finite
    and symmetric (the factorization reads the lower triangle); a failed
    solve raises NumericalError naming its ridge.
    """
    y = check_labels(y)
    return _cross_validation_risks(check_gram(G, y.shape[0]), y, ridges, folds, seed)


def _cross_validation_risks(G: np.ndarray, y: np.ndarray, ridges, folds: int,
                            seed: int) -> list[float]:
    """``cross_validation_risks`` of checked labels y and a finite,
    symmetric, float64 G that is not scanned again."""
    n = y.shape[0]
    folds = check_count(folds, "folds", 2, n)
    ridges = [check_ridge(ridge) for ridge in ridges]
    order = np.random.default_rng(seed).permutation(n)
    work = np.empty((n - n // folds) ** 2)  # the largest fold's m x m
    errors = [[] for _ in ridges]
    for held in np.array_split(order, folds):
        keep = np.ones(n, bool)
        keep[held] = False
        rest = np.flatnonzero(keep)
        m = rest.size
        G_rest = G.T[np.ix_(rest, rest)].T  # G[np.ix_(rest, rest)], in Fortran order
        solutions = krr._factor_solves(np.divide(G_rest, m, out=G_rest), y[rest], ridges, work)
        del G_rest  # freed before the next fold gathers its own
        K_held = G[np.ix_(held, rest)]
        for fold_errors, solution in zip(errors, solutions):
            fold_errors.append(krr.held_out_risk(K_held, solution / m, y[held]))
    return [float(np.mean(fold_errors)) for fold_errors in errors]


def cross_validation_risk(
    kernel: KernelSpec, X, y, ridge: float, folds: int, seed: int = 0
) -> float:
    """Mean held-out MSE over k folds of the points X, from one Gram matrix.

    The folds are those of ``cross_validation_risks``.
    """
    return cross_validation_risks(gram_matrix(kernel, X), y, (ridge,), folds, seed)[0]
