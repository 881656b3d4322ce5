"""Risk estimators: the training-set scores kare and varrho (B = (1/n)G + ridge I)

    kare      (1/n) y^T B^{-2} y / ((1/n) Tr B^{-1})^2
    varrho    y^T B^{-2} y / Tr B^{-2}

with the comparators (k-fold CV, log marginal likelihood, kernel
alignment), and their closed forms under a known population spectrum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import krr
from .lapack import dot, eigh, matvec
from .kernels import KernelSpec, gram_matrix
from .spectral import (GramSpectrum, at_ridge, check_array, check_count, check_gram, check_labels,
                       check_real, check_ridge, stieltjes)
from .sct import SctResult, Spectrum, solve_sct


@dataclass(frozen=True)
class TrueFunction:
    """Target coefficients along the expanded spectrum modes, plus noise level;
    raises ValueError unless coeffs is a finite vector and noise finite and
    >= 0."""

    coeffs: np.ndarray
    noise: float = 0.0

    def __post_init__(self):
        coeffs = check_array(self.coeffs, "target coefficients", 1).copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        check_real(self.noise, "noise level", strict=False)


class RidgeScores(GramSpectrum):
    """The GramSpectrum of (1/n)G with the labels y rotated into its
    eigenbasis, and every label-dependent ridge score as an O(n) sum.
    Raises as ``check_labels``, ``check_gram`` and ``GramSpectrum`` do.

    From k < n eigenvectors P (a Monte Carlo draw of rank k), the residual
    r = y - P P^T y is the label mass of the zero eigenvalues: ||r||^2
    weighs one of them, and ``solve`` adds r / ridge.
    """

    def __init__(self, G, y):
        y = check_labels(y)
        G = check_gram(G, y.shape[0])
        self._from_eigen(*eigh(np.divide(G, y.shape[0], out=np.empty(G.shape, order="F"))), y)

    @classmethod
    def _scaling_in_place(cls, G: np.ndarray, y) -> RidgeScores:
        """RidgeScores(G, y), with its bits, for a G that ends up holding
        ``vectors`` and is not scanned: it must be a finite, exactly
        symmetric, C-contiguous n x n float64 array, as ``gram_matrix`` makes."""
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
        """Per-sample Gaussian evidence -(1/n) [y^T B^{-1} y + log det B] / 2,
        without the log(2 pi)/2 constant; higher is better."""
        quad = float(np.sum(self._w2 / (self.eigenvalues + ridge)))
        logdet = float(np.sum(np.log(self.eigenvalues + ridge)))
        return -0.5 * (quad + logdet) / self.n


def kare(y, G, ridge: float) -> float:
    """The kare score of ``RidgeScores(G, y)``, which approximates the test
    risk; raises as that and its score do."""
    return RidgeScores(G, y).kare(ridge)


def varrho(y, G, ridge: float) -> float:
    """The varrho score of ``RidgeScores(G, y)``, which approximates the risk
    of the expected predictor; raises as that and its score do."""
    return RidgeScores(G, y).varrho(ridge)


def log_marginal_likelihood(y, G, ridge: float) -> float:
    """The ``RidgeScores(G, y)`` log marginal likelihood; raises as it does."""
    return RidgeScores(G, y).log_marginal_likelihood(ridge)


def classical_alignment(y, G) -> float:
    """y^T G y / (||G||_F ||y||^2), in [-1, 1], at any scale of G and y.
    Raises ValueError as ``check_labels`` and ``check_gram`` do, and when y
    or G is identically zero.
    """
    y = check_labels(y)
    return _alignment(y, check_gram(G, y.shape[0]))


def _alignment(y: np.ndarray, G: np.ndarray) -> float:
    """``classical_alignment`` of checked labels y and a finite, symmetric,
    float64 G that is not scanned again; a sum outside the normal float64
    range is recomputed with y and G scaled exactly by powers of two."""
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
    """The spectrum's expanded eigenvalues and indices as ints; raises
    ValueError unless f (if given) has one coefficient per mode and every
    index is a whole number naming a mode."""
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
    """theta' * (sum_k b_k^2 theta^2/(theta+d_k)^2 + noise^2); raises as
    ``checked_modes`` and ``solve_sct`` do."""
    _, res, bias = _sct_and_bias(spec, f, n, ridge)
    return res.theta_prime * (bias + f.noise**2)


def theoretical_train_error(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float
) -> float:
    """(ridge/theta)^2 times the theoretical risk; raises as it does."""
    ridge = check_ridge(ridge)
    _, res, bias = _sct_and_bias(spec, f, n, ridge)
    return (ridge / res.theta) ** 2 * res.theta_prime * (bias + f.noise**2)


def mean_predictor_coeffs(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float
) -> np.ndarray:
    """Expected predictor coefficient per mode, b_k * d_k / (theta + d_k);
    raises as ``theoretical_risk`` does."""
    d, _ = checked_modes(spec, f)
    theta = solve_sct(spec, n, ridge).theta
    return f.coeffs * d / (theta + d)


def predictor_variance_component(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float, k: int
) -> float:
    """Predicted variance of the predictor coefficient along expanded mode k;
    raises as ``checked_modes`` and ``solve_sct`` do."""
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
    """Average risk over random targets of per-mode variance s_k, the
    eigenvalues of spec_sigma:

        n*theta + n*theta'*(noise^2/n - ridge)
            + theta'*theta^2 * sum_k mult_k (s_k - d_k)/(d_k + theta)^2,

    theta the SCT of spec_k.  Raises ValueError unless the two spectra have
    the same multiplicities, and as ``solve_sct`` does.
    """
    noise = check_real(noise, "noise level", strict=False)
    (d, m), (s, m_sigma) = spec_k.arrays(), spec_sigma.arrays()
    if not np.array_equal(m, m_sigma):
        raise ValueError("spectra are not aligned entry by entry")
    ridge = check_ridge(ridge)
    res = solve_sct(spec_k, n, ridge)
    dtau = res.theta_prime * res.theta**2 * float(np.sum(m * (s - d) / (d + res.theta) ** 2))
    return n * res.theta + n * res.theta_prime * (noise**2 / n - ridge) + dtau


def cross_validation_risks(G, y, ridges, folds: int, seed: int = 0) -> list[float]:
    """Mean held-out MSE over k folds at each ridge, from the Gram G of all
    points: a seeded shuffle, then contiguous blocks, the remainder handed
    out one per fold from the front.  Raises ValueError as ``check_labels``,
    ``check_gram`` and ``check_count`` do, and NumericalError naming the
    ridge of a failed solve.
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
        np.divide(G_rest, m, out=G_rest)
        B, y_rest = work[:m * m].reshape((m, m), order="F"), y[rest]
        solutions = []
        for ridge in ridges:
            np.copyto(B, G_rest)
            solutions.append(krr._factor_solve(B, y_rest, ridge))
        del G_rest  # freed before the next fold gathers its own
        K_held = G[np.ix_(held, rest)]
        for fold_errors, solution in zip(errors, solutions):
            fold_errors.append(krr.held_out_risk(K_held, solution / m, y[held]))
    return [float(np.mean(fold_errors)) for fold_errors in errors]


def cross_validation_risk(
    kernel: KernelSpec, X, y, ridge: float, folds: int, seed: int = 0
) -> float:
    """Mean held-out MSE over the folds of ``cross_validation_risks`` of the
    points X; raises as ``gram_matrix`` and it do."""
    return cross_validation_risks(gram_matrix(kernel, X), y, (ridge,), folds, seed)[0]
