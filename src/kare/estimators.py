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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import krr
from .kernels import KernelSpec, gram_matrix
from .spectral import (
    GramSpectrum,
    check_gram,
    check_labels,
    check_ridge,
    representable,
    stieltjes,
)
from .sct import SctResult, Spectrum, solve_sct


@dataclass(frozen=True)
class TrueFunction:
    """Target coefficients along the expanded spectrum modes, plus noise level."""

    coeffs: np.ndarray
    noise: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float).ravel()
        object.__setattr__(self, "coeffs", coeffs)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("target coefficients have non-finite entries")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"noise level must be finite and >= 0, got {self.noise}")


def _score(formula):
    """A RidgeScores quantity at a checked ridge, guarded by ``representable``.

    Near the ends of the float64 range (ridge 1e-300 or 1e300 on a
    rank-deficient Gram) the sums overflow or divide by zero; the
    quantity then names itself and the ridge in a NumericalError instead
    of returning inf or NaN.
    """
    @functools.wraps(formula)
    def score(self, ridge: float):
        ridge = check_ridge(ridge)
        return representable(formula.__name__, ridge, lambda: formula(self, ridge))
    return score


class RidgeScores(GramSpectrum):
    """The GramSpectrum of (1/n)G with the labels rotated into its
    eigenbasis, and every label-dependent ridge score from it.

    Grid sweeps evaluate many ridges per dataset; after rotating the
    labels into the eigenbasis each score is an O(n) sum over
    (mu_i + ridge), so the n^3 work is paid once.
    """

    def __init__(self, G, y):
        y = check_labels(y)
        mu, vectors = np.linalg.eigh(check_gram(G, y.shape[0]) / y.shape[0])
        super().__init__(mu)
        self.vectors = vectors
        self.w = vectors.T @ y
        self._w2 = self.w**2

    @_score
    def solve(self, ridge: float) -> np.ndarray:
        """((1/n)G + ridge I)^{-1} y."""
        return self.vectors @ (self.w / (self.eigenvalues + ridge))

    @_score
    def kare(self, ridge: float) -> float:
        numerator = float(np.mean(self._w2 / (self.eigenvalues + ridge) ** 2))
        return numerator / stieltjes(self, ridge) ** 2

    @_score
    def varrho(self, ridge: float) -> float:
        q = (self.eigenvalues + ridge) ** 2
        return float(np.sum(self._w2 / q) / np.sum(1.0 / q))

    @_score
    def train_error(self, ridge: float) -> float:
        return ridge**2 * float(np.mean(self._w2 / (self.eigenvalues + ridge) ** 2))

    @_score
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
    """y^T G y / (||G||_F ||y||^2), in [-1, 1]."""
    y = check_labels(y)
    G = check_gram(G, y.shape[0])
    gnorm = float(np.linalg.norm(G))
    ynorm2 = float(y @ y)
    if ynorm2 == 0.0:
        raise ValueError("labels are identically zero")
    if gnorm == 0.0:
        raise ValueError("Gram matrix is identically zero")
    return float(y @ G @ y) / (gnorm * ynorm2)


def checked_modes(spec: Spectrum, f: TrueFunction | None = None, indices=()) -> np.ndarray:
    """The spectrum's expanded eigenvalues, one per mode.

    Raises ValueError unless the target f (if given) has one coefficient
    per mode and every mode index in indices names one of the modes.
    """
    d = spec.expand()
    if f is not None and f.coeffs.shape[0] != d.shape[0]:
        raise ValueError(
            f"{f.coeffs.shape[0]} coefficients but {d.shape[0]} expanded modes"
        )
    for k in indices:
        if not 0 <= k < d.shape[0]:
            raise ValueError(f"mode index {k} out of range for {d.shape[0]} modes")
    return d


def _sct_and_bias(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float, indices=()
) -> tuple[np.ndarray, SctResult, float]:
    # The checked modes d, the SCT, and the bias sum_k b_k^2 theta^2/(theta+d_k)^2.
    d = checked_modes(spec, f, indices)
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
    _, res, bias = _sct_and_bias(spec, f, n, ridge)
    return (ridge / res.theta) ** 2 * res.theta_prime * (bias + f.noise**2)


def mean_predictor_coeffs(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float
) -> np.ndarray:
    """Expected predictor coefficient per mode: b_k * d_k / (theta + d_k)."""
    d = checked_modes(spec, f)
    theta = solve_sct(spec, n, ridge).theta
    return f.coeffs * d / (theta + d)


def predictor_variance_component(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float, k: int
) -> float:
    """Predicted variance of the predictor coefficient along expanded mode k."""
    d, res, bias = _sct_and_bias(spec, f, n, ridge, (k,))
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
    if not 0 <= noise < math.inf:
        raise ValueError(f"noise level must be finite and >= 0, got {noise}")
    if len(spec_k.entries) != len(spec_sigma.entries) or any(
        mk != ms
        for (_, mk), (_, ms) in zip(spec_k.entries, spec_sigma.entries)
    ):
        raise ValueError("spectra are not aligned entry by entry")
    res = solve_sct(spec_k, n, ridge)
    d, m = spec_k.arrays()
    s = np.array([sv for sv, _ in spec_sigma.entries])
    dtau = res.theta_prime * res.theta**2 * float(np.sum(m * (s - d) / (d + res.theta) ** 2))
    return n * res.theta + n * res.theta_prime * (noise**2 / n - ridge) + dtau


def cross_validation_risks(G, y, ridges, folds: int, seed: int = 0) -> list[float]:
    """Mean held-out MSE over k folds at each ridge, from the Gram G of all points.

    Fold assignment is reproducible: a seeded shuffle of the indices,
    then equal contiguous blocks with the remainder handed out one per
    fold from the front.  Each fold's Gram and cross-Gram are slices of
    G, so no kernel is evaluated; each (fold, ridge) pair is one
    Cholesky solve.  G must be finite and symmetric (the factorization
    reads one triangle); a failed solve raises NumericalError naming
    its ridge.
    """
    y = check_labels(y)
    n = y.shape[0]
    G = check_gram(G, n)
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be between 2 and {n}, got {folds}")
    ridges = [check_ridge(ridge) for ridge in ridges]
    order = np.random.default_rng(seed).permutation(n)
    errors = [[] for _ in ridges]
    for held in np.array_split(order, folds):
        rest = np.setdiff1d(order, held)
        G_rest, K_held = G[np.ix_(rest, rest)], G[np.ix_(held, rest)]
        for fold_errors, ridge in zip(errors, ridges):
            dual = krr.ridge_solve(G_rest, y[rest], ridge) / rest.size
            fold_errors.append(krr.held_out_risk(K_held, dual, y[held]))
    return [float(np.mean(fold_errors)) for fold_errors in errors]


def cross_validation_risk(
    kernel: KernelSpec, X, y, ridge: float, folds: int, seed: int = 0
) -> float:
    """Mean held-out MSE over k folds of the points X, from one Gram matrix.

    The folds are those of ``cross_validation_risks``.
    """
    return cross_validation_risks(gram_matrix(kernel, X), y, (ridge,), folds, seed)[0]
