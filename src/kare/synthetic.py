"""Gaussian observation model in the kernel eigenbasis, plus Monte Carlo oracles.

A draw materializes the model directly in coefficient space: the n x M
observation matrix O has iid standard normal entries (one column per
expanded spectrum mode), the Gram matrix is O diag(d) O^T, and labels are
O b + noise * e.  Risks are then exact sums over modes, no test sampling.

The oracles never form the n x n Gram.  With U = O diag(sqrt d) and
K = U^T U / n + ridge I (M x M), the push-through identity
U^T ((1/n)G + ridge I)^{-1} = K^{-1} U^T makes every oracle quantity exact
from one M x M Cholesky factorization (``krr.ridge_solve`` on U^T U), in
O(n M^2 + M^3).  A draw builds G only when ``.G`` is read, for the full-n
reference route ``krr.ridge_solve(dr.G, ...)``.

Reproducibility rule: trial t of a Monte Carlo run draws from
numpy's default_rng seeded with (seed, t), so results are independent of
execution order and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimators import TrueFunction, checked_modes
from .kernels import KernelSpec, gram_matrix
from .krr import ridge_solve
from .spectral import GramSpectrum, decompose, spectrum, stieltjes
from .sct import Spectrum, solve_sct

# Expanded mode cap; multiplicities beyond this make direct sampling
# intractable (use the classical input-space route instead).
MAX_MODES = 5000


@dataclass(frozen=True)
class ObservationDraw:
    """One sample (O, y) of the model with the expanded spectrum d it used."""

    O: np.ndarray
    d: np.ndarray
    y: np.ndarray
    seed: object

    @cached_property
    def G(self) -> np.ndarray:
        """The n x n Gram matrix O diag(d) O^T, built on first read."""
        G = (self.O * self.d) @ self.O.T
        return 0.5 * (G + G.T)

    @cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray]:
        # U = O diag(sqrt d) and the M x M product U^T U (n times the
        # mode Gram).
        U = self.O * np.sqrt(self.d)
        return U, U.T @ U


def _expanded(spec: Spectrum, f: TrueFunction | None, indices=()) -> np.ndarray:
    # The sampling checks; checked_modes checks the target and indices.
    size = spec.expanded_size
    if size < 1:
        raise ValueError("cannot sample from an empty spectrum")
    if size > MAX_MODES:
        raise ValueError(f"expanded spectrum has {size} modes, above the {MAX_MODES} cap")
    return checked_modes(spec, f, indices)


def _check_spectrum(dr: ObservationDraw, spec: Spectrum, f: TrueFunction | None) -> None:
    if not np.array_equal(_expanded(spec, f), dr.d):
        raise ValueError("spectrum does not match the one the draw was sampled from")


def draw(spec: Spectrum, f: TrueFunction, n: int, seed) -> ObservationDraw:
    """One draw of (O, y); deterministic given the seed.

    The draw keeps the expanded spectrum d; its Gram matrix G is built
    only when ``.G`` is read, and no oracle reads it.
    """
    d = _expanded(spec, f)
    rng = np.random.default_rng(seed)
    O = rng.standard_normal((n, d.shape[0]))
    e = rng.standard_normal(n)
    y = O @ f.coeffs + f.noise * e
    return ObservationDraw(O, d, y, seed)


def _fit(dr: ObservationDraw, ridge: float) -> np.ndarray:
    # K^{-1} U^T y / n: the fitted predictor is U times this.
    n = dr.y.shape[0]
    U, UtU = dr._modes
    return ridge_solve(UtU, U.T @ dr.y, ridge, n) / n


def predictor_coeffs(dr: ObservationDraw, spec: Spectrum, ridge: float) -> np.ndarray:
    """Fitted predictor coefficients per mode: (d_k/n) O_k^T B^{-1} y.

    Computed as sqrt(d) * K^{-1} U^T y / n; spec must be the draw's.
    """
    _check_spectrum(dr, spec, None)
    return np.sqrt(dr.d) * _fit(dr, ridge)


def exact_risk(dr: ObservationDraw, spec: Spectrum, f: TrueFunction, ridge: float) -> float:
    """sum_k (a_k - b_k)^2 + noise^2, computed exactly in the eigenbasis."""
    _check_spectrum(dr, spec, f)
    r = np.sqrt(dr.d) * _fit(dr, ridge) - f.coeffs
    return float(r @ r) + f.noise**2


def empirical_train_error(dr: ObservationDraw, ridge: float) -> float:
    """ridge^2/n * y^T ((1/n)G + ridge I)^{-2} y for this draw.

    By Woodbury, ridge B^{-1} y = y - U K^{-1} U^T y / n.
    """
    r = dr.y - dr._modes[0] @ _fit(dr, ridge)
    return float(r @ r) / dr.y.shape[0]


def _gram_spectrum(dr: ObservationDraw) -> GramSpectrum:
    """Eigenvalues of G/n: those of the mode Gram, with n - M zeros added
    (n >= M) or its M - n smallest dropped (n < M)."""
    n = dr.y.shape[0]
    mu = np.linalg.eigvalsh(dr._modes[1] / n)
    return spectrum(np.sort(np.concatenate([np.zeros(max(n - mu.shape[0], 0)), mu]))[-n:])


def mean_and_stderr(samples) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and its standard error std(ddof=1)/sqrt(k) along
    the first axis of k samples; the standard error of one sample is 0."""
    samples = np.asarray(samples, dtype=float)
    k = samples.shape[0]
    spread = samples.std(axis=0, ddof=1) if k > 1 else np.zeros(samples.shape[1:])
    return samples.mean(axis=0), spread / np.sqrt(k)


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")


def mc_expected_risk(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float, trials: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of exact_risk over independent draws."""
    _check_trials(trials)
    mean, stderr = mean_and_stderr(
        [exact_risk(draw(spec, f, n, (seed, t)), spec, f, ridge) for t in range(trials)]
    )
    return float(mean), float(stderr)


def _variance_stderr(samples: np.ndarray) -> float:
    # Asymptotic standard error of the sample variance via the fourth
    # central moment; no normality assumed.
    n = samples.shape[0]
    centered = samples - samples.mean()
    s2 = float(centered @ centered) / (n - 1)
    m4 = float(np.mean(centered**4))
    return float(np.sqrt(max(m4 - s2**2, 0.0) / n))


def _moments(samples: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per column of a (trials, k) sample array: the mean, its standard
    error, the variance and the variance's standard error."""
    return (
        *mean_and_stderr(samples),
        samples.var(axis=0, ddof=1),
        np.array([_variance_stderr(column) for column in samples.T]),
    )


@dataclass(frozen=True)
class OperatorMoments:
    """Monte Carlo moments of the reconstruction operator entries A_kl."""

    indices: tuple[int, ...]
    diag_mean: np.ndarray
    diag_mean_stderr: np.ndarray
    diag_var: np.ndarray
    diag_var_stderr: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    offdiag_mean: np.ndarray
    offdiag_stderr: np.ndarray
    stieltjes_gap_mean: float
    trials: int


def mc_operator_moments(
    spec: Spectrum,
    n: int,
    ridge: float,
    trials: int,
    seed: int,
    k_indices: tuple[int, ...],
) -> OperatorMoments:
    """Sample the entries A_kl = (d_k/n) O_k^T ((1/n)G + ridge I)^{-1} O_l.

    Returns per-index means and variances of the diagonal entries, means
    of every ordered off-diagonal pair among k_indices, and the mean gap
    |1/theta - m(-ridge)| between the solved threshold and the Gram
    Stieltjes transform.
    """
    _check_trials(trials)
    idx = tuple(int(k) for k in k_indices)
    d = _expanded(spec, None, idx)
    zero_f = TrueFunction(np.zeros(d.shape[0]), 0.0)
    theta = solve_sct(spec, n, ridge).theta
    cols = np.array(idx)
    sub = np.empty((trials, len(idx), len(idx)))
    gaps = np.empty(trials)
    for t in range(trials):
        dr = draw(spec, zero_f, n, (seed, t))
        # A_kl = (sqrt(d_k)/n) (K^{-1} U^T O_l)_k
        U, UtU = dr._modes
        W = ridge_solve(UtU, U.T @ dr.O[:, cols], ridge, n)
        sub[t] = (np.sqrt(d[cols])[:, None] / n) * W[cols]
        gaps[t] = abs(1.0 / theta - stieltjes(_gram_spectrum(dr), ridge))
    pairs = tuple((a, b) for a in idx for b in idx if a != b)
    off = np.stack(
        [sub[:, idx.index(a), idx.index(b)] for a, b in pairs], axis=1
    ) if pairs else np.empty((trials, 0))
    return OperatorMoments(idx, *_moments(np.einsum("tkk->tk", sub)), pairs,
                           *_moments(off)[:2], float(gaps.mean()), trials)


@dataclass(frozen=True)
class CoeffStats:
    """Monte Carlo moments of the fitted predictor coefficients."""

    indices: tuple[int, ...]
    mean: np.ndarray
    mean_stderr: np.ndarray
    var: np.ndarray
    var_stderr: np.ndarray
    trials: int


def mc_coeff_stats(
    spec: Spectrum,
    f: TrueFunction,
    n: int,
    ridge: float,
    trials: int,
    seed: int,
    k_indices: tuple[int, ...],
) -> CoeffStats:
    """Sample the predictor coefficients a_k over independent draws."""
    _check_trials(trials)
    idx = tuple(int(k) for k in k_indices)
    _expanded(spec, f, idx)
    cols = np.array(idx)
    samples = np.empty((trials, len(idx)))
    for t in range(trials):
        samples[t] = predictor_coeffs(draw(spec, f, n, (seed, t)), spec, ridge)[cols]
    return CoeffStats(idx, *_moments(samples), trials)


def rbf_gaussian_gram_spectrum(
    dim: int, lengthscale: float, sigma: float, n: int, seed
) -> GramSpectrum:
    """Gram eigenvalues for the rbf kernel on n iid N(0, sigma^2 I) inputs.

    The input-space route to a Gram sample: the matching population
    spectrum (rbf_gaussian_spectrum) has shell multiplicities far beyond
    MAX_MODES already at moderate dimension, so eigenbasis sampling is
    not an option there.
    """
    rng = np.random.default_rng(seed)
    X = sigma * rng.standard_normal((n, dim))
    return decompose(gram_matrix(KernelSpec("rbf", lengthscale), X))

