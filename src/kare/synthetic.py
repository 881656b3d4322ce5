"""Gaussian observation model in the kernel eigenbasis, plus Monte Carlo oracles.

A draw holds the n x M matrix O of iid standard normals (one column per
expanded mode), so G = O diag(d) O^T and y = O b + noise * e, and risks are
exact sums over modes.  With U = O diag(sqrt d) and B = (1/n)G + ridge I,
one eigh of the smaller of U^T U / n and U U^T / n serves every oracle at
every ridge, through (U^T U / n + ridge I)^{-1} U^T = U^T B^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimators import RidgeScores, TrueFunction, checked_modes
from .kernels import KernelSpec, gram_matrix
from .lapack import eigh
from .spectral import (GramSpectrum, _decompose_in_place, at_ridge, check_array, check_count,
                       check_real, check_ridge, representable, stieltjes)
from .sct import Spectrum, solve_sct

# Expanded mode cap of eigenbasis sampling.
MAX_MODES = 5000


@dataclass(frozen=True)
class ObservationDraw:
    """One sample (O, y) of the model with the expanded spectrum d it used.

    Raises ValueError naming the field unless O is a finite 2-D array and
    d and y finite vectors of one entry per column and row of O.
    """

    O: np.ndarray
    d: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "O", check_array(self.O, "O", 2))
        object.__setattr__(self, "d", check_array(self.d, "d", 1, self.O.shape[1]))
        object.__setattr__(self, "y", check_array(self.y, "y", 1, self.O.shape[0]))

    @cached_property
    def G(self) -> np.ndarray:
        """The n x n Gram matrix O diag(d) O^T, built on first read."""
        G = (self.O * self.d) @ self.O.T
        return 0.5 * (G + G.T)

    @cached_property
    def _eigh(self) -> tuple[GramSpectrum, np.ndarray, np.ndarray]:
        """(spectrum, L, R): the GramSpectrum of G/n, n - M zeros then mu for
        U^T U / n = Q mu Q^T with L = diag(sqrt d) Q, R = U Q (n > M), or mu
        for U U^T / n = P mu P^T with L = diag(sqrt d) U^T P, R = P (n <= M),
        so that diag(d) O^T B^{-1} = L diag(1/(mu + ridge)) R^T at every ridge.
        NumPy's syrk makes each product exactly symmetric, so its transpose
        is decomposed in place."""
        root = np.sqrt(self.d)
        U = self.O * root
        n, M = U.shape
        if n > M:
            mu, Q = eigh((U.T @ U / n).T)
            return GramSpectrum(np.concatenate([np.zeros(n - M), mu])), root[:, None] * Q, U @ Q
        mu, P = eigh((U @ U.T / n).T)
        return GramSpectrum(mu), (self.O * self.d).T @ P, P

    @property
    def spectrum(self) -> GramSpectrum:
        """The n eigenvalues of G/n, from the draw's one eigh."""
        return self._eigh[0]

    @cached_property
    def scores(self) -> RidgeScores:
        """RidgeScores(G, y) on ``_eigh``'s spectrum and R; for n > M a QR,
        largest mu first, makes the columns of R = U Q orthonormal in float64."""
        spectrum, _, R = self._eigh
        if R.shape[0] > R.shape[1]:
            R = np.linalg.qr(R[:, ::-1])[0][:, ::-1]
        return RidgeScores.__new__(RidgeScores)._from_eigen(spectrum.eigenvalues, R, self.y)


def _expanded(spec: Spectrum, f: TrueFunction | None, indices=()) -> tuple:
    # The sampling check; checked_modes checks the target and indices.
    check_count(spec.expanded_size, "expanded mode count under the sampling cap", 1, MAX_MODES)
    return checked_modes(spec, f, indices)


def draw(spec: Spectrum, f: TrueFunction, n: int, seed) -> ObservationDraw:
    """One draw of (O, y), deterministic given the seed.  Raises ValueError
    for a bad n, more than MAX_MODES modes, or an f of another mode count.
    """
    n = check_count(n, "sample count", 1)
    d, _ = _expanded(spec, f)
    rng = np.random.default_rng(seed)
    O = rng.standard_normal((n, d.shape[0]))
    e = rng.standard_normal(n)
    y = O @ f.coeffs + f.noise * e
    return ObservationDraw(O, d, y)


def _reconstruct(dr: ObservationDraw, ridge: float, rhs: np.ndarray) -> np.ndarray:
    """(d_k/n) O_k^T B^{-1} rhs for every mode k: the predictor coefficients
    for rhs = y, the operator entries A_kl for rhs = O_l.  Callers evaluate
    it inside ``representable``."""
    spectrum, L, R = dr._eigh
    mu = spectrum.eigenvalues[-L.shape[1]:]
    return (L * (1.0 / (mu + ridge))) @ (R.T @ rhs) / dr.y.shape[0]


@at_ridge(name="predictor coefficients")
def predictor_coeffs(dr: ObservationDraw, ridge: float) -> np.ndarray:
    """Fitted predictor coefficients per mode: (d_k/n) O_k^T B^{-1} y."""
    return _reconstruct(dr, ridge, dr.y)


@at_ridge(name="exact risk")
def exact_risk(dr: ObservationDraw, f: TrueFunction, ridge: float) -> float:
    """sum_k (a_k - b_k)^2 + noise^2, exact in the eigenbasis; raises
    ValueError unless f has one coefficient per mode of the draw."""
    if f.coeffs.shape[0] != dr.d.shape[0]:
        raise ValueError(f"{f.coeffs.shape[0]} coefficients but the draw has "
                         f"{dr.d.shape[0]} modes")
    r = _reconstruct(dr, ridge, dr.y) - f.coeffs
    return float(r @ r) + f.noise**2


@at_ridge(name="train error")
def empirical_train_error(dr: ObservationDraw, ridge: float) -> float:
    """The train error ridge^2/n * y^T B^{-2} y of ``dr.scores``; raises as it does."""
    return dr.scores.train_error(ridge)


def mean_and_stderr(samples) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and its standard error std(ddof=1)/sqrt(k) along
    the first axis of k >= 2 samples."""
    samples = np.asarray(samples, dtype=float)
    k = check_count(samples.shape[0], "trials", 2)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(k)


def sample_draws(spec: Spectrum, f: TrueFunction, n: int, trials: int, seed: int, read) -> list:
    """read(draw(spec, f, n, (seed, t))) for t < trials, keeping no draw; needs trials >= 2."""
    return [read(draw(spec, f, n, (seed, t))) for t in range(check_count(trials, "trials", 2))]


def sample_spectra(sampler, n: int, trials: int, seed: int) -> list:
    """sampler(n, (seed, n, t)) for t < trials; needs trials >= 2 before it samples."""
    return [sampler(n, (seed, n, t)) for t in range(check_count(trials, "trials", 2))]


def mc_expected_risk(
    spec: Spectrum, f: TrueFunction, n: int, ridge: float, trials: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of exact_risk over ``sample_draws``;
    raises as ``draw`` and ``exact_risk`` do, and for fewer than 2 trials."""
    mean, stderr = mean_and_stderr(
        sample_draws(spec, f, n, trials, seed, lambda dr: exact_risk(dr, f, ridge)))
    return float(mean), float(stderr)


def _variance_stderr(samples: np.ndarray) -> float:
    # Asymptotic standard error of the sample variance from the fourth moment.
    n = samples.shape[0]
    centered = samples - samples.mean()
    s2 = float(centered @ centered) / (n - 1)
    m4 = float(np.mean(centered**4))
    return float(np.sqrt(max(m4 - s2**2, 0.0) / n))


@dataclass(frozen=True)
class OperatorMoments:
    """Monte Carlo moments of the reconstruction operator entries A_kl."""

    indices: tuple[int, ...]
    diag_mean: np.ndarray
    diag_mean_stderr: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    offdiag_mean: np.ndarray
    offdiag_stderr: np.ndarray
    stieltjes_gap_mean: float


def mc_operator_moments(
    spec: Spectrum,
    n: int,
    ridge: float,
    trials: int,
    seed: int,
    k_indices: tuple[int, ...],
) -> OperatorMoments:
    """Monte Carlo means and standard errors of A_kl = (d_k/n) O_k^T B^{-1} O_l
    at each diagonal of k_indices and each ordered pair among them, and the
    mean |1/theta - m(-ridge)|.  Raises as ``draw`` and ``checked_modes``
    do, and NumericalError for entries float64 cannot represent.
    """
    d, idx = _expanded(spec, None, k_indices)
    ridge = check_ridge(ridge)
    zero_f = TrueFunction(np.zeros(d.shape[0]), 0.0)
    theta = solve_sct(spec, n, ridge).theta
    cols = np.array(idx, dtype=int)

    def read(dr):
        entries = representable("operator entries", ridge,
                                lambda: _reconstruct(dr, ridge, dr.O[:, cols])[cols])
        return entries, abs(1.0 / theta - stieltjes(dr.spectrum, ridge))
    sub, gaps = map(np.array, zip(*sample_draws(spec, zero_f, n, trials, seed, read)))
    pairs = tuple((a, b) for a in idx for b in idx if a != b)
    off = sub[:, [idx.index(a) for a, _ in pairs], [idx.index(b) for _, b in pairs]]
    return OperatorMoments(idx, *mean_and_stderr(np.einsum("tkk->tk", sub)), pairs,
                           *mean_and_stderr(off), float(gaps.mean()))


@dataclass(frozen=True)
class CoeffStats:
    """Monte Carlo moments of the fitted predictor coefficients."""

    indices: tuple[int, ...]
    mean: np.ndarray
    mean_stderr: np.ndarray
    var: np.ndarray
    var_stderr: np.ndarray


def mc_coeff_stats(
    spec: Spectrum,
    f: TrueFunction,
    n: int,
    ridge: float,
    trials: int,
    seed: int,
    k_indices: tuple[int, ...],
) -> CoeffStats:
    """Monte Carlo moments of the predictor coefficients a_k at k_indices;
    raises as ``draw`` and ``checked_modes`` do."""
    idx = _expanded(spec, f, k_indices)[1]
    cols = np.array(idx, dtype=int)
    samples = np.array(sample_draws(spec, f, n, trials, seed,
                                    lambda dr: predictor_coeffs(dr, ridge)[cols]))
    return CoeffStats(idx, *mean_and_stderr(samples), samples.var(axis=0, ddof=1),
                      np.array([_variance_stderr(column) for column in samples.T]))


def rbf_gaussian_gram_spectrum(
    dim: int, lengthscale: float, sigma: float, n: int, seed
) -> GramSpectrum:
    """The GramSpectrum of the rbf kernel on n iid N(0, sigma^2 I) inputs,
    sampled in input space, since rbf shells exceed MAX_MODES."""
    dim, n = check_count(dim, "dimension", 1), check_count(n, "sample count", 1)
    sigma = check_real(sigma, "sigma")
    X = sigma * np.random.default_rng(seed).standard_normal((n, dim))
    return _decompose_in_place(gram_matrix(KernelSpec("rbf", lengthscale), X))

