"""Gaussian observation model in the kernel eigenbasis, plus Monte Carlo oracles.

A draw materializes the model directly in coefficient space: the n x M
observation matrix O has iid standard normal entries (one column per
expanded spectrum mode), the Gram matrix is O diag(d) O^T, and labels are
O b + noise * e.  Risks are then exact sums over modes, no test sampling.

The oracles and scores never form the n x n Gram.  With U = O diag(sqrt d),
a draw pays one ``lapack.eigh`` (``np.linalg.eigh``'s bits, in the
product's own buffer), of U^T U / n when n > M and of G/n = U U^T / n when
n <= M (U^T U alone would amplify rounding in its null space); the product
stays NumPy's.  By the push-through identity (U^T U / n + ridge I)^{-1} U^T =
U^T B^{-1}, with B = (1/n)G + ridge I, every oracle at every ridge is a
diagonal scaling in it, and the draw's ``spectrum`` (a GramSpectrum) and
``scores`` (a RidgeScores) come from the same eigh.  A draw builds G only
when ``.G`` is read, for the dense references.

Reproducibility rules, independent of execution order and thread count:
``sample_draws`` seeds trial t's draw with (seed, t), and ``sample_spectra``
seeds trial t's Gram spectrum of size n with (seed, n, t).  Suites bayes
(target (seed, t, 0), draw (seed, t, 1)) and identities (reference draws
(seed, 100 + t)) keep their own loops; thm6 and kare also sample at seed + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.random  # NumPy loads it lazily, at the first draw otherwise

from .estimators import RidgeScores, TrueFunction, checked_modes
from .kernels import KernelSpec, gram_matrix
from .lapack import eigh
from .spectral import (GramSpectrum, _decompose_in_place, at_ridge, check_count, check_real,
                       check_ridge, representable, stieltjes)
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
        NumPy's syrk mirrors each product, so it is exactly symmetric and its
        transpose, a Fortran-order view, is decomposed in place."""
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
        """RidgeScores(G, y) on ``_eigh``'s spectrum and R.  For n > M the
        columns of R = U Q are orthogonal only in exact arithmetic (one whose
        mu is far below the largest leans on the larger ones), so a QR,
        largest mu first, makes them orthonormal."""
        spectrum, _, R = self._eigh
        if R.shape[0] > R.shape[1]:
            R = np.linalg.qr(R[:, ::-1])[0][:, ::-1]
        return RidgeScores.__new__(RidgeScores)._from_eigen(spectrum.eigenvalues, R, self.y)


def _expanded(spec: Spectrum, f: TrueFunction | None, indices=()) -> tuple:
    # The sampling check; checked_modes checks the target and indices.
    check_count(spec.expanded_size, "expanded mode count under the sampling cap", 1, MAX_MODES)
    return checked_modes(spec, f, indices)


def draw(spec: Spectrum, f: TrueFunction, n: int, seed) -> ObservationDraw:
    """One draw of (O, y); deterministic given the seed.

    The draw keeps the expanded spectrum d; its Gram matrix G is built
    only when ``.G`` is read, and no oracle reads it.
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
    it inside ``representable``, so a 1/(mu + ridge) that overflows raises."""
    spectrum, L, R = dr._eigh
    mu = spectrum.eigenvalues[-L.shape[1]:]
    return (L * (1.0 / (mu + ridge))) @ (R.T @ rhs) / dr.y.shape[0]


@at_ridge(name="predictor coefficients")
def predictor_coeffs(dr: ObservationDraw, ridge: float) -> np.ndarray:
    """Fitted predictor coefficients per mode: (d_k/n) O_k^T B^{-1} y."""
    return _reconstruct(dr, ridge, dr.y)


@at_ridge(name="exact risk")
def exact_risk(dr: ObservationDraw, f: TrueFunction, ridge: float) -> float:
    """sum_k (a_k - b_k)^2 + noise^2, computed exactly in the eigenbasis.

    f must have one coefficient per mode of the draw.
    """
    if f.coeffs.shape[0] != dr.d.shape[0]:
        raise ValueError(f"{f.coeffs.shape[0]} coefficients but the draw has "
                         f"{dr.d.shape[0]} modes")
    r = _reconstruct(dr, ridge, dr.y) - f.coeffs
    return float(r @ r) + f.noise**2


@at_ridge(name="train error")
def empirical_train_error(dr: ObservationDraw, ridge: float) -> float:
    """ridge^2/n * y^T ((1/n)G + ridge I)^{-2} y for this draw: the train
    error of ``dr.scores``."""
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
    """Sample mean and standard error of exact_risk over independent draws."""
    mean, stderr = mean_and_stderr(
        sample_draws(spec, f, n, trials, seed, lambda dr: exact_risk(dr, f, ridge)))
    return float(mean), float(stderr)


def _variance_stderr(samples: np.ndarray) -> float:
    # Asymptotic standard error of the sample variance via the fourth
    # central moment; no normality assumed.
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
    """Sample the entries A_kl = (d_k/n) O_k^T ((1/n)G + ridge I)^{-1} O_l.

    Returns the means, with their standard errors, of the diagonal entry
    at each of k_indices and of every ordered off-diagonal pair among
    them, and the mean gap |1/theta - m(-ridge)| between the solved
    threshold and the Gram Stieltjes transform.
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
    """Sample the predictor coefficients a_k over independent draws."""
    idx = _expanded(spec, f, k_indices)[1]
    cols = np.array(idx, dtype=int)
    samples = np.array(sample_draws(spec, f, n, trials, seed,
                                    lambda dr: predictor_coeffs(dr, ridge)[cols]))
    return CoeffStats(idx, *mean_and_stderr(samples), samples.var(axis=0, ddof=1),
                      np.array([_variance_stderr(column) for column in samples.T]))


def rbf_gaussian_gram_spectrum(
    dim: int, lengthscale: float, sigma: float, n: int, seed
) -> GramSpectrum:
    """Gram eigenvalues for the rbf kernel on n iid N(0, sigma^2 I) inputs.

    The input-space route to a Gram sample: the matching population
    spectrum (rbf_gaussian_spectrum) has shell multiplicities far beyond
    MAX_MODES already at moderate dimension, so eigenbasis sampling is
    not an option there.
    """
    dim, n = check_count(dim, "dimension", 1), check_count(n, "sample count", 1)
    sigma = check_real(sigma, "sigma")
    X = sigma * np.random.default_rng(seed).standard_normal((n, dim))
    return _decompose_in_place(gram_matrix(KernelSpec("rbf", lengthscale), X))

