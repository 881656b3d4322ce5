"""Signal capture threshold (SCT).

The SCT theta(ridge, n) of a population spectrum {(d_k, mult_k)} is the
unique positive solution of

    theta = ridge + (theta / n) * sum_k mult_k * d_k / (d_k + theta),

bracketed by ridge < theta <= ridge + trace / n.  Eigenvalues well above
theta are captured by ridge regression on n samples, eigenvalues well
below it are lost.  Its ridge derivative has the closed form

    d theta / d ridge = 1 / (1 - (1/n) sum_k mult_k * d_k^2 / (d_k + theta)^2),

which is always in [1, theta / ridge].  Both quantities can also be
estimated from training data alone through the Stieltjes transform of
the normalized Gram matrix: theta ~ 1/m(-ridge) and
d theta ~ m'(-ridge) / m(-ridge)^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import GramSpectrum, check_ridge, representable, stieltjes, stieltjes_derivative

# Multiplicities above this are no longer exactly representable once they
# reach float arithmetic; the spectrum is truncated instead.
MULTIPLICITY_CAP = 2**62

_MAX_ITERATIONS = 200
_RESIDUAL_SCALE = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Finite truncation of a population spectrum: (eigenvalue, multiplicity) pairs."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        entries = tuple((float(d), int(m)) for d, m in self.entries)
        for d, m in entries:
            if not 0 < d < math.inf:
                raise ValueError(f"eigenvalues must be positive and finite, got {d}")
            if m < 1:
                raise ValueError(f"multiplicities must be >= 1, got {m}")
        object.__setattr__(self, "entries", entries)

    @property
    def trace(self) -> float:
        return float(sum(m * d for d, m in self.entries))

    @property
    def expanded_size(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> np.ndarray:
        """Eigenvalues repeated per multiplicity, one slot per mode."""
        return np.repeat(
            [d for d, _ in self.entries], [m for _, m in self.entries]
        ).astype(float)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        d = np.array([d for d, _ in self.entries])
        m = np.array([float(m) for _, m in self.entries])
        return d, m


@dataclass(frozen=True)
class SctResult:
    theta: float
    theta_prime: float


def solve_sct(spec: Spectrum, n: int, ridge: float) -> SctResult:
    """Solve the SCT fixed point and its closed-form ridge derivative.

    Bisection on the guaranteed bracket [ridge, ridge + trace/n] with
    Newton steps once inside; the residual of the returned root satisfies
    |g(theta)| <= 1e-12 * (ridge + trace/n).
    """
    ridge = check_ridge(ridge)
    if not n >= 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    d, m = spec.arrays()
    trace = float(m @ d)
    if trace == 0.0:
        return SctResult(ridge, 1.0)

    def residual(t: float) -> float:
        return t - ridge - (t / n) * float(np.sum(m * d / (d + t)))

    def slope(t: float) -> float:
        # g'(t) = 1 - (1/n) sum m d^2 / (d+t)^2, positive on the bracket.
        return 1.0 - float(np.sum(m * (d / (d + t)) ** 2)) / n

    lo, hi = ridge, ridge + trace / n
    tol = _RESIDUAL_SCALE * (ridge + trace / n)
    t = hi
    for _ in range(_MAX_ITERATIONS):
        g = residual(t)
        if abs(g) <= tol:
            return SctResult(t, 1.0 / slope(t))
        if g > 0:
            hi = t
        else:
            lo = t
        sl = slope(t)
        step = t - g / sl if sl > 0 else None
        t = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise ArithmeticError(
        f"SCT solve did not converge within {_MAX_ITERATIONS} iterations "
        f"(ridge={ridge}, n={n})"
    )


def sct_from_gram(s: GramSpectrum, ridge: float) -> SctResult:
    """Estimate the SCT and its derivative from Gram eigenvalues alone.

    theta = 1/m(-ridge) and theta' = m'(-ridge)/m(-ridge)^2; the bounds
    theta >= ridge and theta' >= 1 hold exactly for this estimator.
    Where either is not representable in float64 (ridges near the ends of
    the float range on a rank-deficient Gram), raises NumericalError
    naming it and the ridge.
    """
    ridge = check_ridge(ridge)
    # An infinite m would make theta = 1/m a spurious 0.
    m = representable("theta", ridge, lambda: stieltjes(s, ridge))
    theta_prime = representable("theta_prime", ridge,
                                lambda: stieltjes_derivative(s, ridge) / (m * m))
    return SctResult(1.0 / m, theta_prime)


def shell_multiplicity(dim: int, k: int) -> int:
    """Number of degree-k modes for the squared-exponential kernel in dim inputs."""
    if k == 0:
        return 1
    return sum(
        math.comb(dim, j) * math.comb(k - 1, j - 1) for j in range(1, min(k, dim) + 1)
    )


def rbf_gaussian_spectrum(
    dim: int, lengthscale: float, sigma: float, k_max: int
) -> Spectrum:
    """Closed-form spectrum of the rbf kernel under N(0, sigma^2 I) inputs.

    Distinct eigenvalues decay geometrically,

        eig_k = (1 / (2 A sigma^2))^(dim/2) * B^k,

    with A = 1/(4 sigma^2) + 1/lengthscale + c, B = 1/(A lengthscale) and
    c = sqrt(1/(4 sigma^2) + 2/lengthscale) / (2 sigma); eig_k carries
    multiplicity shell_multiplicity(dim, k).  Shells whose multiplicity
    exceeds MULTIPLICITY_CAP are truncated with a warning.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not 0 < lengthscale < math.inf or not 0 < sigma < math.inf:
        raise ValueError("lengthscale and sigma must be positive and finite")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    var = sigma * sigma
    c = math.sqrt(1.0 / (4.0 * var) + 2.0 / lengthscale) / (2.0 * sigma)
    a = 1.0 / (4.0 * var) + 1.0 / lengthscale + c
    b = 1.0 / (a * lengthscale)
    lead = (1.0 / (2.0 * a * var)) ** (dim / 2.0)
    entries = []
    for k in range(k_max + 1):
        mult = shell_multiplicity(dim, k)
        if mult > MULTIPLICITY_CAP:
            warnings.warn(
                f"multiplicity at shell {k} exceeds {MULTIPLICITY_CAP}; "
                f"truncating spectrum to {k} shells",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        entries.append((lead * b**k, mult))
    return Spectrum(tuple(entries))


def power_law_spectrum(beta: float, count: int) -> Spectrum:
    """Unit-multiplicity spectrum d_k = k^(-beta), k = 1..count, beta > 1."""
    if not beta > 1:
        raise ValueError(f"decay exponent must exceed 1, got {beta}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return Spectrum(tuple((float(k) ** -beta, 1) for k in range(1, count + 1)))
