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

``solve_sct(spec, n, ridge)`` broadcasts: n and ridge may be scalars
(the result holds floats) or arrays that broadcast together (the result
holds arrays of the broadcast shape).  All pairs are iterated at once,
each with the same float operations as a solve of that pair alone, so
one call over a grid gives bit-identical values to a loop of scalar
calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (GramSpectrum, check_count, check_real, check_ridge, representable,
                       stieltjes, stieltjes_derivative)

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
        entries = tuple(self.entries)
        checked = _checked_in_bulk(entries)
        if checked is None:  # a bad entry, or one the bulk check does not take
            entries = tuple((check_real(d, "eigenvalues"), check_count(m, "multiplicity", 1))
                            for d, m in entries)
            d = np.array([d for d, _ in entries], dtype=float)
            m = np.array([float(m) for _, m in entries], dtype=float)
        else:
            d, m, entries = checked
        object.__setattr__(self, "entries", entries)
        d.flags.writeable = m.flags.writeable = False
        object.__setattr__(self, "_arrays", (d, m))

    @cached_property
    def trace(self) -> float:
        """sum_k mult_k * d_k, the value ``solve_sct`` brackets with."""
        d, m = self._arrays
        return float(m @ d)

    @property
    def expanded_size(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> np.ndarray:
        """Eigenvalues repeated per multiplicity, one slot per mode,
        read-only, built once on the first call: most spectra are only
        solved, from ``arrays()``, and many have too many modes to expand."""
        return self._expanded

    @cached_property
    def _expanded(self) -> np.ndarray:
        d = np.repeat(self._arrays[0], [m for _, m in self.entries])
        d.flags.writeable = False
        return d

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and float multiplicities, read-only, built once."""
        return self._arrays


def _checked_in_bulk(entries: tuple) -> tuple[np.ndarray, np.ndarray, tuple] | None:
    """(d, float multiplicities, entries) when every eigenvalue is a
    positive finite float and every multiplicity an int >= 1, else None:
    the per-entry checks then take the entries, accept other numbers and
    name the first bad one.  The checks are builtins, and the arrays are
    built from lists of floats as before: a NumPy comparison or reduction
    here ran NumPy code that no sweep runs, up to 0.3 MB of resident memory
    per process for ``validation``'s module-level Spectrum."""
    try:
        values, counts = [d for d, _ in entries], [m for _, m in entries]
    except (TypeError, ValueError):
        return None
    if not (values and set(map(type, values)) == {float} and set(map(type, counts)) == {int}
            and all(map(math.isfinite, values)) and min(values) > 0 and min(counts) >= 1):
        return None
    try:
        multiplicities = np.array(list(map(float, counts)))
    except OverflowError:  # a count beyond float64; the per-entry route raises it
        return None
    if set(map(type, entries)) != {tuple}:  # pairs of another type are rebuilt as tuples
        entries = tuple(zip(values, counts))
    return np.array(values), multiplicities, entries


@dataclass(frozen=True)
class SctResult:
    """theta and theta_prime: floats from scalar inputs, else arrays of
    the broadcast shape of n and ridge."""

    theta: float | np.ndarray
    theta_prime: float | np.ndarray


def solve_sct(spec: Spectrum, n, ridge) -> SctResult:
    """Solve the SCT fixed point and its closed-form ridge derivative.

    n and ridge broadcast together (see the module docstring); every
    entry is checked: ridge positive and finite, n >= 1.  Per pair:
    bisection on the guaranteed bracket [ridge, ridge + trace/n] with a
    Newton step whenever it stays inside the bracket; the residual of the
    returned root satisfies |g(theta)| <= 1e-12 * (ridge + trace/n).  A
    pair that does not converge within 200 iterations raises
    ArithmeticError.
    """
    ridge, n = np.asarray(ridge, dtype=float), np.asarray(n, dtype=float)
    scalar = ridge.ndim == n.ndim == 0
    bad = ridge[~((ridge > 0) & (ridge < math.inf))]
    if bad.size:
        check_ridge(bad[0])  # raises, naming the first bad ridge
    bad = n[~(n >= 1)]
    if bad.size:
        raise ValueError(f"sample count must be >= 1, got {bad[0]:g}")
    shape = np.broadcast_shapes(n.shape, ridge.shape)
    ridge = np.broadcast_to(ridge, shape).ravel()
    n = np.broadcast_to(n, shape).ravel()
    if spec.trace == 0.0 or not ridge.size:
        theta, theta_prime = ridge.copy(), np.ones_like(ridge)
    else:
        theta, theta_prime = _newton_bisection(*spec.arrays(), spec.trace, n, ridge)
    if scalar:
        return SctResult(float(theta[0]), float(theta_prime[0]))
    return SctResult(theta.reshape(shape), theta_prime.reshape(shape))


def _newton_bisection(d, m, trace, n, ridge):
    """theta and 1/g'(theta) for each flat (n, ridge) pair; a pair leaves
    the active set once |g(t)| <= tol."""
    md = m * d
    lo, hi = ridge, ridge + trace / n
    tol = _RESIDUAL_SCALE * hi
    t = hi
    theta, theta_prime = np.empty_like(t), np.empty_like(t)
    active = np.arange(t.size)
    for _ in range(_MAX_ITERATIONS):
        q = d + t[:, None]
        # g(t) = t - ridge - (t/n) sum m d/(d+t);
        # g'(t) = 1 - (1/n) sum m d^2/(d+t)^2, positive near the root.
        g = t - ridge - (t / n) * np.add.reduce(md / q, axis=1)
        sl = 1.0 - np.add.reduce(m * (d / q) ** 2, axis=1) / n
        done = np.abs(g) <= tol
        if done.any():
            theta[active[done]] = t[done]
            theta_prime[active[done]] = 1.0 / sl[done]
            if done.all():
                return theta, theta_prime
            keep = ~done
            active, t, g, sl, lo, hi, tol, n, ridge = (
                a[keep] for a in (active, t, g, sl, lo, hi, tol, n, ridge))
        above = g > 0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
        # Newton where the slope is positive and the step lands strictly
        # inside the bracket, else bisection; a zero slope's inf or nan
        # step is never taken.
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - g / sl
        t = np.where((sl > 0) & (lo < step) & (step < hi), step, 0.5 * (lo + hi))
    raise ArithmeticError(
        f"SCT solve did not converge within {_MAX_ITERATIONS} iterations "
        f"(ridge={ridge[0]}, n={n[0]:.17g})"
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
    dim, k = check_count(dim, "dimension", 1), check_count(k, "degree", 0)
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
    dim, k_max = check_count(dim, "dimension", 1), check_count(k_max, "k_max", 0)
    lengthscale, sigma = check_real(lengthscale, "lengthscale"), check_real(sigma, "sigma")
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
    beta, count = check_real(beta, "decay exponent", low=1), check_count(count, "count", 1)
    return Spectrum(tuple((float(k) ** -beta, 1) for k in range(1, count + 1)))
