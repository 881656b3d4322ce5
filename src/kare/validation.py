"""Named validation suites: exact identities, threshold bounds, and the
Monte Carlo agreement checks between closed-form risk predictions and
brute-force simulation.

Each suite returns a list of Check records; the CLI renders them as a
machine-readable report and the acceptance tests assert them one by one.
Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import numpy.random  # NumPy loads it lazily, at the first draw otherwise

from . import krr
from .estimators import (
    TrueFunction,
    bayesian_risk,
    kare,
    mean_predictor_coeffs,
    theoretical_risk,
    predictor_variance_component,
    varrho,
)
from .kernels import FAMILIES, KernelSpec
from .sct import power_law_spectrum, rbf_gaussian_spectrum, sct_from_gram, solve_sct, Spectrum
from .spectral import stieltjes
from .synthetic import (
    draw,
    empirical_train_error,
    exact_risk,
    mc_coeff_stats,
    mc_expected_risk,
    mc_operator_moments,
    mean_and_stderr,
    rbf_gaussian_gram_spectrum,
    sample_draws,
    sample_spectra,
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(name, bool(passed), detail)


def _agree(name: str, mc: float, stderr: float, predicted: float, rel: float,
           fmt: str = ".5f") -> Check:
    """A Monte Carlo mean within max(3 stderr, rel * predicted) of the prediction."""
    tol = max(3 * stderr, rel * predicted)
    return _check(name, abs(mc - predicted) <= tol,
                  f"mc {mc:{fmt}} vs {predicted:{fmt}} (tol {tol:.2e})")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# exact identities


def suite_identities(seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    # train error: direct residual norm vs closed form, 50 random fits
    worst = 0.0
    for i in range(50):
        family = FAMILIES[i % len(FAMILIES)]
        n = int(rng.integers(3, 26))
        dim = int(rng.integers(1, 7))
        X = rng.standard_normal((n, dim))
        y = rng.standard_normal(n)
        kern = KernelSpec(family, float(10 ** rng.uniform(-0.5, 1.0)))
        ridge = float(10 ** rng.uniform(-6, 0))
        p = krr.fit(kern, X, y, ridge)
        worst = max(worst, _rel(krr.train_error(p, y), krr.train_error_closed_form(p)))
    checks.append(_check(
        "train-error closed form vs direct (50 cases)",
        worst <= 1e-8, f"worst relative gap {worst:.3e}",
    ))

    # kare / varrho invariance under (G, ridge) -> (a G, a ridge)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 40))
        W = rng.standard_normal((n, n + 2))
        G = W @ W.T / (n + 2)
        y = rng.standard_normal(n)
        ridge = float(10 ** rng.uniform(-4, 0))
        base_kare = kare(y, G, ridge)
        base_varrho = varrho(y, G, ridge)
        for alpha in (1e-2, 1e2):
            worst = max(worst, _rel(kare(y, alpha * G, alpha * ridge), base_kare))
            worst = max(worst, _rel(varrho(y, alpha * G, alpha * ridge), base_varrho))
    checks.append(_check(
        "kare/varrho rescaling invariance",
        worst <= 1e-10, f"worst relative gap {worst:.3e}",
    ))

    # reconstruction operator equals M (M + ridge I)^{-1}, M = diag(d) O^T O / n
    spec = power_law_spectrum(2.0, 30)
    d = spec.expand()
    zero_f = TrueFunction(np.zeros(30), 0.0)
    ridge = 1e-2
    worst = 0.0
    for t in range(10):
        dr = draw(spec, zero_f, 40, (seed, 100 + t))
        n = dr.y.shape[0]
        [V] = krr.ridge_solve(dr.G, dr.O, (ridge,))
        A_direct = (d[:, None] / n) * (dr.O.T @ V)
        M = (d[:, None]) * (dr.O.T @ dr.O) / n
        A_small = np.linalg.solve((M + ridge * np.eye(30)).T, M.T).T
        worst = max(worst, float(np.max(np.abs(A_direct - A_small))))
    checks.append(_check(
        "operator identity A = M(M + ridge I)^{-1}",
        worst <= 1e-8, f"worst entrywise gap {worst:.3e}",
    ))
    return checks


# ---------------------------------------------------------------------------
# threshold bounds


def suite_prop3(seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    violations = []
    slack = 1 + 1e-12
    # One solve per spectrum: the (n, ridge) grid, the same grid at 2n,
    # and the ridges of the theta' monotonicity check at n = 100.
    grid = [(n, ridge) for n in (10, 100, 1000) for ridge in (1e-4, 1e-2, 1.0)]
    prime_ridges = np.logspace(-4, 0, 5).tolist()
    ns = np.array([n for n, _ in grid] + [2 * n for n, _ in grid] + [100] * len(prime_ridges))
    ridges = np.array([r for _, r in grid] * 2 + prime_ridges)
    pairs = len(grid)
    for i in range(100):
        size = int(rng.integers(1, 51))
        d = rng.uniform(1e-6, 10.0, size)
        m = rng.integers(1, 6, size)
        spec = Spectrum(tuple(zip(d.tolist(), m.tolist())))
        res = solve_sct(spec, ns, ridges)
        thetas, primes = res.theta.tolist(), res.theta_prime.tolist()
        for j, (n, ridge) in enumerate(grid):
            theta, theta_prime = thetas[j], primes[j]
            if not ridge < theta:
                violations.append(f"case {i}: theta <= ridge")
            if not theta <= (ridge + spec.trace / n) * slack:
                violations.append(f"case {i}: theta above upper bound")
            if not 1.0 <= theta_prime * slack:
                violations.append(f"case {i}: theta' < 1")
            if not theta_prime <= (theta / ridge) * slack:
                violations.append(f"case {i}: theta' > theta/ridge")
            if not thetas[pairs + j] < theta:
                violations.append(f"case {i}: theta not decreasing in n")
        ridge_primes = primes[2 * pairs:]
        for a, b in zip(ridge_primes, ridge_primes[1:]):
            if b > a * (1 + 1e-10):
                violations.append(f"case {i}: theta' not decreasing in ridge")
    return [_check(
        "threshold bounds over 100 random spectra x 3 n x 3 ridges",
        not violations,
        f"{len(violations)} violations" + (f"; first: {violations[0]}" if violations else ""),
    )]


def suite_prop4(seed: int) -> list[Check]:
    del seed  # deterministic
    checks = []
    for beta in (1.5, 2.0, 3.0):
        scaled, primes = [], []
        for n in (50, 100, 200, 400):
            res = solve_sct(power_law_spectrum(beta, 10 * n), n, 1e-12)
            scaled.append(res.theta * n**beta)
            primes.append(res.theta_prime)
        ratio = max(scaled) / min(scaled)
        checks.append(_check(
            f"power-law beta={beta}: theta * n^beta ratio band",
            ratio <= 4.0, f"max/min = {ratio:.3f}",
        ))
        checks.append(_check(
            f"power-law beta={beta}: theta' bounded",
            max(primes) <= 50.0, f"max theta' = {max(primes):.3f}",
        ))
    return checks


def suite_prop5(seed: int) -> list[Check]:
    """Gram-based threshold estimate vs the solved one, rbf kernel on
    Gaussian inputs with dim = lengthscale = 20, truncated at 10 shells."""
    dim, ell, sigma = 20, 20.0, 1.0
    spec = rbf_gaussian_spectrum(dim, ell, sigma, 10)
    ridges = (1e-3, 1e-2, 1e-1)
    trials = 20
    sampler = partial(rbf_gaussian_gram_spectrum, dim, ell, sigma)
    medians = {}
    gaps = {}
    for n in (100, 400, 1000, 1600):
        exact = dict(zip(ridges, solve_sct(spec, n, np.array(ridges)).theta.tolist()))
        spectra = sample_spectra(sampler, n, trials, seed)
        medians[n] = {r: float(np.median([abs(exact_r - sct_from_gram(gs, r).theta) / exact_r
                                          for gs in spectra]))
                      for r, exact_r in exact.items()}
        gaps[n] = float(np.median([abs(1.0 / exact[1e-2] - stieltjes(gs, 1e-2))
                                   for gs in spectra]))
    checks = []
    for r in ridges:
        checks.append(_check(
            f"median estimate error <= 5% at n=1000, ridge={r:g}",
            medians[1000][r] <= 0.05, f"median {medians[1000][r]:.4f}",
        ))
        checks.append(_check(
            f"median error shrinks from n=100 to n=1600 at ridge={r:g}",
            medians[1600][r] < medians[100][r],
            f"{medians[100][r]:.4f} -> {medians[1600][r]:.4f}",
        ))
    checks.append(_check(
        "median |1/theta - m| decreases through n = 100, 400, 1600 at ridge 0.01",
        gaps[1600] < gaps[400] < gaps[100],
        f"{gaps[100]:.2e} -> {gaps[400]:.2e} -> {gaps[1600]:.2e}",
    ))
    return checks


# ---------------------------------------------------------------------------
# Monte Carlo agreement

# The model of suites thm1, thm2, thm6 and kare: population eigenvalues
# d_k = k^-2 on 40 modes, target coefficients b_k = 1/k and noise 0.1.
_SPEC = power_law_spectrum(2.0, 40)
_F = TrueFunction(1.0 / np.arange(1, 41), 0.1)


def suite_thm1(seed: int) -> list[Check]:
    n, ridge, trials = 500, 1e-2, 200
    idx = (0, 1, 2, 3, 4)
    om = mc_operator_moments(_SPEC, n, ridge, trials, seed, idx)
    predicted = mean_predictor_coeffs(_SPEC, TrueFunction(np.ones(40)), n, ridge)
    checks = []
    for j, k in enumerate(idx):
        checks.append(_agree(f"mean diagonal entry, mode {k}", om.diag_mean[j],
                             om.diag_mean_stderr[j], predicted[k], 0.05))
    worst_ratio = max(abs(m) / s for m, s in zip(om.offdiag_mean, om.offdiag_stderr))
    checks.append(_check(
        "off-diagonal means consistent with zero",
        worst_ratio <= 4.0, f"worst |mean|/stderr = {worst_ratio:.2f}",
    ))
    return checks


def suite_thm2(seed: int) -> list[Check]:
    n, ridge, trials = 500, 1e-2, 200
    idx = (0, 1, 2)
    cs = mc_coeff_stats(_SPEC, _F, n, ridge, trials, seed, idx)
    return [
        _agree(f"coefficient variance, mode {k}", cs.var[j], cs.var_stderr[j],
               predictor_variance_component(_SPEC, _F, n, ridge, k), 0.15, ".3e")
        for j, k in enumerate(idx)
    ]


def suite_thm6(seed: int) -> list[Check]:
    n, ridge, trials = 500, 1e-2, 200
    mean, stderr = mc_expected_risk(_SPEC, _F, n, ridge, trials, seed)
    checks = [_agree("expected risk vs closed form", mean, stderr,
                     theoretical_risk(_SPEC, _F, n, ridge), 0.10)]
    risks, trains = np.array(sample_draws(
        _SPEC, _F, n, trials, seed + 1,
        lambda dr: (exact_risk(dr, _F, ridge), empirical_train_error(dr, ridge)))).T
    ratio = float(risks.mean() / trains.mean())
    theta = solve_sct(_SPEC, n, ridge).theta
    target = theta**2 / ridge**2
    checks.append(_check(
        "risk / train-error ratio vs theta^2/ridge^2",
        _rel(ratio, target) <= 0.10,
        f"mc {ratio:.4f} vs {target:.4f}",
    ))
    return checks


def suite_kare(seed: int) -> list[Check]:
    ridges = (1e-3, 1e-2, 1e-1)
    grid = np.logspace(-4, 0, 12)

    def scores_and_risks(f, n, trials, draw_seed, at):
        """Per-trial kare and exact risk at the ridges at, each (trials, len(at))."""
        def read(dr):
            return [dr.scores.kare(r) for r in at], [exact_risk(dr, f, r) for r in at]
        return np.array(sample_draws(_SPEC, f, n, trials, draw_seed, read)).transpose(1, 0, 2)

    trials = 50
    scores, risks = scores_and_risks(_F, 1000, trials, seed, (*ridges, *grid))
    within = np.sum(np.abs(scores - risks) / risks <= 0.20, axis=0)
    checks = []
    for r, count in zip(ridges, within):
        checks.append(_check(
            f"per-trial score within 20% of risk for >=90% of trials, ridge={r:g}",
            count >= int(np.ceil(0.9 * trials)),
            f"{count}/{trials} trials within 20%",
        ))
    i_kare = int(np.argmin(scores[:, len(ridges):].mean(axis=0)))
    i_risk = int(np.argmin(risks[:, len(ridges):].mean(axis=0)))
    checks.append(_check(
        "grid argmin of mean score matches argmin of mean risk",
        abs(i_kare - i_risk) <= 1,
        f"indices {i_kare} vs {i_risk}",
    ))

    # higher-noise variant where the minimizing ridge is interior
    scores, risks = scores_and_risks(TrueFunction(_F.coeffs, 1.0), 200, 50, seed + 1, grid)
    i_kare = int(np.argmin(scores.mean(axis=0)))
    i_risk = int(np.argmin(risks.mean(axis=0)))
    checks.append(_check(
        "interior-minimum argmin agreement (noise 1.0, n=200)",
        abs(i_kare - i_risk) <= 1 and 0 < i_risk < grid.size - 1,
        f"indices {i_kare} vs {i_risk}",
    ))
    return checks


def suite_bayes(seed: int) -> list[Check]:
    spec_k = power_law_spectrum(2.0, 20)
    checks = []

    # collapse: spec_sigma = spec_k and ridge = noise^2/n gives n * theta
    noise, n = 0.3, 100
    ridge = noise**2 / n
    value = bayesian_risk(spec_k, spec_k, noise, n, ridge)
    target = n * solve_sct(spec_k, n, ridge).theta
    checks.append(_check(
        "optimal-configuration collapse to n*theta(noise^2/n)",
        _rel(value, target) <= 1e-12, f"{value:.12f} vs {target:.12f}",
    ))

    # generic case against Monte Carlo over random targets b_k ~ N(0, s_k)
    spec_sigma = power_law_spectrum(1.5, 20)
    s = np.array([v for v, _ in spec_sigma.entries])
    noise, n, ridge, trials = 0.5, 400, 1e-2, 150
    predicted = bayesian_risk(spec_k, spec_sigma, noise, n, ridge)
    risks = np.empty(trials)
    for t in range(trials):
        b = np.random.default_rng((seed, t, 0)).standard_normal(20) * np.sqrt(s)
        f = TrueFunction(b, noise)
        dr = draw(spec_k, f, n, (seed, t, 1))
        risks[t] = exact_risk(dr, f, ridge)
    mean, stderr = mean_and_stderr(risks)
    checks.append(_agree("generic case vs Monte Carlo over random targets",
                         float(mean), float(stderr), predicted, 0.10))
    return checks


SUITES = {
    "identities": suite_identities,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "thm6": suite_thm6,
    "kare": suite_kare,
    "bayes": suite_bayes,
}


def run_suite(name: str, seed: int) -> list[Check]:
    """Run one named suite (or 'all'); unknown names raise KeyError."""
    if name == "all":
        checks = []
        for suite_name in SUITES:
            checks.extend(run_suite(suite_name, seed))
        return checks
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
