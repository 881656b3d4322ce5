"""Every whole number the library takes passes spectral.check_count, and
every real number spectral.check_real."""

import pickle
import re

import numpy as np
import pytest

from kare.cli import parse_grid
from kare.data import Dataset, split_train_test, subsample
from kare.estimators import (
    TrueFunction,
    bayesian_risk,
    checked_modes,
    cross_validation_risk,
    cross_validation_risks,
    predictor_variance_component,
)
from kare.kernels import KernelSpec, gram_matrix
from kare.sct import Spectrum, power_law_spectrum, rbf_gaussian_spectrum, shell_multiplicity
from kare.spectral import check_count, check_real
from kare.synthetic import (
    draw,
    mc_coeff_stats,
    mc_expected_risk,
    mc_operator_moments,
    rbf_gaussian_gram_spectrum,
    sample_draws,
    sample_spectra,
)

_SPEC = power_law_spectrum(2.0, 4)
_F = TrueFunction(np.array([1.0, 0.5, 0.25, 0.125]), 0.1)
_X = np.random.default_rng(0).standard_normal((6, 2))
_Y = np.sin(_X[:, 0])
_KERN = KernelSpec("rbf", 2.0)
_DS = Dataset(_X[[0, 1, 2, 3, 4, 5, 0, 1, 2, 3]], np.arange(10.0), {})

# entry -> (call of one whole number, the quantity its error names,
#           a whole number out of range, a whole number in range)
COUNTS = {
    "Spectrum multiplicity": (
        lambda m: Spectrum(((1.0, m), (0.5, 1))).entries, "multiplicity", 0, 2),
    "power_law_spectrum count": (
        lambda count: power_law_spectrum(2.0, count).entries, "count", 0, 3),
    "rbf_gaussian_spectrum dim": (
        lambda dim: rbf_gaussian_spectrum(dim, 1.0, 1.0, 2).entries, "dimension", 0, 2),
    "rbf_gaussian_spectrum k_max": (
        lambda k_max: rbf_gaussian_spectrum(2, 1.0, 1.0, k_max).entries, "k_max", -1, 2),
    "shell_multiplicity dim": (lambda dim: shell_multiplicity(dim, 2), "dimension", -1, 3),
    "shell_multiplicity k": (lambda k: shell_multiplicity(3, k), "degree", -1, 2),
    "cross_validation_risks folds": (
        lambda folds: cross_validation_risks(gram_matrix(_KERN, _X), _Y, (0.1,), folds),
        "folds", 7, 3),
    "cross_validation_risk folds": (
        lambda folds: cross_validation_risk(_KERN, _X, _Y, 0.1, folds), "folds", 1, 2),
    "checked_modes indices": (
        lambda k: checked_modes(_SPEC, _F, (0, k))[1], "mode index", 4, 3),
    "predictor_variance_component k": (
        lambda k: predictor_variance_component(_SPEC, _F, 10, 0.1, k), "mode index", 4, 1),
    "mc_operator_moments k_indices": (
        lambda k: mc_operator_moments(_SPEC, 8, 0.1, 2, 0, (0, k)), "mode index", -1, 1),
    "mc_coeff_stats k_indices": (
        lambda k: mc_coeff_stats(_SPEC, _F, 8, 0.1, 2, 0, (k,)), "mode index", 4, 1),
    "draw n": (lambda n: draw(_SPEC, _F, n, 0), "sample count", 0, 5),
    "mc_expected_risk trials": (
        lambda trials: mc_expected_risk(_SPEC, _F, 8, 0.1, trials, 0), "trials", 1, 3),
    "sample_draws trials": (
        lambda trials: sample_draws(_SPEC, _F, 8, trials, 0, lambda dr: dr.y), "trials", 1, 2),
    "sample_spectra trials": (
        lambda trials: sample_spectra(lambda n, seed: seed, 4, trials, 0), "trials", 0, 2),
    "subsample n": (lambda n: subsample(_DS, n, 0), "sample size", 11, 4),
    "split_train_test n_train": (
        lambda n: split_train_test(_DS, n, 2, 0), "training size", 11, 4),
    "split_train_test n_test": (lambda n: split_train_test(_DS, 4, n, 0), "test size", 7, 3),
    "rbf_gaussian_gram_spectrum dim": (
        lambda dim: rbf_gaussian_gram_spectrum(dim, 2.0, 1.0, 4, 0).eigenvalues,
        "dimension", 0, 2),
    "rbf_gaussian_gram_spectrum n": (
        lambda n: rbf_gaussian_gram_spectrum(2, 2.0, 1.0, n, 0).eigenvalues,
        "sample count", 0, 3),
    "parse_grid count": (lambda count: parse_grid(f"1:8:{count}:log2"), "count", 0, 4),
}


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_every_count_is_a_checked_whole_number(entry):
    call, what, outside, inside = COUNTS[entry]
    for bad in (2.5, np.nan, outside):
        # parse_grid prefixes the grid's text, as "grid '1:8:2.5:log2': ".
        with pytest.raises(ValueError,
                           match=f"(^|: ){what} must be a whole number [^:]*, got {bad}$"):
            call(bad)
    # NumPy integers and integral floats give the int's result, bit for bit.
    expected = pickle.dumps(call(inside))
    for same in (np.int64(inside), float(inside), np.float64(inside)):
        assert pickle.dumps(call(same)) == expected


# entry -> (call of one real number, the quantity its error names, its rule,
#           the bound it excludes or a value below the bound it includes,
#           a whole number in range).  The ridge has its own table,
#           test_spectral.RIDGE_ENTRY_POINTS.
REALS = {
    "KernelSpec lengthscale": (
        lambda length: gram_matrix(KernelSpec("rbf", length), _X), "lengthscale",
        "positive and finite", 0.0, 2),
    "Spectrum eigenvalue": (
        lambda d: Spectrum(((d, 2), (0.5, 1))).entries, "eigenvalues",
        "positive and finite", 0.0, 2),
    "rbf_gaussian_spectrum lengthscale": (
        lambda length: rbf_gaussian_spectrum(2, length, 1.0, 2).entries, "lengthscale",
        "positive and finite", 0.0, 3),
    "rbf_gaussian_spectrum sigma": (
        lambda sigma: rbf_gaussian_spectrum(2, 1.0, sigma, 2).entries, "sigma",
        "positive and finite", 0.0, 2),
    "power_law_spectrum beta": (
        lambda beta: power_law_spectrum(beta, 3).entries, "decay exponent",
        "finite and > 1", 1.0, 2),
    "TrueFunction noise": (
        lambda noise: draw(_SPEC, TrueFunction(_F.coeffs, noise), 5, 0).y, "noise level",
        "finite and >= 0", -0.5, 1),
    "bayesian_risk noise": (
        lambda noise: bayesian_risk(_SPEC, _SPEC, noise, 10, 0.1), "noise level",
        "finite and >= 0", -0.5, 1),
    "rbf_gaussian_gram_spectrum sigma": (
        lambda sigma: rbf_gaussian_gram_spectrum(2, 2.0, sigma, 4, 0).eigenvalues, "sigma",
        "positive and finite", 0.0, 1),
    "parse_grid start": (lambda start: parse_grid(f"{start}:8:4:log2"), "start",
                         "positive and finite", 0.0, 1),
    "parse_grid stop": (lambda stop: parse_grid(f"1:{stop}:4:log2"), "stop",
                        "positive and finite", 0.0, 8),
}


@pytest.mark.parametrize("entry", sorted(REALS))
def test_every_real_is_checked_and_named(entry):
    call, what, rule, outside, inside = REALS[entry]
    for bad in (np.nan, np.inf, outside):
        # parse_grid prefixes the grid's text, as "grid '0.0:8:4:log2': ".
        message = f"(^|: ){re.escape(f'{what} must be {rule}, got {bad}')}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    # An int and a NumPy float give the float's result, bit for bit.
    expected = pickle.dumps(call(float(inside)))
    for same in (int(inside), np.float64(inside)):
        assert pickle.dumps(call(same)) == expected


def test_check_real_returns_a_float_in_range():
    assert check_real("0.5", "x") == 0.5
    assert type(check_real(np.float32(2.0), "x", low=1)) is float
    assert check_real(0, "x", strict=False) == 0.0
    for bad, low, strict, message in (
            (0.0, 0.0, True, "x must be positive and finite, got 0.0"),
            (-np.inf, 0.0, True, "x must be positive and finite, got -inf"),
            (-1e-300, 0.0, False, "x must be finite and >= 0, got -1e-300"),
            (np.inf, 0.0, False, "x must be finite and >= 0, got inf"),
            (1, 1.0, True, "x must be finite and > 1, got 1.0"),
            (np.nan, 1.0, False, "x must be finite and >= 1, got nan"),
            (0.5, 0.5, True, "x must be finite and > 0.5, got 0.5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_real(bad, "x", low, strict)


def test_check_count_returns_an_int_in_range():
    assert check_count(np.int64(3), "n", 1) == 3
    assert type(check_count(np.float32(3.0), "n", 1)) is int
    assert check_count(True, "n", 0, 1) == 1
    for bad, message in ((2.5, "folds must be a whole number between 2 and 40, got 2.5"),
                         (41, "folds must be a whole number between 2 and 40, got 41"),
                         (np.inf, "folds must be a whole number between 2 and 40, got inf"),
                         ("3", "folds must be a whole number between 2 and 40, got 3"),
                         (None, "folds must be a whole number between 2 and 40, got None")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_count(bad, "folds", 2, 40)
    with pytest.raises(ValueError, match="^trials must be a whole number >= 2, got 1$"):
        check_count(1, "trials", 2)
