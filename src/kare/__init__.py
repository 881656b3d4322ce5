"""Kernel ridge regression risk prediction from training data: the signal
capture threshold, its Gram-matrix estimate and the kare score, Monte Carlo
oracles that check the closed forms, and the ``kare`` command line.
"""

import numpy.random  # NumPy otherwise loads it at the first draw

from .kernels import FAMILIES, KernelSpec, cross_gram, gram_matrix, kernel_eval
from .spectral import GramSpectrum, decompose, stieltjes, stieltjes_derivative
from .sct import (
    SctResult,
    Spectrum,
    power_law_spectrum,
    rbf_gaussian_spectrum,
    sct_from_gram,
    shell_multiplicity,
    solve_sct,
)
from .krr import (
    Predictor,
    fit,
    predict,
    test_risk,
    train_error,
    train_error_closed_form,
)
from .estimators import (
    RidgeScores,
    TrueFunction,
    bayesian_risk,
    classical_alignment,
    cross_validation_risk,
    kare,
    log_marginal_likelihood,
    mean_predictor_coeffs,
    predictor_variance_component,
    theoretical_risk,
    theoretical_train_error,
    varrho,
)
from .synthetic import (
    ObservationDraw,
    draw,
    exact_risk,
    empirical_train_error,
    mc_coeff_stats,
    mc_expected_risk,
    mc_operator_moments,
)
from .data import (
    Dataset,
    FormatError,
    ParseError,
    load_csv,
    load_mnist_idx,
    preprocess_maxabs,
    preprocess_mnist,
    save_csv,
    split_train_test,
    subsample,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES", "KernelSpec", "kernel_eval", "gram_matrix", "cross_gram",
    "GramSpectrum", "decompose", "stieltjes", "stieltjes_derivative",
    "Spectrum", "SctResult", "solve_sct", "sct_from_gram",
    "rbf_gaussian_spectrum", "power_law_spectrum", "shell_multiplicity",
    "Predictor", "fit", "predict", "train_error", "train_error_closed_form",
    "test_risk",
    "RidgeScores", "TrueFunction", "kare", "varrho", "theoretical_risk",
    "theoretical_train_error", "mean_predictor_coeffs",
    "predictor_variance_component", "bayesian_risk", "cross_validation_risk",
    "log_marginal_likelihood", "classical_alignment",
    "ObservationDraw", "draw", "exact_risk", "empirical_train_error",
    "mc_expected_risk", "mc_operator_moments", "mc_coeff_stats",
    "Dataset", "ParseError", "FormatError", "load_csv", "save_csv",
    "load_mnist_idx", "preprocess_mnist", "preprocess_maxabs", "subsample",
    "split_train_test",
    "__version__",
]
