import kare


def test_public_names_are_fixed():
    # The public names are a fixed contract: a refactor keeps every one.
    assert sorted(kare.__all__) == [
        "Dataset", "FAMILIES", "FormatError", "GramSpectrum", "KernelSpec",
        "ObservationDraw", "ParseError", "Predictor", "RidgeScores", "SctResult",
        "Spectrum", "TrueFunction", "__version__", "bayesian_risk",
        "classical_alignment", "cross_gram", "cross_validation_risk", "decompose",
        "draw", "empirical_train_error", "exact_risk", "fit", "gram_matrix", "kare",
        "kernel_eval", "load_csv", "load_mnist_idx", "log_marginal_likelihood",
        "mc_coeff_stats", "mc_expected_risk", "mc_operator_moments",
        "mean_predictor_coeffs", "power_law_spectrum", "predict",
        "predictor_variance_component", "preprocess_maxabs", "preprocess_mnist",
        "rbf_gaussian_spectrum", "save_csv", "sct_from_gram", "shell_multiplicity",
        "solve_sct", "split_train_test", "stieltjes", "stieltjes_derivative",
        "subsample", "test_risk", "theoretical_risk", "theoretical_train_error",
        "train_error", "train_error_closed_form", "varrho",
    ]
    assert all(hasattr(kare, name) for name in kare.__all__)
