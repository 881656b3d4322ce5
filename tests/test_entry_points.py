"""Every array-taking entry point of ``kare.__all__`` against NaN, inf, a wrong
length and a wrong number of dimensions: each raises a ValueError (or a
subclass) whose message names the argument."""

import re

import numpy as np
import pytest

import kare
from kare import (
    Dataset, GramSpectrum, KernelSpec, ObservationDraw, Predictor, RidgeScores, Spectrum,
    TrueFunction, classical_alignment, cross_gram, cross_validation_risk, decompose, draw, fit,
    gram_matrix, kernel_eval, log_marginal_likelihood, power_law_spectrum, predict, solve_sct,
    theoretical_risk, train_error, varrho,
)

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((6, 2))
_Y = _RNG.standard_normal(6)
_K = KernelSpec("rbf", 2.0)
_G = gram_matrix(_K, _X)
_P = fit(_K, _X, _Y, 0.1)
_SPEC = power_law_spectrum(2.0, 4)
_F = TrueFunction(np.ones(4), 0.1)
_DRAW = draw(_SPEC, _F, 6, 0)


def _rows(v):
    return np.asarray(v)[:-1]


def _columns(v):
    return np.asarray(v)[:, :-1]


def _deeper(v):
    return np.asarray(v)[..., None]


def _label_rows(name, score):
    return {
        f"{name} y": (lambda v: score(v, _G), _Y, "label", _rows, _deeper),
        f"{name} G": (lambda v: score(_Y, v), _G, "matrix", _rows, _deeper),
    }


# entry point and argument: (call with the argument's value, a valid value,
# the pattern its messages name it by, its wrong length, its wrong ndim).
# A wrong length of None has no meaning for that argument alone:
# - any number of points, eigenvalues or coefficients is valid, and a
#   TrueFunction's length is checked by the routines that read it against a
#   spectrum;
# - the rows of Predictor.X_train, ObservationDraw.O and Dataset.X are
#   checked through the dual's, y's and d's lengths, which name those.
# A wrong ndim of None: n and ridge of solve_sct broadcast at any ndim, and
# theoretical_risk's n and Predictor's ridge are scalars.
# n = inf (the n -> infinity limit theta = ridge, theta' = 1) is rejected:
# "sample count must be finite and >= 1", since bayesian_risk would give
# inf - inf = NaN there.
_ENTRIES = {
    "kernel_eval x": (lambda v: kernel_eval(_K, v, _X[0]), _X[1], "point", _rows, _deeper),
    "kernel_eval x2": (lambda v: kernel_eval(_K, _X[0], v), _X[1], "point", _rows, _deeper),
    "gram_matrix X": (lambda v: gram_matrix(_K, v), _X, "point", None, _deeper),
    "cross_gram X_test": (lambda v: cross_gram(_K, v, _X), _X, "point", _columns, _deeper),
    "cross_gram X_train": (lambda v: cross_gram(_K, _X, v), _X, "point", _columns, _deeper),
    "GramSpectrum eigenvalues": (GramSpectrum, np.linspace(1.0, 2.0, 6), "eigenvalue", None,
                                 _deeper),
    "decompose G": (decompose, _G, "matrix", _rows, _deeper),
    "Spectrum entries": (Spectrum, np.array([[1.0, 1.0], [0.5, 2.0]]), "eigenvalues|entry",
                         _columns, np.ravel),
    "solve_sct n": (lambda v: solve_sct(_SPEC, v, np.full(3, 0.1)), np.array([10.0, 20.0, 30.0]),
                    "sample count", _rows, None),
    "solve_sct ridge": (lambda v: solve_sct(_SPEC, np.full(3, 10.0), v), np.full(3, 0.1),
                        "ridge", _rows, None),
    "theoretical_risk n": (lambda v: theoretical_risk(_SPEC, _F, v, 0.1), np.array(10.0),
                           "sample count", None, None),
    "Predictor X_train": (lambda v: Predictor(_K, v, 0.1, _P.dual), _X, "X_train", None,
                          _deeper),
    "Predictor dual": (lambda v: Predictor(_K, _X, 0.1, v), _P.dual, "dual", _rows, _deeper),
    "Predictor ridge": (lambda v: Predictor(_K, _X, v, _P.dual), np.array(0.1), "ridge", None,
                        None),
    "fit X": (lambda v: fit(_K, v, _Y, 0.1), _X, "point", _rows, _deeper),
    "fit y": (lambda v: fit(_K, _X, v, 0.1), _Y, "label", _rows, _deeper),
    "predict X_test": (lambda v: predict(_P, v), _X, "point", _columns, _deeper),
    "train_error y": (lambda v: train_error(_P, v), _Y, "label", _rows, _deeper),
    "test_risk X_test": (lambda v: kare.test_risk(_P, v, _Y), _X, "point", _rows, _deeper),
    "test_risk y_test": (lambda v: kare.test_risk(_P, _X, v), _Y, "label", _rows, _deeper),
    "RidgeScores G": (lambda v: RidgeScores(v, _Y), _G, "matrix", _rows, _deeper),
    "RidgeScores y": (lambda v: RidgeScores(_G, v), _Y, "label", _rows, _deeper),
    **_label_rows("kare", lambda y, G: kare.kare(y, G, 0.1)),
    **_label_rows("varrho", lambda y, G: varrho(y, G, 0.1)),
    **_label_rows("log_marginal_likelihood", lambda y, G: log_marginal_likelihood(y, G, 0.1)),
    **_label_rows("classical_alignment", classical_alignment),
    "cross_validation_risk X": (lambda v: cross_validation_risk(_K, v, _Y, 0.1, 2), _X,
                                "point|label", _rows, _deeper),
    "cross_validation_risk y": (lambda v: cross_validation_risk(_K, _X, v, 0.1, 2), _Y,
                                "label", _rows, _deeper),
    "TrueFunction coeffs": (TrueFunction, np.ones(4), "coefficient", None, _deeper),
    "ObservationDraw O": (lambda v: ObservationDraw(v, _DRAW.d, _DRAW.y), _DRAW.O, r"\bO\b",
                          None, _deeper),
    "ObservationDraw d": (lambda v: ObservationDraw(_DRAW.O, v, _DRAW.y), _DRAW.d, r"\bd\b",
                          _rows, _deeper),
    "ObservationDraw y": (lambda v: ObservationDraw(_DRAW.O, _DRAW.d, v), _DRAW.y, r"\by\b",
                          _rows, _deeper),
    "Dataset X": (lambda v: Dataset(v, _Y), _X, r"\bX\b", None, _deeper),
    "Dataset y": (lambda v: Dataset(_X, v), _Y, r"\by\b", _rows, _deeper),
}

# The public names that take no array of their own: kernel specs, spectra,
# targets, draws, predictors and datasets arrive built and checked, and counts
# and reals pass check_count and check_real.
_NO_ARRAY = {
    "FAMILIES", "KernelSpec", "SctResult", "sct_from_gram", "stieltjes", "stieltjes_derivative",
    "rbf_gaussian_spectrum", "power_law_spectrum", "shell_multiplicity",
    "train_error_closed_form", "theoretical_train_error", "mean_predictor_coeffs",
    "predictor_variance_component", "bayesian_risk", "draw", "exact_risk",
    "empirical_train_error", "mc_expected_risk", "mc_operator_moments", "mc_coeff_stats",
    "ParseError", "FormatError", "load_csv", "save_csv", "load_mnist_idx", "preprocess_mnist",
    "preprocess_maxabs", "subsample", "split_train_test", "__version__",
}


def test_every_public_name_is_in_the_table_or_takes_no_array():
    assert {entry.split()[0] for entry in _ENTRIES} | _NO_ARRAY == set(kare.__all__)
    assert not {entry.split()[0] for entry in _ENTRIES} & _NO_ARRAY


def _with(value, bad):
    value = np.array(value, dtype=float)
    value.flat[0] = bad
    return value


_CASES = [(entry, kind) for entry, (_, _, _, short, deep) in _ENTRIES.items()
          for kind, applies in (("nan", True), ("inf", True), ("length", short is not None),
                                ("ndim", deep is not None)) if applies]


@pytest.mark.parametrize("entry, kind", _CASES, ids=[f"{e}-{k}" for e, k in _CASES])
def test_a_bad_array_raises_a_value_error_naming_the_argument(entry, kind):
    call, valid, name, short, deep = _ENTRIES[entry]
    call(valid)
    bad = {"nan": lambda: _with(valid, np.nan), "inf": lambda: _with(valid, np.inf),
           "length": lambda: short(valid), "ndim": lambda: deep(valid)}[kind]()
    with pytest.raises(ValueError) as raised:
        call(bad)
    assert re.search(name, str(raised.value)), str(raised.value)
