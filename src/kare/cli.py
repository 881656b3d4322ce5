"""Experiment driver: hyperparameter sweeps, threshold curves, validation.

Subcommands
-----------
sweep --config FILE
    Grid sweep over (lengthscale, ridge) emitting one CSV row per cell
    with train error, the alignment risk scores, the optional comparator
    scores, held-out risk, and the Gram-based threshold estimates.

sct --spectrum {rbf-gaussian,power-law} ... --out FILE
    Solved threshold and derivative next to their Monte Carlo estimates
    over an (n, ridge) grid.

validate --suite NAME --seed N
    Run a named validation suite and print a JSON report; exits 3 on
    check failure.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 validation
failure, 4 numerical error (a LinAlgError or ArithmeticError, such as a
Cholesky factorization that fails at a tiny ridge, a score or threshold
estimate not representable in float64, or a Gram matrix that is not
positive semidefinite; a sweep names the failing lengthscale and ridge).

Config file format: flat "key = value" lines, '#' comments.  Grids are
"start:stop:count:log2" or "start:stop:count:log10" (count log-spaced
values from start to stop inclusive).  The keys, their defaults and
their meaning are the tables _REQUIRED_KEYS and _OPTIONAL_KEYS below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .data import (
    Dataset,
    FormatError,
    ParseError,
    load_csv,
    load_mnist_idx,
    preprocess_maxabs,
    preprocess_mnist,
    split_train_test,
    subsample,
)
from .estimators import (
    RidgeScores,
    TrueFunction,
    classical_alignment,
    cross_validation_risks,
)
from .kernels import FAMILIES, KernelSpec, distances, from_distances
from .krr import held_out_risk
from .sct import (
    Spectrum,
    power_law_spectrum,
    rbf_gaussian_spectrum,
    sct_from_gram,
    solve_sct,
)
from .synthetic import draw, mean_and_stderr, rbf_gaussian_gram_spectrum
from .spectral import NumericalError, decompose
from .validation import run_suite

class ConfigError(ValueError):
    """Bad sweep configuration."""


_NUMERICAL_ERRORS = (np.linalg.LinAlgError, ArithmeticError)


@contextmanager
def _cell(lengthscale: float, ridge: float | None = None):
    """Re-raise a numerical failure inside the block as a NumericalError
    naming the sweep cell.  Without a ridge, the failure names its own
    (as a failed ``krr.ridge_solve`` does)."""
    try:
        yield
    except _NUMERICAL_ERRORS as exc:
        cell = f"lengthscale {lengthscale!r}, " + ("" if ridge is None else f"ridge {ridge!r}: ")
        raise NumericalError(f"{cell}{exc}") from exc


@dataclass(frozen=True)
class SweepConfig:
    data: dict
    family: str
    lengthscale_multiples: tuple[float, ...]
    ridges: tuple[float, ...]
    cv_folds: int
    loglik: bool
    alignment: bool
    output: str
    seed: int


@dataclass(frozen=True)
class SweepRecord:
    lengthscale: float
    ridge: float
    train_error: float
    kare: float
    varrho: float
    cv_risk: float | None
    loglik: float | None
    alignment: float | None
    test_risk: float | None
    sct_hat: float
    sct_deriv_hat: float
    seed: int
    n: int


@dataclass(frozen=True)
class SctCurveRecord:
    n: int
    ridge: float
    theta: float
    theta_prime: float
    theta_est: float
    theta_est_stderr: float
    theta_prime_est: float
    theta_prime_est_stderr: float
    trials: int
    seed: int


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord))
SCT_COLUMNS = tuple(f.name for f in fields(SctCurveRecord))


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse "start:stop:count:log2|log10" into an inclusive log-spaced grid."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"grid {text!r} is not start:stop:count:scale")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: {exc}") from None
    scale = parts[3]
    if scale not in ("log2", "log10"):
        raise ConfigError(f"grid {text!r}: scale must be log2 or log10")
    if count < 1 or not 0 < start < math.inf or not 0 < stop < math.inf:
        raise ConfigError(f"grid {text!r}: need positive finite bounds and count >= 1")
    if count == 1:
        return (start,)
    base = 2.0 if scale == "log2" else 10.0
    lo, hi = np.log(start) / np.log(base), np.log(stop) / np.log(base)
    return tuple(float(base**e) for e in np.linspace(lo, hi, count))


def _choice(*choices: str):
    """A parser that accepts exactly one of choices."""
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value
    return parse


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


# The three list-valued keys read an empty value as unset.
def _parse_label_map(text: str) -> dict[str, float] | None:
    pairs = (pair.partition(":") for pair in text.split(",")) if text else ()
    return {name.strip(): float(value) for name, _, value in pairs} or None


def _parse_columns(text: str) -> list[str] | None:
    return [c.strip() for c in text.split(",")] if text else None


def _parse_digits(text: str) -> tuple[int, ...] | None:
    digits = tuple(int(v) for v in text.split(",")) if text else None
    if digits is not None and (len(digits) != 2 or digits[0] == digits[1]):
        raise ValueError("must name exactly two distinct digits")
    return digits


# key -> parser
_REQUIRED_KEYS = {
    "data.type": _choice("csv", "idx", "synthetic"),
    "kernel.family": _choice(*FAMILIES),
    "grid.lengthscale": parse_grid,     # in multiples of the input dimension
    "grid.ridge": parse_grid,
    "output": str,                      # output CSV path, in an existing directory
}

# key -> (default, parser); the default is already parsed.  The data
# type that reads a key is in brackets.
_OPTIONAL_KEYS = {
    "data.path": (None, str),                           # [csv]
    "data.label_column": (None, str),                   # [csv]
    "data.label_map": (None, _parse_label_map),         # [csv] "s:1,b:-1"; numeric if unset
    "data.feature_columns": (None, _parse_columns),     # [csv] "a,b"; all others if unset
    "data.sentinel_filter": (False, _parse_bool),       # [csv] drop rows with a -999 feature
    "data.images": (None, str),                         # [idx] image file
    "data.labels": (None, str),                         # [idx] label file
    "data.digits": (None, _parse_digits),               # [idx] "7,9"
    "data.preprocess": ("none", _choice("none", "maxabs", "mnist")),
    "data.n": (0, int),                                 # training rows, >= 1
    "data.test_n": (0, int),                            # held-out rows; 0 disables test risk
    "data.seed": (0, int),                              # sampling and CV fold seed
    "data.dim": (5, int),                               # [synthetic] input dimension
    "data.noise": (0.1, float),                         # [synthetic] label noise level
    "scores.cv_folds": (0, int),                        # 0 disables cross-validation
    "scores.loglik": (False, _parse_bool),
    "scores.alignment": (False, _parse_bool),
}

_PARSERS = {**_REQUIRED_KEYS, **{key: parse for key, (_, parse) in _OPTIONAL_KEYS.items()}}


def parse_sweep_config(path: str) -> SweepConfig:
    raw = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values = {key: default for key, (default, _) in _OPTIONAL_KEYS.items()}
    for key, text in raw.items():
        try:
            values[key] = _PARSERS[key](text)
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None
    n, folds = values["data.n"], values["scores.cv_folds"]
    for key, within, bound in (
        ("data.n", n >= 1, ">= 1"),
        ("data.test_n", values["data.test_n"] >= 0, ">= 0"),
        ("data.dim", values["data.dim"] >= 1, ">= 1"),
        ("data.noise", 0 <= values["data.noise"] < math.inf, ">= 0 and finite"),
        ("scores.cv_folds", folds == 0 or 2 <= folds <= n, f"0 or between 2 and data.n = {n}"),
        ("output", os.path.isdir(os.path.dirname(values["output"]) or "."),
         "in an existing directory"),
    ):
        if not within:
            raise ConfigError(f"{path}: {key} must be {bound}")
    return SweepConfig(
        data={key[len("data."):]: value for key, value in values.items()
              if key.startswith("data.")},
        family=values["kernel.family"],
        lengthscale_multiples=values["grid.lengthscale"],
        ridges=values["grid.ridge"],
        cv_folds=values["scores.cv_folds"],
        loglik=values["scores.loglik"],
        alignment=values["scores.alignment"],
        output=values["output"],
        seed=values["data.seed"],
    )


def _synthetic_dataset(dim: int, n: int, noise: float, seed) -> Dataset:
    """Gaussian inputs with a smooth sine target plus label noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    w = np.ones(dim) / np.sqrt(dim)
    y = np.sin(X @ w) + noise * rng.standard_normal(n)
    return Dataset(X, y, {"source": "synthetic", "preprocessing": []})


def _load_sweep_data(cfg: SweepConfig) -> tuple[Dataset, Dataset | None]:
    d = cfg.data
    if d["type"] == "synthetic":
        s_train, s_test = np.random.SeedSequence(d["seed"]).spawn(2)
        train = _synthetic_dataset(d["dim"], d["n"], d["noise"], s_train)
        test = _synthetic_dataset(d["dim"], d["test_n"], d["noise"], s_test) if d["test_n"] else None
        return train, test
    if d["type"] == "csv":
        if not d["path"] or not d["label_column"]:
            raise ConfigError("csv datasets need data.path and data.label_column")
        ds = load_csv(
            d["path"], d["label_column"], feature_columns=d["feature_columns"],
            label_map=d["label_map"], drop_sentinel=d["sentinel_filter"],
        )
    else:  # idx
        if not d["images"] or not d["labels"] or not d["digits"]:
            raise ConfigError("idx datasets need data.images, data.labels, data.digits")
        ds = load_mnist_idx(d["images"], d["labels"], d["digits"])
    # Built per call, so the preprocessing functions are looked up by
    # their module names at run time, where bench/tracer.py wraps them.
    preprocess = {"none": lambda ds: ds, "maxabs": preprocess_maxabs, "mnist": preprocess_mnist}
    ds = preprocess[d["preprocess"]](ds)
    if d["test_n"]:
        return split_train_test(ds, d["n"], d["test_n"], d["seed"])
    return subsample(ds, d["n"], d["seed"]), None


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """One record per grid cell, in deterministic grid order.

    The train-train and test-train distances are computed once per
    sweep, and each lengthscale turns them into its Gram and cross-Gram.
    With CV on, the sweep makes two passes over the lengthscales:

    1. CV: each Gram is cross-validated from its own slices (one
       Cholesky per fold and ridge, in SciPy), keeping only the risks.
    2. Scores: each Gram is rebuilt and pays one eigendecomposition
       (in NumPy) shared across all ridges, then the scores and the
       test risk.

    NumPy and SciPy each bring their own OpenBLAS with its own thread
    pool, whose workers busy-wait after every call.  Alternating the two
    once per lengthscale made each library's calls compete with the
    other pool's spinning threads: on 2 cores, 40 Choleskys of size 375
    took 0.14-0.22 s right after an eigh against 0.070-0.097 s with
    NumPy's pool idle, and a 500 x 500 eigh 0.054-0.141 s right after
    the Choleskys against 0.036-0.044 s.  The passes make the same calls
    on the same inputs as one interleaved pass, so every result keeps its
    bits; the cost is one more exp per lengthscale.  A CV failure at any
    lengthscale is therefore reported (exit 4, naming its cell) before a
    second-pass failure at an earlier lengthscale.

    A LinAlgError or ArithmeticError raised for a cell becomes a
    NumericalError naming it.  CV runs once per lengthscale, with no
    retry per ridge: a failed fold solve names its own ridge.
    """
    train, test = _load_sweep_data(cfg)
    n, dim = train.X.shape
    D = distances(cfg.family, train.X, train.X)
    D_test = distances(cfg.family, test.X, train.X) if test is not None else None
    kerns = [KernelSpec(cfg.family, multiple * dim) for multiple in cfg.lengthscale_multiples]

    def cv_risks(kern: KernelSpec) -> list[float]:
        with _cell(kern.lengthscale):
            return cross_validation_risks(from_distances(kern, D), train.y, cfg.ridges,
                                          cfg.cv_folds, seed=cfg.seed)

    # One call per lengthscale in each pass, so its Gram, eigenvectors
    # and cross-Gram are freed before the next lengthscale builds its own.
    cv = ([cv_risks(kern) for kern in kerns] if cfg.cv_folds
          else [[None] * len(cfg.ridges)] * len(kerns))

    def one_lengthscale(kern: KernelSpec, cv_row: list) -> list[SweepRecord]:
        G = from_distances(kern, D)
        rs = RidgeScores(G, train.y)
        K_test = from_distances(kern, D_test) if D_test is not None else None
        align = classical_alignment(train.y, G) if cfg.alignment else None
        records = []
        for ridge, cv_risk in zip(cfg.ridges, cv_row):
            with _cell(kern.lengthscale, ridge):
                est = sct_from_gram(rs, ridge)
                records.append(SweepRecord(
                    lengthscale=kern.lengthscale,
                    ridge=float(ridge),
                    train_error=rs.train_error(ridge),
                    kare=rs.kare(ridge),
                    varrho=rs.varrho(ridge),
                    cv_risk=cv_risk,
                    loglik=rs.log_marginal_likelihood(ridge) if cfg.loglik else None,
                    alignment=align,
                    test_risk=(held_out_risk(K_test, rs.solve(ridge) / n, test.y)
                               if K_test is not None else None),
                    sct_hat=est.theta,
                    sct_deriv_hat=est.theta_prime,
                    seed=cfg.seed,
                    n=n,
                ))
        return records

    return [record for kern, cv_row in zip(kerns, cv)
            for record in one_lengthscale(kern, cv_row)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, columns: tuple[str, ...], records) -> None:
    with open(path, "w") as handle:
        handle.write(",".join(columns) + "\n")
        for r in records:
            handle.write(",".join(
                _format_cell(getattr(r, column)) for column in columns
            ) + "\n")


def write_sweep_csv(records: list[SweepRecord], path: str) -> None:
    _write_csv(path, SWEEP_COLUMNS, records)


def run_sct_curves(
    spectrum: Spectrum,
    gram_sampler,
    n_values: tuple[int, ...],
    ridges: tuple[float, ...],
    trials: int,
    seed: int,
) -> list[SctCurveRecord]:
    """Solved threshold curves next to Monte Carlo Gram-based estimates.

    gram_sampler(n, seed) must return a GramSpectrum for a fresh sample
    of size n; mean_and_stderr rejects fewer than 2 trials.
    """
    records = []
    for n in n_values:
        spectra = [gram_sampler(n, (seed, n, t)) for t in range(trials)]
        for ridge in ridges:
            res = solve_sct(spectrum, n, ridge)
            estimates = [sct_from_gram(s, ridge) for s in spectra]
            records.append(SctCurveRecord(
                n, float(ridge), res.theta, res.theta_prime,
                *map(float, mean_and_stderr([e.theta for e in estimates])),
                *map(float, mean_and_stderr([e.theta_prime for e in estimates])),
                trials, seed,
            ))
    return records


def _cmd_sweep(args) -> int:
    cfg = parse_sweep_config(args.config)
    records = run_sweep(cfg)
    write_sweep_csv(records, cfg.output)
    print(f"wrote {len(records)} records to {cfg.output}")
    return 0


def _cmd_sct(args) -> int:
    n_values = tuple(int(round(v)) for v in parse_grid(args.n_grid))
    ridges = parse_grid(args.ridge_grid)
    if args.spectrum == "rbf-gaussian":
        lengthscale = args.lengthscale if args.lengthscale is not None else float(args.dim)
        spectrum = rbf_gaussian_spectrum(args.dim, lengthscale, args.sigma, args.k_max)

        def sampler(n, seed):
            return rbf_gaussian_gram_spectrum(args.dim, lengthscale, args.sigma, n, seed)
    else:
        spectrum = power_law_spectrum(args.beta, args.count)
        zero_f = TrueFunction(np.zeros(spectrum.expanded_size), 0.0)

        def sampler(n, seed):
            return decompose(draw(spectrum, zero_f, n, seed).G)

    records = run_sct_curves(spectrum, sampler, n_values, ridges, args.trials, args.seed)
    _write_csv(args.out, SCT_COLUMNS, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    try:
        checks = run_suite(args.suite, args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all(c.passed for c in checks),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
    }
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kare",
        description="Kernel ridge regression risk prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="hyperparameter grid sweep")
    p_sweep.add_argument("--config", required=True, help="key=value config file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sct = sub.add_parser("sct", help="threshold curves, solved and estimated")
    p_sct.add_argument("--spectrum", required=True, choices=("rbf-gaussian", "power-law"))
    p_sct.add_argument("--dim", type=int, default=5)
    p_sct.add_argument("--lengthscale", type=float, default=None,
                       help="defaults to the input dimension")
    p_sct.add_argument("--sigma", type=float, default=1.0)
    p_sct.add_argument("--k-max", type=int, default=50)
    p_sct.add_argument("--beta", type=float, default=2.0)
    p_sct.add_argument("--count", type=int, default=100)
    p_sct.add_argument("--n-grid", default="50:1600:6:log2")
    p_sct.add_argument("--ridge-grid", default="1e-4:1:9:log10")
    p_sct.add_argument("--trials", type=int, default=10)
    p_sct.add_argument("--seed", type=int, default=0)
    p_sct.add_argument("--out", required=True)
    p_sct.set_defaults(func=_cmd_sct)

    p_val = sub.add_parser("validate", help="run a validation suite")
    p_val.add_argument("--suite", required=True)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ParseError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:  # before ValueError: LinAlgError is one
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        if args.command == "sweep" and exc.filename == args.config:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
