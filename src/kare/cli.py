"""The ``kare`` command line: ``sweep --config FILE`` (one CSV row per
(lengthscale, ridge) cell), ``sct`` (solved threshold curves next to Monte
Carlo estimates) and ``validate`` (a JSON report of a suite).

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 validation
failure, 4 numerical error (a LinAlgError or ArithmeticError).
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial

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
    write_csv,
)
# A sweep's Grams are exactly symmetric and finite, so it calls the unchecked
# entries; bench/tracer.py wraps the alignment as classical_alignment.
from .estimators import (
    RidgeScores,
    TrueFunction,
    _alignment as classical_alignment,
    _cross_validation_risks,
)
from .kernels import (
    FAMILIES, KernelSpec, _gram_from_strips, _strip_distances, distances, from_distances,
)
from .krr import held_out_risk
from .lapack import LinAlgError, check_order, matvec
from .sct import (
    Spectrum,
    power_law_spectrum,
    rbf_gaussian_spectrum,
    sct_from_gram,
    solve_sct,
)
from .synthetic import MAX_MODES, draw, mean_and_stderr, rbf_gaussian_gram_spectrum, sample_spectra
from .spectral import NumericalError, check_count, check_real, decompose
from .validation import run_suite

class ConfigError(ValueError):
    """Bad sweep configuration."""


def _option(parse):
    """An argparse type from parse(text), which raises ValueError on a bad value."""
    def option(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            import argparse  # loaded already: only _build_parser's parser calls this
            raise argparse.ArgumentTypeError(str(exc)) from None
    return option


def _count(low: int, what: str = "value"):
    """A parser of a whole number >= low, written as an integer or an integral float."""
    return lambda text: check_count(
        int(text) if text.strip().lstrip("+-").isdecimal() else float(text), what, low)


def _real(low: float = 0.0, strict: bool = True):
    """A parser of a finite number > low (>= low when strict is False)."""
    return lambda text: check_real(text, "value", low, strict)


def _n_values(text: str) -> tuple[int, ...]:
    """An --n-grid value: a grid whose points round to distinct sample counts >= 1."""
    counts = tuple(check_count(round(v), "rounded sample count", 1) for v in parse_grid(text))
    if len(set(counts)) < len(counts):
        raise ValueError(f"rounded sample count {max(counts, key=counts.count)} "
                         f"appears more than once in {counts}")
    return counts


def _output(path: str) -> str:
    """An output file path: a file, not a directory, in an existing directory."""
    if os.path.isdir(path):
        raise ValueError(f"must be a file, not a directory, got {path!r}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"must be in an existing directory, got {path!r}")
    return path


_NUMERICAL_ERRORS = (LinAlgError, ArithmeticError)


@contextmanager
def _cell(lengthscale: float, ridge: float | None = None):
    """Re-raise a numerical failure inside the block as a NumericalError
    naming the sweep cell; without a ridge, only its lengthscale."""
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
    """The inclusive log-spaced grid "start:stop:count:log2|log10"; raises
    ConfigError naming the grid for a bad part."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"grid {text!r} is not start:stop:count:scale")
    try:
        start, stop = check_real(parts[0], "start"), check_real(parts[1], "stop")
        count = _count(1, "count")(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: {exc}") from None
    scale = parts[3]
    if scale not in ("log2", "log10"):
        raise ConfigError(f"grid {text!r}: scale must be log2 or log10")
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
    label_map = {}
    for pair in text.split(",") if text else ():
        name, _, value = (part.strip() for part in pair.partition(":"))
        if name in label_map:
            raise ValueError(f"label {name!r} is mapped more than once")
        try:
            label_map[name] = check_real(value, "label", -math.inf)
        except ValueError:
            raise ValueError(f"label {name!r} must map to a finite number, got {value!r}") from None
    return label_map or None


def _parse_columns(text: str) -> list[str] | None:
    return [c.strip() for c in text.split(",")] if text else None


def _parse_digits(text: str) -> tuple[int, ...] | None:
    digits = tuple(map(_count(0, "digit"), text.split(","))) if text else None
    if digits is not None and (len(digits) != 2 or digits[0] == digits[1]):
        raise ValueError("must name exactly two distinct digits")
    return digits


# key -> parser
_REQUIRED_KEYS = {
    "data.type": _choice("csv", "idx", "synthetic"),
    "kernel.family": _choice(*FAMILIES),
    "grid.lengthscale": parse_grid,     # in multiples of the input dimension
    "grid.ridge": parse_grid,
    "data.n": lambda text: check_order(_count(1)(text)),  # training rows; the eigh's order
    "output": _output,                  # output CSV file
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
    "data.preprocess": ("none", _choice("none", "maxabs", "mnist")),  # [csv, idx]
    "data.test_n": (0, _count(0)),                      # held-out rows; 0 disables test risk
    "data.seed": (0, _count(0)),                        # sampling and CV fold seed
    "data.dim": (5, _count(1)),                         # [synthetic] input dimension
    "data.noise": (0.1, _real(strict=False)),           # [synthetic] label noise level
    "scores.cv_folds": (0, _count(0)),                  # 0, or 2 to data.n; 0 disables CV
    "scores.loglik": (False, _parse_bool),
    "scores.alignment": (False, _parse_bool),
}

_PARSERS = {**_REQUIRED_KEYS, **{key: parse for key, (_, parse) in _OPTIONAL_KEYS.items()}}


def parse_sweep_config(path: str) -> SweepConfig:
    """The SweepConfig of the "key = value" file at path; raises ConfigError
    naming the file, and the line or key, for a malformed, unknown,
    repeated, missing or bad key."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raw, set_at = {}, {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set at line {set_at[key]}")
        raw[key], set_at[key] = value, lineno
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values = {key: default for key, (default, _) in _OPTIONAL_KEYS.items()}
    for key, text in raw.items():
        try:
            values[key] = _PARSERS[key](text)
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None
    needed = {"csv": ("data.path", "data.label_column"),
              "idx": ("data.images", "data.labels", "data.digits")}
    for key in needed.get(values["data.type"], ()):
        if not values[key]:
            raise ConfigError(f"{path}: data.type = {values['data.type']} needs key {key!r}")
    n, folds = values["data.n"], values["scores.cv_folds"]
    if folds and not 2 <= folds <= n:
        raise ConfigError(f"{path}: scores.cv_folds must be 0 or between 2 and data.n = {n}")
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
    )


def _synthetic_dataset(dim: int, n: int, noise: float, seed) -> Dataset:
    """Gaussian inputs with a smooth sine target plus label noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    w = np.ones(dim) / np.sqrt(dim)
    y = np.sin(matvec(X, w)) + noise * rng.standard_normal(n)
    return Dataset(X, y, {"source": "synthetic", "preprocessing": []})


def _load_sweep_data(cfg: SweepConfig) -> tuple[Dataset, Dataset | None]:
    d = cfg.data
    if d["type"] == "synthetic":
        s_train, s_test = np.random.SeedSequence(d["seed"]).spawn(2)
        train = _synthetic_dataset(d["dim"], d["n"], d["noise"], s_train)
        test = _synthetic_dataset(d["dim"], d["test_n"], d["noise"], s_test) if d["test_n"] else None
        return train, test
    if d["type"] == "csv":
        ds = load_csv(
            d["path"], d["label_column"], feature_columns=d["feature_columns"],
            label_map=d["label_map"], drop_sentinel=d["sentinel_filter"],
        )
    else:  # idx
        ds = load_mnist_idx(d["images"], d["labels"], d["digits"])
    if ds.X.shape[0] < d["n"] + d["test_n"]:  # rows left after the filters
        raise ParseError(f"{ds.meta['source']}: data.n + data.test_n = {d['n'] + d['test_n']} "
                         f"rows requested, {ds.X.shape[0]} available")
    # Built per call, so the preprocessing functions are looked up by
    # their module names at run time, where bench/tracer.py wraps them.
    preprocess = {"none": lambda ds: ds, "maxabs": preprocess_maxabs, "mnist": preprocess_mnist}
    ds = preprocess[d["preprocess"]](ds)
    train, test = (split_train_test(ds, d["n"], d["test_n"], d["seed"]) if d["test_n"]
                   else (subsample(ds, d["n"], d["seed"]), None))
    if cfg.alignment and not np.any(train.y):  # alignment divides by ||y||^2
        raise ParseError(f"{ds.meta['source']}: training labels are identically zero, "
                         "so scores.alignment is undefined")
    return train, test


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """One record per grid cell, in grid order.

    A LinAlgError or ArithmeticError for a cell becomes a NumericalError
    naming it: CV names the ridge whose solve failed, and a failed eigh only
    its lengthscale.  Failures come in grid order (within a lengthscale CV's,
    the eigh's, then the scores'), and overflowing test distances last.
    """
    train, test = _load_sweep_data(cfg)
    n, dim = train.X.shape
    for multiple in cfg.lengthscale_multiples:
        if multiple * dim == math.inf:
            raise ConfigError(f"grid.lengthscale: multiple {multiple!r} times the input "
                              f"dimension {dim} overflows float64")
    kerns = [KernelSpec(cfg.family, multiple * dim) for multiple in cfg.lengthscale_multiples]
    strips, rows = _strip_distances(cfg.family, train.X, flat=True)

    def scores(kern: KernelSpec) -> tuple[list[partial], list[np.ndarray]]:
        # Each ridge's record, short of its test risk, and its dual.
        G = _gram_from_strips(kern, strips, rows, np.empty((n, n)))
        align = classical_alignment(train.y, G) if cfg.alignment else None
        cv_risks = [None] * len(cfg.ridges)
        with _cell(kern.lengthscale):
            if cfg.cv_folds:
                cv_risks = _cross_validation_risks(G, train.y, cfg.ridges, cfg.cv_folds,
                                                   seed=cfg.data["seed"])
            rs = RidgeScores._scaling_in_place(G, train.y)  # G now holds the eigenvectors
        cells, duals = [], []
        for ridge, cv_risk in zip(cfg.ridges, cv_risks):
            with _cell(kern.lengthscale, ridge):
                est = sct_from_gram(rs, ridge)
                cells.append(partial(
                    SweepRecord, lengthscale=kern.lengthscale, ridge=float(ridge),
                    train_error=rs.train_error(ridge), kare=rs.kare(ridge),
                    varrho=rs.varrho(ridge), cv_risk=cv_risk,
                    loglik=rs.log_marginal_likelihood(ridge) if cfg.loglik else None,
                    alignment=align, sct_hat=est.theta, sct_deriv_hat=est.theta_prime,
                    seed=cfg.data["seed"], n=n))
                if test is not None:
                    duals.append(rs.solve(ridge) / n)
        return cells, duals

    passes = [scores(kern) for kern in kerns]
    del strips
    test_risks = [[None] * len(cfg.ridges)] * len(kerns)
    if test is not None:
        D_test = distances(cfg.family, test.X, train.X)
        test_risks = []
        for kern, (_, duals) in zip(kerns, passes):
            K_test = from_distances(kern, D_test)
            test_risks.append([])
            for ridge, dual in zip(cfg.ridges, duals):
                with _cell(kern.lengthscale, ridge):
                    test_risks[-1].append(held_out_risk(K_test, dual, test.y))
            del K_test
    return [cell(test_risk=test_risk)
            for (cells, _), test_row in zip(passes, test_risks)
            for cell, test_risk in zip(cells, test_row)]


def _write_records(path: str, columns: tuple[str, ...], records) -> None:
    write_csv(path, columns, ([getattr(r, column) for column in columns] for r in records))


def write_sweep_csv(records: list[SweepRecord], path: str) -> None:
    _write_records(path, SWEEP_COLUMNS, records)


def run_sct_curves(
    spectrum: Spectrum,
    gram_sampler,
    n_values: tuple[int, ...],
    ridges: tuple[float, ...],
    trials: int,
    seed: int,
) -> list[SctCurveRecord]:
    """Solved threshold curves next to Monte Carlo Gram-based estimates, from
    gram_sampler(n, seed), a GramSpectrum of a fresh sample of size n; fewer
    than 2 trials raise ValueError before any sample.
    """
    records = []
    for n in n_values:
        spectra = sample_spectra(gram_sampler, n, trials, seed)
        res = solve_sct(spectrum, n, np.asarray(ridges, dtype=float))
        for ridge, theta, theta_prime in zip(ridges, res.theta.tolist(),
                                             res.theta_prime.tolist()):
            estimates = [sct_from_gram(s, ridge) for s in spectra]
            records.append(SctCurveRecord(
                n, float(ridge), theta, theta_prime,
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
    if args.spectrum == "rbf-gaussian":
        lengthscale = args.lengthscale if args.lengthscale is not None else float(args.dim)
        spectrum = rbf_gaussian_spectrum(args.dim, lengthscale, args.sigma, args.k_max)
        sampler = partial(rbf_gaussian_gram_spectrum, args.dim, lengthscale, args.sigma)
    else:
        spectrum = power_law_spectrum(args.beta, args.count)
        zero_f = TrueFunction(np.zeros(spectrum.expanded_size), 0.0)

        def sampler(n, seed):
            return decompose(draw(spectrum, zero_f, n, seed).G)

    records = run_sct_curves(spectrum, sampler, args.n_grid, args.ridge_grid, args.trials,
                             args.seed)
    _write_records(args.out, SCT_COLUMNS, records)
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


def _build_parser():
    """The kare command line's parser; argparse is imported here, so that
    importing kare.cli does not load it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a usage error on one stderr line; --help shows the usage."""

        def error(self, message):
            self.exit(2, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="kare",
        description="Kernel ridge regression risk prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="hyperparameter grid sweep")
    p_sweep.add_argument("--config", required=True, help="key=value config file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sct = sub.add_parser("sct", help="threshold curves, solved and estimated")
    p_sct.add_argument("--spectrum", required=True, choices=("rbf-gaussian", "power-law"))
    p_sct.add_argument("--dim", type=_option(_count(1)), default=5)
    p_sct.add_argument("--lengthscale", type=_option(_real()), default=None,
                       help="defaults to the input dimension")
    p_sct.add_argument("--sigma", type=_option(_real()), default=1.0)
    p_sct.add_argument("--k-max", type=_option(_count(0)), default=50)
    p_sct.add_argument("--beta", type=_option(_real(1)), default=2.0)
    p_sct.add_argument("--count", default=100, type=_option(
        lambda text: check_count(_count(1)(text), "value", 1, MAX_MODES)))
    p_sct.add_argument("--n-grid", type=_option(_n_values), default="50:1600:6:log2")
    p_sct.add_argument("--ridge-grid", type=_option(parse_grid), default="1e-4:1:9:log10")
    p_sct.add_argument("--trials", type=_option(_count(2)), default=10)
    p_sct.add_argument("--seed", type=_option(_count(0)), default=0)
    p_sct.add_argument("--out", type=_option(_output), required=True)
    p_sct.set_defaults(func=_cmd_sct)

    p_val = sub.add_parser("validate", help="run a validation suite")
    p_val.add_argument("--suite", required=True)
    p_val.add_argument("--seed", type=_option(_count(0)), default=0)
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
    except OSError as exc:
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
