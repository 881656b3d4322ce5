import collections
import csv
import dataclasses
import re
import struct

import numpy as np
import pytest

from kare.cli import (
    SWEEP_COLUMNS,
    ConfigError,
    main,
    parse_grid,
    parse_sweep_config,
    run_sweep,
    write_sweep_csv,
)


def _config(tmp_path, out_name="out.csv", **overrides):
    values = {
        "data.type": "synthetic",
        "data.dim": "3",
        "data.n": "40",
        "data.test_n": "25",
        "data.noise": "0.2",
        "data.seed": "4",
        "kernel.family": "rbf",
        "grid.lengthscale": "0.5:2:2:log2",
        "grid.ridge": "1e-3:1e-1:3:log10",
        "scores.cv_folds": "3",
        "scores.loglik": "true",
        "scores.alignment": "true",
        "output": str(tmp_path / out_name),
    }
    values.update(overrides)
    path = tmp_path / "sweep.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return str(path)


def test_parse_grid():
    assert parse_grid("1:8:4:log2") == pytest.approx((1.0, 2.0, 4.0, 8.0))
    assert parse_grid("1e-2:1:3:log10") == pytest.approx((0.01, 0.1, 1.0))
    assert parse_grid("0.5:9:1:log2") == (0.5,)
    for bad in ("1:2:3", "1:2:0:log2", "-1:2:3:log2", "1:2:3:linear",
                "nan:1:3:log10", "1:inf:3:log10", "1e-3:1e400:3:log10"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_parse_config_rejects_unknown_and_missing(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("data.typ = synthetic\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_sweep_config(str(path))
    path.write_text("data.type = synthetic\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_sweep_config(str(path))


def test_run_sweep_smoke_single_cell(tmp_path):
    cfg = parse_sweep_config(_config(
        tmp_path,
        **{"data.n": "10", "data.test_n": "8",
           "grid.lengthscale": "1:1:1:log2", "grid.ridge": "1e-2:1e-2:1:log10"},
    ))
    records = run_sweep(cfg)
    assert len(records) == 1
    r = records[0]
    for column in SWEEP_COLUMNS:
        value = getattr(r, column)
        assert value is not None and np.isfinite(value)
    assert r.sct_hat >= r.ridge
    assert r.sct_deriv_hat >= 1.0
    assert r.kare >= 0


def test_run_sweep_record_count_and_schema(tmp_path):
    cfg = parse_sweep_config(_config(tmp_path))
    records = run_sweep(cfg)
    assert len(records) == len(cfg.lengthscale_multiples) * len(cfg.ridges)
    out = tmp_path / "schema.csv"
    write_sweep_csv(records, str(out))
    header = out.read_text().splitlines()[0]
    assert header == ("lengthscale,ridge,train_error,kare,varrho,cv_risk,"
                      "loglik,alignment,test_risk,sct_hat,sct_deriv_hat,seed,n")


def test_sweep_optional_columns_empty(tmp_path):
    cfg = parse_sweep_config(_config(
        tmp_path,
        **{"data.test_n": "0", "scores.cv_folds": "0",
           "scores.loglik": "false", "scores.alignment": "false"},
    ))
    records = run_sweep(cfg)
    assert records[0].cv_risk is None and records[0].test_risk is None
    out = tmp_path / "opt.csv"
    write_sweep_csv(records, str(out))
    first = out.read_text().splitlines()[1].split(",")
    header = SWEEP_COLUMNS
    assert first[header.index("cv_risk")] == ""
    assert first[header.index("test_risk")] == ""


def test_sweep_test_risk_matches_krr_route(tmp_path):
    from kare import krr
    from kare.cli import _load_sweep_data
    from kare.kernels import KernelSpec
    cfg = parse_sweep_config(_config(
        tmp_path, **{"grid.lengthscale": "1:1:1:log2", "grid.ridge": "1e-2:1e-2:1:log10"}))
    records = run_sweep(cfg)
    train, test = _load_sweep_data(cfg)
    kern = KernelSpec("rbf", records[0].lengthscale)
    p = krr.fit(kern, train.X, train.y, records[0].ridge)
    assert records[0].test_risk == pytest.approx(krr.test_risk(p, test.X, test.y), rel=1e-9)


def test_sct_subcommand_monotonicity(tmp_path):
    out = tmp_path / "sct.csv"
    code = main([
        "sct", "--spectrum", "rbf-gaussian", "--dim", "4", "--sigma", "1",
        "--k-max", "30", "--n-grid", "50:200:3:log2",
        "--ridge-grid", "1e-3:1e-1:3:log10", "--trials", "3", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    by_n = {}
    for row in rows:
        by_n.setdefault(int(row["n"]), []).append((float(row["ridge"]), float(row["theta"])))
    for n, pairs in by_n.items():
        thetas = [t for _, t in sorted(pairs)]
        assert thetas == sorted(thetas)  # theta increasing in ridge
    at_small_ridge = sorted(
        (n, min(pairs)[1]) for n, pairs in by_n.items())
    values = [t for _, t in at_small_ridge]
    assert values == sorted(values, reverse=True)  # theta decreasing in n


def test_sct_power_law_route(tmp_path):
    out = tmp_path / "pl.csv"
    code = main([
        "sct", "--spectrum", "power-law", "--beta", "2", "--count", "50",
        "--n-grid", "100:100:1:log2", "--ridge-grid", "1e-2:1e-2:1:log10",
        "--trials", "4", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    line = out.read_text().splitlines()[1].split(",")
    header = out.read_text().splitlines()[0].split(",")
    row = dict(zip(header, line))
    assert float(row["theta_est"]) == pytest.approx(float(row["theta"]), rel=0.05)


def test_validate_exit_codes(capsys):
    assert main(["validate", "--suite", "prop4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert '"passed": true' in out
    assert main(["validate", "--suite", "nosuch", "--seed", "1"]) == 1


def test_exit_codes_for_bad_inputs(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    assert main(["nope"]) == 1
    assert main(["--help"]) == 0
    # fewer than two Monte Carlo trials give no standard error
    for trials in ("0", "1"):
        assert main(["sct", "--spectrum", "power-law", "--trials", trials,
                     "--out", str(tmp_path / "sct.csv")]) == 1
    # csv dataset pointing at a missing file is a data error
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(tmp_path / "none.csv"),
        "data.label_column": "y",
    })
    assert main(["sweep", "--config", cfg]) == 2


def test_csv_dataset_sweep(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["a,b,Label"]
    for _ in range(60):
        x = rng.standard_normal(2)
        label = "s" if x.sum() + 0.3 * rng.standard_normal() > 0 else "b"
        lines.append(f"{x[0]},{x[1]},{label}")
    data_path = tmp_path / "toy.csv"
    data_path.write_text("\n".join(lines) + "\n")
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data_path),
        "data.label_column": "Label", "data.label_map": "s:1,b:-1",
        "data.preprocess": "maxabs", "data.n": "30", "data.test_n": "20",
    })
    assert main(["sweep", "--config", cfg]) == 0
    body = (tmp_path / "out.csv").read_text().splitlines()
    assert len(body) == 1 + 2 * 3


def test_idx_dataset_sweep(tmp_path, capsys):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (20, 28, 28), dtype=np.uint8)
    labels = np.array([7, 9] * 10, dtype=np.uint8)
    image_path, label_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    image_path.write_bytes(struct.pack(">IIII", 2051, 20, 28, 28) + images.tobytes())
    label_path.write_bytes(struct.pack(">II", 2049, 20) + labels.tobytes())
    cfg = _config(tmp_path, **{
        "data.type": "idx", "data.images": str(image_path), "data.labels": str(label_path),
        "data.digits": "7,9", "data.preprocess": "mnist",
        "data.n": "12", "data.test_n": "6", "scores.cv_folds": "3",
        "grid.ridge": "1e-2:1e-1:2:log10",
    })
    assert main(["sweep", "--config", cfg]) == 0
    with open(tmp_path / "out.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert all(np.isfinite(float(row["kare"])) for row in rows)
    # One digit named twice would sweep a one-class problem.
    cfg = _config(tmp_path, **{
        "data.type": "idx", "data.images": str(image_path), "data.labels": str(label_path),
        "data.digits": "7,7", "data.preprocess": "mnist", "data.n": "8",
    })
    assert main(["sweep", "--config", cfg]) == 1
    assert (f"config error: {cfg}: data.digits: must name exactly two distinct digits"
            in capsys.readouterr().err)
    # A digit with no images would sweep a one-class problem too.
    cfg = _config(tmp_path, **{
        "data.type": "idx", "data.images": str(image_path), "data.labels": str(label_path),
        "data.digits": "7,3", "data.preprocess": "mnist", "data.n": "8",
    })
    assert main(["sweep", "--config", cfg]) == 1
    assert f"config error: {label_path}: no images of digit 3" in capsys.readouterr().err


def test_sct_csv_header(tmp_path):
    out = tmp_path / "sct.csv"
    assert main([
        "sct", "--spectrum", "power-law", "--count", "20", "--n-grid", "50:50:1:log2",
        "--ridge-grid", "1e-2:1e-2:1:log10", "--trials", "2", "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[0] == (
        "n,ridge,theta,theta_prime,theta_est,theta_est_stderr,"
        "theta_prime_est,theta_prime_est_stderr,trials,seed")


def test_sweep_csv_round_trips_exactly(tmp_path):
    cfg = parse_sweep_config(_config(tmp_path, **{"data.test_n": "0", "scores.loglik": "false"}))
    records = run_sweep(cfg)
    out = tmp_path / "round.csv"
    write_sweep_csv(records, str(out))
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(records)
    for record, row in zip(records, rows):
        assert tuple(row) == SWEEP_COLUMNS
        for column in SWEEP_COLUMNS:
            value = getattr(record, column)
            if value is None:
                assert row[column] == ""
            else:
                assert type(value)(row[column]) == value


def test_empty_sweep_csv_has_header(tmp_path):
    out = tmp_path / "empty.csv"
    write_sweep_csv([], str(out))
    assert out.read_text() == ",".join(SWEEP_COLUMNS) + "\n"


@pytest.mark.parametrize("key, value", [
    ("data.dim", "x"), ("data.noise", "abc"), ("scores.cv_folds", "2.5"),
    ("scores.loglik", "maybe"), ("data.digits", "7"), ("grid.ridge", "1:2"),
    ("grid.ridge", "nan:1:3:log10"), ("grid.ridge", "1:inf:3:log10"),
    ("grid.lengthscale", "1e-3:1e400:3:log10"), ("kernel.family", "foo"),
    ("data.type", "bogus"), ("data.preprocess", "bogus"),
])
def test_malformed_config_value_names_the_key(tmp_path, capsys, key, value):
    path = _config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: {re.escape(key)}: "):
        parse_sweep_config(path)
    assert main(["sweep", "--config", path]) == 1
    assert f"config error: {path}: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value, bound", [
    ("data.n", "0", ">= 1"), ("data.dim", "0", ">= 1"), ("data.test_n", "-5", ">= 0"),
    ("data.noise", "-1", ">= 0 and finite"), ("data.noise", "inf", ">= 0 and finite"),
    ("scores.cv_folds", "1", "0 or between 2 and data.n = 40"),
    ("scores.cv_folds", "41", "0 or between 2 and data.n = 40"),
    ("output", "nodir/o.csv", "in an existing directory"),
])
def test_out_of_range_config_value_names_the_key(tmp_path, capsys, monkeypatch, key, value, bound):
    monkeypatch.chdir(tmp_path)  # a relative output path resolves here
    path = _config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {key} must be {bound}')}$"):
        parse_sweep_config(path)
    assert main(["sweep", "--config", path]) == 1
    assert f"config error: {path}: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["rbf", "laplacian", "l1exp"])
def test_sweep_cv_risk_equals_cross_validation_risk(tmp_path, family):
    from kare.cli import _load_sweep_data
    from kare.estimators import cross_validation_risk
    from kare.kernels import KernelSpec
    cfg = parse_sweep_config(_config(tmp_path, **{"kernel.family": family}))
    assert len(cfg.lengthscale_multiples) >= 2
    train, _ = _load_sweep_data(cfg)
    records = run_sweep(cfg)
    for r in records:
        assert r.cv_risk == cross_validation_risk(
            KernelSpec(family, r.lengthscale), train.X, train.y, r.ridge,
            cfg.cv_folds, seed=cfg.seed)
    # The CV pass leaves every other column as the sweep without CV has it.
    without_cv = run_sweep(dataclasses.replace(cfg, cv_folds=0))
    assert [dataclasses.replace(r, cv_risk=None) for r in records] == without_cv


@pytest.mark.parametrize("lengthscales, ridges, folds", [
    pytest.param(1, 1, 3, id="1-1"), pytest.param(3, 4, 3, id="3-4"),
    pytest.param(3, 4, 0, id="3-4-no-cv")])
def test_sweep_computes_distances_once_and_cv_evaluates_no_kernel(
        tmp_path, monkeypatch, lengthscales, ridges, folds):
    from kare import cli, estimators, kernels, krr
    calls = collections.Counter()
    distance_shapes = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            if name == "_raw_distances":
                distance_shapes.append(result.shape)
            return result
        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(kernels, "_raw_distances"), (kernels, "gram_matrix"),
                        (kernels, "cross_gram"), (estimators, "gram_matrix"),
                        (krr, "gram_matrix"), (krr, "cross_gram"), (krr, "fit"),
                        (krr, "cho_factor"), (cli, "from_distances")]:
        count(owner, name)
    cfg = parse_sweep_config(_config(tmp_path, **{
        "grid.lengthscale": f"0.5:2:{lengthscales}:log2",
        "grid.ridge": f"1e-3:1e-1:{ridges}:log10",
        "scores.cv_folds": str(folds)}))
    assert len(run_sweep(cfg)) == lengthscales * ridges
    # One Cholesky per (lengthscale, fold, ridge), and no other kernel work.
    # Each lengthscale applies exp to the Gram's distances twice with CV
    # (once per pass) and once without, plus once to the test distances.
    assert calls == {"_raw_distances": 2, "from_distances": lengthscales * (3 if folds else 2),
                     **({"cho_factor": lengthscales * folds * ridges} if folds else {})}
    assert distance_shapes == [(40, 40), (25, 40)]


def test_sweep_cross_validates_every_lengthscale_before_the_first_eigh(
        tmp_path, monkeypatch):
    # NumPy (eigh) and SciPy (Cholesky) each run their own OpenBLAS
    # thread pool; the sweep runs all of one library's work, then the
    # other's, instead of alternating them per lengthscale.
    from kare import cli
    events = []

    def logged(event, original):
        def call(*args, **kwargs):
            events.append(event)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "cross_validation_risks",
                        logged("cv", cli.cross_validation_risks))
    monkeypatch.setattr(cli, "RidgeScores", logged("eigh", cli.RidgeScores))
    cfg = parse_sweep_config(_config(tmp_path, **{"grid.lengthscale": "0.5:2:3:log2"}))
    assert len(run_sweep(cfg)) == 3 * 3
    assert events == ["cv"] * 3 + ["eigh"] * 3


@pytest.mark.parametrize("failure", ["cholesky", "cholesky-grid", "arithmetic",
                                     "representable"])
def test_numerical_error_names_the_sweep_cell(tmp_path, capsys, monkeypatch, failure):
    # Ten points, each four times: at ridge 1e-19 a fold's (1/n)G + ridge I
    # is singular in float64 and its Cholesky factorization fails; at
    # ridge 1e-320 the Stieltjes transform of this rank-10 Gram overflows.
    # The failed fold solve names its ridge, so CV runs once per
    # lengthscale even when only one ridge of the grid fails.
    from kare import cli
    rng = np.random.default_rng(0)
    X = np.repeat(rng.standard_normal((10, 2)), 4, axis=0)
    data = tmp_path / "dup.csv"
    data.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{a + b!r}\n" for a, b in X.tolist()))
    ridge = "1e-320" if failure == "representable" else "1e-19"
    cv = failure.startswith("cholesky")
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data), "data.label_column": "y",
        "data.test_n": "0", "grid.lengthscale": "1:1:1:log2",
        "grid.ridge": (f"1e-2:{ridge}:2:log10" if failure == "cholesky-grid"
                       else f"{ridge}:{ridge}:1:log10"),
        "scores.cv_folds": "4" if cv else "0"})
    if failure == "arithmetic":
        def divide(*args):
            raise ZeroDivisionError("float division by zero")
        monkeypatch.setattr("kare.cli.sct_from_gram", divide)
    cv_calls, original = [], cli.cross_validation_risks

    def cross_validation_risks(*args, **kwargs):
        cv_calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, "cross_validation_risks", cross_validation_risks)
    assert main(["sweep", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"numerical error: lengthscale 2.0, ridge {ridge}: ")
    assert {"cholesky": "not positive definite", "cholesky-grid": "not positive definite",
            "arithmetic": "division by zero",
            "representable": "theta is not representable in float64"}[failure] in err
    assert len(cv_calls) == (1 if cv else 0)
