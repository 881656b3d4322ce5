import collections
import csv
import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from kare.cli import (
    SWEEP_COLUMNS,
    ConfigError,
    SweepRecord,
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
    values.update(overrides)  # an override of None drops the key
    path = tmp_path / "sweep.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items() if v is not None))
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
    capsys.readouterr()
    assert main(["validate", "--suite", "prop4", "--seed", "-1"]) == 1
    assert "argument --seed: value must be a whole number >= 0, got -1" in capsys.readouterr().err


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
    # csv dataset pointing at a missing file or a directory is a data error
    for data in (tmp_path / "none.csv", tmp_path):
        cfg = _config(tmp_path, **{
            "data.type": "csv", "data.path": str(data), "data.label_column": "y",
        })
        assert main(["sweep", "--config", cfg]) == 2


@pytest.mark.parametrize("failing", ["config", "output"])
def test_an_os_error_names_its_file_on_one_line(tmp_path, capsys, monkeypatch, failing):
    # Patched, since file modes do not stop root: an unreadable config is a
    # config error, any other file a data error.
    from kare import cli
    cfg = _config(tmp_path, **{"grid.lengthscale": "1:1:1:log2", "scores.cv_folds": "0"})
    path = cfg if failing == "config" else str(tmp_path / "out.csv")

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", path)
    monkeypatch.setattr(cli, "parse_sweep_config" if failing == "config" else "write_sweep_csv",
                        denied)
    assert main(["sweep", "--config", cfg]) == (1 if failing == "config" else 2)
    err = capsys.readouterr().err
    prefix = "config error" if failing == "config" else "data error"
    assert err == f"{prefix}: [Errno 13] Permission denied: {path!r}\n"


@pytest.mark.parametrize("undecodable", ["config", "data"])
def test_text_that_is_not_utf8_names_its_file(tmp_path, capsys, undecodable):
    data = tmp_path / "data.csv"
    data.write_bytes(b"a,y\n1.0,2.0\n" + (b"\xff,1.0\n" if undecodable == "data" else b""))
    cfg = _config(tmp_path, **{"data.type": "csv", "data.path": str(data),
                               "data.label_column": "y", "data.n": "1", "data.test_n": "0",
                               "scores.cv_folds": "0"})
    if undecodable == "config":
        with open(cfg, "ab") as handle:
            handle.write(b"# \xff\n")
    assert main(["sweep", "--config", cfg]) == (1 if undecodable == "config" else 2)
    err = capsys.readouterr().err
    named = cfg if undecodable == "config" else str(data)
    prefix = "config error" if undecodable == "config" else "data error"
    assert len(err.splitlines()) == 1 and err.startswith(f"{prefix}: {named}: ")
    assert "'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("case", ["sweep-output-is-a-directory", "sweep-config-is-a-directory",
                                  "sct-out-is-a-directory", "sct-out-in-a-missing-directory"])
def test_bad_paths_fail_before_any_work(tmp_path, capsys, monkeypatch, case):
    from kare import cli

    def no_work(*args):
        raise AssertionError("ran before the path was checked")
    monkeypatch.setattr(cli, "run_sweep", no_work)
    monkeypatch.setattr(cli, "run_sct_curves", no_work)
    directory = str(tmp_path)
    argv, named = {
        "sweep-output-is-a-directory": (
            ["sweep", "--config", _config(tmp_path, out_name="")],
            "output: must be a file, not a directory"),
        "sweep-config-is-a-directory": (["sweep", "--config", directory], directory),
        "sct-out-is-a-directory": (["sct", "--spectrum", "power-law", "--out", directory],
                                   "argument --out: must be a file, not a directory"),
        "sct-out-in-a-missing-directory": (
            ["sct", "--spectrum", "power-law", "--out", str(tmp_path / "missing" / "x.csv")],
            "argument --out: must be in an existing directory"),
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err


@pytest.mark.parametrize("missing", ["data.path", "data.label_column",
                                     "data.images", "data.labels", "data.digits"])
def test_missing_data_key_fails_before_any_work(tmp_path, capsys, monkeypatch, missing):
    from kare import cli

    def no_work(*args, **kwargs):
        raise AssertionError("read data before the config was checked")
    for name in ("run_sweep", "load_csv", "load_mnist_idx"):
        monkeypatch.setattr(cli, name, no_work)
    kind = "csv" if missing in ("data.path", "data.label_column") else "idx"
    keys = {"csv": {"data.path": str(tmp_path / "toy.csv"), "data.label_column": "y"},
            "idx": {"data.images": str(tmp_path / "images"),
                    "data.labels": str(tmp_path / "labels"), "data.digits": "7,9"}}[kind]
    del keys[missing]
    assert main(["sweep", "--config", _config(tmp_path, **{"data.type": kind}, **keys)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"data.type = {kind} needs key '{missing}'" in err


def test_missing_sample_count_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # data.n is required: no default passes its ">= 1" bound.
    from kare import cli

    def no_work(*args, **kwargs):
        raise AssertionError("read data before the config was checked")
    for name in ("run_sweep", "_synthetic_dataset", "load_csv", "load_mnist_idx"):
        monkeypatch.setattr(cli, name, no_work)
    path = _config(tmp_path, **{"data.n": None})
    assert main(["sweep", "--config", path]) == 1
    assert capsys.readouterr().err == f"config error: {path}: missing required key 'data.n'\n"


def test_sct_with_one_trial_fails_before_sampling(tmp_path, monkeypatch):
    from kare import cli

    def unsampled(*args):
        raise AssertionError("sampled a Gram spectrum with one trial")
    monkeypatch.setattr(cli, "draw", unsampled)
    monkeypatch.setattr(cli, "rbf_gaussian_gram_spectrum", unsampled)
    for spectrum in ("power-law", "rbf-gaussian"):
        assert main(["sct", "--spectrum", spectrum, "--trials", "1",
                     "--out", str(tmp_path / "sct.csv")]) == 1
    assert not (tmp_path / "sct.csv").exists()


def test_a_spectrum_trace_beyond_float64_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    from kare import cli
    from kare.sct import Spectrum

    monkeypatch.setattr(cli, "rbf_gaussian_spectrum", lambda *args: Spectrum(((1e308, 10),)))
    assert main(["sct", "--spectrum", "rbf-gaussian", "--dim", "2", "--n-grid", "8:8:1:log2",
                 "--ridge-grid", "1e-2:1e-2:1:log10", "--trials", "2",
                 "--out", str(tmp_path / "sct.csv")]) == 4
    assert capsys.readouterr().err == (
        "numerical error: ridge + trace/n is not representable in float64 "
        "(spectrum trace inf)\n")


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


def test_csv_without_feature_columns_is_a_data_error(tmp_path, capsys):
    data_path = tmp_path / "labels_only.csv"
    data_path.write_text("y\n" + "\n".join(str(v) for v in range(60)) + "\n")
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data_path), "data.label_column": "y",
        "data.n": "30", "data.test_n": "20",
    })
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"data error: {data_path}: no feature columns\n"


@pytest.mark.parametrize("family, name", [("rbf", "squared L2 distance"),
                                          ("laplacian", "L2 distance"),
                                          ("l1exp", "L1 distance")])
def test_overflowing_csv_features_are_a_numerical_error(tmp_path, capsys, family, name):
    # Before, the sweep warned twice, set those kernel entries to
    # exp(-inf) = 0 and exited 0.
    rows = np.random.default_rng(0).standard_normal((19, 2)).tolist() + [[1e308, -1e308]]
    data_path = tmp_path / "huge.csv"
    data_path.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},1.0\n" for a, b in rows))
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data_path), "data.label_column": "y",
        "data.n": "20", "data.test_n": "0", "kernel.family": family,
    })
    assert main(["sweep", "--config", cfg]) == 4
    assert capsys.readouterr().err == (
        f"numerical error: {family} kernel: {name} is not representable in float64\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_zero_labels_with_alignment_are_a_data_error(tmp_path, capsys):
    # classical_alignment divides by ||y||^2; before, this exited 1 as
    # "config error: labels are identically zero".
    rows = np.random.default_rng(0).standard_normal((60, 2)).tolist()
    data_path = tmp_path / "zeros.csv"
    data_path.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},0\n" for a, b in rows))
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data_path), "data.label_column": "y",
        "data.n": "30", "data.test_n": "20",
    })
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"data error: {data_path}: training labels are identically zero, "
        "so scores.alignment is undefined\n"
    )
    # Without the alignment score, zero labels are valid data.
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data_path), "data.label_column": "y",
        "data.n": "30", "data.test_n": "20", "scores.alignment": "false",
    })
    assert main(["sweep", "--config", cfg]) == 0


def test_too_few_data_rows_are_a_data_error(tmp_path, capsys):
    # Before, this exited 1 as "config error: requested 5 samples from 3 rows".
    data_path = tmp_path / "three.csv"
    data_path.write_text("a,y\n0.1,1\n0.2,0\n0.3,1\n")
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data_path), "data.label_column": "y",
        "data.n": "3", "data.test_n": "2", "scores.cv_folds": "0",
    })
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"data error: {data_path}: data.n + data.test_n = 5 rows requested, 3 available\n")


def test_idx_dataset_sweep(tmp_path, capsys):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (20, 28, 28), dtype=np.uint8)
    labels = np.array([7, 9] * 10, dtype=np.uint8)
    image_path, label_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    image_path.write_bytes(struct.pack(">IIII", 2051, 20, 28, 28) + images.tobytes())
    label_path.write_bytes(struct.pack(">II", 2049, 20) + labels.tobytes())
    keys = {
        "data.type": "idx", "data.images": str(image_path), "data.labels": str(label_path),
        "data.digits": "7,9", "data.preprocess": "mnist",
        "data.n": "12", "data.test_n": "6", "scores.cv_folds": "3",
        "grid.ridge": "1e-2:1e-1:2:log10",
    }
    assert main(["sweep", "--config", _config(tmp_path, **keys)]) == 0
    with open(tmp_path / "out.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert all(np.isfinite(float(row["kare"])) for row in rows)
    # Digits written as integral floats select the same images.
    swept = (tmp_path / "out.csv").read_bytes()
    assert main(["sweep", "--config", _config(tmp_path, **{**keys, "data.digits": "7.0,9"})]) == 0
    assert (tmp_path / "out.csv").read_bytes() == swept
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


# key, value, the bound its message names, the message after "PATH: ".  A key's
# own parser names it as "KEY: "; the cross-key cv_folds check names data.n.
_OUT_OF_RANGE = [
    ("data.n", "0", ">= 1", "data.n: value must be a whole number >= 1, got 0"),
    ("data.dim", "0", ">= 1", "data.dim: value must be a whole number >= 1, got 0"),
    ("data.test_n", "-5", ">= 0", "data.test_n: value must be a whole number >= 0, got -5"),
    ("data.seed", "-1", ">= 0", "data.seed: value must be a whole number >= 0, got -1"),
    ("data.noise", "-1", ">= 0 and finite", "data.noise: value must be finite and >= 0, got -1.0"),
    ("data.noise", "inf", ">= 0 and finite", "data.noise: value must be finite and >= 0, got inf"),
    ("scores.cv_folds", "1", "0 or between 2 and data.n = 40",
     "scores.cv_folds must be 0 or between 2 and data.n = 40"),
    ("scores.cv_folds", "41", "0 or between 2 and data.n = 40",
     "scores.cv_folds must be 0 or between 2 and data.n = 40"),
    ("output", "nodir/o.csv", "in an existing directory",
     "output: must be in an existing directory, got 'nodir/o.csv'"),
    ("grid.ridge", "1e-3:1:2.5:log10", ">= 1",
     "grid.ridge: grid '1e-3:1:2.5:log10': count must be a whole number >= 1, got 2.5"),
    ("data.digits", "2.5,9", ">= 0", "data.digits: digit must be a whole number >= 0, got 2.5"),
    # Before, the last pair won, the missing value read "could not convert
    # string to float: ''", and nan was a data error (exit 2) after loading.
    ("data.label_map", "s:1,s:-1,b:-1", "once",
     "data.label_map: label 's' is mapped more than once"),
    ("data.label_map", "s:1,b", "finite",
     "data.label_map: label 'b' must map to a finite number, got ''"),
    ("data.label_map", "s:nan,b:-1", "finite",
     "data.label_map: label 's' must map to a finite number, got 'nan'"),
]


@pytest.mark.parametrize("key, value, message", [
    pytest.param(key, value, message, id=f"{key}-{value}-{bound}")
    for key, value, bound, message in _OUT_OF_RANGE])
def test_out_of_range_config_value_names_the_key(tmp_path, capsys, monkeypatch, key, value,
                                                 message):
    # Before, each read "PATH: KEY must be BOUND", from a range table after parsing.
    monkeypatch.chdir(tmp_path)  # a relative output path resolves here
    path = _config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        parse_sweep_config(path)
    assert main(["sweep", "--config", path]) == 1
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"


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
            cfg.cv_folds, seed=cfg.data["seed"])
    # CV leaves every other column as the sweep without CV has it.
    without_cv = run_sweep(dataclasses.replace(cfg, cv_folds=0))
    assert [dataclasses.replace(r, cv_risk=None) for r in records] == without_cv


@pytest.mark.parametrize("family", ["rbf", "laplacian", "l1exp"])
@pytest.mark.parametrize("test_n", ["25", "0"])
def test_sweep_records_equal_the_public_per_cell_routes(tmp_path, family, test_n):
    # The sweep scales its Gram in place and computes test risks in a
    # pass of their own; each cell keeps the bits of the public routes.
    from kare.cli import _load_sweep_data
    from kare.estimators import RidgeScores, classical_alignment, cross_validation_risks
    from kare.kernels import KernelSpec, cross_gram, gram_matrix
    from kare.krr import held_out_risk
    from kare.sct import sct_from_gram
    cfg = parse_sweep_config(_config(tmp_path, **{"kernel.family": family,
                                                  "data.test_n": test_n}))
    train, test = _load_sweep_data(cfg)
    n, dim = train.X.shape
    expected = []
    for multiple in cfg.lengthscale_multiples:
        kern = KernelSpec(family, multiple * dim)
        G = gram_matrix(kern, train.X)
        cv = cross_validation_risks(G, train.y, cfg.ridges, cfg.cv_folds, seed=cfg.data["seed"])
        rs = RidgeScores(G, train.y)
        for ridge, cv_risk in zip(cfg.ridges, cv):
            est = sct_from_gram(rs, ridge)
            test_risk = (None if test is None else
                         held_out_risk(cross_gram(kern, test.X, train.X), rs.solve(ridge) / n,
                                       test.y))
            expected.append(SweepRecord(
                kern.lengthscale, ridge, rs.train_error(ridge), rs.kare(ridge),
                rs.varrho(ridge), cv_risk, rs.log_marginal_likelihood(ridge),
                classical_alignment(train.y, G), test_risk, est.theta, est.theta_prime,
                cfg.data["seed"], n))
    assert (test is None) == (test_n == "0")
    assert run_sweep(cfg) == expected


def test_sweep_holds_two_n_by_n_arrays_at_each_eigh(tmp_path, monkeypatch):
    # At each eigh the sweep holds the flat strips of its train distances
    # (n(n+1)/2 floats plus at most n^2 / 128) and the Gram, scaled by 1/n
    # in place: about 1.5 n^2 floats.  The test distances are made after
    # the last eigh.
    # With the full distances the sweep held 2 n^2, and before that the
    # test distances and an unscaled copy of the Gram were live too: 4 n^2.
    # The eigh decomposes the Gram in its own buffer: inside it, LAPACK's
    # workspace (2 n x n, a SciPy array) is added, and a copy of the Gram,
    # as NumPy's eigh made, would break the second bound.  The vectors are
    # transposed in that buffer, so after the eigh the sweep holds only its
    # eigenvalues more (the duals kept, L x R x n floats, bound it); a
    # C-order copy of the vectors would add n^2 floats.
    from kare import estimators
    n = 400
    cfg = parse_sweep_config(_config(tmp_path, **{"data.n": str(n), "data.test_n": str(n)}))
    traced, peaks, after, original = [], [], [], estimators.eigh

    def eigh(*args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        result = original(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        after.append(current)
        return result
    monkeypatch.setattr(estimators, "eigh", eigh)
    tracemalloc.start()
    try:
        assert len(run_sweep(cfg)) == 2 * 3
    finally:
        tracemalloc.stop()
    assert len(traced) == 2
    assert max(traced) <= 1.6 * n * n * 8
    assert max(peaks) <= 3.6 * n * n * 8
    lengthscales, ridges = 2, 3
    assert all(a - t <= lengthscales * ridges * n * 8 for a, t in zip(after, traced))


@pytest.mark.parametrize("alignment", ["true", "false"])
@pytest.mark.parametrize("folds", ["3", "0"])
def test_sweep_scans_each_gram_once_per_reader_and_builds_each_record_once(
        tmp_path, monkeypatch, alignment, folds):
    # A Gram of mirrored distances is exactly symmetric and finite, so
    # neither the alignment, cross-validation nor the score pass scans it.
    # Each record is built once, after the passes.
    from kare import cli, spectral
    scans, built, original = [], [], spectral._max_asymmetry

    def max_asymmetry(G):
        scans.append(G.shape)
        return original(G)

    class Record(SweepRecord):
        def __init__(self, **columns):
            built.append(columns)
            super().__init__(**columns)
    monkeypatch.setattr(spectral, "_max_asymmetry", max_asymmetry)
    monkeypatch.setattr(cli, "SweepRecord", Record)
    cfg = parse_sweep_config(_config(tmp_path, **{
        "grid.lengthscale": "0.5:2:3:log2", "scores.alignment": alignment,
        "scores.cv_folds": folds}))
    records = run_sweep(cfg)
    assert len(records) == len(built) == 3 * 3
    assert scans == []


@pytest.mark.parametrize("lengthscales, ridges, folds", [
    pytest.param(1, 1, 3, id="1-1"), pytest.param(3, 4, 3, id="3-4"),
    pytest.param(3, 4, 0, id="3-4-no-cv")])
def test_sweep_computes_distances_once_and_cv_evaluates_no_kernel(
        tmp_path, monkeypatch, lengthscales, ridges, folds):
    from kare import cli, estimators, kernels, krr
    calls = collections.Counter()
    distance_shapes, factored = [], []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            before = args[0].copy() if name == "dposv" else None
            result = original(*args, **kwargs)
            if name in ("_strip_distances", "_raw_distances"):
                distance_shapes.append((result[0] if name == "_strip_distances"
                                        else result).shape)
            if name == "dposv":
                # Each factorization runs in place on a Fortran-order B,
                # which then holds its Cholesky factor, and succeeds.
                factored.append((args[0].flags.f_contiguous,
                                 not np.array_equal(args[0], before), result[1] == 0))
            return result
        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(kernels, "_raw_distances"), (kernels, "gram_matrix"),
                        (kernels, "cross_gram"), (estimators, "gram_matrix"),
                        (krr, "gram_matrix"), (krr, "cross_gram"), (krr, "fit"),
                        (krr, "ridge_solve"), (krr, "_factor_solve"), (krr, "dposv"),
                        (cli, "_strip_distances"), (cli, "_gram_from_strips"),
                        (cli, "from_distances")]:
        count(owner, name)
    cfg = parse_sweep_config(_config(tmp_path, **{
        "grid.lengthscale": f"0.5:2:{lengthscales}:log2",
        "grid.ridge": f"1e-3:1e-1:{ridges}:log10",
        "scores.cv_folds": str(folds)}))
    assert len(run_sweep(cfg)) == lengthscales * ridges
    # One Cholesky per (lengthscale, fold, ridge), each one _factor_solve on
    # a copy of the fold's own scaled Gram, no ridge_solve and no other
    # kernel work.  The train distances are one set of flat strips
    # per sweep, which each lengthscale exponentiates once into its Gram,
    # with or without CV; the test distances are one full matrix, to which
    # each lengthscale applies exp once.
    assert calls == {"_strip_distances": 1, "_gram_from_strips": lengthscales,
                     "_raw_distances": 1, "from_distances": lengthscales,
                     **({"_factor_solve": lengthscales * folds * ridges,
                         "dposv": lengthscales * folds * ridges} if folds else {})}
    assert factored == [(True, True, True)] * calls["dposv"]
    # n = 40 gives 1-row strips, which hold the upper triangle alone.
    assert distance_shapes == [(40 * 41 // 2,), (25, 40)]


def test_sweep_cross_validates_each_gram_before_its_eigh(tmp_path, monkeypatch):
    # CV slices each Gram while it is intact; the eigh then decomposes the
    # same buffer in place, so no lengthscale's Gram is built twice.
    from kare import cli, estimators
    events, arrays = [], []

    def logged(event, original):
        def call(*args, **kwargs):
            events.append(event)
            arrays.append(args[0])
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "_cross_validation_risks",
                        logged("cv", cli._cross_validation_risks))
    monkeypatch.setattr(estimators, "eigh", logged("eigh", estimators.eigh))
    cfg = parse_sweep_config(_config(tmp_path, **{"grid.lengthscale": "0.5:2:3:log2"}))
    assert len(run_sweep(cfg)) == 3 * 3
    assert events == ["cv", "eigh"] * 3
    assert all(np.shares_memory(cv, eigh) for cv, eigh in zip(arrays[::2], arrays[1::2]))


def test_sweep_reads_its_one_seed_from_data_seed(tmp_path):
    # The rows, the CV folds and the seed column all follow data.seed.
    cfg = parse_sweep_config(_config(tmp_path))
    moved = run_sweep(dataclasses.replace(cfg, data={**cfg.data, "seed": 5}))
    assert moved == run_sweep(parse_sweep_config(_config(tmp_path, **{"data.seed": "5"})))
    assert {r.seed for r in moved} == {5}


@pytest.mark.parametrize("failure", ["cholesky", "cholesky-grid", "cholesky-before-score",
                                     "arithmetic", "representable", "eigh-negative",
                                     "eigh-linalgerror"])
def test_numerical_error_names_the_sweep_cell(tmp_path, capsys, monkeypatch, failure):
    # Ten points, each four times: at ridge 1e-19 a fold's (1/n)G + ridge I
    # is singular in float64 and dposv reports a nonzero info; at ridge
    # 1e-320 the Stieltjes transform of this rank-10 Gram overflows.
    # The failed fold solve names its ridge, so CV runs once per
    # lengthscale even when only one ridge of the grid fails.  Failures
    # come in grid order: CV's at the first lengthscale is reported before
    # a score failure forced at the second.  A failed eigendecomposition
    # names its lengthscale only; before, it named no cell.
    from kare import cli, estimators, lapack
    rng = np.random.default_rng(0)
    X = np.repeat(rng.standard_normal((10, 2)), 4, axis=0)
    data = tmp_path / "dup.csv"
    data.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{a + b!r}\n" for a, b in X.tolist()))
    ridge = "1e-320" if failure == "representable" else "1e-19"
    cv = failure.startswith("cholesky")
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data), "data.label_column": "y",
        "data.test_n": "0",
        "grid.lengthscale": "1:2:2:log2" if failure == "cholesky-before-score" else "1:1:1:log2",
        "grid.ridge": (f"1e-2:{ridge}:2:log10" if failure == "cholesky-grid"
                       else f"{ridge}:{ridge}:1:log10"),
        "scores.cv_folds": "4" if cv else "0"})
    if failure == "arithmetic":
        def divide(*args):
            raise ZeroDivisionError("float division by zero")
        monkeypatch.setattr("kare.cli.sct_from_gram", divide)
    if failure == "cholesky-before-score":
        scored, sct_from_gram = [], cli.sct_from_gram

        def divide_at_second_lengthscale(rs, ridge):
            scored.append(rs)
            if rs is not scored[0]:
                raise ZeroDivisionError("float division by zero")
            return sct_from_gram(rs, ridge)
        monkeypatch.setattr(cli, "sct_from_gram", divide_at_second_lengthscale)
    if failure == "eigh-linalgerror":
        # dsyevd's nonzero info, which lapack.eigh raises as LinAlgError:
        # each decomposition (not a workspace query, whose lwork is -1)
        # runs and then reports info 3 in its eleventh argument.
        dsyevd = lapack._dsyevd

        def failing_dsyevd(*args):
            dsyevd(*args)
            if args[7] is not lapack._QUERY:
                args[10]._obj.value = 3
        monkeypatch.setattr(lapack, "_dsyevd", failing_dsyevd)
    if failure == "eigh-negative":
        eigh = estimators.eigh

        def negative_eigh(A):
            eigenvalues, vectors = eigh(A)
            eigenvalues[0] = -1e-3
            return eigenvalues, vectors
        monkeypatch.setattr(estimators, "eigh", negative_eigh)
    cv_calls, original = [], cli._cross_validation_risks

    def cross_validation_risks(*args, **kwargs):
        cv_calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, "_cross_validation_risks", cross_validation_risks)
    assert main(["sweep", "--config", cfg]) == 4
    err = capsys.readouterr().err
    if failure.startswith("eigh"):
        assert err == "numerical error: lengthscale 2.0, " + {
            "eigh-negative": "matrix is not positive semidefinite (min eigenvalue -1.000e-03)",
            "eigh-linalgerror": "dsyevd failed on an eigendecomposition of order 40 (info 3)",
        }[failure] + "\n"
    else:
        assert err.startswith(f"numerical error: lengthscale 2.0, ridge {ridge}: ")
        assert {"cholesky": "not positive definite", "cholesky-grid": "not positive definite",
                "cholesky-before-score": "not positive definite",
                "arithmetic": "division by zero",
                "representable": "theta is not representable in float64"}[failure] in err
    assert len(cv_calls) == (1 if cv else 0)


@pytest.mark.parametrize("header, feature_columns, message", [
    ("a,label,b", "a,label", "label column 'label' is also a feature column"),
    ("a,a,label", None, "column 'a' appears twice in the header"),
    ("a,b,label", "a,a", "feature column 'a' is listed twice"),
])
def test_csv_column_clashes_are_a_data_error(tmp_path, capsys, header, feature_columns, message):
    # Before, the labels loaded as feature 2, the first 'a' was read, or
    # feature 'a' loaded twice.
    rows = np.random.default_rng(0).standard_normal((60, 3)).tolist()
    data_path = tmp_path / "clash.csv"
    data_path.write_text(header + "\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
    cfg = _config(tmp_path, **{
        "data.type": "csv", "data.path": str(data_path), "data.label_column": "label",
        "data.feature_columns": feature_columns,
    })
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"data error: {data_path}: {message}\n"


def test_overflowing_lengthscale_names_the_grid_key(tmp_path, capsys):
    # Before: "config error: lengthscale must be positive and finite, got inf".
    cfg = _config(tmp_path, **{"grid.lengthscale": "1e308:1e308:1:log2", "data.dim": "5"})
    assert main(["sweep", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "config error: grid.lengthscale: multiple 1e+308 times the input dimension 5 "
        "overflows float64\n")


@pytest.mark.parametrize("option, value, message", [
    ("--dim", "0", "value must be a whole number >= 1, got 0"),
    ("--dim", "2.5", "value must be a whole number >= 1, got 2.5"),
    ("--k-max", "-1", "value must be a whole number >= 0, got -1"),
    ("--count", "nan", "value must be a whole number >= 1, got nan"),
    ("--count", "ten", "could not convert string to float: 'ten'"),
    # Before, "config error: expanded mode count under the sampling cap ..." (power-law).
    ("--count", "5001", "value must be a whole number between 1 and 5000, got 5001"),
    ("--trials", "1", "value must be a whole number >= 2, got 1"),
    ("--trials", "2.5", "value must be a whole number >= 2, got 2.5"),
    ("--n-grid", "0.2:0.4:2:log2", "rounded sample count must be a whole number >= 1, got 0"),
    ("--n-grid", "1:1.4:3:log2", "rounded sample count 1 appears more than once in (1, 1, 1)"),
    ("--ridge-grid", "0:1:2:log2", "grid '0:1:2:log2': start must be positive and finite, got 0.0"),
    ("--sigma", "nan", "value must be positive and finite, got nan"),
    ("--lengthscale", "-1", "value must be positive and finite, got -1.0"),
    ("--beta", "1", "value must be finite and > 1, got 1.0"),
    ("--beta", "inf", "value must be finite and > 1, got inf"),
    ("--seed", "-1", "value must be a whole number >= 0, got -1"),
])
def test_bad_sct_option_names_the_option(tmp_path, capsys, option, value, message):
    # Before, --n-grid 0.2:0.4:2:log2 gave "config error: need at least one
    # point" (rbf-gaussian) or "sample count must be >= 1, got 0" (power-law),
    # and --n-grid 1:1.4:3:log2 wrote three identical blocks for n = 1;
    # --sigma nan exited 0 (power-law) or gave an unnamed "config error"
    # (rbf-gaussian), as did --lengthscale -1 and --beta 1 or inf.
    for spectrum in ("rbf-gaussian", "power-law"):
        assert main(["sct", "--spectrum", spectrum, option, value,
                     "--out", str(tmp_path / "sct.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"kare sct: error: argument {option}: {message}")
        assert err.count("\n") == 1
    assert not (tmp_path / "sct.csv").exists()


def test_sct_count_parses_up_to_the_sampling_cap(tmp_path):
    from kare.cli import _build_parser
    from kare.synthetic import MAX_MODES
    args = _build_parser().parse_args(["sct", "--spectrum", "power-law", "--count",
                                       str(MAX_MODES), "--out", str(tmp_path / "sct.csv")])
    assert args.count == MAX_MODES == 5000


def test_data_n_beyond_the_eigh_order_limit_is_a_config_error(tmp_path, capsys, monkeypatch):
    # Before, data.n = 40000 parsed, and the sweep built its 12.8 GB of
    # distances before the eigh rejected the order.
    from kare import cli

    def no_distances(*args):
        raise AssertionError("distances computed")
    monkeypatch.setattr(cli, "distances", no_distances)
    assert parse_sweep_config(_config(tmp_path, **{"data.n": "32766"})).data["n"] == 32766
    path = _config(tmp_path, **{"data.n": "40000"})
    message = (f"{path}: data.n: an eigendecomposition of order 40000 needs a LAPACK "
               f"workspace of more than 2**31 - 1 floats; the order must be at most 32766")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_sweep_config(path)
    assert main(["sweep", "--config", path]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_sct_counts_accept_integral_floats(tmp_path):
    outs = [tmp_path / "int.csv", tmp_path / "float.csv"]
    for out, count, trials in zip(outs, ("20", "20.0"), ("2", "2e0")):
        assert main(["sct", "--spectrum", "power-law", "--count", count, "--trials", trials,
                     "--n-grid", "30:30:1:log2", "--ridge-grid", "1e-2:1e-2:1:log10",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_integral_float_counts_and_seeds_give_the_same_bytes(tmp_path, capsys):
    # Before, data.n = 2.0, data.seed = 2.0 and a grid count of 2.0 failed
    # int("2.0"), and --seed 2.0 was not a non-negative integer.
    outputs = {}
    for text in ("2", "2.0"):
        sweep, sct = tmp_path / f"sweep-{text}.csv", tmp_path / f"sct-{text}.csv"
        cfg = _config(tmp_path, **{"data.n": text, "data.seed": text, "scores.cv_folds": "2",
                                   "grid.ridge": f"1e-3:1e-1:{text}:log10",
                                   "output": str(sweep)})
        assert main(["sweep", "--config", cfg]) == 0
        assert main(["sct", "--spectrum", "power-law", "--count", "20", "--trials", "2",
                     "--n-grid", "30:30:1:log2", "--ridge-grid", "1e-2:1e-2:1:log10",
                     "--seed", text, "--out", str(sct)]) == 0
        capsys.readouterr()
        assert main(["validate", "--suite", "identities", "--seed", text]) == 0
        outputs[text] = (sweep.read_bytes(), sct.read_bytes(), capsys.readouterr().out)
    assert outputs["2"] == outputs["2.0"]
