"""Benchmark workloads: generated inputs, the measured call, and output checks.

Each workload turns a seed into input files inside a work directory
(`prepare`), makes the one call a user of kare pays for (`call`), and
judges the output (`output_problems` for each call, and `verify_sweep` by
routes that do not share the sweep's numerics).  The sizes are chosen so
that one call takes a few seconds on a 2-core machine, which lets one
benchmark run take several samples.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kare
from kare import cli, krr, validation
from kare.kernels import KernelSpec, gram_matrix

WORKLOADS = {
    "sweep-cv": (
        "rbf sweep, n=500, 4x10 grid, 4-fold CV: 160 fold Grams and cross-Grams "
        "with a Cholesky each, mostly kernel distances; the target of computing them once"
    ),
    "sweep-wide": (
        "l1exp sweep from a CSV, n=1000, d=20, 6x25 grid, no CV: kernel "
        "distances, eigh and per-ridge scoring; the data loaders run"
    ),
    "validate-mc": (
        "kare validate suites identities,prop3,prop4,bayes: Monte Carlo draws, "
        "exact risks and Cholesky solves; validate --suite all (71 s) exceeds a run"
    ),
}

# Suites of `kare validate` that the validate-mc workload runs, in order.
# prop5, thm1, thm6 and kare together take about 66 s per seed, more than
# one benchmark run may spend.  thm2 fails at some seeds (104 and 107 of
# 0-59 and 100-129): its coefficient-variance check allows 3 estimated
# standard errors, and the estimate runs below the spread of the Monte
# Carlo variance over seeds.  A workload must pass at every seed.
VALIDATE_SUITES = ("identities", "prop3", "prop4", "bayes")

_SWEEP_CONFIGS = {
    "sweep-cv": """\
data.type = synthetic
data.n = 500
data.test_n = 500
data.dim = 10
data.noise = 0.1
data.seed = {seed}
kernel.family = rbf
grid.lengthscale = 0.25:2:4:log2
grid.ridge = 1e-6:1:10:log10
scores.cv_folds = 4
scores.loglik = true
scores.alignment = true
output = {output}
""",
    "sweep-wide": """\
data.type = csv
data.path = {data}
data.label_column = label
data.preprocess = maxabs
data.n = 1000
data.test_n = 1000
data.seed = {seed}
kernel.family = l1exp
grid.lengthscale = 0.125:4:6:log2
grid.ridge = 1e-7:10:25:log10
scores.loglik = true
scores.alignment = true
output = {output}
""",
}

_WIDE_ROWS, _WIDE_DIM, _WIDE_NOISE = 2000, 20, 0.1

# Seed at which the sweep CSV bytes are pinned, and the SHA-256 of those
# bytes as written by kare 0.1.0 with scipy-openblas 0.3.31 on an Intel
# Xeon.  A change that alters any digit of a sweep at this seed fails the
# run; BLAS kernels chosen for another CPU may change the last digits.
DEFAULT_SEED = 0
CSV_DIGESTS = {
    "sweep-cv": "d7cf18aafa36733b25b08307528978bff3f5861262bbc93a91b0287057f32e5a",
    "sweep-wide": "691d51313fed95fa0edbfb2ab17232371282ef843ee2c17abafcf7bd6d62cf42",
}

# Relative agreement required between a sweep cell and its recomputation
# by krr.fit / krr.train_error / krr.test_risk and a dense LU solve.  The
# two routes (eigh and Cholesky or LU) differ by 1e-13 to 1e-11 on the
# checked cells; any change to a formula moves a cell by far more.
RECOMPUTE_RTOL = 1e-7


@dataclass(frozen=True)
class Job:
    """A prepared workload: its sweep config, or None for validate-mc."""

    name: str
    seed: int
    config: cli.SweepConfig | None


def prepare(name: str, seed: int, workdir: Path) -> Job:
    """Write the workload's generated inputs and parse them into a job."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "validate-mc":
        return Job(name, seed, None)
    data = workdir / "data.csv"
    if name == "sweep-wide":
        _write_wide_csv(data, seed)
    config = workdir / "sweep.cfg"
    config.write_text(_SWEEP_CONFIGS[name].format(
        seed=seed, data=data, output=workdir / "sweep.csv",
    ))
    return Job(name, seed, cli.parse_sweep_config(str(config)))


def _write_wide_csv(path: Path, seed: int) -> None:
    """Gaussian rows with a smooth target plus label noise."""
    rng = np.random.default_rng([seed, 2])
    X = rng.standard_normal((_WIDE_ROWS, _WIDE_DIM))
    w = rng.standard_normal(_WIDE_DIM)
    w /= np.linalg.norm(w)
    y = np.sin(X @ w) + _WIDE_NOISE * rng.standard_normal(_WIDE_ROWS)
    kare.save_csv(kare.Dataset(X, y, {}), path)


def call(job: Job) -> dict:
    """The measured call; returns what the output checks need."""
    if job.config is not None:
        cli.write_sweep_csv(cli.run_sweep(job.config), job.config.output)
        digest = hashlib.sha256(Path(job.config.output).read_bytes()).hexdigest()
        return {"sha256": digest}
    checks = []
    for suite in VALIDATE_SUITES:
        checks.extend(validation.run_suite(suite, job.seed))
    return {"checks": [
        {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
    ]}


def output_problems(outcome: dict) -> list[str]:
    """Problems visible in one call's outcome alone: failed validate checks."""
    checks = outcome.get("checks")
    if checks is None:
        return []
    if not checks:
        return ["validate ran no checks"]
    return [f"check failed: {c['name']} ({c['detail']})" for c in checks if not c["passed"]]


def verify_sweep(job: Job, sha256: str) -> tuple[list[str], dict]:
    """Check a sweep CSV against independent routes; return problems and
    the hyperparameter-selection quality of the sweep.

    Reads the CSV the last call wrote.  At DEFAULT_SEED the bytes must
    match CSV_DIGESTS.  At any seed, the cells where kare, test risk and
    (with CV) cv_risk are smallest, plus the cell at the middle lengthscale
    and the ridge nearest 1e-2, are recomputed with krr.fit, krr.train_error,
    krr.test_risk and kare from a dense LU solve.
    """
    cfg = job.config
    problems = []
    expected = CSV_DIGESTS[job.name]
    if job.seed == DEFAULT_SEED and sha256 != expected:
        problems.append(f"CSV sha256 {sha256} differs from the pinned {expected}")
    with open(cfg.output, newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        rows = [dict(zip(header, row)) for row in reader]
    if header != cli.SWEEP_COLUMNS:
        return problems + [f"CSV header {header} is not {cli.SWEEP_COLUMNS}"], {}
    cells = len(cfg.lengthscale_multiples) * len(cfg.ridges)
    if len(rows) != cells:
        return problems + [f"CSV has {len(rows)} rows for {cells} grid cells"], {}
    table = {
        col: np.array([float(r[col]) if r[col] else np.nan for r in rows])
        for col in ("lengthscale", "ridge", "train_error", "kare", "cv_risk", "test_risk")
    }
    for col in ("train_error", "kare", "test_risk") + (("cv_risk",) if cfg.cv_folds else ()):
        if not np.all(np.isfinite(table[col])):
            problems.append(f"column {col} has non-finite or missing values")
    if problems:
        return problems, {}

    test = table["test_risk"]
    best = float(test.min())
    picks = {"kare": int(np.argmin(table["kare"])), "test_risk": int(np.argmin(test))}
    quality = {
        "kare_regret": float(test[picks["kare"]] / best),
        "kare_gap": float(np.median(np.abs(table["kare"] - test) / test)),
    }
    if cfg.cv_folds:
        picks["cv_risk"] = int(np.argmin(table["cv_risk"]))
        quality["cv_regret"] = float(test[picks["cv_risk"]] / best)
    near = int(np.argmin(np.abs(np.log(np.asarray(cfg.ridges) / 1e-2))))
    picks["fixed"] = len(cfg.lengthscale_multiples) // 2 * len(cfg.ridges) + near

    train, held_out = cli._load_sweep_data(cfg)
    worst = 0.0
    for i in sorted(set(picks.values())):
        kern = KernelSpec(cfg.family, table["lengthscale"][i])
        ridge = table["ridge"][i]
        p = krr.fit(kern, train.X, train.y, ridge)
        n = train.y.shape[0]
        B = gram_matrix(kern, train.X) / n + ridge * np.eye(n)
        v = np.linalg.solve(B, train.y)
        dense_kare = float(v @ v / n) / (np.trace(np.linalg.inv(B)) / n) ** 2
        for col, value in (
            ("train_error", krr.train_error(p, train.y)),
            ("test_risk", krr.test_risk(p, held_out.X, held_out.y)),
            ("kare", dense_kare),
        ):
            gap = abs(value - table[col][i]) / abs(value)
            worst = max(worst, gap)
            if not gap <= RECOMPUTE_RTOL:
                problems.append(
                    f"row {i} {col}: CSV {float(table[col][i])!r} vs recomputed {float(value)!r} "
                    f"(relative gap {gap:.2e} > {RECOMPUTE_RTOL:g})"
                )
    quality["recompute_worst_rel_gap"] = worst
    return problems, quality

