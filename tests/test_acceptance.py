"""Acceptance suite. One pass/fail line per criterion check (run with -s).

Monte Carlo checks use fixed seeds and tolerances of the form
max(3 * stderr, stated relative tolerance), so the suite is
deterministic.  Stated runtime budgets are asserted with the wall clock.
"""

import math
import os
import time

import numpy as np
import pytest

from kare.sct import rbf_gaussian_spectrum, shell_multiplicity
from kare.validation import run_suite

SEED = 7


def _report(checks, budget=None, elapsed=None):
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    if budget is not None:
        within = elapsed <= budget
        print(f"[{'PASS' if within else 'FAIL'}] runtime {elapsed:.1f}s <= {budget:.0f}s")
        assert within, f"runtime {elapsed:.1f}s exceeded {budget:.0f}s budget"
    assert not failed, "; ".join(f"{c.name}: {c.detail}" for c in failed)


def _timed(name, budget=None):
    start = time.time()
    checks = run_suite(name, SEED)
    _report(checks, budget, time.time() - start)


def test_criterion_1_exact_identities():
    # runtime budget: under a second per identity family
    start = time.time()
    checks = run_suite("identities", SEED)
    elapsed = time.time() - start
    _report(checks, budget=3.0, elapsed=elapsed)


def test_criterion_2_threshold_bounds():
    _timed("prop3", budget=5.0)


def test_criterion_3_power_law_scaling():
    _timed("prop4", budget=10.0)


def test_criterion_4_gram_estimate_consistency():
    _timed("prop5", budget=60.0)


def test_criterion_5_operator_mean():
    _timed("thm1", budget=120.0)


def test_criterion_6_coefficient_variance():
    _timed("thm2", budget=120.0)


def test_criterion_7_expected_risk_and_ratio():
    _timed("thm6", budget=120.0)


def test_criterion_8_score_predicts_risk():
    _timed("kare")


def test_criterion_9_closed_form_spectrum():
    checks = []
    ok = all(
        shell_multiplicity(d, 0) == 1
        and shell_multiplicity(d, 1) == d
        and shell_multiplicity(d, 2) == math.comb(d, 2) + d
        for d in range(1, 11)
    )
    checks.append(("shell multiplicities for dim 1..10", ok, ""))
    spec = rbf_gaussian_spectrum(1, 1.0, 1.0, 10)
    exact = all(
        value == 2.0 ** -(k + 1) and mult == 1
        for k, (value, mult) in enumerate(spec.entries)
    )
    checks.append(("dim=1 eigenvalues equal 2^-(k+1) exactly", exact, ""))
    for name, passed, detail in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert all(passed for _, passed, _ in checks)


def test_criterion_10_random_target_risk():
    _timed("bayes", budget=120.0)


def test_criterion_11_real_data_smoke(tmp_path):
    """Optional: set KARE_SMOKE_CSV (and KARE_SMOKE_LABEL_COLUMN /
    KARE_SMOKE_LABEL_MAP for categorical labels) to run a 12x12 sweep on
    a real dataset and check that the alignment score tracks held-out
    risk."""
    path = os.environ.get("KARE_SMOKE_CSV")
    if not path or not os.path.exists(path):
        pytest.skip("KARE_SMOKE_CSV not set; real-data smoke skipped")
    from scipy.stats import spearmanr
    from kare.cli import SWEEP_COLUMNS, parse_sweep_config, run_sweep

    label_column = os.environ.get("KARE_SMOKE_LABEL_COLUMN", "label")
    label_map = os.environ.get("KARE_SMOKE_LABEL_MAP", "")
    config_lines = [
        "data.type = csv",
        f"data.path = {path}",
        f"data.label_column = {label_column}",
        "data.preprocess = maxabs",
        "data.sentinel_filter = true",
        "data.n = 200",
        "data.test_n = 200",
        "data.seed = 7",
        "kernel.family = rbf",
        "grid.lengthscale = 0.00390625:8:12:log2",
        "grid.ridge = 1e-7:1e2:12:log10",
        "scores.loglik = true",
        "scores.alignment = true",
        f"output = {tmp_path / 'unused.csv'}",
    ]
    if label_map:
        config_lines.append(f"data.label_map = {label_map}")
    cfg_path = str(tmp_path / "kare_smoke.cfg")
    with open(cfg_path, "w") as handle:
        handle.write("\n".join(config_lines) + "\n")
    records = run_sweep(parse_sweep_config(cfg_path))
    assert len(records) == 144
    for column in SWEEP_COLUMNS:
        assert hasattr(records[0], column)
    scores = [r.kare for r in records]
    risks = [r.test_risk for r in records]
    rho = spearmanr(scores, risks).statistic
    print(f"[{'PASS' if rho > 0.7 else 'FAIL'}] smoke: score vs risk Spearman rho = {rho:.3f}")
    assert rho > 0.7
