"""Tests for the benchmark's tracer and its metric table.

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from kare import cli  # noqa: E402

RUN_LEVEL = ("trace.overhead_s", "cli.pool_speedup", "cli.pool_rss_pinned_mb",
             "cli.pool_rss_auto_mb")


def _tiny_cv_config(tmp_path, lengthscales: int, ridges: int):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "data.type = synthetic\ndata.n = 12\ndata.test_n = 6\ndata.dim = 2\n"
        "kernel.family = rbf\n"
        f"grid.lengthscale = 0.5:1:{lengthscales}:log2\n"
        f"grid.ridge = 1e-2:1e-1:{ridges}:log10\n"
        "scores.cv_folds = 2\n"
        f"output = {tmp_path / 'out.csv'}\n"
    )
    return cli.parse_sweep_config(str(path))


@pytest.mark.parametrize("lengthscales, ridges", [(1, 2), (2, 1)])
def test_counts_on_two_fold_two_cell_sweep(tmp_path, monkeypatch, lengthscales, ridges):
    # Each of the 2 cells fits 2 folds: 4 fits, each building one fold
    # Gram and one Cholesky factor, plus one full Gram per lengthscale.
    monkeypatch.setenv("KARE_THREADS", "1")
    cfg = _tiny_cv_config(tmp_path, lengthscales, ridges)
    with tracer.Tracer() as tr:
        cli.write_sweep_csv(cli.run_sweep(cfg), cfg.output)
    m = {name: value for name, (value, _) in tr.metrics().items()}
    assert tr.missing == []
    assert m["krr.fit_calls"] == 4
    assert m["krr.cholesky_calls"] == 4
    assert m["kernels.gram_calls"] == 4 + lengthscales
    assert m["kernels.cross_gram_calls"] == 4 + lengthscales
    assert m["estimators.cv_calls"] == 2
    assert m["estimators.ridge_scores_calls"] == lengthscales
    assert m["kernels.entries"] == 4 * (6 * 6 + 6 * 6) + lengthscales * (12 * 12 + 6 * 12)
    for span, self_s in tr.self_s.items():
        assert 0.0 <= self_s <= tr.total_s[span] + 1e-9


def test_untraced_names_are_the_original_objects():
    def current():
        out = []
        for owner_name, attr, _, _ in tracer.TARGETS:
            owner = tracer._resolve(owner_name)
            out.append(tracer._get(owner, attr))
        return out

    before = current()
    with tracer.Tracer() as tr:
        during = current()
    after = current()
    present = [i for i, obj in enumerate(before) if obj is not None]
    assert len(present) == len(before) - len(tr.missing)
    assert all(during[i] is not before[i] for i in present)
    assert all(after[i] is before[i] for i in range(len(before)))


def test_benchmark_file_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [name for name, _, _ in tracer.LAYER_METRICS] + list(RUN_LEVEL)
    import workloads

    assert tracer.SUITES == workloads.VALIDATE_SUITES
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(workloads.WORKLOADS.values())
