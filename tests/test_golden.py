"""Every sweep and sct column against the golden values in golden.json.

The fixture and the script that regenerates it are tests/golden.py.
"""

import json
import os

import numpy as np
import pytest

import golden
from kare import lapack

_COMMITTED = json.loads(golden.FIXTURE.read_text())


def test_fixture_holds_every_case():
    assert sorted(_COMMITTED) == sorted(golden.CASES)


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_every_column_keeps_its_golden_values(case):
    fresh, committed = golden.values(case), _COMMITTED[case]
    assert list(fresh) == list(committed)
    for column, old in committed.items():
        new = fresh[column]
        assert [v is None for v in new] == [v is None for v in old], column
        np.testing.assert_allclose([v for v in new if v is not None],
                                   [v for v in old if v is not None],
                                   rtol=golden.RTOL, atol=0, err_msg=f"{case}: {column}")


def test_environment_names_the_versions_and_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    line = golden.environment()
    assert line.startswith(f"numpy {np.__version__} scipy ")
    # The OpenBLAS that made the bytes, as a re-pin table records it.
    assert f" kare.lapack {lapack.LIBRARY} OPENBLAS_NUM_THREADS=" in line
    assert line.endswith(f" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
                         f"cpu_count={os.cpu_count()}")


def test_relative_gap():
    assert golden.relative_gap([1.0, None, 0.0], [1.0, None, 0.0]) == 0.0
    assert golden.relative_gap([1.5, 2.0], [1.0, 2.0]) == 0.5
    assert golden.relative_gap([1.0], [None]) == golden.relative_gap([1.0], []) == np.inf
    assert golden.relative_gap([1e-300], [0.0]) == np.inf


def test_compare_exits_1_above_rtol(tmp_path, monkeypatch, capsys):
    fixture = {"sweep-rbf": json.loads(json.dumps(_COMMITTED["sweep-rbf"]))}
    monkeypatch.setattr(golden, "CASES", {"sweep-rbf": golden.CASES["sweep-rbf"]})
    monkeypatch.setattr(golden, "FIXTURE", tmp_path / "golden.json")
    golden.FIXTURE.write_text(json.dumps(fixture))
    assert golden.main(["--compare"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == golden.environment()
    fixture["sweep-rbf"]["kare"][0] *= 1 + 2 * golden.RTOL
    golden.FIXTURE.write_text(json.dumps(fixture))
    assert golden.main(["--compare"]) == 1
    assert "sweep-rbf          kare                     2.000e-09" in capsys.readouterr().out


def test_bench_mode_writes_and_compares_digests_and_gaps(tmp_path, monkeypatch, capsys):
    # The bench-size cases take seconds each, so a stand-in gives their values.
    case = {"sha256": "ab" * 32, "columns": {"kare": [0.5, None], "cv_risk": [2.0, 3.0]}}
    monkeypatch.setattr(golden, "BENCH_CASES", {"sweep-cv-seed0": ("sweep-cv", 0)})
    monkeypatch.setattr(golden, "bench_values", lambda name: json.loads(json.dumps(case)))
    path = tmp_path / "bench.json"
    assert golden.main(["--bench", "--out", str(path)]) == 0
    assert json.loads(path.read_text()) == {"sweep-cv-seed0": case}
    capsys.readouterr()
    assert golden.main(["--bench", "--compare", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [golden.environment(), "sweep-cv-seed0     CSV sha256 matches",
                     "sweep-cv-seed0     kare                     0.000e+00",
                     "sweep-cv-seed0     cv_risk                  0.000e+00"]
    case["sha256"], case["columns"]["cv_risk"][1] = "cd" * 32, 3.0 * (1 + 2 * golden.RTOL)
    assert golden.main(["--bench", "--compare", str(path)]) == 1
    out = capsys.readouterr().out
    assert "sweep-cv-seed0     CSV sha256 differs" in out
    assert "sweep-cv-seed0     cv_risk                  2.000e-09" in out
    with pytest.raises(SystemExit):
        golden.main(["--bench"])
    assert "--bench needs --out FILE or --compare FILE" in capsys.readouterr().err


def test_bench_workloads_load_without_writing_under_bench():
    before = sorted(p.name for p in golden.BENCH.iterdir())
    workloads = golden._bench_workloads()
    assert callable(workloads.prepare) and callable(workloads.call)
    assert sorted(golden.BENCH_CASES) == ["sct-power-law", "sct-rbf-gaussian"] + [
        f"{w}-seed{s}" for w in ("sweep-cv", "sweep-wide") for s in (0, 1, 2)] + [
        f"validate-{suite}-seed{s}" for suite in sorted(workloads.VALIDATE_SUITES)
        for s in (0, 7)]
    assert sorted(p.name for p in golden.BENCH.iterdir()) == before


def test_bench_mode_compares_each_validate_reports_pass_fail_list(tmp_path, monkeypatch, capsys):
    case = golden.bench_values("validate-prop4-seed0")
    assert case["passed"] == [[name, True] for name, _ in case["passed"]] and case["passed"]
    monkeypatch.setattr(golden, "BENCH_CASES", {"validate-prop4-seed0": ["validate"]})
    monkeypatch.setattr(golden, "bench_values", lambda name: json.loads(json.dumps(case)))
    path = tmp_path / "bench.json"
    assert golden.main(["--bench", "--out", str(path)]) == 0
    capsys.readouterr()
    assert golden.main(["--bench", "--compare", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "validate-prop4-seed0 report sha256 matches, pass/fail matches"]
    # Another report with the same verdicts passes; one verdict that flips fails.
    case["sha256"] = "cd" * 32
    assert golden.main(["--bench", "--compare", str(path)]) == 0
    case["passed"][-1][1] = False
    assert golden.main(["--bench", "--compare", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "validate-prop4-seed0 report sha256 differs, pass/fail differs")
