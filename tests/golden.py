"""Golden values of every sweep and sct column, and the script that makes them.

    python tests/golden.py             # regenerate tests/golden.json
    python tests/golden.py --compare   # largest relative gap per column against it;
                                       # exits 1 if any is above RTOL
    python tests/golden.py --bench --out FILE [--src DIR]
    python tests/golden.py --bench --compare FILE [--src DIR]

Each case runs ``kare sweep`` or ``kare sct`` in-process on a small fixed
input and reads its CSV back.  ``tests/test_golden.py`` checks every
value against ``golden.json`` at ``RTOL`` = 1e-9: far above the last-digit
changes of a reordered computation (about 1e-11 on well-conditioned
cells) and far below a formula error.  Regenerating the fixture is a
deliberate change to the sweep and sct output contracts; run
``--compare`` first and keep its table with the change.  The table's
first line is ``environment()``: the sweep's last digits depend on the
OpenBLAS that kare.lapack bound and on the BLAS thread count.  Run as a
script, it imports kare from the ``src`` next to this directory, or from
``--src DIR``.

``--bench`` runs the bench-size cases instead: the sweep-cv and
sweep-wide workloads of ``bench/workloads.py`` (imported without writing
under ``bench/``) at seeds 0, 1 and 2, the README's two ``kare sct``
commands (rbf-gaussian and power-law), at sizes where BLAS threads, and
``kare validate`` on each suite of the validate-mc workload at seeds 0
and 7.  They take about 15 seconds, so the tests do not run them.
``--out FILE`` writes the CSV values, the pass/fail list of each validate
report and the SHA-256 of every CSV and report; ``--compare FILE`` prints
each column's gap against FILE, whether each digest and each pass/fail
list matches, and exits 1 if a gap is above RTOL or a pass/fail result
differs.  To check that a change keeps the bench-size output, write FILE
with ``--src`` at the parent's ``src``, then compare at the change.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).with_name("golden.json")
BENCH = Path(__file__).resolve().parents[1] / "bench"
RTOL = 1e-9

# 3 lengthscales x 4 ridges at n = 60, with CV, a test set and every score.
_SWEEP = {
    "data.type": "synthetic",
    "data.dim": "3",
    "data.n": "60",
    "data.test_n": "30",
    "data.noise": "0.2",
    "data.seed": "0",
    "grid.lengthscale": "0.5:2:3:log2",
    "grid.ridge": "1e-3:1:4:log10",
    "scores.cv_folds": "4",
    "scores.loglik": "true",
    "scores.alignment": "true",
}
_SCT_GRIDS = ["--n-grid", "20:40:2:log2", "--ridge-grid", "1e-3:1e-1:3:log10",
              "--trials", "3", "--seed", "0"]

# case -> the sct arguments, or the sweep's kernel family
CASES = {
    **{f"sweep-{family}": family for family in ("rbf", "laplacian", "l1exp")},
    "sct-power-law": ["--spectrum", "power-law", "--beta", "2", "--count", "50", *_SCT_GRIDS],
    "sct-rbf-gaussian": ["--spectrum", "rbf-gaussian", "--dim", "3", "--sigma", "1",
                         "--k-max", "10", *_SCT_GRIDS],
}


def values(case: str) -> dict[str, list[float | None]]:
    """The case's CSV as column -> values, an empty cell as None."""
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.csv")
        if isinstance(CASES[case], str):
            config = Path(tmp) / "sweep.cfg"
            keys = {**_SWEEP, "kernel.family": CASES[case], "output": out}
            config.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
            argv = ["sweep", "--config", str(config)]
        else:
            argv = ["sct", *CASES[case], "--out", out]
        _kare(case, argv)
        return _columns(out)


def _kare(case: str, argv: list[str], ok=(0,)) -> str:
    """``kare`` with argv in-process; returns its stdout.  RuntimeError
    naming the case unless it exits with a code in ok."""
    from kare.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(argv) not in ok:
            raise RuntimeError(f"{case}: kare {argv[0]} failed")
    return out.getvalue()


# The suites of bench/workloads.py's validate-mc workload (VALIDATE_SUITES).
_VALIDATE_SUITES = ("identities", "prop3", "prop4", "bayes")

# bench-size case -> (workload, seed) of bench/workloads.py, or the kare
# arguments of one of the README's two `kare sct` commands or of one
# validate report
BENCH_CASES = {
    **{f"{workload}-seed{seed}": (workload, seed)
       for workload in ("sweep-cv", "sweep-wide") for seed in (0, 1, 2)},
    "sct-rbf-gaussian": ["sct", "--spectrum", "rbf-gaussian", "--dim", "5", "--sigma", "1",
                         "--k-max", "50", "--n-grid", "50:1600:6:log2",
                         "--ridge-grid", "1e-4:1:9:log10", "--trials", "10", "--seed", "0"],
    "sct-power-law": ["sct", "--spectrum", "power-law", "--beta", "2", "--count", "100"],
    **{f"validate-{suite}-seed{seed}": ["validate", "--suite", suite, "--seed", str(seed)]
       for suite in _VALIDATE_SUITES for seed in (0, 7)},
}


def bench_values(case: str) -> dict:
    """The bench-size case's output SHA-256, with a CSV's columns or a
    validate report's pass/fail list, as ``{"sha256": ..., "columns":
    {column: values}}`` or ``{"sha256": ..., "passed": [[check, passed]]}``."""
    argv = BENCH_CASES[case]
    if argv[0] == "validate":
        report = _kare(case, argv, ok=(0, 3))
        return {"sha256": hashlib.sha256(report.encode()).hexdigest(),
                "passed": [[c["name"], c["passed"]] for c in json.loads(report)["checks"]]}
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "sct":
            out = str(Path(tmp) / "out.csv")
            _kare(case, [*argv, "--out", out])
        else:
            workloads = _bench_workloads()
            job = workloads.prepare(*argv, Path(tmp))
            workloads.call(job)
            out = job.config.output
        return {"sha256": hashlib.sha256(Path(out).read_bytes()).hexdigest(),
                "columns": _columns(out)}


def _bench_workloads():
    """bench/workloads.py as the module ``bench_workloads``, loaded once
    and without writing bytecode."""
    if "bench_workloads" in sys.modules:
        return sys.modules["bench_workloads"]
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules["bench_workloads"]
        raise
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _columns(path) -> dict[str, list[float | None]]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {column: [float(row[column]) if row[column] else None for row in rows]
            for column in rows[0]}


def environment() -> str:
    """One line: the NumPy and SciPy versions, the library kare.lapack
    bound (its file name, "f2py capsules", or "unnamed" for a kare that
    does not name it), the BLAS thread settings and the core count."""
    import numpy
    import scipy

    from kare import lapack
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"numpy {numpy.__version__} scipy {scipy.__version__} "
            f"kare.lapack {getattr(lapack, 'LIBRARY', 'unnamed')} {threads} "
            f"cpu_count={os.cpu_count()}")


def relative_gap(new: list, old: list) -> float:
    """The largest |new - old| / |old| over one column; inf where the two
    differ in length or in which cells are empty."""
    if len(new) != len(old) or any((a is None) != (b is None) for a, b in zip(new, old)):
        return math.inf
    return max((abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf)
                for a, b in zip(new, old) if b is not None), default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="the bench-size cases, which need --out or --compare")
    parser.add_argument("--out", metavar="FILE", help=f"write to FILE, not {FIXTURE.name}")
    parser.add_argument("--compare", nargs="?", const="", metavar="FILE",
                        help=f"print gaps against FILE (default {FIXTURE.name}) "
                             f"instead of writing it")
    parser.add_argument("--src", metavar="DIR", help="import kare from DIR")
    args = parser.parse_args(argv)
    if args.bench and not (args.out or args.compare):
        parser.error("--bench needs --out FILE or --compare FILE")
    if args.src:
        sys.path.insert(0, str(Path(args.src).resolve()))
    if args.bench:
        fresh = {case: bench_values(case) for case in BENCH_CASES}
    else:
        fresh = {case: values(case) for case in CASES}
    if args.compare is None:
        out = Path(args.out or FIXTURE)
        out.write_text(json.dumps(fresh, indent=1) + "\n")
        import kare
        print(f"wrote {len(fresh)} cases to {out}, with kare from {Path(kare.__file__).parent}")
        return 0
    committed = json.loads(Path(args.compare or FIXTURE).read_text())
    print(environment())
    gaps, verdicts = [], []
    for case, new in fresh.items():
        old = committed.get(case, {})
        if args.bench:
            match = "matches" if new["sha256"] == old.get("sha256") else "differs"
            if "passed" in new:
                verdicts.append(new["passed"] == old.get("passed"))
                print(f"{case:18} report sha256 {match}, pass/fail "
                      f"{'matches' if verdicts[-1] else 'differs'}")
                continue
            print(f"{case:18} CSV sha256 {match}")
            new, old = new["columns"], old.get("columns", {})
        for column, column_values in new.items():
            gaps.append(relative_gap(column_values, old.get(column, [])))
            print(f"{case:18} {column:24} {gaps[-1]:.3e}")
    return 0 if all(gap <= RTOL for gap in gaps) and all(verdicts) else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
