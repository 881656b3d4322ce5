"""Benchmark for kare: sweeps with and without cross-validation, and the
Monte Carlo validation suites.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports kare from the
checkout's src/ and exits 2 without a result if that is missing.  Every
sample is one call of the workload in a fresh process (bench/child.py),
pinned with KARE_THREADS=1 and the default BLAS threads.  Samples are
taken one after another until the next one would end after S seconds,
with a floor on the sample count.

--trace 0 reports the end-to-end metrics: median call wall time, median
set-up time (process start to call start) and median peak resident
memory.  --trace 1 spends the same S seconds on three sets of samples:
untraced, traced (bench/tracer.py) and with KARE_THREADS unset, and
reports the per-layer metrics, the tracing overhead and the thread-pool
speed-up.

Every output is checked (see bench/workloads.py); a sample whose output
is wrong counts as failed.  Human-readable lines come first; the last
line of standard output is the JSON result.  The full record, with
provenance and every sample, goes to .bench_work/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# A run must end within 180 s; no sample may run past this many seconds
# after the run began, which leaves time for the checks.
DEADLINE_S = 160
_START = time.perf_counter()


def run_child(name: str, seed: int, workdir: Path, trace: bool, env: dict) -> dict:
    """Spawn one sample; returns its report with set-up time and problems."""
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed), str(workdir),
           "1" if trace else "0"]
    spawn = time.perf_counter()
    timeout = max(1.0, _START + DEADLINE_S - spawn)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"call did not finish within {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"problems": [f"exit code {proc.returncode}: {tail[0]}"]}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["call_start"] - spawn
    report["problems"] = []
    return report


def run_phase(name, seed, workdir, trace, env, budget_s, min_samples) -> list[dict]:
    """Samples until the next would end after budget_s, or a sample's process fails."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(run_child(name, seed, workdir, trace, env))
        elapsed = time.perf_counter() - start
        if samples[-1]["problems"] and "wall_s" not in samples[-1]:
            return samples
        if len(samples) >= min_samples and elapsed * (len(samples) + 1) / len(samples) > budget_s:
            return samples


def provenance(seed: int, trace: int) -> dict:
    import numpy
    import scipy

    import kare

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "kare_version": kare.__version__,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "KARE_THREADS": "1, unset in the auto samples" if trace else "1",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_outputs(workloads, name: str, seed: int, workdir: Path, samples: list) -> dict:
    """Add each sample's output problems to it; return the sweep quality."""
    outcomes = [s["outcome"] for s in samples if "outcome" in s]
    for s in samples:
        if "outcome" in s:
            s["problems"].extend(workloads.output_problems(s["outcome"]))
    digests = [o["sha256"] for o in outcomes if "sha256" in o]
    if not digests:
        return {}
    # Every sweep call must write the same bytes; the last one written is
    # then checked against independent routes.
    for s in samples:
        if s.get("outcome", {}).get("sha256", digests[0]) != digests[0]:
            s["problems"].append("CSV bytes differ from the first call's")
    try:
        job = workloads.prepare(name, seed, workdir)
        run_problems, quality = workloads.verify_sweep(job, digests[0])
    except Exception:  # a malformed output must fail the run, not crash it
        run_problems, quality = [traceback.format_exc().strip().splitlines()[-1]], {}
    for s in samples:
        s["problems"].extend(run_problems)
    return quality


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kare" / "__init__.py").is_file():
        print(f"error: no kare package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    pinned = {**os.environ, "PYTHONPATH": str(SRC), "KARE_THREADS": "1"}
    auto = {k: v for k, v in pinned.items() if k != "KARE_THREADS"}

    def phase(trace, env, share, floor):
        return run_phase(args.workload, args.seed, workdir, trace, env,
                         args.seconds * share, floor)

    if args.trace:
        phases = {"pinned": phase(False, pinned, 1 / 3, 2),
                  "traced": phase(True, pinned, 1 / 3, 1),
                  "auto": phase(False, auto, 1 / 3, 2)}
    else:
        phases = {"pinned": phase(False, pinned, 1.0, 3)}
    samples = [s for group in phases.values() for s in group]
    measured = {k: [s for s in group if "wall_s" in s] for k, group in phases.items()}
    if not all(measured.values()):
        for s in samples:
            print("; ".join(s["problems"]), file=sys.stderr)
        print("error: a set of samples produced no measurement", file=sys.stderr)
        return 1

    quality = check_outputs(workloads, args.workload, args.seed, workdir, samples)
    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])

    pinned_samples = measured["pinned"]
    wall_s = _median(pinned_samples, "wall_s")
    summary = {
        "wall_s": (wall_s, "s"),
        "setup_s": (_median([s for g in measured.values() for s in g], "setup_s"), "s"),
        "peak_rss_mb": (_median(pinned_samples, "peak_rss_mb"), "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
        **{k: (v, "ratio") for k, v in quality.items()},
    }
    if args.trace:
        traced, auto_samples = measured["traced"], measured["auto"]
        # median_low keeps counts whole: it returns one sample's value.
        layers = {name: (statistics.median_low(s["layers"][name] for s in traced), unit)
                  for name, unit, _ in tracer.LAYER_METRICS}
        layers["trace.overhead_s"] = (_median(traced, "wall_s") - wall_s, "s")
        layers["cli.pool_speedup"] = (wall_s / _median(auto_samples, "wall_s"), "ratio")
        layers["cli.pool_rss_pinned_mb"] = summary["peak_rss_mb"]
        layers["cli.pool_rss_auto_mb"] = (_median(auto_samples, "peak_rss_mb"), "MB")
        reported = layers
    else:
        reported = {k: summary[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}

    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, args.trace),
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "attempted": attempted,
        "failed": failed,
        "missing_trace_targets": sorted({t for s in samples for t in s.get("missing_targets", [])}),
        "samples": {k: group for k, group in phases.items()},
    }
    WORK.mkdir(exist_ok=True)
    out = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    walls = sorted(s["wall_s"] for s in pinned_samples)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} calls, "
          f"{failed} failed; wall_s over {len(walls)} pinned calls: "
          f"min {walls[0]:.4f} median {wall_s:.4f} max {walls[-1]:.4f} s")
    for name, (value, unit) in {**summary, **reported}.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for problem in sorted({p for s in samples for p in s["problems"]}):
        print(f"  FAILED: {problem}")
    for target in record["missing_trace_targets"]:
        print(f"  not traced, no longer in kare: {target}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
