"""One measured call of a benchmark workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED WORKDIR TRACE

Imports kare, writes the workload's generated inputs, parses them, then
makes the workload's one call, so that everything before the call is
set-up a user of the CLI pays too.  Prints one JSON line: the clock
reading when the call began (the parent subtracts its own reading from
before the spawn to get set-up time; on Linux time.perf_counter reads
CLOCK_MONOTONIC, which all processes share), the call's wall time, the peak
resident memory of this process, the call's outcome and, with TRACE=1,
the per-layer metrics.
"""

import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def main(argv) -> int:
    name, seed, workdir, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    job = workloads.prepare(name, seed, workdir)
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    if tracer is None:
        outcome = workloads.call(job)
    else:
        with tracer:
            outcome = workloads.call(job)
    wall = time.perf_counter() - start
    report = {
        "call_start": start,
        "wall_s": wall,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome,
    }
    if tracer is not None:
        report["layers"] = {k: v for k, (v, _) in tracer.metrics().items()}
        report["missing_targets"] = tracer.missing
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
