"""Per-layer tracing for the benchmark, from outside the package.

A Tracer replaces kare's functions at the names their callers look them
up by (for example ``kare.cli.gram_matrix``, ``kare.krr.fit`` and
``kare.synthetic.cho_factor``) with wrappers that record a span per
call: name, start, end and the enclosing span.  Each span's self time is
its duration minus the time of the spans nested in it.  Leaving the
``with`` block puts every original object back, so an untraced call runs
exactly the package's own code.

Targets that no longer exist in the package are skipped and listed in
``Tracer.missing``; their metrics then read 0.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

import numpy as np


def _kernel_work(args, result) -> dict:
    # Entries of the returned matrix, and the float64 bytes of the
    # (rows, cols, d) difference tensor the blocked distance route
    # streams plus the result itself.  Computed from shapes, not measured.
    X = np.asarray(args[1])
    d = X.shape[1] if X.ndim == 2 else 1
    return {
        "kernels.entries": result.size,
        "kernels.bytes_computed": result.size * (d + 1) * 8,
    }


def _rows_loaded(args, result) -> dict:
    return {"data.rows": result.X.shape[0]}


# (owner, attribute, span, counter).  An owner is a module, "module:Class"
# for a method, or "module:DICT" for a dict entry the module looks up.
TARGETS = (
    [("kare.cli", "gram_matrix", "kernels.gram", _kernel_work),
     ("kare.krr", "gram_matrix", "kernels.gram", _kernel_work),
     ("kare.synthetic", "gram_matrix", "kernels.gram", _kernel_work),
     ("kare.cli", "cross_gram", "kernels.cross_gram", _kernel_work),
     ("kare.krr", "cross_gram", "kernels.cross_gram", _kernel_work),
     ("kare.cli", "cross_validation_risk", "estimators.cv", None),
     ("kare.krr", "fit", "krr.fit", None),
     ("kare.krr", "test_risk", "krr.test_risk", None),
     ("kare.krr", "cho_factor", "krr.cholesky", None),
     ("kare.estimators:RidgeScores", "__init__", "estimators.ridge_scores", None),
     ("kare.cli", "classical_alignment", "estimators.alignment", None)]
    + [("kare.estimators:RidgeScores", method, "estimators.score", None)
       for method in ("solve", "kare", "varrho", "train_error", "log_marginal_likelihood")]
    + [(module, name, "spectral.stieltjes", None)
       for module, name in (("kare.sct", "stieltjes"), ("kare.sct", "stieltjes_derivative"),
                            ("kare.synthetic", "stieltjes"), ("kare.validation", "stieltjes"))]
    + [(module, "draw", "synthetic.draw", None)
       for module in ("kare.cli", "kare.synthetic", "kare.validation")]
    + [(module, "exact_risk", "synthetic.exact_risk", None)
       for module in ("kare.synthetic", "kare.validation")]
    + [("kare.synthetic", "cho_factor", "synthetic.cholesky", None),
       ("kare.synthetic", "cho_solve", "synthetic.cho_solve", None)]
    + [(module, "solve_sct", "sct.solve", None)
       for module in ("kare.cli", "kare.estimators", "kare.synthetic", "kare.validation")]
    + [(module, "sct_from_gram", "sct.from_gram", None)
       for module in ("kare.cli", "kare.validation")]
    + [("kare.cli", "load_csv", "data.load", _rows_loaded)]
    + [("kare.cli", name, "data.load", None)
       for name in ("load_mnist_idx", "preprocess_maxabs", "preprocess_mnist",
                    "split_train_test", "subsample")]
    + [("kare.cli", "run_sweep", "cli.sweep", None),
       ("kare.cli", "write_sweep_csv", "cli.write", None)]
)

# The suites the validate-mc workload runs, looked up by run_suite in
# this dict.
SUITES = ("identities", "prop3", "prop4", "bayes")
TARGETS += [("kare.validation:SUITES", suite, f"validation.{suite}", None) for suite in SUITES]

# Per-layer metrics derived from the spans: name, unit, and how to read
# it from (calls, self seconds, total seconds, counters).
LAYER_METRICS = (
    [("kernels.gram_calls", "count", ("calls", "kernels.gram")),
     ("kernels.gram_s", "s", ("self", "kernels.gram")),
     ("kernels.cross_gram_calls", "count", ("calls", "kernels.cross_gram")),
     ("kernels.cross_gram_s", "s", ("self", "kernels.cross_gram")),
     ("kernels.entries", "count", ("counter", "kernels.entries")),
     ("kernels.bytes_computed", "bytes", ("counter", "kernels.bytes_computed")),
     ("estimators.cv_calls", "count", ("calls", "estimators.cv")),
     ("estimators.cv_self_s", "s", ("self", "estimators.cv")),
     ("krr.fit_calls", "count", ("calls", "krr.fit")),
     ("krr.fit_self_s", "s", ("self", "krr.fit")),
     ("krr.test_risk_calls", "count", ("calls", "krr.test_risk")),
     ("krr.test_risk_s", "s", ("self", "krr.test_risk")),
     ("krr.cholesky_calls", "count", ("calls", "krr.cholesky")),
     ("estimators.ridge_scores_calls", "count", ("calls", "estimators.ridge_scores")),
     ("estimators.ridge_scores_s", "s", ("self", "estimators.ridge_scores")),
     ("estimators.score_calls", "count", ("calls", "estimators.score")),
     ("estimators.score_s", "s", ("self", "estimators.score")),
     ("estimators.alignment_s", "s", ("self", "estimators.alignment")),
     ("spectral.stieltjes_calls", "count", ("calls", "spectral.stieltjes")),
     ("spectral.stieltjes_s", "s", ("self", "spectral.stieltjes")),
     ("synthetic.draw_calls", "count", ("calls", "synthetic.draw")),
     ("synthetic.draw_s", "s", ("self", "synthetic.draw")),
     ("synthetic.exact_risk_calls", "count", ("calls", "synthetic.exact_risk")),
     ("synthetic.exact_risk_s", "s", ("self", "synthetic.exact_risk")),
     ("synthetic.cholesky_calls", "count", ("calls", "synthetic.cholesky")),
     ("synthetic.cholesky_s", "s", ("self", "synthetic.cholesky", "synthetic.cho_solve")),
     ("sct.solve_calls", "count", ("calls", "sct.solve")),
     ("sct.solve_s", "s", ("self", "sct.solve")),
     ("sct.from_gram_calls", "count", ("calls", "sct.from_gram")),
     ("sct.from_gram_s", "s", ("self", "sct.from_gram"))]
    # A suite's time includes everything it calls, so the suites split
    # the validate call's wall time.
    + [(f"validation.{suite}_s", "s", ("total", f"validation.{suite}")) for suite in SUITES]
    + [("data.load_s", "s", ("self", "data.load")),
       ("data.rows", "count", ("counter", "data.rows")),
       ("cli.sweep_self_s", "s", ("self", "cli.sweep")),
       ("cli.write_s", "s", ("self", "cli.write"))]
)


def _resolve(owner: str):
    """The module, class or dict named by owner, or None if it is gone."""
    module, _, member = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    return getattr(obj, member, None) if member else obj


def _get(owner, attr):
    if owner is None:
        return None
    return owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Context manager that records spans for every call through TARGETS."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals = []

    def _wrap(self, fn, span: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # id, time spent in nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.spans[span_id] = (span_id, parent, span, start, end)
                    tracer.calls[span] += 1
                    tracer.total_s[span] += duration
                    tracer.self_s[span] += duration - frame[1]
            if counter is not None:
                with tracer._lock:
                    for key, value in counter(args, result).items():
                        tracer.counters[key] += int(value)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner_name, attr, span, counter in TARGETS:
            owner = _resolve(owner_name)
            original = _get(owner, attr)
            if original is None:
                self.missing.append(f"{owner_name}.{attr}")
                continue
            self._originals.append((owner, attr, original))
            _set(owner, attr, self._wrap(original, span, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            _set(owner, attr, original)
        self._originals.clear()
        return False

    def metrics(self) -> dict:
        """Every LAYER_METRICS entry as {name: (value, unit)}."""
        tables = {"calls": self.calls, "self": self.self_s,
                  "total": self.total_s, "counter": self.counters}
        out = {}
        for name, unit, (kind, *spans) in LAYER_METRICS:
            out[name] = (sum(tables[kind][s] for s in spans), unit)
        return out
