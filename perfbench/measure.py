"""Measurement primitives with no dependency on the measured program.

* ``Patches`` replaces a name where its caller looks it up (a module
  global, a class attribute or a dict entry) and puts every name back.
* ``SpanRecorder`` wraps functions in spans and folds them, as they close,
  into per-name call counts and self times.  A span's self time is its
  duration minus the durations of the spans it directly encloses; the
  benchmark is single-threaded, so child spans never overlap.
* ``LAYER_SPANS`` names the public functions of each layer, at the place
  its caller finds them, and ``install_spans`` wraps every one that still
  exists, reporting the others as missing instead of failing.
* ``tail_percentile`` picks the highest percentile that still has enough
  samples beyond it to mean something.
* ``E2E_UNITS`` and ``PER_LAYER_UNITS`` name every metric the JSON line
  carries, with its unit; ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module, attribute path inside the module, name or "*" for every
# dict entry).  Each entry patches the namespace the *caller* reads, so a
# name imported with "from .x import f" is patched in the importing module.
LAYER_SPANS = (
    ("linalg.least_squares_solve", "mmvgreedy.objective", "", "least_squares_solve"),
    ("linalg.draw_index", "mmvgreedy.solvers", "", "draw_index"),
    ("objective.batch_grad", "mmvgreedy.objective", "MmvObjective", "batch_grad"),
    ("objective.column_grad", "mmvgreedy.objective", "MmvObjective", "column_grad"),
    ("objective.restricted_argmin", "mmvgreedy.objective", "MmvObjective",
     "restricted_argmin"),
    ("objective.restricted_column_argmin", "mmvgreedy.objective", "MmvObjective",
     "restricted_column_argmin"),
    ("objective.restricted_value", "mmvgreedy.objective", "MmvObjective",
     "restricted_value"),
    ("sparsity.top_k_rows", "mmvgreedy.solvers", "", "top_k_rows"),
    ("sparsity.top_k_indices", "mmvgreedy.solvers", "", "top_k_indices"),
    ("sparsity.project_rows", "mmvgreedy.solvers", "", "project_rows"),
    ("sparsity.support_union", "mmvgreedy.solvers", "", "support_union"),
    ("sparsity.row_support", "mmvgreedy.solvers", "", "row_support"),
    ("solvers.solve", "mmvgreedy.bench", "SOLVERS", "*"),
    ("bench.generate_instance", "mmvgreedy.bench", "", "generate_instance"),
    ("bench.run_experiment", "mmvgreedy.bench", "", "run_experiment"),
    ("bench.write_csv", "mmvgreedy.bench", "TraceTable", "write_csv"),
)

# gated in BENCHMARK.json; trials_per_s (per wall second), trial_s_p50,
# trial_s_tail and failed_frac are printed and recorded beside them
# (perfbench/README.md says why)
E2E_UNITS = {
    "trials_per_ref_s": "1/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "final_rel_err_p50": "ratio",
    "support_recall_mean": "ratio",
}

_SPAN_UNITS = {"calls": "count", "self_s": "s"}
_EXTRA_LAYER_UNITS = {
    "linalg.least_squares_solve.wide_frac": "frac",
    "linalg.least_squares_solve.mflop_computed": "Mflop",
    "solvers.iterations": "count",
    "solvers.compute_s": "s",
    "solvers.untimed_frac": "frac",
    "solvers.tolerance_stop_frac": "frac",
    "solvers.hit_iter_1e-2_p50": "iter",
    "bench.csv_bytes": "B",
    "trace.overhead_frac": "frac",
}
PER_LAYER_UNITS = {
    f"{span}.{field}": unit
    for span, *_ in LAYER_SPANS
    for field, unit in _SPAN_UNITS.items()
} | _EXTRA_LAYER_UNITS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# percentiles in tenths, highest first
_TAIL_LADDER = (999, 990, 950, 900, 800)


class Patches:
    """Replace names in modules, classes and dicts; ``restore`` undoes all."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, key, make):
        """Set owner's key to make(current value); KeyError if it is absent."""
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = make(old)
            self._undo.append(lambda: owner.__setitem__(key, old))
            return
        # vars() gives a class's plain function, not a bound method
        old = vars(owner)[key]
        setattr(owner, key, make(old))
        self._undo.append(lambda: setattr(owner, key, old))

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class SpanRecorder:
    """Per-name call counts and self times of nested, wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open = []  # child time accumulated by each open span
        self.calls = {}
        self.self_s = {}

    def wrap(self, name, fn, observe=None):
        """Return fn wrapped in a span called name.

        observe, if given, sees every call's arguments before fn runs.
        """
        clock, open_spans = self._clock, self._open
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]

        return span


def resolve(module, path):
    """The object at a dotted attribute path inside an importable module."""
    obj = importlib.import_module(module)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


def install_spans(recorder, patches, spans=LAYER_SPANS, observers=None):
    """Wrap every span target that exists; return the names of the others."""
    observers = observers or {}
    missing = []
    for name, module, path, key in spans:
        try:
            owner = resolve(module, path)
            keys = list(owner) if key == "*" else [key]
            if not keys:
                raise KeyError(key)
            for k in keys:
                patches.replace(
                    owner, k,
                    lambda fn, name=name: recorder.wrap(name, fn, observers.get(name)),
                )
        except (ImportError, AttributeError, KeyError, TypeError):
            missing.append(name)
    return missing


def lstsq_mflop(m, s, nrhs):
    """Computed Mflop of a min-norm least-squares solve of an m x s system.

    A Householder model of a complete orthogonal factorization: QR of the
    m x s block, an RZ step when the system is wide (s > m), and the
    transforms and triangular solve applied to nrhs right-hand sides.  It
    ignores pivoting and any rank-deficient retry; it counts operand
    shapes, not measured work.
    """
    r = min(m, s)
    flops = 2 * m * s * r - 2 * r**3 / 3 + (4 * m * r - r * r) * nrhs
    if s > m:
        flops += 4 * m * m * (s - m) + 4 * (s - m) * m * nrhs
    return flops / 1e6


def tail_percentile(samples, beyond=10):
    """(percentile, value) of the highest tail percentile with at least
    ``beyond`` samples above it, by nearest rank; None if there is none.

    The ladder is p99.9, p99, p95, p90, p80: 50 samples give p80 and 10
    give none.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for tenths in _TAIL_LADDER:
        rank = -(-tenths * n // 1000)  # ceil(p/100 * n) in integers
        if rank >= 1 and n - rank >= beyond:
            return tenths / 10, ordered[rank - 1]
    return None
