"""One workload in one fresh interpreter; prints a JSON result line.

``run.py`` starts this file with BLAS/OpenMP pinned to one thread and
``PYTHONPATH`` pointing at the checkout's ``src``.  Modes:

* ``probe``: set up exactly as a measuring run does, stop at the entry of
  the first trial and report that wall-clock instant (a set-up sample),
  with the host speed that reference passes measure right after it.
* ``measure``: untraced.  Repeat the protocol call until the next call
  would end after ``--seconds``, and report the end-to-end metrics.
  Reference passes (``reference.py``) run between trials, one per quarter
  second of measured time, and are left out of every timing; rates are
  reported per wall second and per reference second.
* ``trace``: the same closed loop over pairs of calls, one untraced and
  one with every layer span installed; report per-layer metrics and the
  tracing overhead.

Every call of a run has the same spec and seed, so it runs the same trials.
Both measuring modes gate correctness: every attempted trial is in the
trace table, every final estimate keeps the workload's sparsity budget,
and every call's trace CSV (timing off) is byte-identical to the first.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from mmvgreedy import bench, linalg
from measure import (
    LAYER_SPANS,
    THREAD_VARS,
    Patches,
    SpanRecorder,
    install_spans,
    lstsq_mflop,
    tail_percentile,
)
from reference import HostGauge
from workloads import WORKLOADS

SETUP_PASSES = 12  # reference passes that gauge the host right after set-up


class SetupDone(Exception):
    """Raised at the first trial of a set-up probe."""


@dataclasses.dataclass
class Outcome:
    """What the benchmark keeps of one solver call."""

    within_budget: bool  # final estimate has <= k nonzero rows (or per column)
    recall: float
    diverged: bool
    iterations: int
    compute_s: float  # the solver's own timed seconds (final elapsed_s)
    span_s: float  # wall seconds of the whole solver call
    tolerance_stop: bool


class Capture:
    """The thin hooks every run keeps: trial entry times, solver outcomes
    and the returned trace tables."""

    def __init__(self, per_column, probe=False, gauge=None):
        self.per_column = per_column
        self.probe = probe
        # gauges the host between trials; None in traced runs
        self.gauge = gauge
        self.setup_gauge = None if gauge is None else HostGauge()
        self.first_trial_wall = None
        self.reset()

    def reset(self):
        self.trial_starts = []
        self.paused_s = []  # benchmark time at each trial's entry, not measured
        self.outcomes = []
        self.tables = []

    def install(self, patches):
        patches.replace(bench, "generate_instance", self._time_trial)
        for algo in list(bench.SOLVERS):
            patches.replace(bench.SOLVERS, algo, self._keep_outcome)
        patches.replace(bench, "run_experiment", self._keep_table)

    def _time_trial(self, generate):
        def generate_instance(spec, trial):
            paused = time.perf_counter()
            if self.first_trial_wall is None:
                self.first_trial_wall = time.time()
                if self.setup_gauge is not None:
                    self.setup_gauge.run(SETUP_PASSES)
                if self.probe:
                    raise SetupDone
            if self.gauge is not None:
                self.gauge.tick()
            start = time.perf_counter()
            self.paused_s.append(start - paused)
            self.trial_starts.append(start)
            return generate(spec, trial)

        return generate_instance

    def _keep_outcome(self, solve):
        def capture(obj, cfg):
            start = time.perf_counter()
            try:
                trace = solve(obj, cfg)
            except bench.DivergenceError as exc:
                self.outcomes.append(Outcome(
                    within_budget=False, recall=0.0, diverged=True,
                    iterations=len(exc.records),
                    compute_s=exc.records[-1].elapsed_s if exc.records else 0.0,
                    span_s=time.perf_counter() - start, tolerance_stop=False,
                ))
                raise
            span_s = time.perf_counter() - start
            within, recall = self._support_check(trace.estimate, cfg)
            self.outcomes.append(Outcome(
                within_budget=within, recall=recall if within else 0.0,
                diverged=False, iterations=trace.iterations,
                compute_s=trace.final_record.elapsed_s, span_s=span_s,
                tolerance_stop=trace.stop_reason == "tolerance",
            ))
            return trace

        return capture

    def _support_check(self, X, cfg):
        true_rows = np.flatnonzero(np.any(cfg.ground_truth != 0, axis=1))
        if self.per_column:
            supports = [np.flatnonzero(X[:, j]) for j in range(X.shape[1])]
        else:
            supports = [np.flatnonzero(np.any(X != 0, axis=1))]
        within = all(s.size <= cfg.k for s in supports)
        recall = statistics.fmean(
            np.intersect1d(s, true_rows).size / cfg.k for s in supports
        )
        return within, recall

    def _keep_table(self, run_experiment):
        def keep(spec, workers=1):
            table = run_experiment(spec, workers=workers)
            self.tables.append(table)
            return table

        return keep


@dataclasses.dataclass
class Call:
    """One protocol call: timing, output digest and correctness findings."""

    wall_s: float
    trial_s: list
    csv_sha256: str
    csv_bytes: int
    outcomes: list
    divergences: int
    problems: list
    final_rel_errs: object = None  # kept only when quality is asked for
    hit_iterations: object = None

    @property
    def failed(self):
        return sum(o.diverged or not o.within_budget for o in self.outcomes)


def protocol_call(workload, spec, capture, out_dir, quality=False):
    """Run the workload's protocol once, timing each trial.

    The benchmark's own work at trial entries (``capture.paused_s``) is
    left out of the call's and the trials' times.  The trace tables are
    dropped on return, so memory does not grow with the number of calls in
    a run.
    """
    capture.reset()
    start = time.perf_counter()
    if workload.noise_sweep:
        paths = bench.run_sweep(spec, "noise", workload.noise_sweep, out_dir)
        end = time.perf_counter()
        csv_text = "".join(Path(p).read_text() for p in paths)
    else:
        table = bench.run_experiment(spec)
        end = time.perf_counter()
        csv_text = table.to_csv_text()
        del table
    tables = capture.tables
    starts = capture.trial_starts
    ends = [b - p for b, p in zip(starts[1:], capture.paused_s[1:])] + [end]
    csv_bytes = csv_text.encode()
    call = Call(
        wall_s=end - start - sum(capture.paused_s),
        trial_s=[b - a for a, b in zip(starts, ends)],
        csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
        csv_bytes=len(csv_bytes),
        outcomes=list(capture.outcomes),
        divergences=sum(len(t.divergences) for t in tables),
        problems=check_call(workload, spec, tables, capture),
    )
    if quality:
        call.final_rel_errs = np.concatenate([t.final_rel_errs() for t in tables])
        call.hit_iterations = np.concatenate([t.hit_iterations(1e-2) for t in tables])
    capture.reset()
    return call


def check_call(workload, spec, tables, capture):
    """Every correctness check one protocol call fails, as messages."""
    problems = []
    expected_tables = max(1, len(workload.noise_sweep))
    attempted = spec.trials * expected_tables
    if len(capture.trial_starts) != attempted or len(tables) != expected_tables:
        problems.append(
            f"expected {attempted} trials in {expected_tables} tables, got "
            f"{len(capture.trial_starts)} trials in {len(tables)} tables"
        )
    for table in tables:
        seen = {r.trial for r in table.rows}
        if seen != set(range(table.spec.trials)):
            problems.append(
                f"trace table has trials {sorted(seen)}, "
                f"expected 0..{table.spec.trials - 1}"
            )
    over = sum(not o.within_budget and not o.diverged for o in capture.outcomes)
    if over:
        unit = "nonzeros in a column" if workload.per_column else "nonzero rows"
        problems.append(f"{over} final estimates have more than k={spec.k} {unit}")
    return problems


def closed_loop(seconds, run_once):
    """run_once(i) for i = 0, 1, ... back to back, until the next run is
    predicted to end more than `seconds` after the first one began."""
    began = time.perf_counter()
    results = [run_once(0)]
    while (time.perf_counter() - began) * (len(results) + 1) / len(results) <= seconds:
        results.append(run_once(len(results)))
    return results


def check_identical(calls):
    """Calls with one spec and seed must give byte-identical trace CSVs,
    traced or not."""
    for i, call in enumerate(calls[1:], 1):
        if call.csv_sha256 != calls[0].csv_sha256:
            call.problems.append(
                f"call {i} trace CSV differs from call 0 on the same seed"
            )


def measure(workload, spec, seconds, capture, out_dir):
    """Untraced closed loop of identical protocol calls; end-to-end metrics."""
    calls = closed_loop(
        seconds,
        lambda i: protocol_call(workload, spec, capture, out_dir, quality=i == 0),
    )
    check_identical(calls)
    first = calls[0]
    trial_s = [t for c in calls for t in c.trial_s]
    attempted = len(trial_s)
    failed = sum(c.failed for c in calls)
    if not capture.gauge.pass_s:  # a run too short to reach a pass
        capture.gauge.run(1)
    wall_s = sum(c.wall_s for c in calls)
    speed = capture.gauge.speed()
    metrics = {
        "trials_per_ref_s": attempted / (wall_s * speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_rel_err_p50": float(np.median(first.final_rel_errs)),
        "support_recall_mean": statistics.fmean(o.recall for o in first.outcomes),
    }
    tail = tail_percentile(trial_s)
    detail = {
        "trials_per_s": attempted / wall_s,
        "host_speed": speed,
        "reference_passes": len(capture.gauge.pass_s),
        "reference_pass_s_p50": statistics.median(capture.gauge.pass_s),
        "trial_s_p50": statistics.median(trial_s),
        "trial_s_tail": (
            None if tail is None
            else {"percentile": tail[0], "value": tail[1], "samples": attempted}
        ),
        "failed_frac": failed / attempted,
        "divergences": first.divergences,
        "trace_sha256": first.csv_sha256,
        "call_wall_s": [c.wall_s for c in calls],
        "call_trial_s": [c.trial_s for c in calls],
    }
    return calls, attempted, failed, metrics, detail


def trace(workload, spec, seconds, capture, out_dir):
    """Untraced and traced protocol calls in turn; per-layer metrics.

    Span metrics are per traced call.  Solver diagnostics come from the
    first untraced call, so span overhead stays out of the timed/untimed
    split.
    """
    recorder = SpanRecorder()
    solves = {"calls": 0, "wide": 0, "mflop": 0.0}

    def observe_solve(A_sub, Y):
        m, s = A_sub.shape
        solves["calls"] += 1
        solves["wide"] += s >= m
        solves["mflop"] += lstsq_mflop(m, s, Y.shape[1])

    def call_pair(i):
        plain = protocol_call(workload, spec, capture, out_dir, quality=i == 0)
        with Patches() as spans:
            missing[:] = install_spans(
                recorder, spans, observers={"linalg.least_squares_solve": observe_solve}
            )
            traced = protocol_call(workload, spec, capture, out_dir)
        return plain, traced

    missing = []
    pairs = closed_loop(seconds, call_pair)
    plain, traced = (list(side) for side in zip(*pairs))
    check_identical([call for pair in pairs for call in pair])
    per_call = 1 / len(traced)

    metrics = {}
    for span, *_ in LAYER_SPANS:
        if span not in missing:
            metrics[f"{span}.calls"] = recorder.calls[span] * per_call
            metrics[f"{span}.self_s"] = recorder.self_s[span] * per_call
    if "linalg.least_squares_solve" not in missing:
        n = solves["calls"]
        metrics["linalg.least_squares_solve.wide_frac"] = solves["wide"] / n if n else 0.0
        metrics["linalg.least_squares_solve.mflop_computed"] = solves["mflop"] * per_call
    first = plain[0]
    compute_s = sum(o.compute_s for o in first.outcomes)
    metrics |= {
        "solvers.iterations": sum(o.iterations for o in first.outcomes),
        "solvers.compute_s": compute_s,
        "solvers.untimed_frac": 1 - compute_s / sum(o.span_s for o in first.outcomes),
        "solvers.tolerance_stop_frac": statistics.fmean(
            o.tolerance_stop for o in first.outcomes
        ),
        "solvers.hit_iter_1e-2_p50": float(np.median(first.hit_iterations)),
        "bench.csv_bytes": first.csv_bytes,
        "trace.overhead_frac": (
            sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain) - 1
        ),
    }
    detail = {
        "missing": missing,
        "untraced_wall_s": [c.wall_s for c in plain],
        "traced_wall_s": [c.wall_s for c in traced],
        "trace_sha256": first.csv_sha256,
    }
    calls = plain + traced
    attempted = sum(len(c.trial_s) for c in calls)
    return calls, attempted, sum(c.failed for c in calls), metrics, detail


def manifest(workload, spec, calls):
    blas = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_config": {
            lib: info.get("openblas configuration") for lib, info in blas.items()
        },
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "spec": dataclasses.asdict(spec),
        "noise_sweep": list(workload.noise_sweep),
        "trials_per_call": spec.trials * max(1, len(workload.noise_sweep)),
        "protocol_calls": len(calls),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    # run_sweep writes its CSVs here; run.py removes it
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    # the first LAPACK call belongs to set-up, not to the first trial
    linalg.least_squares_solve(np.eye(2), np.ones((2, 1)))
    spec = bench.ExperimentSpec(seed=args.seed, **workload.spec)
    capture = Capture(
        workload.per_column, probe=args.mode == "probe",
        gauge=None if args.mode == "trace" else HostGauge(),
    )
    with Patches() as patches:
        capture.install(patches)
        if args.mode == "probe":
            try:
                protocol_call(workload, spec, capture, args.scratch)
            except SetupDone:
                pass
            print(json.dumps({
                "first_trial_wall": capture.first_trial_wall,
                "setup_speed": capture.setup_gauge.speed(),
            }))
            return 0
        if args.mode == "measure":
            out = measure(workload, spec, args.seconds, capture, args.scratch)
        else:
            out = trace(workload, spec, args.seconds, capture, args.scratch)
    calls, attempted, failed, metrics, detail = out
    problems = [p for c in calls for p in c.problems]
    print(json.dumps({
        "first_trial_wall": capture.first_trial_wall,
        "setup_speed": (
            None if capture.setup_gauge is None else capture.setup_gauge.speed()
        ),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "manifest": manifest(workload, spec, calls),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
