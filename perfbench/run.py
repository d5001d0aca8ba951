"""Outside-in benchmark of mmvgreedy's acceptance protocols.

Usage (from the repository root):

    python3 perfbench/run.py --workload iht-joint-b1 --seed 20260810 \\
        --seconds 35 --trace 0

``--workload all`` (the default) runs every workload in turn and prints
each one's metrics.  With one workload the last line of standard output is
a JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A manifest (versions, BLAS, thread settings, spec, seed, commit) and the
details behind the metrics are written to ``.perfbench/results/``.

Every workload process is a fresh interpreter with BLAS/OpenMP pinned to
one thread before numpy loads, importing the package from ``src``.  An
untraced run first starts ``SETUP_PROBES`` interpreters that stop at their
first trial; ``setup_s`` is the median of their set-up times and the
measuring process's own, each in reference seconds (``reference.py``).
The exit code is 1 when a correctness check fails and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import E2E_UNITS, PER_LAYER_UNITS, THREAD_VARS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 4
PROCESS_BUDGET_S = 170.0  # every child of one workload run, together


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and found a fault)."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(workload, seed, seconds, mode, deadline):
    """Start worker.py in a fresh interpreter; return (spawn wall time, result)."""
    scratch = STATE / "tmp" / f"{workload}-{os.getpid()}-{mode}"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--scratch", str(scratch),
    ]
    spawned = time.time()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} process ran out of time") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name, seed, seconds, traced):
    """One workload run: its result, in the printed shape plus details."""
    deadline = time.monotonic() + PROCESS_BUDGET_S
    if traced:
        _, res = run_child(name, seed, seconds, "trace", deadline)
    else:
        children = [run_child(name, seed, seconds, "probe", deadline)
                    for _ in range(SETUP_PROBES)]
        children.append(run_child(name, seed, seconds, "measure", deadline))
        res = children[-1][1]
        wall = [out["first_trial_wall"] - spawned for spawned, out in children]
        speed = [out["setup_speed"] for _, out in children]
        res["metrics"]["setup_s"] = statistics.median(
            w * v for w, v in zip(wall, speed)
        )
        res["detail"] |= {"setup_wall_s_samples": wall, "setup_speed_samples": speed}
    res["manifest"] |= {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "setup_probes": 0 if traced else SETUP_PROBES,
    }
    return res


def report(name, res, unit_of):
    """Human-readable metrics of one workload run, one per line."""
    lines = [f"== {name}: correct={res['correct']} attempted={res['attempted']} "
             f"failed={res['failed']}"]
    lines += [f"  problem: {p}" for p in res["problems"]]
    for metric, value in sorted(res["metrics"].items()):
        lines.append(f"  {metric:44s} {value:.6g} {unit_of[metric]}")
    detail = res["detail"]
    if "failed_frac" in detail:
        lines.append(f"  {'trials_per_s':44s} {detail['trials_per_s']:.6g} 1/s "
                     f"(host speed {detail['host_speed']:.4g} of reference)")
        lines.append(f"  {'trial_s_p50':44s} {detail['trial_s_p50']:.6g} s")
        lines.append(f"  {'failed_frac':44s} {detail['failed_frac']:.6g} frac")
        tail = detail["trial_s_tail"]
        lines.append(
            f"  {'trial_s_tail':44s} " + (
                "omitted (fewer than 10 trials beyond p80)" if tail is None else
                f"{tail['value']:.6g} s (p{tail['percentile']:g} of "
                f"{tail['samples']} trials)"
            )
        )
    if detail.get("missing"):
        lines.append("  missing layers (name no longer found): "
                     + ", ".join(detail["missing"]))
    lines.append(f"  trace_sha256 {detail['trace_sha256']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM ends the run through an exception, so subprocess.run kills
    # and reaps the worker instead of leaving it running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if not (ROOT / "src" / "mmvgreedy" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'mmvgreedy'}",
              file=sys.stderr)
        return 2
    unit_of = PER_LAYER_UNITS if args.trace else E2E_UNITS
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, res in results.items():
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        print(report(name, res, unit_of))
        print(f"  manifest and details: {path.relative_to(ROOT)}")
    if len(results) == 1:
        (res,) = results.values()
        print(json.dumps({
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                metric: {"value": value, "unit": unit_of[metric]}
                for metric, value in res["metrics"].items()
            },
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
