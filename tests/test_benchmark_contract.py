"""What the benchmark in perfbench/ needs from the package.

The benchmark wraps public functions in spans where their callers look
them up (``perfbench/measure.py:LAYER_SPANS``) and drives every workload
through ``mmvgreedy.bench``.  Without these tests a renamed or removed
name shows up only as a ``missing`` layer in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from mmvgreedy import bench, solvers, sparsity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_layer_span_target_exists_and_is_restored():
    measure = load_perfbench_module("measure")
    with measure.Patches() as patches:
        missing = measure.install_spans(measure.SpanRecorder(), patches)
        assert solvers.top_k_rows is not sparsity.top_k_rows
    assert missing == []
    assert solvers.top_k_rows is sparsity.top_k_rows
    assert bench.SOLVERS["cstogradmp"] is solvers.cstogradmp


def test_bench_names_the_worker_uses():
    assert "write_csv" in vars(bench.TraceTable)
    assert bench.DivergenceError is solvers.DivergenceError
    for workload in load_perfbench_module("workloads").WORKLOADS.values():
        spec = bench.ExperimentSpec(seed=0, **workload.spec)
        bench.sweep_specs(spec, "noise", workload.noise_sweep)
    spec = bench.ExperimentSpec(n=30, m=20, L=3, k=3, max_iter=5, trials=2, seed=1)
    table = bench.run_experiment(spec, workers=1)
    assert {r.trial for r in table.rows} == set(range(spec.trials))
    assert table.final_rel_errs().shape == table.hit_iterations(1e-2).shape == (2,)
