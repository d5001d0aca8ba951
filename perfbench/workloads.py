"""The benchmark's workloads: acceptance-suite protocols run end to end.

Each workload is one protocol call through the public ``mmvgreedy.bench``
API, repeated back to back (a closed loop, one client, ``workers=1``).
Dimensions, solver, step size, batch size, iteration cap, tolerance and
noise levels are those of the acceptance specs in
``tests/test_acceptance.py``, and so is ``trials``, except on the
concatenated workload: 50 of its trials take over a minute, so a call there
runs 2, and a run repeats calls.  Per-trial random streams depend on
(seed, trial) alone, so those 2 are a bit-identical prefix of the
acceptance protocol's 50.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20260810  # the acceptance suite's SEED

_ACCEPTANCE = dict(n=200, m=100, L=40, gamma=1.0, batch_size=1)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # ExperimentSpec fields other than seed
    noise_sweep: tuple = ()  # sigma values for run_sweep; empty -> run_experiment
    # concatenated solvers promise k nonzeros per column, joint ones k rows
    per_column: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # acceptance criterion 02
        Workload(
            "iht-joint-b1",
            dict(_ACCEPTANCE, k=5, algo="mstoiht", max_iter=1000, tol=1e-6,
                 noise_sigma=0.0, trials=50),
        ),
        # acceptance criterion 04, concatenated side
        Workload(
            "gradmp-concat-k60",
            dict(_ACCEPTANCE, k=60, algo="cstogradmp", max_iter=30, tol=0.0,
                 noise_sigma=0.0, trials=2),
            per_column=True,
        ),
        # acceptance criterion 05
        Workload(
            "gradmp-joint-noise-sweep",
            dict(_ACCEPTANCE, k=20, algo="mstogradmp", max_iter=30, tol=1e-6,
                 noise_sigma=0.0, trials=50),
            noise_sweep=(0.0, 0.02, 0.04, 0.06, 0.08),
        ),
    )
}
