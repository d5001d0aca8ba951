import collections.abc
import dataclasses
import statistics

import numpy as np
import pytest

from mmvgreedy.bench import (
    CSV_HEADER,
    TRACE_DTYPE,
    ExperimentSpec,
    add_noise,
    gaussian_sensing_matrix,
    generate_instance,
    row_sparse_signal,
    run_experiment,
    run_sweep,
    sweep_specs,
)
from mmvgreedy.linalg import RngStream, derive_seed
from mmvgreedy.solvers import SolverConfig
from mmvgreedy.sparsity import row_support


def small_spec(**overrides):
    base = dict(
        n=30, m=20, L=3, k=3, noise_sigma=0.0, algo="mstoiht",
        batch_size=1, gamma=1.0, max_iter=8, tol=0.0, trials=3, seed=42,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_sensing_matrix_columns_are_normalized():
    A = gaussian_sensing_matrix(100, 200, RngStream(1, (0,)))
    np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)


def test_sensing_matrix_deterministic():
    A = gaussian_sensing_matrix(10, 20, RngStream(7, (3,)))
    B = gaussian_sensing_matrix(10, 20, RngStream(7, (3,)))
    np.testing.assert_array_equal(A, B)
    for m, n in ((0, 20), (10, 0)):
        with pytest.raises(ValueError):
            gaussian_sensing_matrix(m, n, RngStream(7, (3,)))


def test_sensing_matrix_entry_statistics():
    # entries are drawn with variance 1/m (=1/100 here); normalization is
    # close to neutral, so pooled post-normalization moments stay near that
    means, variances = [], []
    for seed in range(50):
        A = gaussian_sensing_matrix(100, 200, RngStream(seed, (0,)))
        means.append(A.mean())
        variances.append(A.var())
    assert abs(np.mean(means)) < 0.01
    assert abs(np.mean(variances) - 0.01) < 0.002


def test_signal_full_support_when_k_equals_n():
    X = row_sparse_signal(6, 3, 6, RngStream(2, (0,)))
    assert len(row_support(X)) == 6


def test_signal_row_sparsity_is_exact():
    for k in (1, 4, 9):
        X = row_sparse_signal(12, 5, k, RngStream(3, (k,)))
        assert len(row_support(X)) == k
    for L, k in ((5, 0), (5, 13), (0, 4)):
        with pytest.raises(ValueError):
            row_sparse_signal(12, L, k, RngStream(3, (0,)))


def test_signal_support_is_uniform():
    counts = np.zeros(10)
    rng = RngStream(4, (0,))
    for _ in range(2000):
        X = row_sparse_signal(10, 1, 2, rng)
        counts[row_support(X).as_array()] += 1
    np.testing.assert_allclose(counts / 2000, 0.2, atol=0.03)


def test_add_noise_zero_sigma_is_identity():
    Y = RngStream(5, (0,)).standard_normal((4, 3))
    np.testing.assert_array_equal(add_noise(Y, 0.0, RngStream(6, (0,))), Y)
    for sigma in (-0.1, np.nan, np.inf, True, False):
        with pytest.raises(ValueError, match="sigma must be a finite nonnegative real"):
            add_noise(Y, sigma, RngStream(6, (0,)))


def test_add_noise_variance():
    Y = np.zeros((100, 40))
    levels = []
    for seed in range(10):
        out = add_noise(Y, 0.02, RngStream(seed, (1,)))
        levels.append((out**2).mean())
    assert np.mean(levels) == pytest.approx(4e-4, rel=0.3)


def test_add_noise_deterministic():
    Y = np.ones((3, 3))
    a = add_noise(Y, 0.5, RngStream(9, (0,)))
    b = add_noise(Y, 0.5, RngStream(9, (0,)))
    np.testing.assert_array_equal(a, b)


def test_trace_table_shape_single_trial_single_iter():
    table = run_experiment(small_spec(trials=1, max_iter=1))
    rows = table.by_trial[0]
    assert rows["iteration"].tolist() == [0, 1]
    assert rows["rel_err"][0] == 1.0
    assert rows["time_s"][0] == 0.0


def test_trace_starts_at_unit_error():
    table = run_experiment(small_spec())
    for trial in range(3):
        assert table.by_trial[trial]["rel_err"][0] == 1.0


def test_csv_header_and_determinism():
    spec = small_spec()
    text_a = run_experiment(spec).to_csv_text()
    text_b = run_experiment(spec).to_csv_text()
    assert text_a.splitlines()[0] == CSV_HEADER
    assert text_a == text_b


def test_csv_wall_timing_differs_but_default_is_stable():
    spec = small_spec()
    table = run_experiment(spec)
    off = table.to_csv_text(timing="off")
    wall = table.to_csv_text(timing="wall")
    assert off != wall  # real timings are present only in wall mode
    # time column is identically zero in the default mode
    for line in off.splitlines()[1:]:
        assert line.split(",")[3] == "0.0"
    with pytest.raises(ValueError, match="timing"):
        table.to_csv_text(timing="cpu")


def test_write_csv_rejects_a_bad_timing_before_touching_the_file(tmp_path):
    table = run_experiment(small_spec())
    path = tmp_path / "trace.csv"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="timing"):
        table.write_csv(path, timing="cpu")
    assert path.read_text() == "kept\n"
    table.write_csv(path)
    assert path.read_text() == table.to_csv_text()


def test_first_trials_invariant_under_trial_count():
    few = run_experiment(small_spec(trials=2))
    many = run_experiment(small_spec(trials=5))
    untimed = ["iteration", "rel_err", "objective"]
    for trial in range(2):
        a = few.by_trial[trial][untimed].tolist()
        assert a == many.by_trial[trial][untimed].tolist()


def test_aggregate_rows_cover_every_iteration():
    table = run_experiment(small_spec(tol=1e-3, max_iter=20))
    horizon = max(r.iteration for r in table.rows)
    assert list(table.aggregates) == ["mean", "median"]
    for curve in table.aggregates.values():
        assert curve.dtype == TRACE_DTYPE
        assert curve["iteration"].tolist() == list(range(horizon + 1))


def test_trace_table_stores_one_array_per_trial():
    spec = small_spec(tol=1e-3, max_iter=20, trials=4)
    table = run_experiment(spec)
    assert len(table.by_trial) == spec.trials
    for trace in table.by_trial:
        assert isinstance(trace, np.ndarray) and trace.dtype == TRACE_DTYPE
        assert trace["iteration"].tolist() == list(range(len(trace)))
    assert isinstance(table.rows, collections.abc.Iterator)  # so not a tuple
    assert {r.trial for r in table.rows} == set(range(spec.trials))


def test_queries_and_aggregates_match_the_csv_rows():
    spec = small_spec(gamma=20.0, batch_size=20, max_iter=300, tol=1e-3, trials=6)
    table = run_experiment(spec)
    rows = {}
    for line in table.to_csv_text(timing="wall").splitlines()[1:]:
        trial, algo, it, *values = line.split(",")
        assert algo == spec.algo
        rows.setdefault(trial, []).append((int(it), *map(float, values)))
    trials = [rows.pop(str(t)) for t in range(spec.trials)]
    assert sorted(rows) == ["mean", "median"]
    stops = {
        "diverged" if t in table.divergences
        else "max_iter" if trial[-1][0] == spec.max_iter else "tolerance"
        for t, trial in enumerate(trials)
    }
    assert stops == {"diverged", "max_iter", "tolerance"}

    for t, trial in enumerate(trials):
        assert [r[0] for r in trial] == list(range(len(trial)))
        assert table.by_trial[t].tolist() == trial
    assert list(table.final_rel_errs()) == [trial[-1][2] for trial in trials]
    assert list(table.total_times()) == [trial[-1][1] for trial in trials]
    for threshold in (0.5, 1e-2, 1e-8):
        assert list(table.hit_iterations(threshold)) == [
            next((r[0] for r in trial if r[2] <= threshold), spec.max_iter + 1)
            for trial in trials
        ]

    horizon = max(len(trial) for trial in trials)
    for label, reduce in (("mean", statistics.fmean), ("median", statistics.median)):
        assert [r[0] for r in rows[label]] == list(range(horizon))
        for it, row in enumerate(rows[label]):
            # a trial that stopped before it carries its last row forward
            at_it = [trial[min(it, len(trial) - 1)] for trial in trials]
            for col in (1, 2, 3):
                want = reduce(r[col] for r in at_it)
                assert row[col] == pytest.approx(want, rel=1e-12), (label, it, col)


def test_run_experiment_takes_only_one_worker():
    spec = small_spec(trials=2)
    assert run_experiment(spec, workers=1).to_csv_text() == run_experiment(
        spec
    ).to_csv_text()
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers must be 1"):
            run_experiment(spec, workers=workers)


def test_divergence_is_recorded_not_fatal():
    spec = small_spec(gamma=5e4, batch_size=20, max_iter=300, trials=2)
    table = run_experiment(spec)
    assert table.divergences  # at least one trial blew up
    # rows for the diverged trial still present (iteration 0 at minimum)
    for trial in table.divergences:
        assert len(table.by_trial[trial]) >= 1


def test_generate_instance_consistency():
    spec = small_spec(noise_sigma=0.0)
    A, X_star, Y = generate_instance(spec, 0)
    np.testing.assert_allclose(Y, A @ X_star, atol=1e-15)
    assert len(row_support(X_star)) == spec.k
    # noisy variant differs from the clean one
    A2, X2, Y2 = generate_instance(dataclasses.replace(spec, noise_sigma=0.05), 0)
    np.testing.assert_array_equal(A, A2)
    np.testing.assert_array_equal(X_star, X2)
    assert not np.array_equal(Y, Y2)


def test_hit_iterations_and_final_errors():
    spec = small_spec(algo="mstogradmp", k=3, max_iter=20, tol=1e-9)
    table = run_experiment(spec)
    finals = table.final_rel_errs()
    assert finals.shape == (3,)
    hits = table.hit_iterations(1e-6)
    assert hits.shape == (3,)
    for trial in range(3):
        if finals[trial] <= 1e-6:
            assert hits[trial] <= spec.max_iter


def test_sweep_writes_one_csv_per_value(tmp_path):
    base = small_spec(trials=2, max_iter=4)
    written = run_sweep(base, "sparsity", [2, 4], tmp_path)
    assert [p.name for p in written] == ["sparsity_2.csv", "sparsity_4.csv"]
    for path in written:
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER


def test_sweep_noise_values_are_floats(tmp_path):
    base = small_spec(trials=1, max_iter=3)
    written = run_sweep(base, "noise", [0.02, 0.08], tmp_path)
    assert [p.name for p in written] == ["noise_0.02.csv", "noise_0.08.csv"]


@pytest.mark.parametrize("param, value, name", [
    ("sparsity", 5.7, "k"), ("sparsity", True, "k"), ("sparsity", 4.0, "k"),
    ("signals", 2.5, "L"), ("signals", False, "L"), ("batch", 2.5, "batch_size"),
    ("batch", True, "batch_size"), ("noise", True, "noise_sigma"),
    ("noise", False, "noise_sigma"),
])
def test_sweep_values_are_not_truncated(param, value, name):
    # before, 5.7 built k = 5 (file sparsity_5.csv) and True built k = 1
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sweep_specs(small_spec(), param, [value])


def test_sweep_values_parse_strings_and_take_numpy_numbers():
    specs = sweep_specs(small_spec(), "sparsity", ["4", np.int64(5), 2])
    assert [(s.k, type(s.k)) for s in specs] == [(4, int), (5, int), (2, int)]
    specs = sweep_specs(small_spec(), "noise", ["0.02", 0, np.float64(0.5)])
    assert [s.noise_sigma for s in specs] == [0.02, 0.0, 0.5]
    with pytest.raises(ValueError, match="invalid literal"):
        sweep_specs(small_spec(), "sparsity", ["5.7"])


def test_sweep_unknown_param(tmp_path):
    with pytest.raises(ValueError):
        run_sweep(small_spec(), "granularity", [1], tmp_path)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(trials=0)
    with pytest.raises(ValueError):
        small_spec(k=31)  # k > n
    with pytest.raises(ValueError):
        small_spec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        small_spec(algo="gradient_descent")
    for bad in (dict(noise_sigma=np.nan), dict(noise_sigma=np.inf),
                dict(gamma=np.inf), dict(gamma=np.nan), dict(tol=np.nan)):
        with pytest.raises(ValueError):
            small_spec(**bad)


def test_spec_rejects_batches_larger_than_m_and_matching_past_half_n():
    small_spec(batch_size=20)  # m = 20 components
    with pytest.raises(ValueError, match="batch_size"):
        small_spec(batch_size=21)
    small_spec(algo="mstoiht", k=16)  # IHT needs no 2k <= n
    for algo in ("mstogradmp", "cstogradmp"):
        small_spec(algo=algo, k=15)  # 2k = n = 30
        with pytest.raises(ValueError, match="2k <= n"):
            small_spec(algo=algo, k=16)


def test_sweep_validates_every_value_before_the_first_run(tmp_path):
    with pytest.raises(ValueError, match="batch_size"):
        run_sweep(small_spec(), "batch", [1, 21], tmp_path)
    # values that would share one CSV file: a repeat, or equal to six digits
    for values in (["0.1", "0.10"], [0.1234567, 0.1234568]):
        with pytest.raises(ValueError, match="same file"):
            run_sweep(small_spec(), "noise", values, tmp_path)
    assert not list(tmp_path.iterdir())


NON_INTEGER_FIELDS = [
    ("n", 30.0), ("m", 20.5), ("L", True), ("trials", 3.0), ("seed", 1.5),
    ("k", 2.5), ("batch_size", 1.0), ("max_iter", False), ("max_iter", "8"),
]


@pytest.mark.parametrize("name, value", NON_INTEGER_FIELDS)
def test_spec_rejects_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        small_spec(**{name: value})


@pytest.mark.parametrize("name, value", [("k", 2.5), ("batch_size", True),
                                         ("max_iter", 8.0), ("seed", 1.5),
                                         ("seed", True)])
def test_solver_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SolverConfig(**{"k": 3, name: value})


@pytest.mark.parametrize("name, value", [("gamma", True), ("tol", False), ("tol", True)])
def test_solver_config_rejects_bool_reals(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a"):
        SolverConfig(**{"k": 1, name: value})


@pytest.mark.parametrize("name, value", [("gamma", True), ("tol", False),
                                         ("noise_sigma", True), ("noise_sigma", False)])
def test_spec_rejects_bool_reals(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a"):
        small_spec(**{name: value})


def test_solver_config_accepts_any_integer_seed():
    for seed in (np.int64(7), np.uint64(2**64 - 1), -3, derive_seed(5, 0, 1)):
        assert SolverConfig(k=3, seed=seed).seed == seed


def test_spec_accepts_numpy_integers():
    fields = dict(n=30, m=20, L=3, k=3, batch_size=1, max_iter=8, trials=3, seed=42)
    spec = small_spec(**{key: np.int64(v) for key, v in fields.items()})
    assert run_experiment(spec).to_csv_text() == run_experiment(
        small_spec()
    ).to_csv_text()
